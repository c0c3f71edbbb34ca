//! The word-parallel switch-level average server path length against a
//! BFS per server.
//!
//! `netgraph::metrics::avg_server_path_length` runs a switch-level BFS
//! from 64 source switches at a time and weights it by server counts.
//! The per-server oracle below is the original definition; the two must
//! agree bit for bit on every topology family the repo builds, or
//! `(m, n)` profiling would reorder its candidates.

use flat_tree::{profile, FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use netgraph::{dijkstra::hop_distances, metrics, Graph};
use topology::{fat_tree, ClosParams, RandomGraphParams, TwoStageParams};

/// Mean BFS distance over every ordered pair of reachable servers: the
/// per-server definition.
fn oracle_apl(g: &Graph) -> Option<f64> {
    let servers = g.servers();
    let mut total = 0usize;
    let mut pairs = 0usize;
    for &s in &servers {
        let d = hop_distances(g, s);
        for &t in &servers {
            if t != s && d[t.idx()] != usize::MAX {
                total += d[t.idx()];
                pairs += 1;
            }
        }
    }
    (pairs > 0).then(|| total as f64 / pairs as f64)
}

fn assert_matches_oracle(name: &str, g: &Graph) {
    let got = metrics::avg_server_path_length(g).expect("servers");
    let want = oracle_apl(g).expect("reachable pairs");
    assert_eq!(got.to_bits(), want.to_bits(), "{name}");
}

fn flat_tree(clos: ClosParams) -> FlatTree {
    let (m, n) = profile::best_mn(&clos).expect("profilable");
    FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("valid params")
}

#[test]
fn fat_trees_and_every_flat_tree_mode_match() {
    for k in [4, 8] {
        let clos = fat_tree(k);
        assert_matches_oracle(&format!("fat-tree k={k}"), &clos.build().net.graph);
        let ft = flat_tree(clos);
        for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
            let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), mode));
            assert_matches_oracle(&format!("flat-tree k={k} {mode:?}"), &inst.net.graph);
        }
        // Hybrid: pods alternate between the three modes.
        let modes = [PodMode::Global, PodMode::Local, PodMode::Clos];
        let hybrid = ModeAssignment::hybrid((0..ft.pods()).map(|p| modes[p % 3]).collect());
        let inst = ft.instantiate(&hybrid);
        assert_matches_oracle(&format!("flat-tree k={k} hybrid"), &inst.net.graph);
    }
    // k=12: 72 edge switches of 6 servers each, one full 64-source word
    // plus a partial one.
    let clos = fat_tree(12);
    assert_matches_oracle("fat-tree k=12", &clos.build().net.graph);
    let ft = flat_tree(clos);
    let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
    assert_matches_oracle("flat-tree k=12 Global", &inst.net.graph);
}

#[test]
fn random_graphs_match() {
    let clos = ClosParams::mini();
    for seed in [1, 2, 3] {
        let rg = RandomGraphParams::from_clos(&clos, seed).build();
        assert_matches_oracle(&format!("random graph seed {seed}"), &rg.graph);
        let ts = TwoStageParams { clos, seed }.build();
        assert_matches_oracle(&format!("two-stage seed {seed}"), &ts.graph);
    }
}

#[test]
fn profiling_candidates_are_unchanged() {
    // Every candidate's APL is bit-identical to the oracle's, so the
    // sorted sweep (and `best_mn`) is the one the oracle would produce.
    // At k=12 every candidate has more than 64 server-bearing switches,
    // so profiling scores it from one source per pod-rotation orbit.
    for k in [8, 12] {
        let clos = fat_tree(k);
        let points = profile::profile_mn(&clos);
        assert!(!points.is_empty());
        for p in &points {
            let ft = FlatTree::new(FlatTreeParams::new(clos, p.m, p.n)).expect("profiled");
            let inst = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Global));
            let g = &inst.net.graph;
            let want = oracle_apl(g).expect("pairs");
            assert_eq!(p.global_apl.to_bits(), want.to_bits(), "k={k} {p:?}");
        }
    }
}

/// Profiling is exact above 1024 servers too: a strided sample of
/// source servers, every one in converter slot 0, picks `(1, 0)` here.
#[test]
fn table2_topo4_profiles_the_exact_optimum() {
    assert_eq!(profile::best_mn(&ClosParams::topo(4)), Some((2, 5)));
}

#[test]
fn fat_tree_k20_profiles_the_exact_optimum() {
    let clos = fat_tree(20);
    let points = profile::profile_mn(&clos);
    let best = points.first().expect("profilable");
    assert_eq!((best.m, best.n), (3, 1));
    let ft = FlatTree::new(FlatTreeParams::new(clos, best.m, best.n)).expect("profiled");
    let inst = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Global));
    let want = oracle_apl(&inst.net.graph).expect("pairs");
    assert_eq!(best.global_apl.to_bits(), want.to_bits());
}
