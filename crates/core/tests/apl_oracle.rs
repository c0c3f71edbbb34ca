//! The leaf-collapsed average server path length against a BFS per
//! server.
//!
//! `netgraph::metrics::avg_server_path_length{,_sampled}` run one BFS per
//! source *switch* and weight it by server counts. The per-server oracle
//! below is the original definition; the two must agree bit for bit on
//! every topology family the repo builds, or `(m, n)` profiling would
//! reorder its candidates.

use flat_tree::{profile, FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use netgraph::{dijkstra::hop_distances, metrics, Graph, NodeId};
use topology::{fat_tree, ClosParams, RandomGraphParams, TwoStageParams};

/// Mean BFS distance from each of `sources` to every other reachable
/// server: the per-server definition.
fn oracle_apl(g: &Graph, sources: &[NodeId]) -> Option<f64> {
    let servers = g.servers();
    let mut total = 0usize;
    let mut pairs = 0usize;
    for &s in sources {
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

/// The sources `avg_server_path_length_sampled` strides over.
fn sampled_sources(g: &Graph, max_sources: usize) -> Vec<NodeId> {
    let servers = g.servers();
    let stride = (servers.len() / max_sources.min(servers.len())).max(1);
    servers.into_iter().step_by(stride).collect()
}

fn assert_matches_oracle(name: &str, g: &Graph) {
    let full = metrics::avg_server_path_length(g).expect("servers");
    let want = oracle_apl(g, &g.servers()).expect("reachable pairs");
    assert_eq!(full.to_bits(), want.to_bits(), "{name}: full APL");
    for max_sources in [1, 3, 7, 16, 1000] {
        let got = metrics::avg_server_path_length_sampled(g, max_sources).expect("sources");
        let want = oracle_apl(g, &sampled_sources(g, max_sources)).expect("pairs");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name}: sampled {max_sources}"
        );
    }
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
    let clos = fat_tree(8);
    let points = profile::profile_mn(&clos);
    assert!(!points.is_empty());
    for p in &points {
        let ft = FlatTree::new(FlatTreeParams::new(clos, p.m, p.n)).expect("profiled");
        let inst = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Global));
        let g = &inst.net.graph;
        let want = oracle_apl(g, &g.servers()).expect("pairs");
        assert_eq!(p.global_apl.to_bits(), want.to_bits(), "({}, {})", p.m, p.n);
    }
}
