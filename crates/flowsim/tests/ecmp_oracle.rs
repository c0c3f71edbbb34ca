//! `EcmpProvider` against the enumeration oracle.
//!
//! The provider counts and unranks equal-cost paths on the switch graph
//! (`netgraph::ecmp::EcmpRouter`). The oracle enumerates the capped
//! equal-cost set with `ecmp::equal_cost_paths`, keeps the members whose
//! links are all up, and hash-selects with `ecmp::select_by_hash`; when
//! no member survives it takes the failure-aware shortest path. Both must
//! return the same [`Path`] — nodes and links — for every flow.

use flat_tree::{profile, FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::provider::{EcmpProvider, PathProvider};
use flowsim::sim::FlowSpec;
use flowsim::FailedLinks;
use netgraph::ecmp::{self, MAX_ECMP_PATHS};
use netgraph::{dijkstra, Graph, LinkId, NodeId, NodeKind, Path, PathArena};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use topology::fat_tree;

/// The enumerate-and-select route under `failed`.
fn oracle(g: &Graph, failed: &FailedLinks, sp: &FlowSpec) -> Option<Path> {
    let alive: Vec<Path> = ecmp::equal_cost_paths(g, sp.src, sp.dst)
        .into_iter()
        .filter(|p| failed.path_alive(&p.links))
        .collect();
    match ecmp::select_by_hash(&alive, sp.src, sp.dst, sp.id) {
        Some(p) => Some(p.clone()),
        None => dijkstra::shortest_path_by(g, sp.src, sp.dst, |l| {
            if failed.is_down(l) {
                f64::INFINITY
            } else {
                1.0
            }
        })
        .map(|(_, p)| p),
    }
}

fn spec(id: u64, src: NodeId, dst: NodeId) -> FlowSpec {
    FlowSpec {
        id,
        src,
        dst,
        bytes: 1.0,
        start: 0.0,
    }
}

/// Routes every flow through one provider and checks it against the
/// oracle; returns how many flows took the all-dead fallback.
fn check(g: &Graph, failed: &FailedLinks, flows: &[FlowSpec]) -> Result<usize, TestCaseError> {
    let mut provider = EcmpProvider::new();
    let mut arena = PathArena::new();
    let mut fallbacks = 0;
    for sp in flows {
        let got = provider
            .route(g, &mut arena, failed, sp)
            .map(|r| arena.get(r.path_ids[0]).clone());
        let want = oracle(g, failed, sp);
        prop_assert_eq!(&got, &want, "flow {} {:?}->{:?}", sp.id, sp.src, sp.dst);
        let alive = ecmp::equal_cost_paths(g, sp.src, sp.dst)
            .iter()
            .any(|p| failed.path_alive(&p.links));
        fallbacks += usize::from(!alive);
    }
    Ok(fallbacks)
}

/// Fails both directions of a cable.
fn fail_cable(g: &Graph, failed: &mut FailedLinks, l: LinkId) {
    failed.fail(l);
    if let Some(r) = g.link(l).reverse {
        failed.fail(r);
    }
}

/// Switch-to-switch directed links.
fn fabric_links(g: &Graph) -> Vec<LinkId> {
    g.link_ids()
        .filter(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .collect()
}

/// A fat-tree of arity `k` (`mode` 0) or its flat-tree instance in
/// Clos (1), local (2) or global (3) mode. A k = 6 fat-tree has three
/// edge switches per pod and flat-tree needs an even count, so it is
/// always returned plain.
fn network(k: usize, mode: usize) -> Graph {
    let clos = fat_tree(k);
    if mode == 0 || k == 6 {
        return clos.build().net.graph;
    }
    let (m, n) = profile::best_mn(&clos).expect("profilable");
    let ft = FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("valid params");
    let mode = [PodMode::Clos, PodMode::Local, PodMode::Global][mode - 1];
    ft.instantiate(&ModeAssignment::uniform(ft.pods(), mode))
        .net
        .graph
}

/// Random server pairs (same-switch pairs included) with random ids.
fn random_flows(g: &Graph, rng: &mut ChaCha8Rng, n: usize) -> Vec<FlowSpec> {
    let servers = g.servers();
    (0..n)
        .map(|_| {
            let s = servers[rng.gen_range(0..servers.len())];
            let mut t = servers[rng.gen_range(0..servers.len())];
            while t == s {
                t = servers[rng.gen_range(0..servers.len())];
            }
            spec(rng.next_u64(), s, t)
        })
        .collect()
}

/// Fails one random fabric link on every equal-cost path of `sp`, so
/// its whole set dies and the oracle takes the fallback.
fn kill_equal_cost_set(g: &Graph, failed: &mut FailedLinks, sp: &FlowSpec, rng: &mut ChaCha8Rng) {
    for p in ecmp::equal_cost_paths(g, sp.src, sp.dst) {
        let inner = &p.links[1..p.links.len() - 1];
        if !inner.is_empty() && failed.path_alive(&p.links) {
            failed.fail(inner[rng.gen_range(0..inner.len())]);
        }
    }
}

/// `s0..s2 - A - L1 - ... - Ln - B - t0..t2`, layer `i` `widths[i]`
/// switches wide and fully meshed to its neighbours: the product of the
/// widths is the number of equal-cost paths between the edge switches.
fn layered(widths: &[usize]) -> (Graph, Vec<NodeId>, Vec<NodeId>) {
    let mut g = Graph::new();
    let a = g.add_node(NodeKind::EdgeSwitch, "A");
    let mut prev = vec![a];
    for (layer, &width) in widths.iter().enumerate() {
        let cur: Vec<NodeId> = (0..width)
            .map(|i| g.add_node(NodeKind::GenericSwitch, format!("L{layer}.{i}")))
            .collect();
        for &u in &prev {
            for &v in &cur {
                g.add_duplex_link(u, v, 10.0);
            }
        }
        prev = cur;
    }
    let b = g.add_node(NodeKind::EdgeSwitch, "B");
    for &u in &prev {
        g.add_duplex_link(u, b, 10.0);
    }
    let mut attach = |sw: NodeId, name: &str| -> Vec<NodeId> {
        (0..3)
            .map(|i| {
                let s = g.add_node(NodeKind::Server, format!("{name}{i}"));
                g.add_duplex_link(s, sw, 10.0);
                s
            })
            .collect()
    };
    let left = attach(a, "s");
    let right = attach(b, "t");
    (g, left, right)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fat-trees and their flat-tree instances, every link up or under
    /// random cable failures.
    #[test]
    fn provider_matches_oracle_on_clos_families(
        k in prop::sample::select(vec![4usize, 6, 8]),
        mode in 0usize..4,
        cuts in 0usize..8,
        cut_leg in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = network(k, mode);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flows = random_flows(&g, &mut rng, 48);
        let mut failed = FailedLinks::new(g.link_count());
        check(&g, &failed, &flows)?;
        let fabric = fabric_links(&g);
        for _ in 0..cuts {
            fail_cable(&g, &mut failed, fabric[rng.gen_range(0..fabric.len())]);
        }
        if cut_leg {
            // A dead server uplink kills every path of its flows.
            let src = flows[0].src;
            let up = g.find_link(src, g.server_uplink_switch(src).unwrap()).unwrap();
            failed.fail(up);
        }
        check(&g, &failed, &flows)?;
    }

    /// Masks that kill whole equal-cost sets: the provider must fall back
    /// to the same failure-aware shortest path, and every other flow must
    /// still rehash over its own survivors.
    #[test]
    fn provider_matches_oracle_when_equal_cost_sets_die(
        k in prop::sample::select(vec![4usize, 6, 8]),
        mode in 0usize..4,
        seed in any::<u64>(),
    ) {
        let g = network(k, mode);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flows = random_flows(&g, &mut rng, 32);
        let mut failed = FailedLinks::new(g.link_count());
        let crossing = |sp: &&FlowSpec| {
            g.server_uplink_switch(sp.src) != g.server_uplink_switch(sp.dst)
        };
        for sp in flows.iter().filter(crossing).take(2) {
            kill_equal_cost_set(&g, &mut failed, sp, &mut rng);
        }
        let fallbacks = check(&g, &failed, &flows)?;
        prop_assert!(fallbacks >= 2, "the two targeted sets must be dead");
    }

    /// More equal-cost paths than the cap: 9^3 = 729 > 512. With failures
    /// the hash must index the alive members of the *capped* set, so
    /// failures beyond rank 512 change nothing and failures inside it
    /// shrink the survivor count.
    #[test]
    fn provider_matches_oracle_beyond_the_cap(cuts in 0usize..12, seed in any::<u64>()) {
        let (g, left, right) = layered(&[9, 9, 9]);
        prop_assert_eq!(
            ecmp::equal_cost_paths(&g, left[0], right[0]).len(),
            MAX_ECMP_PATHS
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut flows = Vec::new();
        for _ in 0..24 {
            let (s, t) = (left[rng.gen_range(0..3usize)], right[rng.gen_range(0..3usize)]);
            flows.push(spec(rng.next_u64(), s, t));
            flows.push(spec(rng.next_u64(), t, s));
        }
        flows.push(spec(rng.next_u64(), left[0], left[1]));
        let mut failed = FailedLinks::new(g.link_count());
        check(&g, &failed, &flows)?;
        let fabric = fabric_links(&g);
        for _ in 0..cuts {
            failed.fail(fabric[rng.gen_range(0..fabric.len())]);
        }
        check(&g, &failed, &flows)?;
    }
}

#[test]
fn saturated_first_hop_counts_only_the_capped_prefix() {
    // Two first-layer switches with 9^3 = 729 paths each: the first
    // one's count saturates at the cap, and the capped set is its first
    // 512 paths. Killing its first 81 paths leaves 431 capped
    // survivors, although 648 of its paths are alive.
    let (g, left, right) = layered(&[2, 9, 9, 9]);
    let switches = g.nodes_of_kind(NodeKind::GenericSwitch);
    let (l1, l2) = (switches[0], switches[2]);
    let flows: Vec<FlowSpec> = (0..64).map(|id| spec(id, left[0], right[0])).collect();
    let mut failed = FailedLinks::new(g.link_count());
    failed.fail(g.find_link(l1, l2).unwrap());
    check(&g, &failed, &flows).unwrap();
}

#[test]
fn cap_and_survivor_interplay_is_exact() {
    // Deterministic corners of the layered graph: cuts that only touch
    // paths ranked at or above the cap, cuts inside the capped prefix,
    // and a cut of the first layer's whole first switch.
    let (g, left, right) = layered(&[9, 9, 9]);
    let (s, t) = (left[0], right[0]);
    let l2 = |i: usize| g.nodes_of_kind(NodeKind::GenericSwitch)[9 + i];
    let l1 = |i: usize| g.nodes_of_kind(NodeKind::GenericSwitch)[i];
    let flows: Vec<FlowSpec> = (0..64).map(|id| spec(id, s, t)).collect();
    let a = g.server_uplink_switch(s).unwrap();
    // Paths through L1.6 rank 486..567: failing L1.7 and L1.8 removes
    // only paths beyond the cap; failing L1.6's uplink removes the tail
    // of the capped set.
    for dead in [
        vec![
            g.find_link(a, l1(7)).unwrap(),
            g.find_link(a, l1(8)).unwrap(),
        ],
        vec![g.find_link(a, l1(6)).unwrap()],
        vec![g.find_link(a, l1(0)).unwrap()],
        vec![g.find_link(l1(6), l2(2)).unwrap()],
        vec![g.find_link(l1(6), l2(3)).unwrap()],
    ] {
        let mut failed = FailedLinks::new(g.link_count());
        for l in dead {
            failed.fail(l);
        }
        check(&g, &failed, &flows).unwrap();
    }
}

#[test]
fn parallel_links_follow_the_first_link() {
    // e0 = x is doubled; the oracle's paths use the first e0 -> x link,
    // so failing it kills the x path even though its twin is up.
    let mut g = Graph::new();
    let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
    let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
    let x = g.add_node(NodeKind::CoreSwitch, "x");
    let y = g.add_node(NodeKind::CoreSwitch, "y");
    let (first, _) = g.add_duplex_link(e0, x, 10.0);
    let (twin, _) = g.add_duplex_link(e0, x, 10.0);
    g.add_duplex_link(x, e1, 10.0);
    g.add_duplex_link(e0, y, 10.0);
    g.add_duplex_link(y, e1, 10.0);
    let s = g.add_node(NodeKind::Server, "s");
    let t = g.add_node(NodeKind::Server, "t");
    g.add_duplex_link(s, e0, 10.0);
    g.add_duplex_link(t, e1, 10.0);
    let flows: Vec<FlowSpec> = (0..16).map(|id| spec(id, s, t)).collect();
    for dead in [None, Some(first), Some(twin)] {
        let mut failed = FailedLinks::new(g.link_count());
        if let Some(l) = dead {
            failed.fail(l);
        }
        check(&g, &failed, &flows).unwrap();
    }
}
