//! Property tests for the shared route plane: the parallel build is
//! bit-identical for every worker count and to a pair-by-pair fill.

use netgraph::{yen::Yen, Graph, NodeId, NodeKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::SharedRouteTable;

/// Connected random switch graph: spanning tree plus `extra` links.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(NodeKind::GenericSwitch, format!("n{i}")))
        .collect();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_duplex_link(nodes[i], nodes[parent], 10.0);
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && g.find_link(nodes[a], nodes[b]).is_none() {
            g.add_duplex_link(nodes[a], nodes[b], 10.0);
        }
    }
    g
}

/// Every ordered pair over the first few nodes — a small route domain.
fn some_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let m = n.min(5) as u32;
    let mut pairs = Vec::new();
    for a in 0..m {
        for b in 0..m {
            if a != b {
                pairs.push((NodeId(a), NodeId(b)));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One worker and N workers build bit-identical tables, and filling
    /// the pairs one at a time stores the same slots.
    #[test]
    fn build_is_independent_of_worker_count(
        n in 4usize..12, extra in 0usize..10, seed in any::<u64>(), k in 1usize..6
    ) {
        let g = random_connected(n, extra, seed);
        let pairs = some_pairs(n);
        let one = SharedRouteTable::build_for_pairs_with_threads(&g, k, &pairs, 1);
        for threads in [2usize, 3, 7] {
            let many = SharedRouteTable::build_for_pairs_with_threads(&g, k, &pairs, threads);
            prop_assert_eq!(&many, &one, "threads = {}", threads);
        }
        let mut lazy = SharedRouteTable::empty(k);
        let mut yen = Yen::new(&g);
        for &(a, b) in &pairs {
            prop_assert_eq!(Some(lazy.entry_or_compute(&mut yen, &g, a, b)), one.entry(a, b));
        }
        prop_assert_eq!(&lazy, &one, "ascending fill order reproduces the built table");
    }
}
