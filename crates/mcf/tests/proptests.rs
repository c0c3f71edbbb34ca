//! Property tests for the MCF approximations.

use mcf::maxmin::{max_min, verify_max_min, weighted_max_min, Entity};
use mcf::{concurrent::max_concurrent_flow, Commodity};
use netgraph::{Graph, NodeId, NodeKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_net(switches: usize, servers: usize, extra: usize, seed: u64) -> (Graph, Vec<NodeId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new();
    let sw: Vec<NodeId> = (0..switches)
        .map(|i| g.add_node(NodeKind::GenericSwitch, format!("sw{i}")))
        .collect();
    for i in 1..switches {
        let p = rng.gen_range(0..i);
        g.add_duplex_link(sw[i], sw[p], 10.0);
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..switches);
        let b = rng.gen_range(0..switches);
        if a != b && g.find_link(sw[a], sw[b]).is_none() {
            g.add_duplex_link(sw[a], sw[b], 10.0);
        }
    }
    let servers: Vec<NodeId> = (0..servers)
        .map(|i| {
            let s = g.add_node(NodeKind::Server, format!("s{i}"));
            g.add_duplex_link(s, sw[i % switches], 10.0);
            s
        })
        .collect();
    (g, servers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Max-min allocations over random entity sets are always feasible and
    /// bottleneck-justified.
    #[test]
    fn water_filling_invariants(
        links in 1usize..12,
        ents in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let caps: Vec<f64> = (0..links).map(|_| rng.gen_range(1.0..20.0)).collect();
        let entities: Vec<Entity> = (0..ents)
            .map(|_| {
                let n = rng.gen_range(1..=links);
                let mut ls: Vec<usize> = (0..links).collect();
                for i in 0..n {
                    let j = rng.gen_range(i..links);
                    ls.swap(i, j);
                }
                ls.truncate(n);
                Entity { weight: rng.gen_range(0.5..4.0), links: ls }
            })
            .collect();
        let rates = weighted_max_min(&caps, &entities);
        prop_assert!(verify_max_min(&caps, &entities, &rates).is_ok());
        prop_assert!(rates.iter().all(|&r| r >= 0.0));
    }

    /// On a single shared link, max-min equals the exact fair share.
    #[test]
    fn fair_share_exact(n in 1usize..30, cap in 1.0f64..100.0) {
        let paths: Vec<Vec<usize>> = (0..n).map(|_| vec![0]).collect();
        let rates = max_min(&[cap], &paths);
        for r in rates {
            prop_assert!((r - cap / n as f64).abs() < 1e-9);
        }
    }

    /// Garg–Könemann on random networks: λ is positive, rates respect
    /// λ·demand, and λ never exceeds the obvious NIC bound.
    #[test]
    fn gk_sane_on_random_networks(
        switches in 3usize..10,
        extra in 0usize..10,
        pairs in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (g, servers) = random_net(switches, 2 * pairs, extra, seed);
        let coms: Vec<Commodity> = (0..pairs)
            .map(|i| Commodity::unit(servers[2 * i], servers[2 * i + 1]))
            .collect();
        let r = max_concurrent_flow(&g, &coms, 0.15);
        prop_assert!(r.lambda > 0.0);
        prop_assert!(r.lambda <= 10.0 + 1e-6, "NIC rate bounds λ, got {}", r.lambda);
        for (rate, c) in r.rates.iter().zip(&coms) {
            prop_assert!(rate / c.demand >= r.lambda - 1e-9);
        }
    }
}

/// Random arrival/departure/reroute/capacity-change sequences: after
/// every epoch the incremental allocator's rates must be bit-identical
/// to a from-scratch `weighted_max_min` over the equivalent entity list.
mod incremental_epochs {
    use super::*;
    use mcf::IncrementalAllocator;

    /// Mirror of the allocator's group state kept by the test: the
    /// flattened entity list a from-scratch build would see.
    #[derive(Clone)]
    struct Group {
        weight: f64,
        subflows: Vec<Vec<usize>>,
    }

    fn flatten(groups: &[Group]) -> Vec<Entity> {
        let mut out = Vec::new();
        for g in groups {
            for p in &g.subflows {
                out.push(Entity {
                    weight: g.weight,
                    links: p.clone(),
                });
            }
        }
        out
    }

    fn random_group(rng: &mut ChaCha8Rng, links: usize) -> Group {
        let nsub = rng.gen_range(1..=4usize);
        let subflows = (0..nsub)
            .map(|_| {
                let n = rng.gen_range(1..=links.min(5));
                let mut ls: Vec<usize> = (0..links).collect();
                for i in 0..n {
                    let j = rng.gen_range(i..links);
                    ls.swap(i, j);
                }
                ls.truncate(n);
                ls
            })
            .collect();
        Group {
            weight: rng.gen_range(0.1..4.0),
            subflows,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn incremental_matches_from_scratch_bitwise(
            links in 2usize..14,
            epochs in 2usize..24,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut links = links;
            let mut caps: Vec<f64> = (0..links).map(|_| rng.gen_range(1.0..20.0)).collect();
            let mut alloc = IncrementalAllocator::new();
            let mut mirror: Vec<Group> = Vec::new();
            for _ in 0..epochs {
                // One structural edit per epoch, like the engine's
                // arrival / departure / park / reroute / resync / failure
                // edges.
                match rng.gen_range(0..7u32) {
                    0 | 1 => {
                        let g = random_group(&mut rng, links);
                        alloc.push_group(g.weight, g.subflows.iter().map(|p| p.iter().copied()));
                        mirror.push(g);
                    }
                    2 => {
                        if !mirror.is_empty() {
                            let i = rng.gen_range(0..mirror.len());
                            alloc.swap_remove_group(i);
                            mirror.swap_remove(i);
                        }
                    }
                    3 => {
                        if !mirror.is_empty() {
                            let i = rng.gen_range(0..mirror.len());
                            alloc.remove_group_ordered(i);
                            mirror.remove(i);
                        }
                    }
                    4 => {
                        if !mirror.is_empty() {
                            let i = rng.gen_range(0..mirror.len());
                            let g = random_group(&mut rng, links);
                            alloc.replace_group(
                                i,
                                g.weight,
                                g.subflows.iter().map(|p| p.iter().copied()),
                            );
                            mirror[i] = g;
                        }
                    }
                    5 => {
                        // Clear, then refill on a capacity vector of a
                        // new length: the engine's resync edge, and reuse
                        // of one allocator across differently-shaped
                        // link sets.
                        links = rng.gen_range(2..14usize);
                        caps = (0..links).map(|_| rng.gen_range(1.0..20.0)).collect();
                        alloc.clear();
                        mirror.clear();
                        for _ in 0..rng.gen_range(0..4usize) {
                            let g = random_group(&mut rng, links);
                            alloc.push_group(g.weight, g.subflows.iter().map(|p| p.iter().copied()));
                            mirror.push(g);
                        }
                    }
                    _ => {
                        // Capacity edge: fail (0.0) or resize one link.
                        let l = rng.gen_range(0..links);
                        caps[l] = if rng.gen_bool(0.3) {
                            0.0
                        } else {
                            rng.gen_range(1.0..20.0)
                        };
                    }
                }
                let want = weighted_max_min(&caps, &flatten(&mirror));
                alloc.allocate(&caps);
                let mut wi = 0usize;
                for gi in 0..alloc.num_groups() {
                    let gid = alloc.group_at(gi);
                    let mut sum = 0.0f64;
                    for &r in alloc.group_rates(gid) {
                        prop_assert_eq!(
                            r.to_bits(), want[wi].to_bits(),
                            "entity {} diverged after {} groups", wi, mirror.len()
                        );
                        sum += r;
                        wi += 1;
                    }
                    prop_assert_eq!(sum.to_bits(), alloc.group_rate_sum(gid).to_bits());
                }
                prop_assert_eq!(wi, want.len());
            }
        }
    }
}
