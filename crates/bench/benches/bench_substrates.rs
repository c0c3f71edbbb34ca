//! Micro-benchmarks of the substrate algorithms every experiment rests
//! on: Yen k-shortest paths (plain and masked), cold ECMP routing, max-min
//! water filling, flat-tree instantiation, and the wiring-property checkers. These are the
//! performance-tracking benches for regressions, not paper figures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::provider::{EcmpProvider, PathProvider};
use flowsim::FailedLinks;
use ft_bench::experiments::common;
use mcf::IncrementalAllocator;
use netgraph::PathArena;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use topology::ClosParams;

fn bench(c: &mut Criterion) {
    // Yen on the mini Clos.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let clos = ClosParams::mini().build();
    let g = &clos.net.graph;
    let s0 = clos.net.servers[0];
    let s63 = clos.net.servers[63];
    let mut yen = netgraph::yen::Yen::new(g);
    c.bench_function("substrates/yen_k8_mini_clos", |b| {
        b.iter(|| yen.paths_avoiding(g, s0, s63, 8, |_| false).len());
    });

    // Masked switch-pair Yen, as a failure-aware MPTCP provider runs it:
    // k=8 on the mini topo-1 global flat-tree, one engine, every 16th
    // ingress-switch pair under each of four fixed failure sets of 10%
    // of the switch cables (both directions down).
    let inst = common::instance(
        &common::flat_tree_over(common::topo(1, false)),
        PodMode::Global,
    );
    let g = &inst.net.graph;
    let cables = g.switch_cables();
    let failure_sets: Vec<Vec<bool>> = (0..4)
        .map(|_| {
            let mut cut = cables.clone();
            cut.shuffle(&mut rng);
            let mut down = vec![false; g.link_count()];
            for &l in &cut[..cables.len() / 10] {
                down[l.idx()] = true;
                down[g.link(l).reverse.expect("duplex cable").idx()] = true;
            }
            down
        })
        .collect();
    let pairs: Vec<_> = routing::SharedRouteTable::ingress_pairs(g)
        .into_iter()
        .step_by(16)
        .collect();
    let mut yen = netgraph::yen::Yen::new(g);
    c.bench_function("substrates/yen_masked_k8_mini_global", |b| {
        b.iter(|| {
            let mut paths = 0;
            for down in &failure_sets {
                for &(a, d) in &pairs {
                    paths += yen.paths_avoiding(g, a, d, 8, |l| down[l.idx()]).len();
                }
            }
            paths
        });
    });

    // Cold ECMP routing, as `bigsim` routes: a seeded permutation on the
    // k=16 flat-tree global network through a fresh `EcmpProvider` per
    // iteration, so every egress table is built inside the timing.
    let inst = common::instance(
        &common::flat_tree_over(topology::fat_tree(16)),
        PodMode::Global,
    );
    let net = &inst.net;
    let pairs = traffic::patterns::permutation(net.num_servers(), 1);
    let flows = common::flow_specs(net, &pairs, 1e6);
    let failed = FailedLinks::new(net.graph.link_count());
    c.bench_function("substrates/ecmp_cold_k16_global", |b| {
        b.iter(|| {
            let mut provider = EcmpProvider::new();
            let mut arena = PathArena::new();
            flows
                .iter()
                .filter(|sp| {
                    provider
                        .route(&net.graph, &mut arena, &failed, sp)
                        .is_some()
                })
                .count()
        });
    });

    // Water filling with 2048 random one-subflow groups over 256 links,
    // through the production allocator.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let caps: Vec<f64> = (0..256).map(|_| rng.gen_range(1.0..40.0)).collect();
    let paths: Vec<Vec<usize>> = (0..2048)
        .map(|_| {
            let len = rng.gen_range(2..6);
            (0..len)
                .map(|_| rng.gen_range(0..256))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        })
        .collect();
    c.bench_function("substrates/water_filling_2048x256", |b| {
        b.iter(|| {
            let mut a = IncrementalAllocator::new();
            for p in &paths {
                a.push_group(1.0, [p.iter().copied()]);
            }
            a.allocate(&caps);
            a.group_rate_sum(a.group_at(0))
        });
    });

    // Flat-tree instantiation (all three modes).
    let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
    c.bench_function("substrates/flat_tree_instantiate_3_modes", |b| {
        b.iter_batched(
            || ft.clone(),
            |ft| {
                for m in [PodMode::Clos, PodMode::Local, PodMode::Global] {
                    ft.instantiate(&ModeAssignment::uniform(4, m));
                }
            },
            BatchSize::SmallInput,
        );
    });

    // Ablation: wiring pattern 1 vs 2 — average path length of global
    // mode under each pattern (the §3.2 design choice).
    for pattern in [
        flat_tree::WiringPattern::Pattern1,
        flat_tree::WiringPattern::Pattern2,
    ] {
        let mut params = FlatTreeParams::new(ClosParams::mini(), 1, 1);
        params.wiring = pattern;
        if params.validate().is_err() {
            continue;
        }
        let ft = FlatTree::new(params).unwrap();
        c.bench_function(&format!("substrates/global_apl_{pattern:?}"), |b| {
            b.iter(|| {
                let inst = ft.instantiate(&ModeAssignment::uniform(4, PodMode::Global));
                netgraph::metrics::avg_server_path_length(&inst.net.graph)
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
