//! Criterion benches for the extension experiments (resilience sweep,
//! hybrid zones, ablations) at reduced scale.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use ft_bench::experiments::{common, hybrid};
use ft_bench::Scale;
use netgraph::yen::Yen;
use topology::{fat_tree, ClosParams};

fn bench(c: &mut Criterion) {
    // Resilience kernel: masked k-shortest-path recomputation.
    let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
    let inst = ft.instantiate(&ModeAssignment::uniform(4, PodMode::Global));
    let g = &inst.net.graph;
    let (s, d) = (inst.net.servers[0], inst.net.servers[60]);
    let dead = g
        .find_link(inst.pod_edges[0][0], inst.pod_aggs[0][0])
        .unwrap();
    let mut yen = Yen::new(g);
    c.bench_function("extensions/masked_ksp_reroute", |b| {
        b.iter(|| yen.paths_avoiding(g, s, d, 8, |l| l == dead).len());
    });

    // Hybrid zones, full pipeline at mini scale.
    c.bench_function("extensions/hybrid_zones", |b| {
        b.iter(|| hybrid::run(Scale::bench()).len());
    });

    // Profiling sweep (the §3.4 knob) on the mini layout.
    c.bench_function("extensions/profile_mn_mini", |b| {
        b.iter(|| flat_tree::profile::profile_mn(&ClosParams::mini()).len());
    });
    // The same sweep at k=16: 320 switches, more than 64 of them with
    // servers, so each candidate is scored from its pod-rotation orbits.
    c.bench_function("extensions/profile_mn_k16", |b| {
        b.iter(|| flat_tree::profile::profile_mn(&fat_tree(16)).len());
    });
    // k=24, the arity `decomp_k32` profiles: 720 switches, 89 candidates.
    c.bench_function("extensions/profile_mn_k24", |b| {
        b.iter(|| flat_tree::profile::profile_mn(&fat_tree(24)).len());
    });

    // Failure-injection instantiation.
    c.bench_function("extensions/stuck_converter_instantiate", |b| {
        b.iter(|| {
            common::flat_tree_over(ClosParams::mini())
                .instantiate_with_overrides(
                    &ModeAssignment::uniform(4, PodMode::Global),
                    &[(0, flat_tree::ConverterConfig::Default)],
                )
                .net
                .graph
                .link_count()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
