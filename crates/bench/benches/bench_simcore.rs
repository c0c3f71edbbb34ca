//! Criterion bench for the simulation engine refactor: the interned-path
//! event loop (`flowsim::simulate`) against the preserved pre-refactor
//! engine (`flowsim::reference::simulate_reference`) on the same
//! mini-topo-1 permutation workload, with and without a mid-run cable
//! failure. The two produce bit-identical results (pinned by
//! `golden_simresult`); this measures the speedup of path interning,
//! incremental allocation, and the failure-epoch route cache.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use flowsim::reference::simulate_reference;
use flowsim::{
    simulate, simulate_under_faults_with_provider_traced, FaultPlan, FaultSchedule, NoopSink,
    SimConfig, Transport,
};
use ft_bench::experiments::common;
use mcf::IncrementalAllocator;
use netgraph::{Graph, LinkId};
use topology::DcNetwork;

fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("switch-switch link")
}

fn workload(net: &DcNetwork, rounds: u64) -> Vec<flowsim::FlowSpec> {
    // Repeated rounds of one permutation with staggered starts: a steady
    // stream of arrival events at moderate concurrency, the regime the
    // experiments (fig8 traces) actually run in.
    let pairs = traffic::patterns::permutation(net.num_servers(), 11);
    let mut flows = Vec::new();
    for round in 0..rounds {
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let id = round * pairs.len() as u64 + i as u64;
            flows.push(flowsim::FlowSpec {
                id,
                src: net.servers[s],
                dst: net.servers[d],
                bytes: 2.5e7,
                start: id as f64 * 1e-3,
            });
        }
    }
    flows
}

/// Deterministic synthetic groups (8 subflows, 3–5 links each) over a
/// fixed link range, mimicking the engine's MPTCP churn.
fn subflow_groups(n_links: usize, n_groups: usize) -> Vec<Vec<Vec<usize>>> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..n_groups)
        .map(|_| {
            (0..8)
                .map(|_| {
                    let len = 3 + (next() % 3) as usize;
                    (0..len)
                        .map(|_| (next() % n_links as u64) as usize)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Allocator-level arrival/departure churn: the incremental allocator
/// applies each edit and re-allocates, the per-event work the engine's
/// bindings do.
fn bench_alloc_churn(c: &mut Criterion) {
    const LINKS: usize = 768;
    const RESIDENT: usize = 64;
    const STEPS: usize = 256;
    let caps = vec![10.0f64; LINKS];
    let groups = subflow_groups(LINKS, RESIDENT + STEPS);
    c.bench_function("simcore/alloc_incremental_churn", |b| {
        b.iter(|| {
            let mut a = IncrementalAllocator::new();
            for g in &groups[..RESIDENT] {
                a.push_group(1.0, g.iter().map(|p| p.iter().copied()));
            }
            a.allocate(&caps);
            let mut acc = 0.0f64;
            for (step, g) in groups[RESIDENT..].iter().enumerate() {
                a.swap_remove_group(step % RESIDENT);
                a.push_group(1.0, g.iter().map(|p| p.iter().copied()));
                a.allocate(&caps);
                acc += a.group_rate_sum(a.group_at(0));
            }
            acc
        });
    });
}

fn bench(c: &mut Criterion) {
    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let flows = workload(&net, 6);
    let mut plan = FaultPlan::new(1);
    plan.flap(first_cable(&net.graph), 0.05, None);
    let fail = plan.compile(&net.graph).expect("valid plan");
    let run_fail = |cfg: &SimConfig| {
        simulate_under_faults_with_provider_traced(
            &net.graph,
            &flows,
            cfg,
            &fail,
            &mut *cfg.transport.provider(),
            &mut NoopSink,
        )
        .expect("valid workload")
        .result
        .end_time
    };
    let transports = [
        ("ecmp", Transport::TcpEcmp),
        (
            "mptcp8",
            Transport::Mptcp {
                k: 8,
                coupled: true,
            },
        ),
    ];
    for (tname, transport) in transports {
        let cfg = SimConfig {
            transport,
            ..SimConfig::default()
        };
        c.bench_function(&format!("simcore/engine_{tname}"), |b| {
            b.iter(|| {
                simulate(&net.graph, &flows, &cfg)
                    .expect("valid workload")
                    .end_time
            });
        });
        c.bench_function(&format!("simcore/reference_{tname}"), |b| {
            b.iter(|| {
                simulate_reference(&net.graph, &flows, &cfg, &FaultSchedule::empty()).end_time
            });
        });
        c.bench_function(&format!("simcore/engine_{tname}_failure"), |b| {
            b.iter(|| run_fail(&cfg));
        });
        c.bench_function(&format!("simcore/reference_{tname}_failure"), |b| {
            b.iter(|| simulate_reference(&net.graph, &flows, &cfg, &fail).end_time);
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench, bench_alloc_churn
}
criterion_main!(benches);
