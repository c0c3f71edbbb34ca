//! Criterion bench for the shared route plane: the parallel full-table
//! precompute, and the failure-epoch simulation that motivated
//! switch-level routing — `MptcpProvider` splicing under faults (over
//! the shared table and over an empty one) against the old server-level
//! re-Yen per server pair (kept here as the oracle provider). All
//! variants are bit-identical in output (pinned by `route_equivalence`);
//! this measures the wall-clock they trade.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use flowsim::provider::{PathProvider, RoutedConn};
use flowsim::sim::FlowSpec;
use flowsim::{
    simulate_under_faults_with_provider_traced, FailedLinks, FaultPlan, NoopSink, SimConfig,
    Transport,
};
use ft_bench::experiments::common;
use netgraph::{yen::Yen, Graph, LinkId, PathArena};
use routing::SharedRouteTable;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use topology::DcNetwork;

/// The pre-fix behavior under failures, as a provider: a masked
/// server-level Yen run per server pair, per failure epoch.
struct ServerLevelOracle {
    k: usize,
    yen: Yen,
    cache: HashMap<(netgraph::NodeId, netgraph::NodeId), Option<RoutedConn>>,
    epoch: u64,
}

impl PathProvider for ServerLevelOracle {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        if failed.epoch() != self.epoch {
            self.cache.clear();
            self.epoch = failed.epoch();
        }
        if let Some(hit) = self.cache.get(&(spec.src, spec.dst)) {
            return hit.clone();
        }
        let paths = self
            .yen
            .paths_avoiding(g, spec.src, spec.dst, self.k, |l| failed.is_down(l));
        let conn = (!paths.is_empty()).then(|| {
            let w = 1.0 / paths.len() as f64;
            RoutedConn {
                path_ids: arena.intern_all(&paths),
                subflow_weight: w,
            }
        });
        self.cache.insert((spec.src, spec.dst), conn.clone());
        conn
    }
}

fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("switch-switch link")
}

fn workload(net: &DcNetwork, rounds: u64) -> Vec<flowsim::FlowSpec> {
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

fn bench(c: &mut Criterion) {
    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let g = &net.graph;
    let k = 8;

    // Full-table parallel precompute (what perfsnap records as
    // `route_precompute`), and the same build pinned to one worker.
    c.bench_function("route_plane/precompute_full", |b| {
        b.iter(|| black_box(SharedRouteTable::build(g, k)));
    });
    c.bench_function("route_plane/precompute_full_1thread", |b| {
        let pairs = SharedRouteTable::ingress_pairs(g);
        b.iter(|| {
            black_box(SharedRouteTable::build_for_pairs_with_threads(
                g, k, &pairs, 1,
            ))
        });
    });

    let cable = first_cable(g);

    // The failure-epoch simulation itself: fixed provider vs the old
    // server-level re-Yen, same workload as `sim_mptcp8_failure`.
    let flows = workload(&net, 6);
    let cfg = SimConfig {
        transport: Transport::Mptcp { k, coupled: true },
        ..SimConfig::default()
    };
    let mut plan = FaultPlan::new(1);
    plan.flap(cable, 0.05, None);
    let sched = plan.compile(g).expect("valid plan");
    let run = |p: &mut dyn PathProvider| {
        simulate_under_faults_with_provider_traced(g, &flows, &cfg, &sched, p, &mut NoopSink)
            .expect("valid workload")
    };
    let shared = Arc::new(SharedRouteTable::build(g, k));
    c.bench_function("sim_mptcp8_failure/switch_level_shared", |b| {
        b.iter(|| {
            let mut p = flowsim::provider::MptcpProvider::with_shared(shared.clone(), true);
            black_box(run(&mut p))
        });
    });
    c.bench_function("sim_mptcp8_failure/switch_level_lazy", |b| {
        b.iter(|| {
            let mut p = flowsim::provider::MptcpProvider::new(k, true);
            black_box(run(&mut p))
        });
    });
    c.bench_function("sim_mptcp8_failure/server_level_oracle", |b| {
        b.iter(|| {
            let mut p = ServerLevelOracle {
                k,
                yen: Yen::new(g),
                cache: HashMap::new(),
                epoch: 0,
            };
            black_box(run(&mut p))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
