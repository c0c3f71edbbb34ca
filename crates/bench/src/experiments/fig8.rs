//! Figure 8 — CDFs of flow completion time for the four Facebook-like
//! traces on six networks: flat-tree global / local / Clos (k-shortest
//! paths + MPTCP) / Clos (ECMP + TCP), device-equivalent random graph,
//! and two-stage random graph.

use super::common;
use crate::report::{f3, percentile, print_table, sorted};
use crate::sweep::sweep;
use crate::Scale;
use flat_tree::PodMode;
use flowsim::provider::{MptcpProvider, PathProvider};
use flowsim::{
    simulate_under_faults_with_provider_traced, FaultSchedule, NoopSink, SimConfig, Transport,
};
use routing::SharedRouteTable;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::{DcNetwork, RandomGraphParams, TwoStageParams};
use traffic::traces::TraceParams;
use traffic::Workload;

/// The six evaluated networks.
pub const NETWORKS: [&str; 6] = [
    "ft-global",
    "ft-local",
    "ft-clos-ksp",
    "ft-clos-ecmp",
    "random-graph",
    "two-stage-rg",
];

/// FCT statistics of one (trace, network) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Curve {
    /// Trace name.
    pub trace: String,
    /// Network name (see [`NETWORKS`]).
    pub network: String,
    /// FCT milliseconds at the 10/25/50/75/90/99th percentiles.
    pub fct_ms_percentiles: [f64; 6],
    /// Mean FCT in ms.
    pub mean_ms: f64,
    /// Fraction of flows completed.
    pub completed: f64,
}

/// Builds the six networks from one reference Clos layout.
pub fn networks(scale: Scale) -> Vec<(String, DcNetwork, Transport)> {
    let clos = common::topo(1, scale.full);
    let ft = common::flat_tree_over(clos);
    let k = 8;
    let mptcp = Transport::Mptcp { k, coupled: true };
    let mut out = Vec::new();
    out.push((
        "ft-global".to_string(),
        common::instance(&ft, PodMode::Global).net,
        mptcp,
    ));
    out.push((
        "ft-local".to_string(),
        common::instance(&ft, PodMode::Local).net,
        mptcp,
    ));
    let clos_net = common::instance(&ft, PodMode::Clos).net;
    out.push(("ft-clos-ksp".to_string(), clos_net.clone(), mptcp));
    out.push(("ft-clos-ecmp".to_string(), clos_net, Transport::TcpEcmp));
    out.push((
        "random-graph".to_string(),
        RandomGraphParams::from_clos(&clos, scale.seed).build(),
        mptcp,
    ));
    out.push((
        "two-stage-rg".to_string(),
        TwoStageParams {
            clos,
            seed: scale.seed,
        }
        .build(),
        mptcp,
    ));
    out
}

/// The four traces sized to the reference Clos layout.
fn trace_set(scale: Scale) -> Vec<Workload> {
    let clos = common::topo(1, scale.full);
    let n = clos.total_servers();
    let rack = clos.servers_per_edge;
    let pod = clos.edges_per_pod * clos.servers_per_edge;
    vec![
        TraceParams::hadoop1(n, rack, pod, scale.seed).generate(),
        TraceParams::hadoop2(n, rack, pod, scale.seed).generate(),
        TraceParams::web(n, rack, pod, scale.seed).generate(),
        TraceParams::cache(n, rack, pod, scale.seed).generate(),
    ]
}

/// Runs every (trace, network) pair: the cells — a full fluid
/// simulation each — are independent, so they go through [`sweep`] and
/// come back trace-major, matching the serial loop's order.
pub fn run(scale: Scale) -> Vec<Curve> {
    let nets = networks(scale);
    let traces = trace_set(scale);
    // Precompute one shared route table per MPTCP network over the
    // union of every trace's pairs; all four of a network's cells use
    // it instead of lazily re-running Yen per cell.
    let union: Vec<(usize, usize)> = traces
        .iter()
        .flat_map(|t| t.flows.iter().map(|f| (f.src, f.dst)))
        .collect();
    let tables: Vec<Option<Arc<SharedRouteTable>>> = nets
        .iter()
        .map(|(_, net, transport)| match *transport {
            Transport::Mptcp { k, .. } => Some(common::shared_route_table(net, &union, k)),
            Transport::TcpEcmp => None,
        })
        .collect();
    type Job<'a> = (
        &'a Workload,
        &'a (String, DcNetwork, Transport),
        &'a Option<Arc<SharedRouteTable>>,
    );
    let jobs: Vec<Job> = traces
        .iter()
        .flat_map(|trace| {
            nets.iter()
                .zip(tables.iter())
                .map(move |(n, t)| (trace, n, t))
        })
        .collect();
    sweep(&jobs, |_, &(trace, (name, net, transport), table)| {
        let flows: Vec<flowsim::FlowSpec> = trace
            .flows
            .iter()
            .map(|f| flowsim::FlowSpec {
                id: f.id,
                src: net.servers[f.src],
                dst: net.servers[f.dst],
                bytes: f.bytes,
                start: f.start,
            })
            .collect();
        let cfg = SimConfig {
            transport: *transport,
            ..SimConfig::default()
        };
        let mut provider: Box<dyn PathProvider> = match (*transport, table) {
            (Transport::Mptcp { coupled, .. }, Some(t)) => {
                Box::new(MptcpProvider::with_shared(t.clone(), coupled))
            }
            _ => transport.provider(),
        };
        let res = simulate_under_faults_with_provider_traced(
            &net.graph,
            &flows,
            &cfg,
            &FaultSchedule::empty(),
            &mut *provider,
            &mut NoopSink,
        )
        .expect("fig8 workload is valid")
        .result;
        let fcts_ms: Vec<f64> = res.sorted_fcts().iter().map(|s| s * 1e3).collect();
        assert!(!fcts_ms.is_empty(), "no flow completed on {name}");
        let s = sorted(&fcts_ms);
        Curve {
            trace: trace.name.clone(),
            network: name.clone(),
            fct_ms_percentiles: [
                percentile(&s, 10.0),
                percentile(&s, 25.0),
                percentile(&s, 50.0),
                percentile(&s, 75.0),
                percentile(&s, 90.0),
                percentile(&s, 99.0),
            ],
            mean_ms: crate::report::mean(&s),
            completed: fcts_ms.len() as f64 / flows.len() as f64,
        }
    })
}

/// Prints the curves, trace-major.
pub fn print(curves: &[Curve]) {
    let body: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            let p = &c.fct_ms_percentiles;
            vec![
                c.trace.clone(),
                c.network.clone(),
                f3(p[0]),
                f3(p[2]),
                f3(p[4]),
                f3(p[5]),
                f3(c.mean_ms),
                format!("{:.0}%", c.completed * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 8: FCT CDFs (ms at percentiles)",
        &[
            "trace", "network", "p10", "p50", "p90", "p99", "mean", "done",
        ],
        &body,
    );
}
