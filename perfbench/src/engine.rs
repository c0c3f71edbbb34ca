//! The one adapter through which the benchmark calls `flowsim`'s run
//! entry points. A change to those entry points touches this file only.

use flowsim::{
    AllocTelemetry, FaultSchedule, FaultSimOutcome, FlowSpec, PathProvider, SimConfig, TraceSink,
};
use netgraph::Graph;

/// Runs the exact engine under a fault schedule with a caller-chosen
/// provider and sink (`NoopSink` when untraced).
pub fn run_under_faults<P: PathProvider, S: TraceSink>(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    schedule: &FaultSchedule,
    provider: &mut P,
    sink: &mut S,
) -> FaultSimOutcome {
    flowsim::simulate_under_faults_with_provider_traced(g, flows, cfg, schedule, provider, sink)
        .expect("generated workload and schedule are valid")
}

/// The same run, returning the allocator's effort counters instead of
/// feeding a sink.
pub fn run_with_telemetry<P: PathProvider>(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    schedule: &FaultSchedule,
    provider: &mut P,
) -> (FaultSimOutcome, AllocTelemetry) {
    let mut tel = AllocTelemetry::default();
    let out = flowsim::simulate_with_telemetry(g, flows, cfg, schedule, provider, &mut tel)
        .expect("generated workload and schedule are valid");
    (out, tel)
}
