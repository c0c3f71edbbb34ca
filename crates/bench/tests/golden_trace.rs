//! Golden tests for the observability plane's trace streams.
//!
//! A determinism pin — the JSONL byte stream of a traced engine run
//! must be **byte-for-byte** identical across same-seed runs — plus
//! exact goldens: three resilient-conversion timelines (committed after
//! retries, degraded, rolled back from the add stage) compared with
//! `tests/goldens/conversion/*.jsonl`, and an inline stream for a
//! scenario small enough to enumerate by hand (one flow over a
//! dumbbell, one cable flap). Any change to event ordering, field
//! layout, fault-draw order or float formatting fails here and must be
//! deliberate.

use control::conversion::DelayModel;
use control::resilient::{run_conversion, ConversionWork, RetryPolicy};
use flat_tree::PodMode;
use flowsim::faults::ControlFaults;
use flowsim::faults::FaultPlan;
use flowsim::{
    simulate_under_faults_with_provider_traced, FaultSchedule, FlowSpec, JsonlSink, SimConfig,
    Transport,
};
use ft_bench::experiments::common;
use netgraph::{Graph, LinkId, NodeId, NodeKind};

fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("topology has switch-switch links")
}

/// Two racks joined by one 10G core link; 2 servers per rack.
fn dumbbell() -> (Graph, Vec<NodeId>, LinkId) {
    let mut g = Graph::new();
    let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
    let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
    let (core, _) = g.add_duplex_link(e0, e1, 10.0);
    let mut servers = Vec::new();
    for (i, &e) in [e0, e0, e1, e1].iter().enumerate() {
        let s = g.add_node(NodeKind::Server, format!("s{i}"));
        g.add_duplex_link(s, e, 10.0);
        servers.push(s);
    }
    (g, servers, core)
}

/// Runs `flows` under `sched` with default routing into a JSONL sink.
fn run_jsonl(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    sched: &FaultSchedule,
) -> (flowsim::FaultSimOutcome, Vec<u8>) {
    let mut sink = JsonlSink::new(Vec::new());
    let out = simulate_under_faults_with_provider_traced(
        g,
        flows,
        cfg,
        sched,
        &mut *cfg.transport.provider(),
        &mut sink,
    )
    .expect("valid scenario");
    assert!(sink.take_error().is_none());
    (out, sink.into_inner().expect("vec sink cannot fail"))
}

fn traced_engine_jsonl() -> Vec<u8> {
    let ft = common::flat_tree_over(common::mini_topo(2));
    let net = common::instance(&ft, PodMode::Global).net;
    let pairs = traffic::patterns::permutation(net.num_servers(), 7);
    let flows = common::flow_specs(&net, &pairs, 6.25e8);
    let cfg = SimConfig {
        transport: Transport::Mptcp {
            k: 8,
            coupled: true,
        },
        record_series: false,
    };
    let mut plan = FaultPlan::new(1);
    plan.flap(first_cable(&net.graph), 0.2, None);
    let sched = plan.compile(&net.graph).expect("valid plan");
    let (out, jsonl) = run_jsonl(&net.graph, &flows, &cfg, &sched);
    assert!(out.result.end_time > 0.2, "failure must land mid-run");
    jsonl
}

#[test]
fn engine_trace_stream_is_byte_identical_across_runs() {
    let a = traced_engine_jsonl();
    let b = traced_engine_jsonl();
    assert!(!a.is_empty(), "golden scenario must emit events");
    assert_eq!(a, b, "same-seed trace streams must match byte for byte");
    let text = String::from_utf8(a).expect("JSONL is UTF-8");
    assert!(text.lines().count() > 10);
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let last = text.lines().last().expect("non-empty");
    assert!(
        last.contains("\"SimEnd\""),
        "stream ends with SimEnd: {last}"
    );
}

/// Runs the clos → global conversion of four switches (280 deletes,
/// 330 adds, 16 crosspoints) into a JSONL sink.
fn traced_conversion_jsonl(policy: &RetryPolicy, faults: &ControlFaults) -> String {
    let work = ConversionWork {
        crosspoints_changed: 16,
        per_switch: vec![(100, 120), (80, 90), (60, 70), (40, 50)],
        delay: DelayModel::testbed(),
    };
    let mut sink = JsonlSink::new(Vec::new());
    run_conversion(&work, "clos", "global", policy, faults, &mut sink).expect("valid conversion");
    assert!(sink.take_error().is_none());
    String::from_utf8(sink.into_inner().expect("vec sink cannot fail")).expect("JSONL is UTF-8")
}

/// Three shards under OCS timeouts, shard crashes and rare rule
/// failures: commits after retries.
#[test]
fn conversion_trace_stream_is_byte_identical_across_runs() {
    let faults = ControlFaults {
        seed: 7,
        ocs_timeout_prob: 0.3,
        rule_fail_prob: 0.01,
        shard_crash_prob: 0.1,
        shard_recover_ms: 250.0,
        ..ControlFaults::none()
    };
    let policy = RetryPolicy {
        shards: 3,
        ..RetryPolicy::default()
    };
    let a = traced_conversion_jsonl(&policy, &faults);
    assert_eq!(a, traced_conversion_jsonl(&policy, &faults));
    assert_eq!(
        a,
        include_str!("../../../tests/goldens/conversion/flaky_3shard.jsonl")
    );
}

/// 90% per-rule failure on one shard: the delete stage never finishes
/// and re-adding the deleted subset fails too, so the run ends
/// `Degraded` without reversing the OCS.
#[test]
fn degraded_conversion_trace_matches_golden() {
    let faults = ControlFaults {
        seed: 1,
        rule_fail_prob: 0.9,
        ..ControlFaults::none()
    };
    assert_eq!(
        traced_conversion_jsonl(&RetryPolicy::default(), &faults),
        include_str!("../../../tests/goldens/conversion/degraded.jsonl")
    );
}

/// Three shards with frequent shard crashes: the add stage fails
/// part-way, and the rollback runs every undo stage in reverse order
/// (`rollback_delete`, `rollback_add`, `rollback_ocs`) and ends
/// `RolledBack`.
#[test]
fn add_stage_rollback_trace_matches_golden() {
    let faults = ControlFaults {
        seed: 16,
        ocs_timeout_prob: 0.3,
        rule_fail_prob: 0.01,
        shard_crash_prob: 0.5,
        shard_recover_ms: 250.0,
        ..ControlFaults::none()
    };
    let policy = RetryPolicy {
        shards: 3,
        ..RetryPolicy::default()
    };
    assert_eq!(
        traced_conversion_jsonl(&policy, &faults),
        include_str!("../../../tests/goldens/conversion/add_rollback.jsonl")
    );
}

/// One 1.25 GB flow across the dumbbell core at 10 Gbps with a
/// permanent core flap at 0.5 s: parked forever, never finishes. The
/// event stream is small enough to pin exactly — this is the
/// human-readable contract for the JSONL format.
#[test]
fn dumbbell_flap_trace_matches_inline_golden() {
    let (g, s, core) = dumbbell();
    let flows = vec![FlowSpec {
        id: 0,
        src: s[0],
        dst: s[2],
        bytes: 1.25e9,
        start: 0.0,
    }];
    let mut plan = FaultPlan::new(1);
    plan.flap(core, 0.5, None); // permanent fault
    let sched = plan.compile(&g).expect("valid plan");
    let (out, jsonl) = run_jsonl(&g, &flows, &SimConfig::default(), &sched);
    assert_eq!(out.audit.parked, 1);
    let text = String::from_utf8(jsonl).expect("JSONL is UTF-8");
    let got: Vec<&str> = text.lines().collect();
    // The first epoch runs before the t=0 arrival is admitted (empty
    // allocation), then re-allocates with the flow active; the 0.5 s
    // flap kills both directions of the core cable, strands the flow
    // (paths drop to 0 → park), and the run ends with it unfinished.
    let want = [
        r#"{"Alloc":{"t":0.0,"conns":0,"subflows":0,"rounds":0}}"#,
        r#"{"LinkUtil":{"t":0.0,"deciles":[10,0,0,0,0,0,0,0,0,0],"saturated":0,"busiest":0.0}}"#,
        r#"{"FlowStart":{"t":0.0,"flow":0,"paths":1}}"#,
        r#"{"Alloc":{"t":0.0,"conns":1,"subflows":1,"rounds":1}}"#,
        r#"{"LinkUtil":{"t":0.0,"deciles":[7,0,0,0,0,0,0,0,0,3],"saturated":3,"busiest":1.0}}"#,
        r#"{"LinkDown":{"t":0.5,"link":0}}"#,
        r#"{"LinkDown":{"t":0.5,"link":1}}"#,
        r#"{"FlowReroute":{"t":0.5,"flow":0,"paths":0}}"#,
        r#"{"FlowPark":{"t":0.5,"flow":0,"cause":"PathLoss"}}"#,
        r#"{"Alloc":{"t":0.5,"conns":0,"subflows":0,"rounds":0}}"#,
        r#"{"LinkUtil":{"t":0.5,"deciles":[8,0,0,0,0,0,0,0,0,0],"saturated":0,"busiest":0.0}}"#,
        r#"{"SimEnd":{"t":0.5,"completed":0,"unfinished":1}}"#,
    ];
    assert_eq!(got, want);
}
