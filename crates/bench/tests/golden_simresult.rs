//! Golden equivalence tests for the reworked simulation engine.
//!
//! Each runs a fixed scenario with permanent cable cuts through both the
//! interned-path engine
//! ([`flowsim::simulate_under_faults_with_provider_traced`]) and the
//! preserved pre-refactor engine
//! ([`flowsim::reference::simulate_reference`]) and pins the outputs to
//! each other **bit for bit**: every record, every series point, the end
//! time. Because both engines can change together, each scenario's end
//! time and a digest of every record's finish time are also pinned to
//! constants recorded when cuts were still a separate failure model
//! (a `SimConfig` list of timed cable failures) rather than a
//! `FaultSchedule`. Any numeric drift in the event loop fails here.

use flat_tree::PodMode;
use flowsim::reference::simulate_reference;
use flowsim::{
    simulate_under_faults_with_provider_traced, FaultPlan, FlowRecord, FlowSpec, NoopSink,
    SimConfig, SimResult, Transport,
};
use ft_bench::experiments::common;
use netgraph::{Graph, LinkId};

/// First switch-to-switch cable of the graph, in link-id order — a
/// deterministic pick that is always a core-facing link on this topology.
fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("topology has switch-switch links")
}

/// FNV-1a over every record's finish bits (`u64::MAX` for unfinished).
fn finish_digest(records: &[FlowRecord]) -> u64 {
    records.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        r.finish
            .map_or(u64::MAX, f64::to_bits)
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Runs `flows` with a permanent cut of `link`'s cable at `time` through
/// both engines, asserts they agree bit for bit, and returns the result.
fn run_both(g: &Graph, flows: &[FlowSpec], cfg: &SimConfig, link: LinkId, time: f64) -> SimResult {
    let mut plan = FaultPlan::new(1);
    plan.flap(link, time, None);
    let sched = plan.compile(g).expect("valid plan");
    let new = simulate_under_faults_with_provider_traced(
        g,
        flows,
        cfg,
        &sched,
        &mut *cfg.transport.provider(),
        &mut NoopSink,
    )
    .expect("valid scenario")
    .result;
    let old = simulate_reference(g, flows, cfg, &sched);
    // `Debug` prints every f64 in its shortest round-trip form, so equal
    // renderings mean bit-identical records, series and end time.
    assert_eq!(format!("{new:?}"), format!("{old:?}"));
    new
}

#[test]
fn engines_agree_bit_for_bit_on_golden_scenario() {
    let ft = common::flat_tree_over(common::mini_topo(2));
    let net = common::instance(&ft, PodMode::Global).net;
    let pairs = traffic::patterns::permutation(net.num_servers(), 7);
    // ~0.5 s at full NIC rate, so the 0.2 s failure hits mid-flight and
    // forces a re-route of the affected connections.
    let flows = common::flow_specs(&net, &pairs, 6.25e8);
    let cfg = SimConfig {
        transport: Transport::Mptcp {
            k: 8,
            coupled: true,
        },
        record_series: true,
    };

    let new = run_both(&net.graph, &flows, &cfg, first_cable(&net.graph), 0.2);
    assert_eq!(new.end_time.to_bits(), 0x4001_1392_6e5f_52e5);
    assert_eq!(finish_digest(&new.records), 0x8f9c_07de_e456_5a19);
    // Sanity: the scenario actually exercises what it claims to.
    assert!(new.end_time > 0.2, "failure must land mid-run");
    assert!(new.records.iter().filter(|r| r.finish.is_some()).count() > 0);
}

/// TcpEcmp on the mini topo-1 global flat-tree, two permutation waves
/// (t = 0 and t = 0.3 s) and a cut of server 0's only uplink at 0.1 s:
/// server 0's first-wave connections stall mid-flight and its
/// second-wave arrivals are unroutable — the branches where the two
/// former failure models ran different code.
#[test]
fn engines_agree_bit_for_bit_on_server_uplink_cut() {
    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let mut flows = common::flow_specs(
        &net,
        &traffic::patterns::permutation(net.num_servers(), 11),
        6.25e8,
    );
    let second: Vec<FlowSpec> = common::flow_specs(
        &net,
        &traffic::patterns::permutation(net.num_servers(), 12),
        3.125e8,
    )
    .into_iter()
    .map(|f| FlowSpec {
        id: f.id + 1000,
        start: 0.3,
        ..f
    })
    .collect();
    flows.extend(second);
    let s0 = net.servers[0];
    let uplink = net
        .graph
        .link_ids()
        .find(|&l| net.graph.link(l).src == s0)
        .expect("server 0 has an uplink");
    let cfg = SimConfig {
        transport: Transport::TcpEcmp,
        record_series: true,
    };

    let new = run_both(&net.graph, &flows, &cfg, uplink, 0.1);
    assert_eq!(new.end_time.to_bits(), 0x4011_0000_0000_0003);
    assert_eq!(finish_digest(&new.records), 0x3408_edd2_df33_510f);
    // Server 0 is source and destination once per wave: two stalled
    // first-wave connections, two unroutable second-wave arrivals.
    let touches_s0 = |f: &FlowSpec| f.src == s0 || f.dst == s0;
    for (f, r) in flows.iter().zip(&new.records) {
        assert_eq!(r.finish.is_none(), touches_s0(f), "flow {}", f.id);
    }
    assert_eq!(new.unfinished_count(), 4);
}
