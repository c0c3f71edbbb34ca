//! End-to-end pipeline: build a flat-tree, route, simulate, and check
//! the cross-crate invariants on which the experiments rest.

use flat_tree::PodMode;
use flowsim::{simulate, SimConfig, Transport};
use ft_bench::experiments::common;
use ft_bench::Scale;
use routing::SharedRouteTable;
use traffic::traces::TraceParams;

#[test]
fn build_route_simulate_mini_topo1() {
    let ft = common::flat_tree_over(common::mini_topo(1));
    for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
        let inst = common::instance(&ft, mode);
        inst.net.validate().unwrap();
        // Route a few pairs at k = 8.
        let table = SharedRouteTable::build(&inst.net.graph, 8);
        let s = inst.net.servers[0];
        let d = inst.net.servers[inst.net.num_servers() - 1];
        let paths = table.server_paths(&inst.net.graph, s, d).unwrap();
        assert!(!paths.is_empty() && paths.len() <= 8);
        for p in &paths {
            p.validate(&inst.net.graph).unwrap();
        }
        // Simulate a small trace to completion.
        let mut tp = TraceParams::web(inst.net.num_servers(), 16, 64, 5);
        tp.duration_s = 0.05;
        let trace = tp.generate();
        let flows: Vec<flowsim::FlowSpec> = trace
            .flows
            .iter()
            .map(|f| flowsim::FlowSpec {
                id: f.id,
                src: inst.net.servers[f.src],
                dst: inst.net.servers[f.dst],
                bytes: f.bytes,
                start: f.start,
            })
            .collect();
        let res = simulate(
            &inst.net.graph,
            &flows,
            &SimConfig {
                transport: Transport::mptcp8(),
                ..SimConfig::default()
            },
        )
        .expect("valid workload");
        assert!(
            res.records.iter().all(|r| r.finish.is_some()),
            "{mode:?}: all flows must complete on a healthy network"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full experiment pipeline; run with --release"
)]
fn table1_reproduces_the_crossover() {
    let rows = ft_bench::experiments::table1::run(Scale::default());
    assert_eq!(rows.len(), 3);
    // Rack-sized clusters: the tree wins; the flat RG loses.
    assert!(rows[0].clos > rows[0].random_graph, "{rows:?}");
    // Pod-scale clusters: the two-stage RG wins.
    assert!(rows[1].two_stage > rows[1].clos, "{rows:?}");
    assert!(rows[1].two_stage > rows[1].random_graph, "{rows:?}");
    // Multi-pod clusters: the flat RG wins.
    assert!(rows[2].random_graph > rows[2].clos, "{rows:?}");
    assert!(rows[2].random_graph > rows[2].two_stage, "{rows:?}");
}

#[test]
fn fig10_reproduces_the_bandwidth_gain_and_adaptation() {
    let d = ft_bench::experiments::fig10::run(Scale::default());
    // Paper: +27.6%. We assert a gain in the tens of percent.
    assert!(
        d.global_gain_pct > 15.0 && d.global_gain_pct < 60.0,
        "gain {}",
        d.global_gain_pct
    );
    // Paper: traffic adapts in 2-2.5 s. Allow a little slack.
    for (mode, adapt) in d.adapt_s.iter().skip(1) {
        assert!(
            *adapt > 0.0 && *adapt <= 3.5,
            "{mode} adaptation took {adapt} s"
        );
    }
    // Local mode rearranges servers within pods only: same core bandwidth
    // as Clos (§5.3).
    let steady = |m: &str| {
        d.steady
            .iter()
            .find(|(mm, _)| mm == m)
            .map(|&(_, v)| v)
            .unwrap()
    };
    assert!((steady("local") - steady("clos")).abs() / steady("clos") < 0.05);
}

#[test]
fn fig11_applications_accelerate_under_conversion() {
    let d = ft_bench::experiments::fig11::run(Scale::default());
    for reports in [&d.spark, &d.hadoop] {
        let by = |m: PodMode| reports.iter().find(|r| r.mode == m).unwrap();
        let clos = by(PodMode::Clos);
        let global = by(PodMode::Global);
        assert!(global.read_time_s <= clos.read_time_s + 1e-9);
        assert!(global.phase_s <= clos.phase_s + 1e-9);
    }
}
