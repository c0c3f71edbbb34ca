//! `exact_trace_flaps`: the exact engine on the mini topo-1 global
//! flat-tree (256 servers) under a seeded Hadoop-1 trace with no
//! locality, MPTCP-8 coupled over a cold-built `SharedRouteTable`, and
//! seeded cable flaps that recover.

use crate::engine;
use crate::report::{self, Obj};
use crate::trace::{percentile, EngineSink, ProviderTally, TimedProvider, Tracer};
use crate::Pass;
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{FaultPlan, FaultSchedule, FlowSpec, MptcpProvider, NoopSink, SimConfig, Transport};
use ft_bench::experiments::common;
use netgraph::{Graph, LinkId};
use routing::SharedRouteTable;
use std::sync::Arc;
use traffic::traces::{LocalityMix, TraceParams};

/// MPTCP subflows (the paper's main configuration).
const PATHS: usize = 8;
/// Trace length in simulated seconds: `hadoop1`'s one second stretched
/// so that a pass takes a few host seconds.
const DURATION_S: f64 = 3.0;
/// faultsweep's middle flap fraction and its flap timing, repeated in
/// every simulated second of the trace so faults land throughout it.
const FLAP_FRACTION: f64 = 0.10;
const FLAP_WINDOW: (f64, f64) = (0.05, 0.4);
const MEAN_DOWN_S: f64 = 0.3;

/// Every duplex switch-switch cable, one direction each.
fn cables(g: &Graph) -> Vec<LinkId> {
    g.link_ids()
        .filter(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch()
                && g.node(info.dst).kind.is_switch()
                && info.reverse.is_none_or(|r| r.0 > l.0)
        })
        .collect()
}

struct Input {
    net: topology::DcNetwork,
    flows: Vec<FlowSpec>,
    pairs: Vec<(usize, usize)>,
    schedule: FaultSchedule,
}

fn setup(seed: u64, tr: &mut Tracer) -> Input {
    let clos = common::mini_topo(1);
    let (m, n) = tr.span("core.profile", |_| {
        flat_tree::profile::best_mn(&clos).expect("topo-1 is profilable")
    });
    if tr.on() {
        let candidates = tr.attribution("core.profile_candidates", |_| {
            flat_tree::profile::profile_mn(&clos).len()
        });
        tr.count("core.profile_candidates", candidates as f64);
    }
    let ft = tr.span("topology.build", |_| {
        FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("profiled params are valid")
    });
    let inst = tr.span("core.instantiate", |_| {
        ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global))
    });
    let net = inst.net;
    tr.span("traffic.generate", |_| {
        let rack = clos.servers_per_edge;
        let mut params =
            TraceParams::hadoop1(net.num_servers(), rack, clos.edges_per_pod * rack, seed);
        params.locality = LocalityMix {
            intra_rack: 0.0,
            intra_pod: 0.0,
        };
        params.duration_s = DURATION_S;
        let trace = params.generate();
        let flows = trace
            .flows
            .iter()
            .map(|f| FlowSpec {
                id: f.id,
                src: net.servers[f.src],
                dst: net.servers[f.dst],
                bytes: f.bytes,
                start: f.start,
            })
            .collect();
        let pairs = trace.flows.iter().map(|f| (f.src, f.dst)).collect();
        let cables = cables(&net.graph);
        let mut plan = FaultPlan::new(seed);
        for second in 0..DURATION_S.ceil() as u64 {
            let offset = second as f64;
            let mut round = FaultPlan::new(seed ^ (second << 32));
            round.random_link_flaps(
                &cables,
                FLAP_FRACTION,
                MEAN_DOWN_S,
                (FLAP_WINDOW.0 + offset, FLAP_WINDOW.1 + offset),
            );
            plan.link_flaps.extend(round.link_flaps);
        }
        let schedule = plan
            .compile(&net.graph)
            .expect("plan matches its own graph");
        Input {
            net,
            flows,
            pairs,
            schedule,
        }
    })
}

pub fn run(seed: u64, trace: bool, perturb: bool) -> Pass {
    let mut tr = Tracer::new(trace);
    let (input, setup_s) = crate::timed_setup(&mut tr, |tr| setup(seed, tr));
    let routed_from = tr.now();
    let g = &input.net.graph;
    let cfg = SimConfig {
        transport: Transport::Mptcp {
            k: PATHS,
            coupled: true,
        },
        ..SimConfig::default()
    };
    let table = tr.span("routing.plane_build", |_| {
        Arc::new(SharedRouteTable::build_for_pairs(
            g,
            PATHS,
            &common::switch_pairs(&input.net, &input.pairs),
        ))
    });
    let mut sink = EngineSink::default();
    let mut tally = ProviderTally::default();
    let mut out = tr.span("flowsim.run", |tr| {
        let provider = MptcpProvider::with_shared(Arc::clone(&table), true);
        if tr.on() {
            let mut p = TimedProvider::new(provider);
            let out =
                engine::run_under_faults(g, &input.flows, &cfg, &input.schedule, &mut p, &mut sink);
            tr.fold("provider.route", p.tally.secs);
            tally.absorb(p.tally);
            out
        } else {
            let mut p = provider;
            engine::run_under_faults(
                g,
                &input.flows,
                &cfg,
                &input.schedule,
                &mut p,
                &mut NoopSink,
            )
        }
    });
    let wall_s = setup_s + tr.now() - routed_from;

    if perturb {
        report::perturb(&mut out.result.records);
    }
    let records = &out.result.records;
    let a = out.audit;
    let check = Obj::default()
        .raw(
            "audit",
            format!(
                "[{},{},{},{},{},{}]",
                a.checks,
                a.rate_on_down_link,
                a.dead_active_conn,
                a.events_applied,
                a.parked,
                a.revived
            ),
        )
        .num("violations", a.violations() as f64)
        .raw(
            "blocks",
            report::array(&report::block_digests(records, false), |d| report::quote(d)),
        )
        .raw(
            "unfinished",
            report::array(&report::unfinished(records), |i| i.to_string()),
        )
        .finish();
    let mut pass = Pass::new(
        wall_s,
        setup_s,
        out.result.completed_count() as f64,
        1.0,
        records.len(),
        check,
    );
    if trace {
        let tel = tr.attribution("flowsim.telemetry", |_| {
            let mut p = MptcpProvider::with_shared(Arc::clone(&table), true);
            engine::run_with_telemetry(g, &input.flows, &cfg, &input.schedule, &mut p).1
        });
        let l = &mut pass.layers;
        crate::setup_layers(l, &tr);
        let plane_s = tr.total("routing.plane_build");
        l.insert("routing.plane_build_s", plane_s);
        l.insert("routing.plane_pairs", table.pair_count() as f64);
        l.insert(
            "routing.plane_ms_per_pair",
            plane_s * 1e3 / table.pair_count().max(1) as f64,
        );
        crate::provider_layers(l, &tally, tr.rss_growth("flowsim.run"));
        let run_s = tr.total("flowsim.run");
        l.insert("flowsim.self_s", tr.self_total("flowsim.run"));
        l.insert("flowsim.events", sink.events as f64);
        l.insert("flowsim.events_per_s", sink.events as f64 / run_s);
        l.insert("flowsim.epoch_us_p50", percentile(&sink.epoch_gap_us, 50.0));
        l.insert("flowsim.epoch_us_p99", percentile(&sink.epoch_gap_us, 99.0));
        l.insert("flowsim.reroutes", sink.reroutes as f64);
        l.insert("flowsim.parks", sink.parks as f64);
        l.insert("flowsim.revives", sink.revives as f64);
        l.insert("flowsim.audit_violations", a.violations() as f64);
        l.insert("mcf.epochs", tel.epochs as f64);
        l.insert("mcf.rounds", tel.rounds as f64);
        l.insert("mcf.dirty_links", tel.dirty_links as f64);
        l.insert("mcf.dirty_entities", tel.dirty_entities as f64);
        l.insert("mcf.reused_rates", tel.reused_rates as f64);
        l.insert("mcf.scan_savings", tel.scan_savings());
        pass.finish_trace(&tr);
    }
    pass
}

#[cfg(test)]
mod tests {
    #[test]
    fn faults_land_in_every_simulated_second() {
        let mut tr = super::Tracer::new(false);
        let input = super::setup(1, &mut tr);
        for second in 0..3 {
            let t = f64::from(second);
            assert!(
                input
                    .schedule
                    .events
                    .iter()
                    .any(|e| !e.up && e.time >= t && e.time < t + 1.0),
                "no cable goes down in second {second}"
            );
        }
        assert!(input.flows.len() > 1000);
    }
}
