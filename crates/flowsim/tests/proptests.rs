//! Property tests for the fluid simulator.

use flowsim::{
    simulate_under_faults_with_provider_traced, FailedLinks, FaultPlan, FaultSchedule,
    FaultSimOutcome, FlowSpec, NoopSink, SimConfig, SimResult, Transport,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use topology::ClosParams;

fn mini_net() -> topology::DcNetwork {
    ClosParams::mini().build().net
}

fn simulate(g: &netgraph::Graph, flows: &[FlowSpec], cfg: &SimConfig) -> SimResult {
    flowsim::simulate(g, flows, cfg).expect("valid workload")
}

/// Runs under `sched` with the transport's default routing.
fn simulate_under(
    g: &netgraph::Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    sched: &FaultSchedule,
) -> FaultSimOutcome {
    simulate_under_faults_with_provider_traced(
        g,
        flows,
        cfg,
        sched,
        &mut *cfg.transport.provider(),
        &mut NoopSink,
    )
    .expect("valid workload")
}

fn random_flows(n_servers: usize, n_flows: usize, seed: u64) -> Vec<(usize, usize, f64, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n_flows)
        .map(|_| {
            let src = rng.gen_range(0..n_servers);
            let mut dst = rng.gen_range(0..n_servers);
            while dst == src {
                dst = rng.gen_range(0..n_servers);
            }
            (src, dst, rng.gen_range(1e5..5e8), rng.gen_range(0.0..0.5))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// In a connected, failure-free network every flow completes, and no
    /// flow beats the physical lower bound bytes / NIC-rate.
    #[test]
    fn all_flows_complete_with_physical_fcts(
        n_flows in 1usize..24,
        seed in any::<u64>(),
        mptcp in prop::bool::ANY,
    ) {
        let net = mini_net();
        let flows: Vec<FlowSpec> = random_flows(net.servers.len(), n_flows, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (s, d, bytes, start))| FlowSpec {
                id: i as u64,
                src: net.servers[s],
                dst: net.servers[d],
                bytes,
                start,
            })
            .collect();
        let cfg = SimConfig {
            transport: if mptcp { Transport::mptcp8() } else { Transport::TcpEcmp },
            ..SimConfig::default()
        };
        let res = simulate(&net.graph, &flows, &cfg);
        for (r, f) in res.records.iter().zip(&flows) {
            let fct = r.fct();
            prop_assert!(fct.is_some(), "flow {} never finished", f.id);
            let ideal = f.bytes * 8.0 / 10e9; // 10G NIC
            prop_assert!(
                fct.unwrap() >= ideal - 1e-9,
                "flow {} fct {} beats ideal {}",
                f.id, fct.unwrap(), ideal
            );
            prop_assert!(r.avg_rate_gbps().unwrap() <= 10.0 + 1e-6);
        }
    }

    /// Bit-for-bit determinism.
    #[test]
    fn deterministic(n_flows in 1usize..16, seed in any::<u64>()) {
        let net = mini_net();
        let flows: Vec<FlowSpec> = random_flows(net.servers.len(), n_flows, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (s, d, bytes, start))| FlowSpec {
                id: i as u64,
                src: net.servers[s],
                dst: net.servers[d],
                bytes,
                start,
            })
            .collect();
        let a = simulate(&net.graph, &flows, &SimConfig::default());
        let b = simulate(&net.graph, &flows, &SimConfig::default());
        prop_assert_eq!(a.records, b.records);
    }

    /// MPTCP over k-shortest paths never loses to single-path ECMP on
    /// total completion time of a permutation batch (it has a superset of
    /// the path diversity).
    #[test]
    fn mptcp_beats_or_matches_ecmp_makespan(seed in any::<u64>()) {
        let net = mini_net();
        let n = net.servers.len();
        let pairs = traffic::patterns::permutation(n, seed);
        let flows: Vec<FlowSpec> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| FlowSpec {
                id: i as u64,
                src: net.servers[s],
                dst: net.servers[d],
                bytes: 1e7,
                start: 0.0,
            })
            .collect();
        let ecmp = simulate(&net.graph, &flows, &SimConfig {
            transport: Transport::TcpEcmp,
            ..SimConfig::default()
        });
        let mptcp = simulate(&net.graph, &flows, &SimConfig::default());
        let makespan = |r: &flowsim::SimResult| {
            r.records.iter().filter_map(|x| x.finish).fold(0.0f64, f64::max)
        };
        prop_assert!(makespan(&mptcp) <= makespan(&ecmp) * 1.10 + 1e-9,
            "mptcp {} vs ecmp {}", makespan(&mptcp), makespan(&ecmp));
    }

    /// `FailedLinks` under an arbitrary fail/recover sequence: the epoch
    /// is monotone, bumps exactly on state transitions, and `count`
    /// always matches a model `HashSet` of down links.
    #[test]
    fn failed_links_epoch_and_count_track_transitions(
        ops in prop::collection::vec((0usize..12, prop::bool::ANY), 0..64),
    ) {
        let mut fl = FailedLinks::new(12);
        let mut model = std::collections::HashSet::new();
        let mut last_epoch = fl.epoch();
        for (idx, fail) in ops {
            let link = netgraph::LinkId(idx as u32);
            let before = fl.epoch();
            let changed = if fail { fl.fail(link) } else { fl.recover(link) };
            let model_changed = if fail { model.insert(idx) } else { model.remove(&idx) };
            prop_assert_eq!(changed, model_changed, "transition report diverged");
            if changed {
                prop_assert_eq!(fl.epoch(), before + 1, "transition must bump epoch once");
            } else {
                prop_assert_eq!(fl.epoch(), before, "no-op must not bump epoch");
            }
            prop_assert!(fl.epoch() >= last_epoch, "epoch must be monotone");
            last_epoch = fl.epoch();
            prop_assert_eq!(fl.count(), model.len(), "count diverged from model");
            for i in 0..12 {
                prop_assert_eq!(fl.is_down(netgraph::LinkId(i as u32)), model.contains(&i));
            }
        }
        // Mass recovery drains everything in at most one epoch bump.
        let before = fl.epoch();
        let recovered = fl.set_all_up();
        prop_assert_eq!(recovered, model.len());
        prop_assert_eq!(fl.count(), 0);
        prop_assert_eq!(fl.epoch(), if recovered > 0 { before + 1 } else { before });
    }

    /// A run where every injected flap recovers completes every flow:
    /// parked connections must be revived, never silently dropped.
    #[test]
    fn all_flows_complete_when_every_flap_recovers(
        n_flows in 1usize..12,
        seed in any::<u64>(),
        fraction in 0.0f64..0.4,
    ) {
        let net = mini_net();
        let flows: Vec<FlowSpec> = random_flows(net.servers.len(), n_flows, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (s, d, bytes, start))| FlowSpec {
                id: i as u64,
                src: net.servers[s],
                dst: net.servers[d],
                bytes,
                start,
            })
            .collect();
        // One direction per cable so flaps cover distinct duplex links.
        let cables: Vec<netgraph::LinkId> = net
            .graph
            .link_ids()
            .filter(|&l| match net.graph.link(l).reverse {
                Some(rev) => l.idx() < rev.idx(),
                None => true,
            })
            .collect();
        let mut plan = FaultPlan::new(seed);
        plan.random_link_flaps(&cables, fraction, 0.3, (0.0, 1.0));
        let sched = plan.compile(&net.graph).unwrap();
        let out = simulate_under(&net.graph, &flows, &SimConfig::default(), &sched);
        prop_assert_eq!(out.audit.violations(), 0, "auditor flagged: {:?}", out.audit);
        for r in &out.result.records {
            prop_assert!(r.finish.is_some(), "flow {} never finished: {:?}", r.id, out.audit);
        }
        // Determinism of the faulted path.
        let again = simulate_under(&net.graph, &flows, &SimConfig::default(), &sched);
        prop_assert_eq!(out.result.records, again.result.records);
        prop_assert_eq!(out.audit, again.audit);
    }
}

/// Engine-level pinning of the incremental allocator: under random
/// arrival/departure/failure-epoch sequences the refactored engine
/// (persistent bindings, dirty-set allocation) must match the preserved
/// from-scratch reference engine bit for bit at every epoch — the
/// series is the per-epoch aggregate rate, so one differing allocation
/// anywhere shows up as a bit flip here.
mod incremental_engine {
    use super::*;
    use flowsim::{reference::simulate_reference, TraceEvent, TraceSink};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn engine_matches_reference_bitwise_under_failures(
            n_flows in 1usize..24,
            n_fails in 0usize..4,
            seed in any::<u64>(),
            mptcp in any::<bool>(),
        ) {
            let net = mini_net();
            let flows: Vec<FlowSpec> = random_flows(net.servers.len(), n_flows, seed)
                .into_iter()
                .enumerate()
                .map(|(i, (s, d, bytes, start))| FlowSpec {
                    id: i as u64,
                    src: net.servers[s],
                    dst: net.servers[d],
                    bytes,
                    start,
                })
                .collect();
            let cables: Vec<netgraph::LinkId> = net
                .graph
                .link_ids()
                .filter(|&l| match net.graph.link(l).reverse {
                    Some(rev) => l.idx() < rev.idx(),
                    None => true,
                })
                .collect();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x9e3779b9);
            // Permanent cable cuts, possibly repeated or simultaneous.
            let mut plan = FaultPlan::new(seed);
            for _ in 0..n_fails {
                let time = rng.gen_range(0.0..0.8);
                plan.flap(cables[rng.gen_range(0..cables.len())], time, None);
            }
            let sched = plan.compile(&net.graph).expect("valid plan");
            let cfg = SimConfig {
                transport: if mptcp {
                    Transport::mptcp8()
                } else {
                    Transport::TcpEcmp
                },
                record_series: true,
            };
            let new = simulate_under(&net.graph, &flows, &cfg, &sched).result;
            let old = simulate_reference(&net.graph, &flows, &cfg, &sched);
            prop_assert_eq!(&new.records, &old.records);
            prop_assert_eq!(new.series.len(), old.series.len());
            for (a, b) in new.series.iter().zip(&old.series) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            prop_assert_eq!(new.end_time.to_bits(), old.end_time.to_bits());
        }
    }

    /// Counts allocation epochs; everything else is dropped.
    struct AllocCounter {
        epochs: usize,
    }

    impl TraceSink for AllocCounter {
        fn emit(&mut self, ev: TraceEvent) {
            if matches!(ev, TraceEvent::Alloc { .. }) {
                self.epochs += 1;
            }
        }
    }

    /// Same-timestamp batching contract: events landing within the
    /// engine's `1e-15` coalescing window form ONE allocation epoch.
    /// Eight flows arriving at the same instant must not cost eight
    /// epochs — this pins the batching semantics the incremental
    /// allocator's dirty-set pass relies on.
    #[test]
    fn same_timestamp_arrivals_batch_into_one_epoch() {
        let net = mini_net();
        let mk = |starts: &[f64]| -> Vec<FlowSpec> {
            starts
                .iter()
                .enumerate()
                .map(|(i, &start)| FlowSpec {
                    id: i as u64,
                    src: net.servers[i % net.servers.len()],
                    dst: net.servers[(i + 3) % net.servers.len()],
                    bytes: 1e7,
                    start,
                })
                .collect()
        };
        let cfg = SimConfig {
            transport: Transport::mptcp8(),
            ..SimConfig::default()
        };
        // All eight arrive at t = 0.1 exactly: epoch count must match
        // a single staggered arrival count, not scale with the batch.
        let batched = mk(&[0.1; 8]);
        let mut sink = AllocCounter { epochs: 0 };
        let res = simulate_under_faults_with_provider_traced(
            &net.graph,
            &batched,
            &cfg,
            &FaultSchedule::empty(),
            &mut *cfg.transport.provider(),
            &mut sink,
        )
        .expect("valid workload")
        .result;
        // Epochs: t=0 bootstrap, the t=0.1 batch, then one per
        // distinct completion instant — never one per arrival.
        let distinct_finishes = {
            let mut f: Vec<u64> = res
                .records
                .iter()
                .map(|r| r.finish.expect("completes").to_bits())
                .collect();
            f.sort_unstable();
            f.dedup();
            f.len()
        };
        assert_eq!(
            sink.epochs,
            2 + distinct_finishes,
            "same-instant arrivals must form one allocation epoch"
        );
        // And the batch is semantically identical to listing the same
        // instant eight times in any order — reference agrees.
        let old = simulate_reference(&net.graph, &batched, &cfg, &FaultSchedule::empty());
        assert_eq!(res.records, old.records);
    }
}
