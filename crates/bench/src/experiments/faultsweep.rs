//! Fault sweep — graceful degradation and conversion under failure
//! (extension; see EXPERIMENTS.md).
//!
//! Three questions the paper leaves open, answered on the fault plane:
//!
//! 1. **Data-plane degradation**: flap a growing fraction of cables
//!    (fail *and* recover, [`flowsim::faults::FaultPlan`]) during a
//!    permutation workload in each operation mode — Clos, Local, Global,
//!    Hybrid — and measure completion, flow-completion-time stretch, and
//!    mean goodput against the fault-free run. Every cell runs the
//!    invariant auditor; a violation fails the binary.
//! 2. **Stuck converters** (§3.6 failure mode): latch converter switches
//!    in their Clos configuration while the rest of the network runs
//!    global mode, via `flat_tree`'s `instantiate_with_overrides`, and
//!    measure the throughput cost.
//! 3. **Conversion under control-plane failure**: run the §5.3
//!    clos → global conversion on the testbed controller through the
//!    staged retry/rollback machine ([`control::resilient`]) across
//!    escalating fault levels, reporting outcome, retries, and the
//!    wall-clock inflation over the fault-free Table 3 arithmetic.
//!
//! All randomness is seeded: the same `--seed` reproduces the identical
//! fault schedules, simulations, and tables.

use super::common;
use crate::report::{f3, print_table};
use crate::sweep::sweep;
use crate::Scale;
use control::resilient::RetryPolicy;
use flat_tree::{ConverterConfig, FlatTree, ModeAssignment, PodMode};
use flowsim::faults::{ControlFaults, FaultPlan};
use flowsim::{FailedLinks, SimConfig, Transport};
use netgraph::{Graph, LinkId, NodeId};
use serde::{Deserialize, Serialize};
use testbed::TestbedRig;

/// Cable-flap fractions swept (full grid).
pub const FRACTIONS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
/// Cable-flap fractions in `--smoke` mode.
pub const SMOKE_FRACTIONS: [f64; 2] = [0.0, 0.10];

/// One (mode, fault fraction) degradation measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationPoint {
    /// Operation mode label.
    pub mode: String,
    /// Fraction of switch-switch cables that flap during the run.
    pub fault_fraction: f64,
    /// Fraction of flows that completed.
    pub completed: f64,
    /// Mean FCT over completed flows, normalized to the same mode's
    /// fault-free mean (1.0 = no stretch).
    pub fct_stretch: f64,
    /// Mean per-flow goodput (Gbps) over completed flows.
    pub mean_gbps: f64,
    /// Connections parked (lost every path) during the run.
    pub parked: usize,
    /// Parked connections revived by recovery events.
    pub revived: usize,
    /// Invariant-auditor violations (must be zero).
    pub audit_violations: usize,
    /// Minimum fraction of workload pairs connected after any fault
    /// event (per-mode connectivity check).
    pub min_connected: f64,
}

/// One stuck-converter measurement: global mode with converters latched
/// in the Clos configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StuckPoint {
    /// How many converters are stuck.
    pub stuck: usize,
    /// Mean per-flow goodput (Gbps).
    pub mean_gbps: f64,
    /// Normalized to the clean global-mode run.
    pub normalized: f64,
}

/// One conversion-under-failure measurement on the testbed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConversionPoint {
    /// Fault-level label.
    pub level: String,
    /// Terminal status of the staged conversion.
    pub status: String,
    /// Retries spent across all stages and shards.
    pub retries: u32,
    /// Wall-clock of the conversion (ms).
    pub total_ms: f64,
    /// The fault-free sequential total (Table 3 arithmetic, ms).
    pub nominal_ms: f64,
}

/// The whole experiment's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweep {
    /// Degradation grid: mode × fault fraction.
    pub degradation: Vec<DegradationPoint>,
    /// Stuck-converter rows (global mode, escalating stuck counts).
    pub stuck: Vec<StuckPoint>,
    /// Conversion-under-failure rows (testbed, escalating fault levels).
    pub conversion: Vec<ConversionPoint>,
}

/// One cell of the sweep grid, as a pure, serializable work descriptor:
/// everything a worker process needs — beyond the [`Scale`] — to
/// recompute the cell from scratch. The conversion-under-failure rows
/// are not cells; they are arithmetic-cheap and stay driver-side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellSpec {
    /// Degradation grid cell: index into the mode grid (clos / local /
    /// global / hybrid) × flap fraction.
    Degradation {
        /// Mode index (0 = clos, 1 = local, 2 = global, 3 = hybrid).
        mode_idx: usize,
        /// Fraction of switch-switch cables that flap.
        fraction: f64,
    },
    /// Stuck-converter cell: global mode with `stuck` converters
    /// latched in their Clos configuration.
    Stuck {
        /// How many converters are stuck.
        stuck: usize,
    },
}

/// The raw result of one [`CellSpec`], before driver-side
/// normalization (FCT stretch and stuck goodput are normalized against
/// sibling cells only after the whole grid is merged).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CellOutput {
    /// A degradation cell; `fct_stretch` still holds the raw mean FCT.
    Degradation(DegradationPoint),
    /// A stuck-converter cell's raw goodput.
    Stuck {
        /// How many converters were stuck.
        stuck: usize,
        /// Mean per-flow goodput (Gbps).
        mean_gbps: f64,
    },
}

/// Replays the schedule through a [`FailedLinks`] set and, after every
/// distinct event time, measures the fraction of workload pairs that
/// still have a route; returns the minimum over the replay.
fn min_connectivity(
    g: &Graph,
    schedule: &flowsim::FaultSchedule,
    pairs: &[(NodeId, NodeId)],
) -> f64 {
    if schedule.is_empty() || pairs.is_empty() {
        return 1.0;
    }
    let mut failed = FailedLinks::new(g.link_count());
    let mut reach = Reach::new(g);
    let mut min_frac = 1.0f64;
    let events = &schedule.events;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].time;
        while i < events.len() && events[i].time == t {
            if events[i].up {
                failed.recover(events[i].link);
            } else {
                failed.fail(events[i].link);
            }
            i += 1;
        }
        let connected = reach.connected_pairs(g, pairs, |l| failed.is_down(l));
        min_frac = min_frac.min(connected as f64 / pairs.len() as f64);
    }
    min_frac
}

/// Pair connectivity by reachability sweeps on reused state: one sweep
/// per distinct first-hop switch rather than one path search per pair.
///
/// A pair `(s, d)` is connected iff a path search from `s` to `d` would
/// find one: `s == d`, or `d` is entered from some alive first hop of
/// `s` — a switch `s` is its own first hop; a server's first hops are the
/// switches its alive links reach, plus `d` itself when such a link
/// ends there. A sweep forwards through switches only, like the search.
struct Reach {
    /// `seen[v] == stamp`: the current sweep entered `v`.
    seen: Vec<u32>,
    stamp: u32,
    queue: Vec<NodeId>,
    /// `(first hop, pair index)`, grouped by first hop.
    roots: Vec<(NodeId, usize)>,
    connected: Vec<bool>,
}

impl Reach {
    fn new(g: &Graph) -> Self {
        Reach {
            seen: vec![0; g.node_count()],
            stamp: 0,
            queue: Vec::new(),
            roots: Vec::new(),
            connected: Vec::new(),
        }
    }

    /// How many of `pairs` are connected with every `down` link removed.
    fn connected_pairs<F>(&mut self, g: &Graph, pairs: &[(NodeId, NodeId)], down: F) -> usize
    where
        F: Fn(LinkId) -> bool,
    {
        self.roots.clear();
        self.connected.clear();
        self.connected.resize(pairs.len(), false);
        for (i, &(s, d)) in pairs.iter().enumerate() {
            if s == d {
                self.connected[i] = true;
            } else if g.node(s).kind.is_transit() {
                self.roots.push((s, i));
            } else {
                for &(w, l) in g.neighbors(s) {
                    if down(l) {
                        continue;
                    }
                    if w == d {
                        self.connected[i] = true;
                    } else if g.node(w).kind.is_transit() {
                        self.roots.push((w, i));
                    }
                }
            }
        }
        self.roots.sort_unstable();
        let mut at = 0;
        while at < self.roots.len() {
            let root = self.roots[at].0;
            let end = at + self.roots[at..].partition_point(|&(w, _)| w == root);
            if self.roots[at..end].iter().any(|&(_, i)| !self.connected[i]) {
                self.sweep(g, root, &down);
                for &(_, i) in &self.roots[at..end] {
                    let d = pairs[i].1;
                    self.connected[i] |= self.seen[d.idx()] == self.stamp;
                }
            }
            at = end;
        }
        self.connected.iter().filter(|&&c| c).count()
    }

    /// Marks every node entered from `root` (a switch) through alive
    /// links, forwarding through switches only.
    fn sweep<F>(&mut self, g: &Graph, root: NodeId, down: F)
    where
        F: Fn(LinkId) -> bool,
    {
        self.stamp += 1;
        self.seen[root.idx()] = self.stamp;
        self.queue.clear();
        self.queue.push(root);
        while let Some(u) = self.queue.pop() {
            for &(v, l) in g.neighbors(u) {
                if self.seen[v.idx()] != self.stamp && !down(l) {
                    self.seen[v.idx()] = self.stamp;
                    if g.node(v).kind.is_transit() {
                        self.queue.push(v);
                    }
                }
            }
        }
    }
}

/// The mode grid: the three uniform modes plus a half-global hybrid.
fn mode_grid(ft: &FlatTree) -> Vec<(String, ModeAssignment)> {
    let pods = ft.pods();
    let hybrid: Vec<PodMode> = (0..pods)
        .map(|p| {
            if p < pods / 2 {
                PodMode::Global
            } else {
                PodMode::Clos
            }
        })
        .collect();
    vec![
        ("clos".into(), ModeAssignment::uniform(pods, PodMode::Clos)),
        (
            "local".into(),
            ModeAssignment::uniform(pods, PodMode::Local),
        ),
        (
            "global".into(),
            ModeAssignment::uniform(pods, PodMode::Global),
        ),
        ("hybrid".into(), ModeAssignment::hybrid(hybrid)),
    ]
}

/// The flat-tree under test: the 20-switch testbed in `--smoke`, the
/// mini/full topo-1 otherwise.
fn network(scale: Scale) -> FlatTree {
    if scale.smoke {
        FlatTree::new(testbed::testbed_params()).expect("testbed params are valid")
    } else {
        common::flat_tree_over(common::topo(1, scale.full))
    }
}

/// Flow size (bytes) and the flap timing of the degradation grid.
/// Flap window and flow size chosen so faults hit mid-transfer: flows
/// need ~0.5 s+ under contention, flaps land inside (0, 0.4) s and heal
/// within ~0.6 s.
const BYTES: f64 = 2.5e8;
const FLAP_WINDOW: (f64, f64) = (0.05, 0.4);
const MEAN_DOWN_S: f64 = 0.3;

fn sim_config() -> SimConfig {
    SimConfig {
        transport: Transport::Mptcp {
            k: 4,
            coupled: true,
        },
        ..SimConfig::default()
    }
}

/// The flap fractions at `scale`.
fn fractions(scale: Scale) -> &'static [f64] {
    if scale.smoke {
        &SMOKE_FRACTIONS
    } else {
        &FRACTIONS
    }
}

/// The full sweep grid at `scale`, in canonical (merge) order:
/// degradation cells mode-major, then stuck-converter cells. Every cell
/// is pure in `(scale, spec)`, so any executor — serial loop, thread
/// pool, worker processes — must produce the identical grid as long as
/// it returns one output per spec in this order.
pub fn cell_grid(scale: Scale) -> Vec<CellSpec> {
    let ft = network(scale);
    let modes = mode_grid(&ft).len();
    let mut grid: Vec<CellSpec> = (0..modes)
        .flat_map(|m| {
            fractions(scale)
                .iter()
                .map(move |&f| CellSpec::Degradation {
                    mode_idx: m,
                    fraction: f,
                })
        })
        .collect();
    // Stuck converters: global mode with 0, 1, and (full grids) a
    // quarter of the converters latched in the Clos configuration.
    let counts: Vec<usize> = if scale.smoke {
        vec![0, 1]
    } else {
        let pods = ft.pods();
        let global = ModeAssignment::uniform(pods, PodMode::Global);
        let total = ft.instantiate(&global).configs.len();
        vec![0, 1, total / 4]
    };
    grid.extend(counts.into_iter().map(|n| CellSpec::Stuck { stuck: n }));
    grid
}

/// Executes one cell from scratch: rebuilds the (deterministic)
/// network, instantiates the mode, compiles the fault plan, simulates,
/// audits. Wherever it runs — in-process thread or `ftd` worker — the
/// result is bit-identical, which is what makes the distributed merge
/// byte-identical to the serial sweep.
pub fn execute_cell(scale: Scale, spec: &CellSpec) -> CellOutput {
    match *spec {
        CellSpec::Degradation { mode_idx, fraction } => {
            CellOutput::Degradation(degradation_cell(scale, mode_idx, fraction))
        }
        CellSpec::Stuck { stuck } => {
            let (stuck, mean_gbps) = stuck_cell(scale, stuck);
            CellOutput::Stuck { stuck, mean_gbps }
        }
    }
}

/// One degradation cell. `fct_stretch` holds the raw mean FCT; the
/// caller normalizes it against the same mode's fault-free cell once
/// the grid is merged.
fn degradation_cell(scale: Scale, mode_idx: usize, fraction: f64) -> DegradationPoint {
    let ft = network(scale);
    let modes = mode_grid(&ft);
    let (name, assignment) = &modes[mode_idx];
    let inst = ft.instantiate(assignment);
    let cfg = sim_config();
    let g = &inst.net.graph;
    let pairs_idx = traffic::patterns::permutation(inst.net.num_servers(), scale.seed);
    let flows = common::flow_specs(&inst.net, &pairs_idx, BYTES);
    let pairs: Vec<(NodeId, NodeId)> = pairs_idx
        .iter()
        .map(|&(s, d)| (inst.net.servers[s], inst.net.servers[d]))
        .collect();
    let mut plan = FaultPlan::new(scale.seed ^ ((mode_idx as u64) << 17));
    plan.random_link_flaps(&g.switch_cables(), fraction, MEAN_DOWN_S, FLAP_WINDOW);
    let schedule = plan.compile(g).expect("plan matches its own graph");
    let out = flowsim::simulate_under_faults_with_provider_traced(
        g,
        &flows,
        &cfg,
        &schedule,
        &mut *cfg.transport.provider(),
        &mut flowsim::NoopSink,
    )
    .expect("workload is valid by construction");
    let fcts: Vec<f64> = out.result.records.iter().filter_map(|r| r.fct()).collect();
    let mean_fct = crate::report::mean(&fcts);
    DegradationPoint {
        mode: name.clone(),
        fault_fraction: fraction,
        completed: out.result.completed_fraction(),
        fct_stretch: mean_fct, // normalized against the 0% cell later
        mean_gbps: out.result.mean_rate_gbps().unwrap_or(0.0),
        parked: out.audit.parked,
        revived: out.audit.revived,
        audit_violations: out.audit.violations(),
        min_connected: min_connectivity(g, &schedule, &pairs),
    }
}

/// One stuck-converter cell: raw `(stuck, mean goodput)`; normalized
/// against the 0-stuck cell once the grid is merged.
fn stuck_cell(scale: Scale, n: usize) -> (usize, f64) {
    let ft = network(scale);
    let global = ModeAssignment::uniform(ft.pods(), PodMode::Global);
    let cfg = sim_config();
    let mut plan = FaultPlan::new(scale.seed);
    for c in 0..n {
        plan.stuck_converter(c, ConverterConfig::Default);
    }
    let overrides: Vec<(usize, ConverterConfig)> = plan
        .stuck_converters
        .iter()
        .map(|s| (s.converter, s.config))
        .collect();
    let inst = ft.instantiate_with_overrides(&global, &overrides);
    let pairs_idx = traffic::patterns::permutation(inst.net.num_servers(), scale.seed);
    let flows = common::flow_specs(&inst.net, &pairs_idx, BYTES);
    let res = flowsim::simulate(&inst.net.graph, &flows, &cfg).expect("workload is valid");
    (n, res.mean_rate_gbps().unwrap_or(0.0))
}

/// Runs the full sweep with the in-process parallel driver.
pub fn run(scale: Scale) -> FaultSweep {
    run_with(scale, |specs| {
        sweep(specs, |_, spec| execute_cell(scale, spec))
    })
}

/// Runs the full sweep through a caller-supplied cell executor — the
/// in-process [`sweep`] driver ([`run`]) or the distributed dispatch
/// plane. The executor must return one [`CellOutput`] per spec, in
/// spec order; everything position-dependent (FCT normalization, stuck
/// goodput normalization) happens here, after the merge, so executors
/// only ever see independent cells.
pub fn run_with<E>(scale: Scale, exec: E) -> FaultSweep
where
    E: FnOnce(&[CellSpec]) -> Vec<CellOutput>,
{
    let specs = cell_grid(scale);
    let outputs = exec(&specs);
    assert_eq!(
        outputs.len(),
        specs.len(),
        "executor must return one output per cell"
    );

    let mut degradation: Vec<DegradationPoint> = Vec::new();
    let mut stuck_raw: Vec<(usize, f64)> = Vec::new();
    for out in outputs {
        match out {
            CellOutput::Degradation(p) => degradation.push(p),
            CellOutput::Stuck { stuck, mean_gbps } => stuck_raw.push((stuck, mean_gbps)),
        }
    }

    // Normalize FCT stretch per mode against that mode's fault-free mean.
    let mut mode_names: Vec<String> = Vec::new();
    for p in &degradation {
        if !mode_names.contains(&p.mode) {
            mode_names.push(p.mode.clone());
        }
    }
    for mode_name in &mode_names {
        let base = degradation
            .iter()
            .find(|p| &p.mode == mode_name && p.fault_fraction == 0.0)
            .map(|p| p.fct_stretch)
            .expect("fraction grid includes 0.0");
        for p in degradation.iter_mut().filter(|p| &p.mode == mode_name) {
            p.fct_stretch /= base;
        }
    }

    let clean = stuck_raw
        .first()
        .map(|&(_, g)| g)
        .expect("stuck grid includes 0");
    let stuck = stuck_raw
        .into_iter()
        .map(|(n, gbps)| StuckPoint {
            stuck: n,
            mean_gbps: gbps,
            normalized: gbps / clean,
        })
        .collect();

    // Conversion under control-plane failure, on the testbed controller.
    let levels: Vec<(&str, ControlFaults)> = vec![
        ("none", ControlFaults::none()),
        (
            "ocs-flaky",
            ControlFaults {
                seed: scale.seed ^ 43,
                ocs_fail_prob: 0.7,
                ocs_timeout_prob: 0.2,
                ..ControlFaults::none()
            },
        ),
        (
            "rules-flaky",
            ControlFaults {
                seed: scale.seed,
                rule_fail_prob: 0.05,
                ..ControlFaults::none()
            },
        ),
        (
            "crashy",
            ControlFaults {
                seed: scale.seed,
                rule_fail_prob: 0.02,
                shard_crash_prob: 0.25,
                shard_recover_ms: 250.0,
                ..ControlFaults::none()
            },
        ),
        (
            "hopeless",
            ControlFaults {
                seed: scale.seed,
                ocs_fail_prob: 1.0,
                ..ControlFaults::none()
            },
        ),
    ];
    let policy = RetryPolicy {
        shards: 2,
        ..RetryPolicy::default()
    };
    let conversion = levels
        .iter()
        .map(|(label, faults)| {
            // A fresh rig per level: every conversion starts from Clos.
            let rig = TestbedRig::new();
            let pods = rig.controller.flat_tree().pods();
            let to = ModeAssignment::uniform(pods, PodMode::Global);
            let out = rig
                .controller
                .convert_resilient(&to, &policy, faults, &mut obs::NoopSink)
                .expect("valid fault levels");
            ConversionPoint {
                level: label.to_string(),
                status: format!("{:?}", out.status).to_lowercase(),
                retries: out.total_retries,
                total_ms: out.total_ms,
                nominal_ms: out.report.total_sequential_ms(),
            }
        })
        .collect();

    FaultSweep {
        degradation,
        stuck,
        conversion,
    }
}

/// Total auditor violations across the sweep (the binary's exit gate).
pub fn total_violations(s: &FaultSweep) -> usize {
    s.degradation.iter().map(|p| p.audit_violations).sum()
}

/// Prints the three tables.
pub fn print(s: &FaultSweep) {
    let body: Vec<Vec<String>> = s
        .degradation
        .iter()
        .map(|p| {
            vec![
                p.mode.clone(),
                format!("{:.0}%", p.fault_fraction * 100.0),
                format!("{:.1}%", p.completed * 100.0),
                f3(p.fct_stretch),
                f3(p.mean_gbps),
                p.parked.to_string(),
                p.revived.to_string(),
                format!("{:.1}%", p.min_connected * 100.0),
                p.audit_violations.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fault sweep: degradation under cable flaps (extension)",
        &[
            "mode",
            "flapped",
            "completed",
            "FCT stretch",
            "mean Gbps",
            "parked",
            "revived",
            "min conn",
            "violations",
        ],
        &body,
    );

    let body: Vec<Vec<String>> = s
        .stuck
        .iter()
        .map(|p| vec![p.stuck.to_string(), f3(p.mean_gbps), f3(p.normalized)])
        .collect();
    print_table(
        "Fault sweep: global mode with stuck converters (§3.6)",
        &["stuck", "mean Gbps", "normalized"],
        &body,
    );

    let body: Vec<Vec<String>> = s
        .conversion
        .iter()
        .map(|p| {
            vec![
                p.level.clone(),
                p.status.clone(),
                p.retries.to_string(),
                f3(p.total_ms),
                f3(p.nominal_ms),
                f3(p.total_ms / p.nominal_ms),
            ]
        })
        .collect();
    print_table(
        "Fault sweep: testbed clos→global conversion under control-plane faults",
        &[
            "level",
            "status",
            "retries",
            "total ms",
            "nominal ms",
            "inflation",
        ],
        &body,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsim::{FaultSchedule, LinkEvent};
    use netgraph::{dijkstra, NodeKind};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `n` switches with 0–2 servers each, `cables` random switch cables
    /// (maybe disconnected), one server homed on two switches, and one
    /// server cabled straight to it.
    fn random_network(n: usize, cables: usize, rng: &mut ChaCha8Rng) -> Graph {
        let mut g = Graph::new();
        let switches: Vec<NodeId> = (0..n)
            .map(|i| g.add_node(NodeKind::GenericSwitch, format!("sw{i}")))
            .collect();
        for (i, &sw) in switches.iter().enumerate() {
            for j in 0..rng.gen_range(0..=2) {
                let h = g.add_node(NodeKind::Server, format!("h{i}-{j}"));
                g.add_duplex_link(h, sw, 10.0);
            }
        }
        for _ in 0..cables {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                g.add_duplex_link(switches[a], switches[b], 10.0);
            }
        }
        let dual = g.add_node(NodeKind::Server, "dual");
        g.add_duplex_link(dual, switches[0], 10.0);
        g.add_duplex_link(dual, switches[rng.gen_range(0..n)], 10.0);
        let peer = g.add_node(NodeKind::Server, "peer");
        g.add_duplex_link(peer, dual, 10.0);
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The sweep count equals one path search per pair after every
        /// event time of a random directed-link schedule (each direction
        /// fails and recovers on its own), over pairs of servers and
        /// switches including `s == d`; `min_connectivity` is the minimum
        /// of the per-pair fractions.
        #[test]
        fn sweeps_match_per_pair_search(
            n in 1usize..10,
            cables in 0usize..20,
            events in 1usize..40,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = random_network(n, cables, &mut rng);
            let nodes = g.node_count() as u32;
            let pairs: Vec<(NodeId, NodeId)> = (0..24)
                .map(|_| (NodeId(rng.gen_range(0..nodes)), NodeId(rng.gen_range(0..nodes))))
                .collect();
            let mut schedule = FaultSchedule::empty();
            for _ in 0..events {
                schedule.events.push(LinkEvent {
                    time: f64::from(rng.gen_range(0u32..8)),
                    link: LinkId(rng.gen_range(0..g.link_count() as u32)),
                    up: rng.gen_bool(0.3),
                });
            }
            schedule.events.sort_by(|a, b| a.time.total_cmp(&b.time));
            let mut failed = FailedLinks::new(g.link_count());
            let mut reach = Reach::new(&g);
            let mut want_min = 1.0f64;
            for (i, e) in schedule.events.iter().enumerate() {
                if e.up {
                    failed.recover(e.link);
                } else {
                    failed.fail(e.link);
                }
                if schedule.events.get(i + 1).is_some_and(|next| next.time == e.time) {
                    continue;
                }
                let want = pairs
                    .iter()
                    .filter(|&&(s, d)| {
                        dijkstra::shortest_path_avoiding(&g, s, d, |l| failed.is_down(l)).is_some()
                    })
                    .count();
                let got = reach.connected_pairs(&g, &pairs, |l| failed.is_down(l));
                prop_assert_eq!(got, want, "at t = {}", e.time);
                want_min = want_min.min(want as f64 / pairs.len() as f64);
            }
            let got_min = min_connectivity(&g, &schedule, &pairs);
            prop_assert_eq!(got_min.to_bits(), want_min.to_bits());
        }
    }
}
