//! Performance snapshot: times the simulation engine on the bench_simcore
//! workloads plus one sweep grid and writes `BENCH_sim.json`.
//!
//! Usage:
//!   cargo run -p ft-bench --release --bin perfsnap -- [--smoke] [--out \<path\>] [--check \<path\>]
//!
//! Each workload is run once with a counting sink (untimed) to establish
//! how many trace events the run generates, then several times with the
//! no-op sink for the wall-clock measurement, keeping the fastest run —
//! so the reported time is the un-traced hot path with scheduler noise
//! trimmed. MPTCP workloads are timed over a prebuilt shared route
//! table (the table build itself is the `route_precompute` entry), so
//! `sim_*` measures the engine + allocator, not routing. Those
//! workloads also carry an `alloc` block with the incremental
//! allocator's effort counters from an untimed telemetry pass, and the
//! same counters are printed as an `obs` metrics summary on stderr.
//!
//! `events_per_s` is the counted event total divided by the best
//! wall-clock, and `peak_rss_kb` is the process high-water mark
//! (`VmHWM`) sampled after the workload (0 on non-Linux hosts).
//! `--smoke` shrinks the flow rounds for CI. `--check <path>` compares
//! the fresh numbers against a committed snapshot and fails (exit 1) if
//! any shared workload's `events_per_s` drops below half the committed
//! value — the regression floor CI enforces.

use flat_tree::PodMode;
use flowsim::{
    simulate_under_faults_with_provider_traced, AllocTelemetry, FaultPlan, FaultSchedule,
    MptcpProvider, NoopSink, PathProvider, SimConfig, TraceEvent, TraceSink, Transport,
};
use ft_bench::dispatch::{self, DispatchConfig};
use ft_bench::experiments::{common, faultsweep};
use ft_bench::{sweep, Scale};
use netgraph::{Graph, LinkId};
use routing::SharedRouteTable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use topology::DcNetwork;

const USAGE: &str = "usage: perfsnap [--smoke] [--out <path>] [--check <path>] [--help]";

/// Fraction of a committed workload's `events_per_s` a fresh run must
/// reach under `--check`. Generous because CI machines are slower and
/// noisier than the machine that wrote the committed snapshot.
const FLOOR_FRACTION: f64 = 0.5;

/// Counts every emitted event; used for the untimed instrumentation pass.
struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn emit(&mut self, _ev: TraceEvent) {
        self.0 += 1;
    }
}

/// How a workload obtains routes: the lazy per-arrival provider that
/// `simulate` wires by default, or MPTCP over a prebuilt shared table.
enum Routing {
    Lazy,
    SharedMptcp {
        table: Arc<SharedRouteTable>,
        coupled: bool,
    },
}

impl Routing {
    fn provider(&self, cfg: &SimConfig) -> Box<dyn PathProvider> {
        match self {
            Routing::Lazy => cfg.transport.provider(),
            Routing::SharedMptcp { table, coupled } => {
                Box::new(MptcpProvider::with_shared(table.clone(), *coupled))
            }
        }
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

/// `VmHWM` (peak resident set) in kB from `/proc/self/status`; 0 when
/// the file or the field is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct Snapshot {
    name: &'static str,
    wall_ms: f64,
    events: u64,
    peak_rss_kb: u64,
    alloc: Option<AllocTelemetry>,
    /// Dispatch-plane requeues (lost leases retried), for the
    /// `dispatch_*` workloads only.
    retries: Option<u64>,
}

impl Snapshot {
    /// Events per second, or NaN for a degenerate measurement (zero or
    /// non-finite wall-clock). NaN rather than 0 so that degenerate
    /// runs *fail* [`validate_snapshots`] and the `--check` floor with
    /// a diagnostic instead of sliding through every `<` comparison.
    fn events_per_s(&self) -> f64 {
        if self.wall_ms.is_finite() && self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1e3)
        } else {
            f64::NAN
        }
    }
}

/// Rejects degenerate measurements before they can be written into a
/// snapshot (and become unusable floors): a workload that produced no
/// events, no wall-clock, or a non-finite rate is a broken run, not a
/// slow one. Returns one diagnostic per violation.
fn validate_snapshots(snaps: &[Snapshot]) -> Vec<String> {
    let mut violations = Vec::new();
    for snap in snaps {
        if snap.events == 0 {
            violations.push(format!(
                "{}: produced 0 events (wall {:.3} ms) — nothing was measured",
                snap.name, snap.wall_ms
            ));
            continue;
        }
        let eps = snap.events_per_s();
        if !(eps.is_finite() && eps > 0.0) {
            violations.push(format!(
                "{}: degenerate events_per_s {eps} from wall_ms {:.3} over {} events",
                snap.name, snap.wall_ms, snap.events
            ));
        }
    }
    violations
}

fn measure_sim(
    name: &'static str,
    net: &DcNetwork,
    flows: &[flowsim::FlowSpec],
    cfg: &SimConfig,
    sched: &FaultSchedule,
    routing: &Routing,
    reps: u32,
) -> Snapshot {
    let g = &net.graph;
    let mut counter = CountingSink(0);
    simulate_under_faults_with_provider_traced(
        g,
        flows,
        cfg,
        sched,
        &mut *routing.provider(cfg),
        &mut counter,
    )
    .expect("valid workload");
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let mut provider = routing.provider(cfg);
        let out = simulate_under_faults_with_provider_traced(
            g,
            flows,
            cfg,
            sched,
            &mut *provider,
            &mut NoopSink,
        )
        .expect("valid workload");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(out.result.end_time);
        best_ms = best_ms.min(wall_ms);
    }
    // Untimed telemetry pass for shared-table workloads: same engine
    // path, so it is never the timed run.
    let alloc = match routing {
        Routing::Lazy => None,
        Routing::SharedMptcp { .. } => {
            let mut tel = AllocTelemetry::default();
            flowsim::simulate_with_telemetry(
                g,
                flows,
                cfg,
                sched,
                &mut *routing.provider(cfg),
                &mut tel,
            )
            .expect("valid workload");
            Some(tel)
        }
    };
    Snapshot {
        name,
        wall_ms: best_ms,
        events: counter.0,
        peak_rss_kb: peak_rss_kb(),
        alloc,
        retries: None,
    }
}

/// The route-plane workload: parallel precompute of the full
/// switch-pair route table (k = 8) for the mini topo-1 global
/// flat-tree — the table every experiment cell now shares. `events`
/// is the number of precomputed switch pairs. Returns the table so the
/// MPTCP sim workloads run over it.
fn measure_route_precompute(net: &DcNetwork) -> (Arc<SharedRouteTable>, Snapshot) {
    let t0 = Instant::now();
    let table = Arc::new(SharedRouteTable::build(&net.graph, 8));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pairs = table.pair_count() as u64;
    let snap = Snapshot {
        name: "route_precompute",
        wall_ms,
        events: pairs,
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: None,
    };
    (table, snap)
}

/// The sweep-grid workload: the faultsweep smoke grid, with cells counted
/// through the process-wide sweep observer (one event per cell).
fn measure_faultsweep() -> Snapshot {
    let cells = Arc::new(AtomicU64::new(0));
    let seen = cells.clone();
    sweep::set_observer(Some(Arc::new(move |_, _| {
        seen.fetch_add(1, Ordering::Relaxed);
    })));
    let scale = Scale {
        smoke: true,
        ..Scale::default()
    };
    let t0 = Instant::now();
    let out = faultsweep::run(scale);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    sweep::set_observer(None);
    std::hint::black_box(faultsweep::total_violations(&out));
    Snapshot {
        name: "faultsweep_smoke_grid",
        wall_ms,
        events: cells.load(Ordering::Relaxed),
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: None,
    }
}

/// The distributed-sweep workload: the same smoke grid as
/// `faultsweep_smoke_grid` but dispatched over `workers` local `ftd`
/// worker processes. `events` counts merged cells through the sweep
/// observer; `retries` is the plane's requeue count. If the worker
/// binary is missing the plane degrades to in-process execution, which
/// the stderr line surfaces as `fallback yes`.
fn measure_dispatch(name: &'static str, workers: usize) -> Snapshot {
    let cells = Arc::new(AtomicU64::new(0));
    let seen = cells.clone();
    sweep::set_observer(Some(Arc::new(move |_, _| {
        seen.fetch_add(1, Ordering::Relaxed);
    })));
    let scale = Scale {
        smoke: true,
        ..Scale::default()
    };
    let cfg = DispatchConfig::local(workers);
    let t0 = Instant::now();
    let (out, summary) = dispatch::run_faultsweep(scale, &cfg, &mut obs::NoopSink);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    sweep::set_observer(None);
    std::hint::black_box(faultsweep::total_violations(&out));
    eprintln!("perfsnap: {name}: {summary}");
    Snapshot {
        name,
        wall_ms,
        events: cells.load(Ordering::Relaxed),
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: Some(summary.requeues),
    }
}

/// The decomposed-simulation workload: `bigsim`'s all-modes run
/// (fat-tree + three flat-tree conversions) at k=8 under `--smoke`
/// and the full k=32 / 8192-server scale otherwise. One rep — the
/// decomposition is the thing under test and a k=32 all-modes pass is
/// tens of seconds. `events` counts per-flow FCT estimates produced
/// across all networks; `peak_rss_kb` is the high-water mark after the
/// largest topology, the number ROADMAP's scale target cares about.
fn measure_bigsim(smoke: bool) -> Snapshot {
    let scale = Scale {
        smoke,
        full: !smoke,
        ..Scale::default()
    };
    let t0 = Instant::now();
    let out = ft_bench::experiments::bigsim::run(scale);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let events: u64 = out.points.iter().map(|p| p.completed as u64).sum();
    std::hint::black_box(&out);
    Snapshot {
        name: "bigsim_allmodes",
        wall_ms,
        events,
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: None,
    }
}

struct Args {
    smoke: bool,
    out: String,
    check: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        out: "BENCH_sim.json".to_string(),
        check: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = it.next().ok_or("--out requires a path")?.clone(),
            "--check" => {
                parsed.check = Some(it.next().ok_or("--check requires a path")?.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn render_json(smoke: bool, snaps: &[Snapshot]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"bench_sim/v2\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str("  \"workloads\": {\n");
    for (i, snap) in snaps.iter().enumerate() {
        let comma = if i + 1 < snaps.len() { "," } else { "" };
        let alloc = match &snap.alloc {
            Some(t) => format!(
                ", \"alloc\": {{\"epochs\": {}, \"rounds\": {}, \"dirty_links\": {}, \"dirty_entities\": {}, \"reused_rates\": {}, \"scan_savings\": {:.4}}}",
                t.epochs, t.rounds, t.dirty_links, t.dirty_entities, t.reused_rates, t.scan_savings(),
            ),
            None => String::new(),
        };
        let retries = match snap.retries {
            Some(r) => format!(", \"retries\": {r}"),
            None => String::new(),
        };
        s.push_str(&format!(
            "    \"{}\": {{\"wall_ms\": {:.3}, \"events\": {}, \"events_per_s\": {:.1}, \"peak_rss_kb\": {}{retries}{alloc}}}{comma}\n",
            snap.name,
            snap.wall_ms,
            snap.events,
            snap.events_per_s(),
            snap.peak_rss_kb,
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Pulls `(workload, events_per_s)` pairs out of a `BENCH_sim.json`
/// body. One workload per line; tolerant of both v1 and v2 layouts.
fn extract_events_per_s(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(tail) = line.split("\"events_per_s\":").nth(1) else {
            continue;
        };
        // Take the raw token (up to the next delimiter) and let parse
        // failures surface as NaN, not 0.0: a snapshot that somehow
        // contains "NaN"/"inf"/garbage must be *flagged* by the floor
        // check, never silently treated as a floorless workload.
        let value: f64 = tail
            .trim_start()
            .chars()
            .take_while(|c| !matches!(c, ',' | '}' | ' ' | '\n'))
            .collect::<String>()
            .parse()
            .unwrap_or(f64::NAN);
        let name = line
            .trim_start()
            .trim_start_matches('"')
            .split('"')
            .next()
            .unwrap_or("")
            .to_string();
        if !name.is_empty() {
            out.push((name, value));
        }
    }
    out
}

/// Enforces the regression floor: every workload present in both
/// snapshots must reach [`FLOOR_FRACTION`] of its committed
/// `events_per_s`. Returns the violations.
///
/// Degenerate values on *either* side are violations, not skips: a
/// fresh NaN/zero rate means the run measured nothing (the old code
/// let `NaN < floor` evaluate false and pass), and a committed
/// NaN/zero floor means the snapshot itself is unusable as a gate.
fn check_floors(fresh: &str, committed: &str) -> Vec<String> {
    let fresh = extract_events_per_s(fresh);
    let mut violations = Vec::new();
    for (name, floor) in extract_events_per_s(committed) {
        let Some((_, got)) = fresh.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        if !(floor.is_finite() && floor > 0.0) {
            violations.push(format!(
                "{name}: committed floor {floor} is not a positive finite rate — \
                 regenerate the snapshot; this workload cannot be gated",
            ));
            continue;
        }
        if !(got.is_finite() && *got > 0.0) {
            violations.push(format!(
                "{name}: fresh events_per_s {got} is degenerate (zero-duration or \
                 zero-event run) — the measurement is broken, not slow",
            ));
            continue;
        }
        if *got < floor * FLOOR_FRACTION {
            let need = floor * FLOOR_FRACTION;
            violations.push(format!(
                "{name}: {got:.1} events/s < floor {need:.1} ({FLOOR_FRACTION}x of committed {floor:.1})",
            ));
        }
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfsnap: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let rounds = if args.smoke { 2 } else { 6 };
    let reps = if args.smoke { 2 } else { 5 };

    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let flows = workload(&net, rounds);
    let mut plan = FaultPlan::new(1);
    plan.flap(first_cable(&net.graph), 0.05, None);
    let fail = plan.compile(&net.graph).expect("valid plan");
    let no_faults = FaultSchedule::empty();
    let ecmp = SimConfig {
        transport: Transport::TcpEcmp,
        ..SimConfig::default()
    };
    let mptcp = SimConfig {
        transport: Transport::Mptcp {
            k: 8,
            coupled: true,
        },
        ..SimConfig::default()
    };
    let (table, route_snap) = measure_route_precompute(&net);
    let lazy = Routing::Lazy;
    let shared = Routing::SharedMptcp {
        table,
        coupled: true,
    };

    let mut snaps = Vec::new();
    let cases: [(&'static str, &SimConfig, &Routing, bool); 4] = [
        ("sim_ecmp", &ecmp, &lazy, false),
        ("sim_ecmp_failure", &ecmp, &lazy, true),
        ("sim_mptcp8", &mptcp, &shared, false),
        ("sim_mptcp8_failure", &mptcp, &shared, true),
    ];
    for (name, cfg, routing, with_failure) in cases {
        let sched = if with_failure { &fail } else { &no_faults };
        let snap = measure_sim(name, &net, &flows, cfg, sched, routing, reps);
        eprintln!(
            "perfsnap: {:<22} {:>9.1} ms  {:>9} events  {:>8} kB peak",
            snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
        );
        snaps.push(snap);
    }
    eprintln!(
        "perfsnap: {:<22} {:>9.1} ms  {:>9} pairs   {:>8} kB peak",
        route_snap.name, route_snap.wall_ms, route_snap.events, route_snap.peak_rss_kb
    );
    snaps.push(route_snap);
    let snap = measure_faultsweep();
    eprintln!(
        "perfsnap: {:<22} {:>9.1} ms  {:>9} cells   {:>8} kB peak",
        snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
    );
    snaps.push(snap);
    for (name, workers) in [("dispatch_w2", 2), ("dispatch_w4", 4)] {
        let snap = measure_dispatch(name, workers);
        eprintln!(
            "perfsnap: {:<22} {:>9.1} ms  {:>9} cells   {:>8} kB peak",
            snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
        );
        snaps.push(snap);
    }
    let snap = measure_bigsim(args.smoke);
    eprintln!(
        "perfsnap: {:<22} {:>9.1} ms  {:>9} flows   {:>8} kB peak",
        snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
    );
    snaps.push(snap);

    // Refuse to write (or gate against) a snapshot containing broken
    // measurements — a zero-duration or zero-event workload would
    // otherwise become a floor no regression can ever trip.
    let degenerate = validate_snapshots(&snaps);
    if !degenerate.is_empty() {
        for v in &degenerate {
            eprintln!("perfsnap: DEGENERATE MEASUREMENT {v}");
        }
        std::process::exit(1);
    }

    let json = render_json(args.smoke, &snaps);
    if let Some(check_path) = &args.check {
        match std::fs::read_to_string(check_path) {
            Ok(committed) => {
                let violations = check_floors(&json, &committed);
                if !violations.is_empty() {
                    for v in &violations {
                        eprintln!("perfsnap: FLOOR VIOLATION {v}");
                    }
                    std::process::exit(1);
                }
                eprintln!("perfsnap: floor check against {check_path} passed");
            }
            Err(e) => {
                eprintln!("perfsnap: cannot read {check_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("perfsnap: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("perfsnap: wrote {} ({} workloads)", args.out, snaps.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &'static str, wall_ms: f64, events: u64) -> Snapshot {
        Snapshot {
            name,
            wall_ms,
            events,
            peak_rss_kb: 0,
            alloc: None,
            retries: None,
        }
    }

    /// The original defect: a zero-duration or zero-event run used to
    /// report `events_per_s() == 0.0`, which every floor comparison
    /// silently passed. It must now be NaN (degenerate sentinel).
    #[test]
    fn degenerate_wall_clock_is_nan_not_zero() {
        assert!(snap("w", 0.0, 100).events_per_s().is_nan());
        assert!(snap("w", -1.0, 100).events_per_s().is_nan());
        assert!(snap("w", f64::INFINITY, 100).events_per_s().is_nan());
        let healthy = snap("w", 2000.0, 100).events_per_s();
        assert!((healthy - 50.0).abs() < 1e-9);
    }

    #[test]
    fn validate_snapshots_flags_degenerate_runs() {
        let ok = [snap("a", 10.0, 5), snap("b", 1.5, 1)];
        assert!(validate_snapshots(&ok).is_empty());
        let bad = [snap("a", 10.0, 5), snap("zero_events", 10.0, 0)];
        let v = validate_snapshots(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("zero_events"), "{v:?}");
        let bad = [snap("zero_wall", 0.0, 5)];
        let v = validate_snapshots(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("zero_wall"), "{v:?}");
    }

    fn body(entries: &[(&str, &str)]) -> String {
        let mut s = String::from("{\n  \"workloads\": {\n");
        for (name, eps) in entries {
            s.push_str(&format!(
                "    \"{name}\": {{\"wall_ms\": 1.0, \"events\": 1, \"events_per_s\": {eps}, \"peak_rss_kb\": 0}},\n"
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    #[test]
    fn healthy_floors_pass_and_regressions_fail() {
        let committed = body(&[("sim", "1000.0")]);
        assert!(check_floors(&body(&[("sim", "900.0")]), &committed).is_empty());
        let v = check_floors(&body(&[("sim", "100.0")]), &committed);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("< floor"), "{v:?}");
        // Workloads only on one side are not gated.
        assert!(check_floors(&body(&[("other", "1.0")]), &committed).is_empty());
    }

    /// Regression: NaN/zero fresh values must FAIL the check, not slide
    /// through the `<` comparison.
    #[test]
    fn degenerate_fresh_values_are_violations() {
        let committed = body(&[("sim", "1000.0")]);
        for bad in ["NaN", "0.0", "-3.0", "inf"] {
            let v = check_floors(&body(&[("sim", bad)]), &committed);
            assert_eq!(v.len(), 1, "fresh {bad} must be flagged");
            assert!(v[0].contains("degenerate"), "{v:?}");
        }
    }

    /// Regression: an unusable committed floor (NaN/zero/garbage) must
    /// be reported, not silently skipped as "no floor".
    #[test]
    fn unusable_committed_floors_are_violations() {
        let fresh = body(&[("sim", "500.0")]);
        for bad in ["NaN", "0.0", "inf", "bogus"] {
            let v = check_floors(&fresh, &body(&[("sim", bad)]));
            assert_eq!(v.len(), 1, "committed {bad} must be flagged");
            assert!(v[0].contains("cannot be gated"), "{v:?}");
        }
    }

    #[test]
    fn extract_surfaces_parse_failures_as_nan() {
        let got = extract_events_per_s(&body(&[("a", "12.5"), ("b", "wat")]));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], ("a".to_string(), 12.5));
        assert_eq!(got[1].0, "b");
        assert!(got[1].1.is_nan());
    }
}
