//! `ftperf` — one pass of one benchmark workload, in a fresh process.
//!
//! `perfbench/run.py` builds this binary, runs it once per pass and
//! aggregates the passes; see `perfbench/README.md`.
//!
//! ```text
//! ftperf pass --workload <name> --seed <n> [--trace] [--perturb]
//! ftperf sweep-reference --seed <n>
//! ftperf fidelity --seed <n>
//! ```
//!
//! `pass` prints anything the workload prints (the merged sweep table)
//! and then, as its last line, one JSON object with the pass's raw
//! measurements and output digests. `--perturb` corrupts one result
//! after the run, for the checker's self-test.

mod decomp_k32;
mod engine;
mod exact_trace_flaps;
mod report;
mod sweep_dispatch_w2;
mod trace;

use report::Obj;
use std::collections::BTreeMap;
use trace::{ProviderTally, Tracer};

/// One pass's measurements.
pub struct Pass {
    /// Wall time of the pass (s).
    wall_s: f64,
    /// Time before the first routing call (s).
    setup_s: f64,
    /// Flows completed (simulated, on the sweep).
    flows: f64,
    /// Independent units of simulation: networks, runs or sweep cells.
    cells: f64,
    /// Output units the digests cover (flows or cells).
    units: usize,
    /// Workload-specific digests and invariant tallies (JSON).
    check: String,
    /// Per-layer metrics of a traced pass.
    layers: BTreeMap<&'static str, f64>,
    /// Traced passes: wall time without the attribution-only calls,
    /// and the spans (JSON).
    traced_wall_s: f64,
    spans: String,
}

impl Pass {
    fn new(wall_s: f64, setup_s: f64, flows: f64, cells: f64, units: usize, check: String) -> Self {
        Self {
            wall_s,
            setup_s,
            flows,
            cells,
            units,
            check,
            layers: BTreeMap::new(),
            traced_wall_s: f64::NAN,
            spans: "[]".into(),
        }
    }

    /// Closes a traced pass: the wall time outside every span, and the
    /// span list written out for the run's trace file.
    fn finish_trace(&mut self, tr: &Tracer) {
        let total = tr.now();
        self.traced_wall_s = total - tr.attribution_secs();
        self.layers.insert("other_s", tr.uncovered(total));
        self.spans = report::array(tr.spans(), |s| {
            Obj::default()
                .str("name", s.name)
                .num("start", s.start)
                .num("end", s.end)
                .num("parent", s.parent.map_or(-1.0, |p| p as f64))
                .num("rss_start_mb", s.rss_start_mb)
                .num("rss_end_mb", s.rss_end_mb)
                .num("attribution", f64::from(u8::from(s.attribution)))
                .num("folded", f64::from(u8::from(s.folded)))
                .finish()
        });
    }
}

/// Set-up repetitions per untraced pass: repeat while the repetitions
/// so far took under `SETUP_BUDGET_S`, at most `SETUP_REPS` times.
const SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 0.2;

/// Runs a workload's set-up several times and returns the last result
/// with the median duration. A set-up of a few milliseconds in a fresh
/// process is dominated by first-touch page faults; the median over
/// repetitions measures the work itself. A set-up that takes longer
/// than the budget (`decomp_k32`'s) runs once, and a traced pass sets
/// up once so that the set-up spans count each call once.
fn timed_setup<T>(tr: &mut Tracer, mut setup: impl FnMut(&mut Tracer) -> T) -> (T, f64) {
    let mut took = Vec::new();
    loop {
        let start = tr.now();
        let out = setup(tr);
        took.push(tr.now() - start);
        let spent: f64 = took.iter().sum();
        if tr.on() || took.len() >= SETUP_REPS || spent >= SETUP_BUDGET_S {
            return (out, trace::percentile(&took, 50.0));
        }
    }
}

/// The set-up layers every workload reports.
fn setup_layers(l: &mut BTreeMap<&'static str, f64>, tr: &Tracer) {
    l.insert("topology.build_s", tr.total("topology.build"));
    l.insert("core.profile_s", tr.total("core.profile"));
    l.insert(
        "core.profile_candidates",
        tr.counts
            .get("core.profile_candidates")
            .copied()
            .unwrap_or(0.0),
    );
    l.insert("core.instantiate_s", tr.total("core.instantiate"));
    l.insert("traffic.generate_s", tr.total("traffic.generate"));
}

/// The provider decorator's tallies.
fn provider_layers(l: &mut BTreeMap<&'static str, f64>, t: &ProviderTally, rss_growth_mb: f64) {
    l.insert("provider.route_s", t.secs);
    l.insert("provider.route_calls", t.call_us.len() as f64);
    l.insert("provider.route_us_p50", trace::percentile(&t.call_us, 50.0));
    l.insert("provider.route_us_p99", trace::percentile(&t.call_us, 99.0));
    l.insert("provider.unroutable", t.unroutable as f64);
    l.insert("provider.rss_growth_mb", rss_growth_mb);
    l.insert("provider.failure_route_s", t.failure_secs);
    l.insert("provider.failure_route_calls", t.failure_calls as f64);
}

const USAGE: &str = "usage: ftperf pass --workload <name> --seed <n> [--trace] [--perturb]\n\
                     \x20      ftperf sweep-reference --seed <n>\n\
                     \x20      ftperf fidelity --seed <n>";

fn fail(msg: &str) -> ! {
    eprintln!("ftperf: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        fail("missing command")
    };
    let mut workload = None;
    let mut seed = None;
    let (mut trace, mut perturb) = (false, false);
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                workload = args.get(i).cloned();
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse::<u64>().ok());
            }
            "--trace" => trace = true,
            "--perturb" => perturb = true,
            other => fail(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let seed = seed.unwrap_or_else(|| fail("--seed <u64> is required"));
    match cmd.as_str() {
        "pass" => {
            let pass = match workload.as_deref() {
                Some("decomp_k32") => decomp_k32::run(seed, trace, perturb),
                Some("exact_trace_flaps") => exact_trace_flaps::run(seed, trace, perturb),
                Some("sweep_dispatch_w2") => sweep_dispatch_w2::run(seed, trace, perturb),
                Some(other) => fail(&format!("unknown workload {other:?}")),
                None => fail("--workload is required"),
            };
            let peak_rss_mb = trace::proc_status_mb("VmHWM:");
            println!(
                "{}",
                Obj::default()
                    .num("wall_s", pass.wall_s)
                    .num("setup_s", pass.setup_s)
                    .num("flows", pass.flows)
                    .num("cells", pass.cells)
                    .num("peak_rss_mb", peak_rss_mb)
                    .num("units", pass.units as f64)
                    .num("traced_wall_s", pass.traced_wall_s)
                    .raw("check", pass.check)
                    .raw("layers", report::metrics(&pass.layers))
                    .raw("spans", pass.spans)
                    .finish()
            );
        }
        "sweep-reference" => sweep_dispatch_w2::print_reference(seed),
        "fidelity" => {
            if let Err(e) = decomp_k32::fidelity(seed) {
                eprintln!("ftperf: {e}");
                std::process::exit(1);
            }
            println!("fidelity ok");
        }
        other => fail(&format!("unknown command {other:?}")),
    }
}
