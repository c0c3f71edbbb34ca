//! `sweep_dispatch_w2`: the default-scale faultsweep grid sent through
//! `dispatch::run_faultsweep` to two local `ftd` worker processes.
//!
//! The pass prints the merged sweep exactly as the `faultsweep` binary
//! does, so `run.py` can compare it with the committed golden.

use crate::report::Obj;
use crate::trace::{percentile, DispatchSink, Stamped, Tracer};
use crate::Pass;
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use ft_bench::dispatch::{self, DispatchConfig};
use ft_bench::experiments::{common, faultsweep};
use ft_bench::Scale;
use std::collections::HashMap;
use std::path::PathBuf;

const WORKERS: usize = 2;

/// The `ftd` binary built next to this one.
fn worker_bin() -> PathBuf {
    std::env::current_exe()
        .expect("own executable path")
        .with_file_name("ftd")
}

fn scale(seed: u64) -> Scale {
    Scale {
        seed,
        ..Scale::default()
    }
}

/// The in-process reference sweep, printed as `faultsweep` prints it.
pub fn print_reference(seed: u64) {
    faultsweep::print(&faultsweep::run(scale(seed)));
}

/// Every cell rebuilds and re-profiles its network inside a worker,
/// out of sight. Time one copy of that per-cell set-up in-process so
/// the set-up layers have numbers on this workload too.
fn cell_setup_attribution(seed: u64, tr: &mut Tracer) {
    tr.attribution("sweep.cell_setup", |tr| {
        let clos = common::mini_topo(1);
        let (m, n) = tr.span("core.profile", |_| {
            flat_tree::profile::best_mn(&clos).expect("topo-1 is profilable")
        });
        let candidates = tr.span("core.profile_candidates", |_| {
            flat_tree::profile::profile_mn(&clos).len()
        });
        tr.count("core.profile_candidates", candidates as f64);
        let ft = tr.span("topology.build", |_| {
            FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("profiled params are valid")
        });
        let inst = tr.span("core.instantiate", |_| {
            ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global))
        });
        tr.span("traffic.generate", |_| {
            let pairs = traffic::patterns::permutation(inst.net.num_servers(), seed);
            common::flow_specs(&inst.net, &pairs, 2.5e8).len()
        });
    });
}

pub fn run(seed: u64, trace: bool, perturb: bool) -> Pass {
    let mut tr = Tracer::new(trace);
    if trace {
        cell_setup_attribution(seed, &mut tr);
    }
    let cfg = DispatchConfig {
        worker_bin: Some(worker_bin()),
        ..DispatchConfig::local(WORKERS)
    };
    let mut sink = DispatchSink::new(trace);
    let call_start = tr.now();
    let (mut sweep, summary) = tr.span("dispatch.run_faultsweep", |tr| {
        let out = dispatch::run_faultsweep(scale(seed), &cfg, &mut sink);
        if tr.on() {
            phase_spans(tr, &sink, call_start);
        }
        out
    });
    let wall_s = tr.now();
    let setup_s = sink.last_worker_up().map_or(f64::NAN, |t| tr.at(t));

    if perturb {
        sweep.degradation[0].mean_gbps += 0.01;
    }
    faultsweep::print(&sweep);
    let violations = faultsweep::total_violations(&sweep);
    // Every cell simulates one permutation over all of the network's
    // servers (256 on mini topo-1).
    let servers = common::mini_topo(1).total_servers();
    let check = Obj::default()
        .num("cells", summary.cells as f64)
        .num("violations", violations as f64)
        .num("fallback", f64::from(u8::from(summary.fallback_inprocess)))
        .finish();
    let mut pass = Pass::new(
        wall_s,
        setup_s,
        (summary.cells * servers) as f64,
        summary.cells as f64,
        summary.cells,
        check,
    );
    if trace {
        let l = &mut pass.layers;
        crate::setup_layers(l, &tr);
        let up = sink.last_worker_up().map_or(f64::NAN, |t| tr.at(t));
        l.insert("dispatch.spawn_s", up - call_start);
        lease_layers(l, &sink, &tr);
        l.insert("dispatch.leases", summary.leases as f64);
        l.insert("dispatch.requeues", summary.requeues as f64);
        l.insert("dispatch.speculations", summary.speculations as f64);
        l.insert("dispatch.duplicates", summary.duplicates as f64);
        l.insert(
            "dispatch.fallback",
            f64::from(u8::from(summary.fallback_inprocess)),
        );
        pass.finish_trace(&tr);
    }
    pass
}

/// Splits the dispatch call into phases from the sink's timestamps:
/// spawn + handshake, leases, merge, and the driver-side rows after it.
fn phase_spans(tr: &mut Tracer, sink: &DispatchSink, call_start: f64) {
    let (Some(up), Some(done), Some(end)) = (
        sink.last_worker_up().map(|t| tr.at(t)),
        last_done(sink).map(|t| tr.at(t)),
        dispatch_end(sink).map(|(t, _)| tr.at(t)),
    ) else {
        return;
    };
    let now = tr.now();
    tr.add("dispatch.spawn", call_start, up);
    tr.add("dispatch.lease", up, done);
    tr.add("dispatch.merge", done, end);
    tr.add("faultsweep.finish", end, now);
}

fn last_done(sink: &DispatchSink) -> Option<std::time::Instant> {
    sink.events
        .iter()
        .filter_map(|e| match e {
            Stamped::LeaseDone { at, .. } => Some(*at),
            _ => None,
        })
        .max()
}

fn dispatch_end(sink: &DispatchSink) -> Option<(std::time::Instant, f64)> {
    sink.events.iter().find_map(|e| match e {
        Stamped::DispatchEnd { at, wall_ms } => Some((*at, *wall_ms)),
        _ => None,
    })
}

fn lease_layers(
    l: &mut std::collections::BTreeMap<&'static str, f64>,
    sink: &DispatchSink,
    tr: &Tracer,
) {
    let mut leased: HashMap<u64, std::time::Instant> = HashMap::new();
    let mut lease_ms = Vec::new();
    let mut cell_ms = 0.0;
    let mut last_lease = None;
    let mut done_times = Vec::new();
    for e in &sink.events {
        match e {
            Stamped::Lease { at, req } => {
                leased.insert(*req, *at);
                last_lease = Some(*at);
            }
            Stamped::LeaseDone { at, req, wall_ms } => {
                if let Some(t) = leased.get(req) {
                    lease_ms.push(at.duration_since(*t).as_secs_f64() * 1e3);
                }
                cell_ms += wall_ms;
                done_times.push(*at);
            }
            _ => {}
        }
    }
    l.insert("dispatch.lease_ms_p50", percentile(&lease_ms, 50.0));
    l.insert("dispatch.lease_ms_max", percentile(&lease_ms, 100.0));
    // The straggler: from the first worker left idle (the first result
    // after the last lease went out) to the last result.
    let tail = last_lease.and_then(|ll| {
        let first_idle = done_times.iter().filter(|&&t| t >= ll).min()?;
        let last = done_times.iter().max()?;
        Some(last.duration_since(*first_idle).as_secs_f64())
    });
    l.insert("dispatch.tail_idle_s", tail.unwrap_or(0.0));
    let merge = match (last_done(sink), dispatch_end(sink)) {
        (Some(done), Some((end, _))) => tr.at(end) - tr.at(done),
        _ => f64::NAN,
    };
    l.insert("dispatch.merge_s", merge);
    let overhead = dispatch_end(sink).map_or(f64::NAN, |(_, wall_ms)| {
        1.0 - cell_ms / (WORKERS as f64 * wall_ms)
    });
    l.insert("dispatch.overhead_frac", overhead);
}
