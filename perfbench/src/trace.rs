//! The benchmark's own tracing: in-memory spans around calls into each
//! layer, a timing decorator for `flowsim::PathProvider`, and the trace
//! sinks handed to the engine and the dispatch plane. Everything here is
//! measured from outside the program, through public APIs only.

use flowsim::{FailedLinks, FlowSpec, PathProvider, RoutedConn, TraceEvent, TraceSink};
use netgraph::{Graph, PathArena};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `decomp.populate`.
    pub name: &'static str,
    /// Seconds since the pass started.
    pub start: f64,
    /// Seconds since the pass started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// `VmRSS` (MB) sampled when the call began and when it returned.
    pub rss_start_mb: f64,
    pub rss_end_mb: f64,
    /// A call made only to split time by layer: the untraced pass does
    /// not make it, so it is left out of the traced wall time.
    pub attribution: bool,
    /// A folded span: the summed time of many small calls (every
    /// provider route inside its parent), placed at the parent's start.
    pub folded: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder for one pass. Disabled, it only runs the closures.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Work counts recorded at the same boundaries as the spans.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Adds `v` to the work count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Seconds since the pass started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Seconds from the pass start to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Times `f` as a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.record(name, false, f)
    }

    /// [`Tracer::span`] for a call made only in the traced pass.
    pub fn attribution<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        attribution: bool,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let rss_start_mb = rss_mb();
        let idx = self.spans.len();
        let inherited = self.stack.iter().any(|&i| self.spans[i].attribution);
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            rss_start_mb,
            rss_end_mb: f64::NAN,
            attribution: attribution || inherited,
            folded: false,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end = end;
        span.rss_end_mb = rss_mb();
        out
    }

    /// Adds a folded child of the open span holding `secs` of summed
    /// time from many small calls (see [`Span::folded`]).
    pub fn fold(&mut self, name: &'static str, secs: f64) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let p = &self.spans[parent];
        let (start, attribution) = (p.start, p.attribution);
        self.spans.push(Span {
            name,
            start,
            end: start + secs,
            parent: Some(parent),
            rss_start_mb: f64::NAN,
            rss_end_mb: f64::NAN,
            attribution,
            folded: true,
        });
    }

    /// Adds a span reconstructed from event timestamps, nested under the
    /// open span.
    pub fn add(&mut self, name: &'static str, start: f64, end: f64) {
        let parent = self.stack.last().copied();
        let attribution = parent.is_some_and(|p| self.spans[p].attribution);
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            rss_start_mb: f64::NAN,
            rss_end_mb: f64::NAN,
            attribution,
            folded: false,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed self time (duration minus direct children) of every span
    /// named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_secs(i))
            .sum()
    }

    fn self_secs(&self, i: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(Span::secs)
            .sum();
        self.spans[i].secs() - children
    }

    /// Summed `VmRSS` growth (MB) across every span named `name`.
    pub fn rss_growth(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.rss_end_mb - s.rss_start_mb)
            .sum()
    }

    /// Time spent in top-level attribution spans.
    pub fn attribution_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.attribution)
            .map(Span::secs)
            .sum()
    }

    /// Wall time of the pass not covered by any top-level span.
    pub fn uncovered(&self, wall: f64) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum();
        wall - covered
    }
}

/// A line of `/proc/self/status` in MB (`VmRSS`, `VmHWM`); NaN where the
/// file or the field is missing.
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Timing decorator around any [`PathProvider`]: counts and times every
/// `route` call, separating calls made while a link is down.
pub struct TimedProvider<P> {
    inner: P,
    pub tally: ProviderTally,
}

impl<P> TimedProvider<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            tally: ProviderTally::default(),
        }
    }
}

impl<P: PathProvider> PathProvider for TimedProvider<P> {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        let t = Instant::now();
        let out = self.inner.route(g, arena, failed, spec);
        let dt = t.elapsed().as_secs_f64();
        let tally = &mut self.tally;
        tally.secs += dt;
        tally.call_us.push(dt * 1e6);
        if out.is_none() {
            tally.unroutable += 1;
        }
        if failed.any() {
            tally.failure_calls += 1;
            tally.failure_secs += dt;
        }
        out
    }
}

/// Provider call tallies: one decorator's, or a pass's summed.
#[derive(Debug, Default)]
pub struct ProviderTally {
    /// Every call's duration in microseconds.
    pub call_us: Vec<f64>,
    pub secs: f64,
    pub unroutable: u64,
    pub failure_calls: u64,
    pub failure_secs: f64,
}

impl ProviderTally {
    pub fn absorb(&mut self, other: ProviderTally) {
        self.call_us.extend(other.call_us);
        self.secs += other.secs;
        self.unroutable += other.unroutable;
        self.failure_calls += other.failure_calls;
        self.failure_secs += other.failure_secs;
    }
}

/// The engine sink of a traced pass: counts lifecycle events and times
/// the gaps between allocation epochs.
#[derive(Debug, Default)]
pub struct EngineSink {
    pub events: u64,
    pub reroutes: u64,
    pub parks: u64,
    pub revives: u64,
    last_alloc: Option<Instant>,
    /// Host microseconds between consecutive `Alloc` events.
    pub epoch_gap_us: Vec<f64>,
}

impl TraceSink for EngineSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.events += 1;
        match ev {
            TraceEvent::FlowReroute { .. } => self.reroutes += 1,
            TraceEvent::FlowPark { .. } => self.parks += 1,
            TraceEvent::FlowRevive { .. } => self.revives += 1,
            TraceEvent::Alloc { .. } => {
                let now = Instant::now();
                if let Some(prev) = self.last_alloc {
                    self.epoch_gap_us
                        .push(now.duration_since(prev).as_secs_f64() * 1e6);
                }
                self.last_alloc = Some(now);
            }
            _ => {}
        }
    }
}

/// A dispatch-plane event with the host time it reached the sink.
#[derive(Debug, Clone)]
pub enum Stamped {
    WorkerUp(Instant),
    Lease { at: Instant, req: u64 },
    LeaseDone { at: Instant, req: u64, wall_ms: f64 },
    DispatchEnd { at: Instant, wall_ms: f64 },
}

/// The dispatch sink. Untraced passes keep only `WorkerUp` times (the
/// end of set-up); traced passes keep the whole lease timeline.
#[derive(Debug)]
pub struct DispatchSink {
    full: bool,
    pub events: Vec<Stamped>,
}

impl DispatchSink {
    pub fn new(full: bool) -> Self {
        Self {
            full,
            events: Vec::new(),
        }
    }

    pub fn last_worker_up(&self) -> Option<Instant> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Stamped::WorkerUp(t) => Some(*t),
                _ => None,
            })
            .max()
    }
}

impl TraceSink for DispatchSink {
    fn emit(&mut self, ev: TraceEvent) {
        let at = Instant::now();
        let stamped = match ev {
            TraceEvent::WorkerUp { .. } => Stamped::WorkerUp(at),
            _ if !self.full => return,
            TraceEvent::Lease { req, .. } => Stamped::Lease { at, req },
            TraceEvent::LeaseDone { req, wall_ms, .. } => Stamped::LeaseDone { at, req, wall_ms },
            TraceEvent::DispatchEnd { wall_ms, .. } => Stamped::DispatchEnd { at, wall_ms },
            _ => return,
        };
        self.events.push(stamped);
    }
}
