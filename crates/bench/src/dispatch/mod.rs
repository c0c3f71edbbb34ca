//! The distributed sweep plane: lease cells to `ftd` worker processes,
//! survive their loss, merge deterministically.
//!
//! [`dispatch_cells`] shards a [`CellSpec`] grid across local worker
//! processes speaking the [`wire`] protocol over stdin/stdout pipes.
//! The driver is a single-threaded lease state machine (one reader
//! thread per worker feeds it events):
//!
//! * **Lease** — each ready worker holds at most one outstanding cell;
//!   cells are leased in grid order from a requeue-aware queue.
//! * **Deadline** — a lease that outlives [`DispatchConfig::deadline`]
//!   is abandoned: the cell is requeued (with the shared
//!   [`control::retry`] backoff schedule), the worker earns a strike,
//!   and its lease clock restarts. A late result is still accepted if
//!   the cell is not done — request ids make stale responses
//!   unambiguous. A worker that sends no handshake within the same
//!   deadline is treated as dead.
//! * **Death** — EOF or a wire error on a worker's pipe requeues its
//!   in-flight cell. Decode errors are unrecoverable by construction
//!   (a corrupt length-prefixed stream cannot be resynced), so the
//!   reader simply stops and the worker is gone.
//! * **Hedge** — when workers sit idle with nothing leasable queued,
//!   the oldest in-flight cell past
//!   [`DispatchConfig::speculate_after`] is speculatively re-leased to
//!   an idle worker. First result wins; the loser is a counted
//!   duplicate. This bounds the latency cost of a stalled worker by
//!   the hedge threshold instead of the full deadline.
//! * **Quarantine** — [`DispatchConfig::max_strikes`] strikes (or a
//!   protocol-version mismatch) and the driver SIGKILLs the worker and
//!   never leases to it again.
//! * **Degradation** — a cell that exhausts its per-cell attempt
//!   budget is executed inline by the driver; if every worker is gone,
//!   the whole remainder runs in-process. Both are surfaced in the
//!   [`DispatchSummary`], never a panic.
//!
//! **Determinism.** Results are merged by cell index into a
//! grid-ordered vector, each cell recorded exactly once
//! (first-result-wins; duplicates are counted and dropped). Because
//! every cell is a pure function of `(scale, spec)` and the wire
//! round-trips `f64` bit-exactly, the merged vector is byte-identical
//! to the in-process sweep for **any** worker count, death schedule, or
//! completion order — the chaos harness ([`chaos`]) and the dispatch
//! proptests pin this.

pub mod chaos;
pub mod wire;

use crate::experiments::faultsweep::{self, CellOutput, CellSpec, FaultSweep};
use crate::scale::Scale;
use crate::sweep::CellObserver;
use chaos::{ChaosAction, ChaosPlan};
use control::retry::Backoff;
use obs::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

/// How the driver runs a grid.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Worker processes to spawn (>= 1).
    pub workers: usize,
    /// Path to the `ftd` worker binary; `None` means `ftd` next to the
    /// current executable. A binary that cannot be spawned degrades to
    /// in-process execution.
    pub worker_bin: Option<PathBuf>,
    /// Per-lease deadline; past it the cell is requeued and the worker
    /// earns a strike.
    pub deadline: Duration,
    /// Hedging threshold: when workers sit idle with nothing queued, an
    /// in-flight lease older than this is speculatively re-leased to an
    /// idle worker (first result wins, the loser is a counted
    /// duplicate). This bounds the latency cost of a stalled worker by
    /// `speculate_after` instead of the full `deadline`.
    pub speculate_after: Duration,
    /// Strikes (timeouts / failed cells) before a worker is
    /// quarantined.
    pub max_strikes: u32,
    /// The per-cell lease budget and requeue backoff, on the shared
    /// [`control::retry`] schedule: `max_attempts` is the lease cap
    /// (past it the driver runs the cell inline), and requeued cells
    /// wait `wait_before(attempt)` before re-leasing.
    pub retry: Backoff,
    /// Chaos-harness seed; `None` runs clean.
    pub chaos: Option<u64>,
}

impl DispatchConfig {
    /// Local pipes, 2-minute deadlines, 2 strikes, 4 lease attempts
    /// per cell with 25 ms base backoff capped at 1 s.
    pub fn local(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            worker_bin: None,
            deadline: Duration::from_secs(120),
            speculate_after: Duration::from_secs(5),
            max_strikes: 2,
            retry: Backoff::new(4, 25.0, 2.0).capped(1000.0),
            chaos: None,
        }
    }

    /// Same config with a chaos seed (no-op on `None`). Arming chaos
    /// also tightens the recovery clocks — 10 s deadlines, 1 s hedge
    /// threshold — so injected stalls cost about a second instead of a
    /// production deadline.
    pub fn with_chaos(mut self, seed: Option<u64>) -> Self {
        self.chaos = seed;
        if seed.is_some() {
            self.deadline = Duration::from_secs(10);
            self.speculate_after = Duration::from_secs(1);
        }
        self
    }
}

/// What happened on the plane: every counter the summary line, the
/// perfsnap dispatch block, and the audit assertions read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchSummary {
    /// Workers requested.
    pub workers: usize,
    /// Workers actually spawned (spawn failures are non-fatal).
    pub spawned: usize,
    /// Cells in the grid.
    pub cells: usize,
    /// Leases written (>= cells when anything was requeued).
    pub leases: u64,
    /// Speculative hedge leases issued against aged in-flight cells.
    pub speculations: u64,
    /// Cells that lost a lease and were requeued.
    pub requeues: u64,
    /// Leases abandoned at their deadline.
    pub timeouts: u64,
    /// Workers that died (EOF, kill, wire corruption).
    pub deaths: u64,
    /// Workers the driver quarantined (strikes or version skew).
    pub quarantines: u64,
    /// Duplicate/stale results dropped by the merge (first wins).
    pub duplicates: u64,
    /// Cells executed inline after exhausting their lease budget.
    pub degraded_cells: u64,
    /// Whether the driver fell back to in-process execution because
    /// every worker was gone.
    pub fallback_inprocess: bool,
    /// The chaos seed, if the harness was armed.
    pub chaos_seed: Option<u64>,
    /// Driver wall-clock (ms).
    pub wall_ms: f64,
}

impl std::fmt::Display for DispatchSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dispatch: {} cells on {}/{} workers, {} leases ({} hedged), \
             {} requeues ({} timeouts, {} deaths, {} quarantined), \
             {} duplicates dropped, {} degraded, fallback {}, {:.1} ms",
            self.cells,
            self.spawned,
            self.workers,
            self.leases,
            self.speculations,
            self.requeues,
            self.timeouts,
            self.deaths,
            self.quarantines,
            self.duplicates,
            self.degraded_cells,
            if self.fallback_inprocess { "yes" } else { "no" },
            self.wall_ms
        )?;
        if let Some(seed) = self.chaos_seed {
            write!(f, " [chaos seed {seed}]")?;
        }
        Ok(())
    }
}

/// The post-merge audit: every cell exactly once, nothing invented.
/// Violations are a driver bug, so they panic rather than degrade.
fn audit_merge(specs: &[CellSpec], results: &[Option<CellOutput>]) {
    assert_eq!(results.len(), specs.len(), "merge must cover the grid");
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_some(), "cell {i} missing from the merge");
    }
}

/// Events the per-worker reader threads feed the driver loop.
enum Event {
    Hello(usize, wire::Hello),
    Msg(usize, wire::Response),
    Down(usize, String),
}

/// A worker's place in the lease state machine. `Busy` is the plane's
/// only lease record: a response is matched against it, a death
/// requeues its cell, and hedging reads its `since`.
enum WorkerState {
    /// Spawned at `since`, handshake not yet seen; past
    /// [`DispatchConfig::deadline`] the worker counts as dead.
    Starting { since: Instant },
    /// Ready for a lease.
    Idle,
    /// One outstanding lease of `cell` under `req`, taken at `since`
    /// (reset when the lease times out). It expires at
    /// `since + deadline`.
    Busy {
        req: u64,
        cell: usize,
        since: Instant,
    },
    /// Dead or quarantined; never leased again.
    Gone,
}

struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    pid: u32,
    state: WorkerState,
    strikes: u32,
    /// Leases handed to this worker so far (the chaos-plan key).
    leases: u64,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    fn live(&self) -> bool {
        !matches!(self.state, WorkerState::Gone)
    }
}

/// Resolves the worker binary path per [`DispatchConfig::worker_bin`].
fn worker_binary(cfg: &DispatchConfig) -> PathBuf {
    if let Some(p) = &cfg.worker_bin {
        return p.clone();
    }
    std::env::current_exe().map_or_else(|_| PathBuf::from("ftd"), |p| p.with_file_name("ftd"))
}

/// SIGSTOPs `pid` via the external `kill` tool (this workspace forbids
/// `unsafe`, so no direct syscall); failures are ignored — a stall that
/// did not land just means less chaos.
fn sigstop(pid: u32) {
    let _ = Command::new("kill")
        .arg("-STOP")
        .arg(pid.to_string())
        .status();
}

fn spawn_worker(bin: &PathBuf, idx: usize, tx: &Sender<Event>) -> Option<Worker> {
    let mut child = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .ok()?;
    let stdin = child.stdin.take()?;
    let stdout = child.stdout.take()?;
    let pid = child.id();
    let tx = tx.clone();
    let reader = std::thread::spawn(move || {
        let mut r = BufReader::new(stdout);
        match wire::read_frame::<_, wire::Hello>(&mut r) {
            Ok(Some(h)) => {
                if tx.send(Event::Hello(idx, h)).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(Event::Down(idx, "eof before handshake".into()));
                return;
            }
            Err(e) => {
                let _ = tx.send(Event::Down(idx, format!("handshake: {e}")));
                return;
            }
        }
        loop {
            match wire::read_frame::<_, wire::Response>(&mut r) {
                Ok(Some(resp)) => {
                    if tx.send(Event::Msg(idx, resp)).is_err() {
                        return;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(Event::Down(idx, "eof".into()));
                    return;
                }
                Err(e) => {
                    let _ = tx.send(Event::Down(idx, e.to_string()));
                    return;
                }
            }
        }
    });
    Some(Worker {
        child,
        stdin: Some(stdin),
        pid,
        state: WorkerState::Starting {
            since: Instant::now(),
        },
        strikes: 0,
        leases: 0,
        reader: Some(reader),
    })
}

/// The plane's whole state, one record per fact: a worker's
/// [`WorkerState`] is its lease, and a cell is queued iff it is in
/// `queue`.
struct Plane<'a, S> {
    scale: Scale,
    specs: &'a [CellSpec],
    cfg: &'a DispatchConfig,
    sink: &'a mut S,
    observer: Option<CellObserver>,
    plan: Option<ChaosPlan>,
    workers: Vec<Worker>,
    queue: VecDeque<usize>,
    attempts: Vec<u32>,
    not_before: Vec<Instant>,
    results: Vec<Option<CellOutput>>,
    done: usize,
    next_req: u64,
    summary: DispatchSummary,
}

impl<S: TraceSink> Plane<'_, S> {
    /// Builds and emits `event` only if the sink records anything.
    fn trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.sink.enabled() {
            self.sink.emit(event());
        }
    }

    /// Drives the lease state machine until every cell has a result.
    fn run(&mut self, rx: &Receiver<Event>) {
        while self.done < self.specs.len() {
            // Graceful degradation: every worker gone → finish in-process.
            if self.workers.iter().all(|w| !w.live()) {
                self.summary.fallback_inprocess = true;
                for cell in 0..self.specs.len() {
                    if self.results[cell].is_none() {
                        self.run_inline(cell);
                    }
                }
                break;
            }
            self.lease_idle();
            match rx.recv_timeout(self.wait()) {
                Ok(Event::Hello(w, hello)) => {
                    if !self.workers[w].live() {
                        continue;
                    }
                    match wire::check_hello(&hello) {
                        Ok(()) => {
                            self.workers[w].state = WorkerState::Idle;
                            self.trace(|| TraceEvent::WorkerUp {
                                worker: w,
                                pid: hello.pid,
                            });
                        }
                        Err(e) => self.quarantine(w, &e.to_string()),
                    }
                }
                Ok(Event::Msg(w, wire::Response::Cell(res))) => {
                    // Merge only the answer to `w`'s current lease, and
                    // only if the cell is not done yet.
                    let answers = match self.workers[w].state {
                        WorkerState::Busy { req, cell, .. } if req == res.req => {
                            self.workers[w].state = WorkerState::Idle;
                            cell == res.cell && self.results[cell].is_none()
                        }
                        _ => false,
                    };
                    if !answers {
                        self.summary.duplicates += 1;
                        continue;
                    }
                    if let Some(obs) = &self.observer {
                        obs(res.cell, res.wall_ms);
                    }
                    self.trace(|| TraceEvent::LeaseDone {
                        worker: w,
                        cell: res.cell,
                        req: res.req,
                        wall_ms: res.wall_ms,
                    });
                    self.results[res.cell] = Some(res.output);
                    self.done += 1;
                }
                Ok(Event::Msg(w, wire::Response::Failed { req, cell, message })) => {
                    if matches!(self.workers[w].state, WorkerState::Busy { req: r, .. } if r == req)
                    {
                        self.workers[w].state = WorkerState::Idle;
                    }
                    self.requeue(cell, &format!("worker {w} failed: {message}"));
                    self.strike(w, "failed cell");
                }
                Ok(Event::Down(w, reason)) => self.down(w, reason),
                // The driver holds a sender, so the channel never
                // disconnects: only timeouts get here.
                Err(_) => self.expire(),
            }
        }
    }

    /// Leases ready cells to idle workers, highest index first,
    /// driver-executing any cell that has exhausted its lease budget.
    /// With nothing leasable queued, an aged in-flight cell is hedged
    /// instead.
    fn lease_idle(&mut self) {
        let now = Instant::now();
        let mut idle: Vec<usize> = (0..self.workers.len())
            .filter(|&w| matches!(self.workers[w].state, WorkerState::Idle))
            .collect();
        while !idle.is_empty() {
            let pos = self
                .queue
                .iter()
                .position(|&c| self.results[c].is_none() && self.not_before[c] <= now);
            let cell = match pos {
                Some(pos) => {
                    let cell = self
                        .queue
                        .remove(pos)
                        .expect("position came from the queue");
                    if self.attempts[cell] >= self.cfg.retry.max_attempts {
                        self.summary.degraded_cells += 1;
                        self.run_inline(cell);
                        continue;
                    }
                    cell
                }
                None => {
                    let Some(cell) = self.hedge_candidate(now) else {
                        break;
                    };
                    self.summary.speculations += 1;
                    cell
                }
            };
            let w = idle.pop().expect("loop guard");
            self.lease(w, cell, now);
        }
    }

    /// Writes one lease of `cell` to worker `w` and inflicts the chaos
    /// plan's action for it, if any.
    fn lease(&mut self, w: usize, cell: usize, now: Instant) {
        let req = self.next_req;
        self.next_req += 1;
        let worker = &mut self.workers[w];
        let action = self.plan.as_ref().and_then(|p| p.action(w, worker.leases));
        let chaos = match action {
            Some(ChaosAction::Garbage { seed }) => {
                Some(wire::ChaosDirective::Garbage { seed, len: 256 })
            }
            _ => None,
        };
        let params = wire::WorkerParams {
            req,
            cell,
            scale: self.scale,
            spec: self.specs[cell].clone(),
            chaos,
        };
        let wrote = worker
            .stdin
            .as_mut()
            .map(|s| wire::write_frame(s, &wire::Request::Cell(params)));
        if !matches!(wrote, Some(Ok(()))) {
            // The pipe is broken: the reader will report the death;
            // just requeue the cell (front: it lost no attempt) and
            // stop leasing to this worker.
            self.queue.push_front(cell);
            return;
        }
        self.attempts[cell] += 1;
        worker.leases += 1;
        worker.state = WorkerState::Busy {
            req,
            cell,
            since: now,
        };
        self.summary.leases += 1;
        self.trace(|| TraceEvent::Lease {
            worker: w,
            cell,
            req,
        });
        match action {
            Some(ChaosAction::Kill) => {
                let _ = self.workers[w].child.kill();
            }
            Some(ChaosAction::Stall) => sigstop(self.workers[w].pid),
            _ => {}
        }
    }

    /// How long to wait for the next event: until the earliest
    /// handshake or lease deadline, backoff, or hedge threshold.
    fn wait(&self) -> Duration {
        let now = Instant::now();
        let mut wake: Option<Instant> = None;
        let mut bump = |t: Instant| wake = Some(wake.map_or(t, |u| u.min(t)));
        for w in &self.workers {
            if let WorkerState::Starting { since } | WorkerState::Busy { since, .. } = w.state {
                bump(since + self.cfg.deadline);
            }
        }
        for &c in &self.queue {
            if self.results[c].is_none() {
                bump(self.not_before[c]);
            }
        }
        if self
            .workers
            .iter()
            .any(|w| matches!(w.state, WorkerState::Idle))
        {
            for since in self.hedgeable().into_values() {
                bump(since + self.cfg.speculate_after);
            }
        }
        wake.map_or(Duration::from_millis(50), |t| {
            t.saturating_duration_since(now)
                .max(Duration::from_millis(1))
        })
    }

    /// Expires overdue handshakes (a death) and leases (a requeue and
    /// a strike).
    fn expire(&mut self) {
        let now = Instant::now();
        for w in 0..self.workers.len() {
            match self.workers[w].state {
                WorkerState::Starting { since } if since + self.cfg.deadline <= now => {
                    self.down(w, "no hello before deadline".into());
                }
                WorkerState::Busy { req, cell, since } if since + self.cfg.deadline <= now => {
                    self.summary.timeouts += 1;
                    // Abandon the lease but keep listening: a late
                    // result for `req` is still usable. Resetting
                    // `since` pushes the deadline so one stall doesn't
                    // fire every loop.
                    self.workers[w].state = WorkerState::Busy {
                        req,
                        cell,
                        since: now,
                    };
                    self.requeue(cell, &format!("lease timed out on worker {w}"));
                    self.strike(w, "lease timeout");
                }
                _ => {}
            }
        }
    }

    /// The youngest outstanding lease time per hedgeable cell: in
    /// flight, not done, not queued, lease budget remaining. Keyed on
    /// the youngest lease so a just-hedged cell is not hedged again
    /// until the hedge itself ages past the threshold.
    fn hedgeable(&self) -> HashMap<usize, Instant> {
        let mut youngest: HashMap<usize, Instant> = HashMap::new();
        for w in &self.workers {
            if let WorkerState::Busy { cell, since, .. } = w.state {
                youngest
                    .entry(cell)
                    .and_modify(|t| *t = (*t).max(since))
                    .or_insert(since);
            }
        }
        youngest.retain(|&cell, _| {
            self.results[cell].is_none()
                && !self.queue.contains(&cell)
                && self.attempts[cell] < self.cfg.retry.max_attempts
        });
        youngest
    }

    /// Picks the cell for a speculative hedge lease: hedgeable, with
    /// every outstanding lease at least `speculate_after` old — oldest
    /// such cell first.
    fn hedge_candidate(&self, now: Instant) -> Option<usize> {
        self.hedgeable()
            .into_iter()
            .filter(|&(_, since)| now.saturating_duration_since(since) >= self.cfg.speculate_after)
            .min_by_key(|&(cell, since)| (since, cell))
            .map(|(cell, _)| cell)
    }

    /// Executes `cell` in the driver process.
    fn run_inline(&mut self, cell: usize) {
        let t = Instant::now();
        let out = faultsweep::execute_cell(self.scale, &self.specs[cell]);
        if let Some(obs) = &self.observer {
            obs(cell, t.elapsed().as_secs_f64() * 1e3);
        }
        self.results[cell] = Some(out);
        self.done += 1;
    }

    /// Puts a cell back on the queue with its backoff, unless it is
    /// already done or already queued.
    fn requeue(&mut self, cell: usize, reason: &str) {
        if cell >= self.results.len() || self.results[cell].is_some() || self.queue.contains(&cell)
        {
            return;
        }
        let wait = self
            .cfg
            .retry
            .wait_before(self.attempts[cell].saturating_add(1));
        self.not_before[cell] = Instant::now() + wait;
        self.queue.push_back(cell);
        self.summary.requeues += 1;
        self.trace(|| TraceEvent::Requeue {
            cell,
            reason: reason.to_string(),
            backoff_ms: wait.as_secs_f64() * 1e3,
        });
    }

    /// Worker `w` died: its lease (if any) is requeued and it is never
    /// leased again.
    fn down(&mut self, w: usize, reason: String) {
        if !self.workers[w].live() {
            return;
        }
        self.summary.deaths += 1;
        if let WorkerState::Busy { cell, .. } = self.workers[w].state {
            self.requeue(cell, &format!("worker {w} down: {reason}"));
        }
        self.workers[w].state = WorkerState::Gone;
        let _ = self.workers[w].child.kill();
        self.trace(|| TraceEvent::WorkerDown { worker: w, reason });
    }

    /// Adds a strike; at the cap the worker is quarantined.
    fn strike(&mut self, w: usize, why: &str) {
        let worker = &mut self.workers[w];
        if !worker.live() {
            return;
        }
        worker.strikes += 1;
        if worker.strikes >= self.cfg.max_strikes {
            let reason = format!("{} strikes (last: {why})", worker.strikes);
            self.quarantine(w, &reason);
        }
    }

    /// Kills and permanently retires a worker. Its lease (if any) was
    /// already requeued by the caller; a buffered late response now
    /// finds the worker `Gone` and is counted as stale.
    fn quarantine(&mut self, w: usize, reason: &str) {
        let worker = &mut self.workers[w];
        if !worker.live() {
            return;
        }
        worker.state = WorkerState::Gone;
        let _ = worker.child.kill();
        self.summary.quarantines += 1;
        self.trace(|| TraceEvent::WorkerDown {
            worker: w,
            reason: format!("quarantined: {reason}"),
        });
    }
}

/// Runs `specs` on the distributed plane and returns the grid-ordered
/// outputs plus the run's [`DispatchSummary`]. The output vector is
/// byte-identical (after serialization) to
/// `sweep(specs, |_, s| execute_cell(scale, s))` no matter how many
/// workers survive. `sink` receives the dispatch timeline
/// (`WorkerUp`/`WorkerDown`/`Lease`/`LeaseDone`/`Requeue`/
/// `DispatchEnd`); merged cells are also reported to the process-wide
/// sweep observer so `--metrics` recordings and perfsnap cell counts
/// keep working unchanged.
pub fn dispatch_cells<S: TraceSink>(
    scale: Scale,
    specs: &[CellSpec],
    cfg: &DispatchConfig,
    sink: &mut S,
) -> (Vec<CellOutput>, DispatchSummary) {
    let t0 = Instant::now();
    let mut summary = DispatchSummary {
        workers: cfg.workers,
        spawned: 0,
        cells: specs.len(),
        leases: 0,
        speculations: 0,
        requeues: 0,
        timeouts: 0,
        deaths: 0,
        quarantines: 0,
        duplicates: 0,
        degraded_cells: 0,
        fallback_inprocess: false,
        chaos_seed: cfg.chaos,
        wall_ms: 0.0,
    };
    if specs.is_empty() {
        summary.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        return (Vec::new(), summary);
    }

    let (tx, rx): (Sender<Event>, Receiver<Event>) = mpsc::channel();
    let bin = worker_binary(cfg);
    let workers: Vec<Worker> = (0..cfg.workers)
        .filter_map(|i| spawn_worker(&bin, i, &tx))
        .collect();
    summary.spawned = workers.len();
    let mut plane = Plane {
        scale,
        specs,
        cfg,
        sink,
        observer: crate::sweep::current_observer(),
        plan: cfg.chaos.map(|seed| ChaosPlan::new(seed, cfg.workers)),
        workers,
        queue: (0..specs.len()).collect(),
        attempts: vec![0; specs.len()],
        not_before: vec![t0; specs.len()],
        results: vec![None; specs.len()],
        done: 0,
        next_req: 0,
        summary,
    };
    plane.run(&rx);

    // Wind down: polite shutdown frame, then SIGKILL (also reaps
    // SIGSTOPped stragglers), then reap children and reader threads.
    for w in &mut plane.workers {
        if let Some(stdin) = w.stdin.as_mut() {
            let _ = wire::write_frame(stdin, &wire::Request::Shutdown);
        }
        w.stdin = None;
        let _ = w.child.kill();
        let _ = w.child.wait();
    }
    drop(rx);
    for w in &mut plane.workers {
        if let Some(h) = w.reader.take() {
            let _ = h.join();
        }
    }

    audit_merge(specs, &plane.results);
    let mut summary = plane.summary;
    summary.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if plane.sink.enabled() {
        plane.sink.emit(TraceEvent::DispatchEnd {
            cells: summary.cells,
            leases: summary.leases,
            speculations: summary.speculations,
            requeues: summary.requeues,
            timeouts: summary.timeouts,
            deaths: summary.deaths,
            quarantines: summary.quarantines,
            duplicates: summary.duplicates,
            degraded_cells: summary.degraded_cells,
            fallback: summary.fallback_inprocess,
            wall_ms: summary.wall_ms,
        });
    }
    let merged = plane
        .results
        .into_iter()
        .map(|r| r.expect("audited: every cell exactly once"))
        .collect();
    (merged, summary)
}

/// Runs the full faultsweep experiment through the distributed plane:
/// [`faultsweep::run_with`] with [`dispatch_cells`] as the
/// executor. The returned report is byte-identical (after
/// serialization) to [`faultsweep::run`].
pub fn run_faultsweep<S: TraceSink>(
    scale: Scale,
    cfg: &DispatchConfig,
    sink: &mut S,
) -> (FaultSweep, DispatchSummary) {
    let mut summary = None;
    let out = faultsweep::run_with(scale, |specs| {
        let (outputs, s) = dispatch_cells(scale, specs, cfg, sink);
        summary = Some(s);
        outputs
    });
    (
        out,
        summary.expect("run_with calls the executor exactly once"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopSink;

    #[test]
    fn config_clamps_workers_to_one() {
        assert_eq!(DispatchConfig::local(0).workers, 1);
        assert_eq!(DispatchConfig::local(4).workers, 4);
    }

    #[test]
    fn summary_line_is_informative() {
        let s = DispatchSummary {
            workers: 4,
            spawned: 4,
            cells: 10,
            leases: 12,
            speculations: 1,
            requeues: 2,
            timeouts: 1,
            deaths: 1,
            quarantines: 1,
            duplicates: 0,
            degraded_cells: 0,
            fallback_inprocess: false,
            chaos_seed: Some(7),
            wall_ms: 1234.5,
        };
        let line = s.to_string();
        for needle in [
            "10 cells",
            "4/4 workers",
            "12 leases",
            "2 requeues",
            "1 quarantined",
            "chaos seed 7",
        ] {
            assert!(line.contains(needle), "{line:?} must contain {needle:?}");
        }
    }

    #[test]
    fn empty_grid_short_circuits() {
        let cfg = DispatchConfig {
            // A binary that will never be spawned (empty grid returns
            // before spawning).
            worker_bin: Some(PathBuf::from("/nonexistent/ftd")),
            ..DispatchConfig::local(2)
        };
        let (out, summary) = dispatch_cells(Scale::default(), &[], &cfg, &mut NoopSink);
        assert!(out.is_empty());
        assert_eq!(summary.cells, 0);
        assert_eq!(summary.leases, 0);
        assert!(!summary.fallback_inprocess);
    }
}
