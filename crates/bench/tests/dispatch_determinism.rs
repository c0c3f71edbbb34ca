//! The dispatch plane's headline guarantee, pinned end to end: the
//! distributed sweep is **byte-identical** (after serialization) to the
//! in-process sweep for any worker count, any chaos schedule, and any
//! failure mode — including every worker dying.
//!
//! These tests exercise the real `ftd` binary (via
//! `env!("CARGO_BIN_EXE_ftd")`) over real pipes; nothing is mocked.

use ft_bench::dispatch::wire::{self, Hello, Request, Response, WorkerParams, PROTO_VERSION};
use ft_bench::dispatch::{dispatch_cells, run_faultsweep, DispatchConfig};
use ft_bench::experiments::faultsweep::{self, CellOutput};
use ft_bench::Scale;
use obs::NoopSink;
use proptest::prelude::*;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

fn smoke() -> Scale {
    Scale {
        smoke: true,
        ..Scale::default()
    }
}

fn ftd_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ftd"))
}

/// A test config with clocks short enough that injected stalls cost
/// hundreds of milliseconds, not production deadlines.
fn cfg(workers: usize) -> DispatchConfig {
    DispatchConfig {
        worker_bin: Some(ftd_bin()),
        deadline: Duration::from_secs(2),
        speculate_after: Duration::from_millis(200),
        ..DispatchConfig::local(workers)
    }
}

/// The in-process smoke report, serialized — computed once.
fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| serde_json::to_string(&faultsweep::run(smoke())).expect("serializable"))
}

fn serialized(out: &[CellOutput]) -> String {
    serde_json::to_string(&out.to_vec()).expect("serializable")
}

#[test]
fn distributed_matches_inprocess_for_1_2_4_workers() {
    for workers in [1, 2, 4] {
        let (out, summary) = run_faultsweep(smoke(), &cfg(workers), &mut NoopSink);
        let got = serde_json::to_string(&out).expect("serializable");
        assert_eq!(
            got,
            baseline(),
            "distributed ({workers} workers) must be byte-identical to in-process"
        );
        assert!(!summary.fallback_inprocess, "clean run must not fall back");
        assert_eq!(summary.spawned, workers);
        assert!(
            summary.leases >= summary.cells as u64,
            "every cell needs at least one lease"
        );
    }
}

#[test]
fn all_workers_dead_degrades_to_inprocess() {
    // `/bin/false` spawns fine and exits immediately: every worker is
    // lost before its handshake, and the driver must finish the grid
    // itself rather than panic or hang.
    let cfg = DispatchConfig {
        worker_bin: Some(PathBuf::from("/bin/false")),
        ..cfg(3)
    };
    let (out, summary) = run_faultsweep(smoke(), &cfg, &mut NoopSink);
    assert!(
        summary.fallback_inprocess,
        "all-dead must surface as fallback"
    );
    assert_eq!(summary.deaths, 3);
    assert_eq!(
        serde_json::to_string(&out).expect("serializable"),
        baseline(),
        "the degraded run must still be byte-identical"
    );
}

#[test]
fn silent_workers_die_at_the_handshake_deadline() {
    // `/bin/cat` keeps its stdout open and never writes a `Hello`: each
    // worker must be declared dead once the deadline passes, and the
    // grid must finish in-process. The run sits on its own thread so a
    // driver that waits forever fails the test instead of hanging it.
    let cfg = DispatchConfig {
        worker_bin: Some(PathBuf::from("/bin/cat")),
        deadline: Duration::from_secs(2),
        ..cfg(2)
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_faultsweep(smoke(), &cfg, &mut NoopSink));
    });
    let (out, summary) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a worker without a handshake must not hang the driver");
    assert!(summary.fallback_inprocess, "{summary}");
    assert_eq!(summary.deaths, summary.workers as u64, "{summary}");
    assert_eq!(
        serde_json::to_string(&out).expect("serializable"),
        baseline()
    );
}

#[test]
fn unspawnable_worker_binary_degrades_to_inprocess() {
    let cfg = DispatchConfig {
        worker_bin: Some(PathBuf::from("/nonexistent/ftd-not-here")),
        ..cfg(2)
    };
    let (out, summary) = run_faultsweep(smoke(), &cfg, &mut NoopSink);
    assert_eq!(summary.spawned, 0);
    assert!(summary.fallback_inprocess);
    assert_eq!(
        serde_json::to_string(&out).expect("serializable"),
        baseline()
    );
}

/// Spawns `ftd` on piped stdin/stdout (stderr captured) and reads its
/// `Hello` frame.
fn spawn_ftd() -> (Child, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(ftd_bin())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ftd");
    let mut r = BufReader::new(child.stdout.take().expect("piped stdout"));
    let hello: Option<Hello> = wire::read_frame(&mut r).expect("read hello");
    assert_eq!(hello.expect("hello frame before eof").proto, PROTO_VERSION);
    (child, r)
}

/// Waits for `child` and returns its exit code and stderr.
fn finish(child: Child) -> (Option<i32>, String) {
    let out = child.wait_with_output().expect("wait for ftd");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The worker's own transport, frame by frame: handshake, one cell,
/// clean shutdown — and the answer is bit-identical to computing the
/// cell locally.
#[test]
fn ftd_serves_the_wire_protocol_over_pipes() {
    let (mut child, mut r) = spawn_ftd();
    let mut w = BufWriter::new(child.stdin.take().expect("piped stdin"));

    let scale = smoke();
    let spec = faultsweep::cell_grid(scale)
        .into_iter()
        .next()
        .expect("smoke grid is non-empty");
    let params = WorkerParams {
        req: 42,
        cell: 0,
        scale,
        spec: spec.clone(),
        chaos: None,
    };
    wire::write_frame(&mut w, &Request::Cell(params)).expect("send cell");
    let resp: Option<Response> = wire::read_frame(&mut r).expect("read response");
    match resp.expect("response frame before eof") {
        Response::Cell(res) => {
            assert_eq!(res.req, 42);
            assert_eq!(res.cell, 0);
            let local = faultsweep::execute_cell(scale, &spec);
            assert_eq!(
                serde_json::to_string(&res.output).expect("serializable"),
                serde_json::to_string(&local).expect("serializable"),
                "a worker-served cell must be bit-identical to a local one"
            );
        }
        Response::Failed { message, .. } => panic!("cell failed in ftd: {message}"),
    }
    wire::write_frame(&mut w, &Request::Shutdown).expect("send shutdown");
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).expect("read to eof");
    assert!(rest.is_empty(), "no frames after shutdown");
    drop(w);
    let (code, stderr) = finish(child);
    assert_eq!(code, Some(0), "shutdown exits 0: {stderr}");
}

/// A request frame cut off inside its length prefix is an
/// unrecoverable protocol error: exit 4, typed message, no panic.
#[test]
fn ftd_exits_4_on_a_truncated_request_frame() {
    let (mut child, _r) = spawn_ftd();
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(&[0, 0])
        .expect("write half a length prefix");
    drop(stdin);
    let (code, stderr) = finish(child);
    assert_eq!(code, Some(4), "truncated frame exits 4: {stderr}");
    assert!(stderr.contains("stream ended mid-frame"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The driver closing the pipe before any request is a clean end.
#[test]
fn ftd_exits_0_on_eof_before_any_request() {
    let (mut child, _r) = spawn_ftd();
    drop(child.stdin.take());
    let (code, stderr) = finish(child);
    assert_eq!(code, Some(0), "eof before a request exits 0: {stderr}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The merge is byte-identical for any worker count and any chaos
    /// seed: random kills, stalls, and wire garbage may change *how*
    /// cells get computed (requeues, hedges, fallback), never *what*
    /// comes out.
    #[test]
    fn chaos_never_changes_the_answer(workers in 1usize..=4, seed in any::<u64>()) {
        let cfg = cfg(workers).with_chaos(Some(seed));
        // with_chaos resets the clocks to its CLI defaults; keep the
        // test-grade short ones so stalled single-worker runs converge
        // through timeout -> quarantine -> fallback in seconds.
        let cfg = DispatchConfig {
            deadline: Duration::from_secs(2),
            speculate_after: Duration::from_millis(200),
            ..cfg
        };
        let (out, summary) = run_faultsweep(smoke(), &cfg, &mut NoopSink);
        let got = serde_json::to_string(&out).expect("serializable");
        prop_assert_eq!(
            got,
            baseline().to_string(),
            "chaos seed {} with {} workers diverged: {}",
            seed,
            workers,
            summary
        );
    }

    /// Arbitrary sub-grids dispatch to the same outputs as computing
    /// each cell serially in-process.
    #[test]
    fn random_subgrids_merge_deterministically(
        workers in 1usize..=3,
        mask in prop::collection::vec(prop::bool::ANY, 10),
    ) {
        let scale = smoke();
        let grid = faultsweep::cell_grid(scale);
        let specs: Vec<_> = grid
            .into_iter()
            .zip(mask.iter().cycle())
            .filter(|(_, keep)| **keep)
            .map(|(s, _)| s)
            .collect();
        let serial: Vec<CellOutput> =
            specs.iter().map(|s| faultsweep::execute_cell(scale, s)).collect();
        let (out, summary) = dispatch_cells(scale, &specs, &cfg(workers), &mut NoopSink);
        prop_assert_eq!(
            serialized(&out),
            serialized(&serial),
            "sub-grid of {} cells diverged: {}",
            specs.len(),
            summary
        );
        prop_assert_eq!(out.len(), specs.len());
    }
}
