//! `ftd` — the flat-tree sweep worker daemon.
//!
//! Speaks the length-prefixed [`ft_bench::dispatch::wire`] protocol
//! over the stdin/stdout pipe pair the dispatch driver wires up:
//! announces itself with a `Hello` frame, then computes one
//! `CellResult` per leased `WorkerParams` until the driver sends
//! `Shutdown` or closes the stream.
//!
//! Exit codes: 0 clean shutdown/EOF, 2 usage error, 3 chaos-directed
//! garbage emission, 4 unrecoverable protocol error.
//!
//! Cell computation is pure, so a worker's answer is bit-identical to
//! an in-process run — worker-side panics are caught and surfaced as
//! typed `Response::Failed` frames so the driver can requeue instead
//! of losing the worker.

use ft_bench::dispatch::chaos::garbage_bytes;
use ft_bench::dispatch::wire::{
    self, CellResult, ChaosDirective, Hello, Request, Response, PROTO_VERSION,
};
use ft_bench::experiments::faultsweep;
use std::io::{BufReader, BufWriter, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const USAGE: &str = "usage: ftd\n\
     \n\
     Serves the dispatch wire protocol on stdin/stdout.\n\
     \n\
     options:\n\
     \x20 --help   print this message";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [arg] if arg == "--help" || arg == "-h" => {
            println!("{USAGE}");
            return;
        }
        _ => {
            eprintln!("ftd: unexpected arguments {args:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let code = serve(
        &mut BufReader::new(stdin.lock()),
        &mut BufWriter::new(stdout.lock()),
    );
    std::process::exit(code);
}

/// One protocol session: handshake, then serve leases until shutdown.
fn serve<R: Read, W: Write>(r: &mut R, w: &mut W) -> i32 {
    let hello = Hello {
        proto: PROTO_VERSION,
        pid: std::process::id(),
    };
    if let Err(e) = wire::write_frame(w, &hello) {
        eprintln!("ftd: handshake write: {e}");
        return 4;
    }
    loop {
        let req = match wire::read_frame::<_, Request>(r) {
            Ok(Some(req)) => req,
            Ok(None) => return 0, // driver closed the stream
            Err(e) => {
                eprintln!("ftd: request read: {e}");
                return 4;
            }
        };
        match req {
            Request::Shutdown => return 0,
            Request::Cell(params) => {
                if let Some(ChaosDirective::Garbage { seed, len }) = params.chaos {
                    // Chaos harness: corrupt the stream where a frame
                    // should be, then die mid-conversation.
                    let _ = w.write_all(&garbage_bytes(seed, len));
                    let _ = w.flush();
                    return 3;
                }
                let t0 = Instant::now();
                let computed = catch_unwind(AssertUnwindSafe(|| {
                    faultsweep::execute_cell(params.scale, &params.spec)
                }));
                let response = match computed {
                    Ok(output) => Response::Cell(CellResult {
                        req: params.req,
                        cell: params.cell,
                        output,
                        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    }),
                    Err(panic) => {
                        let message = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                            .unwrap_or_else(|| "cell panicked".to_string());
                        Response::Failed {
                            req: params.req,
                            cell: params.cell,
                            message,
                        }
                    }
                };
                if let Err(e) = wire::write_frame(w, &response) {
                    eprintln!("ftd: response write: {e}");
                    return 4;
                }
            }
        }
    }
}
