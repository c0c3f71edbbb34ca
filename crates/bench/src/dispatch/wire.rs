//! The dispatch wire protocol: versioned, length-prefixed JSON frames.
//!
//! Every frame is a big-endian `u32` payload length followed by that
//! many bytes of JSON. A `ftd` worker speaks the protocol over its
//! stdin/stdout pipe: it sends one [`Hello`] frame on startup, then
//! answers each [`Request`] frame with one [`Response`] frame until the
//! driver sends [`Request::Shutdown`] or closes the stream.
//!
//! Design constraints, in order:
//!
//! 1. **No unwraps on the I/O path** — every failure mode (short read,
//!    oversized frame, malformed JSON, version skew) is a typed
//!    [`WireError`] the driver maps to requeue/quarantine decisions.
//! 2. **Determinism** — payloads are the same serde types the
//!    in-process sweep computes, and the vendored JSON facade
//!    round-trips `f64` bit-exactly (shortest-repr serialize, `parse`
//!    deserialize), so a result that crossed the wire is
//!    indistinguishable from one computed locally.
//! 3. **Resync is impossible by construction** — a corrupt length
//!    prefix poisons everything after it, so the driver treats any
//!    decode error as fatal for that worker (quarantine) rather than
//!    attempting to hunt for the next frame boundary.

use crate::experiments::faultsweep::{CellOutput, CellSpec};
use crate::Scale;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Protocol version; bumped on any frame-format or schema change. The
/// driver refuses workers whose [`Hello`] disagrees.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a frame payload (16 MiB). A length prefix above this
/// is treated as stream corruption, not an allocation request.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying read/write failed.
    Io(std::io::Error),
    /// A frame's payload was not the JSON we expected.
    Decode(String),
    /// A length prefix exceeded [`MAX_FRAME`] (almost certainly
    /// garbage bytes being read as a length).
    FrameTooLarge(u32),
    /// The stream ended inside a frame.
    UnexpectedEof,
    /// The worker's protocol version differs from ours.
    VersionMismatch {
        /// Our [`PROTO_VERSION`].
        ours: u32,
        /// What the worker announced.
        theirs: u32,
    },
    /// The first frame was not a [`Hello`] (or never arrived).
    Handshake(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wire i/o: {e}"),
            Self::Decode(m) => write!(f, "wire decode: {m}"),
            Self::FrameTooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            Self::UnexpectedEof => write!(f, "stream ended mid-frame"),
            Self::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, worker {theirs}")
            }
            Self::Handshake(m) => write!(f, "handshake: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::UnexpectedEof {
            Self::UnexpectedEof
        } else {
            Self::Io(e)
        }
    }
}

/// The worker's first frame: protocol version + its OS pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// The worker's [`PROTO_VERSION`].
    pub proto: u32,
    /// The worker's OS process id (for logs and chaos stalls).
    pub pid: u32,
}

/// A chaos-harness directive riding inside a lease: the driver cannot
/// write onto the worker's *output* pipe, so garbage-on-the-wire is
/// injected by telling the worker to emit it itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosDirective {
    /// Write `len` seeded garbage bytes where a response frame should
    /// be, then exit(3).
    Garbage {
        /// Seed of the garbage byte stream.
        seed: u64,
        /// How many bytes of garbage.
        len: u32,
    },
}

/// One leased cell: the request id, the canonical cell index, and the
/// pure work descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerParams {
    /// Driver-unique request id; echoed in the [`CellResult`] so late
    /// or duplicate responses can be matched to their lease.
    pub req: u64,
    /// Index of the cell in the canonical grid (the merge key).
    pub cell: usize,
    /// The sweep's scale/seed options.
    pub scale: Scale,
    /// Which cell to compute.
    pub spec: CellSpec,
    /// Chaos injection, if this lease is a sacrificial one.
    pub chaos: Option<ChaosDirective>,
}

/// Driver → worker frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Compute one cell.
    Cell(WorkerParams),
    /// Exit cleanly (stream EOF means the same).
    Shutdown,
}

/// One computed cell on its way back to the driver.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Echo of [`WorkerParams::req`].
    pub req: u64,
    /// Echo of [`WorkerParams::cell`].
    pub cell: usize,
    /// The cell's output, bit-identical to an in-process run.
    pub output: CellOutput,
    /// Worker-side wall-clock of the cell (ms).
    pub wall_ms: f64,
}

/// Worker → driver frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// The leased cell, computed.
    Cell(CellResult),
    /// The cell could not be computed (worker-side panic, caught); the
    /// driver requeues the cell and strikes the worker.
    Failed {
        /// Echo of [`WorkerParams::req`].
        req: u64,
        /// Echo of [`WorkerParams::cell`].
        cell: usize,
        /// Human-readable cause.
        message: String,
    },
}

/// Writes one frame: `u32` big-endian payload length, then the JSON
/// payload, then a flush (frames are the protocol's batching unit).
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, value: &T) -> Result<(), WireError> {
    let text = serde_json::to_string(value).map_err(|e| WireError::Decode(format!("{e:?}")))?;
    let bytes = text.as_bytes();
    let len = u32::try_from(bytes.len()).map_err(|_| WireError::FrameTooLarge(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at
/// a frame boundary); EOF anywhere else is [`WireError::UnexpectedEof`].
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::UnexpectedEof),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    let text =
        String::from_utf8(buf).map_err(|e| WireError::Decode(format!("non-utf8 payload: {e}")))?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| WireError::Decode(format!("{e:?}")))
}

/// Validates a worker's [`Hello`] against our [`PROTO_VERSION`].
pub fn check_hello(hello: &Hello) -> Result<(), WireError> {
    if hello.proto == PROTO_VERSION {
        Ok(())
    } else {
        Err(WireError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs: hello.proto,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let params = WorkerParams {
            req: 7,
            cell: 3,
            scale: Scale {
                smoke: true,
                ..Scale::default()
            },
            spec: CellSpec::Degradation {
                mode_idx: 2,
                fraction: 0.1,
            },
            chaos: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &Hello { proto: 1, pid: 42 }).expect("write hello");
        write_frame(&mut buf, &Request::Cell(params.clone())).expect("write request");
        write_frame(&mut buf, &Request::Shutdown).expect("write shutdown");

        let mut r = Cursor::new(buf);
        let hello: Hello = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!(hello, Hello { proto: 1, pid: 42 });
        let req: Request = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!(req, Request::Cell(params));
        let req: Request = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!(req, Request::Shutdown);
        let end: Option<Request> = read_frame(&mut r).expect("read");
        assert!(end.is_none(), "clean EOF at a frame boundary");
    }

    #[test]
    fn f64_payloads_roundtrip_bit_exactly() {
        // The determinism linchpin: the merge is byte-identical only if
        // every float survives the wire bit-for-bit.
        for &v in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            2.5e8,
            -0.0,
        ] {
            let spec = CellSpec::Degradation {
                mode_idx: 0,
                fraction: v,
            };
            let mut buf = Vec::new();
            write_frame(&mut buf, &spec).expect("write");
            let back: CellSpec = read_frame(&mut Cursor::new(buf))
                .expect("read")
                .expect("frame");
            match back {
                CellSpec::Degradation { fraction, .. } => {
                    assert_eq!(fraction.to_bits(), v.to_bits(), "{v}");
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn eof_mid_frame_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Shutdown).expect("write");
        // Truncate inside the payload.
        buf.truncate(buf.len() - 2);
        let got = read_frame::<_, Request>(&mut Cursor::new(buf));
        assert!(matches!(got, Err(WireError::UnexpectedEof)), "{got:?}");
        // Truncate inside the length prefix.
        let got = read_frame::<_, Request>(&mut Cursor::new(vec![0u8, 0]));
        assert!(matches!(got, Err(WireError::UnexpectedEof)), "{got:?}");
    }

    #[test]
    fn garbage_is_a_decode_or_length_error_never_a_panic() {
        // Garbage read as a length prefix: either an absurd length or a
        // payload that fails to parse — both typed, neither panics.
        let garbage = vec![0xFFu8; 64];
        let got = read_frame::<_, Response>(&mut Cursor::new(garbage));
        assert!(matches!(got, Err(WireError::FrameTooLarge(_))), "{got:?}");

        // A well-framed payload that is not JSON.
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(b"ole!!");
        let got = read_frame::<_, Response>(&mut Cursor::new(buf));
        assert!(matches!(got, Err(WireError::Decode(_))), "{got:?}");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        assert!(check_hello(&Hello {
            proto: PROTO_VERSION,
            pid: 1
        })
        .is_ok());
        let got = check_hello(&Hello {
            proto: PROTO_VERSION + 1,
            pid: 1,
        });
        assert!(
            matches!(got, Err(WireError::VersionMismatch { .. })),
            "{got:?}"
        );
    }

    #[test]
    fn oversized_frames_are_refused_on_write() {
        struct Sink;
        impl Write for Sink {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // A request whose JSON exceeds MAX_FRAME.
        let big = Response::Failed {
            req: 0,
            cell: 0,
            message: "x".repeat(MAX_FRAME as usize + 8),
        };
        let got = write_frame(&mut Sink, &big);
        assert!(matches!(got, Err(WireError::FrameTooLarge(_))), "{got:?}");
    }
}
