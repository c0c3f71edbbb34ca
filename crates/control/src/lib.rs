//! The flat-tree control system (§4).
//!
//! A data center is administered by a single authority, so the paper uses
//! a logically centralized controller that (a) programs the converter
//! switches to realize a topology mode and (b) swaps the OpenFlow routing
//! state for the k-shortest paths of the new topology. Both actions have
//! measurable delay — Table 3 breaks a conversion into *configure OCS*,
//! *delete rules*, and *add rules* — and this crate reproduces that
//! arithmetic from first principles:
//!
//! * [`Controller`] holds the flat-tree, precompiles per-mode instances
//!   and rule sets, derives the work of a conversion
//!   ([`Controller::work`]) and executes it, returning a
//!   [`conversion::ConversionReport`] with the full delay breakdown;
//! * [`conversion::DelayModel`] captures the testbed's constants (160 ms
//!   OCS reconfiguration, ~1 ms per OpenFlow rule update, §4.3/§5.3);
//! * [`resilient`] is the one conversion path: a staged state machine —
//!   OCS reconfigure, rule delete, rule add, per controller shard (the
//!   §4.3 multi-controller push) — with per-stage timeouts, bounded
//!   retry with exponential backoff, and rollback to the last-known-good
//!   mode, driven by deterministic control-plane fault draws
//!   ([`flowsim::faults::ControlFaults`]). A quiet one-shard run is
//!   Table 3's arithmetic.

pub mod controller;
pub mod conversion;
pub mod resilient;
pub mod retry;

pub use controller::Controller;
pub use conversion::{ConversionReport, DelayModel};
pub use resilient::{
    ConversionError, ConversionOutcome, ConversionStatus, RetryPolicy, StageKind, StageTrace,
};
pub use retry::{Attempt, Attempts, Backoff};
// Re-exported so callers can pass a conversion sink without depending
// on `obs` directly.
pub use obs::{NoopSink, RingSink, TraceEvent, TraceSink};
