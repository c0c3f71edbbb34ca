//! Discrete-event **fluid** flow simulator.
//!
//! The paper evaluates transmission performance with the htsim MPTCP
//! packet simulator. Packet simulation at data center scale is expensive
//! and its artifacts (RTT, window dynamics) are not what the paper's
//! comparisons hinge on; we use the standard fluid abstraction instead:
//! at every flow arrival or completion, link bandwidth is re-divided
//! among the active flows by (weighted) **max-min fairness** — the
//! allocation long-lived TCP converges to — and flows drain their
//! remaining bytes at the allocated rate until the next event.
//!
//! Transport models:
//!
//! * [`Transport::TcpEcmp`] — one path per flow, chosen by a
//!   deterministic header hash among the equal-cost shortest paths (the
//!   Clos baseline of §5.2). Weight 1.
//! * [`Transport::Mptcp`] — k subflows over the k-shortest paths
//!   (§4.1/§4.2). `coupled` (default, approximating LIA) gives each
//!   subflow weight `1/k`, so a connection takes a single fair share at a
//!   shared bottleneck but still fills disjoint paths; uncoupled gives
//!   every subflow full weight.
//!
//! Failure injection: a compiled [`FaultSchedule`] fails (and
//! optionally recovers) links mid-run; connections re-route over the
//! surviving paths, exercising the §4.2.1 footnote's resilience claim.
//!
//! # Running the engine
//!
//! Three entry points, one engine underneath:
//!
//! * [`simulate`] — default routing for the configured [`Transport`]
//!   ([`Transport::provider`]), no faults, no tracing.
//! * [`simulate_under_faults_with_provider_traced`] — the general
//!   entry: a [`FaultSchedule`], a caller-chosen [`PathProvider`] and a
//!   [`TraceSink`] ([`NoopSink`] when untraced).
//! * [`simulate_with_telemetry`] — the general entry without a sink,
//!   additionally summing the allocator's effort counters
//!   ([`AllocTelemetry`]).
//!
//! All three validate their input and return a typed [`SimError`].
//!
//! # Engine layout
//!
//! The event loop works entirely on interned paths: routes come from a
//! [`provider::PathProvider`] as [`netgraph::PathId`]s in a per-run
//! [`netgraph::PathArena`], failures are a dense
//! [`failures::FailedLinks`] set whose *epoch* invalidates the
//! provider's route cache, and rate allocation runs incrementally over
//! persistent bindings. The pre-refactor engine is preserved in
//! [`mod@reference`] as the behavioral oracle: both engines produce
//! bit-identical [`SimResult`]s under permanent failures.
//!
//! # Fault plane
//!
//! [`faults`] is the only failure model: a seeded, deterministic
//! [`faults::FaultPlan`] (link flaps that fail **and recover**, or
//! permanent cuts; whole-switch down/up, stuck converters,
//! control-plane fault rates) compiles against a graph into a
//! time-sorted [`faults::FaultSchedule`] that the engine replays,
//! parking connections that lose every path and reviving them on
//! recovery. Whenever the schedule is non-empty the run's invariant
//! auditor ([`faults::AuditReport`]) certifies that no flow ever
//! carried rate over a dead link and that routing state stayed
//! consistent after every fault event.
//!
//! # Observability
//!
//! The sink receives the flow lifecycle (start / reroute / park /
//! revive / finish), per-epoch allocator and link-utilization events,
//! and applied fault events. Every emission is guarded by
//! [`TraceSink::enabled`]; with [`NoopSink`] the guards compile away,
//! so an untraced run is bit-identical and pays nothing.

pub mod alloc;
pub mod error;
pub mod failures;
pub mod faults;
pub mod provider;
pub mod reference;
pub mod sim;

pub use alloc::AllocTelemetry;
pub use error::{FaultError, SimError};
pub use failures::FailedLinks;
pub use faults::{AuditReport, ControlFaults, FaultPlan, FaultSchedule, LinkEvent};
pub use provider::{EcmpProvider, MptcpProvider, PathProvider, RoutedConn};
pub use sim::{
    simulate, simulate_under_faults_with_provider_traced, simulate_with_telemetry, FaultSimOutcome,
    FlowRecord, FlowSpec, SimConfig, SimResult, Transport,
};
// Re-exported so traced callers need not depend on `obs` directly.
pub use obs::{JsonlSink, NoopSink, ParkCause, RingSink, TraceEvent, TraceSink};
