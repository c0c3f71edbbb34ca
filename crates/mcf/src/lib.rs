//! Multi-commodity flow approximations — the paper's "LP" baselines.
//!
//! The paper evaluates routing efficiency against two linear programs
//! (§5.1): **LP minimum** maximizes the minimum flow throughput (ideal
//! load balancing) and **LP average** maximizes the average flow
//! throughput (best network utilization). Solving exact LPs needs an
//! external solver; this crate implements well-known combinatorial
//! approximations instead, which preserve the comparisons the paper makes:
//!
//! * [`concurrent::max_concurrent_flow`] — the Garg–Könemann (1998)
//!   multiplicative-weights algorithm for the *max-concurrent flow*
//!   problem. With equal demands, the concurrent ratio λ **is** the
//!   maximized minimum flow throughput. Our implementation rescales by
//!   the measured worst link overload, so the returned allocation is
//!   always exactly feasible and λ is a certified lower bound within
//!   (1 − O(ε)) of the optimum.
//! * [`greedy::max_total_flow`] — greedy shortest-residual-path packing
//!   with a per-flow cap (the NIC rate). Like the true LP-average
//!   solution, it drives utilization high by assigning some flows zero
//!   and others their full NIC rate (§5.1, Figure 7 discussion).
//! * [`maxmin::weighted_max_min`] — exact progressive-filling max-min
//!   fairness over *fixed* path sets; this is the allocation model the
//!   fluid simulator uses for TCP/MPTCP, shared here so LP baselines and
//!   the simulator agree on primitives.
//!
//! Max-min filling has one production implementation,
//! [`incremental::IncrementalAllocator`], which keeps state across
//! allocations for callers whose entity population changes a little at a
//! time (the fluid simulator) and serves one-shot callers just as well.
//! [`maxmin::weighted_max_min`] is the textbook loop it is kept
//! bit-identical to: the oracle for tests and the reference engine.

pub mod concurrent;
pub mod greedy;
pub mod incremental;
pub mod maxmin;
#[cfg(test)]
mod workspace;

pub use incremental::{AllocError, AllocStats, GroupId, IncrementalAllocator};

use netgraph::NodeId;
use serde::{Deserialize, Serialize};

/// One demand between two servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Commodity {
    /// Source server.
    pub src: NodeId,
    /// Destination server.
    pub dst: NodeId,
    /// Demand in Gbps (for throughput studies, the NIC rate).
    pub demand: f64,
}

impl Commodity {
    /// Unit-demand commodity (demand = 1 Gbps); the usual choice when only
    /// relative throughput matters.
    pub fn unit(src: NodeId, dst: NodeId) -> Self {
        Self {
            src,
            dst,
            demand: 1.0,
        }
    }
}
