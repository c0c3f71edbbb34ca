//! `(m, n)` profiling (§3.4).
//!
//! "Because flat-tree aims at converting generic Clos networks, which may
//! have very different layouts, it is difficult to pre-define the m and n
//! values for optimal transmission performance. We suggest a profiling
//! scheme: under the preferred Pod-core wiring pattern described in
//! Section 3.2, vary m and n until they result in the shortest average
//! path length over all server pairs."

use crate::build::FlatTree;
use crate::layout::FlatTreeParams;
use crate::modes::{ModeAssignment, PodMode};
use netgraph::metrics::avg_server_path_length;
use topology::ClosParams;

/// Result of one profiling candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Candidate 6-port converter count per column.
    pub m: usize,
    /// Candidate 4-port converter count per column.
    pub n: usize,
    /// Average server-pair path length in **global mode** under these
    /// values (the mode whose structure `(m, n)` shapes the most).
    pub global_apl: f64,
}

/// Sweeps every feasible `(m, n)` split and returns all candidates,
/// ascending by `global_apl` (ties broken toward larger `m`, which gives
/// the richer core).
///
/// Feasibility: `m + n <= min(servers_per_edge, h/r)` and `m + n >= 1`.
pub fn profile_mn(clos: &ClosParams) -> Vec<ProfilePoint> {
    let budget = clos.servers_per_edge.min(clos.h_over_r());
    let mut points = Vec::new();
    for total in 1..=budget {
        for m in 0..=total {
            let n = total - m;
            let Ok(ft) = FlatTree::new(FlatTreeParams::new(*clos, m, n)) else {
                continue;
            };
            let inst = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Global));
            if let Some(apl) = avg_server_path_length(&inst.net.graph) {
                points.push(ProfilePoint {
                    m,
                    n,
                    global_apl: apl,
                });
            }
        }
    }
    points.sort_by(|a, b| {
        a.global_apl
            .total_cmp(&b.global_apl)
            .then_with(|| b.m.cmp(&a.m))
    });
    points
}

/// The best `(m, n)` per §3.4's criterion.
pub fn best_mn(clos: &ClosParams) -> Option<(usize, usize)> {
    profile_mn(clos).first().map(|p| (p.m, p.n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_feasible_grid() {
        let clos = ClosParams::mini(); // budget = min(4, 4) = 4
        let pts = profile_mn(&clos);
        // totals 1..=4, each with total+1 splits, minus the degenerate
        // (m = h/r, n = 0) point: 2+3+4+5 - 1 = 13.
        assert_eq!(pts.len(), 13);
        // Sorted ascending by APL.
        for w in pts.windows(2) {
            assert!(w[0].global_apl <= w[1].global_apl);
        }
    }

    #[test]
    fn best_exists_and_beats_clos_apl() {
        let clos = ClosParams::mini();
        let (m, n) = best_mn(&clos).unwrap();
        assert!(m + n >= 1);
        let params = FlatTreeParams::new(clos, m, n);
        let ft = FlatTree::new(params).unwrap();
        let global = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Global));
        let clos_inst = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Clos));
        let g = avg_server_path_length(&global.net.graph).unwrap();
        let c = avg_server_path_length(&clos_inst.net.graph).unwrap();
        assert!(g < c, "profiled global APL {g} must beat Clos {c}");
    }

    #[test]
    fn relocating_servers_helps() {
        // Within the sweep, the best point should relocate at least one
        // server to the core (m >= 1): core-attached servers shortcut the
        // hierarchy.
        let pts = profile_mn(&ClosParams::mini());
        assert!(pts[0].m >= 1, "best point {pts:?}");
    }
}
