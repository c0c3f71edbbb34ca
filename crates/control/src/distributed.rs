//! Scaling options for the routing-state swap (§4.3).
//!
//! "Instead of streaming the states all from a single network controller,
//! we can speed up the state distribution by having a set of controllers
//! each managing a number of switches." Rule pushes to different switches
//! are independent, so with `c` controllers over balanced shards the
//! rule-update time divides by ≈ c; with per-switch agents (pushing the
//! computation to the switches, or precomputing states into memory) only
//! the slowest single switch matters.

use serde::{Deserialize, Serialize};

/// Rule churn per switch, as produced by diffing two rule sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerSwitchChurn {
    /// `(deleted, added)` rule counts per switch.
    pub per_switch: Vec<(usize, usize)>,
}

impl PerSwitchChurn {
    /// Rule-update latency (ms) with `controllers` evenly sharded over
    /// switches, `per_rule_ms` per update, updates within a controller
    /// serialized and controllers parallel.
    pub fn sharded_latency_ms(&self, controllers: usize, per_rule_ms: f64) -> f64 {
        assert!(controllers >= 1);
        // Greedy longest-processing-time assignment to shards.
        let mut loads = vec![0.0f64; controllers];
        let mut jobs: Vec<f64> = self
            .per_switch
            .iter()
            .map(|&(d, a)| (d + a) as f64 * per_rule_ms)
            .collect();
        jobs.sort_by(|a, b| b.total_cmp(a));
        for j in jobs {
            let min = loads
                .iter_mut()
                .min_by(|a, b| a.total_cmp(b))
                .expect("controllers >= 1");
            *min += j;
        }
        loads.into_iter().fold(0.0, f64::max)
    }

    /// Rule-update latency when every switch updates itself on a topology
    /// signal (per-switch agents / precomputed tables): the slowest
    /// single switch.
    pub fn per_switch_agent_latency_ms(&self, per_rule_ms: f64) -> f64 {
        self.per_switch
            .iter()
            .map(|&(d, a)| (d + a) as f64 * per_rule_ms)
            .fold(0.0, f64::max)
    }

    /// Total rule updates: the one-controller latency reference.
    #[cfg(test)]
    fn total_updates(&self) -> usize {
        self.per_switch.iter().map(|&(d, a)| d + a).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn() -> PerSwitchChurn {
        PerSwitchChurn {
            per_switch: vec![(10, 10), (5, 5), (0, 40), (20, 0)],
        }
    }

    #[test]
    fn one_controller_serializes_everything() {
        let c = churn();
        assert_eq!(c.total_updates(), 90);
        assert!((c.sharded_latency_ms(1, 1.0) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn more_controllers_cut_latency_down_to_slowest_switch() {
        let c = churn();
        let two = c.sharded_latency_ms(2, 1.0);
        let four = c.sharded_latency_ms(4, 1.0);
        assert!(two < 90.0 && four <= two);
        // With >= one controller per switch, the slowest switch rules.
        assert!((c.sharded_latency_ms(8, 1.0) - 40.0).abs() < 1e-9);
        assert!((c.per_switch_agent_latency_ms(1.0) - 40.0).abs() < 1e-9);
    }
}
