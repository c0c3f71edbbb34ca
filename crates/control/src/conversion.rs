//! Topology-conversion delay model (§4.3, Table 3).

use serde::{Deserialize, Serialize};

/// Latency constants of the conversion pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    /// Reconfiguring the optical circuit switch(es). The testbed's
    /// 3D-MEMS OCS takes 160 ms regardless of crosspoint count (all
    /// crosspoints switch in parallel).
    pub ocs_ms: f64,
    /// Deleting one OpenFlow rule (§4.3: "roughly 1ms to add/delete a
    /// network state"; the testbed's legacy switches were slower).
    pub per_rule_delete_ms: f64,
    /// Installing one OpenFlow rule.
    pub per_rule_add_ms: f64,
}

impl DelayModel {
    /// Constants calibrated to the paper's testbed (Table 3): 160 ms OCS
    /// reconfiguration and a per-rule latency chosen so that a full mode
    /// conversion on the 20-switch testbed totals ≈ 1 s (Table 3's
    /// 0.8–1.3 s range).
    ///
    /// Calibration note: §4.3 quotes ~1 ms per rule update, but the
    /// paper's implementation installs a hand-sized rule population
    /// (max 242 rules per switch); our compiler exhaustively emits rules
    /// for every ordered ingress-switch pair and transit hop, a ~6×
    /// larger population, so the per-rule constant is scaled down
    /// accordingly to keep the *observable* — the conversion total and
    /// Figure 10's 2–2.5 s adaptation — in the measured range.
    pub fn testbed() -> Self {
        Self {
            ocs_ms: 160.0,
            per_rule_delete_ms: 0.15,
            per_rule_add_ms: 0.15,
        }
    }
}

/// Outcome of one conversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConversionReport {
    /// Mode label converted from.
    pub from: String,
    /// Mode label converted to.
    pub to: String,
    /// Converter switches whose crosspoint configuration changed.
    pub crosspoints_changed: usize,
    /// OpenFlow rules deleted across all switches.
    pub rules_deleted: usize,
    /// OpenFlow rules added across all switches.
    pub rules_added: usize,
    /// OCS reconfiguration time (0 when no crosspoint changed).
    pub ocs_ms: f64,
    /// Rule deletion time.
    pub delete_ms: f64,
    /// Rule installation time.
    pub add_ms: f64,
}

impl ConversionReport {
    /// Total delay with the testbed's sequential pipeline
    /// (OCS, then delete, then add — Table 3's "Total" column).
    pub fn total_sequential_ms(&self) -> f64 {
        self.ocs_ms + self.delete_ms + self.add_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let r = ConversionReport {
            from: "clos".into(),
            to: "global".into(),
            crosspoints_changed: 16,
            rules_deleted: 477,
            rules_added: 644,
            ocs_ms: 160.0,
            delete_ms: 477.0,
            add_ms: 644.0,
        };
        // Table 3's global row: 160 + 477 + 644 = 1281 ms.
        assert!((r.total_sequential_ms() - 1281.0).abs() < 1e-9);
    }
}
