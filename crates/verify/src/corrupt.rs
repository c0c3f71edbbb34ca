//! Corruption injection for negative testing.
//!
//! Each corruption plants one realistic defect into an otherwise clean
//! artifact; the battery must flag it with the documented rule code.
//! CI runs `ftcheck --smoke --inject <name>` for every variant and
//! requires a non-zero exit.

use crate::diag::RuleCode;
use flat_tree::{ConverterConfig, FlatTreeInstance};
use flowsim::{FaultPlan, FaultSchedule};

/// A plantable defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Plug a side cable between two non-adjacent pods, as a technician
    /// swapping two trunk cables would.
    SwapSideLink,
    /// Land one extra cable on a converter's core, exceeding the §3.1
    /// port budget.
    OverloadPort,
    /// Drop the k-shortest-path set of the first switch pair, as a
    /// truncated rule download would.
    TruncatePaths,
    /// Reverse the compiled fault schedule, as hand-edited event lists
    /// end up.
    UnsortedSchedule,
    /// Drop the last recovery event, leaving a flap's promised `up_at`
    /// with no matching up event.
    DanglingRecovery,
    /// Point a stuck-converter override one past the converter
    /// inventory, as a stale plan replayed on a smaller topology would.
    StuckOutOfRange,
    /// Bump one shard's first switch index past the job set, as an
    /// off-by-one in partition replay would.
    ShardOutOfRange,
}

impl Corruption {
    /// Every variant, in CLI order.
    pub const ALL: [Corruption; 7] = [
        Corruption::SwapSideLink,
        Corruption::OverloadPort,
        Corruption::TruncatePaths,
        Corruption::UnsortedSchedule,
        Corruption::DanglingRecovery,
        Corruption::StuckOutOfRange,
        Corruption::ShardOutOfRange,
    ];

    /// The `--inject` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Corruption::SwapSideLink => "swap-side-link",
            Corruption::OverloadPort => "overload-port",
            Corruption::TruncatePaths => "truncate-paths",
            Corruption::UnsortedSchedule => "unsorted-schedule",
            Corruption::DanglingRecovery => "dangling-recovery",
            Corruption::StuckOutOfRange => "stuck-out-of-range",
            Corruption::ShardOutOfRange => "shard-out-of-range",
        }
    }

    /// Parses the `--inject` spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }

    /// The rule code the battery must report for this corruption.
    pub fn expected_code(self) -> RuleCode {
        match self {
            Corruption::SwapSideLink => RuleCode::SideWiring,
            Corruption::OverloadPort => RuleCode::PortBudget,
            Corruption::TruncatePaths => RuleCode::Blackhole,
            Corruption::UnsortedSchedule => RuleCode::FaultScheduleOrder,
            Corruption::DanglingRecovery => RuleCode::FaultScheduleOrder,
            Corruption::StuckOutOfRange => RuleCode::FaultTargets,
            Corruption::ShardOutOfRange => RuleCode::ShardPartition,
        }
    }

    /// Applies a graph-level corruption to an instance. `TruncatePaths`
    /// is routing-level and the `FT-Fxxx` variants are fault-plane-level;
    /// both leave the graph untouched.
    pub fn apply(self, inst: &mut FlatTreeInstance) {
        let rate = crate::graph_rules::unit_gbps(&*inst);
        match self {
            Corruption::SwapSideLink => {
                assert!(
                    inst.pod_edges.len() >= 3,
                    "side-link swap needs a non-adjacent pod pair"
                );
                let a = inst.pod_edges[0][0];
                let b = inst.pod_edges[2][0];
                inst.net.graph.add_duplex_link(a, b, rate);
            }
            Corruption::OverloadPort => {
                let edge = inst.pod_edges[0][0];
                let core = inst.cores[0];
                inst.net.graph.add_duplex_link(edge, core, rate);
            }
            Corruption::TruncatePaths
            | Corruption::UnsortedSchedule
            | Corruption::DanglingRecovery
            | Corruption::StuckOutOfRange
            | Corruption::ShardOutOfRange => {}
        }
    }

    /// Number of leading switch pairs whose path sets the routing
    /// battery empties under this corruption.
    pub fn truncated_pairs(self) -> usize {
        match self {
            Corruption::TruncatePaths => 1,
            _ => 0,
        }
    }

    /// Applies a fault-plane corruption to the battery's fault-cell
    /// artifacts: the plan, its compiled schedule, and the shard
    /// partition. Graph/routing variants leave them untouched.
    pub fn apply_to_faults(
        self,
        converter_count: usize,
        plan: &mut FaultPlan,
        schedule: &mut FaultSchedule,
        partition: &mut [Vec<usize>],
        jobs: usize,
    ) {
        match self {
            Corruption::UnsortedSchedule => {
                assert!(schedule.events.len() >= 2, "need events to unsort");
                schedule.events.reverse();
            }
            Corruption::DanglingRecovery => {
                // Drop every up event of one flapped cable, so the
                // plan's promised `up_at` has no surviving match.
                let link = plan
                    .link_flaps
                    .last()
                    .expect("fault cell plans at least one flap")
                    .link;
                schedule.events.retain(|e| !(e.up && e.link == link));
            }
            Corruption::StuckOutOfRange => {
                plan.stuck_converter(converter_count, ConverterConfig::Default);
            }
            Corruption::ShardOutOfRange => {
                let sw = partition
                    .iter_mut()
                    .flat_map(|shard| shard.iter_mut())
                    .next()
                    .expect("fault cell partitions at least one switch");
                *sw = jobs;
            }
            Corruption::SwapSideLink | Corruption::OverloadPort | Corruption::TruncatePaths => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in Corruption::ALL {
            assert_eq!(Corruption::from_name(c.name()), Some(c));
        }
        assert_eq!(Corruption::from_name("nope"), None);
    }

    #[test]
    fn fault_variants_expect_fault_codes() {
        for c in [
            Corruption::UnsortedSchedule,
            Corruption::DanglingRecovery,
            Corruption::StuckOutOfRange,
            Corruption::ShardOutOfRange,
        ] {
            assert!(c.expected_code().code().starts_with("FT-F"), "{c:?}");
        }
    }
}
