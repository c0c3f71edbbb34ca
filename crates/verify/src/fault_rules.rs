//! Fault-plan rules (`FT-Fxxx`): static checks over the failure-injection
//! artifacts the resilience experiments consume.
//!
//! The fault plane has three hand-off points where a malformed artifact
//! silently corrupts an experiment instead of crashing it:
//!
//! 1. the compiled [`FaultSchedule`] the flow engine replays — it must
//!    be time-sorted (the engine processes events in order, never
//!    re-sorting) and every flap that promises a recovery must deliver
//!    one (`FT-F001`);
//! 2. the stuck-converter overrides `ft_bench` hands to
//!    [`flat_tree::FlatTree::instantiate_with_overrides`] — a converter
//!    id past the inventory or a configuration a 4-port blade cannot
//!    latch panics deep inside instantiation (`FT-F002`);
//! 3. the controller shard partition the staged conversion machine
//!    executes — it must be an exact in-range permutation of the
//!    per-switch job set, or rules are installed twice or never
//!    (`FT-F003`).

use crate::diag::{Finding, RuleCode};
use flat_tree::FlatTree;
use flowsim::faults::{FaultPlan, FaultSchedule};

/// FT-F001 — the compiled schedule is sorted by `(time, down-before-up,
/// link)` and every flap with a recovery time has its up event present.
fn check_schedule(plan: &FaultPlan, schedule: &FaultSchedule) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, pair) in schedule.events.windows(2).enumerate() {
        let key = |e: &flowsim::LinkEvent| (e.time, e.up, e.link.idx());
        let (a, b) = (key(&pair[0]), key(&pair[1]));
        if a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
            == std::cmp::Ordering::Greater
        {
            findings.push(Finding::new(
                RuleCode::FaultScheduleOrder,
                format!("event[{i}]"),
                format!(
                    "schedule out of order: t={} up={} link={} precedes t={} up={} link={}",
                    a.0, a.1, a.2, b.0, b.1, b.2
                ),
            ));
        }
    }
    for f in &plan.link_flaps {
        let Some(up_at) = f.up_at else { continue };
        let recovered = schedule
            .events
            .iter()
            .any(|e| e.up && e.link == f.link && e.time == up_at);
        if !recovered {
            findings.push(Finding::new(
                RuleCode::FaultScheduleOrder,
                format!("link{}", f.link.idx()),
                format!(
                    "flap down@{} promises recovery @{up_at} but the schedule has no up event",
                    f.down_at
                ),
            ));
        }
    }
    findings
}

/// FT-F002 — every stuck-converter override targets a converter that
/// exists and forces a configuration its blade kind can latch.
fn check_stuck_targets(ft: &FlatTree, plan: &FaultPlan) -> Vec<Finding> {
    let count = ft.layout.converters.len();
    let mut findings = Vec::new();
    for s in &plan.stuck_converters {
        if s.converter >= count {
            findings.push(Finding::new(
                RuleCode::FaultTargets,
                format!("converter{}", s.converter),
                format!(
                    "stuck-converter override targets id {} of {count}",
                    s.converter
                ),
            ));
            continue;
        }
        let kind = ft.layout.converters[s.converter].blade.kind();
        if !s.config.valid_for(kind) {
            findings.push(Finding::new(
                RuleCode::FaultTargets,
                format!("converter{}", s.converter),
                format!("{:?} cannot be latched by a {kind:?} converter", s.config),
            ));
        }
    }
    findings
}

/// FT-F003 — the controller shard partition is an exact permutation of
/// `0..jobs` with every switch assigned to exactly one in-range shard.
fn check_shard_partition(jobs: usize, partition: &[Vec<usize>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen = vec![0usize; jobs];
    for (shard, members) in partition.iter().enumerate() {
        for &sw in members {
            if sw >= jobs {
                findings.push(Finding::new(
                    RuleCode::ShardPartition,
                    format!("shard{shard}"),
                    format!("switch index {sw} out of range (jobs={jobs})"),
                ));
            } else {
                seen[sw] += 1;
            }
        }
    }
    for (sw, &n) in seen.iter().enumerate() {
        if n != 1 {
            findings.push(Finding::new(
                RuleCode::ShardPartition,
                format!("switch{sw}"),
                format!("assigned to {n} shards (want exactly 1)"),
            ));
        }
    }
    findings
}

/// Runs all fault-plan rules over one plan's artifacts.
pub fn check(
    ft: &FlatTree,
    plan: &FaultPlan,
    schedule: &FaultSchedule,
    jobs: usize,
    partition: &[Vec<usize>],
) -> Vec<Finding> {
    let mut findings = check_schedule(plan, schedule);
    findings.extend(check_stuck_targets(ft, plan));
    findings.extend(check_shard_partition(jobs, partition));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_tree::{ConverterConfig, ModeAssignment, PodMode};
    use testbed::rig::testbed_params;

    fn testbed() -> FlatTree {
        FlatTree::new(testbed_params()).expect("testbed params are valid")
    }

    fn compiled(ft: &FlatTree, plan: &FaultPlan) -> FaultSchedule {
        let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
        plan.compile(&inst.net.graph).expect("plan compiles")
    }

    #[test]
    fn clean_plan_has_no_findings() {
        let ft = testbed();
        let mut plan = FaultPlan::new(7);
        let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
        let link = inst.net.graph.link_ids().next().expect("graph has links");
        plan.flap(link, 0.5, Some(1.5));
        plan.stuck_converter(0, ConverterConfig::Default);
        let schedule = compiled(&ft, &plan);
        let partition = control::resilient::shard_partition(&[(3, 2), (1, 1), (2, 2)], 2);
        assert_eq!(check(&ft, &plan, &schedule, 3, &partition), vec![]);
    }

    #[test]
    fn unsorted_schedule_and_dropped_recovery_fire_f001() {
        let ft = testbed();
        let mut plan = FaultPlan::new(7);
        let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
        let link = inst.net.graph.link_ids().next().expect("graph has links");
        plan.flap(link, 0.5, Some(1.5));
        let mut schedule = compiled(&ft, &plan);
        schedule.events.reverse();
        let found = check_schedule(&plan, &schedule);
        assert!(
            found.iter().any(|f| f.code == "FT-F001"),
            "unsorted: {found:?}"
        );

        let mut schedule = compiled(&ft, &plan);
        schedule.events.retain(|e| !e.up);
        let found = check_schedule(&plan, &schedule);
        assert!(
            found.iter().any(|f| f.code == "FT-F001"),
            "dropped recovery: {found:?}"
        );
    }

    #[test]
    fn bad_stuck_targets_fire_f002() {
        let ft = testbed();
        let count = ft.layout.converters.len();
        let mut plan = FaultPlan::new(7);
        plan.stuck_converter(count, ConverterConfig::Default);
        let found = check_stuck_targets(&ft, &plan);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, "FT-F002");

        // A 4-port (blade A) converter cannot latch the side circuit.
        let four_port = ft
            .layout
            .converters
            .iter()
            .position(|c| c.blade.kind() == flat_tree::ConverterKind::FourPort)
            .expect("testbed has 4-port converters");
        let mut plan = FaultPlan::new(7);
        plan.stuck_converter(four_port, ConverterConfig::Side);
        let found = check_stuck_targets(&ft, &plan);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].code, "FT-F002");
    }

    #[test]
    fn bad_shard_partitions_fire_f003() {
        // Out-of-range index.
        let found = check_shard_partition(2, &[vec![0, 5], vec![1]]);
        assert!(found.iter().any(|f| f.code == "FT-F003"), "{found:?}");

        // Duplicate assignment.
        let found = check_shard_partition(2, &[vec![0, 1], vec![1]]);
        assert!(found.iter().any(|f| f.code == "FT-F003"), "{found:?}");

        // Dropped switch.
        let found = check_shard_partition(3, &[vec![0], vec![1]]);
        assert!(found.iter().any(|f| f.code == "FT-F003"), "{found:?}");

        // The real partitioner passes for a spread of shapes.
        for shards in 1..4 {
            let jobs = [(5, 4), (1, 0), (3, 3), (2, 2), (8, 1)];
            let p = control::resilient::shard_partition(&jobs, shards);
            assert_eq!(p.len(), shards);
            assert_eq!(check_shard_partition(jobs.len(), &p), vec![]);
        }
    }
}
