//! Golden test: a mini-testbed conversion with an injected flaky OCS,
//! pinned bit for bit.
//!
//! The scenario is the §5.3 conversion (clos → global) on the
//! 4-pod mini flat-tree, with the OCS failing intermittently
//! (`ocs_fail_prob = 0.6`, seed 42). The staged state machine's entire
//! observable outcome — status, per-stage attempt counts, the exact
//! exponential backoff schedule, the rollback target, and the total
//! wall-clock — is derived from seeded ChaCha8 streams and must never
//! drift: any change to the fault-draw order, the backoff arithmetic,
//! the shard partition, or the delay model shows up here first.

use control::resilient::{ConversionStatus, RetryPolicy, StageKind};
use control::{Controller, DelayModel, NoopSink};
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::faults::ControlFaults;
use topology::ClosParams;

fn controller() -> Controller {
    let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1))
        .expect("mini params are valid");
    Controller::new(ft, 2, DelayModel::testbed())
}

#[test]
fn flaky_ocs_conversion_is_pinned_bit_for_bit() {
    let c = controller();
    let to = ModeAssignment::uniform(4, PodMode::Global);
    let faults = ControlFaults {
        seed: 42,
        ocs_fail_prob: 0.3,
        rule_fail_prob: 0.02,
        ..ControlFaults::none()
    };
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff_ms: 10.0,
        backoff_factor: 2.0,
        stage_timeout_ms: 1000.0,
        shards: 2,
    };
    let out = c
        .convert_resilient(&to, &policy, &faults, &mut NoopSink)
        .expect("valid inputs");

    // ---- pinned outcome (learned once, frozen forever) ----
    assert_eq!(out.status, ConversionStatus::Committed);
    assert_eq!(out.total_retries, 6);
    assert_eq!(out.rollback_to, None);
    assert_eq!(out.total_ms.to_bits(), 1316.75f64.to_bits());
    assert_eq!(c.current_assignment().label(), "global");

    // The fault-free report underneath is the plain convert() arithmetic.
    assert_eq!(out.report.crosspoints_changed, 32);
    assert_eq!(out.report.rules_deleted, 1792);
    assert_eq!(out.report.rules_added, 12688);
    assert_eq!(out.report.ocs_ms.to_bits(), 160.0f64.to_bits());
    assert_eq!(out.report.delete_ms.to_bits(), 268.8f64.to_bits());
    assert_eq!(out.report.add_ms.to_bits(), 1903.1999999999998f64.to_bits());

    // Per-(stage, shard) traces, in execution order.
    let pinned: [(StageKind, usize, u32, &[f64], f64); 5] = [
        (StageKind::Ocs, 0, 1, &[], 160.0),
        (StageKind::RuleDelete, 0, 2, &[10.0], 142.14999999999998),
        (StageKind::RuleDelete, 1, 2, &[10.0], 152.65),
        (StageKind::RuleAdd, 0, 3, &[10.0, 20.0], 1004.0999999999999),
        (StageKind::RuleAdd, 1, 3, &[10.0, 20.0], 993.6),
    ];
    assert_eq!(out.stages.len(), pinned.len());
    for (t, (stage, shard, attempts, backoffs, elapsed)) in out.stages.iter().zip(pinned) {
        assert_eq!(t.stage, stage);
        assert_eq!(t.shard, shard);
        assert_eq!(t.attempts, attempts, "{stage:?}/{shard}");
        assert_eq!(t.backoffs_ms, backoffs, "{stage:?}/{shard}");
        assert_eq!(
            t.elapsed_ms.to_bits(),
            elapsed.to_bits(),
            "{stage:?}/{shard}: {} vs {}",
            t.elapsed_ms,
            elapsed
        );
        assert!(t.ok);
    }

    // The identical inputs replay the identical outcome.
    let again = controller()
        .convert_resilient(&to, &policy, &faults, &mut NoopSink)
        .expect("valid inputs");
    assert_eq!(out, again);
}

#[test]
fn hopeless_ocs_conversion_rolls_back_with_pinned_backoff_schedule() {
    let c = controller();
    let to = ModeAssignment::uniform(4, PodMode::Global);
    let faults = ControlFaults {
        seed: 42,
        ocs_fail_prob: 1.0,
        ..ControlFaults::none()
    };
    let out = c
        .convert_resilient(&to, &RetryPolicy::default(), &faults, &mut NoopSink)
        .expect("valid inputs");
    assert_eq!(out.status, ConversionStatus::RolledBack);
    assert_eq!(out.rollback_to.as_deref(), Some("clos"));
    assert_eq!(c.current_assignment().label(), "clos");
    assert_eq!(out.stages.len(), 1);
    let ocs = &out.stages[0];
    assert_eq!(ocs.stage, StageKind::Ocs);
    assert_eq!(ocs.attempts, 4);
    assert!(!ocs.ok);
    // Exponential backoff: 10, 20, 40 ms between the four attempts.
    assert_eq!(ocs.backoffs_ms, vec![10.0, 20.0, 40.0]);
    assert_eq!(out.total_retries, 3);
    // 4 × 160 ms OCS attempts + 70 ms backoff.
    assert_eq!(out.total_ms.to_bits(), 710.0f64.to_bits());
}
