//! Property tests for the control plane: conversion algebra over random
//! mode sequences.

use control::{Controller, ConversionStatus, DelayModel, NoopSink, RetryPolicy};
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::faults::ControlFaults;
use proptest::prelude::*;
use topology::ClosParams;

fn mode(i: u8) -> PodMode {
    match i % 3 {
        0 => PodMode::Clos,
        1 => PodMode::Local,
        _ => PodMode::Global,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over any random sequence of conversions:
    /// * a null conversion is always free,
    /// * rule churn between two modes is symmetric (deletes one way =
    ///   adds the other way),
    /// * the delay decomposition always sums consistently,
    /// * every report is Table 3's arithmetic over the cached artifacts:
    ///   the rule diff, the changed crosspoints and the delay constants,
    /// * a quiet one-shard run of the state machine takes exactly the
    ///   report's sequential total.
    #[test]
    fn conversion_algebra(seq in prop::collection::vec(0u8..3, 1..6)) {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        let delay = DelayModel::testbed();
        let ctl = Controller::new(ft, 2, delay);
        let mut prev = ModeAssignment::uniform(4, PodMode::Clos);
        for &m in &seq {
            let to = ModeAssignment::uniform(4, mode(m));
            let (old, new) = (ctl.artifacts(&prev), ctl.artifacts(&to));
            let diff = old.rules.diff(&new.rules);
            let crosspoints = old
                .instance
                .configs
                .iter()
                .zip(&new.instance.configs)
                .filter(|(a, b)| a != b)
                .count();
            let out = ctl
                .convert_resilient(&to, &RetryPolicy::default(), &ControlFaults::none(), &mut NoopSink)
                .unwrap();
            prop_assert_eq!(out.status, ConversionStatus::Committed);
            let fwd = out.report;
            prop_assert_eq!(out.total_ms.to_bits(), fwd.total_sequential_ms().to_bits());
            prop_assert_eq!(fwd.crosspoints_changed, crosspoints);
            prop_assert_eq!((fwd.rules_deleted, fwd.rules_added), (diff.deletes, diff.adds));
            prop_assert_eq!(fwd.ocs_ms, if crosspoints > 0 { delay.ocs_ms } else { 0.0 });
            prop_assert_eq!(fwd.delete_ms, diff.deletes as f64 * delay.per_rule_delete_ms);
            prop_assert_eq!(fwd.add_ms, diff.adds as f64 * delay.per_rule_add_ms);
            prop_assert!(
                (fwd.total_sequential_ms()
                    - (fwd.ocs_ms + fwd.delete_ms + fwd.add_ms)).abs() < 1e-9
            );
            if to == prev {
                prop_assert_eq!(fwd.crosspoints_changed, 0);
                prop_assert_eq!(fwd.rules_deleted + fwd.rules_added, 0);
            } else {
                // Convert back and compare churn symmetry.
                let back = ctl.convert(&prev);
                prop_assert_eq!(fwd.rules_deleted, back.rules_added);
                prop_assert_eq!(fwd.rules_added, back.rules_deleted);
                prop_assert_eq!(fwd.crosspoints_changed, back.crosspoints_changed);
                // Return to `to` to continue the walk.
                ctl.convert(&to);
            }
            prev = to;
        }
    }

    /// Hybrid conversions touch exactly the converters of changed pods.
    #[test]
    fn hybrid_crosspoint_locality(mask in prop::collection::vec(prop::bool::ANY, 4)) {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        let per_pod = ft.layout.converters.len() / 4;
        let ctl = Controller::new(ft, 2, DelayModel::testbed());
        let modes: Vec<PodMode> = mask
            .iter()
            .map(|&b| if b { PodMode::Global } else { PodMode::Clos })
            .collect();
        let changed_pods = mask.iter().filter(|&&b| b).count();
        let r = ctl.convert(&ModeAssignment::hybrid(modes));
        prop_assert_eq!(r.crosspoints_changed, changed_pods * per_pod);
    }
}
