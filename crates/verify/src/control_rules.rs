//! Control rules (`FT-Cxxx`): conversion deltas and rule-churn algebra.
//!
//! Runs every ordered mode-to-mode conversion of the assignment grid
//! through the production [`Controller`] artifacts and checks, per pair:
//! the physical delta stays inside the converter inventory (FT-C001),
//! the rule delete/add sets are disjoint and replay the old rule set
//! into the new one exactly (FT-C002), and the stage plan
//! [`Controller::work`] hands the conversion state machine distributes
//! exactly the rule diff over the switches (FT-C003).

use crate::diag::{Finding, RuleCode};
use control::controller::Controller;
use control::conversion::DelayModel;
use flat_tree::{invariants, FlatTree, ModeAssignment};
use routing::rules::RuleSet;
use std::collections::BTreeSet;

/// FT-C002: the delete and add sets must be disjoint per switch, and
/// applying `delete` then `add` to `from` must reproduce `to` exactly.
fn rule_churn_findings(label: &str, from: &RuleSet, to: &RuleSet) -> Vec<Finding> {
    let mut out = Vec::new();
    let switches: BTreeSet<_> = from
        .per_switch
        .keys()
        .chain(to.per_switch.keys())
        .copied()
        .collect();
    static EMPTY: BTreeSet<routing::rules::Rule> = BTreeSet::new();
    for sw in switches {
        let a = from.per_switch.get(&sw).unwrap_or(&EMPTY);
        let b = to.per_switch.get(&sw).unwrap_or(&EMPTY);
        let deletes: BTreeSet<_> = a.difference(b).copied().collect();
        let adds: BTreeSet<_> = b.difference(a).copied().collect();
        if deletes.intersection(&adds).next().is_some() {
            out.push(Finding::new(
                RuleCode::RuleChurn,
                format!("{label} switch {}", sw.0),
                "a rule appears in both the delete and the add set",
            ));
        }
        let replayed: BTreeSet<_> = a.difference(&deletes).chain(adds.iter()).copied().collect();
        if &replayed != b {
            out.push(Finding::new(
                RuleCode::RuleChurn,
                format!("{label} switch {}", sw.0),
                "applying the delete/add sets does not reproduce the target rules",
            ));
        }
    }
    out
}

/// FT-C003: the per-switch stage plan must sum to the rule diff.
fn stage_plan_findings(
    label: &str,
    plan: &[(usize, usize)],
    diff: routing::rules::RuleDiff,
) -> Vec<Finding> {
    let (d, a) = plan
        .iter()
        .fold((0, 0), |(d, a), &(pd, pa)| (d + pd, a + pa));
    if (d, a) == (diff.deletes, diff.adds) {
        Vec::new()
    } else {
        vec![Finding::new(
            RuleCode::StagePlan,
            label.to_string(),
            format!(
                "stage plan covers {d} deletes / {a} adds but the delta is {} / {}",
                diff.deletes, diff.adds
            ),
        )]
    }
}

/// The full control battery over every ordered pair of `assignments`.
pub fn check(ft: &FlatTree, assignments: &[ModeAssignment], k: usize) -> Vec<Finding> {
    let controller = Controller::new(ft.clone(), k, DelayModel::testbed());
    let mut out = Vec::new();
    for from in assignments {
        for to in assignments {
            if from.label() == to.label() {
                continue;
            }
            let label = format!("{} -> {}", from.label(), to.label());
            let old = controller.artifacts(from);
            let new = controller.artifacts(to);
            // FT-C001: the crosspoint delta touches converter circuits only.
            out.extend(
                invariants::conversion_delta_violations(ft, &old.instance, &new.instance)
                    .into_iter()
                    .map(|v| {
                        Finding::new(
                            RuleCode::ConversionDelta,
                            format!("{label} {}", v.location),
                            v.detail,
                        )
                    }),
            );
            out.extend(rule_churn_findings(&label, &old.rules, &new.rules));
            let work = controller.work(from, to);
            out.extend(stage_plan_findings(
                &label,
                &work.per_switch,
                old.rules.diff(&new.rules),
            ));
        }
    }
    out
}
