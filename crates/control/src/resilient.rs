//! Staged, fault-tolerant conversion: retry, backoff, rollback.
//!
//! This state machine is the one implementation of a conversion. Each
//! stage (OCS reconfigure, rule delete, rule add — per controller
//! shard) runs with a per-attempt fault draw from [`ControlFaults`],
//! bounded retry with exponential backoff, and a rollback path to the
//! last-known-good mode when a stage fails persistently. The §4.3
//! multi-controller push is [`RetryPolicy::shards`] over
//! [`shard_partition`].
//!
//! With [`ControlFaults::none`] and one shard — what
//! [`Controller::convert`](crate::Controller::convert) runs for Table 3 —
//! the outcome is [`ConversionStatus::Committed`] and
//! [`ConversionOutcome::total_ms`] equals
//! [`ConversionReport::total_sequential_ms`] bit for bit.
//!
//! All randomness is drawn from per-`(stage, shard)` ChaCha8 streams
//! seeded by [`ControlFaults::seed`], so a given fault configuration
//! replays the identical attempt/backoff/rollback trace every run.

use crate::conversion::{ConversionReport, DelayModel};
use crate::retry::Backoff;
use flowsim::faults::ControlFaults;
use obs::{TraceEvent, TraceSink};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Retry/backoff/sharding parameters of the conversion state machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per stage before giving up (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt (ms).
    pub base_backoff_ms: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
    /// Wall-clock cost of an attempt that hangs until timeout (ms).
    pub stage_timeout_ms: f64,
    /// Controller shards pushing rules in parallel (≥ 1).
    pub shards: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 10.0,
            backoff_factor: 2.0,
            stage_timeout_ms: 1000.0,
            shards: 1,
        }
    }
}

impl RetryPolicy {
    /// The bounded exponential-backoff schedule this policy describes
    /// (see [`crate::retry`]): `max_attempts` tries, the first
    /// immediate, each later one preceded by
    /// `base_backoff_ms * backoff_factor^(n-2)` simulated milliseconds.
    pub fn backoff(&self) -> Backoff {
        Backoff::new(self.max_attempts, self.base_backoff_ms, self.backoff_factor)
    }

    /// Validates the policy's numeric ranges.
    pub fn validate(&self) -> Result<(), ConversionError> {
        if self.max_attempts == 0 {
            return Err(ConversionError::InvalidPolicy {
                which: "max_attempts",
                value: 0.0,
            });
        }
        if self.shards == 0 {
            return Err(ConversionError::InvalidPolicy {
                which: "shards",
                value: 0.0,
            });
        }
        for (name, v, min) in [
            ("base_backoff_ms", self.base_backoff_ms, 0.0),
            ("backoff_factor", self.backoff_factor, 1.0),
            ("stage_timeout_ms", self.stage_timeout_ms, 0.0),
        ] {
            if !v.is_finite() || v < min {
                return Err(ConversionError::InvalidPolicy {
                    which: name,
                    value: v,
                });
            }
        }
        Ok(())
    }
}

/// Why a resilient conversion could not even start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConversionError {
    /// A [`RetryPolicy`] field is out of range.
    InvalidPolicy {
        /// Which field was rejected.
        which: &'static str,
        /// The rejected value (integer fields converted to `f64`).
        value: f64,
    },
    /// The [`ControlFaults`] configuration is invalid.
    Faults(flowsim::FaultError),
}

impl std::fmt::Display for ConversionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidPolicy { which, value } => {
                write!(f, "invalid retry policy: {which} = {value}")
            }
            Self::Faults(e) => write!(f, "invalid control faults: {e}"),
        }
    }
}

impl std::error::Error for ConversionError {}

impl From<flowsim::FaultError> for ConversionError {
    fn from(e: flowsim::FaultError) -> Self {
        Self::Faults(e)
    }
}

/// One stage of the conversion pipeline (forward or rollback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// Reconfigure the optical circuit switch crosspoints.
    Ocs,
    /// Delete the outgoing mode's stale rules.
    RuleDelete,
    /// Install the incoming mode's rules.
    RuleAdd,
    /// Rollback: reverse the OCS crosspoints.
    RollbackOcs,
    /// Rollback: delete the rules the failed conversion had added.
    RollbackDelete,
    /// Rollback: re-install the rules the failed conversion had deleted.
    RollbackAdd,
}

impl StageKind {
    /// Stable lowercase label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            Self::Ocs => "ocs",
            Self::RuleDelete => "rule_delete",
            Self::RuleAdd => "rule_add",
            Self::RollbackOcs => "rollback_ocs",
            Self::RollbackDelete => "rollback_delete",
            Self::RollbackAdd => "rollback_add",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Self::Ocs => 0x6f63_735f_7631_0001,
            Self::RuleDelete => 0x6465_6c5f_7631_0002,
            Self::RuleAdd => 0x6164_645f_7631_0003,
            Self::RollbackOcs => 0x7262_6f63_735f_0004,
            Self::RollbackDelete => 0x7262_6465_6c5f_0005,
            Self::RollbackAdd => 0x7262_6164_645f_0006,
        }
    }
}

/// The execution trace of one `(stage, shard)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTrace {
    /// Which stage.
    pub stage: StageKind,
    /// Which controller shard (0 for the OCS stages).
    pub shard: usize,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Backoff waits between attempts (ms), in order.
    pub backoffs_ms: Vec<f64>,
    /// Wall-clock spent by this shard on this stage (ms), backoffs
    /// included.
    pub elapsed_ms: f64,
    /// Whether the shard finished its work within the attempt budget.
    pub ok: bool,
}

/// Terminal state of a resilient conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConversionStatus {
    /// Every forward stage succeeded: the network runs the target mode.
    Committed,
    /// A forward stage failed persistently and the rollback restored the
    /// last-known-good mode.
    RolledBack,
    /// A forward stage *and* the rollback failed: the network is left in
    /// a mixed state and needs operator intervention.
    Degraded,
}

impl ConversionStatus {
    /// Stable lowercase label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            Self::Committed => "committed",
            Self::RolledBack => "rolledback",
            Self::Degraded => "degraded",
        }
    }
}

/// Full outcome of a resilient conversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConversionOutcome {
    /// Terminal state.
    pub status: ConversionStatus,
    /// The fault-free delay arithmetic of this conversion (what
    /// [`Controller::convert`](crate::Controller::convert) reports).
    pub report: ConversionReport,
    /// Per-`(stage, shard)` execution traces, in execution order.
    pub stages: Vec<StageTrace>,
    /// Total retries across all stages and shards (attempts beyond the
    /// first).
    pub total_retries: u32,
    /// Mode label the rollback targeted (set unless committed).
    pub rollback_to: Option<String>,
    /// Wall-clock of the whole conversion (ms): forward stages run
    /// sequentially, shards within a stage in parallel, rollback stages
    /// appended. Equals `report.total_sequential_ms()` exactly when no
    /// fault fires and `shards == 1`.
    pub total_ms: f64,
}

/// What the state machine needs to know about the conversion, extracted
/// from the controller's cached artifacts by
/// [`Controller::work`](crate::Controller::work).
#[derive(Debug, Clone)]
pub struct ConversionWork {
    /// Converter switches whose crosspoint configuration changes.
    pub crosspoints_changed: usize,
    /// `(deletes, adds)` rule churn per switch.
    pub per_switch: Vec<(usize, usize)>,
    /// Delay constants.
    pub delay: DelayModel,
}

/// Deterministic greedy longest-job-first (LPT) partition of per-switch
/// jobs over `shards` controller shards; ties broken by switch order,
/// then lowest shard index. The `ftcheck` fault battery (`FT-F003`)
/// verifies the partition is an exact in-range permutation of the
/// switch set.
pub fn shard_partition(per_switch: &[(usize, usize)], shards: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..per_switch.len()).collect();
    order.sort_by(|&a, &b| {
        let la = per_switch[a].0 + per_switch[a].1;
        let lb = per_switch[b].0 + per_switch[b].1;
        lb.cmp(&la).then(a.cmp(&b))
    });
    let mut assignment = vec![Vec::new(); shards];
    let mut loads = vec![0usize; shards];
    for sw in order {
        let target = (0..shards)
            .min_by_key(|&s| (loads[s], s))
            .expect("shards >= 1");
        loads[target] += per_switch[sw].0 + per_switch[sw].1;
        assignment[target].push(sw);
    }
    assignment
}

fn stage_rng(faults: &ControlFaults, stage: StageKind, shard: usize) -> ChaCha8Rng {
    let mix = (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ChaCha8Rng::seed_from_u64(faults.seed ^ stage.salt() ^ mix)
}

/// Runs one stage (forward or rollback) over per-shard unit counts:
/// the OCS is one unit on shard 0, a rule stage one unit per rule.
/// Each attempt first draws the stage's no-progress fault (OCS timeout,
/// shard crash), then charges every outstanding unit and draws one
/// failure per unit; failed units stay outstanding for the next
/// attempt. Returns the per-shard traces, the stage wall-clock (max over
/// shards), and the units completed per shard.
///
/// Emissions never touch the RNG, so the attempt/backoff trace is
/// identical with any sink.
fn run_stage<S: TraceSink>(
    kind: StageKind,
    counts: &[usize],
    delay: &DelayModel,
    policy: &RetryPolicy,
    faults: &ControlFaults,
    sink: &mut S,
) -> (Vec<StageTrace>, f64, Vec<usize>) {
    use StageKind::*;
    let (unit_ms, fail_prob, fail_label) = match kind {
        Ocs | RollbackOcs => (delay.ocs_ms, faults.ocs_fail_prob, "fail"),
        RuleDelete | RollbackDelete => (delay.per_rule_delete_ms, faults.rule_fail_prob, "partial"),
        RuleAdd | RollbackAdd => (delay.per_rule_add_ms, faults.rule_fail_prob, "partial"),
    };
    let (stall_prob, stall_ms, stall_label) = match kind {
        Ocs | RollbackOcs => (faults.ocs_timeout_prob, policy.stage_timeout_ms, "timeout"),
        _ => (faults.shard_crash_prob, faults.shard_recover_ms, "crash"),
    };
    let mut traces = Vec::with_capacity(counts.len());
    let mut done = Vec::with_capacity(counts.len());
    let mut stage_ms = 0.0f64;
    for (shard, &count) in counts.iter().enumerate() {
        let mut rng = stage_rng(faults, kind, shard);
        let mut trace = StageTrace {
            stage: kind,
            shard,
            attempts: 0,
            backoffs_ms: Vec::new(),
            elapsed_ms: 0.0,
            ok: false,
        };
        let mut remaining = count;
        for try_ in policy.backoff().attempts() {
            if remaining == 0 {
                break;
            }
            trace.attempts = try_.number;
            if let Some(wait) = try_.wait_ms {
                trace.backoffs_ms.push(wait);
                trace.elapsed_ms += wait;
            }
            let (outcome, cost_ms) = if rng.gen_bool(stall_prob) {
                (stall_label, stall_ms)
            } else {
                let attempt_ms = remaining as f64 * unit_ms;
                remaining = (0..remaining).filter(|_| rng.gen_bool(fail_prob)).count();
                (if remaining == 0 { "ok" } else { fail_label }, attempt_ms)
            };
            trace.elapsed_ms += cost_ms;
            if sink.enabled() {
                sink.emit(TraceEvent::ConvAttempt {
                    stage: kind.label().to_string(),
                    shard,
                    attempt: try_.number,
                    outcome: outcome.to_string(),
                    cost_ms,
                });
            }
        }
        trace.ok = remaining == 0;
        if sink.enabled() {
            sink.emit(TraceEvent::ConvStage {
                stage: kind.label().to_string(),
                shard,
                attempts: trace.attempts,
                elapsed_ms: trace.elapsed_ms,
                ok: trace.ok,
            });
        }
        stage_ms = stage_ms.max(trace.elapsed_ms);
        done.push(count - remaining);
        traces.push(trace);
    }
    (traces, stage_ms, done)
}

/// Drives the full staged conversion. `from_label`/`to_label` are only
/// carried into the outcome; the controller is responsible for actually
/// committing the target assignment iff the status is `Committed`.
///
/// The forward plan is `[Ocs (if crosspoints change), RuleDelete,
/// RuleAdd]`. When a stage fails persistently, the stages already run
/// (the failed one included) are unwound in reverse order, each by its
/// undo stage over the units it completed: `RuleAdd → RollbackDelete`,
/// `RuleDelete → RollbackAdd`, `Ocs → RollbackOcs`. An undo with
/// nothing to undo is skipped (a failed OCS stage leaves the old
/// crosspoints latched, so it rolls back for free); the first undo that
/// fails persistently leaves the network `Degraded`.
///
/// `sink` receives the conversion timeline: `ConvStart`, one
/// `ConvAttempt` per fault draw, one `ConvStage` span per
/// `(stage, shard)` cell, and a terminal `ConvEnd`. Emission never draws
/// from the fault RNG streams, so the outcome is identical with any
/// sink ([`obs::NoopSink`] for untraced runs).
pub fn run_conversion<S: TraceSink>(
    work: &ConversionWork,
    from_label: &str,
    to_label: &str,
    policy: &RetryPolicy,
    faults: &ControlFaults,
    sink: &mut S,
) -> Result<ConversionOutcome, ConversionError> {
    policy.validate()?;
    faults.validate()?;
    // More shards than switches would only add idle shards; rejecting
    // them also bounds the partition's allocation.
    if policy.shards > work.per_switch.len().max(1) {
        return Err(ConversionError::InvalidPolicy {
            which: "shards",
            value: policy.shards as f64,
        });
    }

    let deletes: usize = work.per_switch.iter().map(|&(d, _)| d).sum();
    let adds: usize = work.per_switch.iter().map(|&(_, a)| a).sum();
    if sink.enabled() {
        sink.emit(TraceEvent::ConvStart {
            from: from_label.to_string(),
            to: to_label.to_string(),
            crosspoints: work.crosspoints_changed,
            deletes,
            adds,
        });
    }
    let report = ConversionReport {
        from: from_label.to_string(),
        to: to_label.to_string(),
        crosspoints_changed: work.crosspoints_changed,
        rules_deleted: deletes,
        rules_added: adds,
        ocs_ms: if work.crosspoints_changed > 0 {
            work.delay.ocs_ms
        } else {
            0.0
        },
        delete_ms: deletes as f64 * work.delay.per_rule_delete_ms,
        add_ms: adds as f64 * work.delay.per_rule_add_ms,
    };

    let assignment = shard_partition(&work.per_switch, policy.shards);
    let shard_units = |units: fn(&(usize, usize)) -> usize| -> Vec<usize> {
        assignment
            .iter()
            .map(|sws| sws.iter().map(|&i| units(&work.per_switch[i])).sum())
            .collect()
    };
    let mut plan = Vec::with_capacity(3);
    if work.crosspoints_changed > 0 {
        plan.push((StageKind::Ocs, vec![1]));
    }
    plan.push((StageKind::RuleDelete, shard_units(|&(d, _)| d)));
    plan.push((StageKind::RuleAdd, shard_units(|&(_, a)| a)));

    let mut stages: Vec<StageTrace> = Vec::new();
    let mut total_ms = 0.0f64;
    let mut run = |kind, counts: &[usize]| {
        let (traces, ms, done) = run_stage(kind, counts, &work.delay, policy, faults, sink);
        total_ms += ms;
        let ok = traces.iter().all(|t| t.ok);
        stages.extend(traces);
        (ok, done)
    };

    let mut ran = Vec::with_capacity(plan.len());
    let mut status = ConversionStatus::Committed;
    for (kind, counts) in &plan {
        let (ok, done) = run(*kind, counts);
        ran.push((*kind, done));
        if !ok {
            status = ConversionStatus::RolledBack;
            break;
        }
    }
    if status == ConversionStatus::RolledBack {
        for (kind, done) in ran.iter().rev() {
            if done.iter().all(|&n| n == 0) {
                continue;
            }
            let undo = match kind {
                StageKind::Ocs => StageKind::RollbackOcs,
                StageKind::RuleDelete => StageKind::RollbackAdd,
                // RuleAdd: the plan holds forward stages only.
                _ => StageKind::RollbackDelete,
            };
            if !run(undo, done).0 {
                status = ConversionStatus::Degraded;
                break;
            }
        }
    }
    let total_retries: u32 = stages.iter().map(|t| t.attempts.saturating_sub(1)).sum();
    if sink.enabled() {
        sink.emit(TraceEvent::ConvEnd {
            status: status.label().to_string(),
            total_ms,
            retries: total_retries,
        });
    }
    Ok(ConversionOutcome {
        status,
        report,
        stages,
        total_retries,
        rollback_to: (status != ConversionStatus::Committed).then(|| from_label.to_string()),
        total_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopSink;

    /// An untraced clos -> global run.
    fn run(
        w: &ConversionWork,
        policy: &RetryPolicy,
        faults: &ControlFaults,
    ) -> Result<ConversionOutcome, ConversionError> {
        run_conversion(w, "clos", "global", policy, faults, &mut NoopSink)
    }

    fn work() -> ConversionWork {
        ConversionWork {
            crosspoints_changed: 16,
            per_switch: vec![(100, 120), (80, 90), (60, 70), (40, 50)],
            delay: DelayModel::testbed(),
        }
    }

    #[test]
    fn quiet_faults_reduce_to_sequential_arithmetic() {
        let w = work();
        let out = run(&w, &RetryPolicy::default(), &ControlFaults::none()).expect("valid inputs");
        assert_eq!(out.status, ConversionStatus::Committed);
        assert_eq!(out.total_retries, 0);
        assert_eq!(out.rollback_to, None);
        assert_eq!(
            out.total_ms.to_bits(),
            out.report.total_sequential_ms().to_bits(),
            "quiet single-shard run must reproduce the Table 3 arithmetic"
        );
        assert_eq!(out.report.rules_deleted, 280);
        assert_eq!(out.report.rules_added, 330);
        assert!(out.stages.iter().all(|t| t.ok && t.backoffs_ms.is_empty()));
    }

    #[test]
    fn quiet_no_crosspoint_change_skips_the_ocs_stage() {
        let w = ConversionWork {
            crosspoints_changed: 0,
            ..work()
        };
        let out = run(&w, &RetryPolicy::default(), &ControlFaults::none()).expect("valid inputs");
        assert_eq!(out.status, ConversionStatus::Committed);
        assert!(out.stages.iter().all(|t| t.stage != StageKind::Ocs));
        assert_eq!(out.report.ocs_ms, 0.0);
        assert_eq!(
            out.total_ms.to_bits(),
            out.report.total_sequential_ms().to_bits()
        );
    }

    #[test]
    fn sharding_cuts_wall_clock_without_changing_the_report() {
        let w = work();
        let one = run(&w, &RetryPolicy::default(), &ControlFaults::none()).expect("valid");
        let four = run(
            &w,
            &RetryPolicy {
                shards: 4,
                ..RetryPolicy::default()
            },
            &ControlFaults::none(),
        )
        .expect("valid");
        assert_eq!(one.report, four.report);
        assert!(four.total_ms < one.total_ms);
        assert_eq!(four.status, ConversionStatus::Committed);
    }

    #[test]
    fn certain_ocs_failure_rolls_back_for_free() {
        let faults = ControlFaults {
            ocs_fail_prob: 1.0,
            ..ControlFaults::none()
        };
        let out = run(&work(), &RetryPolicy::default(), &faults).expect("valid");
        assert_eq!(out.status, ConversionStatus::RolledBack);
        assert_eq!(out.rollback_to.as_deref(), Some("clos"));
        // The OCS never switched, so no rollback stages ran.
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.stages[0].attempts, 4);
        assert_eq!(out.total_retries, 3);
        // 3 exponential backoffs: 10, 20, 40.
        assert_eq!(out.stages[0].backoffs_ms, vec![10.0, 20.0, 40.0]);
    }

    #[test]
    fn flaky_rules_degrade_when_rollback_also_fails() {
        // 90% per-rule failure: the delete stage makes partial progress
        // but never finishes, and re-adding the deleted subset fails
        // persistently too — the network is left degraded.
        let faults = ControlFaults {
            seed: 1,
            rule_fail_prob: 0.9,
            ..ControlFaults::none()
        };
        let out = run(&work(), &RetryPolicy::default(), &faults).expect("valid");
        assert_eq!(out.status, ConversionStatus::Degraded);
        assert_eq!(out.rollback_to.as_deref(), Some("clos"));
        assert!(out
            .stages
            .iter()
            .any(|t| t.stage == StageKind::RollbackAdd && !t.ok));
    }

    #[test]
    fn total_rule_failure_rolls_back_for_free() {
        // 100% per-rule failure: the delete stage never removes a single
        // rule, so there is nothing to undo — clean rollback via the
        // reverse OCS alone.
        let faults = ControlFaults {
            rule_fail_prob: 1.0,
            ..ControlFaults::none()
        };
        let out = run(&work(), &RetryPolicy::default(), &faults).expect("valid");
        assert_eq!(out.status, ConversionStatus::RolledBack);
        assert!(out
            .stages
            .iter()
            .all(|t| t.stage != StageKind::RollbackAdd && t.stage != StageKind::RollbackDelete));
        assert!(out
            .stages
            .iter()
            .any(|t| t.stage == StageKind::RollbackOcs && t.ok));
    }

    #[test]
    fn traces_replay_identically_for_a_seed() {
        let faults = ControlFaults {
            seed: 7,
            ocs_timeout_prob: 0.3,
            rule_fail_prob: 0.01,
            shard_crash_prob: 0.1,
            shard_recover_ms: 250.0,
            ..ControlFaults::none()
        };
        let policy = RetryPolicy {
            shards: 3,
            ..RetryPolicy::default()
        };
        let a = run(&work(), &policy, &faults).expect("valid");
        let b = run(&work(), &policy, &faults).expect("valid");
        assert_eq!(a, b);
        let other = ControlFaults { seed: 8, ..faults };
        let c = run(&work(), &policy, &other).expect("valid");
        assert_ne!(a.stages, c.stages);
    }

    /// Tracing must be a pure observer: same outcome with any sink, and
    /// a timeline whose spans reconcile with the returned stage traces.
    #[test]
    fn traced_conversion_is_identical_and_coherent() {
        let faults = ControlFaults {
            seed: 7,
            ocs_timeout_prob: 0.3,
            rule_fail_prob: 0.01,
            shard_crash_prob: 0.1,
            shard_recover_ms: 250.0,
            ..ControlFaults::none()
        };
        let policy = RetryPolicy {
            shards: 3,
            ..RetryPolicy::default()
        };
        let plain = run(&work(), &policy, &faults).expect("valid");
        let mut ring = obs::RingSink::unbounded();
        let traced =
            run_conversion(&work(), "clos", "global", &policy, &faults, &mut ring).expect("valid");
        assert_eq!(plain, traced, "sink must not perturb the fault draws");

        let events = ring.into_events();
        assert!(matches!(
            events.first(),
            Some(TraceEvent::ConvStart {
                crosspoints: 16,
                deletes: 280,
                adds: 330,
                ..
            })
        ));
        match events.last() {
            Some(TraceEvent::ConvEnd {
                status,
                total_ms,
                retries,
            }) => {
                assert_eq!(status, traced.status.label());
                assert_eq!(total_ms.to_bits(), traced.total_ms.to_bits());
                assert_eq!(*retries, traced.total_retries);
            }
            other => panic!("last event must be ConvEnd, got {other:?}"),
        }
        // One ConvStage span per returned StageTrace, same data.
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ConvStage {
                    stage,
                    shard,
                    attempts,
                    elapsed_ms,
                    ok,
                } => Some((stage.as_str(), *shard, *attempts, *elapsed_ms, *ok)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), traced.stages.len());
        for (span, t) in spans.iter().zip(&traced.stages) {
            assert_eq!(span.0, t.stage.label());
            assert_eq!(span.1, t.shard);
            assert_eq!(span.2, t.attempts);
            assert_eq!(span.3.to_bits(), t.elapsed_ms.to_bits());
            assert_eq!(span.4, t.ok);
        }
        // Attempts reconcile: per-cell ConvAttempt count == attempts.
        let attempts: u32 = events.iter().filter(|e| e.name() == "ConvAttempt").count() as u32;
        let expected: u32 = traced.stages.iter().map(|t| t.attempts).sum();
        assert_eq!(attempts, expected);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let w = work();
        let bad_policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            run(&w, &bad_policy, &ControlFaults::none()),
            Err(ConversionError::InvalidPolicy {
                which: "max_attempts",
                ..
            })
        ));
        let bad_faults = ControlFaults {
            rule_fail_prob: 2.0,
            ..ControlFaults::none()
        };
        assert!(matches!(
            run(&w, &RetryPolicy::default(), &bad_faults),
            Err(ConversionError::Faults(_))
        ));
        // More shards than switches is rejected before the partition
        // allocates anything.
        for shards in [w.per_switch.len() + 1, usize::MAX] {
            let bad_policy = RetryPolicy {
                shards,
                ..RetryPolicy::default()
            };
            assert!(matches!(
                run(&w, &bad_policy, &ControlFaults::none()),
                Err(ConversionError::InvalidPolicy {
                    which: "shards",
                    ..
                })
            ));
        }
    }

    #[test]
    fn lpt_partition_is_deterministic_and_balanced() {
        let per_switch = vec![(10, 10), (5, 5), (0, 40), (20, 0)];
        let p2 = shard_partition(&per_switch, 2);
        assert_eq!(p2, shard_partition(&per_switch, 2));
        let load = |sws: &Vec<usize>| -> usize {
            sws.iter().map(|&i| per_switch[i].0 + per_switch[i].1).sum()
        };
        // LPT on {40, 20, 20, 10}: shard0 = {40, 10}, shard1 = {20, 20}.
        assert_eq!(load(&p2[0]), 50);
        assert_eq!(load(&p2[1]), 40);
    }
}
