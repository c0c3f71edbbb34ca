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
        /// The rejected value (0 for the integer fields).
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

/// Runs the OCS stage (or its rollback twin): one attempt draws a
/// timeout, then an outright failure, then succeeds. Returns the trace;
/// `trace.ok` says whether the crosspoints switched.
///
/// Emissions never touch the RNG, so the attempt/backoff trace is
/// identical with any sink.
fn run_ocs_stage<S: TraceSink>(
    kind: StageKind,
    delay: &DelayModel,
    policy: &RetryPolicy,
    faults: &ControlFaults,
    sink: &mut S,
) -> StageTrace {
    let mut rng = stage_rng(faults, kind, 0);
    let mut trace = StageTrace {
        stage: kind,
        shard: 0,
        attempts: 0,
        backoffs_ms: Vec::new(),
        elapsed_ms: 0.0,
        ok: false,
    };
    for try_ in policy.backoff().attempts() {
        let attempt = try_.number;
        trace.attempts = attempt;
        if let Some(wait) = try_.wait_ms {
            trace.backoffs_ms.push(wait);
            trace.elapsed_ms += wait;
        }
        if rng.gen_bool(faults.ocs_timeout_prob) {
            trace.elapsed_ms += policy.stage_timeout_ms;
            if sink.enabled() {
                sink.emit(TraceEvent::ConvAttempt {
                    stage: kind.label().to_string(),
                    shard: 0,
                    attempt,
                    outcome: "timeout".to_string(),
                    cost_ms: policy.stage_timeout_ms,
                });
            }
            continue;
        }
        trace.elapsed_ms += delay.ocs_ms;
        if rng.gen_bool(faults.ocs_fail_prob) {
            if sink.enabled() {
                sink.emit(TraceEvent::ConvAttempt {
                    stage: kind.label().to_string(),
                    shard: 0,
                    attempt,
                    outcome: "fail".to_string(),
                    cost_ms: delay.ocs_ms,
                });
            }
            continue;
        }
        trace.ok = true;
        if sink.enabled() {
            sink.emit(TraceEvent::ConvAttempt {
                stage: kind.label().to_string(),
                shard: 0,
                attempt,
                outcome: "ok".to_string(),
                cost_ms: delay.ocs_ms,
            });
        }
        break;
    }
    if sink.enabled() {
        sink.emit(TraceEvent::ConvStage {
            stage: kind.label().to_string(),
            shard: 0,
            attempts: trace.attempts,
            elapsed_ms: trace.elapsed_ms,
            ok: trace.ok,
        });
    }
    trace
}

/// Runs one rule stage (delete/add or a rollback twin) across shards.
/// Each shard retries its failed rules until done or out of attempts;
/// a shard-crash draw costs the failover delay and makes no progress.
/// Returns the per-shard traces, the stage wall-clock (max over shards),
/// and the rules completed per shard.
fn run_rule_stage<S: TraceSink>(
    kind: StageKind,
    shard_counts: &[usize],
    per_rule_ms: f64,
    policy: &RetryPolicy,
    faults: &ControlFaults,
    sink: &mut S,
) -> (Vec<StageTrace>, f64, Vec<usize>) {
    let mut traces = Vec::with_capacity(shard_counts.len());
    let mut done = Vec::with_capacity(shard_counts.len());
    let mut stage_ms = 0.0f64;
    for (shard, &count) in shard_counts.iter().enumerate() {
        let mut rng = stage_rng(faults, kind, shard);
        let mut trace = StageTrace {
            stage: kind,
            shard,
            attempts: 0,
            backoffs_ms: Vec::new(),
            elapsed_ms: 0.0,
            ok: count == 0,
        };
        let mut remaining = count;
        for try_ in policy.backoff().attempts() {
            if remaining == 0 {
                break;
            }
            let attempt = try_.number;
            trace.attempts = attempt;
            if let Some(wait) = try_.wait_ms {
                trace.backoffs_ms.push(wait);
                trace.elapsed_ms += wait;
            }
            if rng.gen_bool(faults.shard_crash_prob) {
                trace.elapsed_ms += faults.shard_recover_ms;
                if sink.enabled() {
                    sink.emit(TraceEvent::ConvAttempt {
                        stage: kind.label().to_string(),
                        shard,
                        attempt,
                        outcome: "crash".to_string(),
                        cost_ms: faults.shard_recover_ms,
                    });
                }
                continue;
            }
            // Every outstanding rule costs its update time this attempt;
            // failed rules stay outstanding for the next one.
            let attempt_ms = remaining as f64 * per_rule_ms;
            trace.elapsed_ms += attempt_ms;
            let mut failed = 0usize;
            for _ in 0..remaining {
                if rng.gen_bool(faults.rule_fail_prob) {
                    failed += 1;
                }
            }
            remaining = failed;
            if sink.enabled() {
                sink.emit(TraceEvent::ConvAttempt {
                    stage: kind.label().to_string(),
                    shard,
                    attempt,
                    outcome: if remaining == 0 { "ok" } else { "partial" }.to_string(),
                    cost_ms: attempt_ms,
                });
            }
            if remaining == 0 {
                trace.ok = true;
                break;
            }
        }
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
    let shard_deletes: Vec<usize> = assignment
        .iter()
        .map(|sws| sws.iter().map(|&i| work.per_switch[i].0).sum())
        .collect();
    let shard_adds: Vec<usize> = assignment
        .iter()
        .map(|sws| sws.iter().map(|&i| work.per_switch[i].1).sum())
        .collect();

    let mut stages: Vec<StageTrace> = Vec::new();
    let mut total_ms = 0.0f64;

    // Forward: OCS.
    let mut ocs_committed = false;
    if work.crosspoints_changed > 0 {
        let t = run_ocs_stage(StageKind::Ocs, &work.delay, policy, faults, sink);
        total_ms += t.elapsed_ms;
        let ok = t.ok;
        ocs_committed = ok;
        stages.push(t);
        if !ok {
            // Nothing mutated: a failed OCS attempt leaves the old
            // crosspoints latched, so rollback is a no-op.
            return Ok(finish(
                ConversionStatus::RolledBack,
                report,
                stages,
                Some(from_label.to_string()),
                total_ms,
                sink,
            ));
        }
    }

    // Forward: rule delete.
    let (del_traces, del_ms, del_done) = run_rule_stage(
        StageKind::RuleDelete,
        &shard_deletes,
        work.delay.per_rule_delete_ms,
        policy,
        faults,
        sink,
    );
    let delete_ok = del_traces.iter().all(|t| t.ok);
    total_ms += del_ms;
    stages.extend(del_traces);
    if !delete_ok {
        return rollback(
            RollbackWork {
                readd: del_done,
                undelete: vec![0; policy.shards],
                reverse_ocs: ocs_committed,
            },
            work,
            report,
            stages,
            from_label,
            policy,
            faults,
            total_ms,
            sink,
        );
    }

    // Forward: rule add.
    let (add_traces, add_ms, add_done) = run_rule_stage(
        StageKind::RuleAdd,
        &shard_adds,
        work.delay.per_rule_add_ms,
        policy,
        faults,
        sink,
    );
    let add_ok = add_traces.iter().all(|t| t.ok);
    total_ms += add_ms;
    stages.extend(add_traces);
    if !add_ok {
        return rollback(
            RollbackWork {
                readd: shard_deletes,
                undelete: add_done,
                reverse_ocs: ocs_committed,
            },
            work,
            report,
            stages,
            from_label,
            policy,
            faults,
            total_ms,
            sink,
        );
    }

    Ok(finish(
        ConversionStatus::Committed,
        report,
        stages,
        None,
        total_ms,
        sink,
    ))
}

/// What a rollback must undo, per shard.
struct RollbackWork {
    /// Rules the forward pass deleted that must be re-installed.
    readd: Vec<usize>,
    /// Rules the forward pass added that must be removed.
    undelete: Vec<usize>,
    /// Whether the crosspoints were switched and must be reversed.
    reverse_ocs: bool,
}

/// Unwinds a failed conversion in reverse stage order, under the same
/// fault model and retry policy. Any rollback stage failing persistently
/// degrades the network.
#[allow(clippy::too_many_arguments)]
fn rollback<S: TraceSink>(
    undo: RollbackWork,
    work: &ConversionWork,
    report: ConversionReport,
    mut stages: Vec<StageTrace>,
    from_label: &str,
    policy: &RetryPolicy,
    faults: &ControlFaults,
    mut total_ms: f64,
    sink: &mut S,
) -> Result<ConversionOutcome, ConversionError> {
    let target = Some(from_label.to_string());

    // Remove whatever the add stage managed to install.
    if undo.undelete.iter().any(|&n| n > 0) {
        let (traces, ms, _) = run_rule_stage(
            StageKind::RollbackDelete,
            &undo.undelete,
            work.delay.per_rule_delete_ms,
            policy,
            faults,
            sink,
        );
        let ok = traces.iter().all(|t| t.ok);
        total_ms += ms;
        stages.extend(traces);
        if !ok {
            return Ok(finish(
                ConversionStatus::Degraded,
                report,
                stages,
                target,
                total_ms,
                sink,
            ));
        }
    }

    // Re-install whatever the delete stage removed.
    if undo.readd.iter().any(|&n| n > 0) {
        let (traces, ms, _) = run_rule_stage(
            StageKind::RollbackAdd,
            &undo.readd,
            work.delay.per_rule_add_ms,
            policy,
            faults,
            sink,
        );
        let ok = traces.iter().all(|t| t.ok);
        total_ms += ms;
        stages.extend(traces);
        if !ok {
            return Ok(finish(
                ConversionStatus::Degraded,
                report,
                stages,
                target,
                total_ms,
                sink,
            ));
        }
    }

    // Reverse the crosspoints last (the forward pass switched them
    // first).
    if undo.reverse_ocs {
        let t = run_ocs_stage(StageKind::RollbackOcs, &work.delay, policy, faults, sink);
        total_ms += t.elapsed_ms;
        let ok = t.ok;
        stages.push(t);
        if !ok {
            return Ok(finish(
                ConversionStatus::Degraded,
                report,
                stages,
                target,
                total_ms,
                sink,
            ));
        }
    }

    Ok(finish(
        ConversionStatus::RolledBack,
        report,
        stages,
        target,
        total_ms,
        sink,
    ))
}

fn finish<S: TraceSink>(
    status: ConversionStatus,
    report: ConversionReport,
    stages: Vec<StageTrace>,
    rollback_to: Option<String>,
    total_ms: f64,
    sink: &mut S,
) -> ConversionOutcome {
    let total_retries: u32 = stages.iter().map(|t| t.attempts.saturating_sub(1)).sum();
    if sink.enabled() {
        sink.emit(TraceEvent::ConvEnd {
            status: status.label().to_string(),
            total_ms,
            retries: total_retries,
        });
    }
    ConversionOutcome {
        status,
        report,
        stages,
        total_retries,
        rollback_to,
        total_ms,
    }
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
