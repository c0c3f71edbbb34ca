//! The logically centralized network controller.
//!
//! "Flat-tree has several operation modes with pre-known topologies,
//! which designate a fixed set of configurations for the converter
//! switches. The controller changes the topology by configuring the
//! converter switches … The converter switch configurations for different
//! flat-tree modes can be hard-coded into the controller." (§4)
//!
//! Accordingly, [`Controller`] precompiles — per mode assignment — the
//! instantiated graph, the converter configurations, and the OpenFlow
//! rule set, then executes conversions by running the diff of the cached
//! artifacts through the staged state machine ([`crate::resilient`]).

use crate::conversion::{ConversionReport, DelayModel};
use crate::resilient::{
    run_conversion, ConversionError, ConversionOutcome, ConversionStatus, ConversionWork,
    RetryPolicy,
};
use flat_tree::{FlatTree, FlatTreeInstance, ModeAssignment, PodMode};
use flowsim::faults::ControlFaults;
use obs::{NoopSink, TraceSink};
use parking_lot::RwLock;
use routing::addressing::TopologyModeId;
use routing::rules::{compile_ip_rules, RuleSet};
use std::collections::HashMap;

/// Precompiled artifacts for one mode assignment.
#[derive(Debug, Clone)]
pub struct ModeArtifacts {
    /// The instantiated network.
    pub instance: FlatTreeInstance,
    /// The OpenFlow rule set for k-shortest-path routing.
    pub rules: RuleSet,
}

/// The centralized controller.
pub struct Controller {
    ft: FlatTree,
    k: usize,
    delay: DelayModel,
    cache: RwLock<HashMap<String, ModeArtifacts>>,
    current: RwLock<ModeAssignment>,
}

impl Controller {
    /// Creates a controller managing `ft`, starting in Clos mode, with
    /// `k` concurrent paths for rule compilation.
    pub fn new(ft: FlatTree, k: usize, delay: DelayModel) -> Self {
        let pods = ft.pods();
        let c = Self {
            ft,
            k,
            delay,
            cache: RwLock::new(HashMap::new()),
            current: RwLock::new(ModeAssignment::uniform(pods, PodMode::Clos)),
        };
        let initial = c.current.read().clone();
        c.artifacts(&initial);
        c
    }

    /// The managed flat-tree.
    pub fn flat_tree(&self) -> &FlatTree {
        &self.ft
    }

    /// The active mode assignment.
    pub fn current_assignment(&self) -> ModeAssignment {
        self.current.read().clone()
    }

    /// The active network instance.
    pub fn current_instance(&self) -> FlatTreeInstance {
        let cur = self.current_assignment();
        self.artifacts(&cur).instance
    }

    /// Precompiled artifacts for an assignment (computed on first use,
    /// "hard-coded into the controller" thereafter).
    pub fn artifacts(&self, a: &ModeAssignment) -> ModeArtifacts {
        let key = a.label();
        if let Some(art) = self.cache.read().get(&key) {
            return art.clone();
        }
        let instance = self.ft.instantiate(a);
        let mode_tag = match a.uniform_mode() {
            Some(PodMode::Global) => TopologyModeId::Global,
            Some(PodMode::Local) => TopologyModeId::Local,
            Some(PodMode::Clos) | None => TopologyModeId::Clos,
        };
        let rules = compile_ip_rules(&instance.net.graph, self.k, mode_tag);
        let art = ModeArtifacts { instance, rules };
        self.cache.write().insert(key, art.clone());
        art
    }

    /// The work of converting `from` to `to`: the converters whose
    /// crosspoint configuration changes and the `(deletes, adds)` rule
    /// churn per switch, the plan the staged state machine executes.
    pub fn work(&self, from: &ModeAssignment, to: &ModeAssignment) -> ConversionWork {
        let old = self.artifacts(from);
        let new = self.artifacts(to);
        ConversionWork {
            crosspoints_changed: old
                .instance
                .configs
                .iter()
                .zip(&new.instance.configs)
                .filter(|(a, b)| a != b)
                .count(),
            per_switch: old
                .rules
                .diff_per_switch(&new.rules)
                .into_iter()
                .map(|(_, d, a)| (d, a))
                .collect(),
            delay: self.delay,
        }
    }

    /// Converts the network to a new assignment, returning the delay
    /// breakdown. The conversion pipeline is the testbed's (§5.3):
    /// reconfigure the OCS partitions, delete stale rules, add new rules,
    /// run by the staged state machine on one shard with a quiet control
    /// plane, so it always commits.
    pub fn convert(&self, to: &ModeAssignment) -> ConversionReport {
        self.convert_resilient(
            to,
            &RetryPolicy::default(),
            &ControlFaults::none(),
            &mut NoopSink,
        )
        .expect("the default policy and a quiet control plane always validate")
        .report
    }

    /// Converts the network to a new assignment through the staged,
    /// fault-tolerant state machine ([`crate::resilient`]): OCS
    /// reconfigure, rule delete, rule add — per shard, with per-stage
    /// retry/backoff drawn from `faults` and rollback to the current
    /// mode on persistent failure. The target assignment is committed
    /// iff the outcome is [`ConversionStatus::Committed`]; on
    /// `RolledBack` the controller keeps the old mode, and on `Degraded`
    /// it also keeps the old mode label while the outcome flags the
    /// network as needing intervention.
    ///
    /// `sink` receives the conversion timeline (`ConvStart` /
    /// `ConvAttempt` / `ConvStage` / `ConvEnd`); the outcome, including
    /// every fault draw, is identical with any sink.
    pub fn convert_resilient<S: TraceSink>(
        &self,
        to: &ModeAssignment,
        policy: &RetryPolicy,
        faults: &ControlFaults,
        sink: &mut S,
    ) -> Result<ConversionOutcome, ConversionError> {
        let from = self.current_assignment();
        let work = self.work(&from, to);
        #[cfg(feature = "strict-invariants")]
        {
            let old = self.artifacts(&from);
            let new = self.artifacts(to);
            let v = flat_tree::invariants::conversion_delta_violations(
                &self.ft,
                &old.instance,
                &new.instance,
            );
            debug_assert!(
                v.is_empty(),
                "conversion touches non-converter links: {v:?}"
            );
            let diff = old.rules.diff(&new.rules);
            let (d, a) = work
                .per_switch
                .iter()
                .fold((0, 0), |(d, a), &(pd, pa)| (d + pd, a + pa));
            debug_assert_eq!(
                (d, a),
                (diff.deletes, diff.adds),
                "stage plan does not cover exactly the rule delta"
            );
        }
        let outcome = run_conversion(&work, &from.label(), &to.label(), policy, faults, sink)?;
        if outcome.status == ConversionStatus::Committed {
            *self.current.write() = to.clone();
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::StageKind;
    use flat_tree::FlatTreeParams;
    use topology::ClosParams;

    fn controller() -> Controller {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        Controller::new(ft, 2, DelayModel::testbed())
    }

    #[test]
    fn starts_in_clos_mode() {
        let c = controller();
        assert_eq!(c.current_assignment().label(), "clos");
        let inst = c.current_instance();
        // Clos mode: all servers on edges.
        let counts = netgraph::metrics::attached_server_counts(
            &inst.net.graph,
            netgraph::NodeKind::EdgeSwitch,
        );
        assert_eq!(counts.iter().map(|&(_, n)| n).sum::<usize>(), 64);
    }

    #[test]
    fn conversion_reports_crosspoints_and_rules() {
        let c = controller();
        let to = ModeAssignment::uniform(4, PodMode::Global);
        let r = c.convert(&to);
        assert_eq!(r.from, "clos");
        assert_eq!(r.to, "global");
        // mini: every converter changes config going Clos -> Global.
        assert_eq!(r.crosspoints_changed, 32);
        assert!(r.rules_deleted > 0 && r.rules_added > 0);
        assert!((r.ocs_ms - 160.0).abs() < 1e-9);
        assert_eq!(c.current_assignment().label(), "global");
    }

    #[test]
    fn null_conversion_is_free() {
        let c = controller();
        let stay = ModeAssignment::uniform(4, PodMode::Clos);
        let r = c.convert(&stay);
        assert_eq!(r.crosspoints_changed, 0);
        assert_eq!(r.rules_deleted + r.rules_added, 0);
        assert_eq!(r.total_sequential_ms(), 0.0);
    }

    #[test]
    fn hybrid_conversion_touches_only_changed_pods() {
        let c = controller();
        let hybrid = ModeAssignment::hybrid(vec![
            PodMode::Global,
            PodMode::Clos,
            PodMode::Clos,
            PodMode::Clos,
        ]);
        let r = c.convert(&hybrid);
        // Only pod 0's 8 converters change.
        assert_eq!(r.crosspoints_changed, 8);
    }

    /// §4.3: sharding the rule push over more controllers never slows a
    /// quiet conversion, and with one shard per switch the rule stages
    /// take as long as the slowest single switch.
    #[test]
    fn distributed_controllers_shrink_latency() {
        let from = ModeAssignment::uniform(4, PodMode::Clos);
        let to = ModeAssignment::uniform(4, PodMode::Global);
        let work = controller().work(&from, &to);
        let run = |shards: usize| {
            let policy = RetryPolicy {
                shards,
                ..RetryPolicy::default()
            };
            controller()
                .convert_resilient(&to, &policy, &ControlFaults::none(), &mut NoopSink)
                .expect("valid inputs")
        };
        let one = run(1);
        let four = run(4);
        let per_switch = run(work.per_switch.len());
        assert!(four.total_ms < one.total_ms);
        assert!(per_switch.total_ms <= four.total_ms);
        assert_eq!(one.report, per_switch.report);
        // Each rule stage waits for its slowest single switch.
        let stage_ms = |kind: StageKind| {
            per_switch
                .stages
                .iter()
                .filter(|t| t.stage == kind)
                .map(|t| t.elapsed_ms)
                .fold(0.0, f64::max)
        };
        let slowest = |rules: fn(&(usize, usize)) -> usize, per_rule_ms: f64| {
            work.per_switch
                .iter()
                .map(|sw| rules(sw) as f64 * per_rule_ms)
                .fold(0.0, f64::max)
        };
        assert_eq!(
            stage_ms(StageKind::RuleDelete),
            slowest(|&(d, _)| d, work.delay.per_rule_delete_ms)
        );
        assert_eq!(
            stage_ms(StageKind::RuleAdd),
            slowest(|&(_, a)| a, work.delay.per_rule_add_ms)
        );
    }

    #[test]
    fn failed_resilient_conversion_keeps_the_old_mode() {
        let c = controller();
        let to = ModeAssignment::uniform(4, PodMode::Global);
        let faults = ControlFaults {
            ocs_fail_prob: 1.0,
            ..ControlFaults::none()
        };
        let out = c
            .convert_resilient(&to, &RetryPolicy::default(), &faults, &mut NoopSink)
            .expect("valid inputs");
        assert_eq!(out.status, ConversionStatus::RolledBack);
        assert_eq!(out.rollback_to.as_deref(), Some("clos"));
        assert_eq!(c.current_assignment().label(), "clos");
        // The network stayed put, so a later quiet conversion still works.
        let ok = c
            .convert_resilient(
                &to,
                &RetryPolicy::default(),
                &ControlFaults::none(),
                &mut NoopSink,
            )
            .expect("valid inputs");
        assert_eq!(ok.status, ConversionStatus::Committed);
        assert_eq!(c.current_assignment().label(), "global");
    }

    #[test]
    fn artifacts_are_cached() {
        let c = controller();
        let to = ModeAssignment::uniform(4, PodMode::Global);
        let a = c.artifacts(&to);
        let b = c.artifacts(&to);
        assert_eq!(a.rules, b.rules);
        assert_eq!(c.cache.read().len(), 2); // clos + global
    }
}
