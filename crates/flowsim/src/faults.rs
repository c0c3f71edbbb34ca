//! The fault plane: a seeded, deterministic fault-injection DSL.
//!
//! The paper's §4.3 conversion procedure and the §4.2.1 resilience
//! footnote both hinge on the network staying operable while things go
//! wrong. [`FaultPlan`] is the substrate for asking that question: it
//! describes timed link flaps (fail **and recover**), whole-switch
//! down/up events, stuck-at converter faults, and control-plane fault
//! probabilities, all derived deterministically from a seed — the same
//! seed always produces bit-identical schedules, so every experiment
//! cell is reproducible.
//!
//! A plan is *compiled* against a concrete graph into a
//! [`FaultSchedule`]: a time-sorted list of directed-link [`LinkEvent`]s
//! the simulation engine replays (cables expand to both directions,
//! switches to every incident directed link). Stuck-converter entries
//! are not timed events — a latched crosspoint is a property of the
//! instantiated topology — so they are carried as [`ConverterConfig`]
//! overrides and applied by `ft_bench` through `flat_tree`'s
//! `instantiate_with_overrides` hook. Control-plane faults
//! ([`ControlFaults`]) are consumed by the `control` crate's staged
//! conversion state machine.
//!
//! Semantics at equal timestamps: down events apply before up events,
//! and the last write to a link wins (a switch-up event resurrects an
//! incident link even if a separate flap downed it — document your
//! plans accordingly).

use crate::error::FaultError;
use flat_tree::ConverterConfig;
use netgraph::{Graph, LinkId, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A timed state change of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkEvent {
    /// Event time in seconds.
    pub time: f64,
    /// The directed link affected.
    pub link: LinkId,
    /// `true` = the link comes (back) up, `false` = it goes down.
    pub up: bool,
}

/// A timed fail/recover cycle of one duplex cable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// Either direction of the cable.
    pub link: LinkId,
    /// When the cable dies (s).
    pub down_at: f64,
    /// When it comes back (`None` = permanent failure).
    pub up_at: Option<f64>,
}

/// A timed fail/recover cycle of a whole switch: every incident
/// directed link dies with it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchFault {
    /// The switch node.
    pub switch: NodeId,
    /// When the switch dies (s).
    pub down_at: f64,
    /// When it comes back (`None` = permanent failure).
    pub up_at: Option<f64>,
}

/// A converter switch stuck at a configuration (§3.6 failure mode: a
/// failed circuit switch latches its crosspoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckConverter {
    /// Converter id in `flat_tree`'s layout order.
    pub converter: usize,
    /// The latched configuration, which `ft_bench` hands to
    /// `FlatTree::instantiate_with_overrides`.
    pub config: ConverterConfig,
}

/// Control-plane fault probabilities, consumed by the `control` crate's
/// staged conversion state machine. All probabilities are per attempt
/// and drawn from deterministic per-stage streams seeded by `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlFaults {
    /// Seed of the control-plane fault streams.
    pub seed: u64,
    /// Probability that one OCS reconfiguration attempt fails outright.
    pub ocs_fail_prob: f64,
    /// Probability that one OCS reconfiguration attempt hangs until the
    /// stage timeout.
    pub ocs_timeout_prob: f64,
    /// Probability that installing/deleting one OpenFlow rule fails
    /// (failed rules are retried on the next stage attempt).
    pub rule_fail_prob: f64,
    /// Probability that a controller shard crashes during one stage
    /// attempt (the attempt makes no progress).
    pub shard_crash_prob: f64,
    /// Failover delay after a shard crash (ms).
    pub shard_recover_ms: f64,
}

impl ControlFaults {
    /// No control-plane faults: every conversion commits first try.
    pub fn none() -> Self {
        Self {
            seed: 0,
            ocs_fail_prob: 0.0,
            ocs_timeout_prob: 0.0,
            rule_fail_prob: 0.0,
            shard_crash_prob: 0.0,
            shard_recover_ms: 0.0,
        }
    }

    /// Whether every fault probability is zero.
    fn is_quiet(&self) -> bool {
        self.ocs_fail_prob == 0.0
            && self.ocs_timeout_prob == 0.0
            && self.rule_fail_prob == 0.0
            && self.shard_crash_prob == 0.0
    }

    /// Validates that every probability is a finite value in `[0, 1]`
    /// and the recovery delay is finite and non-negative.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (name, p) in [
            ("ocs_fail_prob", self.ocs_fail_prob),
            ("ocs_timeout_prob", self.ocs_timeout_prob),
            ("rule_fail_prob", self.rule_fail_prob),
            ("shard_crash_prob", self.shard_crash_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(FaultError::InvalidProbability {
                    which: name,
                    value: p,
                });
            }
        }
        if !self.shard_recover_ms.is_finite() || self.shard_recover_ms < 0.0 {
            return Err(FaultError::InvalidDelay {
                which: "shard_recover_ms",
                value: self.shard_recover_ms,
            });
        }
        Ok(())
    }
}

impl Default for ControlFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// A deterministic multi-layer fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of every random draw the plan makes.
    pub seed: u64,
    /// Timed cable fail/recover cycles.
    pub link_flaps: Vec<LinkFlap>,
    /// Timed whole-switch fail/recover cycles.
    pub switch_faults: Vec<SwitchFault>,
    /// Converters latched at a fixed configuration (applied at topology
    /// instantiation, not as timed events).
    pub stuck_converters: Vec<StuckConverter>,
    /// Control-plane fault probabilities.
    pub control: ControlFaults,
}

impl FaultPlan {
    /// An empty plan: no data-plane events, quiet control plane.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            link_flaps: Vec::new(),
            switch_faults: Vec::new(),
            stuck_converters: Vec::new(),
            control: ControlFaults {
                seed,
                ..ControlFaults::none()
            },
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.link_flaps.is_empty()
            && self.switch_faults.is_empty()
            && self.stuck_converters.is_empty()
            && self.control.is_quiet()
    }

    /// Adds one cable flap (`up_at = None` for a permanent failure).
    pub fn flap(&mut self, link: LinkId, down_at: f64, up_at: Option<f64>) -> &mut Self {
        self.link_flaps.push(LinkFlap {
            link,
            down_at,
            up_at,
        });
        self
    }

    /// Adds one whole-switch fail/recover cycle.
    pub fn switch_fault(&mut self, switch: NodeId, down_at: f64, up_at: Option<f64>) -> &mut Self {
        self.switch_faults.push(SwitchFault {
            switch,
            down_at,
            up_at,
        });
        self
    }

    /// Latches one converter at a configuration.
    pub fn stuck_converter(&mut self, converter: usize, config: ConverterConfig) -> &mut Self {
        self.stuck_converters
            .push(StuckConverter { converter, config });
        self
    }

    /// Draws random cable flaps: a `fraction` of `cables` (rounded down)
    /// flaps once, going down at a uniform time in `window` and staying
    /// down for `mean_down_s` scaled by a uniform factor in `[0.5, 1.5)`.
    /// Fully determined by the plan seed — the same seed, cable list and
    /// parameters always produce the identical flap set.
    pub fn random_link_flaps(
        &mut self,
        cables: &[LinkId],
        fraction: f64,
        mean_down_s: f64,
        window: (f64, f64),
    ) -> &mut Self {
        assert!(
            window.0 < window.1,
            "flap window must be non-empty: {window:?}"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x666c_6170_735f_7631);
        let n = (cables.len() as f64 * fraction) as usize;
        // Deterministic choice without replacement: shuffle a copy.
        let mut chosen: Vec<LinkId> = cables.to_vec();
        rand::seq::SliceRandom::shuffle(&mut chosen[..], &mut rng);
        chosen.truncate(n);
        for link in chosen {
            let down_at = rng.gen_range(window.0..window.1);
            let down_for = mean_down_s * rng.gen_range(0.5..1.5);
            self.link_flaps.push(LinkFlap {
                link,
                down_at,
                up_at: Some(down_at + down_for),
            });
        }
        self
    }

    /// Compiles the plan against a graph into a time-sorted directed-link
    /// event schedule. Cable flaps expand to both directions; switch
    /// faults to every incident directed link. Validates that every
    /// time is finite and non-negative, recoveries follow their
    /// failures, and every link/switch id exists in `g`.
    pub fn compile(&self, g: &Graph) -> Result<FaultSchedule, FaultError> {
        self.control.validate()?;
        let mut events: Vec<LinkEvent> = Vec::new();
        let mut push_cable = |link: LinkId, time: f64, up: bool| {
            events.push(LinkEvent { time, link, up });
            if let Some(rev) = g.link(link).reverse {
                events.push(LinkEvent {
                    time,
                    link: rev,
                    up,
                });
            }
        };
        for f in &self.link_flaps {
            check_time("link flap down_at", f.down_at)?;
            if f.link.idx() >= g.link_count() {
                return Err(FaultError::UnknownLink { link: f.link.idx() });
            }
            push_cable(f.link, f.down_at, false);
            if let Some(up_at) = f.up_at {
                check_time("link flap up_at", up_at)?;
                if up_at <= f.down_at {
                    return Err(FaultError::RecoveryBeforeFailure {
                        down_at: f.down_at,
                        up_at,
                    });
                }
                push_cable(f.link, up_at, true);
            }
        }
        for s in &self.switch_faults {
            check_time("switch fault down_at", s.down_at)?;
            if s.switch.idx() >= g.node_count() {
                return Err(FaultError::UnknownSwitch {
                    switch: s.switch.idx(),
                });
            }
            let incident: Vec<LinkId> = g
                .link_ids()
                .filter(|&l| {
                    let info = g.link(l);
                    info.src == s.switch || info.dst == s.switch
                })
                .collect();
            if let Some(up_at) = s.up_at {
                check_time("switch fault up_at", up_at)?;
                if up_at <= s.down_at {
                    return Err(FaultError::RecoveryBeforeFailure {
                        down_at: s.down_at,
                        up_at,
                    });
                }
            }
            for l in incident {
                events.push(LinkEvent {
                    time: s.down_at,
                    link: l,
                    up: false,
                });
                if let Some(up_at) = s.up_at {
                    events.push(LinkEvent {
                        time: up_at,
                        link: l,
                        up: true,
                    });
                }
            }
        }
        // Total deterministic order: time, then down-before-up, then link.
        events.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.up.cmp(&b.up))
                .then(a.link.idx().cmp(&b.link.idx()))
        });
        Ok(FaultSchedule { events })
    }
}

fn check_time(which: &'static str, t: f64) -> Result<(), FaultError> {
    if !t.is_finite() || t < 0.0 {
        return Err(FaultError::InvalidTime { which, value: t });
    }
    Ok(())
}

/// A compiled, time-sorted directed-link event schedule.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Events sorted by `(time, down-before-up, link)`.
    pub events: Vec<LinkEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no events; the engine is byte-identical to a
    /// fault-free run).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the schedule carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Invariant-auditor tallies from a faulted simulation.
///
/// The two audited invariants:
/// 1. **No rate over a dead link** — at every allocation instant, no
///    subflow carries positive rate over a link that is down
///    ([`AuditReport::rate_on_down_link`] counts violations).
/// 2. **Routing-state consistency after every fault event** — after the
///    engine processes a fault event, every connection it kept active
///    still has at least one fully-alive path
///    ([`AuditReport::dead_active_conn`] counts violations).
///
/// [`AuditReport::parked`] and [`AuditReport::revived`] are not
/// violations: they count graceful degradation — connections that lost
/// all paths and were parked, and parked connections that re-routed
/// after a recovery event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AuditReport {
    /// `(instant, subflow)` rate checks performed.
    pub checks: usize,
    /// Violations of invariant 1: positive rate over a down link.
    pub rate_on_down_link: usize,
    /// Violations of invariant 2: an active connection with no alive
    /// path after a fault event.
    pub dead_active_conn: usize,
    /// Fault events the engine applied.
    pub events_applied: usize,
    /// Connections parked (all paths lost) over the run.
    pub parked: usize,
    /// Parked connections revived by a recovery event.
    pub revived: usize,
}

impl AuditReport {
    /// Total invariant violations (zero on a correct engine).
    pub fn violations(&self) -> usize {
        self.rate_on_down_link + self.dead_active_conn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NodeKind;

    fn line() -> (Graph, NodeId, LinkId, LinkId) {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::EdgeSwitch, "a");
        let b = g.add_node(NodeKind::EdgeSwitch, "b");
        let c = g.add_node(NodeKind::EdgeSwitch, "c");
        let (ab, _) = g.add_duplex_link(a, b, 10.0);
        let (bc, _) = g.add_duplex_link(b, c, 10.0);
        (g, b, ab, bc)
    }

    #[test]
    fn flap_expands_to_both_directions_in_order() {
        let (g, _, ab, _) = line();
        let mut plan = FaultPlan::new(1);
        plan.flap(ab, 1.0, Some(2.0));
        let sched = plan.compile(&g).unwrap();
        assert_eq!(sched.events.len(), 4);
        assert!(!sched.events[0].up && !sched.events[1].up);
        assert!(sched.events[2].up && sched.events[3].up);
        assert_eq!(sched.events[0].time, 1.0);
        assert_eq!(sched.events[2].time, 2.0);
    }

    #[test]
    fn switch_fault_downs_every_incident_directed_link() {
        let (g, b, _, _) = line();
        let mut plan = FaultPlan::new(1);
        plan.switch_fault(b, 0.5, None);
        let sched = plan.compile(&g).unwrap();
        // b touches two cables = 4 directed links, down only.
        assert_eq!(sched.events.len(), 4);
        assert!(sched.events.iter().all(|e| !e.up && e.time == 0.5));
    }

    #[test]
    fn same_seed_same_schedule() {
        let (g, _, ab, bc) = line();
        let cables = vec![ab, bc];
        let build = || {
            let mut p = FaultPlan::new(42);
            p.random_link_flaps(&cables, 1.0, 0.5, (0.0, 3.0));
            p.compile(&g).unwrap()
        };
        assert_eq!(build(), build());
        let mut other = FaultPlan::new(43);
        other.random_link_flaps(&cables, 1.0, 0.5, (0.0, 3.0));
        assert_ne!(build(), other.compile(&g).unwrap());
    }

    #[test]
    fn compile_rejects_bad_plans() {
        let (g, _, ab, _) = line();
        let mut p = FaultPlan::new(1);
        p.flap(ab, 2.0, Some(1.0));
        assert!(matches!(
            p.compile(&g),
            Err(FaultError::RecoveryBeforeFailure { .. })
        ));
        let mut p = FaultPlan::new(1);
        p.flap(LinkId(999), 1.0, None);
        assert!(matches!(p.compile(&g), Err(FaultError::UnknownLink { .. })));
        let mut p = FaultPlan::new(1);
        p.flap(ab, f64::NAN, None);
        assert!(matches!(p.compile(&g), Err(FaultError::InvalidTime { .. })));
        let mut p = FaultPlan::new(1);
        p.control.rule_fail_prob = 1.5;
        assert!(matches!(
            p.compile(&g),
            Err(FaultError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn empty_plan_compiles_to_empty_schedule() {
        let (g, _, _, _) = line();
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        assert!(plan.compile(&g).unwrap().is_empty());
    }
}
