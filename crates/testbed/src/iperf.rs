//! The Figure 10 experiment: live topology conversion under iPerf load.
//!
//! "On every server, we send iPerf traffic to the 3 servers with the same
//! index in the other 3 Pods. This traffic pattern enables the
//! measurement of the core bandwidth in the network. iPerf is set to
//! update the flow throughput every 0.5 second. Throughout the 5-minute
//! experiment, we change the network topology to different flat-tree
//! modes."
//!
//! The iPerf flows are long-lived, so each topology segment has a single
//! steady-state max-min allocation; what varies over time is the
//! conversion outage (OCS reconfiguration + rule swap, from the
//! `control` crate's Table 3 model) and TCP's ramp back to steady state,
//! modeled as an exponential approach with time constant `ramp_tau_s`.

use crate::rig::TestbedRig;
use flat_tree::{ModeAssignment, PodMode};
use flowsim::alloc::{connection_rates, ConnPaths};
use routing::SharedRouteTable;
use serde::{Deserialize, Serialize};

/// One mode segment of the experiment timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start time (s).
    pub start_s: f64,
    /// Mode active during the segment.
    pub mode: PodMode,
}

/// Parameters of the iPerf experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IperfParams {
    /// Mode timeline; must start at t = 0.
    pub segments: Vec<Segment>,
    /// Total experiment duration (s).
    pub duration_s: f64,
    /// Sampling interval (iPerf's 0.5 s).
    pub sample_interval_s: f64,
    /// TCP ramp time constant after a conversion (s).
    pub ramp_tau_s: f64,
}

impl IperfParams {
    /// The paper's 5-minute timeline: Clos → global → local → clos →
    /// global, 60 s each.
    pub fn paper_timeline() -> Self {
        Self {
            segments: vec![
                Segment {
                    start_s: 0.0,
                    mode: PodMode::Clos,
                },
                Segment {
                    start_s: 60.0,
                    mode: PodMode::Global,
                },
                Segment {
                    start_s: 120.0,
                    mode: PodMode::Local,
                },
                Segment {
                    start_s: 180.0,
                    mode: PodMode::Clos,
                },
                Segment {
                    start_s: 240.0,
                    mode: PodMode::Global,
                },
            ],
            duration_s: 300.0,
            sample_interval_s: 0.5,
            ramp_tau_s: 0.4,
        }
    }
}

/// Result of the experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IperfResult {
    /// `(time, total bidirectional core bandwidth in Gbps)` samples.
    pub samples: Vec<(f64, f64)>,
    /// Steady-state total throughput per mode (Gbps).
    pub steady_gbps: Vec<(PodMode, f64)>,
    /// Conversion delay (ms) charged at each segment boundary.
    pub conversion_ms: Vec<(PodMode, f64)>,
    /// Seconds from each conversion start until throughput first reaches
    /// 95 % of the segment's steady state.
    pub adapt_s: Vec<(PodMode, f64)>,
}

/// The counterpart traffic pattern: `(src index, dst index)` pairs over
/// the testbed's 24 servers.
pub fn counterpart_pairs(num_pods: usize, per_pod: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for p in 0..num_pods {
        for q in 0..num_pods {
            if p == q {
                continue;
            }
            for s in 0..per_pod {
                pairs.push((p * per_pod + s, q * per_pod + s));
            }
        }
    }
    pairs
}

/// Steady-state total iPerf throughput (Gbps) of a mode on the rig,
/// using the mode's profiled k (see [`best_k`]).
fn steady_state_gbps(rig: &TestbedRig, mode: PodMode) -> f64 {
    best_k(rig, mode).1
}

/// The k (number of concurrent paths) that maximizes this mode's
/// steady-state throughput, from {2, 4, 8}. §4.2.1: "the number of
/// concurrent paths, or k, can be different under each mode, because
/// each topology may have optimum transmission performance with a
/// different k" — the paper's own Figure 5 example assigns k = 16/8/4
/// to global/local/Clos.
///
/// Returns the winning k with its throughput (Gbps); each k is scored
/// once, and on a tie the larger k wins.
pub fn best_k(rig: &TestbedRig, mode: PodMode) -> (usize, f64) {
    [2usize, 4, 8]
        .into_iter()
        .map(|k| (k, steady_state_gbps_with_k(rig, mode, k)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty")
}

/// Steady-state total iPerf throughput (Gbps) for an explicit k.
pub fn steady_state_gbps_with_k(rig: &TestbedRig, mode: PodMode, k: usize) -> f64 {
    let inst = rig.instance(mode);
    let g = &inst.net.graph;
    let per_pod = inst.net.pod_servers[0].len();
    let pairs: Vec<_> = counterpart_pairs(inst.net.num_pods(), per_pod)
        .into_iter()
        .map(|(s, d)| (inst.net.servers[s], inst.net.servers[d]))
        .collect();
    let uplink = |s| g.server_uplink_switch(s).expect("rig servers are attached");
    let switch_pairs: Vec<_> = pairs.iter().map(|&(s, d)| (uplink(s), uplink(d))).collect();
    let table = SharedRouteTable::build_for_pairs(g, k, &switch_pairs);
    let conns: Vec<ConnPaths> = pairs
        .iter()
        .map(|&(s, d)| {
            let paths = table
                .server_paths(g, s, d)
                .expect("counterpart pair in the table");
            let w = 1.0 / paths.len().max(1) as f64;
            ConnPaths {
                paths,
                subflow_weight: w,
            }
        })
        .collect();
    connection_rates(&g.capacities(), &conns)
        .expect("paths routed on this graph")
        .iter()
        .sum()
}

/// Runs the full Figure 10 timeline.
pub fn run(rig: &TestbedRig, params: &IperfParams) -> IperfResult {
    assert!(!params.segments.is_empty());
    assert_eq!(params.segments[0].start_s, 0.0, "timeline starts at 0");
    let pods = rig.controller.flat_tree().pods();

    // Steady states and conversion delays per boundary. A mode's steady
    // state does not depend on the segment, so each mode is solved once.
    let mut steady = Vec::new();
    let mut conv_ms = Vec::new();
    let mut by_mode: Vec<(PodMode, f64)> = Vec::new();
    for seg in &params.segments {
        let gbps = match by_mode.iter().find(|&&(m, _)| m == seg.mode) {
            Some(&(_, v)) => v,
            None => {
                let v = steady_state_gbps(rig, seg.mode);
                by_mode.push((seg.mode, v));
                v
            }
        };
        steady.push(gbps);
        let report = rig
            .controller
            .convert(&ModeAssignment::uniform(pods, seg.mode));
        conv_ms.push(report.total_sequential_ms());
    }

    // Sample the bandwidth curve.
    let mut samples = Vec::new();
    let mut adapt = vec![f64::NAN; params.segments.len()];
    let mut t = 0.0;
    while t <= params.duration_s + 1e-9 {
        let si = params
            .segments
            .iter()
            .rposition(|s| s.start_s <= t + 1e-12)
            .expect("timeline covers t=0");
        let seg = &params.segments[si];
        let outage_s = if si == 0 { 0.0 } else { conv_ms[si] / 1e3 };
        let since = t - seg.start_s;
        let value = if since < outage_s {
            0.0
        } else {
            let ramp = if si == 0 {
                1.0
            } else {
                1.0 - (-(since - outage_s) / params.ramp_tau_s).exp()
            };
            steady[si] * ramp
        };
        if value >= 0.95 * steady[si] && adapt[si].is_nan() {
            adapt[si] = since;
        }
        samples.push((t, value));
        t += params.sample_interval_s;
    }

    IperfResult {
        samples,
        steady_gbps: params
            .segments
            .iter()
            .zip(&steady)
            .map(|(s, &v)| (s.mode, v))
            .collect(),
        conversion_ms: params
            .segments
            .iter()
            .zip(&conv_ms)
            .map(|(s, &v)| (s.mode, v))
            .collect(),
        adapt_s: params
            .segments
            .iter()
            .zip(&adapt)
            .map(|(s, &v)| (s.mode, v))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counterpart_pattern_shape() {
        let pairs = counterpart_pairs(4, 6);
        assert_eq!(pairs.len(), 24 * 3);
        // Same within-pod index, different pod.
        for &(s, d) in &pairs {
            assert_eq!(s % 6, d % 6);
            assert_ne!(s / 6, d / 6);
        }
    }

    #[test]
    fn global_mode_raises_core_bandwidth() {
        // The paper's headline: +27.6% core bandwidth from converting
        // Clos to global; local ≈ Clos. We assert the ordering and a
        // nontrivial gain.
        let rig = TestbedRig::new();
        let clos = steady_state_gbps(&rig, PodMode::Clos);
        let local = steady_state_gbps(&rig, PodMode::Local);
        let global = steady_state_gbps(&rig, PodMode::Global);
        assert!(global > clos * 1.10, "global {global} vs clos {clos}");
        assert!(
            (local - clos).abs() / clos < 0.25,
            "local {local} vs clos {clos}"
        );
        // Clos steady state is bounded by its 160G core.
        assert!(clos <= 160.0 + 1e-6);
    }

    #[test]
    fn timeline_produces_outage_and_ramp() {
        let rig = TestbedRig::new();
        let mut p = IperfParams::paper_timeline();
        p.duration_s = 130.0;
        let res = run(&rig, &p);
        assert_eq!(res.samples.len(), 261);
        // Sample right after the 60 s boundary is in outage (0 Gbps).
        let at_60_5 = res
            .samples
            .iter()
            .find(|&&(t, _)| (t - 60.5).abs() < 1e-9)
            .unwrap()
            .1;
        let steady_global = res.steady_gbps[1].1;
        assert!(at_60_5 < steady_global, "should still be ramping at 60.5s");
        // Adaptation completes within the paper's 2-2.5 s window.
        let adapt = res.adapt_s[1].1;
        assert!(adapt > 0.5 && adapt <= 3.0, "adapt time {adapt}");
        // Late in the segment we are at steady state.
        let at_100 = res
            .samples
            .iter()
            .find(|&&(t, _)| (t - 100.0).abs() < 1e-9)
            .unwrap()
            .1;
        assert!((at_100 - steady_global).abs() / steady_global < 0.01);
    }
}
