//! Pod–core wiring patterns (§3.2, Figure 4).
//!
//! In flat-tree the `h/r` core connectors associated with edge switch
//! `E_j` of every pod are connected to the same group of `h/r` core
//! switches `C[(j·h/r .. j·h/r + h/r) mod C]`. Within that group a pod's
//! connectors are laid out consecutively in the order
//!
//! > `m` blade-B connectors, `n` blade-A connectors,
//! > `h/r − m − n` aggregation connectors,
//!
//! rotated per pod:
//!
//! * **Pattern 1** "packs blade B connectors continuously Pod by Pod":
//!   pod `p` starts at offset `p·m (mod h/r)`;
//! * **Pattern 2** "moves them forward by one more core switch as the Pod
//!   index grows": pod `p` starts at offset `p·(m+1) (mod h/r)`.
//!
//! Both wrap around within the group. The module also provides the
//! checkers for the two §3.2 properties used by tests:
//! servers land uniformly on cores, and every core carries an equal
//! number of links of each type.

use crate::layout::FlatTreeParams;
use serde::{Deserialize, Serialize};

/// Which §3.2 rotation rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WiringPattern {
    /// Offset `p·m` per pod. Preferred when `h/r` is *not* a multiple of
    /// `m` (better use of adjacent-pod side links, §3.2).
    Pattern1,
    /// Offset `p·(m+1)` per pod. Preferred when `h/r` is a multiple of `m`
    /// and Pattern 1 would repeat identically across pods.
    Pattern2,
}

impl WiringPattern {
    /// Rotation offset of pod `p` within an edge's core group.
    fn pod_offset(self, p: usize, m: usize, group_size: usize) -> usize {
        match self {
            WiringPattern::Pattern1 => (p * m) % group_size,
            WiringPattern::Pattern2 => (p * (m + 1)) % group_size,
        }
    }

    /// The pattern §3.2 recommends for a given layout: the one whose
    /// per-pod offset sequence has the longer period, i.e. the greater
    /// wiring diversity ("when h/r is a multiple of m, different Pods are
    /// likely to repeat the same pattern, thus reducing the wiring
    /// diversity; in this case pattern 2 is more favorable"). Ties go to
    /// Pattern 1, which §3.2 states performs better otherwise.
    pub fn recommended(m: usize, group_size: usize) -> Self {
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        if group_size == 0 {
            return WiringPattern::Pattern1;
        }
        let period1 = group_size / gcd(m.max(1), group_size);
        let period2 = group_size / gcd(m + 1, group_size);
        if period2 > period1 {
            WiringPattern::Pattern2
        } else {
            WiringPattern::Pattern1
        }
    }
}

/// The role a core connector plays, fixing its slot inside the per-pod
/// consecutive run (blade B first, then blade A, then aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectorRole {
    /// Blade-B (6-port) connector, row index `0..m`.
    BladeB(usize),
    /// Blade-A (4-port) connector, row index `0..n`.
    BladeA(usize),
    /// Remaining aggregation connector, index `0..h/r - m - n`.
    Agg(usize),
}

impl ConnectorRole {
    /// Slot of this connector inside the per-pod run of length `h/r`.
    pub fn slot(self, m: usize, n: usize) -> usize {
        match self {
            ConnectorRole::BladeB(i) => {
                debug_assert!(i < m);
                i
            }
            ConnectorRole::BladeA(i) => {
                debug_assert!(i < n);
                m + i
            }
            ConnectorRole::Agg(t) => m + n + t,
        }
    }
}

/// Global index of the core switch wired to a given connector.
///
/// `pod` is the pod index, `edge_in_pod` is `j ∈ 0..d`, and `role`
/// identifies the connector within `E_j`'s `h/r`-connector share.
pub fn core_of(
    params: &FlatTreeParams,
    pattern: WiringPattern,
    pod: usize,
    edge_in_pod: usize,
    role: ConnectorRole,
) -> usize {
    let gs = params.clos.h_over_r();
    let c = params.clos.num_cores;
    let start = (edge_in_pod * gs) % c;
    let off = pattern.pod_offset(pod, params.m, gs);
    let pos = (off + role.slot(params.m, params.n)) % gs;
    (start + pos) % c
}

/// Checks Property 1 of §3.2 on connector *assignments* (independent of a
/// built graph): returns the number of blade-B (= relocated-server)
/// connectors landing on each core, ascending by core index.
#[cfg(test)]
fn server_connectors_per_core(params: &FlatTreeParams, pattern: WiringPattern) -> Vec<usize> {
    let mut counts = vec![0usize; params.clos.num_cores];
    for pod in 0..params.clos.pods {
        for j in 0..params.clos.edges_per_pod {
            for i in 0..params.m {
                counts[core_of(params, pattern, pod, j, ConnectorRole::BladeB(i))] += 1;
            }
        }
    }
    counts
}

/// Checks Property 2 of §3.2: `(blade_b, blade_a, agg)` connector counts
/// per core.
pub fn link_type_counts_per_core(
    params: &FlatTreeParams,
    pattern: WiringPattern,
) -> Vec<(usize, usize, usize)> {
    let gs = params.clos.h_over_r();
    let mut counts = vec![(0usize, 0usize, 0usize); params.clos.num_cores];
    for pod in 0..params.clos.pods {
        for j in 0..params.clos.edges_per_pod {
            for i in 0..params.m {
                counts[core_of(params, pattern, pod, j, ConnectorRole::BladeB(i))].0 += 1;
            }
            for i in 0..params.n {
                counts[core_of(params, pattern, pod, j, ConnectorRole::BladeA(i))].1 += 1;
            }
            for t in 0..gs - params.m - params.n {
                counts[core_of(params, pattern, pod, j, ConnectorRole::Agg(t))].2 += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::ClosParams;

    fn params() -> FlatTreeParams {
        FlatTreeParams::new(ClosParams::mini(), 1, 1)
    }

    #[test]
    fn offsets_match_section_3_2() {
        assert_eq!(WiringPattern::Pattern1.pod_offset(3, 2, 8), 6);
        assert_eq!(WiringPattern::Pattern2.pod_offset(3, 2, 8), 1); // 3*3 % 8
        assert_eq!(WiringPattern::Pattern1.pod_offset(5, 2, 8), 2); // wraps
    }

    #[test]
    fn recommended_pattern_rule() {
        // h/r = 8 multiple of m = 2: pattern 1 repeats every 4 pods while
        // pattern 2 (step 3) covers all 8 offsets -> pattern 2.
        assert_eq!(WiringPattern::recommended(2, 8), WiringPattern::Pattern2);
        // m = 3, h/r = 8: pattern 1 already has full period -> pattern 1.
        assert_eq!(WiringPattern::recommended(3, 8), WiringPattern::Pattern1);
        // m = 1 always has full period under pattern 1.
        assert_eq!(WiringPattern::recommended(1, 4), WiringPattern::Pattern1);
        assert_eq!(WiringPattern::recommended(0, 8), WiringPattern::Pattern1);
    }

    #[test]
    fn connector_slots_are_b_then_a_then_agg() {
        let (m, n) = (2, 3);
        assert_eq!(ConnectorRole::BladeB(1).slot(m, n), 1);
        assert_eq!(ConnectorRole::BladeA(0).slot(m, n), 2);
        assert_eq!(ConnectorRole::Agg(0).slot(m, n), 5);
    }

    #[test]
    fn every_connector_lands_in_its_group() {
        let p = params();
        let gs = p.clos.h_over_r();
        for pod in 0..p.clos.pods {
            for j in 0..p.clos.edges_per_pod {
                for role in [
                    ConnectorRole::BladeB(0),
                    ConnectorRole::BladeA(0),
                    ConnectorRole::Agg(0),
                ] {
                    let c = core_of(&p, WiringPattern::Pattern1, pod, j, role);
                    let start = (j * gs) % p.clos.num_cores;
                    let in_group = (0..gs).any(|t| (start + t) % p.clos.num_cores == c);
                    assert!(in_group, "connector escaped its core group");
                }
            }
        }
    }

    /// A layout where Pattern 2's offset step (m+1 = 2) is coprime with
    /// h/r = 5, so both §3.2 properties hold exactly for it.
    fn params_p2() -> FlatTreeParams {
        let clos = ClosParams {
            pods: 5,
            edges_per_pod: 2,
            aggs_per_pod: 2,
            servers_per_edge: 4,
            edge_uplinks: 2,
            agg_uplinks: 5,
            num_cores: 10,
            link_gbps: 10.0,
        };
        FlatTreeParams::new(clos, 1, 1)
    }

    #[test]
    fn property_1_uniform_servers() {
        // Pattern 1 on mini (m = 1, offsets 0..4 cover the group exactly).
        let p = params();
        let counts = server_connectors_per_core(&p, WiringPattern::Pattern1);
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        // Pattern 2 on a coprime layout.
        let p = params_p2();
        let counts = server_connectors_per_core(&p, WiringPattern::Pattern2);
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn property_2_equal_link_types() {
        let p = params();
        let counts = link_type_counts_per_core(&p, WiringPattern::Pattern1);
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        let p = params_p2();
        let counts = link_type_counts_per_core(&p, WiringPattern::Pattern2);
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn per_pod_contribution_is_bounded() {
        // Regardless of pattern, each pod contributes at most one blade-B
        // connector per core position in a group, so no core exceeds
        // `pods` server connectors from a single edge group.
        for (p, pat) in [
            (params(), WiringPattern::Pattern2),
            (params_p2(), WiringPattern::Pattern1),
        ] {
            let counts = server_connectors_per_core(&p, pat);
            assert!(counts.iter().all(|&c| c <= p.clos.pods * p.m));
            let total: usize = counts.iter().sum();
            assert_eq!(total, p.clos.pods * p.clos.edges_per_pod * p.m);
        }
    }

    #[test]
    fn patterns_differ_when_divisible() {
        // With m = 2 and h/r = 4 (mini has h/r = 4) the two patterns give
        // different core assignments for pod >= 1.
        let p = FlatTreeParams::new(ClosParams::mini(), 2, 1);
        let a = core_of(&p, WiringPattern::Pattern1, 1, 0, ConnectorRole::BladeB(0));
        let b = core_of(&p, WiringPattern::Pattern2, 1, 0, ConnectorRole::BladeB(0));
        assert_ne!(a, b);
    }
}
