//! OpenFlow rule synthesis, counting, and the §4.2 network-state analysis.
//!
//! Two rule schemes are modeled, matching the paper:
//!
//! * **IP prefix pairs** (the testbed scheme of §5.3, for switches whose
//!   OpenFlow image cannot mask arbitrary bits): every transit hop of
//!   every k-shortest switch-pair path installs one rule matching
//!   `(src ingress switch, dst egress switch, path id, mode)`; egress
//!   switches additionally hold one delivery rule per attached server.
//! * **Source routing** (§4.2.2): `D × C` static per-TTL rules on every
//!   switch plus `S · k` route rules at ingress switches only.
//!
//! Rule-set *diffs* between topology modes drive the rule-deletion and
//! rule-addition terms of the Table 3 conversion-delay model.

use crate::addressing::TopologyModeId;
use crate::SharedRouteTable;
use netgraph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What a rule matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuleMatch {
    /// Transit rule: source/destination ingress-switch prefixes plus the
    /// path id (all three live inside the /24 prefixes of §4.2.1).
    IpPair {
        /// Ingress switch id of the source.
        src_switch: u16,
        /// Egress switch id of the destination.
        dst_switch: u16,
        /// Which of the k paths.
        path_id: u8,
        /// Topology mode bits.
        mode: u8,
    },
    /// Egress delivery rule: destination server under this switch.
    Delivery {
        /// Egress switch id (also implied by rule placement).
        dst_switch: u16,
        /// 6-bit server id.
        server_id: u8,
        /// Topology mode bits.
        mode: u8,
    },
    /// Static source-routing rule: hop index (from TTL) and port byte.
    SourceMac {
        /// Hop index `255 - ttl`.
        hop: u8,
        /// Extracted port byte.
        port: u8,
    },
}

/// A forwarding rule: match plus output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rule {
    /// Match fields.
    pub matcher: RuleMatch,
    /// Physical output port (adjacency index).
    pub out_port: u32,
}

/// Rules installed per switch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuleSet {
    /// Rules per switch node.
    pub per_switch: BTreeMap<NodeId, BTreeSet<Rule>>,
}

impl RuleSet {
    /// Total rule count across the network.
    pub fn total(&self) -> usize {
        self.per_switch.values().map(|s| s.len()).sum()
    }

    /// The largest per-switch rule count (the §5.3 metric: "the maximum
    /// number of OpenFlow rules per switch under each topology").
    pub fn max_per_switch(&self) -> usize {
        self.per_switch.values().map(|s| s.len()).max().unwrap_or(0)
    }

    /// `(deletions, additions)` needed to convert `self` into `to`.
    pub fn diff(&self, to: &RuleSet) -> RuleDiff {
        let mut deletes = 0;
        let mut adds = 0;
        let switches: BTreeSet<NodeId> = self
            .per_switch
            .keys()
            .chain(to.per_switch.keys())
            .copied()
            .collect();
        static EMPTY: BTreeSet<Rule> = BTreeSet::new();
        for sw in switches {
            let a = self.per_switch.get(&sw).unwrap_or(&EMPTY);
            let b = to.per_switch.get(&sw).unwrap_or(&EMPTY);
            deletes += a.difference(b).count();
            adds += b.difference(a).count();
        }
        RuleDiff { deletes, adds }
    }
}

impl RuleSet {
    /// Per-switch `(deleted, added)` churn converting `self` into `to`,
    /// ascending by switch id. Feeds the conversion stage plan (the rule
    /// push sharded over controllers).
    pub fn diff_per_switch(&self, to: &RuleSet) -> Vec<(NodeId, usize, usize)> {
        let switches: BTreeSet<NodeId> = self
            .per_switch
            .keys()
            .chain(to.per_switch.keys())
            .copied()
            .collect();
        static EMPTY: BTreeSet<Rule> = BTreeSet::new();
        switches
            .into_iter()
            .map(|sw| {
                let a = self.per_switch.get(&sw).unwrap_or(&EMPTY);
                let b = to.per_switch.get(&sw).unwrap_or(&EMPTY);
                (sw, a.difference(b).count(), b.difference(a).count())
            })
            .collect()
    }
}

/// Rule churn between two modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleDiff {
    /// Rules removed from switches.
    pub deletes: usize,
    /// Rules installed on switches.
    pub adds: usize,
}

/// Compiles the IP-prefix-pair rule set for one topology instance.
///
/// `k` is the number of concurrent paths. Ingress switches are all
/// switches with at least one attached server.
pub fn compile_ip_rules(g: &Graph, k: usize, mode: TopologyModeId) -> RuleSet {
    let table = SharedRouteTable::build(g, k);
    let mut set = RuleSet::default();
    // Ingress switches and their servers in id order.
    let mut ingress: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for s in g.servers() {
        if let Some(sw) = g.server_uplink_switch(s) {
            ingress.entry(sw).or_default().push(s);
        }
    }
    let switches: Vec<NodeId> = ingress.keys().copied().collect();
    // Delivery rules.
    for (&sw, servers) in &ingress {
        let entry = set.per_switch.entry(sw).or_default();
        for (sid, &srv) in servers.iter().enumerate() {
            let port = g
                .neighbors(sw)
                .iter()
                .position(|&(v, _)| v == srv)
                .expect("server port") as u32;
            entry.insert(Rule {
                matcher: RuleMatch::Delivery {
                    dst_switch: sw.0 as u16,
                    server_id: sid as u8,
                    mode: mode as u8,
                },
                out_port: port,
            });
        }
    }
    // Transit rules along every switch-pair path.
    for &a in &switches {
        for &b in &switches {
            if a == b {
                continue;
            }
            let paths = table.switch_paths(a, b).expect("ingress pair");
            #[cfg(feature = "strict-invariants")]
            debug_assert!(
                !paths.is_empty(),
                "ingress pair {a:?} -> {b:?} has no path: blackhole at compile time"
            );
            for (pid, path) in paths.iter().enumerate() {
                for i in 0..path.nodes.len() - 1 {
                    let sw = path.nodes[i];
                    let next = path.nodes[i + 1];
                    let port = g
                        .neighbors(sw)
                        .iter()
                        .position(|&(v, _)| v == next)
                        .expect("path port") as u32;
                    set.per_switch.entry(sw).or_default().insert(Rule {
                        matcher: RuleMatch::IpPair {
                            src_switch: a.0 as u16,
                            dst_switch: b.0 as u16,
                            path_id: pid as u8,
                            mode: mode as u8,
                        },
                        out_port: port,
                    });
                }
            }
        }
    }
    set
}

/// Compiles the source-routing rule set: static `D × C` per-TTL rules on
/// every switch plus `S · k` route rules at each ingress switch (one per
/// reachable egress switch per path).
pub fn compile_source_routing_rules(
    g: &Graph,
    k: usize,
    diameter: usize,
    mode: TopologyModeId,
) -> RuleSet {
    let table = SharedRouteTable::build(g, k);
    let mut set = RuleSet::default();
    // Static transit rules: identical on every switch; the out_port equals
    // the matched port byte (the rule semantics of §4.2.2).
    for sw in g.switches() {
        let ports = g.degree(sw);
        let entry = set.per_switch.entry(sw).or_default();
        for hop in 0..diameter.min(crate::source_routing::MAX_HOPS) as u8 {
            for port in 0..ports.min(256) as u16 {
                entry.insert(Rule {
                    matcher: RuleMatch::SourceMac {
                        hop,
                        port: port as u8,
                    },
                    out_port: port as u32,
                });
            }
        }
    }
    // Ingress route rules: at switch `a`, one rule per (egress, path id)
    // — the rule writes the MAC and therefore matches on the destination
    // /24 prefix, modeled as an IpPair with src = self.
    let ingress: BTreeSet<NodeId> = g
        .servers()
        .iter()
        .filter_map(|&s| g.server_uplink_switch(s))
        .collect();
    for &a in &ingress {
        for &b in &ingress {
            if a == b {
                continue;
            }
            let n_paths = table.switch_paths(a, b).expect("ingress pair").len();
            let entry = set.per_switch.entry(a).or_default();
            for pid in 0..n_paths {
                entry.insert(Rule {
                    matcher: RuleMatch::IpPair {
                        src_switch: a.0 as u16,
                        dst_switch: b.0 as u16,
                        path_id: pid as u8,
                        mode: mode as u8,
                    },
                    out_port: 0,
                });
            }
        }
    }
    set
}

/// The §4.2 state-explosion arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateAnalysis {
    /// Naive per-switch states: `n² · k · L / N` (server-pair rules).
    pub naive_per_switch: f64,
    /// Ingress/egress-level states: `S² · k · L / N`.
    pub switch_level_per_switch: f64,
    /// With source routing: per-*ingress* states `S · k`.
    pub source_routed_per_ingress: f64,
    /// Static transit rules `D × C`.
    pub transit_static: usize,
}

impl StateAnalysis {
    /// Computes all four quantities.
    ///
    /// * `n` servers, `big_n` switches, `s` ingress/egress switches,
    /// * `k` concurrent paths, `avg_len` average path length (switch
    ///   hops), `diameter` and `port_count` for the static rules.
    pub fn compute(
        n: usize,
        big_n: usize,
        s: usize,
        k: usize,
        avg_len: f64,
        diameter: usize,
        port_count: usize,
    ) -> Self {
        let nf = n as f64;
        let sf = s as f64;
        let kf = k as f64;
        let nn = big_n.max(1) as f64;
        Self {
            naive_per_switch: nf * nf * kf * avg_len / nn,
            switch_level_per_switch: sf * sf * kf * avg_len / nn,
            source_routed_per_ingress: sf * kf,
            transit_static: diameter * port_count,
        }
    }

    /// The aggregation factor the paper quotes ("reduced by a factor of
    /// 400 to 1600" for 20–40 servers per ToR).
    pub fn aggregation_factor(&self) -> f64 {
        self.naive_per_switch / self.switch_level_per_switch.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
    use topology::ClosParams;

    fn instances() -> Vec<(TopologyModeId, netgraph::Graph)> {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        [
            (TopologyModeId::Global, PodMode::Global),
            (TopologyModeId::Local, PodMode::Local),
            (TopologyModeId::Clos, PodMode::Clos),
        ]
        .into_iter()
        .map(|(mid, pm)| {
            (
                mid,
                ft.instantiate(&ModeAssignment::uniform(4, pm)).net.graph,
            )
        })
        .collect()
    }

    #[test]
    fn ip_rules_nonempty_and_bounded() {
        for (mid, g) in instances() {
            let rules = compile_ip_rules(&g, 2, mid);
            assert!(rules.total() > 0);
            assert!(rules.max_per_switch() <= rules.total());
            // Every switch holding rules is a real switch.
            for sw in rules.per_switch.keys() {
                assert!(g.node(*sw).kind.is_switch());
            }
        }
    }

    #[test]
    fn more_ingress_switches_more_rules() {
        // Global mode spreads servers over more switches than Clos mode,
        // so its rule population is larger (this is why the testbed saw
        // 242 vs 76 rules, §5.3).
        let insts = instances();
        let global = compile_ip_rules(&insts[0].1, 2, insts[0].0);
        let clos = compile_ip_rules(&insts[2].1, 2, insts[2].0);
        assert!(
            global.max_per_switch() > clos.max_per_switch(),
            "global {} vs clos {}",
            global.max_per_switch(),
            clos.max_per_switch()
        );
    }

    #[test]
    fn diff_counts_rule_churn() {
        let insts = instances();
        let a = compile_ip_rules(&insts[0].1, 2, insts[0].0);
        let b = compile_ip_rules(&insts[2].1, 2, insts[2].0);
        let d = a.diff(&b);
        assert!(d.deletes > 0 && d.adds > 0);
        // Converting to self is free.
        let zero = a.diff(&a);
        assert_eq!((zero.deletes, zero.adds), (0, 0));
        // Diff sizes are consistent with totals.
        assert_eq!(a.total() - d.deletes, b.total() - d.adds);
    }

    #[test]
    fn source_routing_shrinks_transit_state() {
        let insts = instances();
        let g = &insts[0].1;
        let ip = compile_ip_rules(g, 4, insts[0].0);
        let sr = compile_source_routing_rules(g, 4, 4, insts[0].0);
        // Max per switch must drop for transit-heavy switches: compare the
        // largest non-ingress switch load. (Static rules are D×C which is
        // small here.)
        assert!(sr.max_per_switch() <= ip.max_per_switch());
    }

    #[test]
    fn state_analysis_formulas() {
        // Paper's example: 20-40 servers per ToR -> 400-1600x reduction.
        let a = StateAnalysis::compute(4096, 320, 128, 8, 5.0, 4, 48);
        assert!((a.aggregation_factor() - (4096.0f64 / 128.0).powi(2)).abs() < 1e-6);
        assert_eq!(a.transit_static, 192);
        assert!((a.source_routed_per_ingress - 1024.0).abs() < 1e-9);
    }
}
