//! Structural invariant predicates shared by the static verifier
//! (`ftcheck`) and the `strict-invariants` dynamic assertions.
//!
//! Every predicate is a pure function from layout/instance data to a list
//! of [`Violation`]s, so the `verify` crate and the `debug_assert!` hooks
//! at construction sites check literally the same code. The predicates
//! deliberately re-derive expectations from the *layout algebra* (converter
//! attachments, §3.2 connector roles, §3.3 side pairs) rather than from the
//! graph builder, so a regression in `build.rs` shows up as a mismatch
//! instead of being self-consistent.

use crate::build::{FlatTree, FlatTreeInstance};
use crate::converter::{Blade, ConverterConfig, CoreAttachment, ServerAttachment};
use crate::interpod::{pair_links, side_peer_column, SideEnd};
use crate::layout::Layout;
use crate::wiring::{core_of, ConnectorRole};
use netgraph::NodeId;
use std::collections::BTreeMap;

/// One violated invariant: where, and what went wrong.
///
/// The verifier layers rule codes, severities and fix hints on top; inside
/// this crate a violation is just an explained location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable location, e.g. a node label or converter id.
    pub location: String,
    /// What was expected vs. found.
    pub detail: String,
}

impl Violation {
    fn new(location: impl Into<String>, detail: impl Into<String>) -> Self {
        Self {
            location: location.into(),
            detail: detail.into(),
        }
    }
}

/// Physical cable count per node implied by the layout and the converter
/// configurations, independent of the built graph.
///
/// Each converter circuit contributes exactly one cable per active
/// connector, so the expectation follows from `server_attachment` /
/// `core_attachment` plus the §3.3 side-pair table — the same algebra the
/// builder uses, but counted per node instead of materialized as links.
fn expected_ports(ft: &FlatTree, inst: &FlatTreeInstance) -> BTreeMap<NodeId, usize> {
    let layout = &ft.layout;
    let p = &layout.params;
    let clos = &p.clos;
    let gs = clos.h_over_r();
    let mut ports: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut add = |n: NodeId, c: usize| *ports.entry(n).or_insert(0) += c;

    let per_pair = clos.edge_uplinks / clos.aggs_per_pod;
    for pod in 0..clos.pods {
        for j in 0..clos.edges_per_pod {
            let e = inst.pod_edges[pod][j];
            let a = inst.pod_aggs[pod][j / clos.r()];
            // Fixed servers stay on the edge in every mode.
            for &srv in &inst.edge_servers[pod * clos.edges_per_pod + j][p.m + p.n..] {
                add(srv, 1);
                add(e, 1);
            }
            // Edge-agg fabric is untouched by conversion.
            for &agg in &inst.pod_aggs[pod] {
                add(e, per_pair);
                add(agg, per_pair);
            }
            // Direct (converter-free) aggregation-core connectors.
            for t in 0..gs - p.m - p.n {
                let c = inst.cores[core_of(p, p.wiring, pod, j, ConnectorRole::Agg(t))];
                add(a, 1);
                add(c, 1);
            }
        }
    }

    for conv in &layout.converters {
        let cfg = inst.configs[conv.id];
        let e = inst.pod_edges[conv.pod][conv.edge];
        let a = inst.pod_aggs[conv.pod][conv.agg];
        let c = inst.cores[conv.core];
        let s = inst.edge_servers[conv.pod * clos.edges_per_pod + conv.edge][conv.server_slot];
        add(s, 1);
        match cfg.server_attachment() {
            ServerAttachment::Edge => add(e, 1),
            ServerAttachment::Agg => add(a, 1),
            ServerAttachment::Core => add(c, 1),
        }
        match cfg.core_attachment() {
            CoreAttachment::Agg => {
                add(a, 1);
                add(c, 1);
            }
            CoreAttachment::Edge => {
                add(e, 1);
                add(c, 1);
            }
            CoreAttachment::Server => {} // the server cable above is this circuit
        }
    }

    for (right_id, left_id) in layout.side_pairs() {
        let right = &layout.converters[right_id];
        let left = &layout.converters[left_id];
        for (r_end, l_end) in pair_links(inst.configs[right_id], inst.configs[left_id]) {
            let r_node = match r_end {
                SideEnd::Edge => inst.pod_edges[right.pod][right.edge],
                SideEnd::Agg => inst.pod_aggs[right.pod][right.agg],
            };
            let l_node = match l_end {
                SideEnd::Edge => inst.pod_edges[left.pod][left.edge],
                SideEnd::Agg => inst.pod_aggs[left.pod][left.agg],
            };
            add(r_node, 1);
            add(l_node, 1);
        }
    }
    ports
}

/// Cable count per node actually present in the instance's graph
/// (aggregated capacities divided by the base link rate).
pub fn actual_ports(inst: &FlatTreeInstance) -> BTreeMap<NodeId, usize> {
    let g = &inst.net.graph;
    let unit = inst_link_gbps(inst);
    let mut ports: BTreeMap<NodeId, usize> = BTreeMap::new();
    for l in g.link_ids() {
        let info = g.link(l);
        // Count each duplex cable once, at its source end; the reverse
        // direction credits the other end.
        *ports.entry(info.src).or_insert(0) += (info.capacity_gbps / unit).round() as usize;
    }
    ports
}

fn inst_link_gbps(inst: &FlatTreeInstance) -> f64 {
    // Instances always carry at least one link; all share the base rate as
    // their unit, recoverable from any server cable (multiplicity 1).
    inst.net
        .graph
        .link_ids()
        .map(|l| inst.net.graph.link(l).capacity_gbps)
        .fold(f64::INFINITY, f64::min)
}

/// Per-switch-type port budgets: every node must carry exactly the cable
/// count the layout algebra predicts for its configuration.
///
/// This subsumes degree regularity (uniform modes give every switch of a
/// layer the same expected count) and catches both oversubscribed ports
/// (extra cables) and dark ports that should be lit.
pub fn port_violations(ft: &FlatTree, inst: &FlatTreeInstance) -> Vec<Violation> {
    let expected = expected_ports(ft, inst);
    let actual = actual_ports(inst);
    let g = &inst.net.graph;
    let mut out = Vec::new();
    for n in g.node_ids() {
        let want = expected.get(&n).copied().unwrap_or(0);
        let got = actual.get(&n).copied().unwrap_or(0);
        if want != got {
            out.push(Violation::new(
                g.node(n).label.clone(),
                format!("expected {want} cable(s), found {got}"),
            ));
        }
    }
    out
}

/// Every converter configuration must be valid for its blade's port count
/// (4-port converters cannot take `Side`/`Cross`, §2.2).
pub fn config_violations(layout: &Layout, configs: &[ConverterConfig]) -> Vec<Violation> {
    let mut out = Vec::new();
    if configs.len() != layout.converters.len() {
        out.push(Violation::new(
            "configs",
            format!(
                "configuration vector length {} != converter count {}",
                configs.len(),
                layout.converters.len()
            ),
        ));
        return out;
    }
    for (conv, &cfg) in layout.converters.iter().zip(configs) {
        if !cfg.valid_for(conv.blade.kind()) {
            out.push(Violation::new(
                format!("converter{}", conv.id),
                format!(
                    "{cfg:?} is not valid for a {:?}-blade converter",
                    conv.blade
                ),
            ));
        }
    }
    out
}

/// Structural symmetry of the §3.3 shifting side-link pattern, checked on
/// the layout itself: every blade-B converter sits in exactly one pair,
/// pairs join a pod's right side to the next pod's left side in the same
/// row, and the column mapping follows `side_peer_column` (hence is a
/// permutation per row).
pub fn side_pattern_violations(layout: &Layout) -> Vec<Violation> {
    let p = &layout.params;
    let half = p.cols_per_side();
    let mut out = Vec::new();
    let mut seen = vec![0usize; layout.converters.len()];
    for (right_id, left_id) in layout.side_pairs() {
        let right = &layout.converters[right_id];
        let left = &layout.converters[left_id];
        seen[right_id] += 1;
        seen[left_id] += 1;
        let loc = format!("side pair ({right_id}, {left_id})");
        if right.blade != Blade::B || left.blade != Blade::B {
            out.push(Violation::new(
                &loc,
                "side pair includes a 4-port converter",
            ));
        }
        if left.pod != (right.pod + 1) % p.clos.pods {
            out.push(Violation::new(
                &loc,
                format!(
                    "pair joins pods {} and {}, which are not adjacent",
                    right.pod, left.pod
                ),
            ));
        }
        if right.row != left.row {
            out.push(Violation::new(
                &loc,
                format!("rows differ: {} vs {}", right.row, left.row),
            ));
        }
        let want = side_peer_column(left.row, left.col, half);
        if right.col != want {
            out.push(Violation::new(
                &loc,
                format!(
                    "right column {} should be {} = shift({}, {})",
                    right.col, want, left.row, left.col
                ),
            ));
        }
    }
    let expected_uses = if p.wrap_side_links || p.clos.pods == 0 {
        vec![1usize; layout.converters.len()]
    } else {
        // Without the ring, pod 0's left side and the last pod's right
        // side stay unplugged.
        layout
            .converters
            .iter()
            .map(|c| {
                let last = p.clos.pods - 1;
                let unplugged = (c.pod == 0 && c.side == crate::converter::PodSide::Left)
                    || (c.pod == last && c.side == crate::converter::PodSide::Right);
                usize::from(!unplugged)
            })
            .collect()
    };
    for (conv, (&n, &want)) in layout
        .converters
        .iter()
        .zip(seen.iter().zip(&expected_uses))
    {
        if conv.blade == Blade::B && n != want {
            out.push(Violation::new(
                format!("converter{}", conv.id),
                format!("participates in {n} side pair(s), expected {want}"),
            ));
        }
        if conv.blade == Blade::A && n != 0 {
            out.push(Violation::new(
                format!("converter{}", conv.id),
                "4-port converter appears in a side pair",
            ));
        }
    }
    out
}

/// The inter-pod link multiset actually present in the graph must equal
/// what the §3.3 pair table predicts — no dark bundle lit, no lit bundle
/// dark, no cable landed on the wrong column.
pub fn side_wiring_violations(ft: &FlatTree, inst: &FlatTreeInstance) -> Vec<Violation> {
    let layout = &ft.layout;
    let g = &inst.net.graph;
    // Pod of each edge/agg switch, for classifying links as inter-pod.
    let mut pod_of: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (pod, edges) in inst.pod_edges.iter().enumerate() {
        for &e in edges {
            pod_of.insert(e, pod);
        }
    }
    for (pod, aggs) in inst.pod_aggs.iter().enumerate() {
        for &a in aggs {
            pod_of.insert(a, pod);
        }
    }

    let mut expected: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for (right_id, left_id) in layout.side_pairs() {
        let right = &layout.converters[right_id];
        let left = &layout.converters[left_id];
        for (r_end, l_end) in pair_links(inst.configs[right_id], inst.configs[left_id]) {
            let r_node = match r_end {
                SideEnd::Edge => inst.pod_edges[right.pod][right.edge],
                SideEnd::Agg => inst.pod_aggs[right.pod][right.agg],
            };
            let l_node = match l_end {
                SideEnd::Edge => inst.pod_edges[left.pod][left.edge],
                SideEnd::Agg => inst.pod_aggs[left.pod][left.agg],
            };
            let key = if r_node <= l_node {
                (r_node, l_node)
            } else {
                (l_node, r_node)
            };
            *expected.entry(key).or_insert(0) += 1;
        }
    }

    let unit = inst_link_gbps(inst);
    let mut actual: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for l in g.link_ids() {
        let info = g.link(l);
        if info.src >= info.dst {
            continue; // count each duplex cable once
        }
        let (Some(&pa), Some(&pb)) = (pod_of.get(&info.src), pod_of.get(&info.dst)) else {
            continue; // involves a core or a server: not a side link
        };
        if pa == pb {
            continue; // intra-pod fabric
        }
        *actual.entry((info.src, info.dst)).or_insert(0) +=
            (info.capacity_gbps / unit).round() as usize;
    }

    let mut out = Vec::new();
    let keys: Vec<(NodeId, NodeId)> = expected.keys().chain(actual.keys()).copied().collect();
    let mut keys = keys;
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let want = expected.get(&key).copied().unwrap_or(0);
        let got = actual.get(&key).copied().unwrap_or(0);
        if want != got {
            out.push(Violation::new(
                format!("{} -- {}", g.node(key.0).label, g.node(key.1).label),
                format!("expected {want} side cable(s), found {got}"),
            ));
        }
    }
    out
}

/// The undirected cable multiset of an instance, keyed by ordered node
/// pair, in base-rate units. Server cables count as one.
fn link_multiset(inst: &FlatTreeInstance) -> BTreeMap<(NodeId, NodeId), usize> {
    let g = &inst.net.graph;
    let unit = inst_link_gbps(inst);
    let mut set = BTreeMap::new();
    for l in g.link_ids() {
        let info = g.link(l);
        if info.src >= info.dst {
            continue;
        }
        *set.entry((info.src, info.dst)).or_insert(0) +=
            (info.capacity_gbps / unit).round() as usize;
    }
    set
}

/// A mode-to-mode conversion may only touch circuits that some converter
/// switch can re-program: each changed cable must be explainable as one of
/// the endpoints a converter configuration can produce (its server-, core-
/// or side-port circuits). The fixed plant — fixed servers, the edge-agg
/// fabric, converter-free agg-core connectors — must be identical.
pub fn conversion_delta_violations(
    ft: &FlatTree,
    from: &FlatTreeInstance,
    to: &FlatTreeInstance,
) -> Vec<Violation> {
    let layout = &ft.layout;
    let clos = &layout.params.clos;
    // Every node pair some converter circuit can join.
    let mut allowed: std::collections::BTreeSet<(NodeId, NodeId)> =
        std::collections::BTreeSet::new();
    let mut allow = |a: NodeId, b: NodeId| {
        allowed.insert(if a <= b { (a, b) } else { (b, a) });
    };
    for conv in &layout.converters {
        let e = from.pod_edges[conv.pod][conv.edge];
        let a = from.pod_aggs[conv.pod][conv.agg];
        let c = from.cores[conv.core];
        let s = from.edge_servers[conv.pod * clos.edges_per_pod + conv.edge][conv.server_slot];
        allow(s, e);
        allow(s, a);
        allow(s, c);
        allow(e, c);
        allow(a, c);
    }
    for (right_id, left_id) in layout.side_pairs() {
        let right = &layout.converters[right_id];
        let left = &layout.converters[left_id];
        let re = from.pod_edges[right.pod][right.edge];
        let ra = from.pod_aggs[right.pod][right.agg];
        let le = from.pod_edges[left.pod][left.edge];
        let la = from.pod_aggs[left.pod][left.agg];
        allow(re, le);
        allow(ra, la);
        allow(re, la);
        allow(ra, le);
    }

    let before = link_multiset(from);
    let after = link_multiset(to);
    let mut keys: Vec<(NodeId, NodeId)> = before.keys().chain(after.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    let g = &from.net.graph;
    let mut out = Vec::new();
    for key in keys {
        let b = before.get(&key).copied().unwrap_or(0);
        let a = after.get(&key).copied().unwrap_or(0);
        if b != a && !allowed.contains(&key) {
            out.push(Violation::new(
                format!("{} -- {}", g.node(key.0).label, g.node(key.1).label),
                format!(
                    "cable count changed {b} -> {a} on a pair no converter circuit can re-program"
                ),
            ));
        }
    }
    out
}

/// Every server must have exactly one uplink (§4.1: "servers have one
/// uplink only"), attached to a switch.
pub fn server_attachment_violations(inst: &FlatTreeInstance) -> Vec<Violation> {
    let g = &inst.net.graph;
    let mut out = Vec::new();
    for s in g.servers() {
        let nbrs = g.neighbors(s);
        if nbrs.len() != 1 {
            out.push(Violation::new(
                g.node(s).label.clone(),
                format!("server has {} uplink(s), expected exactly 1", nbrs.len()),
            ));
            continue;
        }
        let (sw, _) = nbrs[0];
        if !g.node(sw).kind.is_switch() {
            out.push(Violation::new(
                g.node(s).label.clone(),
                format!("server uplink leads to non-switch {}", g.node(sw).label),
            ));
        }
    }
    out
}

/// Runs every graph-level predicate; used by the `strict-invariants`
/// assertion hook in the builder.
pub fn all_violations(ft: &FlatTree, inst: &FlatTreeInstance) -> Vec<Violation> {
    let mut out = config_violations(&ft.layout, &inst.configs);
    out.extend(side_pattern_violations(&ft.layout));
    out.extend(port_violations(ft, inst));
    out.extend(side_wiring_violations(ft, inst));
    out.extend(server_attachment_violations(inst));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FlatTreeParams;
    use crate::modes::{ModeAssignment, PodMode};
    use topology::ClosParams;

    fn ft() -> FlatTree {
        FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap()
    }

    #[test]
    fn clean_instances_have_no_violations() {
        let f = ft();
        for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
            let inst = f.instantiate(&ModeAssignment::uniform(f.pods(), mode));
            assert_eq!(all_violations(&f, &inst), vec![], "{mode:?}");
        }
        let hybrid = ModeAssignment::hybrid(vec![
            PodMode::Clos,
            PodMode::Global,
            PodMode::Local,
            PodMode::Global,
        ]);
        let inst = f.instantiate(&hybrid);
        assert_eq!(all_violations(&f, &inst), vec![]);
    }

    #[test]
    fn expected_ports_match_closed_forms_in_uniform_modes() {
        // Uniform modes keep every switch at its Clos port budget: the
        // converter swaps one cable for another on the same switch.
        let f = ft();
        let clos = &f.params().clos;
        let edge_budget = clos.servers_per_edge + clos.edge_uplinks;
        let agg_budget =
            clos.edges_per_pod * clos.edge_uplinks / clos.aggs_per_pod + clos.agg_uplinks;
        for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
            let inst = f.instantiate(&ModeAssignment::uniform(f.pods(), mode));
            let ports = expected_ports(&f, &inst);
            for edges in &inst.pod_edges {
                for e in edges {
                    assert_eq!(ports[e], edge_budget, "{mode:?}");
                }
            }
            for aggs in &inst.pod_aggs {
                for a in aggs {
                    assert_eq!(ports[a], agg_budget, "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn stuck_converter_darkens_ports_but_stays_consistent() {
        // A stuck converter changes the expectation and the graph in the
        // same way, so the predicates still agree.
        let f = ft();
        let assignment = ModeAssignment::uniform(f.pods(), PodMode::Global);
        let stuck = f
            .layout
            .converters
            .iter()
            .find(|c| c.blade == Blade::B)
            .unwrap()
            .id;
        let inst = f.instantiate_with_overrides(&assignment, &[(stuck, ConverterConfig::Default)]);
        assert_eq!(port_violations(&f, &inst), vec![]);
        assert_eq!(side_wiring_violations(&f, &inst), vec![]);
    }

    #[test]
    fn conversion_deltas_are_converter_only() {
        let f = ft();
        let modes = [PodMode::Clos, PodMode::Local, PodMode::Global];
        for a in modes {
            for b in modes {
                let ia = f.instantiate(&ModeAssignment::uniform(f.pods(), a));
                let ib = f.instantiate(&ModeAssignment::uniform(f.pods(), b));
                assert_eq!(
                    conversion_delta_violations(&f, &ia, &ib),
                    vec![],
                    "{a:?} -> {b:?}"
                );
            }
        }
    }

    #[test]
    fn foreign_cable_in_delta_is_flagged() {
        // Splice an extra edge-to-edge cable into the target instance: no
        // converter circuit joins two edges of the same pod.
        let f = ft();
        let from = f.instantiate(&ModeAssignment::uniform(f.pods(), PodMode::Clos));
        let mut to = f.instantiate(&ModeAssignment::uniform(f.pods(), PodMode::Global));
        let (e0, e1) = (to.pod_edges[0][0], to.pod_edges[0][1]);
        to.net.graph.add_duplex_link(e0, e1, 10.0);
        let v = conversion_delta_violations(&f, &from, &to);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("no converter circuit"));
    }

    #[test]
    fn invalid_config_vector_is_flagged() {
        let f = ft();
        let inst = f.instantiate(&ModeAssignment::uniform(f.pods(), PodMode::Clos));
        let mut cfgs = inst.configs.clone();
        let blade_a = f
            .layout
            .converters
            .iter()
            .find(|c| c.blade == Blade::A)
            .unwrap()
            .id;
        cfgs[blade_a] = ConverterConfig::Side;
        let v = config_violations(&f.layout, &cfgs);
        assert_eq!(v.len(), 1);
        assert!(v[0].location.contains(&format!("converter{blade_a}")));
    }
}
