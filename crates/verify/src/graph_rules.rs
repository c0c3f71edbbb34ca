//! Graph rules (`FT-Gxxx`): static structure of one instantiated mode.
//!
//! The first five rules re-use the shared rule source in
//! [`flat_tree::invariants`] — the same functions the `strict-invariants`
//! feature installs as `debug_assert!`s at the construction sites — and
//! only translate [`flat_tree::invariants::Violation`]s into coded
//! findings. On top of those this module adds whole-graph analyses that
//! are too expensive for a construction-site assert: union-find
//! connectivity, sampled max-flow min-cuts against the Table 1 capacity
//! floors, and per-class degree regularity.

use crate::diag::{Finding, RuleCode};
use flat_tree::invariants::{self, Violation};
use flat_tree::{FlatTree, FlatTreeInstance, PodMode};
use netgraph::components;
use netgraph::mincut::FlowNetwork;
use netgraph::{NodeId, NodeKind};

fn lift(rule: RuleCode, violations: Vec<Violation>) -> Vec<Finding> {
    violations
        .into_iter()
        .map(|v| Finding::new(rule, v.location, v.detail))
        .collect()
}

/// The base link rate of an instance, used to convert aggregated link
/// capacities back into physical cable counts. Server cables always have
/// multiplicity 1, so the minimum capacity over all links is the rate.
pub fn unit_gbps(inst: &FlatTreeInstance) -> f64 {
    inst.net
        .graph
        .capacities()
        .iter()
        .fold(f64::INFINITY, |m, &c| m.min(c))
}

/// Number of inter-pod switch pairs the min-cut rule samples per mode.
const MIN_CUT_SAMPLES: usize = 4;

/// The Table 1 capacity floor, in cables, for a sampled inter-pod
/// edge-switch pair. Clos mode keeps the full Clos property — an edge
/// switch reaches any other pod at its entire uplink bundle — while the
/// converted modes trade structured capacity for path diversity, so the
/// static floor is survival of any single cable cut.
fn min_cut_floor(ft: &FlatTree, mode: Option<PodMode>) -> u64 {
    match mode {
        Some(PodMode::Clos) => ft.params().clos.edge_uplinks as u64,
        _ => 2,
    }
}

/// Deterministic inter-pod edge-switch sample pairs: pod 0's first edge
/// against a pod-stride of last edges, matching the paper's "distant
/// pair" probes without any RNG.
fn sample_pairs(inst: &FlatTreeInstance) -> Vec<(NodeId, NodeId)> {
    let pods = inst.pod_edges.len();
    if pods < 2 {
        return Vec::new();
    }
    let stride = (pods - 1).div_ceil(MIN_CUT_SAMPLES).max(1);
    let src = inst.pod_edges[0][0];
    (1..pods)
        .step_by(stride)
        .map(|p| (src, *inst.pod_edges[p].last().expect("pod has edges")))
        .collect()
}

/// FT-G006: every node (server or switch) must sit in one component.
fn connectivity_findings(inst: &FlatTreeInstance) -> Vec<Finding> {
    let g = &inst.net.graph;
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let n = components::component_count_among(g, &nodes);
    if n <= 1 {
        Vec::new()
    } else {
        vec![Finding::new(
            RuleCode::Connectivity,
            inst.net.name.clone(),
            format!("graph splits into {n} components"),
        )]
    }
}

/// FT-G007: sampled min-cuts must meet the mode's Table 1 floor.
fn min_cut_findings(ft: &FlatTree, inst: &FlatTreeInstance) -> Vec<Finding> {
    let g = &inst.net.graph;
    let unit = unit_gbps(inst);
    if !unit.is_finite() || unit <= 0.0 {
        return Vec::new();
    }
    let floor = min_cut_floor(ft, inst.assignment.uniform_mode());
    let mut net = FlowNetwork::in_cable_units(g, unit);
    let mut out = Vec::new();
    for (s, t) in sample_pairs(inst) {
        let cut = net.min_cut(s, t);
        if cut < floor {
            out.push(Finding::new(
                RuleCode::MinCut,
                format!("{} -> {}", g.node(s).label, g.node(t).label),
                format!("min-cut {cut} cables is below the Table 1 floor {floor}"),
            ));
        }
    }
    out
}

/// FT-G008: in a uniform mode every switch class is degree-regular.
///
/// Hybrid assignments are skipped: mixed-mode side bundles legitimately
/// go dark (§3.5), which makes edge/agg degrees pod-dependent.
fn degree_regularity_findings(inst: &FlatTreeInstance) -> Vec<Finding> {
    if inst.assignment.uniform_mode().is_none() {
        return Vec::new();
    }
    let g = &inst.net.graph;
    let ports = invariants::actual_ports(inst);
    let mut out = Vec::new();
    for kind in [
        NodeKind::EdgeSwitch,
        NodeKind::AggSwitch,
        NodeKind::CoreSwitch,
    ] {
        let degrees: Vec<(NodeId, usize)> = g
            .nodes_of_kind(kind)
            .into_iter()
            .map(|n| (n, ports.get(&n).copied().unwrap_or(0)))
            .collect();
        let Some(&(_, first)) = degrees.first() else {
            continue;
        };
        let lo = degrees.iter().map(|&(_, d)| d).min().unwrap_or(first);
        let hi = degrees.iter().map(|&(_, d)| d).max().unwrap_or(first);
        if lo != hi {
            let worst = degrees.iter().find(|&&(_, d)| d == lo).expect("min exists");
            out.push(Finding::new(
                RuleCode::DegreeRegularity,
                g.node(worst.0).label.clone(),
                format!(
                    "{kind:?} cable degrees span {lo}..{hi} in uniform mode {}",
                    inst.assignment.label()
                ),
            ));
        }
    }
    out
}

/// The full graph battery for one instantiated mode.
pub fn check(ft: &FlatTree, inst: &FlatTreeInstance) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(lift(
        RuleCode::ConverterConfig,
        invariants::config_violations(&ft.layout, &inst.configs),
    ));
    out.extend(lift(
        RuleCode::SidePattern,
        invariants::side_pattern_violations(&ft.layout),
    ));
    out.extend(lift(
        RuleCode::PortBudget,
        invariants::port_violations(ft, inst),
    ));
    out.extend(lift(
        RuleCode::SideWiring,
        invariants::side_wiring_violations(ft, inst),
    ));
    out.extend(lift(
        RuleCode::ServerAttachment,
        invariants::server_attachment_violations(inst),
    ));
    out.extend(connectivity_findings(inst));
    out.extend(min_cut_findings(ft, inst));
    out.extend(degree_regularity_findings(inst));
    out
}
