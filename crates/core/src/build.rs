//! Materializing a flat-tree mode into a concrete network graph.
//!
//! Converter switches are *transparent* circuit switches, so the
//! instantiated graph contains only servers, edge/agg/core packet switches
//! and the direct links each converter configuration circuits together.
//! Node creation order is fixed, therefore **node ids are identical across
//! modes** — exactly the §4.2.1 requirement that switch IDs survive
//! topology conversion. Only the link set changes.

use crate::cables::{for_each_cable, Cable};
use crate::converter::ConverterConfig;
use crate::layout::{FlatTreeParams, Layout};
use crate::modes::{configs_for, ModeAssignment};
use netgraph::{Graph, NodeId, NodeKind};
use std::collections::BTreeMap;
use topology::DcNetwork;

/// A flat-tree network: the static layout from which any mode can be
/// instantiated.
#[derive(Debug, Clone)]
pub struct FlatTree {
    /// Converter inventory and parameters.
    pub layout: Layout,
}

/// A flat-tree configured into a concrete mode assignment.
#[derive(Debug, Clone)]
pub struct FlatTreeInstance {
    /// The generic network view (graph, servers, pods by *home* pod).
    ///
    /// `pod_servers` groups servers by the pod that owns them — cluster
    /// placement in the paper is by server index, which does not change
    /// when a server is physically relocated to an agg or core switch.
    pub net: DcNetwork,
    /// The mode assignment this instance realizes.
    pub assignment: ModeAssignment,
    /// Converter configurations, indexed like `layout.converters`.
    pub configs: Vec<ConverterConfig>,
    /// Core switch node ids, `cores[c] = C_c`.
    pub cores: Vec<NodeId>,
    /// Edge switches per pod.
    pub pod_edges: Vec<Vec<NodeId>>,
    /// Aggregation switches per pod.
    pub pod_aggs: Vec<Vec<NodeId>>,
    /// Servers per global edge index (`pod * d + j`), slot-ordered.
    /// Slot `i < m` belongs to blade-B row `i`; slot `m <= i < m+n` to
    /// blade-A row `i - m`; the rest are fixed to the edge switch.
    pub edge_servers: Vec<Vec<NodeId>>,
}

impl FlatTree {
    /// Validates parameters and enumerates the converter inventory.
    pub fn new(params: FlatTreeParams) -> Result<Self, String> {
        Ok(FlatTree {
            layout: Layout::new(params)?,
        })
    }

    /// Parameters accessor.
    pub fn params(&self) -> &FlatTreeParams {
        &self.layout.params
    }

    /// Number of pods.
    pub fn pods(&self) -> usize {
        self.layout.params.clos.pods
    }

    /// Builds the physical graph for a mode assignment.
    pub fn instantiate(&self, assignment: &ModeAssignment) -> FlatTreeInstance {
        self.instantiate_with_overrides(assignment, &[])
    }

    /// Like [`FlatTree::instantiate`] but with explicit per-converter
    /// configuration overrides — the failure-injection hook. A converter
    /// switch that fails typically latches its current crosspoints or
    /// relaxes to the `default` state; overriding, say, one converter to
    /// `Default` inside a global-mode network models exactly that
    /// stuck-at fault, and the resulting graph shows which servers and
    /// links it strands.
    ///
    /// Overrides are `(converter id, forced configuration)` pairs; a
    /// forced configuration invalid for the converter's kind panics.
    pub fn instantiate_with_overrides(
        &self,
        assignment: &ModeAssignment,
        overrides: &[(usize, ConverterConfig)],
    ) -> FlatTreeInstance {
        let clos = &self.layout.params.clos;
        let mut configs = configs_for(&self.layout, assignment);
        for &(id, cfg) in overrides {
            let conv = &self.layout.converters[id];
            assert!(
                cfg.valid_for(conv.blade.kind()),
                "override {cfg:?} invalid for {:?} converter {id}",
                conv.blade
            );
            configs[id] = cfg;
        }

        // ---- nodes, in mode-independent order ----
        let mut g = Graph::new();
        let cores: Vec<NodeId> = (0..clos.num_cores)
            .map(|c| g.add_node(NodeKind::CoreSwitch, format!("core{c}")))
            .collect();
        // Switch node ids in the dense order the cable plan numbers them.
        let mut switches = cores.clone();
        let mut pod_edges = Vec::with_capacity(clos.pods);
        let mut pod_aggs = Vec::with_capacity(clos.pods);
        let mut edge_servers: Vec<Vec<NodeId>> = Vec::new();
        let mut pod_servers: Vec<Vec<NodeId>> = Vec::with_capacity(clos.pods);
        for pod in 0..clos.pods {
            let edges: Vec<NodeId> = (0..clos.edges_per_pod)
                .map(|j| g.add_node(NodeKind::EdgeSwitch, format!("pod{pod}/edge{j}")))
                .collect();
            let aggs: Vec<NodeId> = (0..clos.aggs_per_pod)
                .map(|i| g.add_node(NodeKind::AggSwitch, format!("pod{pod}/agg{i}")))
                .collect();
            switches.extend(&edges);
            switches.extend(&aggs);
            let mut in_pod = Vec::new();
            for j in 0..clos.edges_per_pod {
                let mut on_edge = Vec::with_capacity(clos.servers_per_edge);
                for q in 0..clos.servers_per_edge {
                    let s = g.add_node(NodeKind::Server, format!("pod{pod}/edge{j}/srv{q}"));
                    on_edge.push(s);
                    in_pod.push(s);
                }
                edge_servers.push(on_edge);
            }
            pod_edges.push(edges);
            pod_aggs.push(aggs);
            pod_servers.push(in_pod);
        }

        // ---- links ----
        // Switch-switch cables aggregate into capacity; server cables are
        // singular (one NIC each).
        let mut mult: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        let mut server_links: Vec<(NodeId, NodeId)> = Vec::new();
        for_each_cable(&self.layout, &configs, |cable| match cable {
            Cable::Server { edge, slot, switch } => {
                server_links.push((edge_servers[edge][slot], switches[switch]));
            }
            Cable::Switch(a, b) => {
                let (a, b) = (switches[a], switches[b]);
                *mult.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        });
        for (s, sw) in server_links {
            g.add_duplex_link(s, sw, clos.link_gbps);
        }
        for ((x, y), m) in mult {
            g.add_duplex_link(x, y, clos.link_gbps * m as f64);
        }

        let servers: Vec<NodeId> = pod_servers.iter().flatten().copied().collect();
        let net = DcNetwork {
            name: format!("flat-tree-{}", assignment.label()),
            graph: g,
            servers,
            pod_servers,
            edges: pod_edges.iter().flatten().copied().collect(),
            aggs: pod_aggs.iter().flatten().copied().collect(),
            cores: cores.clone(),
        };
        debug_assert!(
            !overrides.is_empty() || net.validate().is_ok(),
            "flat-tree instance invalid: {:?}",
            net.validate()
        );
        let inst = FlatTreeInstance {
            net,
            assignment: assignment.clone(),
            configs,
            cores,
            pod_edges,
            pod_aggs,
            edge_servers,
        };
        #[cfg(feature = "strict-invariants")]
        {
            let violations = crate::invariants::all_violations(self, &inst);
            debug_assert!(
                violations.is_empty(),
                "flat-tree instance violates structural invariants: {violations:?}"
            );
        }
        inst
    }
}

impl FlatTreeInstance {
    /// Total cable-end count per node, in units of physical ports
    /// (capacity divided by the base link rate). Invariant across modes.
    pub fn port_usage(&self) -> BTreeMap<NodeId, f64> {
        let g = &self.net.graph;
        let base = 1.0; // report in Gbps; caller may normalize
        let mut usage = BTreeMap::new();
        for l in g.link_ids() {
            let info = g.link(l);
            *usage.entry(info.src).or_insert(0.0) += info.capacity_gbps / base;
        }
        usage
    }

    /// The switch a given server attaches to in this mode — the server's
    /// ingress/egress switch (§4.2.1 Observation 1).
    pub fn ingress_switch(&self, server: NodeId) -> NodeId {
        self.net
            .graph
            .server_uplink_switch(server)
            .expect("server must be attached")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::PodMode;
    use netgraph::metrics;
    use topology::ClosParams;

    fn ft() -> FlatTree {
        FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap()
    }

    fn inst(mode: PodMode) -> FlatTreeInstance {
        let f = ft();
        f.instantiate(&ModeAssignment::uniform(f.pods(), mode))
    }

    #[test]
    fn node_ids_stable_across_modes() {
        let f = ft();
        let clos = f.instantiate(&ModeAssignment::uniform(4, PodMode::Clos));
        let global = f.instantiate(&ModeAssignment::uniform(4, PodMode::Global));
        let local = f.instantiate(&ModeAssignment::uniform(4, PodMode::Local));
        assert_eq!(clos.net.servers, global.net.servers);
        assert_eq!(clos.cores, local.cores);
        assert_eq!(clos.pod_edges, global.pod_edges);
        for (a, b) in [(&clos, &global), (&clos, &local)] {
            for n in a.net.graph.node_ids() {
                assert_eq!(a.net.graph.node(n).kind, b.net.graph.node(n).kind);
                assert_eq!(a.net.graph.node(n).label, b.net.graph.node(n).label);
            }
        }
    }

    #[test]
    fn clos_mode_matches_plain_clos_topology() {
        let inst = inst(PodMode::Clos);
        let plain = ClosParams::mini().build();
        // Same node count and same server-pair distances.
        assert_eq!(inst.net.graph.node_count(), plain.net.graph.node_count());
        let a = metrics::avg_server_path_length(&inst.net.graph).unwrap();
        let b = metrics::avg_server_path_length(&plain.net.graph).unwrap();
        assert!(
            (a - b).abs() < 1e-12,
            "flat-tree Clos mode APL {a} vs Clos {b}"
        );
        // All servers on edge switches.
        assert_eq!(
            metrics::attached_server_counts(&inst.net.graph, NodeKind::EdgeSwitch)
                .iter()
                .map(|&(_, c)| c)
                .sum::<usize>(),
            64
        );
    }

    #[test]
    fn global_mode_relocates_servers_to_agg_and_core() {
        let inst = inst(PodMode::Global);
        let g = &inst.net.graph;
        let on_edge: usize = metrics::attached_server_counts(g, NodeKind::EdgeSwitch)
            .iter()
            .map(|&(_, c)| c)
            .sum();
        let on_agg: usize = metrics::attached_server_counts(g, NodeKind::AggSwitch)
            .iter()
            .map(|&(_, c)| c)
            .sum();
        let on_core: usize = metrics::attached_server_counts(g, NodeKind::CoreSwitch)
            .iter()
            .map(|&(_, c)| c)
            .sum();
        // mini: per edge 4 servers, m=1 to core, n=1 to agg, 2 stay.
        assert_eq!(on_edge, 32);
        assert_eq!(on_agg, 16);
        assert_eq!(on_core, 16);
        assert_eq!(on_edge + on_agg + on_core, 64);
    }

    #[test]
    fn global_mode_core_servers_are_uniform() {
        // Property 1 of §3.2, on the built graph.
        let inst = inst(PodMode::Global);
        let counts = metrics::attached_server_counts(&inst.net.graph, NodeKind::CoreSwitch);
        let min = counts.iter().map(|&(_, c)| c).min().unwrap();
        let max = counts.iter().map(|&(_, c)| c).max().unwrap();
        assert_eq!(min, max, "{counts:?}");
        assert_eq!(min, 1);
    }

    #[test]
    fn local_mode_splits_servers_edge_agg() {
        let inst = inst(PodMode::Local);
        let g = &inst.net.graph;
        let on_edge: usize = metrics::attached_server_counts(g, NodeKind::EdgeSwitch)
            .iter()
            .map(|&(_, c)| c)
            .sum();
        let on_agg: usize = metrics::attached_server_counts(g, NodeKind::AggSwitch)
            .iter()
            .map(|&(_, c)| c)
            .sum();
        let on_core: usize = metrics::attached_server_counts(g, NodeKind::CoreSwitch)
            .iter()
            .map(|&(_, c)| c)
            .sum();
        assert_eq!(on_core, 0, "local mode keeps cores server-free");
        assert_eq!(on_edge, 32);
        assert_eq!(on_agg, 32);
    }

    #[test]
    fn port_budget_is_invariant_across_modes() {
        let f = ft();
        let total = |i: &FlatTreeInstance| -> f64 { i.port_usage().values().sum() };
        let clos = total(&f.instantiate(&ModeAssignment::uniform(4, PodMode::Clos)));
        let global = total(&f.instantiate(&ModeAssignment::uniform(4, PodMode::Global)));
        let local = total(&f.instantiate(&ModeAssignment::uniform(4, PodMode::Local)));
        assert!(
            (clos - global).abs() < 1e-9,
            "clos {clos} vs global {global}"
        );
        assert!((clos - local).abs() < 1e-9, "clos {clos} vs local {local}");
    }

    #[test]
    fn global_mode_shortens_paths() {
        // The architecture's purpose: global mode approximates a random
        // graph, so its average path length beats Clos mode's.
        let f = ft();
        let clos = f.instantiate(&ModeAssignment::uniform(4, PodMode::Clos));
        let global = f.instantiate(&ModeAssignment::uniform(4, PodMode::Global));
        let a = metrics::avg_server_path_length(&clos.net.graph).unwrap();
        let b = metrics::avg_server_path_length(&global.net.graph).unwrap();
        assert!(b < a, "global APL {b} must beat Clos APL {a}");
    }

    #[test]
    fn hybrid_mode_is_per_pod() {
        let f = ft();
        let inst = f.instantiate(&ModeAssignment::hybrid(vec![
            PodMode::Clos,
            PodMode::Clos,
            PodMode::Global,
            PodMode::Global,
        ]));
        let g = &inst.net.graph;
        // Pod 0 servers all on edges; pod 2 has relocated servers.
        for &s in &inst.net.pod_servers[0] {
            let sw = g.server_uplink_switch(s).unwrap();
            assert_eq!(g.node(sw).kind, NodeKind::EdgeSwitch);
        }
        let relocated = inst.net.pod_servers[2]
            .iter()
            .filter(|&&s| {
                let sw = g.server_uplink_switch(s).unwrap();
                g.node(sw).kind != NodeKind::EdgeSwitch
            })
            .count();
        assert!(relocated > 0);
        inst.net.validate().unwrap();
    }

    #[test]
    fn instances_validate() {
        for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
            inst(mode).net.validate().unwrap();
        }
    }

    #[test]
    fn stuck_converter_keeps_its_clos_wiring() {
        // Fail blade-B converter 0 stuck at Default while the rest of the
        // network goes global: its server must stay on the edge switch
        // and its agg-core cable must stay in place.
        let f = ft();
        let stuck = f
            .layout
            .converters
            .iter()
            .find(|c| c.blade == crate::converter::Blade::B)
            .unwrap()
            .id;
        let assignment = ModeAssignment::uniform(4, PodMode::Global);
        let inst = f.instantiate_with_overrides(&assignment, &[(stuck, ConverterConfig::Default)]);
        let conv = &f.layout.converters[stuck];
        let server = inst.edge_servers[conv.pod * 4 + conv.edge][conv.server_slot];
        let sw = inst.net.graph.server_uplink_switch(server).unwrap();
        assert_eq!(
            inst.net.graph.node(sw).kind,
            NodeKind::EdgeSwitch,
            "stuck converter must keep its server on the edge"
        );
        // Exactly one fewer server on cores than the healthy global mode.
        let healthy = f.instantiate(&assignment);
        let on_cores = |i: &FlatTreeInstance| -> usize {
            metrics::attached_server_counts(&i.net.graph, NodeKind::CoreSwitch)
                .iter()
                .map(|&(_, c)| c)
                .sum()
        };
        assert_eq!(on_cores(&inst) + 1, on_cores(&healthy));
        // The network stays connected (the peer's side bundle goes dark
        // but every switch keeps other links).
        inst.net.validate().unwrap();
    }

    #[test]
    fn stuck_converter_darkens_peer_side_bundle() {
        // The §3.3 pair partner of a stuck converter loses its inter-pod
        // links: total capacity drops relative to healthy global mode.
        let f = ft();
        let stuck = f
            .layout
            .converters
            .iter()
            .find(|c| c.blade == crate::converter::Blade::B)
            .unwrap()
            .id;
        let assignment = ModeAssignment::uniform(4, PodMode::Global);
        let total = |i: &FlatTreeInstance| -> f64 {
            i.net
                .graph
                .link_ids()
                .map(|l| i.net.graph.link(l).capacity_gbps)
                .sum()
        };
        let healthy = f.instantiate(&assignment);
        let faulty =
            f.instantiate_with_overrides(&assignment, &[(stuck, ConverterConfig::Default)]);
        assert!(total(&faulty) < total(&healthy));
    }

    #[test]
    #[should_panic(expected = "invalid for")]
    fn override_must_respect_converter_kind() {
        let f = ft();
        let blade_a = f
            .layout
            .converters
            .iter()
            .find(|c| c.blade == crate::converter::Blade::A)
            .unwrap()
            .id;
        f.instantiate_with_overrides(
            &ModeAssignment::uniform(4, PodMode::Global),
            &[(blade_a, ConverterConfig::Side)],
        );
    }

    #[test]
    fn ingress_switch_tracks_relocation() {
        let f = ft();
        let clos = f.instantiate(&ModeAssignment::uniform(4, PodMode::Clos));
        let global = f.instantiate(&ModeAssignment::uniform(4, PodMode::Global));
        // Slot-0 server of edge 0 is spliced by the blade-B converter and
        // lands on a core switch in global mode.
        let s = clos.edge_servers[0][0];
        let kind_clos = clos.net.graph.node(clos.ingress_switch(s)).kind;
        let kind_global = global.net.graph.node(global.ingress_switch(s)).kind;
        assert_eq!(kind_clos, NodeKind::EdgeSwitch);
        assert_eq!(kind_global, NodeKind::CoreSwitch);
    }
}
