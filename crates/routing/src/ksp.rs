//! Switch-pair k-shortest-path entries and server-uplink splicing.
//!
//! §4.2.1, Observation 1: a server has exactly one ingress/egress switch,
//! so there is no path diversion between a server and its switch.
//! Observation 2: the k-shortest paths between ingress and egress switches
//! almost capture the full path set between the servers. Accordingly
//! [`crate::SharedRouteTable`] stores **switch-pair** paths once and the
//! helpers here splice server uplinks on demand — the same aggregation
//! that reduces network state by the paper's 400–1600×.

use netgraph::{yen::Yen, Graph, LinkId, NodeId, Path};

/// The single 2-hop path between two servers on the same ingress switch.
///
/// Panics when either server is not attached to `si` — callers resolve
/// the switch via [`Graph::server_uplink_switch`] first.
pub fn rack_path(g: &Graph, src: NodeId, si: NodeId, dst: NodeId) -> Path {
    Path::from_nodes(g, &[src, si, dst]).expect("rack path")
}

/// Splices the `src` uplink and `dst` downlink onto a switch-pair path
/// set: the §4.2.1 Observation 1 step turning ingress/egress switch
/// paths into server-level paths. The switch paths must run from
/// `src`'s ingress switch to `dst`'s (distinct) ingress switch.
pub fn splice_server_pair(g: &Graph, src: NodeId, dst: NodeId, switch_paths: &[Path]) -> Vec<Path> {
    if switch_paths.is_empty() {
        return Vec::new();
    }
    let up = g.find_link(src, switch_paths[0].src()).expect("src uplink");
    let down = g
        .find_link(switch_paths[0].dst(), dst)
        .expect("dst downlink");
    let paths: Vec<Path> = switch_paths
        .iter()
        .map(|sp| {
            let mut nodes = Vec::with_capacity(sp.nodes.len() + 2);
            nodes.push(src);
            nodes.extend_from_slice(&sp.nodes);
            nodes.push(dst);
            let mut links = Vec::with_capacity(sp.links.len() + 2);
            links.push(up);
            links.extend_from_slice(&sp.links);
            links.push(down);
            Path { nodes, links }
        })
        .collect();
    #[cfg(feature = "strict-invariants")]
    for p in &paths {
        debug_assert!(
            p.validate(g).is_ok(),
            "spliced server path is invalid: {:?}",
            p.validate(g)
        );
    }
    paths
}

/// One cached switch pair: the selected paths plus the Yen run's link
/// footprint (every link any examined path used), the exact certificate
/// for reusing the entry after link failures. [`crate::SharedRouteTable`]
/// stores pairs this way.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PairEntry {
    paths: Vec<Path>,
    /// Boxed to drop the slack Yen's deduped footprint vector keeps.
    footprint: Box<[LinkId]>,
}

impl PairEntry {
    /// Runs Yen between two switches on `yen`, an engine for `g`, and
    /// keeps its footprint.
    pub(crate) fn compute(yen: &mut Yen, g: &Graph, a: NodeId, b: NodeId, k: usize) -> Self {
        let (paths, footprint) = yen.paths_with_footprint(g, a, b, k);
        Self {
            paths,
            footprint: footprint.into_boxed_slice(),
        }
    }

    /// The selected paths and the footprint certifying them.
    pub(crate) fn parts(&self) -> (&[Path], &[LinkId]) {
        (&self.paths, &self.footprint)
    }
}

#[cfg(test)]
mod tests {
    use crate::SharedRouteTable;
    use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
    use topology::ClosParams;

    fn mini_global() -> netgraph::Graph {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        ft.instantiate(&ModeAssignment::uniform(4, PodMode::Global))
            .net
            .graph
    }

    #[test]
    fn server_paths_are_valid_and_k_bounded() {
        let g = mini_global();
        let servers = g.servers();
        let table = SharedRouteTable::build(&g, 8);
        let paths = table.server_paths(&g, servers[0], servers[40]).unwrap();
        assert!(!paths.is_empty() && paths.len() <= 8);
        for p in &paths {
            p.validate(&g).unwrap();
            assert_eq!(p.src(), servers[0]);
            assert_eq!(p.dst(), servers[40]);
        }
        // Sorted by length after splicing (uplinks add 2 to each).
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn intra_rack_is_two_hops() {
        let clos = ClosParams::mini().build();
        let g = &clos.net.graph;
        // Same-switch pairs need no entry: an empty table serves them.
        let table = SharedRouteTable::empty(4);
        let s0 = clos.edge_servers[0][2]; // fixed servers on same edge
        let s1 = clos.edge_servers[0][3];
        let paths = table.server_paths(g, s0, s1).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
    }

    #[test]
    fn k_one_is_single_shortest() {
        let g = mini_global();
        let servers = g.servers();
        let table = SharedRouteTable::build(&g, 1);
        let paths = table.server_paths(&g, servers[0], servers[63]).unwrap();
        assert_eq!(paths.len(), 1);
        let sp = netgraph::dijkstra::hop_distance(&g, servers[0], servers[63]).unwrap();
        assert_eq!(paths[0].len(), sp);
    }

    #[test]
    #[should_panic(expected = "no self-flows")]
    fn self_flow_rejected() {
        let g = mini_global();
        let servers = g.servers();
        SharedRouteTable::empty(2).server_paths(&g, servers[0], servers[0]);
    }
}
