//! k-shortest-path route tables with switch-level caching.
//!
//! §4.2.1, Observation 1: a server has exactly one ingress/egress switch,
//! so there is no path diversion between a server and its switch.
//! Observation 2: the k-shortest paths between ingress and egress switches
//! almost capture the full path set between the servers. Accordingly the
//! table stores **switch-pair** paths once and splices server uplinks on
//! demand — the same aggregation that reduces network state by the
//! paper's 400–1600×.

use netgraph::{yen::Yen, Graph, LinkId, NodeId, Path};
use std::collections::HashMap;

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
/// for reusing the entry after link failures. Both [`RouteTable`] and
/// [`crate::SharedRouteTable`] store pairs this way.
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

/// A lazy k-shortest-path routing table over one network instance.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Number of concurrent paths (k in k-shortest-path routing).
    pub k: usize,
    cache: HashMap<(NodeId, NodeId), PairEntry>,
    /// Built on the first miss, for that call's graph.
    yen: Option<Yen>,
}

impl RouteTable {
    /// Creates an empty table for `k` concurrent paths.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k-shortest-path routing needs k >= 1");
        Self {
            k,
            cache: HashMap::new(),
            yen: None,
        }
    }

    fn entry(&mut self, g: &Graph, a: NodeId, b: NodeId) -> &PairEntry {
        let k = self.k;
        let yen = &mut self.yen;
        self.cache.entry((a, b)).or_insert_with(|| {
            PairEntry::compute(yen.get_or_insert_with(|| Yen::new(g)), g, a, b, k)
        })
    }

    /// The switch-level paths between two switches, computed on first use.
    pub fn switch_paths(&mut self, g: &Graph, a: NodeId, b: NodeId) -> &[Path] {
        &self.entry(g, a, b).paths
    }

    /// The switch-level paths plus the pair's Yen link footprint: if no
    /// footprint link is failed, the paths are bit-identical to what a
    /// failure-aware recomputation would return.
    pub fn switch_paths_with_footprint(
        &mut self,
        g: &Graph,
        a: NodeId,
        b: NodeId,
    ) -> (&[Path], &[LinkId]) {
        self.entry(g, a, b).parts()
    }

    /// The server-level paths for a (src, dst) server pair: the cached
    /// switch-pair paths with the two server uplinks spliced on.
    ///
    /// Intra-rack pairs (same ingress switch) get the single 2-hop path.
    /// Returns an empty vector only if the pair is disconnected.
    pub fn server_paths(&mut self, g: &Graph, src: NodeId, dst: NodeId) -> Vec<Path> {
        assert_ne!(src, dst, "no self-flows");
        let si = g
            .server_uplink_switch(src)
            .expect("src must be an attached server");
        let di = g
            .server_uplink_switch(dst)
            .expect("dst must be an attached server");
        if si == di {
            return vec![rack_path(g, src, si, dst)];
        }
        splice_server_pair(g, src, dst, self.switch_paths(g, si, di))
    }

    /// Number of cached switch pairs (diagnostics).
    pub fn cached_pairs(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut rt = RouteTable::new(8);
        let paths = rt.server_paths(&g, servers[0], servers[40]);
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
        let mut rt = RouteTable::new(4);
        let s0 = clos.edge_servers[0][2]; // fixed servers on same edge
        let s1 = clos.edge_servers[0][3];
        let paths = rt.server_paths(g, s0, s1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
    }

    #[test]
    fn cache_is_shared_across_server_pairs() {
        let clos = ClosParams::mini().build();
        let g = &clos.net.graph;
        let mut rt = RouteTable::new(4);
        // Two pairs under the same two edges hit the same cache entry.
        let _ = rt.server_paths(g, clos.edge_servers[0][2], clos.edge_servers[1][2]);
        let n1 = rt.cached_pairs();
        let _ = rt.server_paths(g, clos.edge_servers[0][3], clos.edge_servers[1][3]);
        assert_eq!(rt.cached_pairs(), n1, "same switch pair must not recompute");
    }

    #[test]
    fn k_one_is_single_shortest() {
        let g = mini_global();
        let servers = g.servers();
        let mut rt = RouteTable::new(1);
        let paths = rt.server_paths(&g, servers[0], servers[63]);
        assert_eq!(paths.len(), 1);
        let sp = netgraph::dijkstra::hop_distance(&g, servers[0], servers[63]).unwrap();
        assert_eq!(paths[0].len(), sp);
    }

    #[test]
    #[should_panic(expected = "no self-flows")]
    fn self_flow_rejected() {
        let g = mini_global();
        let servers = g.servers();
        RouteTable::new(2).server_paths(&g, servers[0], servers[0]);
    }
}
