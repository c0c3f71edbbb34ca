//! The core graph type: dense, index-based, deterministic.

use serde::{Deserialize, Serialize};

/// Identifier of a node (server or switch). Dense index assigned by [`Graph::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a *directed* link (one direction of a full-duplex cable).
/// Dense index assigned by [`Graph::add_directed_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The index as `usize`, for direct `Vec` access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The index as `usize`, for direct `Vec` access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Role of a node in the data center.
///
/// The distinction matters for routing: traffic must never transit a
/// [`NodeKind::Server`], and several flat-tree invariants are stated per
/// switch layer (e.g. Property 1 of §3.2 is about core switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A host with a single NIC. Only valid as a path endpoint.
    Server,
    /// Top-of-rack / edge switch.
    EdgeSwitch,
    /// Aggregation switch inside a pod.
    AggSwitch,
    /// Core switch connecting pods.
    CoreSwitch,
    /// A switch with no layer assignment (random-graph nodes).
    GenericSwitch,
}

impl NodeKind {
    /// Whether packets may be forwarded *through* this node.
    #[inline]
    pub fn is_transit(self) -> bool {
        !matches!(self, NodeKind::Server)
    }

    /// Whether this node is any kind of switch.
    #[inline]
    pub fn is_switch(self) -> bool {
        self.is_transit()
    }
}

/// Static node metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Role of the node.
    pub kind: NodeKind,
    /// Human-readable label, e.g. `"pod2/edge3"`. Used in error messages and
    /// experiment output only; never in algorithms.
    pub label: String,
}

/// Static link metadata for one direction of a cable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkInfo {
    /// Transmitting endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Capacity in Gbps.
    pub capacity_gbps: f64,
    /// The reverse direction of the same cable, if added via
    /// [`Graph::add_duplex_link`].
    pub reverse: Option<LinkId>,
}

/// A directed multigraph with full-duplex convenience constructors.
///
/// All structures are append-only: removing hardware is modeled by the
/// higher layers as *link state* (see `flowsim`'s failure injection), not by
/// mutating the graph, so that ids stay stable across a topology's lifetime.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    nodes: Vec<NodeInfo>,
    links: Vec<LinkInfo>,
    /// Outgoing adjacency: `out[n]` lists `(neighbor, link)` pairs in
    /// insertion order.
    out: Vec<Vec<(NodeId, LinkId)>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            kind,
            label: label.into(),
        });
        self.out.push(Vec::new());
        id
    }

    /// Adds a single directed link and returns its id.
    pub fn add_directed_link(&mut self, src: NodeId, dst: NodeId, capacity_gbps: f64) -> LinkId {
        assert!(src.idx() < self.nodes.len(), "src out of range");
        assert!(dst.idx() < self.nodes.len(), "dst out of range");
        assert!(src != dst, "self-loops are not meaningful in a network");
        assert!(capacity_gbps > 0.0, "capacity must be positive");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkInfo {
            src,
            dst,
            capacity_gbps,
            reverse: None,
        });
        self.out[src.idx()].push((dst, id));
        id
    }

    /// Adds a full-duplex cable between `a` and `b` (two directed links of
    /// equal capacity that reference each other). Returns `(a→b, b→a)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_gbps: f64,
    ) -> (LinkId, LinkId) {
        let ab = self.add_directed_link(a, b, capacity_gbps);
        let ba = self.add_directed_link(b, a, capacity_gbps);
        self.links[ab.idx()].reverse = Some(ba);
        self.links[ba.idx()].reverse = Some(ab);
        (ab, ba)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of *directed* links (a duplex cable counts twice).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node metadata.
    #[inline]
    pub fn node(&self, n: NodeId) -> &NodeInfo {
        &self.nodes[n.idx()]
    }

    /// Link metadata.
    #[inline]
    pub fn link(&self, l: LinkId) -> &LinkInfo {
        &self.links[l.idx()]
    }

    /// Outgoing `(neighbor, link)` pairs of `n` in insertion order.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.out[n.idx()]
    }

    /// Out-degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.out[n.idx()].len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all directed link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// All node ids of a given kind, ascending.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node(n).kind == kind)
            .collect()
    }

    /// All server node ids, ascending.
    pub fn servers(&self) -> Vec<NodeId> {
        self.nodes_of_kind(NodeKind::Server)
    }

    /// All switch node ids (every non-server kind), ascending.
    pub fn switches(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node(n).kind.is_switch())
            .collect()
    }

    /// All duplex switch–switch cables, one direction each (the
    /// lower link id of each pair), in link-id order.
    pub fn switch_cables(&self) -> Vec<LinkId> {
        self.link_ids()
            .filter(|&l| {
                let info = self.link(l);
                self.node(info.src).kind.is_switch()
                    && self.node(info.dst).kind.is_switch()
                    && info.reverse.is_none_or(|r| r.0 > l.0)
            })
            .collect()
    }

    /// The switch a server is attached to.
    ///
    /// Returns `None` for non-servers or detached servers. A server in any
    /// valid topology has exactly one uplink (§4.1: "servers have one uplink
    /// only"); this is asserted in debug builds.
    pub fn server_uplink_switch(&self, server: NodeId) -> Option<NodeId> {
        if self.node(server).kind != NodeKind::Server {
            return None;
        }
        let nbrs = self.neighbors(server);
        debug_assert!(nbrs.len() <= 1, "server {server:?} has multiple uplinks");
        nbrs.first().map(|&(sw, _)| sw)
    }

    /// Finds the directed link from `src` to `dst`, if any (first match).
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out[src.idx()]
            .iter()
            .find(|&&(n, _)| n == dst)
            .map(|&(_, l)| l)
    }

    /// Per-link capacities in Gbps, indexed by `LinkId::idx()`.
    ///
    /// This is the canonical capacity vector every allocation and
    /// simulation layer starts from; build it once per graph instead of
    /// re-collecting link metadata at each call site.
    pub fn capacities(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.capacity_gbps).collect()
    }

    /// Total one-directional capacity in Gbps of all links from `kinds.0`
    /// nodes to `kinds.1` nodes. Useful for oversubscription accounting.
    pub fn capacity_between(&self, from: NodeKind, to: NodeKind) -> f64 {
        self.links
            .iter()
            .filter(|l| self.node(l.src).kind == from && self.node(l.dst).kind == to)
            .map(|l| l.capacity_gbps)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::Server, "s");
        let e = g.add_node(NodeKind::EdgeSwitch, "e");
        let c = g.add_node(NodeKind::CoreSwitch, "c");
        g.add_duplex_link(s, e, 10.0);
        g.add_duplex_link(e, c, 40.0);
        (g, s, e, c)
    }

    #[test]
    fn duplex_links_reference_each_other() {
        let (g, s, e, _) = tiny();
        let ab = g.find_link(s, e).unwrap();
        let ba = g.find_link(e, s).unwrap();
        assert_eq!(g.link(ab).reverse, Some(ba));
        assert_eq!(g.link(ba).reverse, Some(ab));
        assert_eq!(g.link(ab).capacity_gbps, 10.0);
    }

    #[test]
    fn adjacency_is_in_insertion_order() {
        let (g, _, e, c) = tiny();
        let nbrs: Vec<NodeId> = g.neighbors(e).iter().map(|&(n, _)| n).collect();
        assert_eq!(nbrs, vec![NodeId(0), c]);
    }

    #[test]
    fn server_uplink_lookup() {
        let (g, s, e, c) = tiny();
        assert_eq!(g.server_uplink_switch(s), Some(e));
        assert_eq!(g.server_uplink_switch(c), None);
    }

    #[test]
    fn kinds_and_filters() {
        let (g, s, e, c) = tiny();
        assert_eq!(g.servers(), vec![s]);
        assert_eq!(g.switches(), vec![e, c]);
        assert_eq!(g.switch_cables(), vec![g.find_link(e, c).unwrap()]);
        assert!(!NodeKind::Server.is_transit());
        assert!(NodeKind::GenericSwitch.is_transit());
    }

    #[test]
    fn capacity_between_kinds() {
        let (g, _, _, _) = tiny();
        assert_eq!(
            g.capacity_between(NodeKind::EdgeSwitch, NodeKind::CoreSwitch),
            40.0
        );
        assert_eq!(
            g.capacity_between(NodeKind::Server, NodeKind::EdgeSwitch),
            10.0
        );
        assert_eq!(
            g.capacity_between(NodeKind::Server, NodeKind::CoreSwitch),
            0.0
        );
    }

    #[test]
    fn capacities_indexed_by_link_id() {
        let (g, s, e, c) = tiny();
        let caps = g.capacities();
        assert_eq!(caps.len(), g.link_count());
        assert_eq!(caps[g.find_link(s, e).unwrap().idx()], 10.0);
        assert_eq!(caps[g.find_link(e, c).unwrap().idx()], 40.0);
        assert_eq!(caps[g.find_link(c, e).unwrap().idx()], 40.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        g.add_directed_link(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        g.add_directed_link(a, b, 0.0);
    }
}
