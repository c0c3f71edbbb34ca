//! Shortest-path algorithms: BFS for hop counts, Dijkstra for weighted
//! lengths with a caller-supplied link-length function.
//!
//! All routines refuse to expand *through* non-transit nodes (servers):
//! a server may start or terminate a path but never forward.
//!
//! Every Dijkstra run goes through one search state that Yen's algorithm
//! reuses across its spur searches, blocking root nodes and removed links
//! with boolean masks instead of per-search sets.

use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Hop distances from `src` to every node (BFS). `usize::MAX` = unreachable.
pub fn hop_distances(g: &Graph, src: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[src.idx()] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        // Do not forward through servers (except the source itself).
        if u != src && !g.node(u).kind.is_transit() {
            continue;
        }
        for &(v, _) in g.neighbors(u) {
            if dist[v.idx()] == usize::MAX {
                dist[v.idx()] = dist[u.idx()] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// One shortest path by hop count, ties broken toward smaller node ids
/// (deterministic). Returns `None` if unreachable.
pub fn shortest_path(g: &Graph, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path_by(g, src, dst, |_| 1.0).map(|(_, p)| p)
}

/// Hop count of the shortest path, if reachable.
pub fn hop_distance(g: &Graph, src: NodeId, dst: NodeId) -> Option<usize> {
    let d = hop_distances(g, src)[dst.idx()];
    (d != usize::MAX).then_some(d)
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (cost, node id): reverse the natural order.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra with a custom non-negative link length. Links with
/// non-finite length are treated as removed — this is how callers such as
/// the MCF solver and the failure-epoch providers mask links. Returns
/// `(total length, path)`.
///
/// Tie-breaking: among equal-length relaxations the predecessor with the
/// smaller node id wins, so results are deterministic.
pub fn shortest_path_by<F>(g: &Graph, src: NodeId, dst: NodeId, length: F) -> Option<(f64, Path)>
where
    F: Fn(LinkId) -> f64,
{
    Search::new(g).shortest_path(g, src, dst, length)
}

/// Reusable Dijkstra state for many searches on one graph, with node and
/// link block masks (Yen's spur searches).
///
/// Each search resets only the nodes the previous one touched, so after
/// construction a search costs time in the part of the graph it explores,
/// not in `node_count`, and allocates nothing but the returned path.
///
/// Servers are never relaxed unless they are the destination. Relaxing
/// one would only push it for a pop that cannot expand it, so it could
/// never become a predecessor: skipping it leaves `dist` and `prev` of
/// every node a path can cross, the `(cost, node id)` pop order of the
/// other heap entries, and hence every returned path, unchanged.
pub(crate) struct Search {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, LinkId)>>,
    done: Vec<bool>,
    /// Nodes whose `dist`/`prev`/`done` the last search set.
    touched: Vec<NodeId>,
    heap: BinaryHeap<HeapEntry>,
    /// `forwards[n]`: `n` is a transit node (a switch).
    forwards: Vec<bool>,
    node_blocked: Vec<bool>,
    link_blocked: Vec<bool>,
    blocked_nodes: Vec<NodeId>,
    blocked_links: Vec<LinkId>,
}

impl Search {
    pub(crate) fn new(g: &Graph) -> Self {
        let n = g.node_count();
        Search {
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            done: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            forwards: g.node_ids().map(|v| g.node(v).kind.is_transit()).collect(),
            node_blocked: vec![false; n],
            link_blocked: vec![false; g.link_count()],
            blocked_nodes: Vec::new(),
            blocked_links: Vec::new(),
        }
    }

    /// Forbids entering `n`, except as the destination, until
    /// [`Search::unblock_all`].
    pub(crate) fn block_node(&mut self, n: NodeId) {
        if !std::mem::replace(&mut self.node_blocked[n.idx()], true) {
            self.blocked_nodes.push(n);
        }
    }

    /// Treats `l` as removed until [`Search::unblock_all`].
    pub(crate) fn block_link(&mut self, l: LinkId) {
        if !std::mem::replace(&mut self.link_blocked[l.idx()], true) {
            self.blocked_links.push(l);
        }
    }

    /// Clears every node and link block.
    pub(crate) fn unblock_all(&mut self) {
        for n in self.blocked_nodes.drain(..) {
            self.node_blocked[n.idx()] = false;
        }
        for l in self.blocked_links.drain(..) {
            self.link_blocked[l.idx()] = false;
        }
    }

    /// [`shortest_path_by`] under the current blocks; `src` is always
    /// allowed. `g` must be the graph the state was built for.
    pub(crate) fn shortest_path<F>(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        length: F,
    ) -> Option<(f64, Path)>
    where
        F: Fn(LinkId) -> f64,
    {
        debug_assert!(
            self.dist.len() == g.node_count() && self.link_blocked.len() == g.link_count(),
            "search state built for another graph"
        );
        for n in self.touched.drain(..) {
            self.dist[n.idx()] = f64::INFINITY;
            self.prev[n.idx()] = None;
            self.done[n.idx()] = false;
        }
        self.heap.clear();
        self.dist[src.idx()] = 0.0;
        self.touched.push(src);
        self.heap.push(HeapEntry {
            cost: 0.0,
            node: src,
        });
        while let Some(HeapEntry { cost, node: u }) = self.heap.pop() {
            if self.done[u.idx()] {
                continue;
            }
            self.done[u.idx()] = true;
            if u == dst {
                break;
            }
            // Only `src`, `dst` and forwarding nodes are ever pushed, so
            // `u` may be expanded.
            for &(v, l) in g.neighbors(u) {
                let vi = v.idx();
                if v != dst && (!self.forwards[vi] || self.node_blocked[vi]) {
                    continue;
                }
                if self.link_blocked[l.idx()] {
                    continue;
                }
                let w = length(l);
                if !w.is_finite() {
                    continue;
                }
                debug_assert!(w >= 0.0, "negative link length");
                let cand = cost + w;
                let better = cand < self.dist[vi]
                    || (cand == self.dist[vi] && self.prev[vi].is_some_and(|(p, _)| u < p));
                if better && !self.done[vi] {
                    if self.dist[vi] == f64::INFINITY {
                        self.touched.push(v);
                    }
                    self.dist[vi] = cand;
                    self.prev[vi] = Some((u, l));
                    self.heap.push(HeapEntry {
                        cost: cand,
                        node: v,
                    });
                }
            }
        }
        if !self.dist[dst.idx()].is_finite() {
            return None;
        }
        // Reconstruct.
        let mut nodes = vec![dst];
        let mut links = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, l) = self.prev[cur.idx()]?;
            nodes.push(p);
            links.push(l);
            cur = p;
        }
        nodes.reverse();
        links.reverse();
        Some((self.dist[dst.idx()], Path { nodes, links }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// Diamond: s - a - t and s - b - c - t; shortest is via a.
    fn diamond() -> (Graph, [NodeId; 5]) {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::GenericSwitch, "s");
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        let c = g.add_node(NodeKind::GenericSwitch, "c");
        let t = g.add_node(NodeKind::GenericSwitch, "t");
        g.add_duplex_link(s, a, 10.0);
        g.add_duplex_link(a, t, 10.0);
        g.add_duplex_link(s, b, 10.0);
        g.add_duplex_link(b, c, 10.0);
        g.add_duplex_link(c, t, 10.0);
        (g, [s, a, b, c, t])
    }

    #[test]
    fn bfs_distances() {
        let (g, [s, a, b, c, t]) = diamond();
        let d = hop_distances(&g, s);
        assert_eq!(d[s.idx()], 0);
        assert_eq!(d[a.idx()], 1);
        assert_eq!(d[b.idx()], 1);
        assert_eq!(d[c.idx()], 2);
        assert_eq!(d[t.idx()], 2);
    }

    #[test]
    fn shortest_takes_short_branch() {
        let (g, [s, a, _, _, t]) = diamond();
        let p = shortest_path(&g, s, t).unwrap();
        assert_eq!(p.nodes, vec![s, a, t]);
    }

    #[test]
    fn weighted_can_prefer_long_branch() {
        let (g, [s, _, b, c, t]) = diamond();
        // Make the a-branch expensive.
        let (_, p) = shortest_path_by(&g, s, t, |l| {
            let info = g.link(l);
            if info.src == NodeId(1) || info.dst == NodeId(1) {
                100.0
            } else {
                1.0
            }
        })
        .unwrap();
        assert_eq!(p.nodes, vec![s, b, c, t]);
    }

    #[test]
    fn masked_links_are_removed() {
        let (g, [s, a, b, c, t]) = diamond();
        let blocked = g.find_link(a, t).unwrap();
        let (_, p) =
            shortest_path_by(&g, s, t, |l| if l == blocked { f64::INFINITY } else { 1.0 }).unwrap();
        assert_eq!(p.nodes, vec![s, b, c, t]);
    }

    #[test]
    fn masked_nodes_are_removed() {
        let (g, [s, a, b, c, t]) = diamond();
        let mut search = Search::new(&g);
        search.block_node(a);
        let (_, p) = search.shortest_path(&g, s, t, |_| 1.0).unwrap();
        assert_eq!(p.nodes, vec![s, b, c, t]);
        // Blocks persist until cleared, and clearing restores the route.
        search.block_link(g.find_link(b, c).unwrap());
        assert!(search.shortest_path(&g, s, t, |_| 1.0).is_none());
        search.unblock_all();
        let (_, p) = search.shortest_path(&g, s, t, |_| 1.0).unwrap();
        assert_eq!(p.nodes, vec![s, a, t]);
    }

    #[test]
    fn reused_search_reaches_server_behind_switch() {
        // Servers hang off every switch of the diamond; the search must
        // reach a server destination and never cross another server.
        let (mut g, [s, a, b, c, t]) = diamond();
        let mut hosts = Vec::new();
        for sw in [s, a, b, c, t] {
            for i in 0..2 {
                let h = g.add_node(NodeKind::Server, format!("h{}-{i}", sw.0));
                g.add_duplex_link(h, sw, 10.0);
                hosts.push(h);
            }
        }
        let (src, dst) = (hosts[0], hosts[9]);
        let mut search = Search::new(&g);
        let (cost, p) = search.shortest_path(&g, src, dst, |_| 1.0).unwrap();
        assert_eq!(cost, 4.0);
        assert_eq!(p.nodes, vec![src, s, a, t, dst]);
        p.validate(&g).unwrap();
        // Blocking the switch the server hangs off cuts it off, while a
        // blocked destination is still entered.
        search.block_node(t);
        assert!(search.shortest_path(&g, src, dst, |_| 1.0).is_none());
        let (_, p) = search.shortest_path(&g, src, t, |_| 1.0).unwrap();
        assert_eq!(p.nodes, vec![src, s, a, t]);
        search.unblock_all();
        let (_, p) = search.shortest_path(&g, src, dst, |_| 1.0).unwrap();
        assert_eq!(p, shortest_path_by(&g, src, dst, |_| 1.0).unwrap().1);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        assert!(shortest_path(&g, a, b).is_none());
        assert_eq!(hop_distance(&g, a, b), None);
    }

    #[test]
    fn servers_are_not_transit() {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::Server, "s");
        let m = g.add_node(NodeKind::Server, "middle");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, m, 10.0);
        g.add_duplex_link(m, t, 10.0);
        // The only route transits server `m`; must be rejected.
        assert!(shortest_path(&g, s, t).is_none());
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-length branches; the smaller-id intermediate must win.
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::GenericSwitch, "s");
        let x = g.add_node(NodeKind::GenericSwitch, "x");
        let y = g.add_node(NodeKind::GenericSwitch, "y");
        let t = g.add_node(NodeKind::GenericSwitch, "t");
        g.add_duplex_link(s, y, 10.0); // inserted first but larger id
        g.add_duplex_link(s, x, 10.0);
        g.add_duplex_link(y, t, 10.0);
        g.add_duplex_link(x, t, 10.0);
        let p = shortest_path(&g, s, t).unwrap();
        assert_eq!(p.nodes, vec![s, x, t]);
    }
}
