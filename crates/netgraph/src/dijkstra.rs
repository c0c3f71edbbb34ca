//! Shortest-path algorithms: BFS for hop counts, Dijkstra for weighted
//! lengths with a caller-supplied link-length function.
//!
//! All routines refuse to expand *through* non-transit nodes (servers):
//! a server may start or terminate a path but never forward.
//!
//! Every hop-count path search — single paths and Yen's spur searches —
//! runs one level-synchronous BFS over a reusable state that blocks
//! nodes and links with boolean masks. The heap Dijkstra serves only
//! real-valued lengths.

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
    shortest_path_avoiding(g, src, dst, |_| false)
}

/// [`shortest_path`] with every link for which `down` holds removed.
///
/// Returns exactly the path of [`shortest_path_by`] with length 1 on
/// live links and `f64::INFINITY` on down ones.
pub fn shortest_path_avoiding<F>(g: &Graph, src: NodeId, dst: NodeId, down: F) -> Option<Path>
where
    F: Fn(LinkId) -> bool,
{
    Search::new(g).hop_path(g, src, dst, down)
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
/// non-finite length are treated as removed. Returns `(total length,
/// path)`. For hop counts use [`shortest_path_avoiding`], which returns
/// the same path without a heap.
///
/// Tie-breaking: among equal-length relaxations the predecessor with the
/// smaller node id wins, so results are deterministic. Servers are never
/// relaxed unless they are the destination: one could not forward, so it
/// could never become a predecessor.
pub fn shortest_path_by<F>(g: &Graph, src: NodeId, dst: NodeId, length: F) -> Option<(f64, Path)>
where
    F: Fn(LinkId) -> f64,
{
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.idx()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapEntry { cost, node: u }) = heap.pop() {
        if done[u.idx()] {
            continue;
        }
        done[u.idx()] = true;
        if u == dst {
            break;
        }
        // Only `src`, `dst` and transit nodes are ever pushed, so `u` may
        // be expanded.
        for &(v, l) in g.neighbors(u) {
            let vi = v.idx();
            if v != dst && !g.node(v).kind.is_transit() {
                continue;
            }
            let w = length(l);
            if !w.is_finite() {
                continue;
            }
            debug_assert!(w >= 0.0, "negative link length");
            let cand = cost + w;
            let better =
                cand < dist[vi] || (cand == dist[vi] && prev[vi].is_some_and(|(p, _)| u < p));
            if better && !done[vi] {
                dist[vi] = cand;
                prev[vi] = Some((u, l));
                heap.push(HeapEntry {
                    cost: cand,
                    node: v,
                });
            }
        }
    }
    if !dist[dst.idx()].is_finite() {
        return None;
    }
    Some((dist[dst.idx()], trace_back(&prev, src, dst)?))
}

/// The path `src → dst` along `prev` links.
fn trace_back(prev: &[Option<(NodeId, LinkId)>], src: NodeId, dst: NodeId) -> Option<Path> {
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = prev[cur.idx()]?;
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Path { nodes, links })
}

/// Reusable hop-count search state for many searches on one graph, with
/// node and link block masks (Yen's spur searches).
///
/// Each search resets only the nodes the previous one reached, so after
/// construction a search costs time in the part of the graph it explores,
/// not in `node_count`, and allocates nothing but the returned path.
pub(crate) struct Search {
    /// Hop distance from the last search's source; `u32::MAX` = unseen.
    dist: Vec<u32>,
    prev: Vec<Option<(NodeId, LinkId)>>,
    /// Nodes the last search reached, in level order: the BFS queue.
    touched: Vec<NodeId>,
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
            dist: vec![u32::MAX; n],
            prev: vec![None; n],
            touched: Vec::new(),
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

    /// The fewest-hop path from `src` to `dst` under the current blocks,
    /// with every link for which `down` holds removed; `src` is always
    /// allowed. `g` must be the graph the state was built for.
    ///
    /// Level-synchronous BFS: level `d` is expanded completely before
    /// level `d + 1`, and the search stops after the level that reaches
    /// `dst`. A node's predecessor is its lowest-id neighbour one level
    /// up, through that neighbour's first link to it in adjacency order.
    /// Dijkstra with unit lengths and `(cost, node id)` pops picks the
    /// same predecessor: it pops every level-`d` node, in id order,
    /// before any level-`d + 1` node, and replaces a predecessor only on
    /// a strictly smaller id. So this returns the path of
    /// [`shortest_path_by`] with lengths 1 and `f64::INFINITY` on down
    /// links.
    pub(crate) fn hop_path<F>(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        down: F,
    ) -> Option<Path>
    where
        F: Fn(LinkId) -> bool,
    {
        debug_assert!(
            self.dist.len() == g.node_count() && self.link_blocked.len() == g.link_count(),
            "search state built for another graph"
        );
        for n in self.touched.drain(..) {
            self.dist[n.idx()] = u32::MAX;
            self.prev[n.idx()] = None;
        }
        self.dist[src.idx()] = 0;
        self.touched.push(src);
        let mut level = 0..1;
        let mut d = 0;
        while self.dist[dst.idx()] == u32::MAX && !level.is_empty() {
            let next = self.touched.len();
            for i in level {
                // Levels hold only `src` and unblocked transit nodes:
                // `dst` ends the search before its level is expanded.
                let u = self.touched[i];
                for &(v, l) in g.neighbors(u) {
                    let vi = v.idx();
                    if v != dst && (!self.forwards[vi] || self.node_blocked[vi]) {
                        continue;
                    }
                    if self.link_blocked[l.idx()] || down(l) {
                        continue;
                    }
                    if self.dist[vi] == u32::MAX {
                        self.dist[vi] = d + 1;
                        self.prev[vi] = Some((u, l));
                        self.touched.push(v);
                    } else if self.dist[vi] == d + 1 && self.prev[vi].is_some_and(|(p, _)| u < p) {
                        self.prev[vi] = Some((u, l));
                    }
                }
            }
            level = next..self.touched.len();
            d += 1;
        }
        if self.dist[dst.idx()] == u32::MAX {
            return None;
        }
        trace_back(&self.prev, src, dst)
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
        let p = shortest_path_avoiding(&g, s, t, |l| l == blocked).unwrap();
        assert_eq!(p.nodes, vec![s, b, c, t]);
        let (_, q) =
            shortest_path_by(&g, s, t, |l| if l == blocked { f64::INFINITY } else { 1.0 }).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn masked_nodes_are_removed() {
        let (g, [s, a, b, c, t]) = diamond();
        let mut search = Search::new(&g);
        search.block_node(a);
        let p = search.hop_path(&g, s, t, |_| false).unwrap();
        assert_eq!(p.nodes, vec![s, b, c, t]);
        // Blocks persist until cleared, and clearing restores the route.
        search.block_link(g.find_link(b, c).unwrap());
        assert!(search.hop_path(&g, s, t, |_| false).is_none());
        search.unblock_all();
        let p = search.hop_path(&g, s, t, |_| false).unwrap();
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
        let p = search.hop_path(&g, src, dst, |_| false).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.nodes, vec![src, s, a, t, dst]);
        p.validate(&g).unwrap();
        // Blocking the switch the server hangs off cuts it off, while a
        // blocked destination is still entered.
        search.block_node(t);
        assert!(search.hop_path(&g, src, dst, |_| false).is_none());
        let p = search.hop_path(&g, src, t, |_| false).unwrap();
        assert_eq!(p.nodes, vec![src, s, a, t]);
        search.unblock_all();
        let p = search.hop_path(&g, src, dst, |_| false).unwrap();
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

    #[test]
    fn parallel_links_take_the_first_in_adjacency_order() {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::GenericSwitch, "s");
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let t = g.add_node(NodeKind::GenericSwitch, "t");
        let (first, _) = g.add_duplex_link(s, a, 10.0);
        let (second, _) = g.add_duplex_link(s, a, 10.0);
        g.add_duplex_link(a, t, 10.0);
        let p = shortest_path(&g, s, t).unwrap();
        assert_eq!(p.links[0], first);
        assert_eq!(p, shortest_path_by(&g, s, t, |_| 1.0).unwrap().1);
        let p = shortest_path_avoiding(&g, s, t, |l| l == first).unwrap();
        assert_eq!(p.links[0], second);
    }
}
