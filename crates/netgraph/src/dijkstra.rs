//! Shortest-path algorithms: BFS for hop counts, Dijkstra for weighted
//! lengths with a caller-supplied link-length function.
//!
//! All routines refuse to expand *through* non-transit nodes (servers):
//! a server may start or terminate a path but never forward.
//!
//! A single hop-count path runs one level-synchronous BFS over a
//! reusable state that blocks nodes and links with boolean masks
//! ([`shortest_path_avoiding`]). Yen's searches run the same rules as a
//! goal-directed A* on per-graph state (see [`crate::yen::Yen`]), and the
//! BFS is their oracle. The heap Dijkstra serves only real-valued lengths.

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
#[derive(Debug, Clone)]
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

    /// Clears every link block.
    pub(crate) fn unblock_links(&mut self) {
        for l in self.blocked_links.drain(..) {
            self.link_blocked[l.idx()] = false;
        }
    }

    /// Clears every node and link block.
    pub(crate) fn unblock_all(&mut self) {
        for n in self.blocked_nodes.drain(..) {
            self.node_blocked[n.idx()] = false;
        }
        self.unblock_links();
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
        debug_assert!(self.fits(g), "search state built for another graph");
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

    /// Whether the state was built for a graph of `g`'s shape.
    fn fits(&self, g: &Graph) -> bool {
        self.dist.len() == g.node_count() && self.link_blocked.len() == g.link_count()
    }
}

/// `h` of a node that cannot reach the goal.
const FAR: u32 = u32::MAX;

/// Per-graph, goal-directed hop-count search: the [`Search`] rules run
/// as a unit-weight A*, for many searches toward one destination.
///
/// [`GoalSearch::aim`] runs one reverse BFS from `dst` over the incoming
/// links of switches, with `down` links removed: `h(v)` is then the
/// fewest hops from `v` to `dst` through switches, `FAR` when there is
/// none, and `FAR` on every server but `dst`. Node and link blocks only
/// lengthen paths, so `h` is a lower bound under any blocks, and it is
/// consistent: `h(u) <= 1 + h(v)` on every usable link `u → v`.
///
/// [`GoalSearch::find`] then pops nodes from a bucket queue keyed by
/// `f = g + h` and never enters a node with `h = FAR`, so it leaves
/// out everything that cannot reach `dst` in time. It returns the path
/// of [`Search::hop_path`] bit for bit. Because `h` is consistent, `g`
/// is final when a node is popped. Let `D` be the `f` at which `dst` is
/// popped. Every in-neighbour `u` of a shortest-path node `v` with
/// `g(u) = g(v) - 1` lies on a shortest path itself, so `f(u) <= D`.
/// The search exhausts bucket `D` before it stops, so all such `u` are
/// expanded. Each one offers itself as `v`'s predecessor under the BFS
/// rule: the lowest id wins, through its first usable link in
/// adjacency order.
#[derive(Debug, Clone)]
pub(crate) struct GoalSearch {
    /// Blocks, `g` distances, predecessors and the reset list.
    pub(crate) search: Search,
    /// The links from `u` into switches are `out[out_start[u]..out_start[u + 1]]`,
    /// in adjacency order: the only links a search toward a switch can take.
    out_start: Vec<u32>,
    out: Vec<(NodeId, LinkId)>,
    /// The links into `v` from switches are `inc[inc_start[v]..inc_start[v + 1]]`.
    inc_start: Vec<u32>,
    inc: Vec<(NodeId, LinkId)>,
    /// Lower bound on the hops to the last [`GoalSearch::aim`]'s goal.
    h: Vec<u32>,
    /// Nodes with `h < FAR`, in BFS order: the reverse BFS queue.
    aimed: Vec<NodeId>,
    /// `buckets[f]`: nodes queued at `f = g + h`, some of them stale.
    buckets: Vec<Vec<NodeId>>,
}

impl GoalSearch {
    pub(crate) fn new(g: &Graph) -> Self {
        let search = Search::new(g);
        let n = g.node_count();
        let mut out_start = Vec::with_capacity(n + 1);
        let mut out = Vec::new();
        let mut inc_count = vec![0u32; n + 1];
        for u in g.node_ids() {
            out_start.push(out.len() as u32);
            for &(v, l) in g.neighbors(u) {
                if search.forwards[v.idx()] {
                    out.push((v, l));
                }
                if search.forwards[u.idx()] {
                    inc_count[v.idx() + 1] += 1;
                }
            }
        }
        out_start.push(out.len() as u32);
        for v in 0..n {
            inc_count[v + 1] += inc_count[v];
        }
        let inc_start = inc_count.clone();
        let mut inc = vec![(NodeId(0), LinkId(0)); inc_count[n] as usize];
        for u in g.node_ids().filter(|u| search.forwards[u.idx()]) {
            for &(v, l) in g.neighbors(u) {
                let at = &mut inc_count[v.idx()];
                inc[*at as usize] = (u, l);
                *at += 1;
            }
        }
        GoalSearch {
            search,
            out_start,
            out,
            inc_start,
            inc,
            h: vec![FAR; n],
            aimed: Vec::new(),
            buckets: vec![Vec::new()],
        }
    }

    /// Whether the state was built for a graph of `g`'s shape.
    pub(crate) fn fits(&self, g: &Graph) -> bool {
        self.search.fits(g)
    }

    /// Sets the goal of the next searches to `dst`, with every link for
    /// which `down` holds removed: one reverse BFS that fills `h`.
    pub(crate) fn aim<F>(&mut self, dst: NodeId, down: F)
    where
        F: Fn(LinkId) -> bool,
    {
        for n in self.aimed.drain(..) {
            self.h[n.idx()] = FAR;
        }
        self.h[dst.idx()] = 0;
        self.aimed.push(dst);
        let mut next = 0;
        while let Some(&v) = self.aimed.get(next) {
            next += 1;
            let hv = self.h[v.idx()] + 1;
            let (lo, hi) = (self.inc_start[v.idx()], self.inc_start[v.idx() + 1]);
            for &(u, l) in &self.inc[lo as usize..hi as usize] {
                if self.h[u.idx()] == FAR && !down(l) {
                    self.h[u.idx()] = hv;
                    self.aimed.push(u);
                }
            }
        }
    }

    /// Runs the search from `src` to the goal `dst` of the last
    /// [`GoalSearch::aim`], under the current blocks and with the same
    /// `down` links removed; returns whether `dst` was reached. The path
    /// is then read with [`GoalSearch::append_path`].
    pub(crate) fn find<F>(&mut self, g: &Graph, src: NodeId, dst: NodeId, down: F) -> bool
    where
        F: Fn(LinkId) -> bool,
    {
        debug_assert!(self.fits(g), "search state built for another graph");
        debug_assert_eq!(
            self.h[dst.idx()],
            0,
            "search toward a goal it was not aimed at"
        );
        let Self {
            search,
            out_start,
            out,
            h,
            buckets,
            ..
        } = self;
        for n in search.touched.drain(..) {
            search.dist[n.idx()] = u32::MAX;
            search.prev[n.idx()] = None;
        }
        search.dist[src.idx()] = 0;
        search.touched.push(src);
        if src == dst {
            return true;
        }
        // A switch goal is entered only from switches' links into
        // switches; a server goal needs the full adjacency. Either way
        // `h` is FAR on every server but `dst`, so no other server is
        // entered.
        let to_switch = search.forwards[dst.idx()];
        let mut u = src;
        let mut hi = 0;
        let mut b = 0;
        loop {
            let gu = search.dist[u.idx()];
            let links = if to_switch {
                &out[out_start[u.idx()] as usize..out_start[u.idx() + 1] as usize]
            } else {
                g.neighbors(u)
            };
            for &(v, l) in links {
                let vi = v.idx();
                if h[vi] == FAR || (search.node_blocked[vi] && v != dst) {
                    continue;
                }
                if search.link_blocked[l.idx()] || down(l) {
                    continue;
                }
                let gv = gu + 1;
                if gv < search.dist[vi] {
                    if search.dist[vi] == u32::MAX {
                        search.touched.push(v);
                    }
                    search.dist[vi] = gv;
                    search.prev[vi] = Some((u, l));
                    let f = (gv + h[vi]) as usize;
                    if f >= buckets.len() {
                        buckets.resize_with(f + 1, Vec::new);
                    }
                    buckets[f].push(v);
                    hi = hi.max(f);
                } else if gv == search.dist[vi] && search.prev[vi].is_some_and(|(p, _)| u < p) {
                    search.prev[vi] = Some((u, l));
                }
            }
            // Next node: the top of the lowest non-empty bucket, skipping
            // stale entries and the goal, which is never expanded. A
            // bucket whose `f` is the goal's distance is the last.
            u = loop {
                match buckets[b].pop() {
                    Some(v) if search.dist[v.idx()] + h[v.idx()] != b as u32 || v == dst => {}
                    Some(v) => break v,
                    None if search.dist[dst.idx()] == b as u32 || b >= hi => {
                        for bucket in &mut buckets[b..=hi] {
                            bucket.clear();
                        }
                        return search.dist[dst.idx()] != u32::MAX;
                    }
                    None => b += 1,
                }
            };
        }
    }

    /// Appends the path the last [`GoalSearch::find`] found, `src`
    /// excluded, to `nodes` and `links`.
    pub(crate) fn append_path(
        &self,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<LinkId>,
    ) {
        let (n0, l0) = (nodes.len(), links.len());
        let mut cur = dst;
        while cur != src {
            let (p, l) = self.search.prev[cur.idx()].expect("found path is traced");
            nodes.push(cur);
            links.push(l);
            cur = p;
        }
        nodes[n0..].reverse();
        links[l0..].reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// `n` switches, each followed in id order by 0–3 servers, `links`
    /// random cables, `parallel` extra cables between the first and last
    /// switch, and one server homed on two switches (a shortcut for any
    /// search that would forward through a server).
    fn switches_and_servers(
        n: usize,
        links: usize,
        parallel: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        let mut g = Graph::new();
        let mut switches = Vec::with_capacity(n);
        for i in 0..n {
            let sw = g.add_node(NodeKind::GenericSwitch, format!("sw{i}"));
            for j in 0..rng.gen_range(0..=3) {
                let h = g.add_node(NodeKind::Server, format!("h{i}-{j}"));
                g.add_duplex_link(h, sw, 10.0);
            }
            switches.push(sw);
        }
        for _ in 0..links {
            let a = switches[rng.gen_range(0..n)];
            let b = switches[rng.gen_range(0..n)];
            if a != b {
                g.add_duplex_link(a, b, 10.0);
            }
        }
        for _ in 0..parallel {
            g.add_duplex_link(switches[0], switches[n - 1], 10.0);
        }
        let dual = g.add_node(NodeKind::Server, "dual");
        g.add_duplex_link(dual, switches[0], 10.0);
        g.add_duplex_link(dual, switches[rng.gen_range(0..n)], 10.0);
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The goal-directed search returns `hop_path`'s result bit for
        /// bit toward every goal (switches and servers), under random
        /// down links (each direction on its own) and random node and
        /// link blocks, including blocked sources and goals, parallel
        /// cables and unreachable goals.
        #[test]
        fn goal_search_matches_hop_search(
            n in 2usize..12,
            links in 1usize..30,
            parallel in 0usize..3,
            seed in any::<u64>(),
            down_pct in 0u32..50,
            block_pct in 0u32..30,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = switches_and_servers(n, links, parallel, &mut rng);
            let down: Vec<bool> = (0..g.link_count())
                .map(|_| rng.gen_range(0u32..100) < down_pct)
                .collect();
            let is_down = |l: LinkId| down[l.idx()];
            let nodes = g.node_count() as u32;
            let mut gs = GoalSearch::new(&g);
            for dst in g.node_ids() {
                gs.aim(dst, is_down);
                for _ in 0..4 {
                    let src = NodeId(rng.gen_range(0..nodes));
                    for v in g.node_ids() {
                        if rng.gen_range(0u32..100) < block_pct {
                            gs.search.block_node(v);
                        }
                    }
                    for l in g.link_ids() {
                        if rng.gen_range(0u32..100) < block_pct {
                            gs.search.block_link(l);
                        }
                    }
                    let want = gs.search.hop_path(&g, src, dst, is_down);
                    let got = gs.find(&g, src, dst, is_down).then(|| {
                        let mut p = Path { nodes: vec![src], links: Vec::new() };
                        gs.append_path(src, dst, &mut p.nodes, &mut p.links);
                        p
                    });
                    gs.search.unblock_all();
                    prop_assert_eq!(got, want, "{:?} -> {:?}", src, dst);
                }
            }
        }
    }
}
