//! Equal-cost multi-path (ECMP) routing: deterministic per-flow hash
//! selection among the equal-cost shortest paths.
//!
//! The paper's Clos baseline (§5.2) runs ECMP + TCP: "the next hop at each
//! switch is determined pseudo-randomly by header field hashing, so each
//! TCP flow traverses only one of the equal cost shortest paths". A flow
//! takes path number `flow_hash(src, dst, flow_id) % N` of the pair's
//! equal-cost set, listed in lexicographic node order and capped at
//! [`MAX_ECMP_PATHS`].
//!
//! Two implementations produce that choice:
//!
//! * [`EcmpRouter`] (production) never builds the set. Servers are
//!   single-homed leaves (FT-G005), so every server pair's set is its
//!   switch pair's set with the two server legs attached. Per **egress
//!   switch** the router keeps one table over switch nodes — hop distance
//!   to the egress and the number of shortest paths to it, saturated at
//!   the cap — and *unranks* the hashed index by walking the
//!   shortest-path DAG from the ingress switch.
//! * [`equal_cost_paths`] + [`select_by_hash`] (oracle) enumerate the
//!   set. `flowsim::reference` and the oracle proptests route with them.

use crate::dijkstra::hop_distances;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;

/// Upper bound on paths enumerated per pair, to keep worst cases bounded on
/// very path-rich graphs. Clos networks stay far below this.
pub const MAX_ECMP_PATHS: usize = 512;

/// Enumerates all shortest (by hops) paths from `src` to `dst`, in
/// lexicographic node order, capped at [`MAX_ECMP_PATHS`].
///
/// This is the enumeration oracle [`EcmpRouter`] is tested against; it
/// runs two full-graph BFS passes and builds every path, so production
/// routing does not call it.
pub fn equal_cost_paths(g: &Graph, src: NodeId, dst: NodeId) -> Vec<Path> {
    // Distances *to* dst: run BFS backwards. Our graphs are built from
    // duplex links, so forward BFS from dst over reverse arcs equals BFS on
    // the same adjacency; we exploit symmetry but verify via link lookup
    // when reconstructing.
    let dist_from_src = hop_distances(g, src);
    let dist_to_dst = hop_distances(g, dst);
    let total = dist_from_src[dst.idx()];
    if total == usize::MAX {
        return Vec::new();
    }
    // DFS along the shortest-path DAG: edge (u,v) is on a shortest path iff
    // dist_src[u] + 1 + dist_dst[v] == total.
    let mut out = Vec::new();
    let mut stack_nodes = vec![src];
    dfs(
        g,
        src,
        dst,
        total,
        &dist_from_src,
        &dist_to_dst,
        &mut stack_nodes,
        &mut out,
    );
    out.sort_by(|a, b| a.nodes.cmp(&b.nodes));
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &Graph,
    u: NodeId,
    dst: NodeId,
    total: usize,
    dsrc: &[usize],
    ddst: &[usize],
    stack: &mut Vec<NodeId>,
    out: &mut Vec<Path>,
) {
    if out.len() >= MAX_ECMP_PATHS {
        return;
    }
    if u == dst {
        if let Some(p) = Path::from_nodes(g, stack) {
            out.push(p);
        }
        return;
    }
    if u != stack[0] && !g.node(u).kind.is_transit() {
        return;
    }
    // Deterministic order: sort neighbor candidates by id.
    let mut nexts: Vec<NodeId> = g
        .neighbors(u)
        .iter()
        .filter(|&&(v, _)| {
            dsrc[u.idx()] != usize::MAX
                && ddst[v.idx()] != usize::MAX
                && dsrc[u.idx()] + 1 + ddst[v.idx()] == total
        })
        .map(|&(v, _)| v)
        .collect();
    nexts.sort();
    nexts.dedup();
    for v in nexts {
        stack.push(v);
        dfs(g, v, dst, total, dsrc, ddst, stack, out);
        stack.pop();
    }
}

/// FNV-1a hash of a flow identity; stands in for the 5-tuple header hash a
/// real switch ASIC computes.
pub fn flow_hash(src: NodeId, dst: NodeId, flow_id: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in src
        .0
        .to_le_bytes()
        .iter()
        .chain(dst.0.to_le_bytes().iter())
        .chain(flow_id.to_le_bytes().iter())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Selects from a precomputed equal-cost set: the oracle counterpart of
/// [`EcmpRouter::select`] over the output of [`equal_cost_paths`].
pub fn select_by_hash(paths: &[Path], src: NodeId, dst: NodeId, flow_id: u64) -> Option<&Path> {
    if paths.is_empty() {
        return None;
    }
    let i = (flow_hash(src, dst, flow_id) % paths.len() as u64) as usize;
    paths.get(i)
}

/// Slot of a server in [`EcmpRouter`]'s node → switch map.
const NO_SLOT: u32 = u32::MAX;
/// Distance of a switch that cannot reach the egress.
const UNREACHED: u16 = u16::MAX;
/// [`MAX_ECMP_PATHS`] as a saturation bound for the `u16` path counts.
const CAP: u16 = MAX_ECMP_PATHS as u16;

/// The shortest-path DAG towards one egress switch, switch-indexed.
#[derive(Debug, Clone)]
struct EgressTable {
    /// Hops to the egress; [`UNREACHED`] when disconnected.
    dist: Box<[u16]>,
    /// Shortest paths to the egress, saturated at [`CAP`].
    count: Box<[u16]>,
}

/// One DAG arc out of a switch: `(next node, its slot, the link taken)`.
type Hop = (NodeId, u32, LinkId);

/// Where a path enters or leaves the switch graph.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    /// The switch itself, or a server's uplink switch.
    slot: u32,
    /// `(server, uplink)` when the endpoint is a server; the uplink is the
    /// directed link in the path's direction.
    leg: Option<(NodeId, LinkId)>,
}

/// ECMP route computation by counting and unranking on the switch graph.
///
/// Chooses exactly the path `select_by_hash(&equal_cost_paths(g, src,
/// dst), src, dst, flow_id)` would, without enumerating the set:
///
/// * Per egress switch `D` it lazily builds a table over the switch
///   nodes: BFS hop distance to `D`, and the number of shortest paths to
///   `D` (a DAG count in BFS order), saturated at [`MAX_ECMP_PATHS`].
///   Servers are leaves, so one table serves every destination server
///   on `D`, and every flow from any server.
/// * A flow from ingress switch `S` takes index
///   `i = flow_hash % min(count[S], cap)`. The walk from `S` visits the
///   DAG successors (switches one hop closer, sorted by node id, parallel
///   links collapsed) and descends into the first whose count exceeds
///   the remaining `i`, subtracting the counts it skips — the `i`-th
///   path in the oracle's lexicographic order. A saturated count is
///   still exact for this test because `i < cap`.
///
/// Under failures ([`EcmpRouter::select_surviving`]) the hash indexes the
/// *surviving* members of the capped set, in the same order. Per failure
/// epoch and egress the router counts alive paths on the DAG with failed
/// arcs masked; when the cap binds, the walk counts only alive paths
/// whose full rank is below the cap.
///
/// Endpoints are switches, or servers attached to exactly one switch
/// (FT-G005). Distances beyond `u16::MAX - 1` hops count as unreachable.
#[derive(Debug)]
pub struct EcmpRouter {
    /// Node index → switch slot ([`NO_SLOT`] for servers).
    slot: Vec<u32>,
    /// Switch slot → node.
    switches: Vec<NodeId>,
    /// Per egress slot; built on first use, valid for the graph's life.
    tables: Vec<Option<EgressTable>>,
    /// Per egress slot, alive-path counts under the failure set of
    /// `alive_epoch`, saturated at [`CAP`].
    alive: Vec<Option<Box<[u16]>>>,
    alive_epoch: Option<u64>,
    /// Scratch successor lists, one per walk depth.
    hops: Vec<Vec<Hop>>,
}

impl EcmpRouter {
    /// A router for `g`. Tables are built lazily per egress switch.
    pub fn new(g: &Graph) -> Self {
        let mut slot = vec![NO_SLOT; g.node_count()];
        let mut switches = Vec::new();
        for n in g.node_ids() {
            if g.node(n).kind.is_transit() {
                slot[n.idx()] = switches.len() as u32;
                switches.push(n);
            }
        }
        Self {
            slot,
            tables: vec![None; switches.len()],
            alive: Vec::new(),
            alive_epoch: None,
            switches,
            hops: Vec::new(),
        }
    }

    /// Path `i` of the capped equal-cost set from `src` to `dst`:
    /// `equal_cost_paths(g, src, dst).get(i)`, without the enumeration.
    pub fn nth_path(&mut self, g: &Graph, src: NodeId, dst: NodeId, i: usize) -> Option<Path> {
        if src == dst {
            return (i == 0).then(|| Path::from_nodes(g, &[src]))?;
        }
        let (from, to) = self.anchors(g, src, dst)?;
        let n = self.table(g, to.slot).count[from.slot as usize];
        // `i < n <= CAP`, so the cast is lossless.
        (i < usize::from(n)).then(|| self.walk(g, from, to, i as u16, n, None))
    }

    /// The path ECMP assigns to flow `flow_id` with every link up, or
    /// `None` when `dst` is unreachable.
    pub fn select(&mut self, g: &Graph, src: NodeId, dst: NodeId, flow_id: u64) -> Option<Path> {
        if src == dst {
            return Path::from_nodes(g, &[src]);
        }
        let (from, to) = self.anchors(g, src, dst)?;
        let n = self.table(g, to.slot).count[from.slot as usize];
        if n == 0 {
            return None;
        }
        let i = (flow_hash(src, dst, flow_id) % u64::from(n)) as u16;
        Some(self.walk(g, from, to, i, n, None))
    }

    /// The path ECMP assigns to flow `flow_id` when the links `is_down`
    /// reports are failed: the hash taken modulo the number of surviving
    /// members of the capped equal-cost set, indexing them in order.
    /// `None` when every member is down (or `dst` is unreachable).
    ///
    /// Alive-path counts are cached per egress switch for the failure set
    /// named by `epoch`: calls with the same `epoch` must pass the same
    /// `is_down`.
    pub fn select_surviving(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        flow_id: u64,
        epoch: u64,
        is_down: impl Fn(LinkId) -> bool,
    ) -> Option<Path> {
        if src == dst {
            return Path::from_nodes(g, &[src]);
        }
        let (from, to) = self.anchors(g, src, dst)?;
        let legs = [from.leg, to.leg];
        if legs.iter().flatten().any(|&(_, l)| is_down(l)) {
            return None;
        }
        let budget = self.table(g, to.slot).count[from.slot as usize];
        if budget == 0 {
            return None;
        }
        self.ensure_alive(g, to.slot, epoch, &is_down);
        let n = self.alive_prefix(g, to.slot, from.slot, budget, 0, &is_down);
        if n == 0 {
            return None;
        }
        let j = (flow_hash(src, dst, flow_id) % u64::from(n)) as u16;
        Some(self.walk(g, from, to, j, budget, Some(&is_down)))
    }

    /// Ingress and egress anchors of a route, or `None` for an endpoint
    /// off the switch graph (a detached server).
    fn anchors(&self, g: &Graph, src: NodeId, dst: NodeId) -> Option<(Anchor, Anchor)> {
        let anchor = |n: NodeId, up: bool| -> Option<Anchor> {
            let slot = self.slot[n.idx()];
            if slot != NO_SLOT {
                return Some(Anchor { slot, leg: None });
            }
            let sw = g.server_uplink_switch(n)?;
            let link = if up {
                g.find_link(n, sw)
            } else {
                g.find_link(sw, n)
            }?;
            let slot = self.slot[sw.idx()];
            (slot != NO_SLOT).then_some(Anchor {
                slot,
                leg: Some((n, link)),
            })
        };
        Some((anchor(src, true)?, anchor(dst, false)?))
    }

    /// The egress table of `to`, built on first use.
    fn table(&mut self, g: &Graph, to: u32) -> &EgressTable {
        let (slot, switches) = (&self.slot, &self.switches);
        self.tables[to as usize].get_or_insert_with(|| {
            let n = switches.len();
            let mut dist = vec![UNREACHED; n];
            let mut order = Vec::with_capacity(n);
            dist[to as usize] = 0;
            order.push(to);
            let mut head = 0;
            while let Some(&u) = order.get(head) {
                head += 1;
                let du = dist[u as usize];
                if du == UNREACHED - 1 {
                    continue;
                }
                for &(v, _) in g.neighbors(switches[u as usize]) {
                    let vs = slot[v.idx()];
                    if vs != NO_SLOT && dist[vs as usize] == UNREACHED {
                        dist[vs as usize] = du + 1;
                        order.push(vs);
                    }
                }
            }
            // BFS order lists every successor before its predecessors.
            let mut count = vec![0u16; n];
            count[to as usize] = 1;
            let mut seen = vec![NO_SLOT; n];
            for &u in &order[1..] {
                let du = dist[u as usize];
                let mut c = 0u16;
                for &(v, _) in g.neighbors(switches[u as usize]) {
                    let vs = slot[v.idx()];
                    if vs == NO_SLOT || dist[vs as usize] + 1 != du || seen[vs as usize] == u {
                        continue;
                    }
                    seen[vs as usize] = u;
                    c = c.saturating_add(count[vs as usize]).min(CAP);
                }
                count[u as usize] = c;
            }
            EgressTable {
                dist: dist.into_boxed_slice(),
                count: count.into_boxed_slice(),
            }
        })
    }

    /// Fills `hops[depth]` with the DAG successors of switch `u` towards
    /// egress `to`, sorted by node id; parallel links collapse onto the
    /// first one, the link `Graph::find_link` (and so `Path::from_nodes`)
    /// picks.
    fn successors(&mut self, g: &Graph, to: u32, u: u32, depth: usize) {
        if self.hops.len() <= depth {
            self.hops.resize_with(depth + 1, Vec::new);
        }
        let t = self.tables[to as usize].as_ref().expect("table built");
        let du = t.dist[u as usize];
        let buf = &mut self.hops[depth];
        buf.clear();
        for &(v, l) in g.neighbors(self.switches[u as usize]) {
            let vs = self.slot[v.idx()];
            if vs != NO_SLOT && t.dist[vs as usize].wrapping_add(1) == du {
                buf.push((v, vs, l));
            }
        }
        // Stable: the first link to each neighbour survives the dedup.
        buf.sort_by_key(|h| h.0);
        buf.dedup_by_key(|h| h.0);
    }

    /// Computes the alive-path counts towards `to` for this epoch's
    /// failure set, if not cached yet.
    fn ensure_alive(&mut self, g: &Graph, to: u32, epoch: u64, is_down: &dyn Fn(LinkId) -> bool) {
        if self.alive_epoch != Some(epoch) {
            self.alive.clear();
            self.alive.resize(self.switches.len(), None);
            self.alive_epoch = Some(epoch);
        }
        if self.alive[to as usize].is_some() {
            return;
        }
        let dist = &self.tables[to as usize].as_ref().expect("table built").dist;
        let mut alive = vec![0u16; dist.len()];
        let mut order: Vec<u32> = (0..dist.len() as u32)
            .filter(|&u| dist[u as usize] != UNREACHED)
            .collect();
        order.sort_by_key(|&u| dist[u as usize]);
        alive[to as usize] = 1;
        for &u in &order[1..] {
            self.successors(g, to, u, 0);
            let mut c = 0u16;
            for &(_, vs, l) in &self.hops[0] {
                if !is_down(l) {
                    c = c.saturating_add(alive[vs as usize]).min(CAP);
                }
            }
            alive[u as usize] = c;
        }
        self.alive[to as usize] = Some(alive.into_boxed_slice());
    }

    /// Alive paths among the first `budget` shortest paths (in
    /// lexicographic order) from switch `u` to egress `to`.
    fn alive_prefix(
        &mut self,
        g: &Graph,
        to: u32,
        u: u32,
        mut budget: u16,
        depth: usize,
        is_down: &dyn Fn(LinkId) -> bool,
    ) -> u16 {
        if u == to {
            return u16::from(budget > 0);
        }
        self.successors(g, to, u, depth);
        let mut total = 0;
        for k in 0..self.hops[depth].len() {
            if budget == 0 {
                break;
            }
            let (_, vs, l) = self.hops[depth][k];
            let c = self.count(to, vs);
            if c < CAP && budget >= c {
                // Every path through `vs` ranks inside the budget.
                if !is_down(l) {
                    total += self.alive_count(to, vs);
                }
                budget -= c;
            } else {
                // The budget ends inside `vs`'s sub-DAG.
                if !is_down(l) {
                    total += self.alive_prefix(g, to, vs, budget, depth + 1, is_down);
                }
                break;
            }
        }
        total
    }

    fn count(&self, to: u32, u: u32) -> u16 {
        self.tables[to as usize]
            .as_ref()
            .expect("table built")
            .count[u as usize]
    }

    fn alive_count(&self, to: u32, u: u32) -> u16 {
        self.alive[to as usize]
            .as_ref()
            .expect("alive counts built")[u as usize]
    }

    /// Unranks path `i` among the first `budget` paths (in lexicographic
    /// order) from `from` to `to`. With `is_down`, `i` counts only the
    /// alive ones.
    fn walk(
        &mut self,
        g: &Graph,
        from: Anchor,
        to: Anchor,
        mut i: u16,
        mut budget: u16,
        is_down: Option<&dyn Fn(LinkId) -> bool>,
    ) -> Path {
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        if let Some((s, up)) = from.leg {
            nodes.push(s);
            links.push(up);
        }
        let mut u = from.slot;
        nodes.push(self.switches[u as usize]);
        while u != to.slot {
            self.successors(g, to.slot, u, 0);
            let mut next = None;
            for k in 0..self.hops[0].len() {
                let (v, vs, l) = self.hops[0][k];
                let c = self.count(to.slot, vs);
                // Does every path through `vs` rank inside the budget?
                let whole = c < CAP && budget >= c;
                let weight = match is_down {
                    None if whole => c,
                    None => budget,
                    Some(down) if down(l) => 0,
                    Some(_) if whole => self.alive_count(to.slot, vs),
                    Some(down) => self.alive_prefix(g, to.slot, vs, budget, 1, down),
                };
                if i < weight {
                    next = Some((v, vs, l));
                    budget = budget.min(c);
                    break;
                }
                i -= weight;
                budget -= budget.min(c);
            }
            let (v, vs, l) = next.expect("rank below the path count");
            nodes.push(v);
            links.push(l);
            u = vs;
        }
        if let Some((t, down)) = to.leg {
            nodes.push(t);
            links.push(down);
        }
        Path { nodes, links }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// Two-level Clos slice: s -- e0 -- {a0,a1} -- e1 -- t.
    fn slice() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::Server, "s");
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let a0 = g.add_node(NodeKind::AggSwitch, "a0");
        let a1 = g.add_node(NodeKind::AggSwitch, "a1");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e0, 10.0);
        g.add_duplex_link(e0, a0, 10.0);
        g.add_duplex_link(e0, a1, 10.0);
        g.add_duplex_link(a0, e1, 10.0);
        g.add_duplex_link(a1, e1, 10.0);
        g.add_duplex_link(e1, t, 10.0);
        (g, s, t)
    }

    #[test]
    fn enumerates_both_equal_cost_paths() {
        let (g, s, t) = slice();
        let ps = equal_cost_paths(&g, s, t);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.len(), 4);
            p.validate(&g).unwrap();
        }
        assert_ne!(ps[0].nodes, ps[1].nodes);
    }

    #[test]
    fn hash_selection_is_deterministic_and_spreads() {
        let (g, s, t) = slice();
        let mut r = EcmpRouter::new(&g);
        let a = r.select(&g, s, t, 1).unwrap();
        let b = r.select(&g, s, t, 1).unwrap();
        assert_eq!(a, b);
        // Over many flow ids both paths should be used.
        let mut used = std::collections::HashSet::new();
        for fid in 0..32 {
            used.insert(r.select(&g, s, t, fid).unwrap().nodes);
        }
        assert_eq!(used.len(), 2);
    }

    #[test]
    fn unreachable_yields_empty() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Server, "a");
        let b = g.add_node(NodeKind::Server, "b");
        let mut r = EcmpRouter::new(&g);
        assert!(equal_cost_paths(&g, a, b).is_empty());
        assert!(r.nth_path(&g, a, b, 0).is_none());
        assert!(r.select(&g, a, b, 0).is_none());
        assert!(r.select_surviving(&g, a, b, 0, 1, |_| false).is_none());
    }

    #[test]
    fn select_by_hash_matches_router() {
        let (g, s, t) = slice();
        let ps = equal_cost_paths(&g, s, t);
        let mut r = EcmpRouter::new(&g);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(r.nth_path(&g, s, t, i).as_ref(), Some(p));
        }
        assert!(r.nth_path(&g, s, t, ps.len()).is_none());
        for fid in 0..8 {
            let direct = r.select(&g, s, t, fid).unwrap();
            let oracle = select_by_hash(&ps, s, t, fid).unwrap();
            assert_eq!(&direct, oracle);
        }
    }

    #[test]
    fn same_switch_and_self_routes() {
        let mut g = Graph::new();
        let e = g.add_node(NodeKind::EdgeSwitch, "e");
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e, 10.0);
        g.add_duplex_link(t, e, 10.0);
        let mut r = EcmpRouter::new(&g);
        for (a, b) in [(s, t), (s, e), (e, t), (s, s), (e, e)] {
            let want = equal_cost_paths(&g, a, b);
            assert_eq!(want.len(), 1);
            assert_eq!(
                r.select(&g, a, b, 3).as_ref(),
                Some(&want[0]),
                "{a:?}->{b:?}"
            );
        }
    }

    #[test]
    fn cap_binds_on_wide_layers() {
        // Four full layers of width 6 between two switches: 6^4 = 1296
        // equal-cost paths, capped at MAX_ECMP_PATHS.
        let mut g = Graph::new();
        let src = g.add_node(NodeKind::GenericSwitch, "src");
        let mut prev = vec![src];
        for layer in 0..4 {
            let cur: Vec<NodeId> = (0..6)
                .map(|i| g.add_node(NodeKind::GenericSwitch, format!("l{layer}n{i}")))
                .collect();
            for &a in &prev {
                for &b in &cur {
                    g.add_duplex_link(a, b, 10.0);
                }
            }
            prev = cur;
        }
        let dst = g.add_node(NodeKind::GenericSwitch, "dst");
        for &a in &prev {
            g.add_duplex_link(a, dst, 10.0);
        }
        let ps = equal_cost_paths(&g, src, dst);
        assert_eq!(ps.len(), MAX_ECMP_PATHS);
        let mut r = EcmpRouter::new(&g);
        for i in [0, 1, 215, 216, 300, MAX_ECMP_PATHS - 1] {
            assert_eq!(
                r.nth_path(&g, src, dst, i).as_ref(),
                Some(&ps[i]),
                "rank {i}"
            );
        }
        assert!(r.nth_path(&g, src, dst, MAX_ECMP_PATHS).is_none());
    }
}
