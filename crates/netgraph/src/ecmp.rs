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
//!   switch** the router keeps hop distances over the switch graph,
//!   computed 64 egress switches per sweep by the word-parallel BFS that
//!   path-length profiling also runs ([`crate::switch_graph`]). Path
//!   counts towards the egress, saturated at the cap, are memoized only
//!   for the switches a route asks about. The router *unranks* the
//!   hashed index by walking the shortest-path DAG from the ingress
//!   switch over a switch arc list pre-sorted by node id.
//! * [`equal_cost_paths`] + [`select_by_hash`] (oracle) enumerate the
//!   set. `flowsim::reference` and the oracle proptests route with them.
//!
//! The router's output is bit-identical to the oracle's. Distances are
//! hop counts whichever BFS computes them, and saturated counts are the
//! same sums whether computed eagerly or on demand. The arc list orders
//! successors exactly as the oracle's DFS does, and keeps for each
//! neighbour the link `Path::from_nodes` picks.

use crate::dijkstra::hop_distances;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;
use crate::switch_graph::{Lanes, SwitchView, Wire};

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
/// A path count not memoized yet; counts saturate at [`CAP`], far below.
const UNKNOWN: u16 = u16::MAX;
/// Egress switches per distance sweep: one per bit of a `u64` lane word.
const BLOCK: usize = 64;

/// The switch graph's arcs by tail: the arcs out of switch slot `u` are
/// `arcs[start[u]..start[u + 1]]` as `(head slot, link)`, sorted by
/// head, with parallel links collapsed onto the first one — the link
/// `Graph::find_link` (and so `Path::from_nodes`) picks. Slots follow
/// node ids, so head order is node-id order.
#[derive(Debug)]
struct Arcs {
    start: Vec<u32>,
    arcs: Vec<(u32, LinkId)>,
}

impl Arcs {
    fn of(g: &Graph, slot: &[u32], switches: &[NodeId]) -> Self {
        let mut start = Vec::with_capacity(switches.len() + 1);
        let mut arcs = Vec::new();
        let mut buf = Vec::new();
        start.push(0);
        for &sw in switches {
            buf.clear();
            buf.extend(g.neighbors(sw).iter().filter_map(|&(v, l)| {
                let vs = slot[v.idx()];
                (vs != NO_SLOT).then_some((vs, l))
            }));
            // Stable: the first link to each neighbour survives the dedup.
            buf.sort_by_key(|a| a.0);
            buf.dedup_by_key(|a| a.0);
            arcs.extend_from_slice(&buf);
            start.push(arcs.len() as u32);
        }
        Self { start, arcs }
    }

    fn out(&self, u: u32) -> &[(u32, LinkId)] {
        &self.arcs[self.start[u as usize] as usize..self.start[u as usize + 1] as usize]
    }
}

/// The shortest-path DAG towards one egress switch, switch-indexed.
#[derive(Debug)]
struct Egress {
    /// Hops from the egress along out-arcs, the distance
    /// `equal_cost_paths` measures; [`UNREACHED`] when disconnected.
    dist: Box<[u16]>,
    /// Shortest paths to the egress, saturated at [`CAP`]; [`UNKNOWN`]
    /// until a route needs it, and empty until the first route into the
    /// egress.
    count: Box<[u16]>,
}

/// Paths from `u` to the egress of `dist` along the DAG arcs whose link
/// `up` admits, saturated at [`CAP`]. `memo` holds the counts known so
/// far ([`UNKNOWN`] elsewhere, 1 at the egress); the call memoizes `u`'s
/// whole admitted sub-DAG, children before parents, on an explicit
/// stack instead of the call stack.
fn dag_count(
    arcs: &Arcs,
    dist: &[u16],
    memo: &mut [u16],
    stack: &mut Vec<u32>,
    u: u32,
    up: impl Fn(LinkId) -> bool,
) -> u16 {
    stack.clear();
    stack.push(u);
    while let Some(&x) = stack.last() {
        if memo[x as usize] != UNKNOWN {
            stack.pop();
            continue;
        }
        let dx = dist[x as usize];
        let mut total = 0u16;
        let mut ready = true;
        if dx != UNREACHED {
            for &(y, l) in arcs.out(x) {
                if dist[y as usize].wrapping_add(1) != dx || !up(l) {
                    continue;
                }
                match memo[y as usize] {
                    UNKNOWN => {
                        stack.push(y);
                        ready = false;
                    }
                    c => total = total.saturating_add(c).min(CAP),
                }
            }
        }
        if ready {
            memo[x as usize] = total;
            stack.pop();
        }
    }
    memo[u as usize]
}

/// A fresh count memo over `n` switches towards egress `to`: one path
/// at the egress, every other count [`UNKNOWN`].
fn unknown_counts(n: usize, to: u32) -> Box<[u16]> {
    let mut memo = vec![UNKNOWN; n].into_boxed_slice();
    memo[to as usize] = 1;
    memo
}

/// A failure set: whether a link is down.
type IsDown<'a> = &'a dyn Fn(LinkId) -> bool;

/// One egress's DAG, read-only, once the counts a walk reads are
/// memoized: every switch a walk from a counted switch can visit is
/// counted, and under failures every one it can visit over live arcs
/// has its alive count.
struct Dag<'a> {
    arcs: &'a Arcs,
    dist: &'a [u16],
    count: &'a [u16],
    to: u32,
    /// Alive-path counts and the failure set, under failures.
    alive: Option<(&'a [u16], IsDown<'a>)>,
}

impl Dag<'_> {
    /// The DAG arcs out of `u`: to switches one hop closer, by node id.
    fn successors(&self, u: u32) -> impl Iterator<Item = (u32, LinkId)> + '_ {
        let du = self.dist[u as usize];
        self.arcs
            .out(u)
            .iter()
            .copied()
            .filter(move |&(v, _)| self.dist[v as usize].wrapping_add(1) == du)
    }

    fn count(&self, u: u32) -> u16 {
        let c = self.count[u as usize];
        debug_assert_ne!(c, UNKNOWN, "count read before it was memoized");
        c
    }

    /// Alive paths among the first `budget` shortest paths (in
    /// lexicographic order) from switch `u`.
    fn alive_prefix(&self, u: u32, mut budget: u16) -> u16 {
        let (alive, is_down) = self.alive.expect("alive counts");
        if u == self.to {
            return u16::from(budget > 0);
        }
        let mut total = 0;
        for (vs, l) in self.successors(u) {
            if budget == 0 {
                break;
            }
            let c = self.count(vs);
            if c < CAP && budget >= c {
                // Every path through `vs` ranks inside the budget.
                if !is_down(l) {
                    debug_assert_ne!(alive[vs as usize], UNKNOWN);
                    total += alive[vs as usize];
                }
                budget -= c;
            } else {
                // The budget ends inside `vs`'s sub-DAG.
                if !is_down(l) {
                    total += self.alive_prefix(vs, budget);
                }
                break;
            }
        }
        total
    }

    /// Unranks path `i` among the first `budget` paths (in lexicographic
    /// order) from switch `u`, appending its switches and links. Under
    /// failures `i` counts only the alive ones.
    fn walk(&self, mut u: u32, mut i: u16, mut budget: u16, mut step: impl FnMut(u32, LinkId)) {
        while u != self.to {
            let mut next = None;
            for (vs, l) in self.successors(u) {
                let c = self.count(vs);
                // Does every path through `vs` rank inside the budget?
                let whole = c < CAP && budget >= c;
                let weight = match self.alive {
                    None if whole => c,
                    None => budget,
                    Some((_, down)) if down(l) => 0,
                    Some((alive, _)) if whole => alive[vs as usize],
                    Some(_) => self.alive_prefix(vs, budget),
                };
                if i < weight {
                    next = Some((vs, l));
                    budget = budget.min(c);
                    break;
                }
                i -= weight;
                budget -= budget.min(c);
            }
            let (vs, l) = next.expect("rank below the path count");
            step(vs, l);
            u = vs;
        }
    }
}

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
/// * The router keeps the switch graph once, as a server-free arc list
///   per switch sorted by neighbour id with parallel links collapsed.
///   Egress switches are grouped in blocks of 64, the switches with
///   servers first. On the first route into an egress switch `D` it
///   runs one word-parallel BFS ([`SwitchView`]'s level loop) from
///   `D`'s whole block, and writes each lane's hop distances. Servers
///   are leaves, so one table serves every destination server on `D`,
///   and every flow from any server.
/// * Path counts towards `D` — the number of shortest paths, saturated
///   at [`MAX_ECMP_PATHS`] — are memoized on demand: a flow from
///   ingress switch `S` counts `S`'s sub-DAG only.
/// * A flow from `S` takes index `i = flow_hash % min(count[S], cap)`.
///   The walk from `S` visits the DAG successors (switches one hop
///   closer, by node id) and descends into the first whose count
///   exceeds the remaining `i`, subtracting the counts it skips — the
///   `i`-th path in the oracle's lexicographic order. A saturated count
///   is still exact for this test because `i < cap`.
///
/// Under failures ([`EcmpRouter::select_surviving`]) the hash indexes the
/// *surviving* members of the capped set, in the same order. Per failure
/// epoch and egress the router memoizes alive-path counts on the DAG
/// with failed arcs masked; when the cap binds, the walk counts only
/// alive paths whose full rank is below the cap.
///
/// Endpoints are switches, or servers attached to exactly one switch
/// (FT-G005). Distances beyond `u16::MAX - 1` hops count as unreachable.
#[derive(Debug)]
pub struct EcmpRouter {
    /// Node index → switch slot ([`NO_SLOT`] for servers).
    slot: Vec<u32>,
    /// Switch slot → node.
    switches: Vec<NodeId>,
    arcs: Arcs,
    /// The same arcs as an incoming-link view, for the distance BFS.
    view: SwitchView,
    lanes: Lanes,
    /// Switch slots in block order: the switches with servers first,
    /// then the rest, each group by node id.
    order: Vec<u32>,
    /// Switch slot → its position in `order`.
    position: Vec<u32>,
    /// Per egress slot, filled a [`BLOCK`] of `order` at a time on the
    /// first route into it; valid for the graph's life.
    egress: Vec<Option<Egress>>,
    /// Per egress slot, alive-path counts under the failure set of
    /// `alive_epoch`, memoized like the path counts.
    alive: Vec<Option<Box<[u16]>>>,
    alive_epoch: Option<u64>,
    /// Scratch stack of [`dag_count`].
    stack: Vec<u32>,
}

impl EcmpRouter {
    /// A router for `g`. Tables are built lazily per block of egress
    /// switches.
    pub fn new(g: &Graph) -> Self {
        let mut slot = vec![NO_SLOT; g.node_count()];
        let mut switches = Vec::new();
        for n in g.node_ids() {
            if g.node(n).kind.is_transit() {
                slot[n.idx()] = switches.len() as u32;
                switches.push(n);
            }
        }
        let arcs = Arcs::of(g, &slot, &switches);
        let mut serves = vec![false; switches.len()];
        for s in g.node_ids() {
            match g.server_uplink_switch(s).map(|sw| slot[sw.idx()]) {
                Some(u) if u != NO_SLOT => serves[u as usize] = true,
                _ => {}
            }
        }
        let mut order: Vec<u32> = (0..switches.len() as u32).collect();
        order.sort_by_key(|&u| !serves[u as usize]);
        let mut position = vec![0; switches.len()];
        for (i, &u) in order.iter().enumerate() {
            position[u as usize] = i as u32;
        }
        let mut view = SwitchView::default();
        view.rebuild(switches.len(), |wire| {
            for u in 0..switches.len() {
                for &(v, _) in arcs.out(u as u32) {
                    wire(Wire::Link {
                        from: u,
                        to: v as usize,
                    });
                }
            }
        });
        Self {
            slot,
            arcs,
            view,
            lanes: Lanes::default(),
            order,
            position,
            egress: (0..switches.len()).map(|_| None).collect(),
            alive: Vec::new(),
            alive_epoch: None,
            switches,
            stack: Vec::new(),
        }
    }

    /// Path `i` of the capped equal-cost set from `src` to `dst`:
    /// `equal_cost_paths(g, src, dst).get(i)`, without the enumeration.
    pub fn nth_path(&mut self, g: &Graph, src: NodeId, dst: NodeId, i: usize) -> Option<Path> {
        if src == dst {
            return (i == 0).then(|| Path::from_nodes(g, &[src]))?;
        }
        let (from, to) = self.anchors(g, src, dst)?;
        let n = self.path_count(to.slot, from.slot);
        // `i < n <= CAP`, so the cast is lossless.
        (i < usize::from(n)).then(|| self.walk(from, to, i as u16, n, None))
    }

    /// The path ECMP assigns to flow `flow_id` with every link up, or
    /// `None` when `dst` is unreachable.
    pub fn select(&mut self, g: &Graph, src: NodeId, dst: NodeId, flow_id: u64) -> Option<Path> {
        if src == dst {
            return Path::from_nodes(g, &[src]);
        }
        let (from, to) = self.anchors(g, src, dst)?;
        let n = self.path_count(to.slot, from.slot);
        if n == 0 {
            return None;
        }
        let i = (flow_hash(src, dst, flow_id) % u64::from(n)) as u16;
        Some(self.walk(from, to, i, n, None))
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
        let budget = self.path_count(to.slot, from.slot);
        if budget == 0 {
            return None;
        }
        self.fill_alive(to.slot, from.slot, epoch, &is_down);
        let n = self
            .dag(to.slot, Some(&is_down))
            .alive_prefix(from.slot, budget);
        if n == 0 {
            return None;
        }
        let j = (flow_hash(src, dst, flow_id) % u64::from(n)) as u16;
        Some(self.walk(from, to, j, budget, Some(&is_down)))
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

    /// Shortest paths from switch `u` to egress `to`, saturated at
    /// [`CAP`]; builds `to`'s block of distances on first use.
    fn path_count(&mut self, to: u32, u: u32) -> u16 {
        if self.egress[to as usize].is_none() {
            self.build_block(self.position[to as usize] as usize / BLOCK);
        }
        let e = self.egress[to as usize].as_mut().expect("block built");
        if e.count.is_empty() {
            e.count = unknown_counts(e.dist.len(), to);
        }
        dag_count(
            &self.arcs,
            &e.dist,
            &mut e.count,
            &mut self.stack,
            u,
            |_| true,
        )
    }

    /// Hop distances towards every egress switch of `block`, from one
    /// word-parallel BFS with egress `order[block * BLOCK + i]` on lane
    /// `i`.
    fn build_block(&mut self, block: usize) {
        let n = self.switches.len();
        let lanes = &self.order[block * BLOCK..n.min((block + 1) * BLOCK)];
        let mut dist: Vec<Box<[u16]>> = lanes
            .iter()
            .map(|&e| {
                let mut d = vec![UNREACHED; n].into_boxed_slice();
                d[e as usize] = 0;
                d
            })
            .collect();
        self.view
            .bfs_levels(lanes, &mut self.lanes, |hops, v, mut new| {
                let Some(hops) = u16::try_from(hops).ok().filter(|&h| h < UNREACHED) else {
                    return;
                };
                while new != 0 {
                    dist[new.trailing_zeros() as usize][v] = hops;
                    new &= new - 1;
                }
            });
        for (&e, dist) in lanes.iter().zip(dist) {
            let count = Box::default();
            self.egress[e as usize] = Some(Egress { dist, count });
        }
    }

    /// Memoizes the alive-path counts of switch `u`'s sub-DAG towards
    /// egress `to` under this epoch's failure set. `to`'s distances must
    /// be built.
    fn fill_alive(&mut self, to: u32, u: u32, epoch: u64, is_down: IsDown<'_>) {
        let n = self.switches.len();
        if self.alive_epoch != Some(epoch) {
            self.alive.clear();
            self.alive.resize(n, None);
            self.alive_epoch = Some(epoch);
        }
        let alive = self.alive[to as usize].get_or_insert_with(|| unknown_counts(n, to));
        let e = self.egress[to as usize].as_ref().expect("block built");
        dag_count(&self.arcs, &e.dist, alive, &mut self.stack, u, |l| {
            !is_down(l)
        });
    }

    /// The read-only DAG towards `to`, with its alive counts when
    /// `is_down` is given.
    fn dag<'a>(&'a self, to: u32, is_down: Option<IsDown<'a>>) -> Dag<'a> {
        let e = self.egress[to as usize].as_ref().expect("block built");
        Dag {
            arcs: &self.arcs,
            dist: &e.dist,
            count: &e.count,
            to,
            alive: is_down.map(|down| {
                let alive = self.alive[to as usize].as_deref().expect("alive counts");
                (alive, down)
            }),
        }
    }

    /// Path `i` among the first `budget` (in lexicographic order) from
    /// `from` to `to`, server legs attached. With `is_down`, `i` counts
    /// only the alive ones.
    fn walk(
        &self,
        from: Anchor,
        to: Anchor,
        i: u16,
        budget: u16,
        is_down: Option<IsDown<'_>>,
    ) -> Path {
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        if let Some((s, up)) = from.leg {
            nodes.push(s);
            links.push(up);
        }
        nodes.push(self.switches[from.slot as usize]);
        self.dag(to.slot, is_down)
            .walk(from.slot, i, budget, |v, l| {
                nodes.push(self.switches[v as usize]);
                links.push(l);
            });
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
