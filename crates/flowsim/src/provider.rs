//! Routing behind a trait, with failure-epoch route caches.
//!
//! The old event loop routed inline: ECMP enumeration per arrival, and —
//! once any link had failed — a fresh Yen run per arriving or rerouted
//! connection. Routing is a pure function of `(graph, failure set,
//! src, dst)` though, so all of it is cacheable until the failure set
//! changes. A [`PathProvider`] owns that cache and keys its validity on
//! [`FailedLinks::epoch`]: post-failure arrivals between two failure
//! events hit the cached failure-aware answer instead of recomputing it.
//!
//! Two providers ship: [`EcmpProvider`] for single-path TCP and
//! [`MptcpProvider`], the one failure-aware MPTCP router. The latter
//! reads switch-pair entries from a shared [`SharedRouteTable`], fills
//! a private one for pairs outside it, and reuses an entry exactly when
//! its Yen footprint has no failed link.
//!
//! Providers return paths as [`PathId`]s interned in the simulation's
//! [`PathArena`], so the hot loop never clones a path.

use crate::failures::FailedLinks;
use crate::sim::FlowSpec;
use netgraph::{dijkstra, ecmp, yen::Yen, Graph, NodeId, Path, PathArena, PathId};
use routing::{ksp, SharedRouteTable};
use std::collections::HashMap;
use std::sync::Arc;

/// A routed connection: interned subflow paths plus the fairness weight
/// each subflow carries in max-min allocation.
#[derive(Debug, Clone)]
pub struct RoutedConn {
    /// Interned subflow paths (1 for TCP, up to k for MPTCP).
    pub path_ids: Vec<PathId>,
    /// Weight per subflow (1.0 uncoupled, 1/k coupled).
    pub subflow_weight: f64,
}

/// Source of connection routes under a mutable failure state.
pub trait PathProvider {
    /// Routes a connection for `spec` under the current failures.
    ///
    /// Returns `None` when the endpoints are disconnected. Must be
    /// deterministic in `(g, failed, spec)` — the simulator relies on a
    /// re-route after a failure giving exactly the routes a fresh
    /// computation would.
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn>;
}

/// ECMP + single-path TCP: hash-selects among the surviving equal-cost
/// shortest paths, falling back to any surviving path.
///
/// Routes through an [`ecmp::EcmpRouter`]: per egress switch it keeps
/// one shortest-path table over the switch graph and unranks the
/// hash-chosen path, interning only that path. The tables ignore
/// failures, so they live as long as the graph; each failure epoch adds
/// lazily computed survivor counts per egress switch. Pairs whose whole
/// equal-cost set is down take a failure-aware shortest path, cached
/// per pair until the epoch changes. A provider serves one graph.
#[derive(Debug, Default)]
pub struct EcmpProvider {
    /// Built on the first route, for that call's graph.
    router: Option<ecmp::EcmpRouter>,
    /// Per-pair fallback paths for the current epoch (`None` =
    /// disconnected).
    fallback: HashMap<(NodeId, NodeId), Option<PathId>>,
    epoch: u64,
}

impl EcmpProvider {
    /// Creates an empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    fn refresh(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.fallback.clear();
            self.epoch = epoch;
        }
    }
}

impl PathProvider for EcmpProvider {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        self.refresh(failed.epoch());
        let router = self.router.get_or_insert_with(|| ecmp::EcmpRouter::new(g));
        let (src, dst) = (spec.src, spec.dst);
        // Hash modulo the *survivor* set. With every link up this is
        // exactly `ecmp::select_by_hash`; under failures the flows
        // rehash over the k' survivors (a flow can move even when its
        // own path survived), spreading load uniformly instead of
        // piling displaced flows onto hash-adjacent survivors. Pinned
        // by `ecmp_failure_epoch_hashes_modulo_survivors`.
        let path = if failed.any() {
            router.select_surviving(g, src, dst, spec.id, failed.epoch(), |l| failed.is_down(l))
        } else {
            router.select(g, src, dst, spec.id)
        };
        let chosen = match path {
            Some(p) => arena.intern(p),
            // Equal-cost set fully failed: any surviving path.
            None => {
                (*self.fallback.entry((src, dst)).or_insert_with(|| {
                    dijkstra::shortest_path_avoiding(g, src, dst, |l| failed.is_down(l))
                        .map(|p| arena.intern(p))
                }))?
            }
        };
        Some(RoutedConn {
            path_ids: vec![chosen],
            subflow_weight: 1.0,
        })
    }
}

/// MPTCP over the k-shortest paths: the one failure-aware MPTCP router.
///
/// Routing always happens at the **switch-pair** level (§4.2.1
/// Observations 1–2): paths between the ingress and egress switches,
/// with the two server uplinks spliced on. Switch-pair entries come from
/// a shared precomputed [`SharedRouteTable`] first and, for pairs
/// outside it, from a private one filled on first use; both store the
/// same `(paths, Yen footprint)` entry. Failures keep the switch-pair
/// granularity, under one reuse rule: an entry whose footprint has no
/// failed link is spliced as is — provably what the masked run would
/// return (see [`Yen::paths_with_footprint`]) — and any other entry is
/// re-run masked, once per pair per epoch. A connection parks only when
/// its own uplink or downlink is down, and a non-server endpoint is
/// unroutable in every epoch.
///
/// Per-epoch results are cached per server pair as interned ids — the
/// rerouting burst after a failure computes each pair once, and later
/// arrivals on the pair are lookups. A provider serves one graph: its
/// Yen engine is built for the first route's graph and debug-asserts
/// that every later route passes the same one.
#[derive(Debug)]
pub struct MptcpProvider {
    coupled: bool,
    table: Arc<SharedRouteTable>,
    /// Entries for switch pairs outside `table`, filled on first use.
    misses: SharedRouteTable,
    /// Masked switch-pair path sets for the current epoch, for pairs
    /// whose Yen footprint touches a failed link.
    fail_switch: HashMap<(NodeId, NodeId), Vec<Path>>,
    /// Fills `misses` and runs the masked re-runs; built on the first
    /// inter-rack route, for that call's graph.
    yen: Option<Yen>,
    cache: HashMap<(NodeId, NodeId), Option<RoutedConn>>,
    epoch: u64,
}

impl MptcpProvider {
    /// Provider for `k` subflows; `coupled` selects LIA-style weights.
    /// Every switch pair is routed lazily on first use. Panics when `k`
    /// is 0.
    pub fn new(k: usize, coupled: bool) -> Self {
        Self::with_shared(Arc::new(SharedRouteTable::empty(k)), coupled)
    }

    /// Provider over a precomputed route plane; `k` comes from the
    /// table. Pairs outside the table's domain are filled into a private
    /// table with identical semantics.
    pub fn with_shared(table: Arc<SharedRouteTable>, coupled: bool) -> Self {
        let misses = SharedRouteTable::empty(table.k());
        Self {
            coupled,
            table,
            misses,
            fail_switch: HashMap::new(),
            yen: None,
            cache: HashMap::new(),
            epoch: 0,
        }
    }

    fn refresh(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.cache.clear();
            self.fail_switch.clear();
            self.epoch = epoch;
        }
    }

    /// The server-level path set under the current failures; empty when
    /// the pair is parked, disconnected or not a server pair.
    fn compute_paths(
        &mut self,
        g: &Graph,
        failed: &FailedLinks,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<Path> {
        let (Some(si), Some(di)) = (g.server_uplink_switch(src), g.server_uplink_switch(dst))
        else {
            return Vec::new();
        };
        let up = g.find_link(src, si).expect("src uplink");
        let down = g.find_link(di, dst).expect("dst downlink");
        if failed.is_down(up) || failed.is_down(down) {
            // Every server-level path crosses both of the pair's own links.
            return Vec::new();
        }
        if si == di {
            return vec![ksp::rack_path(g, src, si, dst)];
        }
        let yen = self.yen.get_or_insert_with(|| Yen::new(g));
        let (paths, footprint) = match self.table.entry(si, di) {
            Some(entry) => entry,
            None => self.misses.entry_or_compute(yen, g, si, di),
        };
        if failed.path_alive(footprint) {
            // Bit-identical to a masked run: nothing Yen examined is down.
            return ksp::splice_server_pair(g, src, dst, paths);
        }
        let k = self.table.k();
        let sp = self
            .fail_switch
            .entry((si, di))
            .or_insert_with(|| yen.paths_avoiding(g, si, di, k, |l| failed.is_down(l)));
        ksp::splice_server_pair(g, src, dst, sp)
    }
}

impl PathProvider for MptcpProvider {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        self.refresh(failed.epoch());
        let key = (spec.src, spec.dst);
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let paths = self.compute_paths(g, failed, spec.src, spec.dst);
        let routed = if paths.is_empty() {
            None
        } else {
            let weight = if self.coupled {
                1.0 / paths.len() as f64
            } else {
                1.0
            };
            Some(RoutedConn {
                path_ids: paths.into_iter().map(|p| arena.intern(p)).collect(),
                subflow_weight: weight,
            })
        };
        self.cache.insert(key, routed.clone());
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{LinkId, NodeKind};

    /// Diamond: s - e0 - {x, y} - e1 - t, all 10G.
    fn diamond() -> (Graph, NodeId, NodeId, LinkId) {
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let x = g.add_node(NodeKind::CoreSwitch, "x");
        let y = g.add_node(NodeKind::CoreSwitch, "y");
        let (via_x, _) = g.add_duplex_link(e0, x, 10.0);
        g.add_duplex_link(x, e1, 10.0);
        g.add_duplex_link(e0, y, 10.0);
        g.add_duplex_link(y, e1, 10.0);
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e0, 10.0);
        g.add_duplex_link(t, e1, 10.0);
        (g, s, t, via_x)
    }

    fn spec(id: u64, src: NodeId, dst: NodeId) -> FlowSpec {
        FlowSpec {
            id,
            src,
            dst,
            bytes: 1.0,
            start: 0.0,
        }
    }

    #[test]
    fn mptcp_caches_within_epoch_and_invalidates_on_failure() {
        let (g, s, t, via_x) = diamond();
        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        let mut p = MptcpProvider::new(2, true);
        let before = p.route(&g, &mut arena, &failed, &spec(0, s, t)).unwrap();
        assert_eq!(before.path_ids.len(), 2);
        assert!((before.subflow_weight - 0.5).abs() < 1e-12);
        // Same epoch: cached, identical ids.
        let again = p.route(&g, &mut arena, &failed, &spec(1, s, t)).unwrap();
        assert_eq!(before.path_ids, again.path_ids);
        // Cut x; cache must refresh and drop the x path.
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let after = p.route(&g, &mut arena, &failed, &spec(2, s, t)).unwrap();
        assert_eq!(after.path_ids.len(), 1);
        assert!(failed.path_alive(arena.links(after.path_ids[0])));
        assert!((after.subflow_weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecmp_selection_matches_uncached_hash_choice() {
        let (g, s, t, _) = diamond();
        let mut arena = PathArena::new();
        let failed = FailedLinks::new(g.link_count());
        let mut p = EcmpProvider::new();
        for id in 0..16u64 {
            let got = p.route(&g, &mut arena, &failed, &spec(id, s, t)).unwrap();
            let all = ecmp::equal_cost_paths(&g, s, t);
            let want = ecmp::select_by_hash(&all, s, t, id).unwrap();
            assert_eq!(arena.get(got.path_ids[0]), want, "flow {id}");
        }
    }

    #[test]
    fn ecmp_failure_epoch_hashes_modulo_survivors() {
        // Pins the documented failure-epoch contract: the per-flow hash
        // indexes the *survivor* set, not the full equal-cost set.
        let (g, s, t, via_x) = diamond();
        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let survivors: Vec<_> = ecmp::equal_cost_paths(&g, s, t)
            .into_iter()
            .filter(|p| failed.path_alive(&p.links))
            .collect();
        assert_eq!(survivors.len(), 1, "diamond minus x leaves the y path");
        let mut p = EcmpProvider::new();
        for id in 0..16u64 {
            let got = p.route(&g, &mut arena, &failed, &spec(id, s, t)).unwrap();
            let i = (ecmp::flow_hash(s, t, id) % survivors.len() as u64) as usize;
            assert_eq!(arena.get(got.path_ids[0]), &survivors[i], "flow {id}");
        }
    }

    #[test]
    fn mptcp_shared_table_matches_lazy_provider() {
        let (g, s, t, via_x) = diamond();
        let table = Arc::new(SharedRouteTable::build(&g, 2));
        let mut yen = Yen::new(&g);
        let mut failed = FailedLinks::new(g.link_count());
        let mut arena_a = PathArena::new();
        let mut arena_b = PathArena::new();
        let mut lazy = MptcpProvider::new(2, true);
        let mut shared = MptcpProvider::with_shared(table, true);
        let same_paths = |a: &RoutedConn, aa: &PathArena, b: &RoutedConn, ab: &PathArena| {
            let pa: Vec<_> = a.path_ids.iter().map(|&i| aa.get(i)).collect();
            let pb: Vec<_> = b.path_ids.iter().map(|&i| ab.get(i)).collect();
            pa == pb
        };
        let a = lazy
            .route(&g, &mut arena_a, &failed, &spec(0, s, t))
            .unwrap();
        let b = shared
            .route(&g, &mut arena_b, &failed, &spec(0, s, t))
            .unwrap();
        assert!(same_paths(&a, &arena_a, &b, &arena_b));
        // Both splice the switch pair's direct Yen run.
        let (e0, e1) = (NodeId(0), NodeId(1));
        let (switch_paths, _) = yen.paths_with_footprint(&g, e0, e1, 2);
        let routed: Vec<Path> = b.path_ids.iter().map(|&i| arena_b.get(i).clone()).collect();
        assert_eq!(routed, ksp::splice_server_pair(&g, s, t, &switch_paths));
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let a = lazy
            .route(&g, &mut arena_a, &failed, &spec(1, s, t))
            .unwrap();
        let b = shared
            .route(&g, &mut arena_b, &failed, &spec(1, s, t))
            .unwrap();
        assert!(same_paths(&a, &arena_a, &b, &arena_b));
        assert_eq!(a.path_ids.len(), 1, "x route must be gone");
    }

    #[test]
    fn mptcp_parks_only_on_dead_uplink() {
        let (g, s, t, _) = diamond();
        let si = g.server_uplink_switch(s).unwrap();
        let up = g.find_link(s, si).unwrap();
        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        failed.fail(up);
        let mut p = MptcpProvider::new(2, true);
        assert!(
            p.route(&g, &mut arena, &failed, &spec(0, s, t)).is_none(),
            "dead uplink must park the connection"
        );
        // The reverse direction only needs t's uplink and s's downlink.
        assert!(p.route(&g, &mut arena, &failed, &spec(1, t, s)).is_some());
    }

    #[test]
    fn mptcp_non_server_endpoint_is_unroutable_in_every_epoch() {
        let (g, s, _, via_x) = diamond();
        let e1 = NodeId(1);
        assert!(g.node(e1).kind.is_switch());
        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        let mut p = MptcpProvider::new(2, true);
        assert!(p.route(&g, &mut arena, &failed, &spec(0, s, e1)).is_none());
        assert!(p.route(&g, &mut arena, &failed, &spec(1, e1, s)).is_none());
        // An unrelated failure must not change the answer.
        failed.fail(via_x);
        assert!(p.route(&g, &mut arena, &failed, &spec(2, s, e1)).is_none());
        assert!(p.route(&g, &mut arena, &failed, &spec(3, e1, s)).is_none());
    }

    #[test]
    fn mptcp_reruns_only_pairs_whose_footprint_fails() {
        use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
        let ft = FlatTree::new(FlatTreeParams::new(topology::ClosParams::mini(), 1, 1)).unwrap();
        let g = ft
            .instantiate(&ModeAssignment::uniform(4, PodMode::Global))
            .net
            .graph;
        let k = 4;
        let table = Arc::new(SharedRouteTable::build(&g, k));
        let mut server_on = HashMap::new();
        for s in g.servers() {
            server_on
                .entry(g.server_uplink_switch(s).unwrap())
                .or_insert(s);
        }
        let cable = g
            .link_ids()
            .find(|&l| {
                let info = g.link(l);
                g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
            })
            .unwrap();
        let mut failed = FailedLinks::new(g.link_count());
        failed.fail(cable);
        let mut arena = PathArena::new();
        let mut p = MptcpProvider::with_shared(Arc::clone(&table), true);
        let mut yen = Yen::new(&g);
        // One server pair per ingress pair; each answer equals a
        // from-scratch masked run between the servers.
        for (id, (a, b)) in SharedRouteTable::ingress_pairs(&g).into_iter().enumerate() {
            let (src, dst) = (server_on[&a], server_on[&b]);
            let got: Vec<Path> = p
                .route(&g, &mut arena, &failed, &spec(id as u64, src, dst))
                .map_or(Vec::new(), |r| {
                    r.path_ids.iter().map(|&i| arena.get(i).clone()).collect()
                });
            let want = yen.paths_avoiding(&g, src, dst, k, |l| failed.is_down(l));
            assert_eq!(got, want, "{a:?} -> {b:?}");
        }
        // Only the pairs whose footprint crosses the cable re-ran Yen.
        assert!(!p.fail_switch.is_empty());
        assert!(p.fail_switch.len() < table.pair_count());
    }

    #[test]
    fn ecmp_falls_back_to_survivor_when_equal_cost_set_dies() {
        // Line with a longer detour: s - e0 - x - e1 - t and
        // e0 - a - b - e1 as a 2-switch detour.
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let x = g.add_node(NodeKind::CoreSwitch, "x");
        let a = g.add_node(NodeKind::CoreSwitch, "a");
        let b = g.add_node(NodeKind::CoreSwitch, "b");
        let (via_x, _) = g.add_duplex_link(e0, x, 10.0);
        g.add_duplex_link(x, e1, 10.0);
        g.add_duplex_link(e0, a, 10.0);
        g.add_duplex_link(a, b, 10.0);
        g.add_duplex_link(b, e1, 10.0);
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e0, 10.0);
        g.add_duplex_link(t, e1, 10.0);

        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let mut p = EcmpProvider::new();
        let got = p
            .route(&g, &mut arena, &failed, &spec(7, s, t))
            .expect("detour exists");
        let links = arena.links(got.path_ids[0]);
        assert!(failed.path_alive(links));
        assert_eq!(links.len(), 5, "s-e0-a-b-e1-t detour");
    }
}
