//! Property-based tests for the graph substrate.
//!
//! Strategy: generate random connected switch graphs (a spanning tree plus
//! random extra duplex links), then check algebraic invariants of the
//! shortest-path, Yen, and ECMP implementations.

use netgraph::{dijkstra, ecmp, metrics, yen, Graph, LinkId, NodeId, NodeKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds a connected random graph of `n` switches with roughly `extra`
/// additional links beyond the spanning tree.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(NodeKind::GenericSwitch, format!("n{i}")))
        .collect();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_duplex_link(nodes[i], nodes[parent], 10.0);
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && g.find_link(nodes[a], nodes[b]).is_none() {
            g.add_duplex_link(nodes[a], nodes[b], 10.0);
        }
    }
    g
}

/// A random connected switch graph (see [`random_connected`]) plus a
/// disconnected tree of `island` switches, `0..=max_servers` servers on
/// every switch, and one server with no link at all.
fn random_server_graph(
    n: usize,
    extra: usize,
    island: usize,
    max_servers: usize,
    seed: u64,
) -> Graph {
    let mut g = random_connected(n, extra, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(!seed);
    let far: Vec<NodeId> = (0..island)
        .map(|i| g.add_node(NodeKind::GenericSwitch, format!("i{i}")))
        .collect();
    for i in 1..island {
        g.add_duplex_link(far[i], far[rng.gen_range(0..i)], 10.0);
    }
    for sw in g.switches() {
        for j in 0..rng.gen_range(0..=max_servers) {
            let s = g.add_node(NodeKind::Server, format!("s{}.{j}", sw.0));
            g.add_duplex_link(s, sw, 10.0);
        }
    }
    g.add_node(NodeKind::Server, "detached");
    g
}

/// A random graph for routing across the ECMP router's 64-switch
/// distance blocks. The fabric is a grid of `n - 2` switches, `cols`
/// wide and numbered row by row, so equal-cost paths are plentiful and
/// the 512-path cap binds on far pairs. About one grid cable in eight
/// is left out, `shortcuts` random cables are added and `parallel`
/// cables are doubled. A 2-switch island and servers on random switches
/// complete it. Servers are interleaved with the switches in node-id
/// order, so a switch's index among the switches differs from its node
/// id.
fn block_graph(n: usize, cols: usize, shortcuts: usize, parallel: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new();
    let mut switches = Vec::new();
    let mut servers = Vec::new();
    while switches.len() < n {
        if rng.gen_bool(0.3) {
            servers.push(g.add_node(NodeKind::Server, format!("s{}", servers.len())));
        } else {
            switches.push(g.add_node(NodeKind::GenericSwitch, format!("n{}", switches.len())));
        }
    }
    let fabric = n - 2;
    let mut cables = Vec::new();
    for i in 0..fabric {
        for j in [i + 1, i + cols] {
            let neighbour = j < fabric && (j == i + cols || j % cols != 0);
            if neighbour && rng.gen_range(0..8) != 0 {
                cables.push((i, j));
            }
        }
    }
    for _ in 0..shortcuts {
        let (a, b) = (rng.gen_range(0..fabric), rng.gen_range(0..fabric));
        if a != b {
            cables.push((a, b));
        }
    }
    for _ in 0..parallel {
        let (a, b) = cables[rng.gen_range(0..cables.len())];
        cables.push((b, a));
    }
    cables.push((fabric, fabric + 1));
    for (a, b) in cables {
        g.add_duplex_link(switches[a], switches[b], 10.0);
    }
    for s in servers {
        g.add_duplex_link(s, switches[rng.gen_range(0..n)], 10.0);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The word-parallel switch-level APL equals the mean over every
    /// ordered pair of reachable servers of a BFS per server, bit for
    /// bit. With `max_servers` 1, up to 160 switches put more than 64
    /// equal-weight sources in one batch.
    #[test]
    fn apl_matches_per_server_bfs(
        n in 1usize..160,
        extra in 0usize..40,
        island in 0usize..6,
        max_servers in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let g = random_server_graph(n, extra, island, max_servers, seed);
        let servers = g.servers();
        let (mut total, mut pairs) = (0usize, 0usize);
        for &s in &servers {
            let d = dijkstra::hop_distances(&g, s);
            for &t in &servers {
                if t != s && d[t.idx()] != usize::MAX {
                    total += d[t.idx()];
                    pairs += 1;
                }
            }
        }
        let want = (pairs > 0).then(|| total as f64 / pairs as f64);
        let got = metrics::avg_server_path_length(&g);
        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
    }

    /// The word-parallel switch diameter equals the deepest distance of
    /// a BFS per switch, over more than one 64-source batch.
    #[test]
    fn diameter_matches_per_switch_bfs(
        n in 1usize..160,
        extra in 0usize..40,
        island in 0usize..6,
        seed in any::<u64>(),
    ) {
        let g = random_server_graph(n, extra, island, 1, seed);
        let switches = g.switches();
        let want = switches
            .iter()
            .flat_map(|&s| {
                let d = dijkstra::hop_distances(&g, s);
                switches
                    .iter()
                    .filter(move |&&t| t != s)
                    .map(move |&t| d[t.idx()])
                    .filter(|&d| d != usize::MAX)
                    .collect::<Vec<_>>()
            })
            .max();
        prop_assert_eq!(metrics::switch_diameter(&g), want);
    }

    /// Yen paths are simple, sorted by length, distinct, and the first one
    /// matches Dijkstra's shortest path length.
    #[test]
    fn yen_invariants(n in 4usize..24, extra in 0usize..20, seed in any::<u64>(), k in 1usize..9) {
        let g = random_connected(n, extra, seed);
        let src = NodeId(0);
        let dst = NodeId(n as u32 - 1);
        let paths = yen::Yen::new(&g).paths_avoiding(&g, src, dst, k, |_| false);
        prop_assert!(!paths.is_empty(), "connected graph must have a path");
        prop_assert!(paths.len() <= k);
        let spl = dijkstra::hop_distance(&g, src, dst).unwrap();
        prop_assert_eq!(paths[0].len(), spl);
        let mut seen = std::collections::HashSet::new();
        let mut prev_len = 0usize;
        for p in &paths {
            prop_assert!(p.validate(&g).is_ok());
            prop_assert_eq!(p.src(), src);
            prop_assert_eq!(p.dst(), dst);
            prop_assert!(p.len() >= prev_len, "paths must be sorted by length");
            prev_len = p.len();
            prop_assert!(seen.insert(p.nodes.clone()), "duplicate path");
        }
    }

    /// Every enumerated equal-cost path has exactly the shortest length,
    /// the router unranks the enumeration order, and the hash selection
    /// always lands inside the set.
    #[test]
    fn ecmp_invariants(n in 4usize..20, extra in 0usize..16, seed in any::<u64>()) {
        let g = random_connected(n, extra, seed);
        let src = NodeId(0);
        let dst = NodeId(n as u32 - 1);
        let spl = dijkstra::hop_distance(&g, src, dst).unwrap();
        let paths = ecmp::equal_cost_paths(&g, src, dst);
        prop_assert!(!paths.is_empty());
        for p in &paths {
            prop_assert_eq!(p.len(), spl);
            prop_assert!(p.validate(&g).is_ok());
        }
        let mut router = ecmp::EcmpRouter::new(&g);
        for (i, p) in paths.iter().enumerate() {
            let got = router.nth_path(&g, src, dst, i);
            prop_assert_eq!(got.as_ref(), Some(p), "rank {}", i);
        }
        prop_assert!(router.nth_path(&g, src, dst, paths.len()).is_none());
        for fid in 0..8u64 {
            let chosen = router.select(&g, src, dst, fid).unwrap();
            prop_assert!(paths.contains(&chosen));
        }
    }

    /// BFS distance satisfies the triangle property over one extra hop and
    /// symmetric graphs give symmetric distances.
    #[test]
    fn bfs_symmetry(n in 3usize..20, extra in 0usize..12, seed in any::<u64>()) {
        let g = random_connected(n, extra, seed);
        for a in 0..n.min(5) {
            let da = dijkstra::hop_distances(&g, NodeId(a as u32));
            for (b, &dab) in da.iter().enumerate().take(n.min(5)) {
                let db = dijkstra::hop_distances(&g, NodeId(b as u32));
                prop_assert_eq!(dab, db[a], "duplex graph distances must be symmetric");
            }
        }
    }

    /// Weighted Dijkstra with unit weights equals BFS hop distance.
    #[test]
    fn dijkstra_unit_equals_bfs(n in 3usize..20, extra in 0usize..12, seed in any::<u64>()) {
        let g = random_connected(n, extra, seed);
        let src = NodeId(0);
        let bfs = dijkstra::hop_distances(&g, src);
        for (t, &hops) in bfs.iter().enumerate().take(n).skip(1) {
            let dst = NodeId(t as u32);
            let (cost, p) = dijkstra::shortest_path_by(&g, src, dst, |_| 1.0).unwrap();
            prop_assert_eq!(cost as usize, hops);
            prop_assert_eq!(p.len(), hops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ECMP router against the enumeration oracle on graphs that
    /// span several 64-egress distance blocks. Egress switches sit on
    /// both sides of each block boundary (lanes 63 and 0), in the
    /// partial last block, where the switches with servers end, and on
    /// the island; every ingress switch is in another block than its
    /// egress, and endpoints are switches or their servers. One router serves every pair and failure epoch:
    /// `nth_path` must equal `equal_cost_paths` at every rank, and
    /// `select_surviving` the hash over the oracle's survivors.
    #[test]
    fn ecmp_matches_oracle_across_blocks(
        n in 67usize..=200,
        cols in 4usize..16,
        shortcuts in 0usize..6,
        parallel in 0usize..12,
        seed in any::<u64>(),
    ) {
        let g = block_graph(n, cols, shortcuts, parallel, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(!seed);
        let switches = g.switches();
        let serves = |slot: usize| {
            g.neighbors(switches[slot])
                .iter()
                .any(|&(v, _)| g.node(v).kind == NodeKind::Server)
        };
        // The router's block order: the switches with servers first, then
        // the rest, each by node id. `order[p]` is lane `p % 64` of
        // block `p / 64`.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&slot| !serves(slot));
        let block = |slot: usize| order.iter().position(|&s| s == slot).unwrap() / 64;
        let served = order.iter().filter(|&&slot| serves(slot)).count();
        let mut positions = vec![63, 64, n - 3, n - 2, n - 1, rng.gen_range(0..n)];
        positions.extend([served.saturating_sub(1), served.min(n - 1)]);
        if n > 128 {
            positions.extend([127, 128]);
        }
        let mut egresses: Vec<usize> = positions.iter().map(|&p| order[p]).collect();
        egresses.push(n - 1); // the island
        // A server on `slot`'s switch half of the time, else the switch.
        let endpoint = |slot: usize, rng: &mut ChaCha8Rng| {
            let sw = switches[slot];
            let server = g
                .neighbors(sw)
                .iter()
                .map(|&(v, _)| v)
                .find(|&v| g.node(v).kind == NodeKind::Server);
            match server {
                Some(s) if rng.gen_bool(0.5) => s,
                _ => sw,
            }
        };
        let mut pairs = Vec::new();
        for &to in &egresses {
            let from = loop {
                let from = rng.gen_range(0..n - 2);
                if block(from) != block(to) {
                    break from;
                }
            };
            pairs.push((endpoint(from, &mut rng), endpoint(to, &mut rng)));
        }

        let mut router = ecmp::EcmpRouter::new(&g);
        for &(src, dst) in &pairs {
            let paths = ecmp::equal_cost_paths(&g, src, dst);
            for (i, p) in paths.iter().enumerate() {
                let got = router.nth_path(&g, src, dst, i);
                prop_assert_eq!(got.as_ref(), Some(p), "{:?}->{:?} rank {}", src, dst, i);
            }
            prop_assert!(router.nth_path(&g, src, dst, paths.len()).is_none());
        }
        for epoch in 1..=3u64 {
            let p = rng.gen_range(0.02..0.3);
            let down: Vec<bool> = g.link_ids().map(|_| rng.gen_bool(p)).collect();
            let is_down = |l: LinkId| down[l.idx()];
            for &(src, dst) in &pairs {
                let alive: Vec<_> = ecmp::equal_cost_paths(&g, src, dst)
                    .into_iter()
                    .filter(|p| !p.links.iter().any(|&l| is_down(l)))
                    .collect();
                for fid in 0..8u64 {
                    let want = ecmp::select_by_hash(&alive, src, dst, fid);
                    let got = router.select_surviving(&g, src, dst, fid, epoch, is_down);
                    prop_assert_eq!(got.as_ref(), want, "{:?}->{:?} epoch {} flow {}", src, dst, epoch, fid);
                }
            }
        }
    }
}

/// Every simple path from `src` to `dst` by exhaustive DFS; node
/// sequences only. Small graphs only — the count is exponential.
fn all_simple_paths(g: &Graph, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
    fn dfs(
        g: &Graph,
        u: NodeId,
        dst: NodeId,
        stack: &mut Vec<NodeId>,
        on_path: &mut Vec<bool>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if u == dst {
            out.push(stack.clone());
            return;
        }
        for &(v, _) in g.neighbors(u) {
            if !on_path[v.idx()] {
                on_path[v.idx()] = true;
                stack.push(v);
                dfs(g, v, dst, stack, on_path, out);
                stack.pop();
                on_path[v.idx()] = false;
            }
        }
    }
    let mut out = Vec::new();
    let mut on_path = vec![false; g.node_count()];
    on_path[src.idx()] = true;
    dfs(g, src, dst, &mut vec![src], &mut on_path, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yen against brute force: the returned hop counts are exactly the
    /// k smallest over all simple paths, every returned path exists, and
    /// with k at least the total count the output is the full simple-path
    /// set in canonical (length, lexicographic) order.
    #[test]
    fn yen_matches_brute_force(n in 4usize..8, extra in 0usize..7, seed in any::<u64>(), k in 1usize..7) {
        let g = random_connected(n, extra, seed);
        let src = NodeId(0);
        let dst = NodeId(n as u32 - 1);
        let got = yen::Yen::new(&g).paths_avoiding(&g, src, dst, k, |_| false);
        let mut all = all_simple_paths(&g, src, dst);
        all.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        let want_hops: Vec<usize> = all.iter().take(k).map(|p| p.len() - 1).collect();
        let got_hops: Vec<usize> = got.iter().map(netgraph::Path::len).collect();
        prop_assert_eq!(got_hops, want_hops, "hop-count multiset must be the k smallest");
        let universe: std::collections::HashSet<&[NodeId]> =
            all.iter().map(Vec::as_slice).collect();
        for p in &got {
            prop_assert!(universe.contains(p.nodes.as_slice()), "path not in enumeration");
        }
        if k >= all.len() {
            let got_nodes: Vec<Vec<NodeId>> = got.iter().map(|p| p.nodes.clone()).collect();
            prop_assert_eq!(got_nodes, all, "exhaustive k must return every simple path");
        }
    }

    /// The footprint is a valid reuse certificate: masking any link the
    /// run never examined reproduces the unmasked output bit-for-bit.
    #[test]
    fn yen_footprint_certifies_reuse(n in 4usize..10, extra in 0usize..8, seed in any::<u64>(), k in 1usize..6) {
        let g = random_connected(n, extra, seed);
        let src = NodeId(0);
        let dst = NodeId(n as u32 - 1);
        let mut yen = yen::Yen::new(&g);
        let (base, fp) = yen.paths_with_footprint(&g, src, dst, k);
        prop_assert!(fp.windows(2).all(|w| w[0].idx() < w[1].idx()), "sorted, deduped");
        let fpset: std::collections::HashSet<_> = fp.iter().copied().collect();
        for p in &base {
            for l in &p.links {
                prop_assert!(fpset.contains(l), "selected links must be in the footprint");
            }
        }
        for dead in g.link_ids().filter(|l| !fpset.contains(l)).take(6) {
            let masked = yen.paths_avoiding(&g, src, dst, k, |l| l == dead);
            prop_assert_eq!(&masked, &base, "non-footprint mask changed the output");
        }
    }
}

/// `n` switches, each followed in id order by 0–3 servers (so switch and
/// server ids interleave), `links` random switch–switch cables (the graph
/// may be disconnected), `parallel` extra cables between one switch pair,
/// and one server homed on two switches.
fn switches_servers_parallel(n: usize, links: usize, parallel: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
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
    let (a, b) = (switches[0], switches[n - 1]);
    for _ in 0..parallel {
        g.add_duplex_link(a, b, 10.0);
    }
    let dual = g.add_node(NodeKind::Server, "dual");
    g.add_duplex_link(dual, switches[rng.gen_range(0..n)], 10.0);
    g.add_duplex_link(dual, switches[rng.gen_range(0..n)], 10.0);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The level-synchronous hop search returns the heap Dijkstra's path
    /// with lengths 1 and ∞ on down links, bit for bit: same nodes, same
    /// links among parallel cables, same `None` when cut off.
    #[test]
    fn hop_search_matches_unit_dijkstra(
        n in 2usize..12,
        links in 1usize..30,
        parallel in 0usize..3,
        seed in any::<u64>(),
        down_pct in 0u32..50,
    ) {
        let g = switches_servers_parallel(n, links, parallel, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(!seed);
        let down: Vec<bool> = (0..g.link_count())
            .map(|_| rng.gen_range(0u32..100) < down_pct)
            .collect();
        let nodes = g.node_count() as u32;
        for _ in 0..8 {
            let src = NodeId(rng.gen_range(0..nodes));
            for dst in g.node_ids() {
                let got = dijkstra::shortest_path_avoiding(&g, src, dst, |l| down[l.idx()]);
                let want = dijkstra::shortest_path_by(&g, src, dst, |l| {
                    if down[l.idx()] { f64::INFINITY } else { 1.0 }
                })
                .map(|(_, p)| p);
                prop_assert_eq!(got, want, "{:?} -> {:?}", src, dst);
            }
        }
    }
}
