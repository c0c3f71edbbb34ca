//! Yen's k-shortest paths against a frozen oracle, on graphs with servers
//! and masked links.
//!
//! The oracle below is the earlier Yen implementation kept verbatim: each
//! spur search allocates its own state, masks removed links and root nodes
//! through `HashSet`s, and relaxes servers (pushing them onto the heap and
//! discarding them when popped) instead of skipping them. The production
//! search is a level-synchronous BFS over hop counts that reuses one
//! state, masks with boolean vectors and never enters a server that is
//! not the destination; this test pins that both return the same paths
//! and the same footprint, bit for bit, under unit lengths with failed
//! links at `f64::INFINITY`.

use netgraph::{yen, Graph, LinkId, NodeId, NodeKind, Path};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
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

/// The earlier `dijkstra::shortest_path_masked`: `node_ok(n)` must hold
/// for `n` to be entered, unless `n` is `dst`.
fn shortest_path_masked<F, M>(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    length: F,
    node_ok: M,
) -> Option<(f64, Path)>
where
    F: Fn(LinkId) -> f64,
    M: Fn(NodeId) -> bool,
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
        if u != src && !g.node(u).kind.is_transit() {
            continue;
        }
        for &(v, l) in g.neighbors(u) {
            if !node_ok(v) && v != dst {
                continue;
            }
            let w = length(l);
            if !w.is_finite() {
                continue;
            }
            let cand = cost + w;
            let better = cand < dist[v.idx()]
                || (cand == dist[v.idx()] && prev[v.idx()].is_some_and(|(p, _)| u < p));
            if better && !done[v.idx()] {
                dist[v.idx()] = cand;
                prev[v.idx()] = Some((u, l));
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
    Some((dist[dst.idx()], Path { nodes, links }))
}

/// The earlier `yen::yen_core`, spur searches through
/// [`shortest_path_masked`].
fn yen_core<F>(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    length: F,
    mut footprint: Option<&mut Vec<LinkId>>,
) -> Vec<Path>
where
    F: Fn(LinkId) -> f64,
{
    if k == 0 || src == dst {
        return Vec::new();
    }
    let mut selected: Vec<(f64, Path)> = Vec::new();
    let Some(first) = shortest_path_masked(g, src, dst, &length, |_| true) else {
        return Vec::new();
    };
    if let Some(fp) = footprint.as_deref_mut() {
        fp.extend_from_slice(&first.1.links);
    }
    selected.push(first);
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut candidate_keys: HashSet<Vec<NodeId>> = HashSet::new();
    while selected.len() < k {
        let (_, last) = selected.last().expect("nonempty").clone();
        for i in 0..last.nodes.len() - 1 {
            let spur = last.nodes[i];
            let root_nodes = &last.nodes[..=i];
            let root_links = &last.links[..i];
            let root_cost: f64 = root_links.iter().map(|&l| length(l)).sum();
            let mut removed_links: HashSet<LinkId> = HashSet::new();
            for (_, p) in &selected {
                if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                    removed_links.insert(p.links[i]);
                }
            }
            let removed_nodes: HashSet<NodeId> = root_nodes[..i].iter().copied().collect();
            let spur_path = shortest_path_masked(
                g,
                spur,
                dst,
                |l| {
                    if removed_links.contains(&l) {
                        f64::INFINITY
                    } else {
                        length(l)
                    }
                },
                |n| !removed_nodes.contains(&n),
            );
            let Some((spur_cost, spur_path)) = spur_path else {
                continue;
            };
            let mut nodes = root_nodes.to_vec();
            nodes.extend_from_slice(&spur_path.nodes[1..]);
            let mut links = root_links.to_vec();
            links.extend_from_slice(&spur_path.links);
            let total = Path { nodes, links };
            if let Some(fp) = footprint.as_deref_mut() {
                fp.extend_from_slice(&total.links);
            }
            if candidate_keys.insert(total.nodes.clone()) {
                candidates.push((root_cost + spur_cost, total));
            }
        }
        if candidates.is_empty() {
            break;
        }
        let best_idx = candidates
            .iter()
            .enumerate()
            .min_by(|(_, (ca, pa)), (_, (cb, pb))| {
                ca.partial_cmp(cb)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| pa.nodes.cmp(&pb.nodes))
            })
            .map(|(idx, _)| idx)
            .expect("nonempty");
        let best = candidates.swap_remove(best_idx);
        candidate_keys.remove(&best.1.nodes);
        selected.push(best);
    }
    selected.sort_by(|(ca, pa), (cb, pb)| {
        ca.partial_cmp(cb)
            .unwrap_or(Ordering::Equal)
            .then_with(|| pa.nodes.cmp(&pb.nodes))
    });
    selected.into_iter().map(|(_, p)| p).collect()
}

/// A connected random switch graph (spanning tree plus extra links) with
/// 0–3 servers attached to each switch. Each switch's servers take the ids
/// right after it, so server and switch ids interleave and the id
/// tie-breaks see both kinds.
fn switches_with_servers(n: usize, extra: usize, seed: u64) -> Graph {
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
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_duplex_link(switches[i], switches[parent], 10.0);
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && g.find_link(switches[a], switches[b]).is_none() {
            g.add_duplex_link(switches[a], switches[b], 10.0);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn yen_matches_frozen_oracle(
        n in 2usize..12,
        extra in 0usize..14,
        seed in any::<u64>(),
        k in 1usize..9,
        mask_pct in 0u32..40,
    ) {
        let g = switches_with_servers(n, extra, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let nodes = g.node_count() as u32;
        let src = NodeId(rng.gen_range(0..nodes));
        let dst = NodeId(rng.gen_range(0..nodes));
        let down: Vec<bool> = (0..g.link_count())
            .map(|_| rng.gen_range(0u32..100) < mask_pct)
            .collect();

        let mut yen = yen::Yen::new(&g);
        let got = yen.paths_avoiding(&g, src, dst, k, |l| down[l.idx()]);
        let len = |l: LinkId| if down[l.idx()] { f64::INFINITY } else { 1.0 };
        let want = yen_core(&g, src, dst, k, len, None);
        prop_assert_eq!(got, want);

        let (got, got_fp) = yen.paths_with_footprint(&g, src, dst, k);
        let mut want_fp = Vec::new();
        let want = yen_core(&g, src, dst, k, |_| 1.0, Some(&mut want_fp));
        want_fp.sort_unstable_by_key(|l| l.idx());
        want_fp.dedup();
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_fp, want_fp);
    }
}
