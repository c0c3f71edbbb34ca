//! Yen's k-shortest loopless paths (Yen, *Management Science* 1971).
//!
//! The paper routes flat-tree global/local modes with k-shortest-path
//! routing (§4, citing \[50\]); `routing` builds its per-pair path tables on
//! top of this module. Paths are simple (loop-free), returned sorted by
//! hop count and then lexicographically by node sequence, so the output
//! is fully deterministic. Every spur search is one level-synchronous BFS
//! on a search state reused across the run.

use crate::dijkstra::Search;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;
use std::cmp::Ordering;
use std::collections::HashSet;

/// k shortest loopless paths by hop count.
pub fn k_shortest_paths(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    yen_core(g, src, dst, k, |_| false, None)
}

/// [`k_shortest_paths`] with every link for which `down` holds removed
/// (failed links, for the failure-aware routers).
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// simple paths. `src == dst` yields the empty set.
pub fn k_shortest_paths_avoiding<F>(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    down: F,
) -> Vec<Path>
where
    F: Fn(LinkId) -> bool,
{
    yen_core(g, src, dst, k, down, None)
}

/// [`k_shortest_paths`] plus the run's **footprint**: every link used by
/// any path the algorithm examined — the selected paths *and* every
/// candidate spur path generated along the way — sorted by id, deduped.
///
/// The footprint is the exact reuse certificate for route caches: if no
/// footprint link is removed from the graph, re-running Yen on the
/// pruned graph returns bit-identical paths, because every spur search
/// of the original run found a path that still exists (the hop search
/// returns the same path when its result survives pruning: removing
/// links off that path changes no node's level or lowest-id
/// predecessor along it, so every candidate pool — and therefore every
/// selection — is reproduced unchanged). If a removed link only avoids
/// the *selected* paths, an equal-length candidate replacement can still
/// win a tie-break and change the output, so caches must key on the full
/// footprint, not the selection.
pub fn k_shortest_paths_with_footprint(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> (Vec<Path>, Vec<LinkId>) {
    let mut footprint = Vec::new();
    let paths = yen_core(g, src, dst, k, |_| false, Some(&mut footprint));
    footprint.sort_unstable_by_key(|l| l.idx());
    footprint.dedup();
    (paths, footprint)
}

/// Yen's order on paths: hop count, then node sequence.
fn by_hops_then_nodes(a: &Path, b: &Path) -> Ordering {
    (a.len(), &a.nodes).cmp(&(b.len(), &b.nodes))
}

fn yen_core<F>(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    down: F,
    mut footprint: Option<&mut Vec<LinkId>>,
) -> Vec<Path>
where
    F: Fn(LinkId) -> bool,
{
    if k == 0 || src == dst {
        return Vec::new();
    }
    let mut search = Search::new(g);
    let Some(first) = search.hop_path(g, src, dst, &down) else {
        return Vec::new();
    };
    if let Some(fp) = footprint.as_deref_mut() {
        fp.extend_from_slice(&first.links);
    }
    let mut selected: Vec<Path> = vec![first];

    // Candidate pool; deduplicated by node sequence.
    let mut candidates: Vec<Path> = Vec::new();
    let mut candidate_keys: HashSet<Vec<NodeId>> = HashSet::new();

    while selected.len() < k {
        let last = &selected[selected.len() - 1];
        // Spur from every node of the previously selected path.
        for i in 0..last.nodes.len() - 1 {
            let spur = last.nodes[i];
            let root_nodes = &last.nodes[..=i];
            let root_links = &last.links[..i];

            // Mask: the next link of every *selected* path sharing this
            // root (candidates stay routable — masking them too would
            // wrongly suppress paths that are never selected), plus all
            // root nodes except the spur node.
            for p in &selected {
                if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                    search.block_link(p.links[i]);
                }
            }
            for &n in &root_nodes[..i] {
                search.block_node(n);
            }
            let spur_path = search.hop_path(g, spur, dst, &down);
            search.unblock_all();
            let Some(spur_path) = spur_path else {
                continue;
            };
            // Stitch root + spur.
            let mut nodes = root_nodes.to_vec();
            nodes.extend_from_slice(&spur_path.nodes[1..]);
            let mut links = root_links.to_vec();
            links.extend_from_slice(&spur_path.links);
            let total = Path { nodes, links };
            debug_assert!(total.validate(g).is_ok(), "Yen stitched an invalid path");
            if let Some(fp) = footprint.as_deref_mut() {
                fp.extend_from_slice(&total.links);
            }
            if candidate_keys.insert(total.nodes.clone()) {
                candidates.push(total);
            }
        }
        // Extract the best candidate: min (hops, node sequence).
        let Some(best_idx) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| by_hops_then_nodes(a, b))
            .map(|(idx, _)| idx)
        else {
            break;
        };
        let best = candidates.swap_remove(best_idx);
        candidate_keys.remove(&best.nodes);
        selected.push(best);
    }

    // Final deterministic ordering.
    selected.sort_by(by_hops_then_nodes);
    #[cfg(feature = "strict-invariants")]
    for p in &selected {
        debug_assert!(
            p.validate(g).is_ok(),
            "yen produced an invalid path: {:?}",
            p.validate(g)
        );
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// Classic Yen example graph (directed interpretation of the wiki
    /// example would need weights; we use a small mesh instead).
    fn mesh() -> (Graph, [NodeId; 6]) {
        let mut g = Graph::new();
        let c = g.add_node(NodeKind::GenericSwitch, "c");
        let d = g.add_node(NodeKind::GenericSwitch, "d");
        let e = g.add_node(NodeKind::GenericSwitch, "e");
        let f = g.add_node(NodeKind::GenericSwitch, "f");
        let gg = g.add_node(NodeKind::GenericSwitch, "g");
        let h = g.add_node(NodeKind::GenericSwitch, "h");
        for (a, b) in [
            (c, d),
            (c, e),
            (d, f),
            (e, d),
            (e, f),
            (f, h),
            (f, gg),
            (gg, h),
            (e, gg),
        ] {
            g.add_duplex_link(a, b, 10.0);
        }
        (g, [c, d, e, f, gg, h])
    }

    #[test]
    fn first_path_matches_dijkstra() {
        let (g, [c, .., h]) = mesh();
        let ps = k_shortest_paths(&g, c, h, 1);
        let sp = crate::dijkstra::shortest_path(&g, c, h).unwrap();
        assert_eq!(ps[0], sp);
    }

    #[test]
    fn paths_are_sorted_simple_and_distinct() {
        let (g, [c, .., h]) = mesh();
        let ps = k_shortest_paths(&g, c, h, 10);
        assert!(ps.len() >= 3);
        for w in ps.windows(2) {
            assert!(w[0].len() <= w[1].len(), "not sorted by length");
            assert_ne!(w[0].nodes, w[1].nodes, "duplicate path");
        }
        for p in &ps {
            p.validate(&g).unwrap();
            assert_eq!(p.src(), c);
            assert_eq!(p.dst(), h);
        }
    }

    #[test]
    fn k_zero_and_same_endpoint() {
        let (g, [c, .., h]) = mesh();
        assert!(k_shortest_paths(&g, c, h, 0).is_empty());
        assert!(k_shortest_paths(&g, c, c, 5).is_empty());
    }

    #[test]
    fn exhausts_when_fewer_paths_exist() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        g.add_duplex_link(a, b, 1.0);
        let ps = k_shortest_paths(&g, a, b, 8);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn diamond_has_two_disjoint_paths() {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::GenericSwitch, "s");
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        let t = g.add_node(NodeKind::GenericSwitch, "t");
        g.add_duplex_link(s, a, 1.0);
        g.add_duplex_link(s, b, 1.0);
        g.add_duplex_link(a, t, 1.0);
        g.add_duplex_link(b, t, 1.0);
        let ps = k_shortest_paths(&g, s, t, 4);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].nodes, vec![s, a, t]);
        assert_eq!(ps[1].nodes, vec![s, b, t]);
    }
}
