//! Yen's k-shortest loopless paths (Yen, *Management Science* 1971).
//!
//! The paper routes flat-tree global/local modes with k-shortest-path
//! routing (§4, citing \[50\]); `routing` builds its per-pair path tables on
//! top of this module. Paths are simple (loop-free), returned sorted by
//! hop count and then lexicographically by node sequence, so the output
//! is fully deterministic. A [`Yen`] engine holds the per-graph search
//! state; every search of a run is one goal-directed hop search toward
//! the run's destination.

use crate::dijkstra::GoalSearch;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;
use std::cmp::Ordering;

/// Yen's order on paths: hop count, then node sequence.
fn by_hops_then_nodes(a: &Path, b: &Path) -> Ordering {
    (a.len(), &a.nodes).cmp(&(b.len(), &b.nodes))
}

/// A Yen engine for one graph: the goal-directed search state and a
/// candidate pool, reused by every run, so a run allocates only the
/// paths it returns.
///
/// Each run aims the search at its destination once (one reverse BFS
/// with the down links removed), then finds the first path and every
/// spur path with it. Spur paths are stitched into pooled buffers and
/// deduplicated by node sequence among the pending candidates. Runs on
/// any graph but the one the engine was built for are a logic error.
#[derive(Debug, Clone)]
pub struct Yen {
    search: GoalSearch,
    /// `pool[..live]` are a run's pending candidates; the other slots
    /// keep their buffers for later candidates and runs.
    pool: Vec<Candidate>,
    /// Per selected path, the node prefix it shares with the last one.
    shared: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Candidate {
    /// Hash of the node sequence, compared first when deduplicating.
    key: u64,
    path: Path,
}

impl Yen {
    /// An engine for `g`.
    pub fn new(g: &Graph) -> Self {
        Yen {
            search: GoalSearch::new(g),
            pool: Vec::new(),
            shared: Vec::new(),
        }
    }

    /// The k shortest loopless paths by hop count, with every link for
    /// which `down` holds removed (failed links, for the failure-aware
    /// routers).
    ///
    /// Returns fewer than `k` paths when the graph does not contain that
    /// many simple paths. `k == 0` or `src == dst` yields the empty set.
    pub fn paths_avoiding<F>(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        down: F,
    ) -> Vec<Path>
    where
        F: Fn(LinkId) -> bool,
    {
        self.run(g, src, dst, k, down, None)
    }

    /// The k shortest loopless paths with every link up, plus the run's
    /// **footprint**: every link used by any path the algorithm
    /// examined — the selected paths *and* every candidate spur path
    /// generated along the way — sorted by id, deduped.
    ///
    /// The footprint is the exact reuse certificate for route caches: if
    /// no footprint link is removed from the graph, re-running Yen on
    /// the pruned graph returns bit-identical paths, because every spur
    /// search of the original run found a path that still exists (the
    /// hop search returns the same path when its result survives
    /// pruning: removing links off that path changes no node's level or
    /// lowest-id predecessor along it, so every candidate pool — and
    /// therefore every selection — is reproduced unchanged). If a
    /// removed link only avoids the *selected* paths, an equal-length
    /// candidate replacement can still win a tie-break and change the
    /// output, so caches must key on the full footprint, not the
    /// selection.
    pub fn paths_with_footprint(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
    ) -> (Vec<Path>, Vec<LinkId>) {
        let mut footprint = Vec::new();
        let paths = self.run(g, src, dst, k, |_| false, Some(&mut footprint));
        footprint.sort_unstable_by_key(|l| l.idx());
        footprint.dedup();
        (paths, footprint)
    }

    fn run<F>(
        &mut self,
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
        debug_assert!(self.search.fits(g), "Yen engine built for another graph");
        if k == 0 || src == dst {
            return Vec::new();
        }
        let Yen {
            search,
            pool,
            shared,
        } = self;
        search.aim(dst, &down);
        if !search.find(g, src, dst, &down) {
            return Vec::new();
        }
        let mut first = Path {
            nodes: vec![src],
            links: Vec::new(),
        };
        search.append_path(src, dst, &mut first.nodes, &mut first.links);
        if let Some(fp) = footprint.as_deref_mut() {
            fp.extend_from_slice(&first.links);
        }
        let mut selected: Vec<Path> = vec![first];
        let mut live = 0;

        while selected.len() < k {
            let last = &selected[selected.len() - 1];
            shared.clear();
            shared.extend(selected.iter().map(|p| {
                p.nodes
                    .iter()
                    .zip(&last.nodes)
                    .take_while(|(a, b)| a == b)
                    .count()
            }));
            // Spur from every node of the previously selected path.
            for i in 0..last.nodes.len() - 1 {
                let spur = last.nodes[i];
                // Mask: all root nodes except the spur node, plus the
                // next link of every *selected* path sharing this root
                // (candidates stay routable — masking them too would
                // wrongly suppress paths that are never selected).
                if i > 0 {
                    search.search.block_node(last.nodes[i - 1]);
                }
                for (p, &common) in selected.iter().zip(shared.iter()) {
                    if common > i {
                        search.search.block_link(p.links[i]);
                    }
                }
                let found = search.find(g, spur, dst, &down);
                search.search.unblock_links();
                if !found {
                    continue;
                }
                // Stitch root + spur into the next free slot.
                if live == pool.len() {
                    pool.push(Candidate {
                        key: 0,
                        path: Path {
                            nodes: Vec::new(),
                            links: Vec::new(),
                        },
                    });
                }
                let (pending, free) = pool.split_at_mut(live);
                let cand = &mut free[0];
                cand.path.nodes.clear();
                cand.path.nodes.extend_from_slice(&last.nodes[..=i]);
                cand.path.links.clear();
                cand.path.links.extend_from_slice(&last.links[..i]);
                search.append_path(spur, dst, &mut cand.path.nodes, &mut cand.path.links);
                debug_assert!(
                    cand.path.validate(g).is_ok(),
                    "Yen stitched an invalid path"
                );
                // The root links are the last selection's, already in it.
                if let Some(fp) = footprint.as_deref_mut() {
                    fp.extend_from_slice(&cand.path.links[i..]);
                }
                cand.key = node_key(&cand.path.nodes);
                if !pending
                    .iter()
                    .any(|c| c.key == cand.key && c.path.nodes == cand.path.nodes)
                {
                    live += 1;
                }
            }
            search.search.unblock_all();
            // Extract the best candidate: min (hops, node sequence).
            let Some(best) =
                (0..live).min_by(|&a, &b| by_hops_then_nodes(&pool[a].path, &pool[b].path))
            else {
                break;
            };
            selected.push(pool[best].path.clone());
            live -= 1;
            pool.swap(best, live);
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
}

/// A hash of a node sequence (FxHash's mixing step).
fn node_key(nodes: &[NodeId]) -> u64 {
    nodes.iter().fold(nodes.len() as u64, |h, n| {
        (h.rotate_left(5) ^ u64::from(n.0)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn ksp(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        Yen::new(g).paths_avoiding(g, src, dst, k, |_| false)
    }

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
        let ps = ksp(&g, c, h, 1);
        let sp = crate::dijkstra::shortest_path(&g, c, h).unwrap();
        assert_eq!(ps[0], sp);
    }

    #[test]
    fn paths_are_sorted_simple_and_distinct() {
        let (g, [c, .., h]) = mesh();
        let ps = ksp(&g, c, h, 10);
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
        assert!(ksp(&g, c, h, 0).is_empty());
        assert!(ksp(&g, c, c, 5).is_empty());
    }

    #[test]
    fn exhausts_when_fewer_paths_exist() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        g.add_duplex_link(a, b, 1.0);
        let ps = ksp(&g, a, b, 8);
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
        let ps = ksp(&g, s, t, 4);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].nodes, vec![s, a, t]);
        assert_eq!(ps[1].nodes, vec![s, b, t]);
    }
}
