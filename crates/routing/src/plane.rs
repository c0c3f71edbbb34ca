//! The shared route plane: the one switch-pair k-shortest-path table.
//!
//! Experiment sweeps run many simulations over the same `(topology,
//! mode, k)`, each of which would re-derive the identical switch-pair
//! paths. [`SharedRouteTable`] precomputes every ingress-pair path set
//! once — in parallel, with output independent of the worker count — and
//! is then shared immutably (typically behind an `Arc`) across cells,
//! threads, and verifier passes. A private table can also be filled one
//! pair at a time ([`SharedRouteTable::entry_or_compute`]) when the
//! pairs are not known up front.
//!
//! Each slot stores the selected paths plus the link **footprint** of
//! their Yen run (selected *and* candidate paths). The table never
//! mutates under failures. A reader reuses an entry when no footprint
//! link is down — the paths are then provably bit-identical to a
//! failure-aware recomputation (see
//! [`netgraph::yen::Yen::paths_with_footprint`]) — and re-runs a masked
//! Yen otherwise. `flowsim`'s `MptcpProvider` is that reader.

use crate::ksp::{rack_path, splice_server_pair, PairEntry};
use netgraph::{yen::Yen, Graph, LinkId, NodeId, Path};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An immutable, fully-precomputed switch-pair k-shortest-path table.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRouteTable {
    k: usize,
    entries: Vec<PairEntry>,
    pair_index: HashMap<(NodeId, NodeId), usize>,
}

impl SharedRouteTable {
    /// A table covering no pairs: every lookup misses.
    pub fn empty(k: usize) -> Self {
        assert!(k >= 1, "k-shortest-path routing needs k >= 1");
        Self {
            k,
            entries: Vec::new(),
            pair_index: HashMap::new(),
        }
    }

    /// Every ordered pair of ingress switches (switches with at least
    /// one attached server), ascending — the full route-plane domain.
    pub fn ingress_pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
        let mut switches: Vec<NodeId> = g
            .servers()
            .iter()
            .filter_map(|&s| g.server_uplink_switch(s))
            .collect();
        switches.sort_unstable();
        switches.dedup();
        let mut pairs = Vec::with_capacity(switches.len() * switches.len().saturating_sub(1));
        for &a in &switches {
            for &b in &switches {
                if a != b {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// Precomputes the full ingress-pair table with one worker per CPU.
    pub fn build(g: &Graph, k: usize) -> Self {
        Self::build_for_pairs(g, k, &Self::ingress_pairs(g))
    }

    /// Precomputes a table restricted to the given switch pairs (deduped,
    /// self-pairs dropped), one worker per CPU. Use when the traffic only
    /// touches a known pair subset.
    pub fn build_for_pairs(g: &Graph, k: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        Self::build_for_pairs_with_threads(g, k, pairs, default_threads())
    }

    /// [`SharedRouteTable::build_for_pairs`] with an explicit worker
    /// count. The result depends only on `(g, k, pairs)` — never on
    /// `threads` or scheduling.
    pub fn build_for_pairs_with_threads(
        g: &Graph,
        k: usize,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Self {
        let mut table = Self::empty(k);
        let mut pairs: Vec<(NodeId, NodeId)> =
            pairs.iter().copied().filter(|&(a, b)| a != b).collect();
        pairs.sort_unstable();
        pairs.dedup();
        table.entries = par_map(
            &pairs,
            threads,
            || Yen::new(g),
            |yen, &(a, b)| PairEntry::compute(yen, g, a, b, k),
        );
        table.pair_index = pairs.into_iter().zip(0..).collect();
        table
    }

    /// Number of concurrent paths (k in k-shortest-path routing).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of precomputed switch pairs.
    pub fn pair_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table covers this ordered switch pair.
    pub fn contains_pair(&self, a: NodeId, b: NodeId) -> bool {
        self.pair_index.contains_key(&(a, b))
    }

    /// A covered switch pair's precomputed paths and the Yen footprint
    /// certifying them; `None` when the pair is outside the table.
    pub fn entry(&self, a: NodeId, b: NodeId) -> Option<(&[Path], &[LinkId])> {
        self.pair_index
            .get(&(a, b))
            .map(|&i| self.entries[i].parts())
    }

    /// A switch pair's entry, computed with `yen` (an engine for `g`) and
    /// stored on the first call for the pair: the lazy fill for pairs
    /// outside a precomputed domain. The entry equals the one
    /// [`SharedRouteTable::build_for_pairs`] stores for the pair.
    pub fn entry_or_compute(
        &mut self,
        yen: &mut Yen,
        g: &Graph,
        a: NodeId,
        b: NodeId,
    ) -> (&[Path], &[LinkId]) {
        let next = self.entries.len();
        let i = *self.pair_index.entry((a, b)).or_insert(next);
        if i == next {
            self.entries.push(PairEntry::compute(yen, g, a, b, self.k));
        }
        self.entries[i].parts()
    }

    /// The precomputed paths for a covered switch pair; `None` when the
    /// pair is outside the table's domain.
    pub fn switch_paths(&self, a: NodeId, b: NodeId) -> Option<&[Path]> {
        self.entry(a, b).map(|(paths, _)| paths)
    }

    /// Server-level paths with every link up: the covered switch-pair
    /// paths spliced with the server uplinks (intra-rack pairs get the
    /// single 2-hop path). `None` when an endpoint is unattached or the
    /// pair's switches are outside the table; `Some(vec![])` only when
    /// the pair is disconnected.
    pub fn server_paths(&self, g: &Graph, src: NodeId, dst: NodeId) -> Option<Vec<Path>> {
        assert_ne!(src, dst, "no self-flows");
        let si = g.server_uplink_switch(src)?;
        let di = g.server_uplink_switch(dst)?;
        if si == di {
            return Some(vec![rack_path(g, src, si, dst)]);
        }
        let sp = self.switch_paths(si, di)?;
        Some(splice_server_pair(g, src, dst, sp))
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Deterministic parallel map: workers pull indices from a shared atomic
/// queue and results are reassembled in input order, so the output never
/// depends on the worker count or scheduling — the same discipline the
/// experiment sweep driver uses. Each worker builds its own scratch state
/// with `init` and hands it to every job it runs; a job's result must not
/// depend on that state's history.
fn par_map<I, S, T, N, F>(items: &[I], threads: usize, init: N, job: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> T + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        let mut state = init();
        return items.iter().map(|item| job(&mut state, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let collected = &collected;
                let (init, job) = (&init, &job);
                scope.spawn(move |_| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let out = job(&mut state, &items[i]);
                        collected
                            .lock()
                            // ftlint::allow(FTL-R001): Mutex poisoning only follows a worker panic, which join() then propagates
                            .expect("route-plane collector")
                            .push((i, out));
                    }
                })
            })
            .collect();
        for h in handles {
            // ftlint::allow(FTL-R001): a worker panic must propagate; a partial route plane would be unsound
            h.join().expect("route-plane worker panicked");
        }
    })
    .expect("route-plane scope");
    let mut indexed = collected.into_inner().expect("route-plane collector");
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
    use topology::ClosParams;

    fn mini_global() -> Graph {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        ft.instantiate(&ModeAssignment::uniform(4, PodMode::Global))
            .net
            .graph
    }

    #[test]
    fn matches_lazy_route_table() {
        let g = mini_global();
        let table = SharedRouteTable::build(&g, 4);
        let mut lazy = SharedRouteTable::empty(4);
        let mut yen = Yen::new(&g);
        assert!(table.pair_count() > 0);
        let servers = g.servers();
        for (a, b) in [(0usize, 17), (3, 40), (12, 5)] {
            let (src, dst) = (servers[a], servers[b]);
            let want = yen.paths_avoiding(&g, src, dst, 4, |_| false);
            let got = table.server_paths(&g, src, dst).unwrap();
            assert_eq!(got, want);
        }
        // Each slot holds exactly a direct Yen run's (paths, footprint),
        // and the lazy fill stores the same entry.
        for &(a, b) in &SharedRouteTable::ingress_pairs(&g)[..8] {
            let (paths, footprint) = yen.paths_with_footprint(&g, a, b, 4);
            let want = Some((&paths[..], &footprint[..]));
            assert_eq!(table.entry(a, b), want);
            assert_eq!(Some(lazy.entry_or_compute(&mut yen, &g, a, b)), want);
        }
        assert_eq!(lazy.pair_count(), 8);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let g = mini_global();
        let pairs = SharedRouteTable::ingress_pairs(&g);
        let one = SharedRouteTable::build_for_pairs_with_threads(&g, 4, &pairs, 1);
        for threads in [2, 3, 8] {
            let many = SharedRouteTable::build_for_pairs_with_threads(&g, 4, &pairs, threads);
            assert_eq!(many, one);
        }
    }

    #[test]
    fn restricted_table_covers_only_requested_pairs() {
        let g = mini_global();
        let all = SharedRouteTable::ingress_pairs(&g);
        let subset = &all[..4];
        let table = SharedRouteTable::build_for_pairs(&g, 4, subset);
        assert_eq!(table.pair_count(), 4);
        for &(a, b) in subset {
            assert!(table.contains_pair(a, b));
        }
        let &(a, b) = all.last().unwrap();
        assert!(!table.contains_pair(a, b));
        assert!(table.switch_paths(a, b).is_none());
    }
}
