//! `(m, n)` profiling (§3.4).
//!
//! "Because flat-tree aims at converting generic Clos networks, which may
//! have very different layouts, it is difficult to pre-define the m and n
//! values for optimal transmission performance. We suggest a profiling
//! scheme: under the preferred Pod-core wiring pattern described in
//! Section 3.2, vary m and n until they result in the shortest average
//! path length over all server pairs."

use crate::cables::{for_each_cable, Cable, Switches};
use crate::layout::{FlatTreeParams, Layout};
use crate::modes::{configs_for, ModeAssignment, PodMode};
use crate::wiring::{core_of, ConnectorRole};
use netgraph::switch_graph::{Orbits, SwitchView, Wire};
use topology::ClosParams;

/// Result of one profiling candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Candidate 6-port converter count per column.
    pub m: usize,
    /// Candidate 4-port converter count per column.
    pub n: usize,
    /// Average server-pair path length in **global mode** under these
    /// values (the mode whose structure `(m, n)` shapes the most).
    pub global_apl: f64,
}

/// Sweeps every feasible `(m, n)` split and returns all candidates,
/// ascending by `global_apl` (ties broken toward larger `m`, which gives
/// the richer core).
///
/// Feasibility: `m + n <= min(servers_per_edge, h/r)` and `m + n >= 1`.
/// Each candidate is scored from its layout's cable plan, the one
/// [`FlatTree::instantiate`](crate::FlatTree::instantiate) builds from,
/// without building a graph; one [`SwitchView`] serves every candidate.
/// The view scores it from one BFS source per orbit of its pod rotation
/// once it certifies the rotation, and from every source otherwise.
pub fn profile_mn(clos: &ClosParams) -> Vec<ProfilePoint> {
    let budget = clos.servers_per_edge.min(clos.h_over_r());
    let global = ModeAssignment::uniform(clos.pods, PodMode::Global);
    let mut view = SwitchView::default();
    let mut orbits = Orbits::default();
    let mut phi = Vec::new();
    let mut points = Vec::new();
    for total in 1..=budget {
        for m in 0..=total {
            let n = total - m;
            let Ok(layout) = Layout::new(FlatTreeParams::new(*clos, m, n)) else {
                continue;
            };
            fill_view(&layout, &global, &mut view);
            pod_rotation(&layout, &mut phi);
            if let Some(apl) = view.avg_server_path_length_under(&phi, &mut orbits) {
                points.push(ProfilePoint {
                    m,
                    n,
                    global_apl: apl,
                });
            }
        }
    }
    points.sort_by(|a, b| {
        a.global_apl
            .total_cmp(&b.global_apl)
            .then_with(|| b.m.cmp(&a.m))
    });
    points
}

/// Refills `view` with the switch-level view of `layout` under
/// `assignment`: every switch–switch cable as a link each way, every
/// server on the switch it plugs into.
fn fill_view(layout: &Layout, assignment: &ModeAssignment, view: &mut SwitchView) {
    let configs = configs_for(layout, assignment);
    view.rebuild(Switches::new(&layout.params.clos).count(), |wire| {
        for_each_cable(layout, &configs, |cable| wire_cable(cable, wire));
    });
}

/// Feeds one cable to [`SwitchView::rebuild`]: a switch–switch cable as
/// a link each way, a server cable as a server on its switch.
fn wire_cable(cable: Cable, wire: &mut dyn FnMut(Wire)) {
    match cable {
        Cable::Server { switch, .. } => wire(Wire::Server { switch }),
        Cable::Switch(a, b) => {
            wire(Wire::Link { from: a, to: b });
            wire(Wire::Link { from: b, to: a });
        }
    }
}

/// Proposes the rotation of every pod by one as a map on `layout`'s
/// dense switches: pod switch `(p, i)` goes to `(p + 1 mod P, i)`, and
/// each core to the core the same connector of the next pod reaches,
/// `σ(core_of(0, j, role)) = core_of(1, j, role)`. Only a proposal: the
/// view certifies it, and scores a view it does not fit (no side-link
/// ring, a hybrid assignment) from every source.
fn pod_rotation(layout: &Layout, phi: &mut Vec<u32>) {
    let p = &layout.params;
    let clos = &p.clos;
    let sw = Switches::new(clos);
    phi.clear();
    phi.extend(0..sw.count() as u32);
    for pod in 0..clos.pods {
        let next = (pod + 1) % clos.pods;
        for j in 0..clos.edges_per_pod {
            phi[sw.edge(pod, j)] = sw.edge(next, j) as u32;
        }
        for i in 0..clos.aggs_per_pod {
            phi[sw.agg(pod, i)] = sw.agg(next, i) as u32;
        }
    }
    let roles = (0..p.m)
        .map(ConnectorRole::BladeB)
        .chain((0..p.n).map(ConnectorRole::BladeA))
        .chain((0..clos.h_over_r() - p.m - p.n).map(ConnectorRole::Agg));
    for j in 0..clos.edges_per_pod {
        for role in roles.clone() {
            phi[core_of(p, p.wiring, 0, j, role)] = core_of(p, p.wiring, 1, j, role) as u32;
        }
    }
}

/// The best `(m, n)` per §3.4's criterion.
pub fn best_mn(clos: &ClosParams) -> Option<(usize, usize)> {
    profile_mn(clos).first().map(|p| (p.m, p.n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{invariants, FlatTree, WiringPattern};
    use netgraph::metrics::avg_server_path_length;
    use netgraph::NodeId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn sweep_covers_feasible_grid() {
        let clos = ClosParams::mini(); // budget = min(4, 4) = 4
        let pts = profile_mn(&clos);
        // totals 1..=4, each with total+1 splits, minus the degenerate
        // (m = h/r, n = 0) point: 2+3+4+5 - 1 = 13.
        assert_eq!(pts.len(), 13);
        // Sorted ascending by APL.
        for w in pts.windows(2) {
            assert!(w[0].global_apl <= w[1].global_apl);
        }
    }

    #[test]
    fn best_exists_and_beats_clos_apl() {
        let clos = ClosParams::mini();
        let (m, n) = best_mn(&clos).unwrap();
        assert!(m + n >= 1);
        let params = FlatTreeParams::new(clos, m, n);
        let ft = FlatTree::new(params).unwrap();
        let global = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Global));
        let clos_inst = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Clos));
        let g = avg_server_path_length(&global.net.graph).unwrap();
        let c = avg_server_path_length(&clos_inst.net.graph).unwrap();
        assert!(g < c, "profiled global APL {g} must beat Clos {c}");
    }

    #[test]
    fn relocating_servers_helps() {
        // Within the sweep, the best point should relocate at least one
        // server to the core (m >= 1): core-attached servers shortcut the
        // hierarchy.
        let pts = profile_mn(&ClosParams::mini());
        assert!(pts[0].m >= 1, "best point {pts:?}");
    }

    /// Fat-tree-like Clos networks of radix `k`: with `r = 1` the fat-tree
    /// itself, with `r = 2` twice the edges, each pod-core pair doubled.
    /// Edges may carry extra servers beyond the fat-tree's `k/2`.
    fn clos_params() -> impl Strategy<Value = ClosParams> {
        (
            prop::sample::select(vec![4usize, 6, 8, 12]),
            prop::bool::ANY,
            0usize..3,
        )
            .prop_filter_map("odd edges per pod", |(k, r2, extra)| {
                let fat = topology::fat_tree(k);
                let clos = if r2 {
                    ClosParams {
                        edges_per_pod: k,
                        agg_uplinks: k,
                        ..fat
                    }
                } else {
                    fat
                };
                let clos = ClosParams {
                    servers_per_edge: k / 2 + extra,
                    ..clos
                };
                (clos.validate().is_ok() && clos.edges_per_pod.is_multiple_of(2)).then_some(clos)
            })
    }

    /// Every valid flat-tree over `clos` under both wiring patterns, with
    /// the side links closed into a ring iff `wrap`.
    fn flat_trees(clos: ClosParams, wrap: bool) -> Vec<FlatTree> {
        let budget = clos.servers_per_edge.min(clos.h_over_r());
        let mut out = Vec::new();
        for total in 1..=budget {
            for m in 0..=total {
                for wiring in [WiringPattern::Pattern1, WiringPattern::Pattern2] {
                    let mut p = FlatTreeParams::new(clos, m, total - m);
                    p.wiring = wiring;
                    p.wrap_side_links = wrap;
                    out.extend(FlatTree::new(p));
                }
            }
        }
        out
    }

    /// Cable count per `(pod, agg, core)`.
    type AggCore = BTreeMap<(usize, usize, usize), usize>;

    /// Agg–core cables per `(pod, agg, core)` of the Clos-mode instance,
    /// against the §3.2 wiring restated from `core_of` alone: with every
    /// converter `default`, each of edge `j`'s `h/r` core connectors,
    /// whatever its role, runs from agg `j / r` to its core.
    fn clos_mode_agg_core(ft: &FlatTree) -> (AggCore, AggCore) {
        let p = ft.params();
        let clos = &p.clos;
        let inst = ft.instantiate(&ModeAssignment::uniform(clos.pods, PodMode::Clos));
        let g = &inst.net.graph;
        let core_index: BTreeMap<NodeId, usize> = inst
            .cores
            .iter()
            .enumerate()
            .map(|(c, &node)| (node, c))
            .collect();
        let mut got = BTreeMap::new();
        for (pod, aggs) in inst.pod_aggs.iter().enumerate() {
            for (i, &agg) in aggs.iter().enumerate() {
                for &(v, l) in g.neighbors(agg) {
                    if let Some(&c) = core_index.get(&v) {
                        let cables = (g.link(l).capacity_gbps / clos.link_gbps).round() as usize;
                        *got.entry((pod, i, c)).or_insert(0) += cables;
                    }
                }
            }
        }
        let mut want = BTreeMap::new();
        for pod in 0..clos.pods {
            for j in 0..clos.edges_per_pod {
                let roles = (0..p.m)
                    .map(ConnectorRole::BladeB)
                    .chain((0..p.n).map(ConnectorRole::BladeA))
                    .chain((0..clos.h_over_r() - p.m - p.n).map(ConnectorRole::Agg));
                for role in roles {
                    let c = core_of(p, p.wiring, pod, j, role);
                    *want.entry((pod, j / clos.r(), c)).or_insert(0) += 1;
                }
            }
        }
        (got, want)
    }

    /// The BFS sources that scoring `view` under `layout`'s pod rotation
    /// runs from, after checking its path length against the full sweep
    /// bit for bit.
    fn orbit_sources(layout: &Layout, view: &SwitchView) -> usize {
        let mut phi = Vec::new();
        pod_rotation(layout, &mut phi);
        let mut orbits = Orbits::default();
        let apl = view.avg_server_path_length_under(&phi, &mut orbits);
        let full = view.avg_server_path_length();
        assert_eq!(
            apl.map(f64::to_bits),
            full.map(f64::to_bits),
            "{:?}",
            layout.params
        );
        orbits.sources()
    }

    fn server_switches(view: &SwitchView) -> usize {
        view.servers().iter().filter(|&&s| s > 0).count()
    }

    /// [`fill_view`] in global mode with the first cable that `edit`
    /// rewrites replaced by its rewrite.
    fn fill_edited(layout: &Layout, view: &mut SwitchView, edit: impl Fn(Cable) -> Option<Cable>) {
        let global = ModeAssignment::uniform(layout.params.clos.pods, PodMode::Global);
        let configs = configs_for(layout, &global);
        view.rebuild(Switches::new(&layout.params.clos).count(), |wire| {
            let mut edited = false;
            for_each_cable(layout, &configs, |cable| match edit(cable) {
                Some(moved) if !edited => {
                    edited = true;
                    wire_cable(moved, wire);
                }
                _ => wire_cable(cable, wire),
            });
        });
    }

    /// On wrapped fat-trees past one 64-lane word, the pod rotation is
    /// certified for every candidate under both wiring patterns, so each
    /// scores from fewer sources than it has server-bearing switches.
    #[test]
    fn rotation_reduces_wrapped_fat_trees() {
        for k in [12, 16] {
            let clos = topology::fat_tree(k);
            let global = ModeAssignment::uniform(clos.pods, PodMode::Global);
            let mut view = SwitchView::default();
            for ft in flat_trees(clos, true) {
                fill_view(&ft.layout, &global, &mut view);
                let sources = orbit_sources(&ft.layout, &view);
                assert!(server_switches(&view) > 64);
                assert!(
                    sources < server_switches(&view),
                    "{:?}: {sources}",
                    ft.params()
                );
            }
        }
    }

    /// The certificate turns the rotation down wherever it is not an
    /// automorphism, and the score stays exact: a hybrid assignment, one
    /// cable moved, one server moved to another pod, and side bundles
    /// without the ring.
    #[test]
    fn certificate_rejects_broken_symmetry() {
        let clos = topology::fat_tree(12);
        let sw = Switches::new(&clos);
        let half = (0..clos.pods).map(|p| {
            if p < clos.pods / 2 {
                PodMode::Global
            } else {
                PodMode::Clos
            }
        });
        let hybrid = ModeAssignment::hybrid(half.collect());
        let mut view = SwitchView::default();
        let rejected = |layout: &Layout, view: &SwitchView| {
            let sources = orbit_sources(layout, view);
            assert_eq!(sources, server_switches(view), "{:?}", layout.params);
        };
        for ft in flat_trees(clos, true) {
            fill_view(&ft.layout, &hybrid, &mut view);
            rejected(&ft.layout, &view);
            let (e, a, b) = (sw.edge(0, 0), sw.agg(0, 0), sw.agg(0, 1));
            fill_edited(&ft.layout, &mut view, |cable| match cable {
                Cable::Switch(u, v) if (u, v) == (e, a) => Some(Cable::Switch(e, b)),
                _ => None,
            });
            rejected(&ft.layout, &view);
            fill_edited(&ft.layout, &mut view, |cable| match cable {
                Cable::Server { edge, slot, .. } => Some(Cable::Server {
                    edge,
                    slot,
                    switch: sw.edge(1, 0),
                }),
                Cable::Switch(..) => None,
            });
            rejected(&ft.layout, &view);
        }
        let global = ModeAssignment::uniform(clos.pods, PodMode::Global);
        for ft in flat_trees(clos, false)
            .into_iter()
            .filter(|ft| ft.params().m > 0)
        {
            fill_view(&ft.layout, &global, &mut view);
            rejected(&ft.layout, &view);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The view filled from the cable plan is the instantiated
        /// graph's view: the same servers per switch and the same
        /// switch adjacency, up to parallel links. Both sides read the
        /// one cable plan, so the plan itself is held to rules stated
        /// without it: the structural invariants on the global-mode
        /// instance and the §3.2 agg–core wiring in Clos mode.
        #[test]
        fn layout_view_matches_instantiated_graph(clos in clos_params(), wrap in prop::bool::ANY) {
            let global = ModeAssignment::uniform(clos.pods, PodMode::Global);
            let mut view = SwitchView::default();
            for ft in flat_trees(clos, wrap) {
                let inst = ft.instantiate(&global);
                let violations = invariants::all_violations(&ft, &inst);
                prop_assert!(violations.is_empty(), "{:?}: {:?}", ft.params(), violations);
                let (got, want) = clos_mode_agg_core(&ft);
                prop_assert_eq!(got, want, "{:?}", ft.params());
                fill_view(&ft.layout, &global, &mut view);
                let graph = SwitchView::of_graph(&inst.net.graph);
                prop_assert_eq!(view.servers(), graph.servers());
                for v in 0..view.servers().len() {
                    let links = |w: &SwitchView| {
                        let mut from = w.incoming(v).to_vec();
                        from.sort_unstable();
                        from.dedup();
                        from
                    };
                    prop_assert_eq!(links(&view), links(&graph), "switch {}", v);
                }
            }
        }

        /// Scoring from one source per orbit of the certified pod
        /// rotation gives the full sweep's path length bit for bit, under
        /// both wiring patterns, with and without the side-link ring.
        #[test]
        fn orbit_scoring_is_exact(clos in clos_params(), wrap in prop::bool::ANY) {
            let global = ModeAssignment::uniform(clos.pods, PodMode::Global);
            let mut view = SwitchView::default();
            for ft in flat_trees(clos, wrap) {
                fill_view(&ft.layout, &global, &mut view);
                orbit_sources(&ft.layout, &view);
            }
        }

        /// Every profiled candidate scores exactly what the path-length
        /// metric gives on its instantiated global-mode graph.
        #[test]
        fn profile_matches_instantiated_apl(clos in clos_params()) {
            let global = ModeAssignment::uniform(clos.pods, PodMode::Global);
            for pt in profile_mn(&clos) {
                let ft = FlatTree::new(FlatTreeParams::new(clos, pt.m, pt.n)).unwrap();
                let want = avg_server_path_length(&ft.instantiate(&global).net.graph).unwrap();
                prop_assert_eq!(pt.global_apl.to_bits(), want.to_bits(), "{:?}", pt);
            }
        }
    }
}
