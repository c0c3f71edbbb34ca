//! The decomposition pipeline: populate → sign → cluster → simulate
//! representatives → aggregate.

use crate::cluster::{cluster, Clusters};
use crate::error::DecompError;
use crate::signature::signatures;
use flowsim::{
    EcmpProvider, FailedLinks, FlowRecord, FlowSpec, PathProvider, SimConfig, SimError, SimResult,
    Transport,
};
use netgraph::{Graph, LinkId, NodeKind, PathArena};

/// Gbps → bytes/second (the engine's own conversion).
const GBPS_TO_BPS: f64 = 1e9 / 8.0;

/// One flow as a link sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopFlow {
    /// Index into the input flow list.
    pub idx: usize,
    /// Flow size in bytes.
    pub bytes: f64,
    /// Arrival time in seconds.
    pub start: f64,
    /// Minimum capacity (Gbps) over the *rest* of the flow's path —
    /// the access rate the link-local subnetwork grants this flow.
    pub access_gbps: f64,
}

/// The flow population of one loaded directed link.
#[derive(Debug, Clone)]
pub struct LinkPop {
    /// The link.
    pub link: LinkId,
    /// Crossing flows, in input order.
    pub flows: Vec<PopFlow>,
}

/// Decomposition options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompConfig {
    /// Signature distance threshold for clustering: 0 clusters only
    /// bucket-identical links.
    pub threshold: f64,
    /// `false` disables clustering entirely — every loaded link is its
    /// own singleton cluster and gets its own exact link-local
    /// simulation (the validation-mode pipeline).
    pub clustering: bool,
}

impl Default for DecompConfig {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            clustering: true,
        }
    }
}

/// Tallies of one decomposition run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecompStats {
    /// Input flows.
    pub flows: usize,
    /// Flows the provider could not route (recorded unfinished).
    pub unroutable: usize,
    /// Directed links crossed by at least one flow.
    pub loaded_links: usize,
    /// Clusters formed (= link-local simulations run).
    pub clusters: usize,
    /// Total flows across the representative simulations — the work
    /// the exact engine actually performed.
    pub sim_flows: usize,
}

/// A decomposed run: the aggregated result plus tallies.
#[derive(Debug, Clone)]
pub struct DecompOutcome {
    /// Per-flow records in input order, `finish = start + estimated
    /// FCT`; series is empty and `end_time` is the latest estimated
    /// finish. The type matches the exact engine's so every
    /// [`SimResult`] consumer works unchanged.
    pub result: SimResult,
    /// Run tallies.
    pub stats: DecompStats,
}

fn validate(flows: &[FlowSpec]) -> Result<(), DecompError> {
    for f in flows {
        if !f.start.is_finite() {
            return Err(SimError::NonFiniteStart { flow: f.id }.into());
        }
        if !(f.bytes.is_finite() && f.bytes > 0.0) {
            return Err(SimError::InvalidBytes {
                flow: f.id,
                bytes: f.bytes,
            }
            .into());
        }
        if f.src == f.dst {
            return Err(SimError::SelfFlow {
                flow: f.id,
                node: f.src,
            }
            .into());
        }
    }
    Ok(())
}

/// Each flow's routed path as a directed link sequence (`None` =
/// unroutable), indexed by the flow's position in the input slice.
pub type RoutedPaths = Vec<Option<Vec<LinkId>>>;

/// Routes every flow once (no failures) and buckets it onto each
/// directed link of its path.
///
/// Returns the loaded-link populations in ascending link-id order plus
/// each flow's routed path (`None` = unroutable). The provider must
/// return single-path connections ([`Transport::TcpEcmp`]-style);
/// multi-path routing is a typed error.
pub fn populations<P: PathProvider + ?Sized>(
    g: &Graph,
    flows: &[FlowSpec],
    provider: &mut P,
) -> Result<(Vec<LinkPop>, RoutedPaths), DecompError> {
    validate(flows)?;
    let mut arena = PathArena::new();
    let failed = FailedLinks::new(g.link_count());
    let mut per_link: Vec<Vec<PopFlow>> = vec![Vec::new(); g.link_count()];
    let mut paths: RoutedPaths = Vec::with_capacity(flows.len());
    for (idx, spec) in flows.iter().enumerate() {
        let Some(conn) = provider.route(g, &mut arena, &failed, spec) else {
            paths.push(None);
            continue;
        };
        if conn.path_ids.len() != 1 {
            return Err(DecompError::MultiPathRoute {
                flow: spec.id,
                paths: conn.path_ids.len(),
            });
        }
        let links: Vec<LinkId> = arena.links(conn.path_ids[0]).to_vec();
        for (i, &l) in links.iter().enumerate() {
            // Access capacity: the tightest constraint the rest of the
            // path imposes (the link itself excluded; a single-link
            // path keeps its own capacity).
            let mut access = f64::INFINITY;
            for (j, &o) in links.iter().enumerate() {
                if j != i {
                    access = access.min(g.link(o).capacity_gbps);
                }
            }
            if !access.is_finite() {
                access = g.link(l).capacity_gbps;
            }
            per_link[l.idx()].push(PopFlow {
                idx,
                bytes: spec.bytes,
                start: spec.start,
                access_gbps: access,
            });
        }
        paths.push(Some(links));
    }
    let pops = per_link
        .into_iter()
        .enumerate()
        .filter(|(_, flows)| !flows.is_empty())
        .map(|(l, flows)| LinkPop {
            link: LinkId(l as u32),
            flows,
        })
        .collect();
    Ok((pops, paths))
}

/// Simulates one link's population exactly on the extracted link-local
/// subnetwork: the link itself (capacity `cap_gbps`) between two
/// switches, with a dedicated access leg per flow at that flow's
/// access capacity. Returns each flow's link-local FCT in population
/// order (`None` = never completed, e.g. a zero-capacity link).
pub fn simulate_link_local(cap_gbps: f64, pop: &LinkPop) -> Result<Vec<Option<f64>>, DecompError> {
    let mut g = Graph::new();
    let a = g.add_node(NodeKind::EdgeSwitch, "a");
    let b = g.add_node(NodeKind::EdgeSwitch, "b");
    g.add_directed_link(a, b, cap_gbps);
    let specs: Vec<FlowSpec> = pop
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let s = g.add_node(NodeKind::Server, format!("s{i}"));
            let t = g.add_node(NodeKind::Server, format!("t{i}"));
            g.add_directed_link(s, a, f.access_gbps);
            g.add_directed_link(b, t, f.access_gbps);
            FlowSpec {
                id: i as u64,
                src: s,
                dst: t,
                bytes: f.bytes,
                start: f.start,
            }
        })
        .collect();
    let cfg = SimConfig {
        transport: Transport::TcpEcmp,
        record_series: false,
    };
    let res = flowsim::simulate(&g, &specs, &cfg)?;
    Ok(res.records.iter().map(FlowRecord::fct).collect())
}

/// A flow's ideal (uncontended) FCT at a link: bytes over the tighter
/// of link capacity and access capacity.
fn ideal_fct(f: &PopFlow, cap_gbps: f64) -> f64 {
    f.bytes / (cap_gbps.min(f.access_gbps) * GBPS_TO_BPS)
}

/// Population order by `(bytes, start, input index)` — the rank space
/// member links are matched to their representative in.
fn rank_order(pop: &LinkPop) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pop.flows.len()).collect();
    order.sort_by(|&x, &y| {
        let (a, b) = (&pop.flows[x], &pop.flows[y]);
        a.bytes
            .total_cmp(&b.bytes)
            .then(a.start.total_cmp(&b.start))
            .then(a.idx.cmp(&b.idx))
    });
    order
}

/// Runs the full decomposition with the default ECMP provider (exactly
/// the paths [`Transport::TcpEcmp`] would use).
pub fn decompose(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &DecompConfig,
) -> Result<DecompOutcome, DecompError> {
    decompose_with_provider(g, flows, cfg, &mut EcmpProvider::new())
}

/// [`decompose`] with a caller-supplied (deterministic, single-path)
/// routing provider.
pub fn decompose_with_provider<P: PathProvider + ?Sized>(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &DecompConfig,
    provider: &mut P,
) -> Result<DecompOutcome, DecompError> {
    if !(cfg.threshold.is_finite() && cfg.threshold >= 0.0) {
        return Err(DecompError::InvalidThreshold(cfg.threshold));
    }
    let (pops, paths) = populations(g, flows, provider)?;
    let sigs = signatures(g, &pops);
    let clusters: Clusters = cluster(&sigs, cfg.threshold, cfg.clustering);

    // One exact simulation per representative, in cluster order.
    let mut rep_fcts: Vec<Option<Vec<Option<f64>>>> = vec![None; pops.len()];
    let mut sim_flows = 0usize;
    for info in &clusters.clusters {
        let pop = &pops[info.rep];
        sim_flows += pop.flows.len();
        let cap = g.link(pop.link).capacity_gbps;
        rep_fcts[info.rep] = Some(simulate_link_local(cap, pop)?);
    }

    // Per-flow end-to-end estimate: max over the path's per-link
    // estimates; a member link adopts its representative's FCTs by
    // size/start rank, scaled by the ideal-FCT ratio.
    let mut est = vec![0.0f64; flows.len()];
    let mut dead = vec![false; flows.len()];
    for (pi, pop) in pops.iter().enumerate() {
        let rep = clusters.rep_of(pi);
        let Some(fcts) = rep_fcts[rep].as_ref() else {
            // Unreachable by construction: every cluster simulated its
            // representative above. Treat defensively as dead.
            for f in &pop.flows {
                dead[f.idx] = true;
            }
            continue;
        };
        let cap = g.link(pop.link).capacity_gbps;
        if pi == rep {
            for (f, fct) in pop.flows.iter().zip(fcts) {
                match fct {
                    Some(v) if v.is_finite() => est[f.idx] = est[f.idx].max(*v),
                    _ => dead[f.idx] = true,
                }
            }
        } else {
            let rep_pop = &pops[rep];
            let rep_cap = g.link(rep_pop.link).capacity_gbps;
            let member_order = rank_order(pop);
            let rep_order = rank_order(rep_pop);
            for (&mi, &ri) in member_order.iter().zip(&rep_order) {
                let f = &pop.flows[mi];
                let twin = &rep_pop.flows[ri];
                match fcts[ri] {
                    Some(v) => {
                        let scaled = v / ideal_fct(twin, rep_cap) * ideal_fct(f, cap);
                        if scaled.is_finite() {
                            est[f.idx] = est[f.idx].max(scaled);
                        } else {
                            dead[f.idx] = true;
                        }
                    }
                    None => dead[f.idx] = true,
                }
            }
        }
    }

    let mut unroutable = 0usize;
    let mut end_time = 0.0f64;
    let records: Vec<FlowRecord> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let finish = match &paths[i] {
                None => {
                    unroutable += 1;
                    None
                }
                Some(_) if dead[i] => None,
                Some(_) => {
                    let t = f.start + est[i];
                    end_time = end_time.max(t);
                    Some(t)
                }
            };
            FlowRecord {
                id: f.id,
                start: f.start,
                finish,
                bytes: f.bytes,
            }
        })
        .collect();

    Ok(DecompOutcome {
        result: SimResult {
            records,
            series: Vec::new(),
            end_time,
        },
        stats: DecompStats {
            flows: flows.len(),
            unroutable,
            loaded_links: pops.len(),
            clusters: clusters.clusters.len(),
            sim_flows,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NodeId;

    /// Dumbbell: `n` servers per rack, dedicated uplinks, one shared
    /// core cable — the canonical first-order-closed topology.
    fn dumbbell(n: usize) -> (Graph, Vec<NodeId>, Vec<NodeId>) {
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        g.add_duplex_link(e0, e1, 10.0);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..n {
            let s = g.add_node(NodeKind::Server, format!("l{i}"));
            g.add_duplex_link(s, e0, 10.0);
            left.push(s);
            let t = g.add_node(NodeKind::Server, format!("r{i}"));
            g.add_duplex_link(t, e1, 10.0);
            right.push(t);
        }
        (g, left, right)
    }

    fn cross_flows(left: &[NodeId], right: &[NodeId], bytes: f64) -> Vec<FlowSpec> {
        left.iter()
            .zip(right)
            .enumerate()
            .map(|(i, (&s, &t))| FlowSpec {
                id: i as u64,
                src: s,
                dst: t,
                bytes,
                start: 0.0,
            })
            .collect()
    }

    #[test]
    fn single_flow_matches_exact_engine() {
        let (g, l, r) = dumbbell(1);
        let flows = cross_flows(&l, &r, 1.25e9);
        let out = decompose(&g, &flows, &DecompConfig::default()).expect("valid");
        let fct = out.result.records[0].fct().expect("completes");
        assert!((fct - 1.0).abs() < 1e-9, "fct = {fct}");
        assert_eq!(out.stats.unroutable, 0);
        assert_eq!(out.stats.flows, 1);
        // Path has 3 links; all loaded.
        assert_eq!(out.stats.loaded_links, 3);
    }

    #[test]
    fn shared_bottleneck_matches_exact_engine() {
        let (g, l, r) = dumbbell(4);
        let flows = cross_flows(&l, &r, 0.625e9);
        let cfg = SimConfig {
            transport: Transport::TcpEcmp,
            record_series: false,
        };
        let exact = flowsim::simulate(&g, &flows, &cfg).expect("valid workload");
        for clustering in [false, true] {
            let out = decompose(
                &g,
                &flows,
                &DecompConfig {
                    threshold: 0.0,
                    clustering,
                },
            )
            .expect("valid");
            for (a, b) in out.result.records.iter().zip(&exact.records) {
                let (fa, fb) = (a.fct().expect("done"), b.fct().expect("done"));
                assert!(
                    (fa - fb).abs() < 1e-9,
                    "clustering={clustering}: {fa} vs {fb}"
                );
            }
        }
    }

    #[test]
    fn clustering_collapses_symmetric_uplinks() {
        let (g, l, r) = dumbbell(8);
        let flows = cross_flows(&l, &r, 1e8);
        let out = decompose(&g, &flows, &DecompConfig::default()).expect("valid");
        // 8 uplinks + 8 downlinks + 1 core direction loaded; the 16
        // identical access links collapse into clusters.
        assert_eq!(out.stats.loaded_links, 17);
        assert!(
            out.stats.clusters < out.stats.loaded_links,
            "{} clusters",
            out.stats.clusters
        );
        assert!(out.stats.sim_flows < 8 * 3);
    }

    #[test]
    fn unroutable_flows_are_recorded_unfinished() {
        let mut g = Graph::new();
        let e = g.add_node(NodeKind::EdgeSwitch, "e");
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e, 10.0);
        // t is attached but unreachable from s (no link toward t).
        g.add_directed_link(t, e, 10.0);
        let flows = vec![FlowSpec {
            id: 9,
            src: s,
            dst: t,
            bytes: 1e6,
            start: 0.0,
        }];
        let out = decompose(&g, &flows, &DecompConfig::default()).expect("valid");
        assert_eq!(out.result.records[0].finish, None);
        assert_eq!(out.stats.unroutable, 1);
    }

    #[test]
    fn rejects_bad_inputs_with_typed_errors() {
        let (g, l, r) = dumbbell(1);
        let mut bad = cross_flows(&l, &r, 1e6);
        bad[0].bytes = 0.0;
        assert!(matches!(
            decompose(&g, &bad, &DecompConfig::default()),
            Err(DecompError::Sim(SimError::InvalidBytes { .. }))
        ));
        let flows = cross_flows(&l, &r, 1e6);
        let nan_threshold = DecompConfig {
            threshold: f64::NAN,
            clustering: true,
        };
        assert!(matches!(
            decompose(&g, &flows, &nan_threshold),
            Err(DecompError::InvalidThreshold(_))
        ));
        // Two disjoint core paths so MPTCP actually opens 2 subflows.
        let mut g2 = Graph::new();
        let s = g2.add_node(NodeKind::Server, "s");
        let t = g2.add_node(NodeKind::Server, "t");
        let e0 = g2.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g2.add_node(NodeKind::EdgeSwitch, "e1");
        let c0 = g2.add_node(NodeKind::CoreSwitch, "c0");
        let c1 = g2.add_node(NodeKind::CoreSwitch, "c1");
        g2.add_duplex_link(s, e0, 10.0);
        g2.add_duplex_link(t, e1, 10.0);
        for c in [c0, c1] {
            g2.add_duplex_link(e0, c, 10.0);
            g2.add_duplex_link(c, e1, 10.0);
        }
        let two = vec![FlowSpec {
            id: 0,
            src: s,
            dst: t,
            bytes: 1e6,
            start: 0.0,
        }];
        let mut mptcp = flowsim::MptcpProvider::new(2, true);
        let multi = decompose_with_provider(&g2, &two, &DecompConfig::default(), &mut mptcp);
        assert!(matches!(multi, Err(DecompError::MultiPathRoute { .. })));
    }

    #[test]
    fn two_runs_are_bit_identical() {
        let (g, l, r) = dumbbell(6);
        let mut flows = cross_flows(&l, &r, 2.5e7);
        for (i, f) in flows.iter_mut().enumerate() {
            f.start = i as f64 * 1e-3;
            f.bytes *= 1.0 + i as f64 * 0.1;
        }
        let a = decompose(&g, &flows, &DecompConfig::default()).expect("valid");
        let b = decompose(&g, &flows, &DecompConfig::default()).expect("valid");
        assert_eq!(a.result.records, b.result.records);
        assert_eq!(a.result.end_time.to_bits(), b.result.end_time.to_bits());
        assert_eq!(a.stats, b.stats);
    }
}
