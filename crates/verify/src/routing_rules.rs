//! Routing rules (`FT-Rxxx`): k-shortest-path sets, source-route
//! encodability, and route-cache epoch discipline.
//!
//! The path-set checks run at switch-pair granularity — exactly the
//! granularity the rule compiler installs state at (§4.2.1 Observation
//! 2) — over *every* ordered pair of ingress switches, so a blackhole
//! between any two server racks is caught even though servers are
//! spliced on afterwards.

use crate::diag::{Finding, RuleCode};
use flat_tree::FlatTreeInstance;
use flowsim::failures::FailedLinks;
use flowsim::provider::{MptcpProvider, PathProvider};
use flowsim::sim::FlowSpec;
use netgraph::{Graph, NodeId, Path, PathArena};
use routing::source_routing::{self, SourceRouteHeader, INITIAL_TTL, MAX_HOPS};
use routing::SharedRouteTable;
use std::collections::{BTreeMap, BTreeSet};

/// The ingress switches of an instance (every switch with a server),
/// with one representative server each, ascending by node id.
fn ingress_switches(inst: &FlatTreeInstance) -> BTreeMap<NodeId, NodeId> {
    let mut out = BTreeMap::new();
    for &s in &inst.net.servers {
        out.entry(inst.ingress_switch(s)).or_insert(s);
    }
    out
}

fn pair_label(g: &Graph, a: NodeId, b: NodeId) -> String {
    format!("{} -> {}", g.node(a).label, g.node(b).label)
}

/// Checks one switch-pair path set: FT-R001 (blackhole), FT-R002
/// (loop), FT-R003 (graph validity), FT-R004 (MAC hop budget).
///
/// Taking the path set as an argument (rather than computing it) keeps
/// the rule pure, so the corruption injector can feed it truncated sets.
fn path_set_findings(g: &Graph, a: NodeId, b: NodeId, paths: &[Path], k: usize) -> Vec<Finding> {
    let mut out = Vec::new();
    let loc = pair_label(g, a, b);
    if paths.is_empty() {
        out.push(Finding::new(
            RuleCode::Blackhole,
            loc,
            "k-shortest-path set is empty for a switch pair with attached servers",
        ));
        return out;
    }
    if paths.len() > k {
        out.push(Finding::new(
            RuleCode::Blackhole,
            loc.clone(),
            format!("{} paths exceed the k = {k} budget", paths.len()),
        ));
    }
    for (i, p) in paths.iter().enumerate() {
        let ploc = format!("{loc} path {i}");
        let mut seen = BTreeSet::new();
        if !p.nodes.iter().all(|&n| seen.insert(n)) {
            out.push(Finding::new(
                RuleCode::RoutingLoop,
                ploc.clone(),
                "path visits a node twice",
            ));
        }
        if let Err(e) = p.validate(g) {
            out.push(Finding::new(RuleCode::PathInvalid, ploc, e));
        }
    }
    // §4.2.2's diameter claim, statically: after splicing server
    // endpoints on, every node of a switch-level path consumes one
    // MAC-encoded hop. Deep k-shortest detours legitimately exceed the
    // budget (they stay on IP-prefix rules), but the *shortest* path of
    // every pair must be source-routable or the claimed headroom is gone.
    if let Some(shortest) = paths.first() {
        if shortest.nodes.len() > MAX_HOPS {
            out.push(Finding::new(
                RuleCode::SourceRouteBudget,
                loc,
                format!(
                    "shortest path needs {} switch hops, exceeding the {MAX_HOPS}-hop MAC budget",
                    shortest.nodes.len()
                ),
            ));
        }
    }
    out
}

/// FT-R004 (dynamic half): compiles the spliced server-level shortest
/// path into the MAC+TTL header and replays it with only the static
/// per-TTL rules; the replay must visit exactly the path's nodes.
fn source_route_replay_findings(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    switch_path: &Path,
) -> Vec<Finding> {
    let mut nodes = Vec::with_capacity(switch_path.nodes.len() + 2);
    nodes.push(src);
    nodes.extend_from_slice(&switch_path.nodes);
    nodes.push(dst);
    let loc = pair_label(g, src, dst);
    let Some(full) = Path::from_nodes(g, &nodes) else {
        return vec![Finding::new(
            RuleCode::PathInvalid,
            loc,
            "server uplinks cannot be spliced onto the switch path",
        )];
    };
    let ports = match source_routing::compile_path(g, &full) {
        Ok(p) => p,
        Err(e) => return vec![Finding::new(RuleCode::SourceRouteBudget, loc, e)],
    };
    let header = SourceRouteHeader {
        mac: source_routing::encode_ports(&ports),
        ttl: INITIAL_TTL,
    };
    let ingress = full.nodes[1];
    match source_routing::forward(g, ingress, header, ports.len()) {
        Ok(visited) if visited == full.nodes[1..] => Vec::new(),
        Ok(visited) => vec![Finding::new(
            RuleCode::SourceRouteBudget,
            loc,
            format!(
                "replayed route diverges after hop {}",
                visited
                    .iter()
                    .zip(&full.nodes[1..])
                    .take_while(|(a, b)| a == b)
                    .count()
            ),
        )],
        Err(e) => vec![Finding::new(RuleCode::SourceRouteBudget, loc, e)],
    }
}

/// FT-R005: the MPTCP provider's route cache must key on the
/// [`FailedLinks`] epoch. For a sampled server pair the rule fails a
/// link on the pair's first subflow, re-routes (the answer must avoid
/// the dead link), recovers, and re-routes again (the answer must match
/// the pre-failure routes exactly).
fn cache_epoch_findings(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Finding> {
    let loc = pair_label(g, src, dst);
    let mut provider = MptcpProvider::new(k, false);
    let mut arena = PathArena::new();
    let mut failed = FailedLinks::new(g.link_count());
    let spec = FlowSpec {
        id: 0,
        src,
        dst,
        bytes: 1.0,
        start: 0.0,
    };
    let Some(before) = provider.route(g, &mut arena, &failed, &spec) else {
        return vec![Finding::new(
            RuleCode::Blackhole,
            loc,
            "provider cannot route the pair with every link up",
        )];
    };
    let dead = arena.get(before.path_ids[0]).links[1];
    failed.fail(dead);
    let mut out = Vec::new();
    match provider.route(g, &mut arena, &failed, &spec) {
        Some(after) => {
            for &pid in &after.path_ids {
                if !failed.path_alive(&arena.get(pid).links) {
                    out.push(Finding::new(
                        RuleCode::CacheEpoch,
                        loc.clone(),
                        "post-failure route still crosses the failed link (stale cache entry)",
                    ));
                }
            }
        }
        None => out.push(Finding::new(
            RuleCode::CacheEpoch,
            loc.clone(),
            "pair became unroutable after a single cable failure",
        )),
    }
    failed.recover(dead);
    match provider.route(g, &mut arena, &failed, &spec) {
        Some(restored) if restored.path_ids == before.path_ids => {}
        Some(_) => out.push(Finding::new(
            RuleCode::CacheEpoch,
            loc,
            "post-recovery routes differ from the pre-failure routes (epoch not refreshed)",
        )),
        None => out.push(Finding::new(
            RuleCode::CacheEpoch,
            loc,
            "pair unroutable after full recovery",
        )),
    }
    out
}

/// The full routing battery for one instantiated mode with `k`
/// concurrent paths. `truncate_pairs` empties the path set of that many
/// leading switch pairs before checking — the hook the corruption
/// injector uses to prove FT-R001 fires.
pub fn check_with_truncation(
    inst: &FlatTreeInstance,
    k: usize,
    truncate_pairs: usize,
) -> Vec<Finding> {
    let g = &inst.net.graph;
    let ingress = ingress_switches(inst);
    // Precompute every ordered ingress pair's path set in parallel; the
    // FT-R checks then reuse the table instead of running Yen serially
    // pair-by-pair. Iteration order (and thus finding order) is the
    // same nested ascending order as before.
    let pairs: Vec<(NodeId, NodeId)> = ingress
        .keys()
        .flat_map(|&a| {
            ingress
                .keys()
                .filter_map(move |&b| (a != b).then_some((a, b)))
        })
        .collect();
    let rt = SharedRouteTable::build_for_pairs(g, k, &pairs);
    let mut out = Vec::new();
    let mut pair_index = 0usize;
    for (&a, &sa) in &ingress {
        for (&b, &sb) in &ingress {
            if a == b {
                continue;
            }
            let paths = rt
                .switch_paths(a, b)
                .expect("ingress pair covered by the table")
                .to_vec();
            let paths = if pair_index < truncate_pairs {
                Vec::new()
            } else {
                paths
            };
            pair_index += 1;
            out.extend(path_set_findings(g, a, b, &paths, k));
            if let Some(shortest) = paths.first() {
                out.extend(source_route_replay_findings(g, sa, sb, shortest));
            }
        }
    }
    // Epoch discipline is a per-provider property; two distant sampled
    // pairs witness it without re-running Yen for every pair.
    let servers = &inst.net.servers;
    if servers.len() >= 2 {
        out.extend(cache_epoch_findings(
            g,
            servers[0],
            servers[servers.len() - 1],
            k,
        ));
    }
    if servers.len() >= 4 {
        out.extend(cache_epoch_findings(
            g,
            servers[1],
            servers[servers.len() / 2],
            k,
        ));
    }
    out
}

/// The full routing battery (no corruption).
pub fn check(inst: &FlatTreeInstance, k: usize) -> Vec<Finding> {
    check_with_truncation(inst, k, 0)
}
