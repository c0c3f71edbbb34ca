//! Topology-level metrics: average shortest path length, diameter,
//! per-kind degree statistics.
//!
//! §3.4 of the paper profiles the flat-tree `(m, n)` server split by
//! minimizing the **average path length over all server pairs** — that is
//! [`avg_server_path_length`]. §4.2.2 sizes the source-routing header by the
//! **switch-level diameter** — that is [`switch_diameter`].

use crate::dijkstra::hop_distances;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::switch_graph::SwitchView;

/// Average hop distance over all ordered server pairs (reachable pairs
/// only). Returns `None` when no pair is reachable (fewer than two
/// servers included).
///
/// Servers are single-homed leaves (FT-G005), so only the switch-level
/// [`SwitchView`] matters: a pair on one switch is 2 hops apart and a pair
/// on switches `S != T` is `d(S, T) + 2`.
pub fn avg_server_path_length(g: &Graph) -> Option<f64> {
    SwitchView::of_graph(g).avg_server_path_length()
}

/// Longest shortest path between any two switches (hop count), ignoring
/// unreachable pairs. `None` when there are fewer than two switches.
/// Servers never transit, so this is [`SwitchView::diameter`].
pub fn switch_diameter(g: &Graph) -> Option<usize> {
    SwitchView::of_graph(g).diameter()
}

/// Whether every server can reach every other server.
pub fn all_servers_connected(g: &Graph) -> bool {
    let servers = g.servers();
    if servers.len() < 2 {
        return true;
    }
    let d = hop_distances(g, servers[0]);
    servers.iter().all(|&t| d[t.idx()] != usize::MAX)
}

/// `(min, max, mean)` out-degree of nodes of `kind`.
pub fn degree_stats(g: &Graph, kind: NodeKind) -> Option<(usize, usize, f64)> {
    let nodes: Vec<NodeId> = g.nodes_of_kind(kind);
    if nodes.is_empty() {
        return None;
    }
    let degs: Vec<usize> = nodes.iter().map(|&n| g.degree(n)).collect();
    let min = *degs.iter().min().unwrap();
    let max = *degs.iter().max().unwrap();
    let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
    Some((min, max, mean))
}

/// Number of servers attached (directly, one hop) to each node of `kind`,
/// ascending by node id. Used to check Property 1 of §3.2 (servers are
/// distributed uniformly across the core switches).
pub fn attached_server_counts(g: &Graph, kind: NodeKind) -> Vec<(NodeId, usize)> {
    g.nodes_of_kind(kind)
        .into_iter()
        .map(|n| {
            let c = g
                .neighbors(n)
                .iter()
                .filter(|&&(v, _)| g.node(v).kind == NodeKind::Server)
                .count();
            (n, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star of 3 servers on one switch plus a far server behind 2 switches.
    fn sample() -> Graph {
        let mut g = Graph::new();
        let sw0 = g.add_node(NodeKind::EdgeSwitch, "sw0");
        let sw1 = g.add_node(NodeKind::EdgeSwitch, "sw1");
        let sw2 = g.add_node(NodeKind::CoreSwitch, "sw2");
        g.add_duplex_link(sw0, sw2, 10.0);
        g.add_duplex_link(sw2, sw1, 10.0);
        for i in 0..3 {
            let s = g.add_node(NodeKind::Server, format!("s{i}"));
            g.add_duplex_link(s, sw0, 10.0);
        }
        let far = g.add_node(NodeKind::Server, "far");
        g.add_duplex_link(far, sw1, 10.0);
        g
    }

    #[test]
    fn avg_server_path_length_counts_all_pairs() {
        let g = sample();
        // 3 near servers pairwise at distance 2 (6 ordered pairs),
        // near<->far at distance 4 (6 ordered pairs).
        let apl = avg_server_path_length(&g).unwrap();
        assert!((apl - (6.0 * 2.0 + 6.0 * 4.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn detached_servers_add_no_pairs() {
        // A server with no link reaches nobody: the 12 ordered pairs of
        // `sample` stay the only ones, as a BFS per server finds.
        let mut g = sample();
        g.add_node(NodeKind::Server, "detached");
        let apl = avg_server_path_length(&g).unwrap();
        assert!((apl - (6.0 * 2.0 + 6.0 * 4.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_is_switch_level() {
        let g = sample();
        assert_eq!(switch_diameter(&g), Some(2)); // sw0 -> sw2 -> sw1
    }

    #[test]
    fn connectivity_detects_partition() {
        let mut g = sample();
        assert!(all_servers_connected(&g));
        let lonely = g.add_node(NodeKind::Server, "lonely");
        let island = g.add_node(NodeKind::EdgeSwitch, "island");
        g.add_duplex_link(lonely, island, 10.0);
        assert!(!all_servers_connected(&g));
    }

    #[test]
    fn degree_and_attachment_stats() {
        let g = sample();
        let (min, max, mean) = degree_stats(&g, NodeKind::EdgeSwitch).unwrap();
        assert_eq!(min, 2); // sw1: sw2 + far
        assert_eq!(max, 4); // sw0: sw2 + 3 servers
        assert!((mean - 3.0).abs() < 1e-12);
        let counts = attached_server_counts(&g, NodeKind::EdgeSwitch);
        assert_eq!(
            counts.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![3, 1]
        );
    }

    #[test]
    fn empty_cases() {
        let g = Graph::new();
        assert!(avg_server_path_length(&g).is_none());
        assert!(switch_diameter(&g).is_none());
        assert!(all_servers_connected(&g));
        assert!(degree_stats(&g, NodeKind::CoreSwitch).is_none());
    }
}
