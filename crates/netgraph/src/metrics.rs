//! Topology-level metrics: average shortest path length, diameter,
//! per-kind degree statistics.
//!
//! §3.4 of the paper profiles the flat-tree `(m, n)` server split by
//! minimizing the **average path length over all server pairs** — that is
//! [`avg_server_path_length`]. §4.2.2 sizes the source-routing header by the
//! **switch-level diameter** — that is [`switch_diameter`].

use crate::dijkstra::hop_distances;
use crate::graph::{Graph, NodeId, NodeKind};

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

/// The switch-level input of the path-length kernel: an incoming-link
/// CSR over dense switch indices `0..n` plus the server count of each
/// switch. [`SwitchView::rebuild`] reuses the buffers, so a caller
/// scoring many candidate topologies allocates them once.
#[derive(Debug, Clone, Default)]
pub struct SwitchView {
    /// The switches with a link into `v` are `from[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    from: Vec<u32>,
    servers: Vec<usize>,
}

/// One wire fed to [`SwitchView::rebuild`].
#[derive(Debug, Clone, Copy)]
pub enum Wire {
    /// A directed link from switch `from` into switch `to`.
    Link {
        /// Tail switch.
        from: usize,
        /// Head switch.
        to: usize,
    },
    /// A server whose uplink is `switch`.
    Server {
        /// The server's uplink switch.
        switch: usize,
    },
}

impl SwitchView {
    /// The view of a graph: switches numbered in node-id order, each
    /// server counted on its uplink switch. A server with no switch
    /// uplink reaches no other server and is left out.
    pub fn of_graph(g: &Graph) -> Self {
        const NONE: usize = usize::MAX;
        let switches = g.switches();
        let mut slot = vec![NONE; g.node_count()];
        for (i, &sw) in switches.iter().enumerate() {
            slot[sw.idx()] = i;
        }
        let servers = g.servers();
        let mut view = SwitchView::default();
        view.rebuild(switches.len(), |wire| {
            for (u, &sw) in switches.iter().enumerate() {
                for &(v, _) in g.neighbors(sw) {
                    if slot[v.idx()] != NONE {
                        wire(Wire::Link {
                            from: u,
                            to: slot[v.idx()],
                        });
                    }
                }
            }
            for &s in &servers {
                if let Some(sw) = g.server_uplink_switch(s) {
                    if slot[sw.idx()] != NONE {
                        wire(Wire::Server {
                            switch: slot[sw.idx()],
                        });
                    }
                }
            }
        });
        view
    }

    /// Refills the view over `switches` switches. `wires` is called
    /// twice, once to count and once to fill, and must emit the same
    /// wires both times; parallel links may repeat.
    pub fn rebuild(&mut self, switches: usize, mut wires: impl FnMut(&mut dyn FnMut(Wire))) {
        let (start, from, servers) = (&mut self.start, &mut self.from, &mut self.servers);
        start.clear();
        start.resize(switches + 1, 0);
        servers.clear();
        servers.resize(switches, 0);
        wires(&mut |wire| match wire {
            Wire::Link { to, .. } => start[to] += 1,
            Wire::Server { switch } => servers[switch] += 1,
        });
        // Prefix sums leave `start[v]` at the end of `v`'s range; filling
        // each range back to front moves it to the range's start.
        for v in 1..=switches {
            start[v] += start[v - 1];
        }
        from.clear();
        from.resize(start[switches], 0);
        wires(&mut |wire| {
            if let Wire::Link { from: u, to } = wire {
                start[to] -= 1;
                from[start[to]] = u as u32;
            }
        });
    }

    /// Servers attached to each switch.
    pub fn servers(&self) -> &[usize] {
        &self.servers
    }

    /// The switches with a link into `v`, one entry per parallel link.
    pub fn incoming(&self, v: usize) -> &[u32] {
        &self.from[self.start[v]..self.start[v + 1]]
    }

    /// Average hop distance over all ordered server pairs of the view;
    /// see [`avg_server_path_length`].
    ///
    /// The BFS runs 64 source switches per `u64` word: bit `i` of
    /// `seen[v]` says source `i` has reached `v`, and each level is one
    /// pull sweep over the incoming-link CSR. Sources are batched by
    /// server count `w`, so a switch `v` newly reached by `r` sources at
    /// distance `d` adds `w · r · servers(v)` pairs of `d + 2` hops. The
    /// totals stay integers, so the result is bit-identical to a BFS per
    /// server.
    pub fn avg_server_path_length(&self) -> Option<f64> {
        word_parallel_apl(&self.start, &self.from, &self.servers)
    }
}

/// The kernel of [`SwitchView::avg_server_path_length`].
fn word_parallel_apl(start: &[usize], from: &[u32], servers: &[usize]) -> Option<f64> {
    let n = servers.len();
    let mut sources: Vec<u32> = (0..n as u32).filter(|&s| servers[s as usize] > 0).collect();
    sources.sort_by_key(|&s| servers[s as usize]);

    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut total = 0usize;
    let mut pairs = 0usize;
    let batches = sources
        .chunk_by(|&a, &b| servers[a as usize] == servers[b as usize])
        .flat_map(|group| group.chunks(64));
    for batch in batches {
        let w = servers[batch[0] as usize];
        // Same switch: each source's other servers, 2 hops each.
        let same = batch.len() * w * (w - 1);
        total += 2 * same;
        pairs += same;
        seen.fill(0);
        frontier.fill(0);
        for (bit, &s) in batch.iter().enumerate() {
            seen[s as usize] = 1 << bit;
            frontier[s as usize] = 1 << bit;
        }
        for hops in 3.. {
            let mut grew = false;
            let mut reached = 0usize;
            for v in 0..n {
                let pulled = from[start[v]..start[v + 1]]
                    .iter()
                    .fold(0, |acc, &u| acc | frontier[u as usize]);
                let new = pulled & !seen[v];
                seen[v] |= new;
                next[v] = new;
                grew |= new != 0;
                reached += new.count_ones() as usize * servers[v];
            }
            if !grew {
                break;
            }
            total += w * reached * hops;
            pairs += w * reached;
            std::mem::swap(&mut frontier, &mut next);
        }
    }
    (pairs > 0).then(|| total as f64 / pairs as f64)
}

/// Longest shortest path between any two switches (hop count), ignoring
/// unreachable pairs. `None` when there are fewer than two switches.
pub fn switch_diameter(g: &Graph) -> Option<usize> {
    let sw = g.switches();
    if sw.len() < 2 {
        return None;
    }
    let mut best = None;
    for &s in &sw {
        let d = hop_distances(g, s);
        for &t in &sw {
            if t != s && d[t.idx()] != usize::MAX {
                best = Some(best.map_or(d[t.idx()], |b: usize| b.max(d[t.idx()])));
            }
        }
    }
    best
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
