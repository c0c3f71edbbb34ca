//! The switch-level graph and its word-parallel BFS kernel.
//!
//! Servers are single-homed leaves (FT-G005), so every server-pair
//! question reduces to a switch-pair one: a pair on one switch is 2 hops
//! apart, and a pair on switches `S != T` is `d(S, T) + 2`. A
//! [`SwitchView`] holds just that reduced input — an incoming-link CSR
//! over dense switch indices plus the server count of each switch — and
//! its level loop (`SwitchView::bfs_levels`) runs one BFS from up to 64
//! source switches at once (Akiba, Iwata and Yoshida, SIGMOD 2013): bit
//! `i` of `seen[v]` says source `i` has reached `v`, and each level is
//! one pull sweep over the CSR.
//!
//! Three consumers share that one level loop: the average server path
//! length that §3.4 profiling minimizes
//! ([`SwitchView::avg_server_path_length`]), the switch diameter
//! ([`SwitchView::diameter`]), and the per-egress hop distances of
//! [`crate::ecmp::EcmpRouter`].

use crate::graph::Graph;

/// The switch-level input of the BFS kernel: an incoming-link CSR over
/// dense switch indices `0..n` plus the server count of each switch.
/// [`SwitchView::rebuild`] reuses the buffers, so a caller scoring many
/// candidate topologies allocates them once.
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

/// Reusable bit-lane buffers of [`SwitchView::bfs_levels`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Lanes {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
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

    /// Number of switches.
    fn len(&self) -> usize {
        self.servers.len()
    }

    /// Servers attached to each switch.
    pub fn servers(&self) -> &[usize] {
        &self.servers
    }

    /// The switches with a link into `v`, one entry per parallel link.
    pub fn incoming(&self, v: usize) -> &[u32] {
        &self.from[self.start[v]..self.start[v + 1]]
    }

    /// The level loop every consumer of the view shares: a BFS along the
    /// links from up to 64 `sources` at once, source `i` on bit `i`.
    ///
    /// Level by level (`hops` = 1, 2, …), calls `reach(hops, v, lanes)`
    /// for each switch `v` that the sources on `lanes` first reach at
    /// `hops`; a source itself is at 0 hops and is not reported. Returns
    /// when a level reaches no new switch.
    pub(crate) fn bfs_levels(
        &self,
        sources: &[u32],
        lanes: &mut Lanes,
        mut reach: impl FnMut(usize, usize, u64),
    ) {
        assert!(sources.len() <= 64, "one BFS runs at most 64 sources");
        let n = self.len();
        let Lanes {
            seen,
            frontier,
            next,
        } = lanes;
        for buf in [&mut *seen, &mut *frontier, &mut *next] {
            buf.clear();
            buf.resize(n, 0);
        }
        for (bit, &s) in sources.iter().enumerate() {
            seen[s as usize] |= 1 << bit;
            frontier[s as usize] |= 1 << bit;
        }
        for hops in 1.. {
            let mut grew = false;
            for v in 0..n {
                let pulled = self
                    .incoming(v)
                    .iter()
                    .fold(0, |acc, &u| acc | frontier[u as usize]);
                let new = pulled & !seen[v];
                seen[v] |= new;
                next[v] = new;
                if new != 0 {
                    grew = true;
                    reach(hops, v, new);
                }
            }
            if !grew {
                break;
            }
            std::mem::swap(frontier, next);
        }
    }

    /// Average hop distance over all ordered server pairs of the view;
    /// see [`crate::metrics::avg_server_path_length`].
    ///
    /// Sources are batched by server count `w`, so a switch `v` newly
    /// reached by `r` sources at distance `d` adds `w · r · servers(v)`
    /// pairs of `d + 2` hops. The totals stay integers, so the result is
    /// bit-identical to a BFS per server.
    pub fn avg_server_path_length(&self) -> Option<f64> {
        let servers = &self.servers;
        let mut sources: Vec<u32> = (0..self.len() as u32)
            .filter(|&s| servers[s as usize] > 0)
            .collect();
        sources.sort_by_key(|&s| servers[s as usize]);

        let mut lanes = Lanes::default();
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
            self.bfs_levels(batch, &mut lanes, |hops, v, new| {
                let reached = w * new.count_ones() as usize * servers[v];
                total += reached * (hops + 2);
                pairs += reached;
            });
        }
        (pairs > 0).then(|| total as f64 / pairs as f64)
    }

    /// Longest shortest path between two switches of the view (hop
    /// count), ignoring unreachable pairs: the deepest level of a BFS
    /// from every switch, 64 sources per sweep. `None` when no switch
    /// reaches another.
    pub fn diameter(&self) -> Option<usize> {
        let all: Vec<u32> = (0..self.len() as u32).collect();
        let mut lanes = Lanes::default();
        let mut deepest = None;
        for batch in all.chunks(64) {
            self.bfs_levels(batch, &mut lanes, |hops, _, _| {
                deepest = deepest.max(Some(hops));
            });
        }
        deepest
    }
}
