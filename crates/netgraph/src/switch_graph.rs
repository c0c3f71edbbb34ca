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
//! [`crate::ecmp::EcmpRouter`]. Path length may run it from one source
//! per orbit of an automorphism that the view has certified.

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

/// Reusable buffers of [`SwitchView::avg_server_path_length_under`]: the
/// certificate's counting array, the weighted sources and the BFS lanes.
/// One value serves every candidate view a caller scores.
#[derive(Debug, Clone, Default)]
pub struct Orbits {
    count: Vec<u32>,
    /// `(switch, servers × orbit size)` of each BFS source.
    sources: Vec<(u32, usize)>,
    lanes: Lanes,
}

impl Orbits {
    /// BFS sources of the last scoring: one per orbit when its map was
    /// certified, every server-bearing switch otherwise.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }
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
    /// see [`crate::metrics::avg_server_path_length`]. Scores every
    /// server-bearing switch as its own source.
    pub fn avg_server_path_length(&self) -> Option<f64> {
        self.avg_server_path_length_under(&[], &mut Orbits::default())
    }

    /// [`Self::avg_server_path_length`] from one BFS source per orbit of
    /// `phi`, a candidate automorphism that maps switch `v` to `phi[v]`.
    ///
    /// `phi` is tried only when the server-bearing switches fill more
    /// than one 64-lane word (below that it cannot save a BFS), and used
    /// only if an exact O(V + E) check certifies it as an automorphism:
    /// a bijection that keeps every switch's server count and carries
    /// each `incoming(v)` multiset onto `incoming(phi[v])`. Otherwise
    /// every source is an orbit of its own. Sources of one orbit have the same
    /// distance sums, so a representative's lane carries the weight
    /// servers × orbit size, and a switch `v` newly reached at distance
    /// `d` by `r` lanes of weight `w` adds `w · r · servers(v)` pairs of
    /// `d + 2` hops. The totals stay integers, so the result is
    /// bit-identical to a BFS per server either way.
    pub fn avg_server_path_length_under(&self, phi: &[u32], orbits: &mut Orbits) -> Option<f64> {
        let servers = &self.servers;
        let Orbits {
            count,
            sources,
            lanes,
        } = orbits;
        sources.clear();
        sources.extend(
            (0..self.len())
                .filter(|&s| servers[s] > 0)
                .map(|s| (s as u32, servers[s])),
        );
        if sources.len() > 64 && self.is_automorphism(phi, count) {
            // `count` is all zero again; it marks the switches already in
            // an orbit, each represented by its lowest index.
            sources.retain_mut(|(s, weight)| {
                let mut size = 0;
                let mut v = *s as usize;
                while count[v] == 0 {
                    count[v] = 1;
                    size += 1;
                    v = phi[v] as usize;
                }
                *weight *= size;
                size > 0
            });
        }
        sources.sort_by_key(|&(_, weight)| weight);

        let mut total = 0usize;
        let mut pairs = 0usize;
        let mut ids = [0u32; 64];
        let mut classes: Vec<(u64, usize)> = Vec::new();
        for batch in sources.chunks(64) {
            classes.clear();
            for (lane, &(s, weight)) in batch.iter().enumerate() {
                ids[lane] = s;
                match classes.last_mut() {
                    Some((mask, w)) if *w == weight => *mask |= 1 << lane,
                    _ => classes.push((1 << lane, weight)),
                }
                // Same switch: each source's other servers, 2 hops each.
                let same = weight * (servers[s as usize] - 1);
                total += 2 * same;
                pairs += same;
            }
            self.bfs_levels(&ids[..batch.len()], lanes, |hops, v, new| {
                let weighted: usize = classes
                    .iter()
                    .map(|&(mask, w)| w * (new & mask).count_ones() as usize)
                    .sum();
                let reached = weighted * servers[v];
                total += reached * (hops + 2);
                pairs += reached;
            });
        }
        (pairs > 0).then(|| total as f64 / pairs as f64)
    }

    /// Whether `phi` is an automorphism of the view, as
    /// [`Self::avg_server_path_length_under`] states it; then
    /// `d(s, v) = d(phi[s], phi[v])` for every pair. O(V + E) with the
    /// counting array `count`, which is left all zero on success.
    fn is_automorphism(&self, phi: &[u32], count: &mut Vec<u32>) -> bool {
        let n = self.len();
        if phi.len() != n {
            return false;
        }
        count.clear();
        count.resize(n, 0);
        for &w in phi {
            match count.get_mut(w as usize) {
                Some(c) if *c == 0 => *c = 1,
                _ => return false,
            }
        }
        count.fill(0);
        for (v, &w) in phi.iter().enumerate() {
            let w = w as usize;
            let (mine, theirs) = (self.incoming(v), self.incoming(w));
            if self.servers[v] != self.servers[w] || mine.len() != theirs.len() {
                return false;
            }
            for &u in theirs {
                count[u as usize] += 1;
            }
            // Equal lengths and no count below zero: every count is back
            // to zero, so the multisets match.
            for &u in mine {
                let c = &mut count[phi[u as usize] as usize];
                if *c == 0 {
                    return false;
                }
                *c -= 1;
            }
        }
        true
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
