//! Max-flow / min-cut in integer cable units (Edmonds–Karp).
//!
//! The verifier checks sampled pairwise min-cuts against lower bounds derived
//! from the Clos parameters. Working in *cable units* (link capacity divided
//! by the per-cable rate) keeps the arithmetic exact: a flat-tree link that
//! aggregates `c` parallel cables contributes capacity `c`, so every cut
//! value is an integer and byte-identical across runs.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct Arc {
    to: u32,
    cap: u64,
    /// Index of the paired reverse arc in `arcs`.
    rev: u32,
}

/// Residual flow network built once per graph, reusable across s–t queries.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// `head[n]` lists arc indices leaving node `n`.
    head: Vec<Vec<u32>>,
    arcs: Vec<Arc>,
    /// Initial capacities, so the residual state can be reset between queries.
    caps: Vec<u64>,
}

impl FlowNetwork {
    /// Builds the residual network of `g`, converting each directed link's
    /// capacity to integer cable units via `unit_gbps` (rounded to nearest).
    ///
    /// # Panics
    /// Panics if `unit_gbps` is not strictly positive.
    pub fn in_cable_units(g: &Graph, unit_gbps: f64) -> Self {
        assert!(unit_gbps > 0.0, "cable unit must be positive");
        let mut net = Self {
            head: vec![Vec::new(); g.node_count()],
            arcs: Vec::with_capacity(g.link_count() * 2),
            caps: Vec::with_capacity(g.link_count() * 2),
        };
        for l in g.link_ids() {
            let info = g.link(l);
            let cables = (info.capacity_gbps / unit_gbps).round() as u64;
            net.add_arc(info.src, info.dst, cables);
        }
        net
    }

    fn add_arc(&mut self, src: NodeId, dst: NodeId, cap: u64) {
        let fwd = self.arcs.len() as u32;
        let bwd = fwd + 1;
        self.arcs.push(Arc {
            to: dst.0,
            cap,
            rev: bwd,
        });
        self.arcs.push(Arc {
            to: src.0,
            cap: 0,
            rev: fwd,
        });
        self.caps.push(cap);
        self.caps.push(0);
        self.head[src.idx()].push(fwd);
        self.head[dst.idx()].push(bwd);
    }

    fn reset(&mut self) {
        for (arc, &cap) in self.arcs.iter_mut().zip(&self.caps) {
            arc.cap = cap;
        }
    }

    /// Max flow (= min cut, by duality) from `s` to `t` in cable units.
    ///
    /// Resets the residual state first, so queries are independent.
    pub fn min_cut(&mut self, s: NodeId, t: NodeId) -> u64 {
        assert_ne!(s, t, "min-cut endpoints must differ");
        self.reset();
        let n = self.head.len();
        let mut flow = 0u64;
        // parent[v] = arc index used to reach v in the BFS, u32::MAX = unseen.
        let mut parent = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        loop {
            parent.iter_mut().for_each(|p| *p = u32::MAX);
            parent[s.idx()] = u32::MAX - 1;
            queue.clear();
            queue.push_back(s.0);
            'bfs: while let Some(u) = queue.pop_front() {
                for &ai in &self.head[u as usize] {
                    let arc = &self.arcs[ai as usize];
                    if arc.cap > 0 && parent[arc.to as usize] == u32::MAX {
                        parent[arc.to as usize] = ai;
                        if arc.to == t.0 {
                            break 'bfs;
                        }
                        queue.push_back(arc.to);
                    }
                }
            }
            if parent[t.idx()] == u32::MAX {
                return flow;
            }
            // Find the bottleneck along the augmenting path, then push it.
            let mut bottleneck = u64::MAX;
            let mut v = t.0;
            while v != s.0 {
                let ai = parent[v as usize] as usize;
                bottleneck = bottleneck.min(self.arcs[ai].cap);
                v = self.arcs[self.arcs[ai].rev as usize].to;
            }
            let mut v = t.0;
            while v != s.0 {
                let ai = parent[v as usize] as usize;
                self.arcs[ai].cap -= bottleneck;
                let rev = self.arcs[ai].rev as usize;
                self.arcs[rev].cap += bottleneck;
                v = self.arcs[rev].to;
            }
            flow += bottleneck;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// Two switches joined by 3 parallel cables, modeled as one aggregated
    /// link of capacity 30 over 10 Gbps cables.
    #[test]
    fn aggregated_link_counts_cables() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        g.add_duplex_link(a, b, 30.0);
        assert_eq!(FlowNetwork::in_cable_units(&g, 10.0).min_cut(a, b), 3);
    }

    /// Diamond: s -> {x, y} -> t, unit capacities. Cut = 2.
    #[test]
    fn diamond_cut_is_two() {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::GenericSwitch, "s");
        let x = g.add_node(NodeKind::GenericSwitch, "x");
        let y = g.add_node(NodeKind::GenericSwitch, "y");
        let t = g.add_node(NodeKind::GenericSwitch, "t");
        for (u, v) in [(s, x), (s, y), (x, t), (y, t)] {
            g.add_duplex_link(u, v, 10.0);
        }
        assert_eq!(FlowNetwork::in_cable_units(&g, 10.0).min_cut(s, t), 2);
    }

    /// A chain bottlenecks at its thinnest link.
    #[test]
    fn chain_bottleneck() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        let c = g.add_node(NodeKind::GenericSwitch, "c");
        g.add_duplex_link(a, b, 40.0);
        g.add_duplex_link(b, c, 10.0);
        assert_eq!(FlowNetwork::in_cable_units(&g, 10.0).min_cut(a, c), 1);
    }

    /// Disconnected nodes have a zero cut.
    #[test]
    fn disconnected_cut_is_zero() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        assert_eq!(FlowNetwork::in_cable_units(&g, 10.0).min_cut(a, b), 0);
    }

    /// Queries on one `FlowNetwork` are independent (state resets).
    #[test]
    fn repeated_queries_reset() {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::GenericSwitch, "s");
        let x = g.add_node(NodeKind::GenericSwitch, "x");
        let t = g.add_node(NodeKind::GenericSwitch, "t");
        g.add_duplex_link(s, x, 20.0);
        g.add_duplex_link(x, t, 10.0);
        let mut net = FlowNetwork::in_cable_units(&g, 10.0);
        assert_eq!(net.min_cut(s, t), 1);
        assert_eq!(net.min_cut(s, t), 1);
        assert_eq!(net.min_cut(s, x), 2);
    }
}
