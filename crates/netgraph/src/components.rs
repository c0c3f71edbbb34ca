//! Connected-component analysis via union-find.
//!
//! The flat-tree verifier needs a cheap, allocation-light answer to "is this
//! mode's network one component?" before spending time on max-flow cuts.
//! Union-find with path halving and union by size gives near-O(n) behaviour
//! and, unlike a DFS, composes naturally with restricted node sets (e.g.
//! "switches only").

use crate::graph::{Graph, NodeId};

/// Disjoint-set forest over dense `NodeId` indices.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// A forest of `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x;
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Union-find over every link of `g`. Isolated nodes stay singletons.
pub fn components(g: &Graph) -> UnionFind {
    let mut uf = UnionFind::new(g.node_count());
    for l in g.link_ids() {
        let info = g.link(l);
        uf.union(info.src.idx(), info.dst.idx());
    }
    uf
}

/// Number of connected components among `nodes` (treating links as
/// undirected). Nodes outside the set still conduct: two servers joined only
/// through switches count as one component.
pub fn component_count_among(g: &Graph, nodes: &[NodeId]) -> usize {
    let mut uf = components(g);
    let mut reps: Vec<usize> = nodes.iter().map(|&n| uf.find(n.idx())).collect();
    reps.sort_unstable();
    reps.dedup();
    reps.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    #[test]
    fn singleton_forest() {
        let mut uf = UnionFind::new(3);
        assert!(!uf.connected(0, 2));
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
    }

    #[test]
    fn graph_components() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        let c = g.add_node(NodeKind::GenericSwitch, "c");
        let d = g.add_node(NodeKind::GenericSwitch, "d");
        g.add_duplex_link(a, b, 1.0);
        g.add_duplex_link(c, d, 1.0);
        assert_eq!(component_count_among(&g, &[a, b, c, d]), 2);
        assert_eq!(component_count_among(&g, &[a, b]), 1);
        assert_eq!(component_count_among(&g, &[a, c]), 2);
        g.add_duplex_link(b, c, 1.0);
        assert_eq!(component_count_among(&g, &[a, b, c, d]), 1);
    }

    #[test]
    fn servers_connected_through_switches() {
        let mut g = Graph::new();
        let s1 = g.add_node(NodeKind::Server, "s1");
        let s2 = g.add_node(NodeKind::Server, "s2");
        let e = g.add_node(NodeKind::EdgeSwitch, "e");
        g.add_duplex_link(s1, e, 10.0);
        g.add_duplex_link(s2, e, 10.0);
        assert_eq!(component_count_among(&g, &[s1, s2]), 1);
    }
}
