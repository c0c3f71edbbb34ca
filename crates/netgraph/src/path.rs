//! Path representation shared by all routing and simulation layers.

use crate::graph::{Graph, LinkId, NodeId};
use serde::{Deserialize, Serialize};

/// A simple (loop-free) path through the network.
///
/// Invariant: `links.len() == nodes.len() - 1`, `links[i]` connects
/// `nodes[i]` to `nodes[i + 1]`, and no node repeats. Construct via
/// [`Path::from_nodes`] (which validates against a graph) or trust the
/// output of the algorithms in this crate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    /// Visited nodes, endpoints included.
    pub nodes: Vec<NodeId>,
    /// Directed links between consecutive nodes.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Builds a path from a node sequence, resolving links in `g`.
    ///
    /// Returns `None` if any consecutive pair is not connected or the node
    /// sequence repeats a node.
    pub fn from_nodes(g: &Graph, nodes: &[NodeId]) -> Option<Path> {
        if nodes.is_empty() {
            return None;
        }
        let mut seen = std::collections::HashSet::with_capacity(nodes.len());
        for &n in nodes {
            if !seen.insert(n) {
                return None;
            }
        }
        let mut links = Vec::with_capacity(nodes.len().saturating_sub(1));
        for w in nodes.windows(2) {
            links.push(g.find_link(w[0], w[1])?);
        }
        Some(Path {
            nodes: nodes.to_vec(),
            links,
        })
    }

    /// Number of hops (links).
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True for a single-node path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// First node.
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Validates the structural invariant against a graph; used in tests
    /// and debug assertions.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty node list".into());
        }
        if self.links.len() + 1 != self.nodes.len() {
            return Err(format!(
                "length mismatch: {} nodes vs {} links",
                self.nodes.len(),
                self.links.len()
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for &n in &self.nodes {
            if !seen.insert(n) {
                return Err(format!("node {n:?} repeats"));
            }
        }
        for (i, &l) in self.links.iter().enumerate() {
            let info = g.link(l);
            if info.src != self.nodes[i] || info.dst != self.nodes[i + 1] {
                return Err(format!("link {l:?} does not connect hop {i}"));
            }
        }
        // Transit nodes must be switches.
        for &n in &self.nodes[1..self.nodes.len().saturating_sub(1)] {
            if !g.node(n).kind.is_transit() {
                return Err(format!("path transits non-switch {n:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn line() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::Server, "s");
        let a = g.add_node(NodeKind::EdgeSwitch, "a");
        let b = g.add_node(NodeKind::CoreSwitch, "b");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, a, 10.0);
        g.add_duplex_link(a, b, 40.0);
        g.add_duplex_link(b, t, 10.0);
        (g, vec![s, a, b, t])
    }

    #[test]
    fn from_nodes_resolves_links() {
        let (g, ns) = line();
        let p = Path::from_nodes(&g, &ns).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.src(), ns[0]);
        assert_eq!(p.dst(), ns[3]);
        p.validate(&g).unwrap();
    }

    #[test]
    fn from_nodes_rejects_disconnected() {
        let (g, ns) = line();
        assert!(Path::from_nodes(&g, &[ns[0], ns[2]]).is_none());
    }

    #[test]
    fn from_nodes_rejects_repeats() {
        let (g, ns) = line();
        assert!(Path::from_nodes(&g, &[ns[0], ns[1], ns[0]]).is_none());
    }

    #[test]
    fn validate_catches_server_transit() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::EdgeSwitch, "a");
        let s = g.add_node(NodeKind::Server, "s");
        let b = g.add_node(NodeKind::EdgeSwitch, "b");
        g.add_duplex_link(a, s, 10.0);
        g.add_duplex_link(s, b, 10.0);
        // Hand-build to bypass from_nodes checks on kinds (it allows this,
        // validate must catch it).
        let p = Path::from_nodes(&g, &[a, s, b]).unwrap();
        assert!(p.validate(&g).is_err());
    }
}
