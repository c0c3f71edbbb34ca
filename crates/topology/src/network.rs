//! The common network shape consumed by traffic, routing and simulation.

use netgraph::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// A built data center network, regardless of family.
///
/// `servers` fixes the *global server order* — the paper's workloads are
/// defined over it ("we pack **consecutive servers** into clusters", §2.1;
/// "every server sends a single flow to **its counterpart in the next
/// Pod**", §5.1), so every builder must fill it deterministically:
/// pod-major, then rack-major, then port order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DcNetwork {
    /// Human-readable network name, e.g. `"topo-1"` or `"random-graph"`.
    pub name: String,
    /// The physical graph.
    pub graph: Graph,
    /// All servers in canonical order (see type docs).
    pub servers: Vec<NodeId>,
    /// Per-pod server lists (same node ids as `servers`). Empty for flat
    /// networks without a pod notion (plain random graph).
    pub pod_servers: Vec<Vec<NodeId>>,
    /// Edge switches in id order (empty for random graphs).
    pub edges: Vec<NodeId>,
    /// Aggregation switches in id order (empty for random graphs).
    pub aggs: Vec<NodeId>,
    /// Core switches in id order (empty for flat random graphs).
    pub cores: Vec<NodeId>,
}

impl DcNetwork {
    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of pods (0 when the network has no pod structure).
    pub fn num_pods(&self) -> usize {
        self.pod_servers.len()
    }

    /// Sanity checks shared by all builders; used by tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers.is_empty() {
            return Err("network has no servers".into());
        }
        for &s in &self.servers {
            if self.graph.server_uplink_switch(s).is_none() {
                return Err(format!("server {s:?} is detached"));
            }
        }
        let pod_total: usize = self.pod_servers.iter().map(|p| p.len()).sum();
        if !self.pod_servers.is_empty() && pod_total != self.servers.len() {
            return Err(format!(
                "pod server lists cover {pod_total} servers, network has {}",
                self.servers.len()
            ));
        }
        if !netgraph::metrics::all_servers_connected(&self.graph) {
            return Err("server set is not fully connected".into());
        }
        Ok(())
    }
}
