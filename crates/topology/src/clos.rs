//! Generic Clos (multi-rooted tree) networks, parameterized as in Table 2
//! of the paper, plus the classic `fat_tree(k)` special case (Table 1).
//!
//! ## Parameter model
//!
//! A pod has `d = edges_per_pod` edge switches and `a = aggs_per_pod`
//! aggregation switches with `r = d / a` (the paper assumes `d` is a
//! multiple of `a`, §3.1). Every edge switch hosts `servers_per_edge`
//! servers and spreads `edge_uplinks` uplinks evenly over the pod's
//! aggregation switches; parallel (edge, agg) cables are modeled as a
//! single duplex link of aggregated capacity, which is equivalent for
//! fluid-flow simulation. Every aggregation switch has `agg_uplinks = h`
//! core-facing ports.
//!
//! Pod–core wiring follows Figure 4a: aggregation switch `i` of *every*
//! pod connects its `h` uplinks to core switches `C[(i*h + t) mod C]`,
//! `t = 0..h`. The number of cores `C` must divide the per-pod core link
//! count `a * h` so that the wrap-around lands evenly.
//!
//! ## Table 2 note
//!
//! The machine-extracted Table 2 row for topo-6 prints the aggregation
//! switch as `(32,16)` which contradicts its own `OR = 2` column (and the
//! core port budget). The self-consistent reading — used here — is
//! `AS 64 × (16 up, 32 down)`, i.e. "replace topo-5's aggregation and core
//! switches with half as many, twice as large" exactly as the prose says.

use crate::network::DcNetwork;
use netgraph::{Graph, NodeId, NodeKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of a generic Clos network (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosParams {
    /// Number of pods.
    pub pods: usize,
    /// Edge switches per pod (`d`).
    pub edges_per_pod: usize,
    /// Aggregation switches per pod (`a`); must divide `edges_per_pod`.
    pub aggs_per_pod: usize,
    /// Servers attached to each edge switch (edge downlinks).
    pub servers_per_edge: usize,
    /// Uplinks per edge switch; must be a multiple of `aggs_per_pod`.
    pub edge_uplinks: usize,
    /// Core-facing uplinks per aggregation switch (`h`).
    pub agg_uplinks: usize,
    /// Number of core switches (`C`); must divide `aggs_per_pod * agg_uplinks`.
    pub num_cores: usize,
    /// Capacity of one physical link, in Gbps (the paper uses 10 Gbps).
    pub link_gbps: f64,
}

impl ClosParams {
    /// `r = d / a` (§3.1).
    pub fn r(&self) -> usize {
        self.edges_per_pod / self.aggs_per_pod
    }

    /// Core connectors per edge-switch share, `h / r` (§3.2).
    pub fn h_over_r(&self) -> usize {
        self.agg_uplinks / self.r()
    }

    /// Total server count.
    pub fn total_servers(&self) -> usize {
        self.pods * self.edges_per_pod * self.servers_per_edge
    }

    /// Oversubscription ratio at the edge layer (downlinks / uplinks).
    pub fn edge_oversubscription(&self) -> f64 {
        self.servers_per_edge as f64 / self.edge_uplinks as f64
    }

    /// Oversubscription ratio at the aggregation layer.
    pub fn agg_oversubscription(&self) -> f64 {
        let downlinks = self.edges_per_pod * self.edge_uplinks / self.aggs_per_pod;
        downlinks as f64 / self.agg_uplinks as f64
    }

    /// Validates divisibility constraints; all builders call this.
    pub fn validate(&self) -> Result<(), String> {
        if self.pods == 0 || self.edges_per_pod == 0 || self.aggs_per_pod == 0 {
            return Err("pods, edges_per_pod, aggs_per_pod must be positive".into());
        }
        if !self.edges_per_pod.is_multiple_of(self.aggs_per_pod) {
            return Err("edges_per_pod must be a multiple of aggs_per_pod (§3.1)".into());
        }
        if self.edge_uplinks == 0 || !self.edge_uplinks.is_multiple_of(self.aggs_per_pod) {
            return Err("edge_uplinks must be a positive multiple of aggs_per_pod".into());
        }
        if self.agg_uplinks == 0 || !self.agg_uplinks.is_multiple_of(self.r()) {
            return Err("agg_uplinks must be a positive multiple of r = d/a (§3.2)".into());
        }
        if self.num_cores == 0
            || !(self.aggs_per_pod * self.agg_uplinks).is_multiple_of(self.num_cores)
        {
            return Err("num_cores must divide aggs_per_pod * agg_uplinks".into());
        }
        if self.servers_per_edge == 0 {
            return Err("servers_per_edge must be positive".into());
        }
        if self.link_gbps <= 0.0 || self.link_gbps.is_nan() {
            return Err("link_gbps must be positive".into());
        }
        Ok(())
    }

    /// topo-1 of Table 2: the baseline, 4:1 oversubscribed at the edge,
    /// 4096 servers.
    fn topo1() -> Self {
        Self {
            pods: 16,
            edges_per_pod: 8,
            aggs_per_pod: 8,
            servers_per_edge: 32,
            edge_uplinks: 8,
            agg_uplinks: 8,
            num_cores: 64,
            link_gbps: 10.0,
        }
    }

    /// topo-2: proportional down-scale of topo-1 (1728 servers).
    fn topo2() -> Self {
        Self {
            pods: 12,
            edges_per_pod: 6,
            aggs_per_pod: 6,
            servers_per_edge: 24,
            edge_uplinks: 6,
            agg_uplinks: 6,
            num_cores: 36,
            link_gbps: 10.0,
        }
    }

    /// topo-3: twice the edge oversubscription of topo-1 (8192 servers).
    fn topo3() -> Self {
        Self {
            servers_per_edge: 64,
            ..Self::topo1()
        }
    }

    /// topo-4: topo-1 with fewer, larger aggregation and core switches.
    fn topo4() -> Self {
        Self {
            pods: 8,
            edges_per_pod: 16,
            aggs_per_pod: 8,
            servers_per_edge: 32,
            edge_uplinks: 8,
            agg_uplinks: 16,
            num_cores: 32,
            link_gbps: 10.0,
        }
    }

    /// topo-5: half of topo-1's oversubscription moved to the aggregation
    /// layer (2:1 at edge, 2:1 at agg).
    fn topo5() -> Self {
        Self {
            edge_uplinks: 16,
            ..Self::topo1()
        }
    }

    /// topo-6: topo-5 with larger aggregation and core switches (see the
    /// module-level Table 2 note).
    fn topo6() -> Self {
        Self {
            pods: 16,
            edges_per_pod: 8,
            aggs_per_pod: 4,
            servers_per_edge: 32,
            edge_uplinks: 16,
            agg_uplinks: 16,
            num_cores: 32,
            link_gbps: 10.0,
        }
    }

    /// Table 2 row by 1-based index (1..=6).
    pub fn topo(i: usize) -> Self {
        match i {
            1 => Self::topo1(),
            2 => Self::topo2(),
            3 => Self::topo3(),
            4 => Self::topo4(),
            5 => Self::topo5(),
            6 => Self::topo6(),
            _ => panic!("Table 2 defines topo-1 .. topo-6, got topo-{i}"),
        }
    }

    /// A laptop-scale stand-in for topo-1 that preserves its *ratios*
    /// (uniform layers, 4:1 edge oversubscription): 4 pods, 64 servers.
    /// Experiment binaries accept `--full` to use the real Table 2 sizes.
    pub fn mini() -> Self {
        Self {
            pods: 4,
            edges_per_pod: 4,
            aggs_per_pod: 4,
            servers_per_edge: 4,
            edge_uplinks: 4,
            agg_uplinks: 4,
            num_cores: 16,
            link_gbps: 10.0,
        }
    }

    /// Builds the Clos network.
    pub fn build(&self) -> ClosNetwork {
        self.validate().expect("invalid ClosParams");
        let mut g = Graph::new();
        let cores: Vec<NodeId> = (0..self.num_cores)
            .map(|i| g.add_node(NodeKind::CoreSwitch, format!("core{i}")))
            .collect();

        let mut pod_edges = Vec::with_capacity(self.pods);
        let mut pod_aggs = Vec::with_capacity(self.pods);
        let mut pod_servers = Vec::with_capacity(self.pods);
        let mut edge_servers: Vec<Vec<NodeId>> = Vec::new();
        // Switch-switch cable multiplicities, aggregated into capacity.
        let mut mult: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();

        for p in 0..self.pods {
            let edges: Vec<NodeId> = (0..self.edges_per_pod)
                .map(|j| g.add_node(NodeKind::EdgeSwitch, format!("pod{p}/edge{j}")))
                .collect();
            let aggs: Vec<NodeId> = (0..self.aggs_per_pod)
                .map(|i| g.add_node(NodeKind::AggSwitch, format!("pod{p}/agg{i}")))
                .collect();
            let mut servers_in_pod = Vec::new();
            for (j, &e) in edges.iter().enumerate() {
                let mut on_edge = Vec::with_capacity(self.servers_per_edge);
                for q in 0..self.servers_per_edge {
                    let s = g.add_node(NodeKind::Server, format!("pod{p}/edge{j}/srv{q}"));
                    g.add_duplex_link(s, e, self.link_gbps);
                    servers_in_pod.push(s);
                    on_edge.push(s);
                }
                edge_servers.push(on_edge);
                // Edge -> agg: spread uplinks evenly.
                let per_pair = self.edge_uplinks / self.aggs_per_pod;
                for &a in &aggs {
                    *mult.entry((e, a)).or_insert(0) += per_pair;
                }
            }
            // Agg -> core: Figure 4a wiring, wrapped modulo num_cores.
            for (i, &a) in aggs.iter().enumerate() {
                for t in 0..self.agg_uplinks {
                    let c = cores[(i * self.agg_uplinks + t) % self.num_cores];
                    *mult.entry((a, c)).or_insert(0) += 1;
                }
            }
            pod_edges.push(edges);
            pod_aggs.push(aggs);
            pod_servers.push(servers_in_pod);
        }

        for ((x, y), m) in mult {
            g.add_duplex_link(x, y, self.link_gbps * m as f64);
        }

        let servers: Vec<NodeId> = pod_servers.iter().flatten().copied().collect();
        let net = DcNetwork {
            name: format!(
                "clos-p{}d{}a{}s{}",
                self.pods, self.edges_per_pod, self.aggs_per_pod, self.servers_per_edge
            ),
            servers,
            pod_servers,
            edges: pod_edges.iter().flatten().copied().collect(),
            aggs: pod_aggs.iter().flatten().copied().collect(),
            cores: cores.clone(),
            graph: g,
        };
        debug_assert!(net.validate().is_ok());
        ClosNetwork {
            params: *self,
            net,
            pod_edges,
            pod_aggs,
            edge_servers,
            cores,
        }
    }
}

/// A built Clos network with its pod structure exposed (the flat-tree
/// builder consumes this to place converter switches).
#[derive(Debug, Clone)]
pub struct ClosNetwork {
    /// The parameters this network was built from.
    pub params: ClosParams,
    /// The generic network view.
    pub net: DcNetwork,
    /// Edge switches per pod, `pod_edges[p][j] = E_j` of pod `p`.
    pub pod_edges: Vec<Vec<NodeId>>,
    /// Aggregation switches per pod, `pod_aggs[p][i] = A_i` of pod `p`.
    pub pod_aggs: Vec<Vec<NodeId>>,
    /// Servers per edge switch, in global edge order (pod-major).
    pub edge_servers: Vec<Vec<NodeId>>,
    /// Core switches, `cores[c]` = `C_c` of §3.2.
    pub cores: Vec<NodeId>,
}

/// The classic k-ary fat-tree (\[12\]) as a `ClosParams` instance:
/// `k` pods of `k/2` edge and `k/2` aggregation switches, `k/2` servers per
/// edge, `(k/2)^2` cores. `k` must be even.
pub fn fat_tree(k: usize) -> ClosParams {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree requires even k >= 2"
    );
    ClosParams {
        pods: k,
        edges_per_pod: k / 2,
        aggs_per_pod: k / 2,
        servers_per_edge: k / 2,
        edge_uplinks: k / 2,
        agg_uplinks: k / 2,
        num_cores: (k / 2) * (k / 2),
        link_gbps: 10.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::metrics;

    #[test]
    fn table2_rows_are_consistent() {
        // (row, #ES, #AS, #CS, OR_edge, OR_agg, servers)
        let expect = [
            (1, 128, 128, 64, 4.0, 1.0, 4096),
            (2, 72, 72, 36, 4.0, 1.0, 1728),
            (3, 128, 128, 64, 8.0, 1.0, 8192),
            (4, 128, 64, 32, 4.0, 1.0, 4096),
            (5, 128, 128, 64, 2.0, 2.0, 4096),
            (6, 128, 64, 32, 2.0, 2.0, 4096),
        ];
        for (i, es, asw, cs, ore, ora, srv) in expect {
            let p = ClosParams::topo(i);
            p.validate().unwrap();
            assert_eq!(p.pods * p.edges_per_pod, es, "topo-{i} ES");
            assert_eq!(p.pods * p.aggs_per_pod, asw, "topo-{i} AS");
            assert_eq!(p.num_cores, cs, "topo-{i} CS");
            assert_eq!(p.edge_oversubscription(), ore, "topo-{i} OR@ES");
            assert_eq!(p.agg_oversubscription(), ora, "topo-{i} OR@AS");
            assert_eq!(p.total_servers(), srv, "topo-{i} servers");
        }
    }

    #[test]
    fn mini_builds_and_validates() {
        let c = ClosParams::mini().build();
        c.net.validate().unwrap();
        assert_eq!(c.net.num_servers(), 64);
        assert_eq!(c.net.num_pods(), 4);
        assert_eq!(c.cores.len(), 16);
        assert_eq!(c.pod_edges[0].len(), 4);
        assert_eq!(c.edge_servers.len(), 16);
        assert!(c.edge_servers.iter().all(|v| v.len() == 4));
    }

    #[test]
    fn core_degree_is_uniform() {
        let c = ClosParams::mini().build();
        let (min, max, _) =
            metrics::degree_stats(&c.net.graph, netgraph::NodeKind::CoreSwitch).unwrap();
        assert_eq!(min, max, "every core must see the same number of cables");
        // Each core: one agg link per pod (a*h == C ⇒ one per pod).
        assert_eq!(min, 4);
    }

    #[test]
    fn edge_capacity_matches_oversubscription() {
        let p = ClosParams::mini();
        let c = p.build();
        let g = &c.net.graph;
        let e = c.pod_edges[0][0];
        let down: f64 = g
            .neighbors(e)
            .iter()
            .filter(|&&(v, _)| g.node(v).kind == netgraph::NodeKind::Server)
            .map(|&(_, l)| g.link(l).capacity_gbps)
            .sum();
        let up: f64 = g
            .neighbors(e)
            .iter()
            .filter(|&&(v, _)| g.node(v).kind == netgraph::NodeKind::AggSwitch)
            .map(|&(_, l)| g.link(l).capacity_gbps)
            .sum();
        assert_eq!(down / up, p.edge_oversubscription());
    }

    #[test]
    fn clos_paths_have_expected_lengths() {
        let c = ClosParams::mini().build();
        let g = &c.net.graph;
        // Same rack: 2 hops. Same pod, different rack: 4. Cross-pod: 6.
        let s0 = c.edge_servers[0][0];
        let s1 = c.edge_servers[0][1];
        let s2 = c.edge_servers[1][0];
        let s3 = c.edge_servers[4][0]; // pod 1
        assert_eq!(netgraph::dijkstra::hop_distance(g, s0, s1), Some(2));
        assert_eq!(netgraph::dijkstra::hop_distance(g, s0, s2), Some(4));
        assert_eq!(netgraph::dijkstra::hop_distance(g, s0, s3), Some(6));
    }

    #[test]
    fn fat_tree_shape() {
        let p = fat_tree(4);
        p.validate().unwrap();
        assert_eq!(p.total_servers(), 16);
        assert_eq!(p.num_cores, 4);
        let c = p.build();
        c.net.validate().unwrap();
        // Non-blocking: 1:1 at both layers.
        assert_eq!(p.edge_oversubscription(), 1.0);
        assert_eq!(p.agg_oversubscription(), 1.0);
    }

    #[test]
    fn parallel_uplinks_aggregate_capacity() {
        // topo-5 style: 16 uplinks over 8 aggs = 2 links per pair.
        let p = ClosParams {
            pods: 2,
            edges_per_pod: 2,
            aggs_per_pod: 2,
            servers_per_edge: 2,
            edge_uplinks: 4,
            agg_uplinks: 2,
            num_cores: 4,
            link_gbps: 10.0,
        };
        let c = p.build();
        let g = &c.net.graph;
        let l = g
            .find_link(c.pod_edges[0][0], c.pod_aggs[0][0])
            .expect("edge-agg link");
        assert_eq!(g.link(l).capacity_gbps, 20.0);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = ClosParams::mini();
        p.aggs_per_pod = 3; // does not divide edges_per_pod = 4
        assert!(p.validate().is_err());
        let mut p = ClosParams::mini();
        p.num_cores = 5; // does not divide a*h = 16
        assert!(p.validate().is_err());
        let mut p = ClosParams::mini();
        p.edge_uplinks = 3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn deterministic_builds() {
        let a = ClosParams::mini().build();
        let b = ClosParams::mini().build();
        assert_eq!(a.net.servers, b.net.servers);
        assert_eq!(a.net.graph.link_count(), b.net.graph.link_count());
    }
}
