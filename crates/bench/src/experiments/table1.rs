//! Table 1 — throughput of clustered all-to-all traffic on the
//! Clos/fat-tree vs random graph vs two-stage random graph, under
//! LP-optimal routing, as the cluster size sweeps from rack-local to
//! multi-pod.
//!
//! "We pack consecutive servers into clusters and create all-to-all
//! traffic in each cluster. We measure the throughput following \[41\]'s
//! methodology, which assumes optimal routing and allocates bandwidth to
//! flows using a linear programming solver." Each row is normalized
//! against the row's minimum.
//!
//! **Substitution note (documented in DESIGN.md/EXPERIMENTS.md):** the
//! paper builds a k = 16 fat-tree, which is non-blocking; under our
//! NIC-capped max-concurrent LP, clustered traffic on a non-blocking
//! fabric is NIC-bound on *every* architecture and the table degenerates
//! to ties. The architectural crossover Table 1 illustrates — tree wins
//! for rack-local clusters, two-stage RG for pod-scale, flat RG for
//! multi-pod — requires an oversubscribed fabric, so we run the same
//! methodology on the 4:1-oversubscribed **topo-1 device set** (the
//! paper's own representative network for §5.2) with cluster sizes
//! proportional to its rack/pod structure. Per-server out-degree is
//! subsampled (locality-preserving) to bound LP cost.

use super::common;
use crate::report::{f3, print_table};
use crate::Scale;
use mcf::concurrent::max_concurrent_flow;
use serde::{Deserialize, Serialize};
use topology::{RandomGraphParams, TwoStageParams};
use traffic::patterns::{clustered_all_to_all, sample_peers};

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Cluster size.
    pub cluster: usize,
    /// Clos (the convertible network's tree mode), normalized.
    pub clos: f64,
    /// Random graph, normalized.
    pub random_graph: f64,
    /// Two-stage random graph, normalized.
    pub two_stage: f64,
}

/// The mini device set for this table: 4 pods x (8 edge + 4 agg), 512
/// servers, 4:1 edge oversubscription. Table 1's crossover needs pods
/// large enough for a random pod fabric to express its advantage, so
/// this mini uses wider pods than the generic `mini_topo(1)`.
fn device_set(full: bool) -> topology::ClosParams {
    if full {
        common::topo(1, true)
    } else {
        topology::ClosParams {
            pods: 4,
            edges_per_pod: 8,
            aggs_per_pod: 4,
            servers_per_edge: 16,
            edge_uplinks: 4,
            agg_uplinks: 8,
            num_cores: 32,
            link_gbps: 10.0,
        }
    }
}

/// Runs the experiment: clusters of one rack, half a pod, and 1.5 pods.
pub fn run(scale: Scale) -> Vec<Row> {
    let clos_params = device_set(scale.full);
    let rack = clos_params.servers_per_edge;
    let pod = clos_params.edges_per_pod * rack;
    let clusters = vec![rack, pod / 2, pod + pod / 2];

    let clos_net = clos_params.build().net;
    let rg_net = RandomGraphParams::from_clos(&clos_params, scale.seed).build();
    let ts_net = TwoStageParams {
        clos: clos_params,
        seed: scale.seed,
    }
    .build();
    let n = clos_net.num_servers();

    let mut rows = Vec::new();
    for &c in &clusters {
        let pairs = sample_peers(clustered_all_to_all(n, c), 6, scale.seed);
        let mut lambdas = Vec::new();
        for net in [&clos_net, &rg_net, &ts_net] {
            let coms = common::commodities(net, &pairs, common::nic_gbps());
            let r = max_concurrent_flow(&net.graph, &coms, 0.15);
            lambdas.push(r.lambda * common::nic_gbps());
        }
        let min = lambdas.iter().copied().fold(f64::INFINITY, f64::min);
        rows.push(Row {
            cluster: c,
            clos: lambdas[0] / min,
            random_graph: lambdas[1] / min,
            two_stage: lambdas[2] / min,
        });
    }
    rows
}

/// Prints the rows as the paper's table.
pub fn print(rows: &[Row]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cluster.to_string(),
                f3(r.clos),
                f3(r.random_graph),
                f3(r.two_stage),
            ]
        })
        .collect();
    print_table(
        "Table 1: normalized throughput of clustered traffic",
        &[
            "Cluster Size",
            "Clos/fat-tree",
            "Random Graph",
            "Two-stage RG",
        ],
        &body,
    );
}
