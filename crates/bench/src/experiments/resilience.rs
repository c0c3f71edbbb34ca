//! Failure resilience — the §4.2.1 footnote's deferred evaluation.
//!
//! "It has been established that throughput degrades more gracefully in
//! random graph networks than in fat-tree under failure. Because
//! flat-tree approximates random graph networks, we expect flat-tree to
//! be resilient to failure as well, although more thorough evaluations
//! are left to future work."
//!
//! This experiment is that evaluation: kill a growing fraction of
//! switch-to-switch cables uniformly at random, re-route every
//! permutation pair over the surviving k-shortest paths, and measure the
//! mean per-flow throughput (normalized to the failure-free value) plus
//! the fraction of disconnected pairs. The (fraction, trial) cells run
//! on the [`crate::sweep`] driver's worker threads.

use super::common;
use crate::report::{f3, print_table};
use crate::sweep::sweep;
use crate::Scale;
use flat_tree::PodMode;
use flowsim::alloc::{connection_rates, ConnPaths};
use flowsim::{FailedLinks, FlowSpec, MptcpProvider, PathProvider};
use netgraph::{Graph, LinkId, NodeId, PathArena};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::SharedRouteTable;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Failure fractions swept.
pub const FRACTIONS: [f64; 6] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20];

/// One (network, failure fraction) measurement, averaged over
/// [`TRIALS`] independent failure draws.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// Network name.
    pub network: String,
    /// Fraction of switch-switch cables failed.
    pub failed_fraction: f64,
    /// Mean per-flow throughput in Gbps (absolute).
    pub mean_gbps: f64,
    /// Mean per-flow throughput normalized to the same network at 0%.
    pub normalized_throughput: f64,
    /// Fraction of server pairs left with no route.
    pub disconnected: f64,
}

/// Independent failure draws averaged per point.
pub const TRIALS: usize = 3;

/// Mean throughput and disconnection rate with a given failed-cable
/// set. Every pair is routed by a coupled [`MptcpProvider`] over the
/// shared precomputed table, which re-runs a masked Yen only for switch
/// pairs whose cached footprint crosses a failed link — bit-identical
/// to a from-scratch masked Yen per server pair.
fn measure(
    g: &Graph,
    pairs: &[(NodeId, NodeId)],
    table: &Arc<SharedRouteTable>,
    down: &[LinkId],
) -> (f64, f64) {
    let mut failed = FailedLinks::new(g.link_count());
    for &l in down {
        failed.fail(l);
    }
    let mut provider = MptcpProvider::with_shared(Arc::clone(table), true);
    let mut arena = PathArena::new();
    let mut conns = Vec::new();
    for (id, &(src, dst)) in pairs.iter().enumerate() {
        let spec = FlowSpec {
            id: id as u64,
            src,
            dst,
            bytes: 1.0,
            start: 0.0,
        };
        if let Some(routed) = provider.route(g, &mut arena, &failed, &spec) {
            conns.push(ConnPaths {
                paths: routed
                    .path_ids
                    .iter()
                    .map(|&i| arena.get(i).clone())
                    .collect(),
                subflow_weight: routed.subflow_weight,
            });
        }
    }
    let disconnected = pairs.len() - conns.len();
    let mut caps = g.capacities();
    for &l in down {
        caps[l.idx()] = 1e-9; // dead, but keep the allocator's invariants simple
    }
    let rates = connection_rates(&caps, &conns).expect("paths routed on this graph");
    let total: f64 = rates.iter().sum();
    // Disconnected pairs contribute zero throughput to the mean.
    let mean = total / pairs.len() as f64;
    (mean, disconnected as f64 / pairs.len() as f64)
}

/// Runs the sweep on flat-tree global mode vs Clos mode.
pub fn run(scale: Scale) -> Vec<Point> {
    let ft = common::flat_tree_over(common::topo(1, scale.full));
    let nets = vec![
        (
            "ft-global".to_string(),
            common::instance(&ft, PodMode::Global).net,
        ),
        (
            "ft-clos".to_string(),
            common::instance(&ft, PodMode::Clos).net,
        ),
    ];
    let k = 8;
    let mut out = Vec::new();
    for (name, net) in &nets {
        let g = &net.graph;
        let index_pairs = traffic::patterns::permutation(net.num_servers(), scale.seed);
        let pairs: Vec<(NodeId, NodeId)> = index_pairs
            .iter()
            .map(|&(s, d)| (net.servers[s], net.servers[d]))
            .collect();
        // One parallel-precomputed table per network; every (fraction,
        // trial) cell routes over it with its own provider.
        let table = common::shared_route_table(net, &index_pairs, k);
        let all_cables = g.switch_cables();
        // Sweep (fraction, trial) cells on the shared parallel driver.
        let jobs: Vec<(f64, usize)> = FRACTIONS
            .iter()
            .flat_map(|&f| (0..TRIALS).map(move |t| (f, t)))
            .collect();
        let results: Vec<(f64, f64, f64)> = sweep(&jobs, |_, &(frac, trial)| {
            let mut rng =
                ChaCha8Rng::seed_from_u64(scale.seed ^ (frac * 1e6) as u64 ^ (trial as u64) << 32);
            let mut chosen = all_cables.clone();
            chosen.shuffle(&mut rng);
            chosen.truncate((all_cables.len() as f64 * frac) as usize);
            let mut down = Vec::new();
            for l in chosen {
                down.push(l);
                if let Some(r) = g.link(l).reverse {
                    down.push(r);
                }
            }
            down.sort_unstable_by_key(|l| l.0);
            let (mean, disc) = measure(g, &pairs, &table, &down);
            (frac, mean, disc)
        });
        // Average trials per fraction.
        let mut per_frac: Vec<(f64, f64, f64)> = Vec::new();
        for &frac in &FRACTIONS {
            let hits: Vec<&(f64, f64, f64)> =
                results.iter().filter(|(f, _, _)| *f == frac).collect();
            let mean = hits.iter().map(|(_, m, _)| m).sum::<f64>() / hits.len() as f64;
            let disc = hits.iter().map(|(_, _, d)| d).sum::<f64>() / hits.len() as f64;
            per_frac.push((frac, mean, disc));
        }
        let baseline = per_frac[0].1;
        for (frac, mean, disc) in per_frac {
            out.push(Point {
                network: name.clone(),
                failed_fraction: frac,
                mean_gbps: mean,
                normalized_throughput: mean / baseline,
                disconnected: disc,
            });
        }
    }
    out
}

/// Prints the sweep.
pub fn print(points: &[Point]) {
    let body: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.network.clone(),
                format!("{:.0}%", p.failed_fraction * 100.0),
                f3(p.mean_gbps),
                f3(p.normalized_throughput),
                format!("{:.1}%", p.disconnected * 100.0),
            ]
        })
        .collect();
    print_table(
        "Resilience: throughput under random cable failures (extension)",
        &[
            "network",
            "failed",
            "mean Gbps",
            "normalized",
            "disconnected",
        ],
        &body,
    );
}
