//! Greedy max-total-throughput allocation ("LP average").
//!
//! The paper's second LP maximizes the *average* (equivalently, total)
//! flow throughput, which "assigns some zero throughputs and some high or
//! even full throughputs to maximize the network utilization" (§5.1).
//! The exact LP is a max-flow packing; we approximate it greedily:
//! commodities repeatedly grab shortest residual paths, cheapest first,
//! each capped at its demand (the NIC rate). Short flows therefore fill
//! up first and long or unlucky flows are starved — reproducing the
//! qualitative LP-average behaviour the paper reports in Figure 7.

use crate::Commodity;
use netgraph::dijkstra::{shortest_path, shortest_path_avoiding};
use netgraph::Graph;

/// Per-commodity rates of the greedy max-total allocation.
///
/// Deterministic: commodities are served in ascending order of their
/// static shortest-path length (ties by index) — short flows pack first,
/// maximizing utilization like the true LP-average solution. Each
/// commodity then augments along shortest *residual* paths until its
/// demand cap or path exhaustion.
pub fn max_total_flow(g: &Graph, commodities: &[Commodity]) -> Vec<f64> {
    let caps: Vec<f64> = g.link_ids().map(|l| g.link(l).capacity_gbps).collect();
    let mut residual = caps.clone();
    let mut rates = vec![0.0f64; commodities.len()];

    // Static order: shortest path length ascending, then index.
    let mut order: Vec<(usize, usize)> = commodities
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let len = shortest_path(g, c.src, c.dst).map_or(usize::MAX, |p| p.len());
            (len, i)
        })
        .collect();
    order.sort();

    for (_, i) in order {
        let com = &commodities[i];
        let mut remaining = com.demand;
        while remaining > 1e-9 {
            let found = shortest_path_avoiding(g, com.src, com.dst, |l| residual[l.idx()] <= 1e-9);
            let Some(path) = found else { break };
            let bottleneck = path
                .links
                .iter()
                .map(|&l| residual[l.idx()])
                .fold(f64::INFINITY, f64::min);
            let f = remaining.min(bottleneck);
            debug_assert!(f > 0.0);
            for &l in &path.links {
                residual[l.idx()] -= f;
            }
            rates[i] += f;
            remaining -= f;
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Graph, NodeKind};

    #[test]
    fn starves_the_long_flow_for_total_throughput() {
        // Two 10G links in a line; flow A spans both, flows B and C take
        // one each. Max-total: B = C = 10, A = 0. (Max-min would give 5s.)
        let mut g = Graph::new();
        let sw = [
            g.add_node(NodeKind::GenericSwitch, "x"),
            g.add_node(NodeKind::GenericSwitch, "y"),
            g.add_node(NodeKind::GenericSwitch, "z"),
        ];
        g.add_duplex_link(sw[0], sw[1], 10.0);
        g.add_duplex_link(sw[1], sw[2], 10.0);
        let server = |at: usize, name: &str, g: &mut Graph| {
            let s = g.add_node(NodeKind::Server, name);
            g.add_duplex_link(s, sw[at], 100.0);
            s
        };
        let a0 = server(0, "a0", &mut g);
        let a1 = server(2, "a1", &mut g);
        let b0 = server(0, "b0", &mut g);
        let b1 = server(1, "b1", &mut g);
        let c0 = server(1, "c0", &mut g);
        let c1 = server(2, "c1", &mut g);
        let coms = vec![
            Commodity {
                src: a0,
                dst: a1,
                demand: 100.0,
            },
            Commodity {
                src: b0,
                dst: b1,
                demand: 100.0,
            },
            Commodity {
                src: c0,
                dst: c1,
                demand: 100.0,
            },
        ];
        let rates = max_total_flow(&g, &coms);
        assert!(rates[1] >= 10.0 - 1e-9);
        assert!(rates[2] >= 10.0 - 1e-9);
        assert!(
            rates[0] <= 1e-9,
            "long flow should be starved, got {}",
            rates[0]
        );
        assert!((rates.iter().sum::<f64>() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn respects_demand_cap() {
        let mut g = Graph::new();
        let x = g.add_node(NodeKind::GenericSwitch, "x");
        let y = g.add_node(NodeKind::GenericSwitch, "y");
        g.add_duplex_link(x, y, 40.0);
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, x, 40.0);
        g.add_duplex_link(t, y, 40.0);
        let coms = vec![Commodity {
            src: s,
            dst: t,
            demand: 10.0,
        }];
        let rates = max_total_flow(&g, &coms);
        assert!((rates[0] - 10.0).abs() < 1e-9, "capped at NIC demand");
    }

    #[test]
    fn uses_multiple_paths_when_needed() {
        // Demand 20 over two disjoint 10G paths.
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        let x = g.add_node(NodeKind::GenericSwitch, "x");
        let y = g.add_node(NodeKind::GenericSwitch, "y");
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, a, 40.0);
        g.add_duplex_link(a, x, 10.0);
        g.add_duplex_link(a, y, 10.0);
        g.add_duplex_link(x, b, 10.0);
        g.add_duplex_link(y, b, 10.0);
        g.add_duplex_link(b, t, 40.0);
        let coms = vec![Commodity {
            src: s,
            dst: t,
            demand: 20.0,
        }];
        let rates = max_total_flow(&g, &coms);
        assert!((rates[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn feasibility_never_violated() {
        let (g, coms) = {
            let mut g = Graph::new();
            let sw0 = g.add_node(NodeKind::GenericSwitch, "sw0");
            let sw1 = g.add_node(NodeKind::GenericSwitch, "sw1");
            g.add_duplex_link(sw0, sw1, 10.0);
            let mut coms = Vec::new();
            for i in 0..4 {
                let s = g.add_node(NodeKind::Server, format!("s{i}"));
                let t = g.add_node(NodeKind::Server, format!("t{i}"));
                g.add_duplex_link(s, sw0, 10.0);
                g.add_duplex_link(t, sw1, 10.0);
                coms.push(Commodity {
                    src: s,
                    dst: t,
                    demand: 10.0,
                });
            }
            (g, coms)
        };
        let rates = max_total_flow(&g, &coms);
        let total: f64 = rates.iter().sum();
        assert!(total <= 10.0 + 1e-6, "bottleneck is 10G, total {total}");
        // Greedy max-total on identical flows: first-come takes all.
        assert!(rates.iter().any(|&r| r > 9.0));
    }
}
