//! Validation of the decomposed pipeline against the exact engine.
//!
//! Two regimes, mirroring the crate docs:
//!
//! * **First-order closed** workloads (every pair of interacting flows
//!   shares a common bottleneck and nothing else binds): the
//!   decomposition is *exact*, gated at 1e-9 relative — these are the
//!   `singleton_exact_*` tests CI runs as the singleton==exact gate.
//! * **General** workloads (ECMP collisions introduce second-order
//!   contention the link-local view cannot see): gated by an explicit
//!   FCT-distribution distance bound — W1 within 10% of the exact mean
//!   FCT and every quantile within 55% relative, on a k=16 fat-tree
//!   permutation (measured: 3.3% and 50% — the tail error is a flow
//!   crossing two successive bottlenecks, the known lower-bound case).
//!   The bounds are the documented contract, not a tautology: re-run
//!   with `--nocapture` to see the measured values.

use decomp::{decompose, w1, DecompConfig};
use flowsim::{FlowSpec, SimConfig, SimResult, Transport};
use topology::{fat_tree, DcNetwork};

fn specs(net: &DcNetwork, pairs: &[(usize, usize)], bytes: f64) -> Vec<FlowSpec> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| FlowSpec {
            id: i as u64,
            src: net.servers[s],
            dst: net.servers[d],
            bytes,
            start: 0.0,
        })
        .collect()
}

fn exact(net: &DcNetwork, flows: &[FlowSpec]) -> SimResult {
    let cfg = SimConfig {
        transport: Transport::TcpEcmp,
        record_series: false,
    };
    flowsim::simulate(&net.graph, flows, &cfg).expect("valid workload")
}

fn sorted_fcts(r: &SimResult) -> Vec<f64> {
    let mut v: Vec<f64> = r.records.iter().filter_map(|rec| rec.fct()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Incast into one server of a k=4 fat-tree: all eight cross-pod
/// senders share the destination's access link as their common
/// bottleneck (1.25 Gbps fair share), and every other hop grants at
/// least 2.5 Gbps — first-order closed, so the decomposition must
/// reproduce the exact engine bit-for-bit modulo float noise, with and
/// without clustering.
#[test]
fn singleton_exact_incast() {
    let net = fat_tree(4).build().net;
    let pairs: Vec<(usize, usize)> = (8..16).map(|s| (s, 0)).collect();
    let flows = specs(&net, &pairs, 1.25e8);
    let exact = exact(&net, &flows);
    for clustering in [false, true] {
        let cfg = DecompConfig {
            threshold: 0.0,
            clustering,
        };
        let out = decompose(&net.graph, &flows, &cfg).expect("valid workload");
        assert_eq!(out.stats.unroutable, 0);
        for (a, b) in out.result.records.iter().zip(&exact.records) {
            let fa = a.fct().expect("decomposed flow completes");
            let fb = b.fct().expect("exact flow completes");
            assert!(
                (fa - fb).abs() / fb <= 1e-9,
                "clustering={clustering} flow {}: decomposed {fa} vs exact {fb}",
                a.id
            );
        }
        if clustering {
            assert!(
                out.stats.clusters < out.stats.loaded_links,
                "symmetric incast legs should cluster: {} of {}",
                out.stats.clusters,
                out.stats.loaded_links
            );
        }
    }
}

/// Rack-local permutation: each flow owns both of its links outright,
/// so every cluster is a singleton population shape and the exact
/// engine is reproduced at machine precision.
#[test]
fn singleton_exact_rack_local() {
    let net = fat_tree(4).build().net;
    // Servers 0/1 share a rack in the k=4 build (2 per edge).
    let pairs = vec![(0, 1), (1, 0), (2, 3), (3, 2)];
    let flows = specs(&net, &pairs, 2.5e8);
    let exact = exact(&net, &flows);
    let out = decompose(&net.graph, &flows, &DecompConfig::default()).expect("valid workload");
    for (a, b) in out.result.records.iter().zip(&exact.records) {
        let fa = a.fct().expect("decomposed flow completes");
        let fb = b.fct().expect("exact flow completes");
        assert!((fa - fb).abs() / fb <= 1e-9, "{fa} vs {fb}");
    }
}

/// The documented general-workload bound on a mid-size topology: k=16
/// fat-tree (1024 servers), seeded permutation. ECMP hash collisions
/// give real second-order contention, so this pins the approximation
/// quality, not exactness.
#[test]
fn k16_permutation_within_documented_bound() {
    let net = fat_tree(16).build().net;
    let pairs = traffic::patterns::permutation(net.num_servers(), 7);
    let flows = specs(&net, &pairs, 1e7);
    let exact = exact(&net, &flows);
    let out = decompose(&net.graph, &flows, &DecompConfig::default()).expect("valid workload");

    let ef = sorted_fcts(&exact);
    let df = sorted_fcts(&out.result);
    assert_eq!(ef.len(), flows.len(), "exact run completes every flow");
    assert_eq!(df.len(), flows.len(), "decomposed run completes every flow");

    let mean = ef.iter().sum::<f64>() / ef.len() as f64;
    let dist = w1(&df, &ef);
    println!(
        "k16 permutation: W1 = {dist:.3e}, exact mean = {mean:.3e}, ratio = {:.4}",
        dist / mean
    );
    assert!(
        dist <= 0.10 * mean,
        "W1 {dist:.3e} exceeds 10% of exact mean FCT {mean:.3e}"
    );

    let worst = decomp::max_quantile_rel(&df, &ef, 1e-9);
    println!("k16 permutation: max quantile rel err = {worst:.4}");
    assert!(worst <= 0.55, "max quantile error {worst:.4} exceeds 55%");

    // The decomposition must be dramatically cheaper than exact: far
    // fewer simulated flows than the sum of per-link populations.
    assert!(
        out.stats.clusters * 20 < out.stats.loaded_links,
        "k=16 permutation should compress >20x: {} clusters over {} links",
        out.stats.clusters,
        out.stats.loaded_links
    );
}

/// Two decomposed runs of the same seeded workload are byte-identical
/// — stats, record order, and every finish time bit-for-bit.
#[test]
fn decomposed_run_is_deterministic() {
    let net = fat_tree(8).build().net;
    let pairs = traffic::patterns::permutation(net.num_servers(), 11);
    let flows = specs(&net, &pairs, 4e6);
    let a = decompose(&net.graph, &flows, &DecompConfig::default()).expect("valid workload");
    let b = decompose(&net.graph, &flows, &DecompConfig::default()).expect("valid workload");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.result.records.len(), b.result.records.len());
    for (x, y) in a.result.records.iter().zip(&b.result.records) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.start.to_bits(), y.start.to_bits());
        assert_eq!(
            x.finish.map(f64::to_bits),
            y.finish.map(f64::to_bits),
            "flow {}",
            x.id
        );
    }
}
