//! Replay Facebook-like traces on different networks: the §5.2 workflow.
//! Synthesizes the Cache trace (88 % pod-local) and compares flow
//! completion times on flat-tree global/local/Clos modes.
//!
//! Run with: `cargo run -p ft-bench --release --example datacenter_traces`

use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{simulate, FlowSpec, SimConfig, Transport};
use topology::ClosParams;
use traffic::traces::{measure_locality, TraceParams};

fn main() {
    // Reference layout: 4 pods x 4 racks x 16 servers (topo-1 ratios).
    let clos = ClosParams {
        pods: 4,
        edges_per_pod: 4,
        aggs_per_pod: 4,
        servers_per_edge: 16,
        edge_uplinks: 4,
        agg_uplinks: 4,
        num_cores: 16,
        link_gbps: 10.0,
    };
    let (rack, pod) = (16, 64);
    let mut params = TraceParams::cache(clos.total_servers(), rack, pod, 7);
    params.duration_s = 0.5;
    let trace = params.generate();
    let (r, p, i) = measure_locality(&trace, rack, pod);
    println!(
        "{}: {} flows; locality rack {:.1}% / pod {:.1}% / inter-pod {:.1}%\n",
        trace.name,
        trace.flows.len(),
        r * 100.0,
        p * 100.0,
        i * 100.0
    );

    let (m, n) = flat_tree::profile::best_mn(&clos).unwrap();
    let ft = FlatTree::new(FlatTreeParams::new(clos, m, n)).unwrap();
    for mode in [PodMode::Global, PodMode::Local, PodMode::Clos] {
        let inst = ft.instantiate(&ModeAssignment::uniform(4, mode));
        let flows: Vec<FlowSpec> = trace
            .flows
            .iter()
            .map(|f| FlowSpec {
                id: f.id,
                src: inst.net.servers[f.src],
                dst: inst.net.servers[f.dst],
                bytes: f.bytes,
                start: f.start,
            })
            .collect();
        let res = simulate(
            &inst.net.graph,
            &flows,
            &SimConfig {
                transport: Transport::mptcp8(),
                ..SimConfig::default()
            },
        )
        .expect("valid workload");
        let fcts = res.sorted_fcts();
        println!(
            "{:>6} mode: mean FCT {:.2} ms, median {:.2} ms, p99 {:.2} ms",
            format!("{mode:?}").to_lowercase(),
            res.mean_fct().unwrap() * 1e3,
            fcts[fcts.len() / 2] * 1e3,
            fcts[(fcts.len() as f64 * 0.99) as usize] * 1e3
        );
    }
    println!("\n(pod-local traffic: the converted modes beat plain Clos)");
}
