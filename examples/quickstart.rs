//! Quickstart: build a flat-tree, inspect its modes, route a flow, and
//! measure a tiny workload.
//!
//! Run with: `cargo run -p ft-bench --release --example quickstart`

use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{simulate, FlowSpec, SimConfig, Transport};
use netgraph::metrics;
use routing::SharedRouteTable;
use topology::ClosParams;

fn main() {
    // 1. Start from a generic Clos layout: 4 pods x (4 edge + 4 agg),
    //    4 servers per edge, 16 cores — 64 servers total.
    let clos = ClosParams::mini();
    println!(
        "Clos layout: {} pods, {} servers, {}:1 oversubscribed at the edge",
        clos.pods,
        clos.total_servers(),
        clos.edge_oversubscription()
    );

    // 2. Pick the (m, n) converter split by §3.4 profiling and build the
    //    flat-tree over it.
    let (m, n) = flat_tree::profile::best_mn(&clos).expect("profilable");
    println!("profiled converter split: m = {m} (6-port), n = {n} (4-port)");
    let ft = FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("valid params");

    // 3. Instantiate each operation mode and compare average path length.
    for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
        let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), mode));
        let apl = metrics::avg_server_path_length(&inst.net.graph).unwrap();
        println!(
            "{:>6} mode: {} links, avg server path length {:.3}",
            format!("{mode:?}").to_lowercase(),
            inst.net.graph.link_count() / 2,
            apl
        );
    }

    // 4. Route a server pair over the global mode's 8 shortest paths.
    let global = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
    let (src, dst) = (global.net.servers[0], global.net.servers[63]);
    let table = SharedRouteTable::build(&global.net.graph, 8);
    let paths = table
        .server_paths(&global.net.graph, src, dst)
        .expect("attached servers");
    println!(
        "k-shortest paths {:?} -> {:?}: {} paths, lengths {:?}",
        src,
        dst,
        paths.len(),
        paths.iter().map(|p| p.len()).collect::<Vec<_>>()
    );

    // 5. Simulate a 1 GB MPTCP transfer between them.
    let flows = vec![FlowSpec {
        id: 0,
        src,
        dst,
        bytes: 1e9,
        start: 0.0,
    }];
    let res = simulate(
        &global.net.graph,
        &flows,
        &SimConfig {
            transport: Transport::mptcp8(),
            ..SimConfig::default()
        },
    )
    .expect("valid workload");
    println!(
        "1 GB transfer: {:.3} s at {:.2} Gbps average",
        res.records[0].fct().unwrap(),
        res.records[0].avg_rate_gbps().unwrap()
    );
}
