//! Topology inspector: prints the device inventory, structural metrics,
//! and (optionally) Graphviz DOT for any network this repo can build.
//!
//! Usage:
//!   cargo run -p ft-bench --release --bin topo -- [--full] [--dot \<mode\>]
//!
//! Prints one row per flat-tree mode of the topo-1 device set plus the
//! device-equivalent random graphs; `--dot global` additionally dumps the
//! global-mode instance as DOT on stdout (pipe into `dot -Tsvg`).

use flat_tree::PodMode;
use ft_bench::experiments::common;
use ft_bench::report::{f3, print_table};
use netgraph::{dot, metrics, NodeKind};
use topology::{RandomGraphParams, TwoStageParams};

const USAGE: &str = "usage: topo [--full] [--dot <clos|local|global>] [--help]";

fn parse_args(args: &[String]) -> Result<(bool, Option<String>), String> {
    let mut full = false;
    let mut dot_mode = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--dot" => {
                let mode = it.next().ok_or("--dot requires a mode argument")?;
                match mode.as_str() {
                    "clos" | "local" | "global" => dot_mode = Some(mode.clone()),
                    other => return Err(format!("unknown --dot mode `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((full, dot_mode))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let (full, dot_mode) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("topo: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let clos = common::topo(1, full);
    let ft = common::flat_tree_over(clos);
    let mut rows = Vec::new();
    let mut dot_out = None;

    let mut add = |name: String, net: &topology::DcNetwork| {
        let g = &net.graph;
        let apl = metrics::avg_server_path_length(g).unwrap_or(f64::NAN);
        let diam = metrics::switch_diameter(g).unwrap_or(0);
        let servers_on = |kind| {
            metrics::attached_server_counts(g, kind)
                .iter()
                .map(|&(_, c)| c)
                .sum::<usize>()
        };
        rows.push(vec![
            name,
            net.num_servers().to_string(),
            g.switches().len().to_string(),
            (g.link_count() / 2).to_string(),
            f3(apl),
            diam.to_string(),
            format!(
                "{}/{}/{}",
                servers_on(NodeKind::EdgeSwitch),
                servers_on(NodeKind::AggSwitch),
                servers_on(NodeKind::CoreSwitch)
            ),
        ]);
    };

    for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
        let inst = common::instance(&ft, mode);
        let name = format!("flat-tree {}", format!("{mode:?}").to_lowercase());
        if dot_mode.as_deref() == Some(&format!("{mode:?}").to_lowercase()) {
            dot_out = Some(dot::to_dot(&inst.net.graph, &name));
        }
        add(name, &inst.net);
    }
    add(
        "random graph".into(),
        &RandomGraphParams::from_clos(&clos, 1).build(),
    );
    add(
        "two-stage RG".into(),
        &TwoStageParams { clos, seed: 1 }.build(),
    );

    print_table(
        "Topology inventory",
        &[
            "network",
            "servers",
            "switches",
            "cables",
            "APL",
            "diam",
            "srv@E/A/C",
        ],
        &rows,
    );
    if let Some(d) = dot_out {
        println!("\n{d}");
    }
}
