//! `decomp_k32`: `bigsim`'s all-modes pass re-assembled from public
//! calls — decompose a seeded permutation on a fat-tree and on its
//! flat-tree Clos / local / global conversions.
//!
//! Set-up (topology build, `(m,n)` profiling, instantiation, input
//! generation) runs before the first routing call, so `setup_s` covers
//! exactly that; `bigsim` interleaves the same calls, which changes no
//! output.

use crate::report::{self, Obj};
use crate::trace::{ProviderTally, TimedProvider, Tracer};
use crate::Pass;
use decomp::{DecompConfig, DecompOutcome};
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{EcmpProvider, FlowSpec};
use ft_bench::experiments::{bigsim, common};
use topology::DcNetwork;

/// Fat-tree arity of the measured pass. `bigsim --full` runs k=32
/// (8192 servers, ≈28 s and ≈750 MB a pass); k=24 (3456 servers) keeps
/// the same layer mix — ECMP route + populate first, sampled `(m,n)`
/// profiling second — at ≈4 s a pass, so a run can repeat it.
pub const K: usize = 24;

/// One network of the pass with its generated input.
pub struct Net {
    pub name: String,
    pub net: DcNetwork,
    pub flows: Vec<FlowSpec>,
}

/// Builds every network and its permutation input.
pub fn setup(k: usize, seed: u64, tr: &mut Tracer) -> Vec<Net> {
    let clos = topology::fat_tree(k);
    let fat = tr.span("topology.build", |_| clos.build().net);
    let (m, n) = tr.span("core.profile", |_| {
        flat_tree::profile::best_mn(&clos).expect("fat-tree layouts are profilable")
    });
    if tr.on() {
        // `best_mn` reports only the winner; count the candidates with a
        // second, attribution-only sweep.
        let candidates = tr.attribution("core.profile_candidates", |_| {
            flat_tree::profile::profile_mn(&clos).len()
        });
        tr.count("core.profile_candidates", candidates as f64);
    }
    let ft = tr.span("topology.build", |_| {
        FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("profiled params are valid")
    });
    let mut nets = vec![("fat-tree".to_string(), fat)];
    for mode in [PodMode::Clos, PodMode::Local, PodMode::Global] {
        let inst = tr.span("core.instantiate", |_| {
            ft.instantiate(&ModeAssignment::uniform(ft.pods(), mode))
        });
        nets.push((format!("flat-tree/{}", mode.tag()), inst.net));
    }
    tr.span("traffic.generate", |_| {
        nets.into_iter()
            .map(|(name, net)| {
                let pairs = traffic::patterns::permutation(net.num_servers(), seed);
                let flows = common::flow_specs(&net, &pairs, bigsim::FLOW_BYTES);
                Net { name, net, flows }
            })
            .collect()
    })
}

/// Decomposes one network: the measured call, then (traced only) the
/// attribution calls that split it by stage.
fn decompose(n: &Net, tr: &mut Tracer, tally: &mut ProviderTally) -> DecompOutcome {
    let g = &n.net.graph;
    let cfg = DecompConfig::default();
    let out = tr.span("decomp.decompose", |tr| {
        if tr.on() {
            let mut p = TimedProvider::new(EcmpProvider::new());
            let out = decomp::decompose_with_provider(g, &n.flows, &cfg, &mut p);
            tr.fold("provider.route", p.tally.secs);
            tally.absorb(p.tally);
            out
        } else {
            decomp::decompose_with_provider(g, &n.flows, &cfg, &mut EcmpProvider::new())
        }
    });
    let out = out.expect("permutation workload is valid and single-path");
    if tr.on() {
        tr.attribution("decomp.stages", |tr| {
            let pops = tr.span("decomp.populate", |tr| {
                let mut p = TimedProvider::new(EcmpProvider::new());
                let r = decomp::populations(g, &n.flows, &mut p);
                tr.fold("provider.route", p.tally.secs);
                r
            });
            let (pops, _) = pops.expect("validated above");
            let sigs = tr.span("decomp.sign", |_| decomp::signatures(g, &pops));
            let clusters = tr.span("decomp.cluster", |_| {
                decomp::cluster(&sigs, cfg.threshold, cfg.clustering)
            });
            tr.span("decomp.linksim", |_| {
                for info in &clusters.clusters {
                    let pop = &pops[info.rep];
                    decomp::simulate_link_local(g.link(pop.link).capacity_gbps, pop)
                        .expect("link-local populations are valid");
                }
            });
        });
    }
    out
}

pub fn run(seed: u64, trace: bool, perturb: bool) -> Pass {
    run_at(K, seed, trace, perturb)
}

fn run_at(k: usize, seed: u64, trace: bool, perturb: bool) -> Pass {
    let mut tr = Tracer::new(trace);
    let (nets, setup_s) = crate::timed_setup(&mut tr, |tr| setup(k, seed, tr));
    let routed_from = tr.now();
    let mut tally = ProviderTally::default();
    let mut outs: Vec<DecompOutcome> = nets
        .iter()
        .map(|n| decompose(n, &mut tr, &mut tally))
        .collect();
    let wall_s = setup_s + tr.now() - routed_from;

    if perturb {
        report::perturb(&mut outs[0].result.records);
    }
    let flows: usize = outs.iter().map(|o| o.result.completed_count()).sum();
    let units: usize = outs.iter().map(|o| o.result.records.len()).sum();
    let check = report::array(&nets.iter().zip(&outs).collect::<Vec<_>>(), |(n, o)| {
        let s = o.stats;
        Obj::default()
            .str("name", &n.name)
            .raw(
                "stats",
                format!(
                    "[{},{},{},{},{}]",
                    s.flows, s.unroutable, s.loaded_links, s.clusters, s.sim_flows
                ),
            )
            .raw(
                "blocks",
                report::array(&report::block_digests(&o.result.records, true), |d| {
                    report::quote(d)
                }),
            )
            .raw(
                "unfinished",
                report::array(&report::unfinished(&o.result.records), |i| i.to_string()),
            )
            .finish()
    });

    let mut pass = Pass::new(
        wall_s,
        setup_s,
        flows as f64,
        nets.len() as f64,
        units,
        check,
    );
    if trace {
        let l = &mut pass.layers;
        crate::setup_layers(l, &tr);
        let populate_self = tr.self_total("decomp.populate");
        let stages = populate_self
            + tr.total("decomp.sign")
            + tr.total("decomp.cluster")
            + tr.total("decomp.linksim");
        l.insert("decomp.populate_s", populate_self);
        l.insert("decomp.sign_s", tr.total("decomp.sign"));
        l.insert("decomp.cluster_s", tr.total("decomp.cluster"));
        l.insert("decomp.linksim_s", tr.total("decomp.linksim"));
        l.insert(
            "decomp.aggregate_s",
            tr.self_total("decomp.decompose") - stages,
        );
        let sum = |f: fn(&decomp::DecompStats) -> usize| -> f64 {
            outs.iter().map(|o| f(&o.stats) as f64).sum()
        };
        let (loaded, clusters) = (sum(|s| s.loaded_links), sum(|s| s.clusters));
        l.insert("decomp.loaded_links", loaded);
        l.insert("decomp.clusters", clusters);
        l.insert("decomp.sim_flows", sum(|s| s.sim_flows));
        l.insert("decomp.compression", loaded / clusters);
        crate::provider_layers(l, &tally, tr.rss_growth("decomp.decompose"));
        pass.finish_trace(&tr);
    }
    pass
}

/// The fidelity check: the re-assembled pipeline at `bigsim --smoke`
/// arity, summarised exactly as `bigsim` summarises a network, must
/// serialize byte for byte like `bigsim::run`.
pub fn fidelity(seed: u64) -> Result<(), String> {
    let scale = ft_bench::Scale {
        smoke: true,
        seed,
        ..ft_bench::Scale::default()
    };
    let k = bigsim::arity(scale);
    let mut tr = Tracer::new(false);
    let nets = setup(k, seed, &mut tr);
    let mut tally = ProviderTally::default();
    let points = nets
        .iter()
        .map(|n| {
            let out = decompose(n, &mut tr, &mut tally);
            point(n, &out)
        })
        .collect();
    let ours = bigsim::Output { k, seed, points };
    let ours = serde_json::to_string(&ours).map_err(|e| e.to_string())?;
    let theirs = serde_json::to_string(&bigsim::run(scale)).map_err(|e| e.to_string())?;
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "re-assembled pipeline differs from bigsim::run at k={k}:\n ours  {ours}\n bigsim {theirs}"
        ))
    }
}

fn point(n: &Net, out: &DecompOutcome) -> bigsim::Point {
    let fcts = out.result.sorted_fcts();
    let (_, _, p50, _, max, mean) = ft_bench::report::summary(&fcts);
    bigsim::Point {
        network: n.name.clone(),
        servers: n.net.num_servers(),
        flows: n.flows.len(),
        completed: fcts.len(),
        loaded_links: out.stats.loaded_links,
        clusters: out.stats.clusters,
        sim_flows: out.stats.sim_flows,
        mean_fct: mean,
        p50_fct: p50,
        p99_fct: ft_bench::report::percentile(&fcts, 99.0),
        max_fct: max,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reassembled_pipeline_matches_bigsim_smoke() {
        super::fidelity(1).expect("byte-identical to bigsim::run");
    }

    #[test]
    fn tracing_does_not_change_the_output() {
        let plain = super::run_at(8, 3, false, false);
        let traced = super::run_at(8, 3, true, false);
        assert_eq!(plain.check, traced.check);
        assert!(traced.layers["provider.route_calls"] > 0.0);
    }
}
