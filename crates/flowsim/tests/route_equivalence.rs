//! Pinning tests for the failure-epoch routing fix: the provider's
//! switch-level masked routing (mask failed links between the ingress
//! and egress switches, splice surviving uplinks, park on a dead
//! uplink) must yield exactly the path sets of the **server-level
//! oracle** — a masked Yen run per server pair — on mini
//! topologies, whether a switch pair's entry comes from the shared
//! table or from the pairs the provider fills on first use.

use flowsim::provider::{MptcpProvider, PathProvider};
use flowsim::sim::FlowSpec;
use flowsim::FailedLinks;
use netgraph::{yen::Yen, Graph, NodeId, Path, PathArena};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::SharedRouteTable;
use std::sync::Arc;
use topology::ClosParams;

/// The server-level oracle: a masked Yen run between the servers.
fn oracle(
    yen: &mut Yen,
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    failed: &FailedLinks,
    k: usize,
) -> Vec<Path> {
    yen.paths_avoiding(g, src, dst, k, |l| failed.is_down(l))
}

fn spec(id: u64, src: NodeId, dst: NodeId) -> FlowSpec {
    FlowSpec {
        id,
        src,
        dst,
        bytes: 1.0,
        start: 0.0,
    }
}

fn routed_paths(
    p: &mut MptcpProvider,
    g: &Graph,
    arena: &mut PathArena,
    failed: &FailedLinks,
    sp: &FlowSpec,
) -> Vec<Path> {
    p.route(g, arena, failed, sp).map_or(Vec::new(), |r| {
        r.path_ids.iter().map(|&i| arena.get(i).clone()).collect()
    })
}

/// Three providers per `k`: over an empty table (every switch pair
/// filled on first use), over the full table, and over a table covering
/// every other ingress pair, so one provider serves table pairs and
/// filled pairs in the same failure epochs.
#[test]
fn provider_matches_server_level_oracle_under_random_failures() {
    let clos = ClosParams::mini().build();
    let g = &clos.net.graph;
    let servers = g.servers();
    let all_cables = g.switch_cables();
    let mut yen = Yen::new(g);
    let (mut in_half, mut outside_half) = (0usize, 0usize);
    for k in [4usize, 8] {
        let full = Arc::new(SharedRouteTable::build(g, k));
        let every_other: Vec<_> = SharedRouteTable::ingress_pairs(g)
            .into_iter()
            .step_by(2)
            .collect();
        let half = Arc::new(SharedRouteTable::build_for_pairs(g, k, &every_other));
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed ^ k as u64);
        for trial in 0..6usize {
            let mut failed = FailedLinks::new(g.link_count());
            let mut chosen = all_cables.clone();
            chosen.shuffle(&mut rng);
            for &l in chosen.iter().take(trial * 2) {
                failed.fail(l);
                if let Some(r) = g.link(l).reverse {
                    failed.fail(r);
                }
            }
            let mut providers = [
                ("empty", MptcpProvider::new(k, true)),
                ("full", MptcpProvider::with_shared(full.clone(), true)),
                ("half", MptcpProvider::with_shared(half.clone(), true)),
            ];
            let mut arena = PathArena::new();
            // Inter-rack, intra-rack, and random pairs.
            let mut pairs = vec![
                (servers[0], servers[1]),
                (servers[0], servers[servers.len() - 1]),
                (servers[2], servers[3]),
            ];
            for _ in 0..8 {
                let a = servers[rng.gen_range(0..servers.len())];
                let b = servers[rng.gen_range(0..servers.len())];
                if a != b {
                    pairs.push((a, b));
                }
            }
            for (id, &(src, dst)) in pairs.iter().enumerate() {
                let si = g.server_uplink_switch(src).unwrap();
                let di = g.server_uplink_switch(dst).unwrap();
                if si != di {
                    if half.contains_pair(si, di) {
                        in_half += 1;
                    } else {
                        outside_half += 1;
                    }
                }
                let want = oracle(&mut yen, g, src, dst, &failed, k);
                let sp = spec(id as u64, src, dst);
                for (name, p) in &mut providers {
                    assert_eq!(
                        routed_paths(p, g, &mut arena, &failed, &sp),
                        want,
                        "{name} table diverges from the oracle (k={k}, trial={trial})"
                    );
                }
            }
            // Recovery epoch: the same providers must match a fresh
            // no-failure oracle once every link is back up.
            failed.set_all_up();
            let (src, dst) = (servers[0], servers[servers.len() - 1]);
            let want = oracle(&mut yen, g, src, dst, &failed, k);
            let sp = spec(99, src, dst);
            for (name, p) in &mut providers {
                assert_eq!(routed_paths(p, g, &mut arena, &failed, &sp), want, "{name}");
            }
        }
    }
    assert!(
        in_half > 0 && outside_half > 0,
        "{in_half} / {outside_half}"
    );
}

#[test]
fn dead_uplink_parks_exactly_like_the_oracle() {
    let clos = ClosParams::mini().build();
    let g = &clos.net.graph;
    let servers = g.servers();
    let (src, dst) = (servers[0], servers[servers.len() - 1]);
    let si = g.server_uplink_switch(src).unwrap();
    let up = g.find_link(src, si).unwrap();
    let mut failed = FailedLinks::new(g.link_count());
    failed.fail(up);
    let mut yen = Yen::new(g);
    let k = 4;
    let table = Arc::new(SharedRouteTable::build(g, k));
    let mut arena = PathArena::new();
    for provider in [
        &mut MptcpProvider::new(k, true),
        &mut MptcpProvider::with_shared(table, true),
    ] {
        // src's only outgoing link is dead: oracle finds nothing, the
        // provider parks.
        assert!(oracle(&mut yen, g, src, dst, &failed, k).is_empty());
        assert!(provider
            .route(g, &mut arena, &failed, &spec(0, src, dst))
            .is_none());
        // The reverse direction never crosses the dead directed link.
        let want = oracle(&mut yen, g, dst, src, &failed, k);
        assert!(!want.is_empty());
        assert_eq!(
            routed_paths(provider, g, &mut arena, &failed, &spec(1, dst, src)),
            want
        );
    }
}
