//! The §5.1 synthetic traffic patterns and Table 1's clustered traffic.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// traffic-1 — Permutation: "every server sends a single flow to a unique
/// server other than itself at random" (a random derangement), creating
/// uniform network-wide traffic.
pub fn permutation(num_servers: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(num_servers >= 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Sattolo's algorithm produces a uniform cyclic permutation, which is
    // a derangement by construction.
    let mut perm: Vec<usize> = (0..num_servers).collect();
    for i in (1..num_servers).rev() {
        let j = rand::Rng::gen_range(&mut rng, 0..i);
        perm.swap(i, j);
    }
    (0..num_servers).map(|i| (i, perm[i])).collect()
}

/// traffic-2 — Pod stride: "every server sends a single flow to its
/// counterpart in the next Pod", creating heavy core contention.
pub fn pod_stride(num_pods: usize, servers_per_pod: usize) -> Vec<(usize, usize)> {
    assert!(num_pods >= 2);
    let mut pairs = Vec::with_capacity(num_pods * servers_per_pod);
    for p in 0..num_pods {
        let q = (p + 1) % num_pods;
        for s in 0..servers_per_pod {
            pairs.push((p * servers_per_pod + s, q * servers_per_pod + s));
        }
    }
    pairs
}

/// traffic-3 — Hot spot: "every 100 servers form a cluster, in which one
/// server broadcasts to all the others" (the multicast phase of machine
/// learning jobs). A final partial cluster is kept if it has >= 2 servers.
pub fn hot_spot(num_servers: usize, cluster: usize) -> Vec<(usize, usize)> {
    assert!(cluster >= 2);
    let mut pairs = Vec::new();
    let mut base = 0;
    while base < num_servers {
        let end = (base + cluster).min(num_servers);
        if end - base >= 2 {
            for d in base + 1..end {
                pairs.push((base, d));
            }
        }
        base = end;
    }
    pairs
}

/// traffic-4 — Many-to-many: "every 20 servers form a cluster with
/// all-to-all traffic" (the shuffle phase of MapReduce). Also Table 1's
/// clustered traffic for arbitrary cluster sizes ("we pack consecutive
/// servers into clusters and create all-to-all traffic in each cluster").
pub fn clustered_all_to_all(num_servers: usize, cluster: usize) -> Vec<(usize, usize)> {
    assert!(cluster >= 2);
    let mut pairs = Vec::new();
    let mut base = 0;
    while base < num_servers {
        let end = (base + cluster).min(num_servers);
        if end - base >= 2 {
            for s in base..end {
                for d in base..end {
                    if s != d {
                        pairs.push((s, d));
                    }
                }
            }
        }
        base = end;
    }
    pairs
}

/// Caps each server's *outgoing* flow count at `max_out` by random
/// subsampling (per-server, seeded). Keeps every server active and the
/// locality structure intact while bounding LP/simulation cost.
pub fn sample_peers(pairs: Vec<(usize, usize)>, max_out: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(max_out >= 1);
    let mut by_src: std::collections::BTreeMap<usize, Vec<(usize, usize)>> =
        std::collections::BTreeMap::new();
    for p in pairs {
        by_src.entry(p.0).or_default().push(p);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (_, mut v) in by_src {
        v.shuffle(&mut rng);
        v.truncate(max_out);
        v.sort();
        out.extend(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_derangement() {
        let pairs = permutation(64, 7);
        assert_eq!(pairs.len(), 64);
        let mut dsts = std::collections::HashSet::new();
        for &(s, d) in &pairs {
            assert_ne!(s, d);
            assert!(dsts.insert(d), "destination {d} repeated");
        }
    }

    #[test]
    fn permutation_is_seeded() {
        assert_eq!(permutation(32, 1), permutation(32, 1));
        assert_ne!(permutation(32, 1), permutation(32, 2));
    }

    #[test]
    fn pod_stride_hits_next_pod_same_slot() {
        let pairs = pod_stride(4, 16);
        assert_eq!(pairs.len(), 64);
        assert!(pairs.contains(&(0, 16)));
        assert!(pairs.contains(&(63, 15)), "last pod wraps to pod 0");
        for &(s, d) in &pairs {
            assert_eq!(s % 16, d % 16, "same slot index");
            assert_eq!((s / 16 + 1) % 4, d / 16, "next pod");
        }
    }

    #[test]
    fn hot_spot_is_one_to_many() {
        let pairs = hot_spot(250, 100);
        // clusters: 100 + 100 + 50 -> 99 + 99 + 49 flows.
        assert_eq!(pairs.len(), 99 + 99 + 49);
        assert!(pairs.iter().filter(|&&(s, _)| s == 0).count() == 99);
        assert!(pairs.iter().all(|&(s, d)| s / 100 == d / 100));
    }

    #[test]
    fn all_to_all_counts() {
        let pairs = clustered_all_to_all(40, 20);
        assert_eq!(pairs.len(), 2 * 20 * 19);
        let pairs = clustered_all_to_all(8, 8);
        assert_eq!(pairs.len(), 8 * 7);
    }

    #[test]
    fn peer_sampling_caps_out_degree() {
        let pairs = clustered_all_to_all(60, 20);
        let sampled = sample_peers(pairs, 5, 3);
        assert_eq!(sampled.len(), 60 * 5);
        let mut out = std::collections::HashMap::new();
        for &(s, d) in &sampled {
            *out.entry(s).or_insert(0usize) += 1;
            assert_eq!(s / 20, d / 20, "locality preserved");
        }
        assert!(out.values().all(|&c| c == 5));
        assert_eq!(out.len(), 60, "every server stays active");
    }
}
