//! Deterministic greedy clustering of links by signature distance.

use crate::signature::LinkSignature;

/// One cluster: the representative population index and its members.
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// Index (into the population list) of the representative — always
    /// the first, lowest-link-id member.
    pub rep: usize,
    /// All member population indices, ascending; `members[0] == rep`.
    pub members: Vec<usize>,
}

/// The clustering of a population list.
#[derive(Debug, Clone)]
pub struct Clusters {
    /// Clusters in creation (= first-member) order.
    pub clusters: Vec<ClusterInfo>,
    /// `assign[i]` = index into `clusters` for population `i`.
    pub assign: Vec<usize>,
}

impl Clusters {
    /// Representative population index for population `i`.
    pub fn rep_of(&self, i: usize) -> usize {
        self.clusters[self.assign[i]].rep
    }
}

/// Greedy input-ordered clustering: walk populations in link-id order
/// (the order [`crate::populations`] produces); each joins the first
/// existing cluster whose **representative** is within `threshold`
/// signature distance, else founds a new cluster with itself as
/// representative.
///
/// Comparing against the representative (not the nearest member) keeps
/// the guarantee the proptests pin: every member is within `threshold`
/// of its cluster's representative. `threshold = 0.0` clusters only
/// bucket-identical links; `enabled = false` makes every link a
/// singleton (the exhaustive, clustering-free pipeline).
pub fn cluster(sigs: &[LinkSignature], threshold: f64, enabled: bool) -> Clusters {
    let mut clusters: Vec<ClusterInfo> = Vec::new();
    let mut assign = Vec::with_capacity(sigs.len());
    for (i, sig) in sigs.iter().enumerate() {
        let joined = enabled
            .then(|| {
                clusters
                    .iter()
                    .position(|c| sigs[c.rep].distance(sig) <= threshold)
            })
            .flatten();
        match joined {
            Some(c) => {
                clusters[c].members.push(i);
                assign.push(c);
            }
            None => {
                assign.push(clusters.len());
                clusters.push(ClusterInfo {
                    rep: i,
                    members: vec![i],
                });
            }
        }
    }
    Clusters { clusters, assign }
}

/// Human-facing compression summary: `(loaded links, clusters)`.
pub fn compression(clusters: &Clusters) -> (usize, usize) {
    (clusters.assign.len(), clusters.clusters.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LinkPop, PopFlow};
    use crate::signature::signatures;
    use netgraph::{Graph, LinkId, NodeKind};

    fn parallel_links(n: usize) -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::EdgeSwitch, "a");
        let b = g.add_node(NodeKind::EdgeSwitch, "b");
        for _ in 0..n {
            g.add_directed_link(a, b, 10.0);
        }
        g
    }

    fn pops(specs: &[&[(f64, f64)]]) -> (Graph, Vec<LinkPop>) {
        let g = parallel_links(specs.len());
        let pops = specs
            .iter()
            .enumerate()
            .map(|(l, flows)| LinkPop {
                link: LinkId(l as u32),
                flows: flows
                    .iter()
                    .enumerate()
                    .map(|(i, &(bytes, start))| PopFlow {
                        idx: i,
                        bytes,
                        start,
                        access_gbps: 10.0,
                    })
                    .collect(),
            })
            .collect();
        (g, pops)
    }

    #[test]
    fn identical_links_collapse_to_one_cluster() {
        let flows: &[(f64, f64)] = &[(1e6, 0.0), (4e6, 0.1)];
        let (g, pops) = pops(&[flows, flows, flows, flows]);
        let sigs = signatures(&g, &pops);
        let c = cluster(&sigs, 0.0, true);
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.clusters[0].rep, 0);
        assert_eq!(c.clusters[0].members, vec![0, 1, 2, 3]);
        assert_eq!(c.rep_of(3), 0);
    }

    #[test]
    fn disabled_clustering_makes_singletons() {
        let flows: &[(f64, f64)] = &[(1e6, 0.0)];
        let (g, pops) = pops(&[flows, flows, flows]);
        let sigs = signatures(&g, &pops);
        let c = cluster(&sigs, 0.0, false);
        assert_eq!(c.clusters.len(), 3);
        for (i, info) in c.clusters.iter().enumerate() {
            assert_eq!(info.rep, i);
            assert_eq!(info.members, vec![i]);
        }
    }

    #[test]
    fn members_stay_within_threshold_of_representative() {
        let (g, pops) = pops(&[
            &[(1e6, 0.0), (1e6, 0.0)],
            &[(1e6, 0.0), (64e6, 0.0)], // distance 0.5 from the first
            &[(1e6, 0.0), (1e6, 0.0)],
        ]);
        let sigs = signatures(&g, &pops);
        let c = cluster(&sigs, 0.25, true);
        assert_eq!(c.clusters.len(), 2, "0.5 > 0.25 keeps link 1 apart");
        for info in &c.clusters {
            for &m in &info.members {
                assert!(sigs[info.rep].distance(&sigs[m]) <= 0.25);
            }
        }
        // A looser threshold merges everything.
        let c = cluster(&sigs, 0.5, true);
        assert_eq!(c.clusters.len(), 1);
    }
}
