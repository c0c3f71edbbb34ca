//! Weighted max-min fair allocation over fixed paths
//! (progressive filling / water filling).
//!
//! Entities are abstract "rate receivers" that each occupy a set of links
//! with a weight. For plain TCP an entity is a flow on its single path
//! with weight 1; for MPTCP each subflow is an entity (weight 1 for the
//! uncoupled model, `1/k` for a coupled model that emulates LIA's
//! bottleneck fairness).
//!
//! The algorithm repeatedly finds the most contended link (smallest
//! remaining capacity per unit of active weight), freezes every active
//! entity crossing it at `weight * fair_share`, and subtracts the
//! capacity they consume. This is the textbook max-min allocation and is
//! exact (not an approximation).

/// One rate receiver: a weight and the link indices it traverses.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Relative weight at each bottleneck (usually 1.0).
    pub weight: f64,
    /// Indices into the capacity vector, e.g. `LinkId::idx()` values.
    /// Must be non-empty.
    pub links: Vec<usize>,
}

/// Computes the weighted max-min fair rate for each entity.
///
/// `capacity[l]` is the capacity of link `l`. Entities with an empty link
/// set are rejected (a flow always traverses at least its two NIC links).
///
/// This is the textbook loop, kept as the oracle: it rebuilds all state
/// per call and scans every live link every round. Production callers
/// run [`IncrementalAllocator`](crate::IncrementalAllocator), which is
/// bit-identical to it on the equivalent entity list.
///
/// Complexity: O(rounds × Σ|links|), rounds ≤ number of distinct
/// bottlenecks ≤ number of links.
pub fn weighted_max_min(capacity: &[f64], entities: &[Entity]) -> Vec<f64> {
    for e in entities {
        assert!(!e.links.is_empty(), "entity with empty path");
        assert!(e.weight > 0.0, "entity weight must be positive");
    }
    let mut rates = vec![0.0; entities.len()];
    if entities.is_empty() {
        return rates;
    }
    let mut rem_cap = capacity.to_vec();
    let mut act_w = vec![0.0f64; capacity.len()];
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); capacity.len()];
    for (i, e) in entities.iter().enumerate() {
        for &l in &e.links {
            act_w[l] += e.weight;
            users[l].push(i);
        }
    }
    let mut frozen = vec![false; entities.len()];
    let mut remaining = entities.len();
    let mut live_links: Vec<usize> = (0..capacity.len()).filter(|&l| act_w[l] > 1e-12).collect();
    while remaining > 0 {
        let mut min_share = f64::INFINITY;
        for &l in &live_links {
            if act_w[l] > 1e-12 {
                let share = rem_cap[l].max(0.0) / act_w[l];
                if share < min_share {
                    min_share = share;
                }
            }
        }
        if !min_share.is_finite() {
            break;
        }
        // Freeze every active entity crossing *any* link at the minimum
        // share (simultaneous bottlenecks resolve in one round).
        let threshold = min_share * (1.0 + 1e-12) + 1e-15;
        let mut victims: Vec<usize> = Vec::new();
        for &l in &live_links {
            if act_w[l] > 1e-12 && rem_cap[l].max(0.0) / act_w[l] <= threshold {
                for &i in &users[l] {
                    if !frozen[i] {
                        frozen[i] = true;
                        victims.push(i);
                    }
                }
            }
        }
        for i in victims {
            let rate = entities[i].weight * min_share;
            rates[i] = rate;
            remaining -= 1;
            for &l in &entities[i].links {
                rem_cap[l] -= rate;
                act_w[l] -= entities[i].weight;
            }
        }
        live_links.retain(|&l| act_w[l] > 1e-12);
    }
    rates
}

/// Convenience: unweighted max-min over paths given as link-index lists.
pub fn max_min(capacity: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    let entities: Vec<Entity> = paths
        .iter()
        .map(|p| Entity {
            weight: 1.0,
            links: p.clone(),
        })
        .collect();
    weighted_max_min(capacity, &entities)
}

/// Verifies that an allocation is feasible (no link above capacity, with
/// tolerance) and max-min justified (every entity crosses at least one
/// saturated link). Used by tests and debug assertions.
pub fn verify_max_min(capacity: &[f64], entities: &[Entity], rates: &[f64]) -> Result<(), String> {
    let mut load = vec![0.0; capacity.len()];
    for (e, &r) in entities.iter().zip(rates) {
        for &l in &e.links {
            load[l] += r;
        }
    }
    for (l, (&ld, &cap)) in load.iter().zip(capacity).enumerate() {
        if ld > cap * (1.0 + 1e-9) + 1e-9 {
            return Err(format!("link {l} overloaded: {ld} > {cap}"));
        }
    }
    for (i, e) in entities.iter().enumerate() {
        let bottlenecked = e
            .links
            .iter()
            .any(|&l| load[l] >= capacity[l] * (1.0 - 1e-6) - 1e-9);
        if !bottlenecked && rates[i] > 0.0 {
            return Err(format!("entity {i} is not bottlenecked anywhere"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_shared_equally() {
        let rates = max_min(&[10.0], &[vec![0], vec![0]]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn classic_parking_lot() {
        // Links A(10) and B(10); flow 0 uses A+B, flow 1 uses A, flow 2
        // uses B. Max-min: everyone gets 5.
        let rates = max_min(&[10.0, 10.0], &[vec![0, 1], vec![0], vec![1]]);
        for r in rates {
            assert!((r - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unbottlenecked_flow_takes_spare() {
        // Flow 0 on tight link (2), flow 1 alone on wide link (10).
        let rates = max_min(&[2.0, 10.0], &[vec![0], vec![1]]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn weights_shift_shares() {
        let entities = vec![
            Entity {
                weight: 3.0,
                links: vec![0],
            },
            Entity {
                weight: 1.0,
                links: vec![0],
            },
        ];
        let rates = weighted_max_min(&[8.0], &entities);
        assert!((rates[0] - 6.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
        verify_max_min(&[8.0], &entities, &rates).unwrap();
    }

    #[test]
    fn multi_bottleneck_cascade() {
        // Flow 0: links 0,1. Flow 1: link 0. Flow 2: link 1.
        // cap0 = 4 (tight), cap1 = 10.
        // Round 1: link 0 share 2 -> flows 0,1 frozen at 2.
        // Round 2: link 1 has 8 left for flow 2 -> 8.
        let rates = max_min(&[4.0, 10.0], &[vec![0, 1], vec![0], vec![1]]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
        assert!((rates[2] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_is_fine_and_verifier_catches_overload() {
        assert!(max_min(&[1.0], &[]).is_empty());
        let entities = vec![Entity {
            weight: 1.0,
            links: vec![0],
        }];
        assert!(verify_max_min(&[1.0], &entities, &[2.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn rejects_empty_paths() {
        max_min(&[1.0], &[vec![]]);
    }
}
