//! The chaos harness: seeded failures aimed at the sweep plane itself.
//!
//! In the spirit of the data-plane fault DSL ([`flowsim::faults`]), a
//! [`ChaosPlan`] is a deterministic function of its seed: each worker
//! draws a *fate* — die by SIGKILL, stall under SIGSTOP, or corrupt its
//! output stream — scheduled at one of its first few leases. The driver
//! consults the plan at lease time and inflicts the action after the
//! lease is written, so every injected failure lands while a cell is
//! in flight (the interesting window).
//!
//! The *schedule* is deterministic per seed; *which cell* a failure
//! interrupts depends on OS scheduling. That asymmetry is the point:
//! the dispatch plane must produce byte-identical output no matter
//! where the failures land, and the chaos proptests assert exactly
//! that.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What the harness does to a worker at one of its leases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// SIGKILL the worker right after the lease is written: the driver
    /// sees EOF mid-cell and must requeue.
    Kill,
    /// SIGSTOP the worker: the lease deadline must fire, the cell must
    /// be requeued, and repeat offenses must quarantine the worker.
    Stall,
    /// Tell the worker (via [`super::wire::ChaosDirective`]) to write
    /// seeded garbage instead of its response frame and exit(3): the
    /// driver sees a decode error and must quarantine.
    Garbage {
        /// Seed of the garbage bytes the worker will emit.
        seed: u64,
    },
}

impl ChaosAction {
    /// Stable label for summaries and trace events.
    pub fn label(self) -> &'static str {
        match self {
            Self::Kill => "kill",
            Self::Stall => "stall",
            Self::Garbage { .. } => "garbage",
        }
    }
}

/// A worker's drawn fate: an action inflicted at its `lease`-th lease
/// (0-based), or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fate {
    lease: u64,
    action: ChaosAction,
}

/// The seeded chaos schedule for one dispatch run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    seed: u64,
    fates: Vec<Option<Fate>>,
}

impl ChaosPlan {
    /// Draws the plan for `workers` workers. Each worker is afflicted
    /// with probability ~0.6, uniformly over the three actions, at one
    /// of its first two leases — so failures land mid-run, and runs
    /// where every worker dies (full in-process fallback) are possible
    /// and must still merge correctly.
    pub fn new(seed: u64, workers: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x63_68_61_6f_73_5f_76_31);
        let fates = (0..workers)
            .map(|w| {
                if rng.gen_bool(0.6) {
                    let lease = u64::from(rng.gen_bool(0.5));
                    let action = match rng.gen_range(0..3u8) {
                        0 => ChaosAction::Kill,
                        1 => ChaosAction::Stall,
                        _ => ChaosAction::Garbage {
                            seed: seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        },
                    };
                    Some(Fate { lease, action })
                } else {
                    None
                }
            })
            .collect();
        Self { seed, fates }
    }

    /// The plan's seed (for summaries).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The action to inflict when `worker` receives its `lease`-th
    /// lease (0-based), if any.
    pub fn action(&self, worker: usize, lease: u64) -> Option<ChaosAction> {
        self.fates
            .get(worker)
            .copied()
            .flatten()
            .filter(|f| f.lease == lease)
            .map(|f| f.action)
    }
}

/// The seeded garbage bytes a [`ChaosAction::Garbage`] worker emits —
/// shared by the worker (to produce) and tests (to predict). Biased
/// toward high bytes so a garbage prefix parses as an absurd frame
/// length rather than a small plausible one.
pub fn garbage_bytes(seed: u64, len: u32) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0x80..=0xFFu8)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many workers `plan` afflicts.
    fn afflicted(plan: &ChaosPlan) -> usize {
        plan.fates.iter().flatten().count()
    }

    /// Whether any afflicted worker draws `label` as its action.
    fn has_action(plan: &ChaosPlan, label: &str) -> bool {
        plan.fates
            .iter()
            .flatten()
            .any(|f| f.action.label() == label)
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for seed in 0..32u64 {
            let a = ChaosPlan::new(seed, 4);
            let b = ChaosPlan::new(seed, 4);
            for w in 0..4 {
                for lease in 0..4 {
                    assert_eq!(a.action(w, lease), b.action(w, lease));
                }
            }
        }
    }

    #[test]
    fn seeds_cover_every_action_and_quiet_plans_exist() {
        let mut kills = 0;
        let mut stalls = 0;
        let mut garbage = 0;
        let mut quiet = 0;
        for seed in 0..64u64 {
            let p = ChaosPlan::new(seed, 4);
            kills += usize::from(has_action(&p, "kill"));
            stalls += usize::from(has_action(&p, "stall"));
            garbage += usize::from(has_action(&p, "garbage"));
            quiet += usize::from(afflicted(&p) == 0);
        }
        assert!(kills > 0, "some seed must kill");
        assert!(stalls > 0, "some seed must stall");
        assert!(garbage > 0, "some seed must corrupt the wire");
        assert!(quiet > 0, "some seed must leave every worker alone");
    }

    #[test]
    fn fate_fires_at_exactly_one_lease() {
        for seed in 0..16u64 {
            let p = ChaosPlan::new(seed, 8);
            for w in 0..8 {
                let hits: Vec<u64> = (0..8).filter(|&l| p.action(w, l).is_some()).collect();
                assert!(hits.len() <= 1, "seed {seed} worker {w}: {hits:?}");
                if let Some(&l) = hits.first() {
                    assert!(l < 2, "fates land within the first two leases");
                }
            }
        }
    }

    #[test]
    fn garbage_bytes_are_seeded_and_high() {
        let a = garbage_bytes(9, 64);
        assert_eq!(a, garbage_bytes(9, 64));
        assert_ne!(a, garbage_bytes(10, 64));
        assert!(a.iter().all(|&b| b >= 0x80));
        assert_eq!(a.len(), 64);
    }
}
