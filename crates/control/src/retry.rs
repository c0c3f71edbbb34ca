//! Bounded exponential backoff, shared by every retry loop in the
//! workspace.
//!
//! Two consumers with different clocks use the same arithmetic:
//!
//! * [`resilient`](crate::resilient) *models* retries — backoff values
//!   are accounted as simulated milliseconds and must reproduce the
//!   pre-extraction traces bit for bit (the flaky-OCS and rollback
//!   goldens pin this);
//! * the `ft-bench` dispatch driver *sleeps* real wall-clock time
//!   before re-leasing a lost sweep cell to another worker.
//!
//! The schedule is therefore defined once, iteratively: attempt 1 runs
//! immediately, attempt `n > 1` is preceded by
//! `base * factor^(n-2)` milliseconds, computed by repeated
//! multiplication (not `powi`) so the floating-point results are
//! bit-identical to the historical inline loops. An optional cap bounds
//! each individual wait without perturbing the uncapped sequence.

use std::time::Duration;

/// A bounded exponential-backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Attempts allowed in total (>= 1). Attempt 1 is immediate.
    pub max_attempts: u32,
    /// Wait before the second attempt (ms).
    pub base_ms: f64,
    /// Multiplier applied to the wait after each failed attempt.
    pub factor: f64,
    /// Upper bound on any single wait (ms); `f64::INFINITY` disables
    /// the cap. The underlying geometric sequence keeps growing — the
    /// cap clamps only what is reported/slept.
    pub cap_ms: f64,
}

impl Backoff {
    /// An uncapped schedule (the shape `control::resilient` models).
    pub fn new(max_attempts: u32, base_ms: f64, factor: f64) -> Self {
        Self {
            max_attempts,
            base_ms,
            factor,
            cap_ms: f64::INFINITY,
        }
    }

    /// Returns the same schedule with each wait clamped to `cap_ms`.
    pub fn capped(self, cap_ms: f64) -> Self {
        Self { cap_ms, ..self }
    }

    /// Iterates the attempts of one retry episode.
    pub fn attempts(&self) -> Attempts {
        Attempts {
            next: 1,
            max: self.max_attempts,
            wait_ms: self.base_ms,
            factor: self.factor,
            cap_ms: self.cap_ms,
        }
    }

    /// The wait before `attempt` (1-based) in milliseconds: 0 for the
    /// first attempt, `min(base * factor^(attempt-2), cap)` after.
    /// Computed by repeated multiplication, exactly like
    /// [`attempts`](Self::attempts).
    fn wait_before_ms(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            return 0.0;
        }
        let mut wait = self.base_ms;
        for _ in 2..attempt {
            wait *= self.factor;
        }
        if self.cap_ms.is_finite() {
            wait.min(self.cap_ms)
        } else {
            wait
        }
    }

    /// The wait before `attempt` (1-based) as a [`Duration`] for
    /// real-time sleepers: zero for the first attempt, then the same
    /// milliseconds [`attempts`](Self::attempts) yields. Non-finite or
    /// negative waits collapse to zero.
    pub fn wait_before(&self, attempt: u32) -> Duration {
        let ms = self.wait_before_ms(attempt);
        if ms.is_finite() && ms > 0.0 {
            Duration::from_secs_f64(ms / 1e3)
        } else {
            Duration::ZERO
        }
    }
}

/// One attempt of a retry episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// 1-based attempt number.
    pub number: u32,
    /// Backoff to wait (or account) before this attempt; `None` for the
    /// first attempt, which runs immediately.
    pub wait_ms: Option<f64>,
}

/// Iterator over the attempts of a [`Backoff`] schedule, yielding each
/// attempt number with the wait that precedes it.
#[derive(Debug, Clone)]
pub struct Attempts {
    next: u32,
    max: u32,
    wait_ms: f64,
    factor: f64,
    cap_ms: f64,
}

impl Iterator for Attempts {
    type Item = Attempt;

    fn next(&mut self) -> Option<Attempt> {
        if self.next > self.max {
            return None;
        }
        let number = self.next;
        self.next += 1;
        let wait_ms = if number == 1 {
            None
        } else {
            let raw = self.wait_ms;
            self.wait_ms *= self.factor;
            Some(if self.cap_ms.is_finite() {
                raw.min(self.cap_ms)
            } else {
                raw
            })
        };
        Some(Attempt { number, wait_ms })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // `next` may already be past `max` (exhausted, or a
        // zero-attempt schedule): subtracting before adding the +1
        // would report one phantom attempt.
        let left = if self.next > self.max {
            0
        } else {
            (self.max - self.next) as usize + 1
        };
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_the_inline_loop_bitwise() {
        // The historical loop: backoff starts at base and multiplies
        // after every failed attempt.
        let (base, factor) = (10.0f64, 2.0f64);
        let mut expected = Vec::new();
        let mut backoff = base;
        for attempt in 1..=6u32 {
            if attempt > 1 {
                expected.push((attempt, Some(backoff)));
                backoff *= factor;
            } else {
                expected.push((attempt, None));
            }
        }
        let got: Vec<(u32, Option<f64>)> = Backoff::new(6, base, factor)
            .attempts()
            .map(|a| (a.number, a.wait_ms))
            .collect();
        assert_eq!(got.len(), expected.len());
        for ((gn, gw), (en, ew)) in got.iter().zip(&expected) {
            assert_eq!(gn, en);
            match (gw, ew) {
                (None, None) => {}
                (Some(g), Some(e)) => assert_eq!(g.to_bits(), e.to_bits()),
                other => panic!("wait mismatch at attempt {gn}: {other:?}"),
            }
        }
    }

    #[test]
    fn non_power_of_two_factor_is_still_iterative() {
        // 7.5 * 1.3^n accumulates rounding; powi would diverge from the
        // iterative product. Pin the iterative semantics.
        let b = Backoff::new(5, 7.5, 1.3);
        let mut wait = 7.5f64;
        for a in b.attempts().skip(1) {
            assert_eq!(
                a.wait_ms.expect("later attempts wait").to_bits(),
                wait.to_bits()
            );
            assert_eq!(b.wait_before_ms(a.number).to_bits(), wait.to_bits());
            wait *= 1.3;
        }
    }

    #[test]
    fn cap_clamps_individual_waits_only() {
        let b = Backoff::new(6, 10.0, 2.0).capped(35.0);
        let waits: Vec<f64> = b.attempts().filter_map(|a| a.wait_ms).collect();
        assert_eq!(waits, vec![10.0, 20.0, 35.0, 35.0, 35.0]);
        // Uncapped twin is untouched.
        let raw: Vec<f64> = Backoff::new(6, 10.0, 2.0)
            .attempts()
            .filter_map(|a| a.wait_ms)
            .collect();
        assert_eq!(raw, vec![10.0, 20.0, 40.0, 80.0, 160.0]);
    }

    #[test]
    fn attempt_budget_is_respected() {
        assert_eq!(Backoff::new(1, 10.0, 2.0).attempts().count(), 1);
        assert_eq!(Backoff::new(4, 10.0, 2.0).attempts().count(), 4);
        let first = Backoff::new(3, 10.0, 2.0)
            .attempts()
            .next()
            .expect("one attempt");
        assert_eq!(first.number, 1);
        assert_eq!(first.wait_ms, None);
    }

    #[test]
    fn zero_attempt_schedules_are_empty() {
        let b = Backoff::new(0, 10.0, 2.0);
        let mut it = b.attempts();
        assert_eq!(it.size_hint(), (0, Some(0)));
        assert_eq!(it.next(), None);
        assert_eq!(it.size_hint(), (0, Some(0)));
        assert_eq!(b.attempts().count(), 0);
        // wait_before_* stay well-defined even though no attempt runs.
        assert_eq!(b.wait_before_ms(1), 0.0);
        assert_eq!(b.wait_before(1), Duration::ZERO);
    }

    #[test]
    fn size_hint_tracks_the_iterator_exactly() {
        for max in [0u32, 1, 2, 5] {
            let mut it = Backoff::new(max, 10.0, 2.0).attempts();
            let mut left = max as usize;
            loop {
                assert_eq!(it.size_hint(), (left, Some(left)), "max={max}");
                if it.next().is_none() {
                    break;
                }
                left -= 1;
            }
            // Exhausted iterators keep reporting empty.
            assert_eq!(it.size_hint(), (0, Some(0)), "max={max}");
            assert_eq!(it.next(), None);
        }
    }

    #[test]
    fn multiplier_overflow_saturates_to_infinity_not_panic() {
        // f64::MAX * 10 overflows to +inf; the schedule must keep
        // yielding (inf waits), the cap must still clamp, and the
        // Duration view must collapse inf to zero rather than panic.
        let b = Backoff::new(5, f64::MAX, 10.0);
        let waits: Vec<f64> = b.attempts().filter_map(|a| a.wait_ms).collect();
        assert_eq!(waits.len(), 4);
        assert_eq!(waits[0], f64::MAX);
        assert!(waits[1..].iter().all(|w| w.is_infinite()));
        for attempt in 2..=5 {
            assert_eq!(
                b.wait_before_ms(attempt).to_bits(),
                waits[attempt as usize - 2].to_bits(),
                "attempts() and wait_before_ms must agree at attempt {attempt}"
            );
        }
        assert_eq!(b.wait_before(3), Duration::ZERO, "inf collapses to zero");

        let capped: Vec<f64> = b
            .capped(500.0)
            .attempts()
            .filter_map(|a| a.wait_ms)
            .collect();
        assert!(capped.iter().all(|&w| w == 500.0), "{capped:?}");
    }

    #[test]
    fn durations_for_real_time_sleepers() {
        let b = Backoff::new(5, 100.0, 2.0).capped(250.0);
        assert_eq!(b.wait_before(1), Duration::ZERO);
        assert_eq!(b.wait_before(2), Duration::from_millis(100));
        assert_eq!(b.wait_before(3), Duration::from_millis(200));
        assert_eq!(b.wait_before(4), Duration::from_millis(250));
        // Uncapped infinite values never panic Duration::from_secs_f64.
        let unbounded = Backoff::new(u32::MAX, f64::MAX, f64::MAX);
        assert_eq!(unbounded.wait_before(1), Duration::ZERO);
    }
}
