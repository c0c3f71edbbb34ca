//! An HDR-style log-bucketed [`Histogram`], a plain struct owned by
//! whoever is measuring — no globals, no atomics, no trait objects.

use serde::{Deserialize, Serialize};

/// Sub-buckets per power of two. 16 gives <= 6.25% relative bucket
/// width — HDR-histogram-like precision at 2 decimal significant
/// digits, with pure integer indexing.
const SUBS: usize = 16;
/// Binary exponents covered: 2^-64 .. 2^64. Values outside clamp.
const MIN_EXP: i32 = -64;
const MAX_EXP: i32 = 64;

/// A log-bucketed histogram of non-negative `f64` samples.
///
/// Layout: one underflow bucket for zero (and sub-2^-64) values, then
/// 16 linear sub-buckets per binary order of magnitude — the
/// classic HDR scheme, sized for the ranges this workspace records
/// (seconds, milliseconds, rates, utilizations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; 1 + ((MAX_EXP - MIN_EXP) as usize) * SUBS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn index(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0; // zero / negative / NaN land in the underflow bucket
        }
        // `log2().floor()` can round *up* for v = 2^k · (1 - ε) (the
        // nearest double to log2(v) is exactly k), which would put v in a
        // bucket whose lower bound exceeds v. Step down when that happens
        // so bucket lower bounds are true lower bounds.
        let mut exp = v.log2().floor() as i32;
        if exp > MIN_EXP && 2f64.powi(exp) > v {
            exp -= 1;
        }
        let exp = exp.clamp(MIN_EXP, MAX_EXP - 1);
        let base = 2f64.powi(exp);
        // v / base is in [1, 2): spread over SUBS linear sub-buckets.
        let sub = (((v / base - 1.0) * SUBS as f64) as usize).min(SUBS - 1);
        1 + ((exp - MIN_EXP) as usize) * SUBS + sub
    }

    /// Representative (lower-bound) value of bucket `i`.
    fn bucket_value(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let i = i - 1;
        let exp = MIN_EXP + (i / SUBS) as i32;
        let sub = i % SUBS;
        2f64.powi(exp) * (1.0 + sub as f64 / SUBS as f64)
    }

    /// Public view of the bucketing scheme: the bucket index `v` lands
    /// in. Deterministic, monotone in `v`; index 0 is the underflow
    /// bucket (zero, negative, and non-finite samples).
    ///
    /// Exposed so signature layers (the decomposed-simulation plane)
    /// can bucket values with exactly the histogram's resolution
    /// without recording them.
    pub fn bucket_index(v: f64) -> usize {
        Self::index(v)
    }

    /// Records one sample. Negative, zero, and non-finite samples count
    /// in the underflow bucket (they still bump `count`).
    pub fn record(&mut self, v: f64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded (finite) samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest finite sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min.min(self.max) // min is +inf if only non-finite seen
        }
    }

    /// Largest finite sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 || self.max == f64::NEG_INFINITY {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-th percentile as the matching bucket's lower-bound value
    /// (<= 6.25% below the true sample, never above it).
    ///
    /// Pinned edge semantics (regression-tested):
    /// * empty histogram → 0 for every `p`;
    /// * `p` is clamped to `[0, 100]` (NaN behaves like 0);
    /// * `p <= 0` → the lowest occupied bucket's lower bound (the rank-1
    ///   sample), so a one-sample histogram reports that sample's bucket
    ///   at **every** `p`;
    /// * `p = 100` → the highest occupied bucket's lower bound, which is
    ///   always <= [`max`](Self::max) — the result is additionally
    ///   clamped by the true finite maximum so no percentile can exceed
    ///   a recorded sample. (Samples below 2^-64 clamp into the first
    ///   regular bucket, whose lower bound exceeds them; the clamp keeps
    ///   the contract even there.)
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let v = Self::bucket_value(i);
                // Non-finite samples sit in the underflow bucket with
                // max() == 0; only clamp when a finite max exists.
                return if self.max == f64::NEG_INFINITY {
                    v
                } else {
                    v.min(self.max)
                };
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bound_samples() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1000.0);
        let p50 = h.percentile(50.0);
        // Bucket lower bound: within 6.25% below the true median.
        assert!((500.0 * (1.0 - 1.0 / 16.0)..=500.0).contains(&p50), "{p50}");
        let p99 = h.percentile(99.0);
        assert!((990.0 * (1.0 - 1.0 / 16.0)..=990.0).contains(&p99), "{p99}");
        assert!(h.percentile(100.0) <= 1000.0);
    }

    #[test]
    fn histogram_handles_degenerate_samples() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(2.5);
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(10.0), 0.0);
        assert_eq!(h.max(), 2.5);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
    }

    /// Regression (PR 9): for v = 2^k · (1 - ε), `log2().floor()` rounds
    /// up to k, which used to file v in a bucket whose lower bound (2^k)
    /// exceeds v — so `percentile(100.0)` reported a value *above* the
    /// true maximum sample. Both the indexing and the percentile clamp
    /// now keep every percentile <= max().
    #[test]
    fn percentile_never_exceeds_true_max() {
        let just_below: f64 = 8.0 * (1.0 - f64::EPSILON);
        assert!(just_below < 8.0);
        let mut h = Histogram::new();
        h.record(just_below);
        assert!(
            h.percentile(100.0) <= just_below,
            "p100 {} > max sample {just_below}",
            h.percentile(100.0)
        );
        // The bucket itself must be a lower bound too.
        let b = Histogram::bucket_index(just_below);
        assert!(Histogram::bucket_value(b) <= just_below);
        // And across a spread of awkward values.
        let mut h = Histogram::new();
        for i in 1..=64u32 {
            let v = f64::from(i);
            h.record(v * (1.0 - f64::EPSILON));
            h.record(v);
        }
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert!(h.percentile(p) <= h.max(), "p{p}");
        }
    }

    /// Pin (PR 9): the documented edge semantics of `percentile`.
    #[test]
    fn percentile_edge_semantics_are_pinned() {
        // Empty: 0 at every p, including out-of-range p.
        let h = Histogram::new();
        for p in [-5.0, 0.0, 50.0, 100.0, 250.0, f64::NAN] {
            assert_eq!(h.percentile(p), 0.0);
        }
        // One sample: every p reports that sample's bucket lower bound.
        let mut h = Histogram::new();
        h.record(3.0);
        let expect = Histogram::bucket_value(Histogram::bucket_index(3.0));
        for p in [-1.0, 0.0, 50.0, 100.0, 101.0, f64::NAN] {
            assert_eq!(h.percentile(p), expect, "p = {p}");
        }
        assert!((3.0 * (1.0 - 1.0 / 16.0)..=3.0).contains(&expect));
        // p <= 0 is the rank-1 (lowest) sample; p = 100 the highest.
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(1024.0);
        assert!(h.percentile(0.0) <= 1.0);
        assert!(h.percentile(0.0) >= 1.0 - 1.0 / 16.0);
        assert!(h.percentile(100.0) <= 1024.0);
        assert!(h.percentile(100.0) > 512.0);
        // Sub-2^-64 samples clamp upward into the first regular bucket;
        // the max() clamp keeps the contract anyway.
        let mut h = Histogram::new();
        h.record(1e-300);
        assert!(h.percentile(100.0) <= 1e-300);
    }

    /// `bucket_index` is monotone and agrees with `record`.
    #[test]
    fn bucket_index_is_monotone_and_public() {
        let values = [1e-20, 0.5, 0.9999, 1.0, 1.5, 2.0, 3.7, 1e6];
        let mut last = 0usize;
        for &v in &values {
            let i = Histogram::bucket_index(v);
            assert!(i >= last, "index must be monotone at {v}");
            assert!(Histogram::bucket_value(i) > 0.0);
            last = i;
        }
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-1.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
    }

    #[test]
    fn tiny_and_huge_values_clamp_into_range() {
        let mut h = Histogram::new();
        h.record(1e-300);
        h.record(1e300);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) > 0.0);
    }
}
