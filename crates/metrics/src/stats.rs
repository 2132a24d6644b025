//! Streaming statistics.

use serde::{Deserialize, Serialize};

/// Welford-style online accumulator: mean/variance in one pass, O(1)
/// memory, numerically stable (see Knuth TAOCP vol. 2 §4.2.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Build from a slice.
    pub fn of(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 when fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction —
    /// Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-bin histogram over `[lo, hi)`; values outside clamp to the edge
/// bins. Used for distribution summaries in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "bad histogram shape");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Add one observation (out-of-range values clamp to the edge bins).
    pub fn push(&mut self, x: f64) {
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.bins.len() as f64).floor() as i64)
            .clamp(0, self.bins.len() as i64 - 1) as usize;
        self.bins[idx] += 1;
    }

    /// Per-bin counts, low to high.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// Percentile of a sample via linear interpolation (the `R-7` method used
/// by numpy's default). `q` ∈ [0, 1]. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(37);
        let mut m = Summary::of(a);
        m.merge(&Summary::of(b));
        let all = Summary::of(&xs);
        assert_eq!(m.count(), all.count());
        assert!((m.mean() - all.mean()).abs() < 1e-9);
        assert!((m.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(m.min(), all.min());
        assert_eq!(m.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Summary::of(&[1.0, 2.0]);
        a.merge(&Summary::new());
        assert_eq!(a.count(), 2);
        let mut e = Summary::new();
        e.merge(&Summary::of(&[1.0, 2.0]));
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.0, 3.0, 9.9, -4.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 3); // 0.5, 1.0, −4 (clamped)
        assert_eq!(h.counts()[1], 1); // 3.0
        assert_eq!(h.counts()[4], 2); // 9.9, 42 (clamped)
    }

    #[test]
    #[should_panic(expected = "bad histogram shape")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.25), 2.0);
        // Interpolated.
        assert!((percentile(&[1.0, 2.0], 0.5) - 1.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    proptest! {
        #[test]
        fn prop_welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
            let s = Summary::of(&xs);
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var));
        }

        #[test]
        fn prop_percentile_is_within_range(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..50),
            q in 0.0f64..1.0,
        ) {
            let p = percentile(&xs, q);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p >= lo && p <= hi);
        }
    }
}
