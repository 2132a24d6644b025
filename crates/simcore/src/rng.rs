//! Deterministic pseudo-random number generation.
//!
//! The workspace needs reproducible simulations: the same seed must
//! produce bit-identical traces in tests, benches and the experiment
//! harness, across crate upgrades. We therefore ship a tiny, well-known
//! generator — SplitMix64 (Steele, Lea & Flood 2014) — instead of relying
//! on an external RNG whose stream may change between versions.
//!
//! SplitMix64 passes BigCrush on its own and is more than adequate for
//! driving workload phase jitter and DVFS measurement noise; nothing here
//! is cryptographic.

/// SplitMix64 generator.
///
/// ```
/// use vfc_simcore::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Returns 0 when `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            // Multiply-shift bounded generation (Lemire); bias is < 2^-64
            // per draw, irrelevant for simulation purposes.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Approximately normal sample with the given mean and standard
    /// deviation (Irwin–Hall sum of 12 uniforms; exact enough for
    /// measurement-noise modelling and branch-free).
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        mean + (acc - 6.0) * std_dev
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 0 from the public-domain SplitMix64
        // reference implementation (Vigna).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_draws_in_range() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SplitMix64::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(100.0, 15.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
        assert!((var.sqrt() - 15.0).abs() < 1.0, "std {}", var.sqrt());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements the identity permutation is astronomically
        // unlikely.
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
