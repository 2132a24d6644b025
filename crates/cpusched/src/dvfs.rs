//! DVFS governor models.
//!
//! The paper's controller does not *set* hardware frequencies — it reads
//! them (`scaling_cur_freq`) to translate CPU-time shares into MHz
//! estimates. What matters for reproduction is therefore the *observable*
//! behaviour of the platform governor:
//!
//! * loaded cores converge to the all-core maximum ("the Linux scheduler
//!   increases the speed of the CPU cores that are running this kind of
//!   vCPUs — making all the CPU cores running at approximately the same
//!   speed", §III.B.1);
//! * readings carry small measurement noise — the paper reports average
//!   core-frequency variances of 16–150 MHz across its runs.

use serde::{Deserialize, Serialize};
use vfc_simcore::{MHz, SplitMix64};

/// Which frequency policy the host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GovernorKind {
    /// Pin every core at `max` (the `performance` governor).
    Performance,
    /// Utilization-driven (schedutil-like): `f = min + (max−min)·min(1, 1.25·util)`.
    Schedutil,
    /// Pin every core at `min` (the `powersave` governor).
    Powersave,
}

/// A per-node governor instance with its own noise stream.
#[derive(Debug)]
pub struct Governor {
    kind: GovernorKind,
    min: MHz,
    max: MHz,
    /// Std-dev of the reading noise, MHz.
    noise_std: f64,
    rng: SplitMix64,
}

impl Governor {
    /// Create a governor for the `[min, max]` frequency range with its own noise stream.
    pub fn new(kind: GovernorKind, min: MHz, max: MHz, seed: u64) -> Self {
        Governor {
            kind,
            min,
            max,
            noise_std: 6.0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Override the reading-noise standard deviation (MHz). Zero disables
    /// noise entirely (useful for exact tests).
    pub fn with_noise_std(mut self, std: f64) -> Self {
        self.noise_std = std.max(0.0);
        self
    }

    /// The policy in effect.
    pub fn kind(&self) -> GovernorKind {
        self.kind
    }

    /// Frequency a core reports at the given utilization (`0..=1`).
    pub fn core_freq(&mut self, util: f64) -> MHz {
        let util = util.clamp(0.0, 1.0);
        let base = match self.kind {
            GovernorKind::Performance => self.max.as_f64(),
            GovernorKind::Powersave => self.min.as_f64(),
            GovernorKind::Schedutil => {
                // The kernel's schedutil picks f = 1.25 · f_max · util and
                // clamps; expressed against the [min, max] span so an idle
                // core sits at min rather than 0.
                let span = self.max.as_f64() - self.min.as_f64();
                self.min.as_f64() + span * (1.25 * util).min(1.0)
            }
        };
        let noisy = if self.noise_std > 0.0 {
            self.rng.normal(base, self.noise_std)
        } else {
            base
        };
        // Hardware can slightly exceed the sustained all-core max
        // (turbo residency), but never the min P-state floor.
        let clamped = noisy.clamp(self.min.as_f64(), self.max.as_f64() * 1.02);
        MHz::rounded(clamped)
    }

    /// The next raw draw of the noise stream — consumes it. Lets the
    /// reference-oracle tests assert that two engines drew equally often.
    #[cfg(test)]
    pub(crate) fn probe_rng(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_stays_at_max() {
        let mut g =
            Governor::new(GovernorKind::Performance, MHz(1200), MHz(2400), 1).with_noise_std(0.0);
        assert_eq!(g.core_freq(0.0), MHz(2400));
        assert_eq!(g.core_freq(1.0), MHz(2400));
    }

    #[test]
    fn powersave_stays_at_min() {
        let mut g =
            Governor::new(GovernorKind::Powersave, MHz(1200), MHz(2400), 1).with_noise_std(0.0);
        assert_eq!(g.core_freq(1.0), MHz(1200));
    }

    #[test]
    fn schedutil_scales_with_util() {
        let mut g =
            Governor::new(GovernorKind::Schedutil, MHz(1200), MHz(2400), 1).with_noise_std(0.0);
        assert_eq!(g.core_freq(0.0), MHz(1200));
        // 1.25 × 0.8 = 1.0 → max from 80 % utilization up.
        assert_eq!(g.core_freq(0.8), MHz(2400));
        assert_eq!(g.core_freq(1.0), MHz(2400));
        let half = g.core_freq(0.4); // 1200 + 1200·0.5 = 1800
        assert_eq!(half, MHz(1800));
    }

    #[test]
    fn noise_is_bounded_and_seedable() {
        let sample = |seed| {
            let mut g = Governor::new(GovernorKind::Schedutil, MHz(1200), MHz(2400), seed)
                .with_noise_std(10.0);
            (0..100)
                .map(|_| g.core_freq(1.0).as_u32())
                .collect::<Vec<_>>()
        };
        let a = sample(5);
        let b = sample(5);
        assert_eq!(a, b, "same seed, same readings");
        for &f in &a {
            assert!((1200..=2448).contains(&f), "freq {f} out of bounds");
        }
        // Readings actually vary.
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 5);
    }

    #[test]
    fn util_is_clamped() {
        let mut g =
            Governor::new(GovernorKind::Schedutil, MHz(1000), MHz(2000), 1).with_noise_std(0.0);
        assert_eq!(g.core_freq(-3.0), MHz(1000));
        assert_eq!(g.core_freq(42.0), MHz(2000));
    }
}
