//! Time, frequency and work units.
//!
//! All quantities are integer newtypes so that the scheduler, the
//! controller and the cgroup accounting can never silently mix µs of CPU
//! time with MHz or with hardware cycles.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of micro-seconds per second.
pub const USEC_PER_SEC: u64 = 1_000_000;

/// `x.round() as u64` — half away from zero, negatives and NaN to 0,
/// saturating at `u64::MAX` — without the libm call `f64::round` compiles
/// to on baseline x86_64.
///
/// In `[0, 2⁵²)` `x − trunc(x)` is exact, so comparing it with one half
/// is the rounding, and the signed conversions are one instruction each.
/// From 2⁵² up every `f64` is an integer, so the saturating cast is
/// already the answer, as it is for negatives and NaN.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    if (0.0..4_503_599_627_370_496.0).contains(&x) {
        let t = x as i64;
        (t + (x - t as f64 >= 0.5) as i64) as u64
    } else {
        x as u64
    }
}

/// CPU time in micro-seconds — the paper's *cycles* (§III.A).
///
/// `cpu.stat::usage_usec`, `cpu.max` quotas and every allocation
/// `c_{i,j,t}` in the controller are expressed in this unit.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero duration.
    pub const ZERO: Micros = Micros(0);

    /// One second expressed in micro-seconds.
    pub const SEC: Micros = Micros(USEC_PER_SEC);

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * USEC_PER_SEC)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Value as seconds (lossy, for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / USEC_PER_SEC as f64
    }

    /// Raw micro-second count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: never underflows.
    #[inline]
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    /// Smaller of the two durations.
    pub fn min(self, rhs: Micros) -> Micros {
        Micros(self.0.min(rhs.0))
    }

    #[inline]
    /// Larger of the two durations.
    pub fn max(self, rhs: Micros) -> Micros {
        Micros(self.0.max(rhs.0))
    }

    #[inline]
    /// Is this a zero duration?
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative ratio, rounding to nearest.
    ///
    /// Used for pro-rata conversions such as scaling a per-period quota to
    /// a per-tick budget. Panics in debug builds if `ratio` is negative or
    /// not finite.
    #[inline]
    pub fn scale(self, ratio: f64) -> Micros {
        debug_assert!(ratio.is_finite() && ratio >= 0.0, "bad ratio {ratio}");
        Micros(round_u64(self.0 as f64 * ratio))
    }

    /// `self / other` as an `f64` fraction; 0 when `other` is zero.
    #[inline]
    pub fn ratio_of(self, other: Micros) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    #[inline]
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;
    #[inline]
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Div<u64> for Micros {
    type Output = Micros;
    #[inline]
    fn div(self, rhs: u64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        Micros(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

/// CPU frequency in mega-hertz.
///
/// Both physical core frequencies (`F_n^MAX`, `scaling_cur_freq`) and
/// virtual frequencies (`F_v`, the VM template setting) use this type.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MHz(pub u32);

impl MHz {
    /// Zero frequency.
    pub const ZERO: MHz = MHz(0);

    #[inline]
    /// Raw MHz value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    #[inline]
    /// Value as `f64` for arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Value in Hertz, the unit used by `scaling_cur_freq` files... almost:
    /// the kernel reports *kilo*-hertz there; see [`MHz::as_khz`]. The paper
    /// (§III.B.1) says Hertz; the kernel ABI is kHz, which we follow.
    #[inline]
    pub const fn as_khz(self) -> u64 {
        self.0 as u64 * 1_000
    }

    /// `mhz` rounded to the nearest MHz, as `MHz(mhz.round() as u32)`.
    #[inline]
    pub fn rounded(mhz: f64) -> MHz {
        MHz(u32::try_from(round_u64(mhz)).unwrap_or(u32::MAX))
    }

    /// Build from a kHz reading (the `scaling_cur_freq` ABI), rounding to
    /// nearest MHz.
    #[inline]
    pub const fn from_khz(khz: u64) -> MHz {
        MHz(((khz + 500) / 1_000) as u32)
    }

    #[inline]
    /// Smaller of the two frequencies.
    pub fn min(self, rhs: MHz) -> MHz {
        MHz(self.0.min(rhs.0))
    }

    #[inline]
    /// Larger of the two frequencies.
    pub fn max(self, rhs: MHz) -> MHz {
        MHz(self.0.max(rhs.0))
    }
}

impl Add for MHz {
    type Output = MHz;
    #[inline]
    fn add(self, rhs: MHz) -> MHz {
        MHz(self.0 + rhs.0)
    }
}

impl Sub for MHz {
    type Output = MHz;
    #[inline]
    fn sub(self, rhs: MHz) -> MHz {
        MHz(self.0 - rhs.0)
    }
}

impl Sum for MHz {
    fn sum<I: Iterator<Item = MHz>>(iter: I) -> MHz {
        MHz(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for MHz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.0)
    }
}

/// True hardware cycles: work performed by a core.
///
/// `1 µs of CPU time at f MHz = f cycles`. Workload progress (e.g. the
/// amount of compression work left in a `compress-7zip` iteration) is
/// measured in this unit so that a vCPU throttled to a low share *and*
/// a vCPU on a down-clocked core both make proportionally less progress.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero work.
    pub const ZERO: Cycles = Cycles(0);

    /// Work performed by `time` of CPU at frequency `freq`.
    #[inline]
    pub fn from_time_at(time: Micros, freq: MHz) -> Cycles {
        Cycles(time.0 * freq.0 as u64)
    }

    #[inline]
    /// Raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    #[inline]
    /// Saturating subtraction: never underflows.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    /// Is this zero work?
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Equivalent average frequency over a wall-clock interval: the *exact*
    /// virtual frequency of a vCPU that performed `self` cycles during
    /// `wall` of wall-clock time.
    #[inline]
    pub fn avg_freq_over(self, wall: Micros) -> MHz {
        if wall.0 == 0 {
            MHz::ZERO
        } else {
            MHz::rounded(self.0 as f64 / wall.0 as f64)
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_constructors() {
        assert_eq!(Micros::from_secs(2), Micros(2_000_000));
        assert_eq!(Micros::from_millis(5), Micros(5_000));
        assert_eq!(Micros::SEC, Micros::from_secs(1));
        assert!((Micros::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn micros_arithmetic() {
        let a = Micros(300) + Micros(700);
        assert_eq!(a, Micros(1000));
        assert_eq!(a - Micros(400), Micros(600));
        assert_eq!(a * 3, Micros(3000));
        assert_eq!(a / 4, Micros(250));
        assert_eq!(Micros(5).saturating_sub(Micros(10)), Micros::ZERO);
        let mut b = Micros(1);
        b += Micros(2);
        b -= Micros(1);
        assert_eq!(b, Micros(2));
    }

    #[test]
    fn micros_scale_rounds_to_nearest() {
        assert_eq!(Micros(1000).scale(0.3334), Micros(333));
        assert_eq!(Micros(1000).scale(0.3336), Micros(334));
        assert_eq!(Micros(0).scale(123.0), Micros(0));
    }

    /// `round_u64` against `f64::round` on every edge the cast and the
    /// comparison have, then on a million random bit patterns.
    #[test]
    fn round_u64_equals_libm_round_everywhere() {
        let check = |x: f64| {
            assert_eq!(round_u64(x), x.round() as u64, "{x:e} ({:#x})", x.to_bits());
        };
        let mut edges = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            0.499_999_999_999_999_94,
            0.5,
            -0.5,
            1.5,
            -2.5,
            u64::MAX as f64,
        ];
        for e in [52, 53, 63, 64] {
            let p = 2f64.powi(e);
            for k in -3..=3 {
                let k = k as f64;
                edges.extend([p + k, p + k + 0.5, p + k - 0.5, -(p + k + 0.5)]);
            }
            let mut below = p;
            for _ in 0..4 {
                below = f64::from_bits(below.to_bits() - 1);
                edges.push(below);
            }
            edges.push(f64::from_bits(p.to_bits() + 1));
        }
        for x in edges {
            check(x);
        }
        let mut rng = crate::SplitMix64::new(0x5EED);
        for _ in 0..1_000_000 {
            check(f64::from_bits(rng.next_u64()));
        }
        // Random values where rounding has work to do: [0, 2⁵³).
        for _ in 0..100_000 {
            check(rng.next_u64() as f64 / 2048.0 / 1024.0);
        }
    }

    #[test]
    fn mhz_rounded_saturates_like_a_cast() {
        for x in [
            f64::NAN,
            -1.0,
            0.49,
            2399.5,
            4_294_967_295.4,
            4_294_967_296.0,
            1e300,
        ] {
            assert_eq!(MHz::rounded(x), MHz(x.round() as u32), "{x}");
        }
    }

    #[test]
    fn micros_ratio() {
        assert_eq!(Micros(250).ratio_of(Micros(1000)), 0.25);
        assert_eq!(Micros(250).ratio_of(Micros(0)), 0.0);
    }

    #[test]
    fn micros_sum() {
        let v = vec![Micros(1), Micros(2), Micros(3)];
        assert_eq!(v.into_iter().sum::<Micros>(), Micros(6));
    }

    #[test]
    fn mhz_khz_roundtrip() {
        assert_eq!(MHz(2400).as_khz(), 2_400_000);
        assert_eq!(MHz::from_khz(2_400_000), MHz(2400));
        assert_eq!(MHz::from_khz(2_400_499), MHz(2400));
        assert_eq!(MHz::from_khz(2_400_500), MHz(2401));
    }

    #[test]
    fn cycles_work_accounting() {
        // 1 µs at 2400 MHz performs 2400 hardware cycles.
        assert_eq!(Cycles::from_time_at(Micros(1), MHz(2400)), Cycles(2400));
        // A full second at 500 MHz.
        assert_eq!(
            Cycles::from_time_at(Micros::SEC, MHz(500)),
            Cycles(500_000_000)
        );
    }

    #[test]
    fn cycles_avg_freq() {
        // 500 M cycles over one wall-clock second is exactly 500 MHz.
        let c = Cycles(500_000_000);
        assert_eq!(c.avg_freq_over(Micros::SEC), MHz(500));
        // Half the work over the same wall time is half the frequency.
        assert_eq!(Cycles(250_000_000).avg_freq_over(Micros::SEC), MHz(250));
        assert_eq!(c.avg_freq_over(Micros::ZERO), MHz::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Micros(42).to_string(), "42us");
        assert_eq!(MHz(2400).to_string(), "2400MHz");
        assert_eq!(Cycles(7).to_string(), "7cyc");
    }
}
