//! Stage 2 — estimating upcoming vCPU utilization (§III.B.2).
//!
//! Per vCPU, a history of the last `n` consumptions feeds a least-squares
//! **trend** (Eq. 3 — the paper's formula contains a typo, writing the
//! abscissa deviation as `x − S_n` with `S_n = Σx`; dimensional analysis
//! and the stated goal require the mean `x̄`, i.e. the ordinary
//! least-squares slope, which is what we compute). The trend plus two
//! trigger/factor pairs produce the estimate `e_{i,j,t}` of next-period
//! consumption, with three cases:
//!
//! * **(a) increasing** (Fig. 3) — trend > ε and consumption above
//!   `increase_trigger × cap`: grow the cap by `increase_factor`;
//! * **(b) decreasing** (Fig. 4) — trend < −ε and consumption below
//!   `decrease_trigger × cap`: shrink by `decrease_factor`;
//! * **(c) stable** (Fig. 5) — otherwise: snap the estimate just above
//!   the observed consumption (`u / increase_trigger`), close enough to
//!   avoid waste but high enough not to re-trigger an increase.

use crate::config::ControllerConfig;
use crate::monitor::VcpuObservation;
use vfc_simcore::{round_u64, FastMap, Micros, RingBuffer, VcpuAddr};

/// Which estimator case fired (for reporting and the Fig. 3–5 traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum EstimateCase {
    /// Case (a): consumption is rising against the capping (Fig. 3).
    Increase,
    /// Case (b): consumption is falling well below the capping (Fig. 4).
    Decrease,
    /// Case (c): consumption is steady (Fig. 5).
    Stable,
}

/// Stage-2 output for one vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// The vCPU this estimate is for.
    pub addr: VcpuAddr,
    /// Dense coordinates, copied from the observation (see
    /// [`VcpuObservation::slot`]).
    pub slot: u32,
    /// The VM's position among the listed VMs.
    pub vm_idx: u32,
    /// Predicted next-period consumption `e_{i,j,t}`, µs per period.
    pub estimate: Micros,
    /// Which of the three cases produced the estimate.
    pub case: EstimateCase,
}

/// Eq. 3 **exactly as printed** in the paper, abscissa deviation
/// `(x − S_n)` with `S_n = n(n+1)/2` included.
///
/// Interestingly, the typo is harmless for the controller: since
/// `Σ(y − ȳ) = 0`, the numerator `Σ(x − c)(y − ȳ)` is independent of the
/// constant `c`, so the printed formula computes the correct least-squares
/// numerator over an *inflated* denominator — the same slope scaled by
/// `Σ(x − x̄)² / Σ(x − S_n)²` ∈ (0, 1). Sign and zero-crossings are
/// identical to [`trend`], only the magnitude shrinks, which slightly
/// hardens the trend-significance threshold. The controller uses
/// [`trend`]; this is the paper-literal reference that this module's
/// tests compare [`trend`] against (equal in sign, property-tested).
pub fn trend_paper_literal(history: &[u64]) -> f64 {
    let n = history.len();
    if n < 2 {
        return 0.0;
    }
    let s_n = (n * (n + 1) / 2) as f64; // the paper's S_n = Σ x for x = 1..n
    let y_mean = history.iter().sum::<u64>() as f64 / n as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in history.iter().enumerate() {
        let x = (i + 1) as f64; // the paper indexes x from 1
        num += (x - s_n) * (y as f64 - y_mean);
        den += (x - s_n) * (x - s_n);
    }
    num / den
}

/// Ordinary least-squares slope of a consumption history
/// (µs per iteration). Histories shorter than 2 have no trend (0).
///
/// Computed in exact integer arithmetic: with abscissa `x = 0..n-1` the
/// slope is `(n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)`; both numerator and
/// denominator are exact integers (the sums fit an `i128` comfortably
/// for any realistic history), so the only rounding is the final `f64`
/// division. This makes the batch formula bit-identical to the
/// incremental [`TrendAccumulator`], which maintains the same two data
/// sums `Σy` / `Σxy` with O(1) work per sample.
pub fn trend(history: &[u64]) -> f64 {
    let mut sum_y: u128 = 0;
    let mut sum_xy: u128 = 0;
    for (x, &y) in history.iter().enumerate() {
        sum_y += y as u128;
        sum_xy += x as u128 * y as u128;
    }
    trend_from_sums(history.len(), sum_y, sum_xy)
}

/// Windows up to this length have `n·Σx²` (≈ n⁴/3) within `i64`.
const NARROW_N: usize = 1 << 15;

/// Shared tail of [`trend`] and [`TrendAccumulator::trend`]: the exact
/// integer least-squares slope from the two data sums.
///
/// Where `n·Σxy` and `Σx·Σy` both fit an `i64` — every realistic window
/// — numerator and denominator are computed in 64 bits. They are the
/// same integers the 128-bit [`trend_from_wide_sums`] computes, and
/// `i64 as f64` rounds an integer exactly as `i128 as f64` does, so the
/// slope is bit-identical (property-tested below).
fn trend_from_sums(n: usize, sum_y: u128, sum_xy: u128) -> f64 {
    if (2..=NARROW_N).contains(&n) {
        let n = n as i64;
        let sum_x = n * (n - 1) / 2;
        let products = (
            i64::try_from(sum_xy).ok().and_then(|s| n.checked_mul(s)),
            i64::try_from(sum_y).ok().and_then(|s| sum_x.checked_mul(s)),
        );
        if let (Some(n_sum_xy), Some(sum_x_sum_y)) = products {
            let sum_x2 = n * (n - 1) * (2 * n - 1) / 6;
            let num = n_sum_xy - sum_x_sum_y;
            let den = n * sum_x2 - sum_x * sum_x;
            return num as f64 / den as f64;
        }
    }
    trend_from_wide_sums(n, sum_y, sum_xy)
}

/// [`trend_from_sums`] in 128-bit arithmetic, for sums too large for the
/// 64-bit path (and for histories shorter than 2, which have no trend).
fn trend_from_wide_sums(n: usize, sum_y: u128, sum_xy: u128) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let n = n as u128;
    let sum_x = n * (n - 1) / 2; // Σx for x = 0..n-1
    let sum_x2 = n * (n - 1) * (2 * n - 1) / 6; // Σx²
    let num = (n * sum_xy) as i128 - (sum_x * sum_y) as i128;
    let den = (n * sum_x2 - sum_x * sum_x) as i128;
    num as f64 / den as f64
}

/// Incremental Eq. 3 state: the rolling `Σy` / `Σxy` over one vCPU's
/// consumption ring buffer, updated in O(1) per sample instead of
/// re-walking the window.
///
/// Sliding a full window of size `n` (evicting `y₀`, appending `yₙ`)
/// shifts every surviving sample's abscissa down by one, so
/// `Σxy' = Σxy − (Σy − y₀) + (n−1)·yₙ` and `Σy' = Σy − y₀ + yₙ`.
/// Because the accumulator carries the *exact* integer sums, its slope
/// is bit-identical to recomputing [`trend`] over the window contents
/// (property-tested below).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrendAccumulator {
    sum_y: u128,
    sum_xy: u128,
}

impl TrendAccumulator {
    /// Fold one sample in. `evicted` is the sample that left the ring
    /// (`None` while the window is still filling), `pushed` the new
    /// sample, and `n` the window length *after* the push.
    pub fn slide(&mut self, evicted: Option<u64>, pushed: u64, n: usize) {
        debug_assert!(n >= 1);
        let pushed = pushed as u128;
        match evicted {
            // Still filling: the new sample lands at abscissa n-1.
            None => {
                self.sum_xy += (n as u128 - 1) * pushed;
                self.sum_y += pushed;
            }
            // Full window slid by one: survivors' abscissae all drop by
            // one (Σxy loses Σy − y₀ ≥ 0, no underflow), then the new
            // sample lands at abscissa n-1.
            Some(y0) => {
                let y0 = y0 as u128;
                self.sum_xy = self.sum_xy - (self.sum_y - y0) + (n as u128 - 1) * pushed;
                self.sum_y = self.sum_y - y0 + pushed;
            }
        }
    }

    /// Least-squares slope over the current window of length `n` —
    /// bit-identical to [`trend`] over the same samples.
    pub fn trend(&self, n: usize) -> f64 {
        trend_from_sums(n, self.sum_y, self.sum_xy)
    }
}

/// One vCPU's stage-2 state: the consumption ring plus its rolling
/// trend sums. `pub(crate)` so the controller's slot table can hold one
/// per row.
#[derive(Debug)]
pub(crate) struct History {
    ring: RingBuffer<u64>,
    acc: TrendAccumulator,
}

impl History {
    /// An empty window of `history_len` samples (at least 2: a trend
    /// needs two points).
    pub(crate) fn new(history_len: usize) -> Self {
        History {
            ring: RingBuffer::new(history_len.max(2)),
            acc: TrendAccumulator::default(),
        }
    }

    /// Push one sample and return the updated Eq. 3 trend, O(1).
    fn push(&mut self, y: u64) -> f64 {
        let evicted = if self.ring.is_full() {
            self.ring.oldest()
        } else {
            None
        };
        self.ring.push(y);
        self.acc.slide(evicted, y, self.ring.len());
        self.acc.trend(self.ring.len())
    }

    /// A window holding the most recent of `samples` (warm restart).
    pub(crate) fn seeded(history_len: usize, samples: &[u64]) -> Self {
        let mut history = History::new(history_len);
        for &s in samples {
            history.push(s);
        }
        history
    }

    /// The window contents, oldest → newest.
    pub(crate) fn to_vec(&self) -> Vec<u64> {
        self.ring.to_vec()
    }
}

/// Absolute floor of the trend-significance threshold (µs/iteration).
/// A trend must exceed `max(floor, rel × u)` to count as non-stable.
const TREND_EPSILON_FLOOR: f64 = 50.0;
/// Relative component of the trend-significance threshold, as a
/// fraction of the current consumption. Filters measurement wiggle on
/// heavily-loaded vCPUs without blocking ramp-ups from tiny cappings.
const TREND_EPSILON_REL: f64 = 0.02;
/// Floor for any capping we write: the kernel rejects quotas below
/// 1 ms, and a vCPU must keep enough cycles to answer its guest
/// kernel's housekeeping.
pub(crate) const MIN_CAP: Micros = Micros(1_000);

/// Eq. 3 and the three cases for one vCPU: push this period's
/// consumption into its history, classify the trend against
/// `c_{i,j,t-1}` (`cap`; a vCPU without one — first sighting, or
/// monitor-only operation — is treated as capped at the full period)
/// and produce the estimate. [`Estimator`] calls this with state keyed
/// by address, the controller's slot loop with one row of its table.
pub(crate) fn estimate_vcpu(
    cfg: &ControllerConfig,
    history: &mut History,
    obs: &VcpuObservation,
    cap: Option<Micros>,
) -> Estimate {
    let period = cfg.period;
    let t = history.push(obs.used.as_u64());

    let cap = cap.unwrap_or(period);
    let cap_f = cap.as_u64() as f64;
    let u = obs.used.as_u64() as f64;
    // Trend significance scales with consumption so measurement
    // wiggle on a busy vCPU is filtered while a ramp-up from a
    // tiny capping still registers.
    let epsilon = TREND_EPSILON_FLOOR.max(TREND_EPSILON_REL * u);

    // Throttle-aware extension (opt-in): a vCPU the kernel had to
    // throttle was demanding more than its capping, whatever its
    // consumption trend looks like.
    let throttled_hard = cfg.throttle_aware && obs.throttled.as_u64() > cap.as_u64() / 10;

    let (case, raw) = if throttled_hard || (t > epsilon && u >= cfg.increase_trigger * cap_f) {
        // Case (a): ramp up by the increase factor.
        (EstimateCase::Increase, cap_f * (1.0 + cfg.increase_factor))
    } else if t < -epsilon && u <= cfg.decrease_trigger * cap_f {
        // Case (b): back off gently.
        (EstimateCase::Decrease, cap_f * (1.0 - cfg.decrease_factor))
    } else {
        // Case (c): track consumption with just enough headroom
        // that a stable load does not re-trigger an increase.
        (EstimateCase::Stable, u / cfg.increase_trigger)
    };

    let mut estimate_u64 = round_u64(raw).clamp(MIN_CAP.as_u64(), period.as_u64());
    if case == EstimateCase::Stable {
        // Guard against float rounding putting the consumption
        // back over the increase trigger of the new capping.
        while estimate_u64 < period.as_u64() && u >= cfg.increase_trigger * estimate_u64 as f64 {
            estimate_u64 += 1;
        }
    }
    Estimate {
        addr: obs.addr,
        slot: obs.slot,
        vm_idx: obs.vm_idx,
        estimate: Micros(estimate_u64),
        case,
    }
}

/// Stage-2 state keyed by vCPU address: one consumption history per
/// vCPU. The controller keeps the same histories in its slot table; this
/// type is the stage's stand-alone form and the oracle its tests compare
/// with.
#[derive(Debug)]
pub struct Estimator {
    histories: FastMap<VcpuAddr, History>,
    history_len: usize,
}

impl Estimator {
    /// Create a fresh estimator sized to the configured history length.
    pub fn new(cfg: &ControllerConfig) -> Self {
        Estimator {
            histories: FastMap::default(),
            history_len: cfg.history_len,
        }
    }

    /// Estimate next-period consumption for every observed vCPU, then
    /// forget every vCPU that was not observed — gone, or skipped by
    /// stage 1 this period.
    ///
    /// `prev_alloc` is `c_{i,j,t-1}` — the capping the controller set last
    /// iteration; a vCPU without one (first sighting, or monitor-only
    /// operation) is treated as capped at the full period.
    pub fn estimate(
        &mut self,
        cfg: &ControllerConfig,
        observations: &[VcpuObservation],
        prev_alloc: &FastMap<VcpuAddr, Micros>,
    ) -> Vec<Estimate> {
        let out = observations
            .iter()
            .map(|obs| {
                let history = self
                    .histories
                    .entry(obs.addr)
                    .or_insert_with(|| History::new(self.history_len));
                estimate_vcpu(cfg, history, obs, prev_alloc.get(&obs.addr).copied())
            })
            .collect();

        // Every observed vCPU is tracked by now, so a larger tracked set
        // means some history was not shown a sample this period.
        if self.histories.len() > observations.len() {
            let live: std::collections::HashSet<VcpuAddr> =
                observations.iter().map(|o| o.addr).collect();
            self.histories.retain(|addr, _| live.contains(addr));
        }
        out
    }

    /// Every tracked history (oldest → newest), sorted by address.
    pub fn export_histories(&self) -> Vec<(VcpuAddr, Vec<u64>)> {
        let mut out: Vec<_> = self
            .histories
            .iter()
            .map(|(addr, h)| (*addr, h.to_vec()))
            .collect();
        out.sort_by_key(|(addr, _)| *addr);
        out
    }

    /// Drop every history belonging to one VM — the live-resize hook.
    /// After a virtual-frequency change the pre-resize samples would
    /// feed Eq. 3 a trend measured against the *old* capping ceiling, so
    /// the resized VM restarts from the cold-start path (which floors
    /// its first estimate at the new `C_i`). Returns how many vCPU
    /// histories were dropped.
    pub fn forget_vm(&mut self, vm: vfc_simcore::VmId) -> usize {
        let before = self.histories.len();
        self.histories.retain(|addr, _| addr.vm != vm);
        before - self.histories.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vfc_simcore::{CpuId, MHz, VcpuId, VmId};

    fn obs(used: u64) -> VcpuObservation {
        VcpuObservation {
            addr: VcpuAddr::new(VmId::new(0), VcpuId::new(0)),
            slot: 0,
            vm_idx: 0,
            used: Micros(used),
            throttled: Micros::ZERO,
            last_cpu: CpuId::new(0),
            freq_est: MHz(0),
        }
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig::paper_defaults()
    }

    /// Run a sequence of consumptions through the estimator with a given
    /// constant previous cap; returns the per-step estimates.
    fn run(consumptions: &[u64], cap: u64) -> Vec<Estimate> {
        let c = cfg();
        let mut est = Estimator::new(&c);
        let mut prev = FastMap::default();
        prev.insert(VcpuAddr::new(VmId::new(0), VcpuId::new(0)), Micros(cap));
        consumptions
            .iter()
            .map(|&u| est.estimate(&c, &[obs(u)], &prev)[0])
            .collect()
    }

    #[test]
    fn trend_of_flat_history_is_zero() {
        assert_eq!(trend(&[5, 5, 5, 5]), 0.0);
        assert_eq!(trend(&[]), 0.0);
        assert_eq!(trend(&[42]), 0.0);
    }

    #[test]
    fn paper_literal_trend_is_a_shrunk_copy_of_the_true_slope() {
        // The printed Eq. 3 has the same sign and zeros as the correct
        // least-squares slope, with magnitude scaled by a constant < 1
        // that depends only on n.
        let h: Vec<u64> = (0..5).map(|x| 10 * x + 3).collect();
        let literal = trend_paper_literal(&h);
        let correct = trend(&h);
        assert!(literal > 0.0 && correct > 0.0);
        assert!(literal < correct, "{literal} !< {correct}");
        // The ratio is the deterministic n-dependent shrink factor.
        let h2: Vec<u64> = (0..5).map(|x| 1000 * x + 77).collect();
        let r1 = literal / correct;
        let r2 = trend_paper_literal(&h2) / trend(&h2);
        assert!((r1 - r2).abs() < 1e-12, "shrink factor is data-independent");
        assert_eq!(trend_paper_literal(&[7]), 0.0);
    }

    #[test]
    fn trend_matches_naive_least_squares() {
        // y = 3x + 7 → slope exactly 3.
        let h: Vec<u64> = (0..6).map(|x| 3 * x + 7).collect();
        assert!((trend(&h) - 3.0).abs() < 1e-9);
        // Decreasing.
        let h: Vec<u64> = (0..5).map(|x| 100 - 10 * x).collect();
        assert!((trend(&h) + 10.0).abs() < 1e-9);
    }

    #[test]
    fn case_a_increase_doubles_the_cap() {
        // Rising consumption at the cap: paper defaults double (+100 %).
        let estimates = run(&[50_000, 80_000, 100_000], 100_000);
        let last = estimates.last().unwrap();
        assert_eq!(last.case, EstimateCase::Increase);
        assert_eq!(last.estimate, Micros(200_000));
    }

    #[test]
    fn case_b_decrease_shrinks_by_five_percent() {
        // Falling consumption well under the 50 % trigger.
        let estimates = run(&[100_000, 60_000, 20_000], 100_000);
        let last = estimates.last().unwrap();
        assert_eq!(last.case, EstimateCase::Decrease);
        assert_eq!(last.estimate, Micros(95_000));
    }

    #[test]
    fn case_c_stable_snaps_just_above_consumption() {
        let estimates = run(&[70_000, 70_000, 70_000], 100_000);
        let last = estimates.last().unwrap();
        assert_eq!(last.case, EstimateCase::Stable);
        // 70 000 / 0.95 + 1 ≈ 73 685: above u, below the old cap.
        let e = last.estimate.as_u64();
        assert!(e > 70_000 && e < 80_000, "estimate {e}");
        // And it would not re-trigger an increase next iteration (the
        // estimator's own trigger comparison, in float):
        assert!(70_000f64 < 0.95 * e as f64, "would re-trigger: e={e}");
    }

    #[test]
    fn stable_case_avoids_oscillation() {
        // A long stable plateau: after the estimator converges the
        // estimate must stop moving (the anti-oscillation property the
        // paper designs for).
        let c = cfg();
        let mut est = Estimator::new(&c);
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let mut prev = FastMap::default();
        let mut cap = Micros(400_000);
        let mut last_estimates = Vec::new();
        for _ in 0..20 {
            prev.insert(addr, cap);
            let e = est.estimate(&c, &[obs(300_000)], &prev)[0];
            cap = e.estimate; // controller would apply the estimate
            last_estimates.push(e.estimate.as_u64());
        }
        let tail = &last_estimates[10..];
        let min = tail.iter().min().unwrap();
        let max = tail.iter().max().unwrap();
        assert!(max - min <= 2, "estimates still oscillate: {tail:?}");
    }

    #[test]
    fn rising_slowly_below_trigger_is_stable() {
        // Positive trend but consumption below the 95 % trigger: case (c).
        let estimates = run(&[10_000, 20_000, 30_000], 100_000);
        assert_eq!(estimates.last().unwrap().case, EstimateCase::Stable);
    }

    #[test]
    fn falling_but_above_decrease_trigger_is_stable() {
        // Negative trend but consumption above 50 % of the cap: case (c).
        let estimates = run(&[95_000, 85_000, 75_000], 100_000);
        assert_eq!(estimates.last().unwrap().case, EstimateCase::Stable);
    }

    #[test]
    fn estimates_are_clamped_to_period_and_floor() {
        let c = cfg();
        let mut est = Estimator::new(&c);
        let mut prev = FastMap::default();
        prev.insert(VcpuAddr::new(VmId::new(0), VcpuId::new(0)), Micros(900_000));
        // Increase case would give 1.8 s > period.
        let _ = est.estimate(&c, &[obs(880_000)], &prev);
        let e = est.estimate(&c, &[obs(900_000)], &prev);
        assert!(e[0].estimate <= c.period);
        // Zero consumption floors at MIN_CAP.
        let mut est = Estimator::new(&c);
        let e = est.estimate(&c, &[obs(0)], &FastMap::default());
        assert_eq!(e[0].estimate, MIN_CAP);
    }

    #[test]
    fn throttle_aware_detects_a_capped_burst() {
        // A vCPU capped at 1 000 µs starts bursting mid-window: its
        // consumption reads tiny-and-stable, but the kernel throttled it
        // for 300 ms. The paper's estimator stays in the stable case; the
        // throttle-aware extension fires an increase immediately.
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let mut prev = FastMap::default();
        prev.insert(addr, Micros(1_000));
        let burst_obs = VcpuObservation {
            throttled: Micros(300_000),
            ..obs(400) // consumption below the cap: partial window
        };

        let paper = cfg();
        let mut est = Estimator::new(&paper);
        let e = est.estimate(&paper, &[burst_obs], &prev)[0];
        assert_eq!(e.case, EstimateCase::Stable, "paper estimator is blind");

        let aware = ControllerConfig::throttle_aware();
        let mut est = Estimator::new(&aware);
        let e = est.estimate(&aware, &[burst_obs], &prev)[0];
        assert_eq!(e.case, EstimateCase::Increase);
        assert_eq!(e.estimate, Micros(2_000), "cap × (1 + increase factor)");
    }

    #[test]
    fn throttle_aware_ignores_negligible_throttling() {
        // A few µs of throttling (scheduler jitter) must not trigger.
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let mut prev = FastMap::default();
        prev.insert(addr, Micros(100_000));
        let aware = ControllerConfig::throttle_aware();
        let mut est = Estimator::new(&aware);
        let o = VcpuObservation {
            throttled: Micros(100), // 0.1 % of the cap
            ..obs(60_000)
        };
        let e = est.estimate(&aware, &[o], &prev)[0];
        assert_eq!(e.case, EstimateCase::Stable);
    }

    #[test]
    fn stale_vcpus_are_dropped() {
        let c = cfg();
        let mut est = Estimator::new(&c);
        est.estimate(&c, &[obs(1)], &FastMap::default());
        let other = VcpuObservation {
            addr: VcpuAddr::new(VmId::new(9), VcpuId::new(0)),
            ..obs(1)
        };
        est.estimate(&c, &[other], &FastMap::default());
        assert_eq!(est.export_histories(), [(other.addr, vec![1])]);
    }

    proptest! {
        #[test]
        fn prop_estimate_bounded(
            us in proptest::collection::vec(0u64..1_000_000, 1..20),
            cap in 1_000u64..1_000_000,
        ) {
            for e in run(&us, cap) {
                prop_assert!(e.estimate.as_u64() >= 1_000);
                prop_assert!(e.estimate <= Micros::SEC);
            }
        }

        #[test]
        fn prop_trend_sign_matches_monotone_series(
            start in 0u64..100_000,
            step in 1u64..10_000,
            len in 3usize..10,
        ) {
            let inc: Vec<u64> = (0..len as u64).map(|x| start + x * step).collect();
            prop_assert!(trend(&inc) > 0.0);
            let dec: Vec<u64> = inc.iter().rev().copied().collect();
            prop_assert!(trend(&dec) < 0.0);
        }

        #[test]
        fn prop_incremental_trend_is_bit_identical(
            ys in proptest::collection::vec(0u64..2_000_000, 1..40),
            cap in 2usize..8,
        ) {
            // Feed a stream through a ring + accumulator exactly as the
            // estimator does and compare against the batch formula over
            // the ring contents: the slopes must agree to the bit.
            let mut ring = RingBuffer::new(cap);
            let mut acc = TrendAccumulator::default();
            for &y in &ys {
                let evicted = if ring.is_full() { ring.oldest() } else { None };
                ring.push(y);
                acc.slide(evicted, y, ring.len());
                let batch = trend(&ring.to_vec());
                let incremental = acc.trend(ring.len());
                prop_assert_eq!(batch.to_bits(), incremental.to_bits(),
                    "batch {} != incremental {}", batch, incremental);
            }
        }

        /// The 64-bit Eq. 3 path equals the 128-bit one to the bit,
        /// including sums whose products sit at the `i64::MAX` edge, sums
        /// that straddle it themselves, and windows around `NARROW_N`.
        #[test]
        fn prop_narrow_trend_equals_wide(
            n_pick in 0usize..70,
            long in proptest::bool::ANY,
            y in (0u8..4, 0u64..u64::MAX, 0u64..5),
            xy in (0u8..4, 0u64..u64::MAX, 0u64..5),
        ) {
            let n = if long { NARROW_N - 3 + n_pick % 7 } else { n_pick };
            let sum_x = (n as u128 * n.saturating_sub(1) as u128 / 2).max(1);
            // A sum of the given kind whose product with `factor` is
            // checked against `i64::MAX`.
            let sum = |(kind, raw, off): (u8, u64, u64), factor: u128| -> u128 {
                let edge = |base: u128| (base + off as u128).saturating_sub(2);
                match kind {
                    0 => (raw >> (raw & 63)) as u128,
                    1 => edge(i64::MAX as u128 / factor),
                    2 => edge(i64::MAX as u128),
                    _ => raw as u128 * (off as u128 + 1),
                }
            };
            let sum_y = sum(y, sum_x);
            let sum_xy = sum(xy, n.max(1) as u128);
            let narrow = trend_from_sums(n, sum_y, sum_xy);
            let wide = trend_from_wide_sums(n, sum_y, sum_xy);
            prop_assert_eq!(narrow.to_bits(), wide.to_bits(),
                "n {} Σy {} Σxy {}: {} != {}", n, sum_y, sum_xy, narrow, wide);
        }

        #[test]
        fn prop_paper_literal_trend_agrees_in_sign(
            ys in proptest::collection::vec(0u64..1_000_000, 2..12),
        ) {
            let correct = trend(&ys);
            let literal = trend_paper_literal(&ys);
            // Same sign (or both ≈ 0), magnitude never larger.
            prop_assert!(correct * literal >= -1e-9,
                "sign flip: {correct} vs {literal}");
            prop_assert!(literal.abs() <= correct.abs() + 1e-9);
        }
    }
}
