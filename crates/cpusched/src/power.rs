//! Node power model.
//!
//! Used by the placement evaluation (§IV.C) to translate "7 of 22 nodes
//! can be shut down" into energy figures, and by the host simulator's
//! per-tick telemetry. The model is the standard affine-plus-dynamic
//! form used across the consolidation literature the paper cites:
//!
//! ```text
//! P(u, f) = P_idle + (P_max − P_idle) · u · (f / f_max)
//! ```
//!
//! with `u` the node utilization and `f` the average active-core
//! frequency. The utilization term is the standard *affine* server-power
//! model of the consolidation literature (Beloglazov-style): a large idle
//! floor plus a dynamic part linear in utilization — the regime in which
//! shutting down emptied nodes saves their full idle power, the premise
//! of every consolidation work the paper cites. The frequency term is
//! also linear: in
//! the 1.2–2.4 GHz operating range of server parts the supply voltage
//! barely scales and uncore power dominates, so measured node power grows
//! roughly linearly with frequency. A linear term also gives
//! `P(f)/f = P_idle/f + const`, strictly decreasing in `f`, i.e. energy
//! per unit of work is minimized at high frequency — the observation
//! (\[12\] in the paper) that wasting compute capacity can cost more energy
//! than finishing fast.

use crate::topology::NodeSpec;
use vfc_simcore::{MHz, Micros};

/// Utilization exponent of the power curve (1.0 = affine model).
const UTIL_EXP: f64 = 1.0;

/// Instantaneous node power draw in Watts.
///
/// `util` ∈ [0, 1] is the fraction of hardware-thread time in use; `freq`
/// is the average frequency of the active cores.
pub fn node_power_w(spec: &NodeSpec, util: f64, freq: MHz) -> f64 {
    let util = util.clamp(0.0, 1.0);
    let f_ratio = if spec.max_mhz.as_u32() == 0 {
        0.0
    } else {
        (freq.as_f64() / spec.max_mhz.as_f64()).clamp(0.0, 1.02)
    };
    spec.idle_power_w + (spec.max_power_w - spec.idle_power_w) * util.powf(UTIL_EXP) * f_ratio
}

/// Energy in Joules consumed over `wall` of wall-clock time at constant
/// `util`/`freq`.
pub fn energy_j(spec: &NodeSpec, util: f64, freq: MHz, wall: Micros) -> f64 {
    node_power_w(spec, util, freq) * wall.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Energy per unit of work (Joules per 10⁹ hardware cycles) when the
    /// node runs `active_threads` (≥ 1) threads at frequency `freq`.
    fn energy_per_gcycle(spec: &NodeSpec, active_threads: u32, freq: MHz) -> f64 {
        let util = (active_threads as f64 / spec.nr_threads() as f64).clamp(0.0, 1.0);
        // Work rate: active_threads × freq MHz = active × freq × 10⁶ cycles/s.
        let gcycles_per_s = active_threads as f64 * freq.as_f64() / 1_000.0;
        node_power_w(spec, util, freq) / gcycles_per_s
    }

    #[test]
    fn idle_node_draws_idle_power() {
        let spec = NodeSpec::chetemi();
        let p = node_power_w(&spec, 0.0, MHz(1200));
        assert!((p - spec.idle_power_w).abs() < 1e-9);
    }

    #[test]
    fn full_node_draws_max_power() {
        let spec = NodeSpec::chetemi();
        let p = node_power_w(&spec, 1.0, spec.max_mhz);
        assert!((p - spec.max_power_w).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_util_and_freq() {
        let spec = NodeSpec::chiclet();
        let mut prev = 0.0;
        for u in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = node_power_w(&spec, u, spec.max_mhz);
            assert!(p >= prev);
            prev = p;
        }
        assert!(node_power_w(&spec, 0.5, MHz(1200)) < node_power_w(&spec, 0.5, MHz(2400)));
    }

    #[test]
    fn energy_j_scales_with_time() {
        let spec = NodeSpec::chetemi();
        let e1 = energy_j(&spec, 0.5, MHz(2400), Micros::from_secs(1));
        let e2 = energy_j(&spec, 0.5, MHz(2400), Micros::from_secs(2));
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn high_frequency_is_more_energy_efficient() {
        // The paper's [12]: CPUs are more efficient at high frequency —
        // energy per cycle drops as frequency rises (idle floor amortized).
        let spec = NodeSpec::chetemi();
        let threads = spec.nr_threads();
        let slow = energy_per_gcycle(&spec, threads, MHz(1200));
        let fast = energy_per_gcycle(&spec, threads, MHz(2400));
        assert!(
            fast < slow,
            "expected high freq to be more efficient: {fast} vs {slow}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let spec = NodeSpec::chetemi();
        // Utilization outside [0,1] is clamped, not propagated.
        let p = node_power_w(&spec, 7.0, spec.max_mhz);
        assert!((p - spec.max_power_w).abs() < 1e-9);
    }
}
