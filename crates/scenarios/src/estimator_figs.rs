//! Figures 3–5: the estimator's three cases, traced.
//!
//! A single vCPU replays a demand staircase while the controller runs;
//! we record consumption `u` and capping `c` per iteration. Fig. 3 shows
//! the capping chasing an increase, Fig. 4 a gentle backoff on a
//! decrease, Fig. 5 a stable plateau without oscillation.

use vfc_controller::{ControlMode, Controller, ControllerConfig};
use vfc_cpusched::topology::NodeSpec;
use vfc_metrics::series::GroupedSeries;
use vfc_simcore::{MHz, VcpuAddr, VcpuId};
use vfc_vmm::workload::TraceWorkload;
use vfc_vmm::{SimHost, VmTemplate};

/// Which estimator figure to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorFig {
    /// Fig. 3: increasing consumption.
    Increase,
    /// Fig. 4: decreasing consumption.
    Decrease,
    /// Fig. 5: stable consumption.
    Stable,
}

impl EstimatorFig {
    /// Per-controller-iteration demand staircase (fraction of one vCPU).
    /// Each value holds for one second (10 engine ticks).
    fn demand_per_second(&self) -> Vec<f64> {
        match self {
            // Ramp from 20 % to 90 %, then hold.
            EstimatorFig::Increase => {
                let mut v = vec![0.2; 5];
                for i in 0..15 {
                    v.push(0.2 + 0.05 * i as f64);
                }
                v.extend(vec![0.9; 10]);
                v
            }
            // Start high, drop to 15 %, hold.
            EstimatorFig::Decrease => {
                let mut v = vec![0.9; 8];
                for i in 0..12 {
                    v.push(0.9 - 0.0625 * i as f64);
                }
                v.extend(vec![0.15; 10]);
                v
            }
            // Constant 60 %.
            EstimatorFig::Stable => vec![0.6; 30],
        }
    }
}

/// Trace of consumption vs capping, one point per controller iteration.
pub fn trace(fig: EstimatorFig) -> GroupedSeries {
    let mut host = SimHost::fixed_freq(NodeSpec::custom("estimator", 1, 2, 1, MHz(2400)), 3);

    let vm = host.provision(&VmTemplate::new("probe", 1, MHz(1200)));
    let per_second = fig.demand_per_second();
    // Expand to per-tick demands (10 ticks per controller period).
    let per_tick: Vec<f64> = per_second
        .iter()
        .flat_map(|&d| std::iter::repeat_n(d, 10))
        .collect();
    let iterations = per_second.len();
    host.attach_workload(vm, Box::new(TraceWorkload::new(per_tick)));

    let mut controller = Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        host.topology_info(),
    );

    let addr = VcpuAddr::new(vm, VcpuId::new(0));
    let mut series = GroupedSeries::new();
    for _ in 0..iterations {
        host.advance_period();
        let report = controller.iterate(&mut host).expect("sim backend");
        let v = report.vcpu(addr).expect("probe vCPU is reported");
        let now = host.now();
        series.push("consumption", now, v.used.as_u64() as f64);
        series.push("capping", now, v.alloc.as_u64() as f64);
        series.push("estimate", now, v.estimate.as_u64() as f64);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_values(series: &GroupedSeries, name: &str, n: usize) -> Vec<f64> {
        let s = series.get(name).expect("series exists");
        s.values().collect::<Vec<_>>()[s.len().saturating_sub(n)..].to_vec()
    }

    #[test]
    fn fig3_capping_follows_the_increase() {
        let t = trace(EstimatorFig::Increase);
        // Final consumption ≈ 0.9 s/iteration; capping must have grown to
        // accommodate it (vCPU guarantee is 1200/2400 = 500 000, so the
        // burst above it must come from the market).
        let u = last_values(&t, "consumption", 3);
        let c = last_values(&t, "capping", 3);
        for (u, c) in u.iter().zip(&c) {
            assert!(
                (u - 900_000.0).abs() < 50_000.0,
                "final consumption should be ≈900k, got {u}"
            );
            assert!(c >= u, "capping {c} must cover consumption {u}");
        }
    }

    #[test]
    fn fig4_capping_backs_off_after_the_decrease() {
        let t = trace(EstimatorFig::Decrease);
        let c = last_values(&t, "capping", 1)[0];
        // Demand fell to 150 000 µs; the capping must have followed down
        // (well below the initial ≈900k).
        assert!(c < 400_000.0, "capping should decay, still at {c}");
        assert!(c >= 150_000.0, "capping must stay above consumption, {c}");
    }

    #[test]
    fn fig5_stable_capping_does_not_oscillate() {
        let t = trace(EstimatorFig::Stable);
        let caps = last_values(&t, "capping", 10);
        let min = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = caps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min < 0.02 * max,
            "stable capping oscillates: [{min}, {max}]"
        );
        // Close to consumption (≈600k) with small headroom, not wasteful.
        assert!(
            (600_000.0..700_000.0).contains(&caps[0]),
            "capping {caps:?} should hug the 600k consumption"
        );
    }

    #[test]
    fn traces_have_three_series_each() {
        for fig in [
            EstimatorFig::Increase,
            EstimatorFig::Decrease,
            EstimatorFig::Stable,
        ] {
            let t = trace(fig);
            assert_eq!(t.names().len(), 3);
            assert!(!t.get("consumption").unwrap().is_empty());
        }
    }
}
