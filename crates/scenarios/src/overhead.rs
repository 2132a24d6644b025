//! §IV.A.2 — controller overhead.
//!
//! The paper measures ≈5 ms per iteration (≈4 ms of it monitoring) on
//! *chetemi* during execution B, i.e. with 80 vCPUs hosted (20 small ×2 +
//! 10 large ×4). We reproduce the measurement methodology: run the full
//! loop against a loaded host, discard the warmup iterations (cold
//! caches and first-touch allocations are boot cost, not steady-state
//! overhead), and report the per-stage latency distribution —
//! p50/p95/p99/max from [`vfc_telemetry`] histograms, not just means.
//! Absolute numbers differ (our backend is in-memory; theirs crossed the
//! kernel for every cgroup file), but the *distribution* — monitoring
//! dominating the loop — is the claim to check.
//!
//! The run also times the telemetry exposition itself (rendering the
//! controller's full Prometheus page once per iteration, as `vfcd
//! --metrics` does), so the report can answer "what does observing the
//! controller cost" — the acceptance bar is < 5 % of the control period
//! in release builds.

use std::time::{Duration, Instant};
use vfc_controller::controller::IterationReport;
use vfc_controller::{ControlMode, Controller, ControllerConfig, StageTimings};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_telemetry::hist::LATENCY_BUCKETS_US;
use vfc_telemetry::{HistSnapshot, Histogram, STAGE_NAMES};
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

/// Default warmup iterations discarded before measurement.
pub const DEFAULT_WARMUP: u32 = 3;

/// Per-stage latency distributions over an overhead run (post-warmup).
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// vCPUs hosted during the measurement.
    pub vcpus: u32,
    /// Iterations measured (warmup excluded).
    pub iterations: u32,
    /// Warmup iterations discarded before measurement began.
    pub warmup: u32,
    /// Mean per-stage wall time (kept for the §IV.A.2 comparison; the
    /// paper reports means only).
    pub mean: StageTimings,
    /// Latency distribution per stage, in [`STAGE_NAMES`] order.
    pub stages: Vec<(&'static str, HistSnapshot)>,
    /// Whole-iteration latency distribution.
    pub iteration: HistSnapshot,
    /// Cost of rendering the controller's full Prometheus page once —
    /// what `vfcd --metrics` adds to every period.
    pub render: HistSnapshot,
}

impl OverheadReport {
    /// Monitoring share of the total loop time, in [0, 1].
    pub fn monitor_share(&self) -> f64 {
        let total = self.mean.total.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.mean.monitor.as_secs_f64() / total
        }
    }

    /// Telemetry overhead as a share of the control period: the mean
    /// exposition render cost divided by `period`. The in-loop observes
    /// are already inside the stage timings (they are integer adds; the
    /// render is the only per-period cost worth budgeting).
    pub fn render_share(&self, period: Duration) -> f64 {
        let p = period.as_secs_f64();
        if p == 0.0 {
            0.0
        } else {
            self.render.mean_us() as f64 / 1e6 / p
        }
    }
}

/// Run the overhead measurement with the paper's chetemi VM mix scaled to
/// roughly `target_vcpus` vCPUs, discarding [`DEFAULT_WARMUP`] warmup
/// iterations.
pub fn measure(target_vcpus: u32, iterations: u32) -> OverheadReport {
    measure_with_warmup(target_vcpus, DEFAULT_WARMUP, iterations)
}

/// [`measure`] with an explicit warmup count. `warmup` iterations run
/// first and are excluded from every reported distribution. Targets past
/// the chetemi node (> 160 vCPUs) run on a scaled 2:1-oversubscribed
/// host, matching `vfc_bench::dense_host`.
pub fn measure_with_warmup(target_vcpus: u32, warmup: u32, iterations: u32) -> OverheadReport {
    let spec = if target_vcpus <= 160 {
        NodeSpec::chetemi()
    } else {
        // A denser host than any real node here: vcpus/2 hardware
        // threads, same 2:1 virtual oversubscription as chetemi-B.
        NodeSpec::custom("dense", 1, (target_vcpus / 4).max(1), 2, MHz(2400))
    };
    let mut host = SimHost::new(spec, 99);
    // 2-vCPU VMs until the target is reached (mix shape does not matter
    // for the loop cost; the vCPU count does).
    let mut vcpus = 0u32;
    while vcpus < target_vcpus {
        let vm = host.provision(&VmTemplate::new("load", 2, MHz(500)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        vcpus += 2;
    }

    let cfg = ControllerConfig::paper_defaults().with_mode(ControlMode::Full);
    let mut controller = Controller::new(cfg, host.topology_info());

    // One reused report, as the daemon runs it.
    let mut report = IterationReport::default();
    for _ in 0..warmup {
        host.advance_period();
        controller
            .iterate_into(&mut host, &mut report)
            .expect("sim backend");
    }

    // Measurement histograms are local so warmup never pollutes them
    // (the controller's own registry has been counting since boot).
    let mut stage_hists: Vec<Histogram> = (0..STAGE_NAMES.len())
        .map(|_| Histogram::new(&LATENCY_BUCKETS_US))
        .collect();
    let mut iter_hist = Histogram::new(&LATENCY_BUCKETS_US);
    let mut render_hist = Histogram::new(&LATENCY_BUCKETS_US);
    let mut acc = StageTimings::default();
    for _ in 0..iterations {
        host.advance_period();
        controller
            .iterate_into(&mut host, &mut report)
            .expect("sim backend");
        let t = &report.timings;
        for (hist, stage) in stage_hists.iter_mut().zip(t.stages()) {
            hist.observe(stage);
        }
        iter_hist.observe(t.total);
        acc.monitor += t.monitor;
        acc.estimate += t.estimate;
        acc.enforce += t.enforce;
        acc.auction += t.auction;
        acc.distribute += t.distribute;
        acc.apply += t.apply;
        acc.total += t.total;
        // The exposition cost, measured exactly as vfcd pays it.
        let r = Instant::now();
        let page = controller.telemetry().render_prometheus();
        render_hist.observe(r.elapsed());
        debug_assert!(page.contains("vfc_iterations_total"));
    }
    let n = iterations.max(1);
    OverheadReport {
        vcpus,
        iterations,
        warmup,
        mean: StageTimings {
            monitor: acc.monitor / n,
            estimate: acc.estimate / n,
            enforce: acc.enforce / n,
            auction: acc.auction / n,
            distribute: acc.distribute / n,
            apply: acc.apply / n,
            total: acc.total / n,
        },
        stages: STAGE_NAMES
            .iter()
            .zip(&stage_hists)
            .map(|(name, h)| (*name, h.snapshot()))
            .collect(),
        iteration: iter_hist.snapshot(),
        render: render_hist.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_cost_is_far_below_the_period() {
        // The controller must leave essentially the whole period for
        // sleeping: the paper reports 5 ms of a 1 s period; allow a very
        // generous 100 ms bound for debug builds.
        let r = measure(80, 5);
        assert_eq!(r.vcpus, 80);
        assert_eq!(r.warmup, DEFAULT_WARMUP);
        assert!(
            r.mean.total < Duration::from_millis(100),
            "iteration cost {:?} is not negligible",
            r.mean.total
        );
    }

    #[test]
    fn stage_times_sum_to_at_most_total() {
        let r = measure(40, 5);
        let parts = r.mean.monitor
            + r.mean.estimate
            + r.mean.enforce
            + r.mean.auction
            + r.mean.distribute
            + r.mean.apply;
        assert!(parts <= r.mean.total + Duration::from_micros(500));
        assert!(r.monitor_share() >= 0.0 && r.monitor_share() <= 1.0);
    }

    #[test]
    fn distributions_cover_exactly_the_measured_iterations() {
        let r = measure_with_warmup(20, 2, 7);
        assert_eq!(r.iterations, 7);
        assert_eq!(r.iteration.count, 7);
        assert_eq!(r.stages.len(), 6);
        for (name, snap) in &r.stages {
            assert_eq!(snap.count, 7, "stage {name}");
            assert!(snap.p50_us <= snap.p95_us && snap.p95_us <= snap.p99_us);
            assert!(snap.max_us >= snap.p50_us.min(snap.max_us));
        }
        assert_eq!(r.render.count, 7);
        // Quantiles are conservative: p50 never exceeds the observed max.
        assert!(r.iteration.p50_us >= r.iteration.sum_us / 7 / 10);
    }

    /// Release-only acceptance bar: the telemetry exposition must cost
    /// less than 5 % of the paper's 1 s control period. Debug builds are
    /// 10–50× slower and would make this assertion meaningless.
    #[cfg(not(debug_assertions))]
    #[test]
    fn telemetry_render_is_under_five_percent_of_the_period() {
        let r = measure(80, 10);
        let share = r.render_share(Duration::from_secs(1));
        assert!(
            share < 0.05,
            "exposition costs {:.2} % of the period (mean {} µs)",
            share * 100.0,
            r.render.mean_us()
        );
    }
}
