//! Telemetry system tests: the controller's self-measurement must be
//! internally consistent for *any* feasible workload, not just the
//! scripted scenarios.
//!
//! The load-bearing invariant is accounting: the six per-stage latency
//! histograms are carved out of the same wall clock as the iteration
//! histogram, so across any run the stage totals can never add up to
//! more than the iteration total (the bookkeeping between stages is
//! charged to the iteration, never to a stage). If that ever breaks, the
//! overhead breakdown in EXPERIMENTS.md — and any dashboard built on
//! `vfc_stage_duration_seconds` — is lying.

use proptest::prelude::*;
use vfc::controller::telemetry::Stage;
use vfc::controller::ControlMode;
use vfc::prelude::*;
use vfc::vmm::workload::SteadyDemand;

#[derive(Debug, Clone)]
struct VmPlan {
    vcpus: u32,
    vfreq_mhz: u32,
    demand: f64,
}

/// Random VM populations feasible on an 8-thread 2.4 GHz node (Eq. 7).
fn feasible_population() -> impl Strategy<Value = Vec<VmPlan>> {
    proptest::collection::vec(
        (1u32..=4, 200u32..=2400, 0.0f64..=1.0).prop_map(|(vcpus, vfreq, demand)| VmPlan {
            vcpus,
            vfreq_mhz: vfreq,
            demand,
        }),
        1..8,
    )
    .prop_map(|mut plans| {
        while plans
            .iter()
            .map(|p| p.vcpus as u64 * p.vfreq_mhz as u64)
            .sum::<u64>()
            > 19_200
        {
            plans.pop();
        }
        plans
    })
    .prop_filter("at least one VM", |p| !p.is_empty())
}

const STAGES: [Stage; 6] = [
    Stage::Monitor,
    Stage::Estimate,
    Stage::Enforce,
    Stage::Auction,
    Stage::Distribute,
    Stage::Apply,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stage_histogram_totals_never_exceed_iteration_wall_time(
        plans in feasible_population(),
        periods in 3u32..12,
    ) {
        let spec = NodeSpec::custom("telem", 1, 4, 2, MHz(2400));
        let mut host = SimHost::new(spec, 7);
        for (i, p) in plans.iter().enumerate() {
            let vm = host.provision(&VmTemplate::new(
                &format!("p{i}"),
                p.vcpus,
                MHz(p.vfreq_mhz),
            ));
            host.attach_workload(vm, Box::new(SteadyDemand::new(p.demand)));
        }
        let mut ctl = Controller::new(
            ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
            host.topology_info(),
        );
        for _ in 0..periods {
            host.advance_period();
            ctl.iterate(&mut host).expect("sim backend");
        }

        let metrics = ctl.telemetry();
        let iteration = metrics.iteration_snapshot();
        prop_assert_eq!(iteration.count, periods as u64);

        // Accounting invariant: every stage observed once per iteration,
        // and the stage sums fit inside the iteration sum. Exact in µs:
        // the stages are disjoint sub-intervals of the iteration window
        // and flooring each term can only shrink the left-hand side.
        let mut stage_sum_us = 0u64;
        for stage in STAGES {
            let snap = metrics.stage_snapshot(stage);
            prop_assert_eq!(snap.count, periods as u64, "stage {:?}", stage);
            prop_assert!(snap.p50_us <= snap.p95_us && snap.p95_us <= snap.p99_us);
            prop_assert!(snap.sum_us >= snap.max_us);
            stage_sum_us += snap.sum_us;
        }
        prop_assert!(
            stage_sum_us <= iteration.sum_us,
            "stages account for {stage_sum_us} µs but iterations only took {} µs",
            iteration.sum_us
        );

        // The exposition must agree with the snapshots it is built from.
        let page = metrics.render_prometheus();
        prop_assert!(page.contains(&format!("vfc_iterations_total {periods}")));
        prop_assert!(page.contains(&format!(
            "vfc_iteration_duration_seconds_count {}",
            iteration.count
        )));
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            prop_assert!(
                value.parse::<f64>().map(f64::is_finite).unwrap_or(false),
                "non-finite sample value in: {}", line
            );
        }
    }

    #[test]
    fn monitor_only_mode_never_observes_market_stages(
        periods in 1u32..8,
    ) {
        let spec = NodeSpec::custom("telem-mon", 1, 4, 2, MHz(2400));
        let mut host = SimHost::new(spec, 7);
        let vm = host.provision(&VmTemplate::new("solo", 2, MHz(800)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        let mut ctl = Controller::new(
            ControllerConfig::paper_defaults().with_mode(ControlMode::MonitorOnly),
            host.topology_info(),
        );
        for _ in 0..periods {
            host.advance_period();
            ctl.iterate(&mut host).expect("sim backend");
        }
        let metrics = ctl.telemetry();
        prop_assert_eq!(metrics.stage_snapshot(Stage::Monitor).count, periods as u64);
        prop_assert_eq!(metrics.stage_snapshot(Stage::Estimate).count, periods as u64);
        // Stages 3-6 never run in execution A; zero-duration samples
        // polluting their histograms would fake a sub-µs market.
        for stage in [Stage::Enforce, Stage::Auction, Stage::Distribute, Stage::Apply] {
            prop_assert_eq!(metrics.stage_snapshot(stage).count, 0, "stage {:?}", stage);
        }
    }
}
