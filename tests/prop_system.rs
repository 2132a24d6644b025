//! System-level property tests: random-but-feasible VM populations and
//! demands, run end-to-end through host + controller, must uphold the
//! paper's invariants.

use proptest::prelude::*;
use vfc::controller::ControlMode;
use vfc::prelude::*;
use vfc::simcore::Micros;

#[derive(Debug, Clone)]
struct VmPlan {
    vcpus: u32,
    vfreq_mhz: u32,
    demand: f64,
}

/// Random VM populations whose guarantees satisfy Eq. 7 on an 8-thread
/// 2.4 GHz node (capacity 19 200 MHz).
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
        // Trim until Eq. 7 holds.
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

fn run_population(plans: &[VmPlan], periods: u32) -> (SimHost, Controller, Vec<VmId>) {
    let mut host = SimHost::fixed_freq(NodeSpec::custom("prop", 1, 4, 2, MHz(2400)), 77);
    let mut ids = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        let vm = host.provision(&VmTemplate::new(
            &format!("p{i}"),
            p.vcpus,
            MHz(p.vfreq_mhz),
        ));
        host.attach_workload(vm, Box::new(SteadyDemand::new(p.demand)));
        ids.push(vm);
    }
    let mut ctl = Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        host.topology_info(),
    );
    for _ in 0..periods {
        host.advance_period();
        ctl.iterate(&mut host).expect("sim backend");
    }
    (host, ctl, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn saturating_vms_meet_guarantees_and_capacity_holds(
        plans in feasible_population(),
    ) {
        let (mut host, mut ctl, ids) = run_population(&plans, 20);

        // One more iteration for a fresh report.
        host.advance_period();
        let report = ctl.iterate(&mut host).expect("sim backend");

        // Invariant 1: total allocation within C_MAX.
        let c_max = host.topology_info().c_max(Micros::SEC);
        prop_assert!(report.total_alloc() <= c_max);

        // Invariant 2: every *saturating* vCPU is at or above its
        // guaranteed frequency (±3 % for integer rounding).
        for (vm, plan) in ids.iter().zip(&plans) {
            if plan.demand > 0.99 {
                for j in 0..plan.vcpus {
                    let f = host.vcpu_freq_exact(*vm, VcpuId::new(j)).as_f64();
                    prop_assert!(
                        f >= plan.vfreq_mhz as f64 * 0.97 - 30.0,
                        "vm{} vcpu{}: {} < guarantee {}",
                        vm.as_u32(), j, f, plan.vfreq_mhz
                    );
                }
            }
        }

        // Invariant 3: credits are only held by VMs consuming below their
        // guarantee; fully-saturating VMs cannot accumulate unboundedly.
        for (vm, v) in report.credits.iter() {
            prop_assert!(*v < 40 * 8_000_000, "vm{} hoards {v} credits", vm.as_u32());
        }
    }

    #[test]
    fn partial_demand_is_never_inflated(
        demand in 0.05f64..0.5,
    ) {
        // A vCPU demanding d of a thread must consume ≈ d — the
        // controller must not allocate cycles the guest will not use in
        // a way that shows up as consumption.
        let plans = vec![VmPlan { vcpus: 2, vfreq_mhz: 1200, demand }];
        let (host, _ctl, ids) = run_population(&plans, 15);
        let f = host.vcpu_freq_exact(ids[0], VcpuId::new(0)).as_f64();
        let expected = demand * 2400.0;
        prop_assert!(
            (f - expected).abs() / expected < 0.15,
            "demand {demand}: consumed {f} MHz, expected ≈{expected}"
        );
    }
}
