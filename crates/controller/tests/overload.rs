//! Overload behavior of [`Controller::iterate_into`]: the deadline
//! degradation ladder and the fail-safe cap lease under chaos.
//!
//! * **Ladder shape** (proptest): over randomized overrun schedules the
//!   rung moves at most one step per period, every overrun on a
//!   non-terminal rung descends exactly one rung the next period, and a
//!   climb only happens after the configured number of consecutive
//!   in-budget periods (hysteresis).
//! * **Degraded rungs freeze the economy**: reuse-previous and
//!   monitor-only periods neither mint nor spend credits.
//! * **Chaos reconvergence** (proptest): a run stressed with rung-aware
//!   stage-time inflation *and* a cap-lease partition window never
//!   spends more than 2× its budget for more than one consecutive
//!   period, never panics, and returns to byte-identical `cpu.max`
//!   state vs an unstressed twin within a bounded number of periods of
//!   the chaos clearing.

use proptest::prelude::*;
use vfc_cgroupfs::backend::HostBackend;
use vfc_controller::controller::{Controller, IterationReport};
use vfc_controller::{ControlMode, ControllerConfig, LadderRung, LeaseState};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, VcpuId};
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

/// Deterministic host: performance governor, zero frequency noise.
fn quiet_host(cores: u32, threads_per_core: u32, seed: u64) -> SimHost {
    SimHost::fixed_freq(
        NodeSpec::custom("ovl", 1, cores, threads_per_core, MHz(2400)),
        seed,
    )
}

/// Full-pipeline config with the deadline ladder armed.
fn ladder_config(recovery: u32) -> ControllerConfig {
    let mut cfg = ControllerConfig::paper_defaults().with_mode(ControlMode::Full);
    cfg.deadline_budget_frac = 0.05; // 5 % of the period
    cfg.ladder_recovery_periods = recovery;
    cfg
}

/// Budget in µs for [`ladder_config`] (5 % of the 1 s default period).
const BUDGET_US: u64 = 50_000;
/// An injected delay that overruns even the 2× line.
const HEAVY_US: u64 = 4 * BUDGET_US;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random overrun schedules: transitions are monotone (one rung per
    /// period), overruns descend, climbs respect the hysteresis.
    #[test]
    fn ladder_moves_one_rung_and_respects_hysteresis(
        seed in 0u64..u64::MAX,
        recovery in 1u32..5,
        stressed in proptest::collection::vec(proptest::bool::ANY, 40),
    ) {
        let mut host = quiet_host(2, 2, seed);
        let vm = host.provision(&VmTemplate::new("web", 2, MHz(800)));
        host.attach_workload(vm, Box::new(SteadyDemand::new(0.5)));
        let mut ctl = Controller::new(ladder_config(recovery), host.topology_info());
        let mut report = IterationReport::default();

        // (rung the period ran on, did it overrun)
        let mut track: Vec<(u8, bool)> = Vec::new();
        for &hot in &stressed {
            ctl.inject_stage_delay_us(if hot { HEAVY_US } else { 0 });
            host.advance_period();
            ctl.iterate_into(&mut host, &mut report).unwrap();
            prop_assert_eq!(report.health.deadline_budget_us, BUDGET_US);
            track.push((report.health.ladder_rung.as_u8(), report.health.deadline_overrun));
        }

        for t in 1..track.len() {
            let (prev, overran) = track[t - 1];
            let (cur, _) = track[t];
            // One rung at a time, in either direction.
            prop_assert!(
                cur.abs_diff(prev) <= 1,
                "period {t}: rung jumped {prev} → {cur}"
            );
            if overran {
                // An overrun on a non-terminal rung descends exactly one.
                let want = (prev + 1).min(LadderRung::UncapAll.as_u8());
                prop_assert_eq!(cur, want, "period {}: overrun on rung {} went to {}", t, prev, cur);
            } else {
                prop_assert!(cur <= prev, "period {t}: climbed {prev} → {cur} without budget");
            }
            if cur < prev {
                // Hysteresis: the last `recovery` periods were all in
                // budget (a shorter streak cannot climb).
                prop_assert!(t >= recovery as usize);
                for back in 0..recovery as usize {
                    prop_assert!(
                        !track[t - 1 - back].1,
                        "period {t}: climbed {back} periods after an overrun (recovery {recovery})"
                    );
                }
            }
        }
    }
}

/// Reuse-previous and monitor-only periods freeze every credit wallet:
/// no minting from idle guarantees, no spending on bursts.
#[test]
fn degraded_rungs_never_mint_or_spend_credits() {
    let mut host = quiet_host(2, 2, 17);
    // Far below its guarantee: mints credits every full-pipeline period.
    let vm = host.provision(&VmTemplate::new("idle", 2, MHz(1000)));
    host.attach_workload(vm, Box::new(SteadyDemand::new(0.1)));
    let mut ctl = Controller::new(ladder_config(4), host.topology_info());
    let mut report = IterationReport::default();
    let mut run = |ctl: &mut Controller, host: &mut SimHost, delay: u64| {
        ctl.inject_stage_delay_us(delay);
        host.advance_period();
        ctl.iterate_into(host, &mut report).unwrap();
        (report.health.ladder_rung, ctl.credit_of(vm))
    };

    // Warm up on the full pipeline: the idle VM accrues credits.
    let mut minted = false;
    let mut last = 0;
    for i in 0..6 {
        let (rung, bal) = run(&mut ctl, &mut host, 0);
        assert_eq!(rung, LadderRung::Full);
        if i > 0 && bal > last {
            minted = true;
        }
        last = bal;
    }
    assert!(
        minted,
        "an idle VM must accrue credits on the full pipeline"
    );

    // Two overruns walk Full → ReusePrev → MonitorOnly; the in-budget
    // periods after hold MonitorOnly while the recovery streak builds.
    // From the first *degraded* period on, the balance must not move.
    let (_, frozen) = run(&mut ctl, &mut host, HEAVY_US); // ran Full, verdict overruns
    let mut saw = Vec::new();
    let (rung, bal) = run(&mut ctl, &mut host, HEAVY_US); // runs ReusePrev
    saw.push(rung);
    assert_eq!(bal, frozen, "ReusePrev minted or spent credits");
    for _ in 0..3 {
        let (rung, bal) = run(&mut ctl, &mut host, 0); // MonitorOnly, streak builds
        saw.push(rung);
        assert_eq!(bal, frozen, "{rung:?} minted or spent credits");
    }
    assert!(saw.contains(&LadderRung::ReusePrev), "{saw:?}");
    assert!(saw.contains(&LadderRung::MonitorOnly), "{saw:?}");

    // Fully recovered, the wallet moves again.
    let mut bal = frozen;
    for _ in 0..12 {
        let (rung, b) = run(&mut ctl, &mut host, 0);
        bal = b;
        if rung == LadderRung::Full && bal != frozen {
            break;
        }
    }
    assert!(bal > frozen, "recovery must resume minting");
}

const CHAOS_PERIODS: usize = 70;
/// Periods allowed between the last fault clearing and byte-identical
/// reconvergence (ladder climb ≤ 3 rungs × recovery 3 + lease re-adopt).
const RECONVERGE_WITHIN: usize = 15;

/// Rung-aware stage inflation: the heavy market stages are what an
/// overloaded node can no longer afford, so the cost of a period falls
/// with the rung — full 4× the budget, reuse-previous 1.5×,
/// monitor-only 0.5×, uncap-all 0.1×.
fn stress_cost(rung: LadderRung) -> u64 {
    match rung {
        LadderRung::Full => 4 * BUDGET_US,
        LadderRung::ReusePrev => 3 * BUDGET_US / 2,
        LadderRung::MonitorOnly => BUDGET_US / 2,
        LadderRung::UncapAll => BUDGET_US / 10,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos: stage-time inflation (periods 10..10+stress) then a cap
    /// lease partition (periods 30..30+part). The stressed controller
    /// never spends >2× budget for more than one consecutive period,
    /// never panics, and its `cpu.max` state is byte-identical to an
    /// unstressed twin within [`RECONVERGE_WITHIN`] periods of heal.
    #[test]
    fn chaos_sheds_within_one_period_and_reconverges(
        seed in 0u64..u64::MAX,
        stress_len in 4usize..12,
        part_len in 3usize..8,
    ) {
        let specs: [(&str, u32, MHz, f64); 3] = [
            ("alpha", 2, MHz(800), 0.4),
            ("beta", 2, MHz(1000), 0.6),
            ("gamma", 1, MHz(1200), 0.3),
        ];
        let mut host_s = quiet_host(4, 2, seed); // stressed
        let mut host_b = quiet_host(4, 2, seed); // baseline twin
        let mut vms = Vec::new();
        for (name, vcpus, vfreq, demand) in specs {
            let a = host_s.provision(&VmTemplate::new(name, vcpus, vfreq));
            let b = host_b.provision(&VmTemplate::new(name, vcpus, vfreq));
            prop_assert_eq!(a, b);
            host_s.attach_workload(a, Box::new(SteadyDemand::new(demand)));
            host_b.attach_workload(b, Box::new(SteadyDemand::new(demand)));
            vms.push((a, vcpus));
        }
        let mut cfg = ladder_config(3);
        cfg.cap_lease_ttl = 2;
        cfg.cap_lease_grace = 2;
        let mut ctl_s = Controller::new(cfg.clone(), host_s.topology_info());
        let mut ctl_b = Controller::new(cfg, host_b.topology_info());
        let mut report = IterationReport::default();

        let stress = 10..10 + stress_len;
        let partition = 30..30 + part_len;
        let heal = partition.end.max(stress.end);
        let mut over2x_run = 0usize;
        let mut lease_degraded = false;
        for p in 0..CHAOS_PERIODS {
            // The reconciler heartbeat, cut off by the partition.
            if !partition.contains(&p) {
                ctl_s.renew_lease();
            }
            ctl_b.renew_lease();
            let delay = if stress.contains(&p) {
                stress_cost(ctl_s.ladder_rung())
            } else {
                0
            };
            ctl_s.inject_stage_delay_us(delay);

            host_s.advance_period();
            host_b.advance_period();
            ctl_s.iterate_into(&mut host_s, &mut report).unwrap();
            let spent = report.health.deadline_spent_us;
            ctl_b.iterate_into(&mut host_b, &mut report).unwrap();

            // ≤ one consecutive period above the 2× line: the ladder
            // sheds the expensive stages after the first overrun.
            if spent > 2 * BUDGET_US {
                over2x_run += 1;
                prop_assert!(
                    over2x_run <= 1,
                    "period {p}: {over2x_run} consecutive periods over 2× budget ({spent} µs)"
                );
            } else {
                over2x_run = 0;
            }
            lease_degraded |= ctl_s.lease_state() != LeaseState::Leased;

            if p >= heal + RECONVERGE_WITHIN {
                prop_assert_eq!(ctl_s.ladder_rung(), LadderRung::Full);
                prop_assert_eq!(ctl_s.lease_state(), LeaseState::Leased);
                for &(vm, vcpus) in &vms {
                    for j in 0..vcpus {
                        let a = host_s.vcpu_max(vm, VcpuId::new(j)).unwrap();
                        let b = host_b.vcpu_max(vm, VcpuId::new(j)).unwrap();
                        prop_assert_eq!(
                            a, b,
                            "period {}: cpu.max still diverged on vm {:?} vcpu {}", p, vm, j
                        );
                    }
                }
            }
        }
        // The partition outlasted the TTL, so the lease must have
        // actually degraded at some point (the scenario is not vacuous).
        prop_assert!(lease_degraded, "partition of {part_len} periods never expired the lease");
    }
}
