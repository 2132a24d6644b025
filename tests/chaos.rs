//! Chaos suite: random seeded fault plans against the full control loop.
//!
//! A `FaultInjectingBackend` wraps the simulated host and injects
//! transient read/write failures, stale and zero reads, and whole-VM
//! disappearances — confined to one victim VM so the other tenants'
//! samples stay trustworthy. Whatever the dice do, the loop must:
//!
//! * never panic and never return `Err` from `Controller::iterate`;
//! * never allocate more than `C_MAX` in total (Eq. 1);
//! * keep every *fault-free* saturating vCPU at or above its guaranteed
//!   cycles `C_i` (Eq. 2);
//! * converge back to undegraded health once the fault storm stops.

mod common;

use common::TickingHost;
use proptest::prelude::*;
use vfc::cgroupfs::{FaultInjectingBackend, FaultPlan};
use vfc::controller::daemon::{run_with_shutdown, DaemonConfig, ShutdownHandle};
use vfc::controller::persist::{Journal, LoadOutcome, DEFAULT_MAX_AGE};
use vfc::controller::ControlMode;
use vfc::cpusched::dvfs::{Governor, GovernorKind};
use vfc::cpusched::engine::Engine;
use vfc::prelude::*;
use vfc::simcore::Micros;

/// A noise-free 8-thread 2.4 GHz node: the performance governor pins all
/// cores to f_max, so any allocation shortfall is the controller's fault,
/// not DVFS jitter.
fn quiet_host(seed: u64) -> SimHost {
    SimHost::fixed_freq(NodeSpec::custom("chaos", 1, 4, 2, MHz(2400)), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chaos_on_one_vm_never_breaks_the_loop_or_the_bystanders(
        seed in 0u64..=u64::MAX,
        rate in 0.0f64..0.10,
        vanish in 0.0f64..0.05,
    ) {
        let mut host = quiet_host(seed ^ 0x9e37_79b9);
        let victim = host.provision(&VmTemplate::new("victim", 2, MHz(600)));
        let web = host.provision(&VmTemplate::new("web", 2, MHz(800)));
        let db = host.provision(&VmTemplate::new("db", 1, MHz(1200)));
        for vm in [victim, web, db] {
            host.attach_workload(vm, Box::new(SteadyDemand::full()));
        }
        let topo = host.topology_info();
        let c_max = topo.c_max(Micros::SEC);

        let plan = FaultPlan::random(rate)
            .with_vanish_rate(vanish)
            .with_target_vm(victim);
        let mut faulty = FaultInjectingBackend::new(host, plan, seed);
        let mut ctl = Controller::new(
            ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
            topo,
        );

        let mut last = None;
        for i in 0..6 {
            faulty.inner_mut().advance_period();
            let report = ctl.iterate(&mut faulty);
            prop_assert!(
                report.is_ok(),
                "iteration {i} must degrade, not abort: {:?}",
                report.err()
            );
            let report = report.unwrap();
            prop_assert!(
                report.total_alloc() <= c_max,
                "iteration {i} overallocates: {} > {c_max}",
                report.total_alloc()
            );
            last = Some(report);
        }

        // The victim's faults must never leak into the bystanders: every
        // fault-free saturating vCPU holds its guarantee.
        for v in &last.unwrap().vcpus {
            if v.addr.vm != victim {
                prop_assert!(
                    v.alloc >= v.guaranteed,
                    "{} {}: alloc {} below guarantee {}",
                    v.vm_name, v.addr.vcpu, v.alloc, v.guaranteed
                );
            }
        }

        // Storm over: the loop must converge back to clean, guaranteed
        // allocations (a vanished victim stays gone — that is recovery
        // too, just of the other kind).
        faulty.disarm();
        let mut final_report = None;
        for _ in 0..4 {
            faulty.inner_mut().advance_period();
            final_report = Some(ctl.iterate(&mut faulty).expect("fault-free iterate"));
        }
        let report = final_report.unwrap();
        prop_assert!(
            !report.health.degraded,
            "health must clear after the storm: {:?}",
            report.health
        );
        prop_assert!(report.total_alloc() <= c_max);
        for v in &report.vcpus {
            prop_assert!(
                v.alloc >= v.guaranteed,
                "post-storm {} {}: alloc {} below guarantee {}",
                v.vm_name, v.addr.vcpu, v.alloc, v.guaranteed
            );
        }
    }
}

/// Control period of the daemon-lifecycle chaos test; the simulated
/// window is shrunk to match (10 ticks × 2 ms) so the real-time-sleeping
/// daemon loop stays fast.
const DAEMON_PERIOD: Micros = Micros(20_000);

fn daemon_cfg(journal: &std::path::Path, iterations: Option<u64>) -> DaemonConfig {
    let mut controller = ControllerConfig::paper_defaults().with_mode(ControlMode::Full);
    controller.period = DAEMON_PERIOD;
    controller.window = Micros(2_000);
    DaemonConfig {
        controller,
        journal_path: Some(journal.to_path_buf()),
        iterations,
        // The storm is the test; the circuit breaker must not cut it short.
        max_consecutive_errors: 0,
        ..DaemonConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill the daemon mid-run and restart it, while a fault plan keeps
    /// hammering one victim VM — the full production lifecycle
    /// ([`run_with_shutdown`]): boot reconciliation, the control loop,
    /// the warm handoff, and the journal-driven warm restart. Whatever
    /// the dice do to the victim, the *bystander* VMs must keep their
    /// guarantees through the crash window: the handoff leaves their caps
    /// in force and reconciliation adopts them, so service never dips.
    #[test]
    fn daemon_kill_and_restart_under_chaos_keeps_bystander_guarantees(
        seed in 0u64..=u64::MAX,
        rate in 0.0f64..0.15,
        kill_after in 3u64..6,
    ) {
        // 2 cores × 2 threads: ΣC_i ≈ 1.08 of 4 periods — uncontended
        // guarantees, contended burst.
        let spec = NodeSpec::custom("chaos", 1, 2, 2, MHz(2400));
        let gov = Governor::new(GovernorKind::Performance, spec.min_mhz, spec.max_mhz, 1)
            .with_noise_std(0.0);
        let engine = Engine::with_parts(spec.clone(), Micros(2_000), gov, seed);
        let mut host = SimHost::new(spec, seed).with_engine(engine);
        let victim = host.provision(&VmTemplate::new("victim", 1, MHz(600)));
        let web = host.provision(&VmTemplate::new("web", 1, MHz(800)));
        let db = host.provision(&VmTemplate::new("db", 1, MHz(1200)));
        for vm in [victim, web, db] {
            host.attach_workload(vm, Box::new(SteadyDemand::full()));
        }
        let ticking = TickingHost::new(host)
            .watch(web, VcpuId::new(0))
            .watch(db, VcpuId::new(0));
        let plan = FaultPlan::random(rate).with_target_vm(victim);
        let mut faulty = FaultInjectingBackend::new(ticking, plan, seed);

        let journal = std::env::temp_dir().join(format!(
            "vfc-chaos-restart-{}-{seed:016x}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);

        // First daemon: killed mid-run via the shutdown handle — a warm
        // handoff that flushes the journal and leaves the caps in place.
        let handle = ShutdownHandle::new();
        handle.request_after_iterations(kill_after);
        let done = run_with_shutdown(daemon_cfg(&journal, None), &mut faulty, &handle);
        prop_assert_eq!(done.ok(), Some(kill_after));
        prop_assert!(
            matches!(
                Journal::load(&journal, DAEMON_PERIOD, DEFAULT_MAX_AGE),
                LoadOutcome::Fresh(_)
            ),
            "the handoff must leave a loadable journal behind"
        );

        // Second daemon: warm restart over the same (still faulting) host.
        faulty.inner_mut().clear_freqs();
        let recovery = 6u64;
        let done = run_with_shutdown(
            daemon_cfg(&journal, Some(recovery)),
            &mut faulty,
            &ShutdownHandle::new(),
        );
        prop_assert_eq!(done.ok(), Some(recovery));

        // Every period of the recovery window — including the
        // reconciliation period, when only the predecessor's caps hold
        // the line — must serve the saturating bystanders at or above
        // their guaranteed frequency (5 % scheduler-granularity slack).
        for (vm, mhz, name) in [(web, 800u32, "web"), (db, 1200u32, "db")] {
            let freqs = faulty.inner().freqs_of(vm, VcpuId::new(0));
            prop_assert_eq!(freqs.len(), recovery as usize + 1);
            for (i, f) in freqs.iter().enumerate() {
                prop_assert!(
                    f.as_u32() * 100 >= mhz * 95,
                    "{} recovery period {}: {} below the {} MHz guarantee",
                    name, i, f, mhz
                );
            }
        }
        let _ = std::fs::remove_file(&journal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unscoped storm: every VM (and the host-global reads) can fault.
    /// No per-VM promises survive that, but the loop itself must.
    #[test]
    fn unscoped_chaos_never_panics_or_overallocates(
        seed in 0u64..=u64::MAX,
        rate in 0.0f64..0.10,
    ) {
        let mut host = quiet_host(seed);
        for (name, vcpus, mhz) in [("a", 2u32, 500u32), ("b", 2, 900), ("c", 1, 1500)] {
            let vm = host.provision(&VmTemplate::new(name, vcpus, MHz(mhz)));
            host.attach_workload(vm, Box::new(SteadyDemand::full()));
        }
        let topo = host.topology_info();
        let c_max = topo.c_max(Micros::SEC);

        let mut faulty =
            FaultInjectingBackend::new(host, FaultPlan::random(rate).with_vanish_rate(0.02), seed);
        let mut ctl = Controller::new(
            ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
            topo,
        );
        for i in 0..8 {
            faulty.inner_mut().advance_period();
            let report = ctl.iterate(&mut faulty);
            prop_assert!(report.is_ok(), "iteration {i}: {:?}", report.err());
            prop_assert!(report.unwrap().total_alloc() <= c_max);
        }
    }
}
