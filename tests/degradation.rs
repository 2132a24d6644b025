//! Scripted degradation tests: precise fault sequences against the full
//! loop, asserting each rung of the ladder documented in
//! `vfc_controller::controller::HealthReport` — stale reuse, skip,
//! write retry, clean VM removal, and the daemon's circuit breaker.

use std::io::ErrorKind;
use vfc::cgroupfs::model::CpuMax;
use vfc::cgroupfs::{FaultInjectingBackend, FaultKind, FaultOp, FaultPlan};
use vfc::controller::daemon::{self, DaemonConfig};
use vfc::controller::ControlMode;
use vfc::prelude::*;
use vfc::simcore::Micros;

fn quiet_host(threads_per_core: u32, cores: u32, seed: u64) -> SimHost {
    SimHost::fixed_freq(
        NodeSpec::custom("degr", 1, cores, threads_per_core, MHz(2400)),
        seed,
    )
}

fn full_controller(host: &SimHost) -> Controller {
    Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        host.topology_info(),
    )
}

#[test]
fn vm_disappearing_mid_iteration_is_dropped_cleanly() {
    let mut host = quiet_host(2, 4, 1);
    // The victim idles below its guarantee so it accumulates credits —
    // exactly the state that must not leak once it is gone.
    let victim = host.provision(&VmTemplate::new("victim", 2, MHz(600)));
    let other = host.provision(&VmTemplate::new("other", 2, MHz(800)));
    host.attach_workload(victim, Box::new(SteadyDemand::new(0.05)));
    host.attach_workload(other, Box::new(SteadyDemand::full()));
    let mut ctl = full_controller(&host);

    let faulty = &mut FaultInjectingBackend::new(host, FaultPlan::none(), 2);
    for _ in 0..3 {
        faulty.inner_mut().advance_period();
        ctl.iterate(faulty).unwrap();
    }
    assert!(
        ctl.credit_of(victim) > 0,
        "an idle VM below guarantee earns credits"
    );

    // The VM shuts down between the `vms()` listing and the per-vCPU
    // reads: the listing is stale, every read fails as vanished.
    faulty.vanish_vm(victim);
    faulty.inner_mut().advance_period();
    let report = ctl.iterate(faulty).unwrap();
    assert_eq!(report.health.vanished_vms, vec![victim]);
    assert!(report.health.degraded);
    assert!(
        report.vcpus.iter().all(|v| v.addr.vm != victim),
        "no allocation rows for a vanished VM"
    );
    assert!(
        report.credits.iter().all(|(vm, _)| *vm != victim),
        "wallet purged with the VM"
    );
    assert_eq!(ctl.credit_of(victim), 0);

    // The period after, the listing no longer contains it and health is
    // clean again: no dangling retries, no stale quota writes.
    faulty.inner_mut().advance_period();
    let report = ctl.iterate(faulty).unwrap();
    assert!(!report.health.degraded, "{:?}", report.health);
    assert!(report.vcpus.iter().all(|v| v.addr.vm != victim));
    for v in &report.vcpus {
        assert!(v.alloc >= v.guaranteed);
    }
}

#[test]
fn real_deprovision_between_iterations_drops_wallet() {
    let mut host = quiet_host(2, 4, 3);
    let victim = host.provision(&VmTemplate::new("victim", 2, MHz(600)));
    let other = host.provision(&VmTemplate::new("other", 1, MHz(800)));
    host.attach_workload(victim, Box::new(SteadyDemand::new(0.05)));
    host.attach_workload(other, Box::new(SteadyDemand::full()));
    let mut ctl = full_controller(&host);

    for _ in 0..3 {
        host.advance_period();
        ctl.iterate(&mut host).unwrap();
    }
    assert!(ctl.credit_of(victim) > 0);

    // An actual teardown, processed at the next tick boundary: the VM is
    // simply absent from the next listing — no error ever surfaces.
    host.schedule_deprovision(victim);
    host.advance_period();
    let report = ctl.iterate(&mut host).unwrap();
    assert!(!report.health.degraded, "{:?}", report.health);
    assert!(report.vcpus.iter().all(|v| v.addr.vm != victim));
    assert!(report.credits.iter().all(|(vm, _)| *vm != victim));
    assert_eq!(ctl.credit_of(victim), 0);
}

#[test]
fn ebusy_write_is_retried_next_period() {
    // 2 threads, 4 saturating vCPUs: every allocation is below a full
    // period, so every vCPU carries a real (limited) `cpu.max` cap.
    let mut host = quiet_host(2, 1, 5);
    let a = host.provision(&VmTemplate::new("a", 2, MHz(600)));
    let b = host.provision(&VmTemplate::new("b", 2, MHz(600)));
    host.attach_workload(a, Box::new(SteadyDemand::full()));
    host.attach_workload(b, Box::new(SteadyDemand::full()));
    let mut cfg = ControllerConfig::paper_defaults().with_mode(ControlMode::Full);
    // No stale grace: a failed read skips the vCPU immediately, which is
    // what leaves its pending write with no fresh allocation to replace it.
    cfg.stale_sample_ttl = 0;
    let mut ctl = Controller::new(cfg, host.topology_info());

    let faulty = &mut FaultInjectingBackend::new(host, FaultPlan::none(), 6);
    for _ in 0..3 {
        faulty.inner_mut().advance_period();
        ctl.iterate(faulty).unwrap();
    }
    let addr = VcpuAddr::new(a, VcpuId::new(0));
    assert!(
        !faulty
            .inner()
            .vcpu_max(a, addr.vcpu)
            .unwrap()
            .is_unlimited(),
        "contended vCPU must be capped"
    );

    // Drop VM a's demand so this period computes a genuinely *different*
    // capping — an unchanged one would be elided (syscall dedup) and the
    // scripted fault would have no write to intercept.
    faulty
        .inner_mut()
        .attach_workload(a, Box::new(SteadyDemand::new(0.15)));

    // The kernel bounces this period's `cpu.max` write with EBUSY.
    faulty.script_fault(
        FaultOp::SetVcpuMax,
        Some(a),
        Some(addr.vcpu),
        FaultKind::Io(ErrorKind::ResourceBusy),
        1,
    );
    faulty.inner_mut().advance_period();
    let report = ctl.iterate(faulty).unwrap();
    assert_eq!(report.health.write_errors, 1);
    assert_eq!(report.health.write_retries, 0);
    assert!(report.health.degraded);

    // Next period the same vCPU's read also fails, so no fresh allocation
    // supersedes the pending one: the failed write is re-issued as-is.
    faulty.script_fault(
        FaultOp::VcpuUsage,
        Some(a),
        Some(addr.vcpu),
        FaultKind::Io(ErrorKind::Interrupted),
        1,
    );
    faulty.inner_mut().advance_period();
    let report = ctl.iterate(faulty).unwrap();
    assert_eq!(report.health.write_retries, 1);
    assert_eq!(report.health.write_errors, 0, "the retry succeeds");
    assert_eq!(report.health.skipped_vcpus, vec![addr]);
    assert!(!faulty
        .inner()
        .vcpu_max(a, addr.vcpu)
        .unwrap()
        .is_unlimited());

    // Fully clean again afterwards.
    faulty.inner_mut().advance_period();
    let report = ctl.iterate(faulty).unwrap();
    assert!(!report.health.degraded, "{:?}", report.health);
}

#[test]
fn single_vcpu_read_failure_never_aborts_iterate() {
    let mut host = quiet_host(2, 4, 7);
    let a = host.provision(&VmTemplate::new("a", 2, MHz(600)));
    let b = host.provision(&VmTemplate::new("b", 2, MHz(800)));
    host.attach_workload(a, Box::new(SteadyDemand::full()));
    host.attach_workload(b, Box::new(SteadyDemand::full()));
    let mut ctl = full_controller(&host);

    let faulty = &mut FaultInjectingBackend::new(host, FaultPlan::none(), 8);
    faulty.inner_mut().advance_period();
    ctl.iterate(faulty).unwrap();

    // Default TTL (2): the first failure is answered from the stale
    // cache, so the vCPU still gets a full report row.
    let addr = VcpuAddr::new(a, VcpuId::new(1));
    faulty.script_fault(
        FaultOp::VcpuUsage,
        Some(a),
        Some(addr.vcpu),
        FaultKind::Io(ErrorKind::Interrupted),
        1,
    );
    faulty.inner_mut().advance_period();
    let report = ctl
        .iterate(faulty)
        .expect("a single failing read must not abort");
    assert_eq!(report.health.read_errors, 1);
    assert_eq!(report.health.stale_reused, 1);
    assert!(report.health.skipped_vcpus.is_empty());
    assert!(report.vcpu(addr).is_some(), "stale reuse keeps the row");
    assert_eq!(report.vcpus.len(), 4);
}

#[test]
fn circuit_breaker_uncaps_everything_and_exits() {
    let mut host = quiet_host(2, 1, 9);
    let a = host.provision(&VmTemplate::new("a", 2, MHz(600)));
    host.attach_workload(a, Box::new(SteadyDemand::full()));
    // Caps left over from the controller's previous life.
    for j in 0..2 {
        host.set_vcpu_max(a, VcpuId::new(j), CpuMax::limited(Micros(25_000)))
            .unwrap();
    }

    // Every usage read fails, forever: the host is unobservable.
    let plan = FaultPlan::none()
        .with_rate(FaultOp::VcpuUsage, 1.0)
        .with_kinds(&[FaultKind::Io(ErrorKind::Interrupted)]);
    let mut faulty = FaultInjectingBackend::new(host, plan, 10);

    let mut cfg = DaemonConfig::default();
    cfg.controller.mode = ControlMode::Full;
    cfg.controller.period = Micros(1000); // keep the test's sleeps tiny
    cfg.iterations = Some(50);
    cfg.max_consecutive_errors = 3;
    let err = daemon::run_with_backend(cfg, &mut faulty).unwrap_err();
    assert!(err.contains("circuit breaker"), "{err}");

    for j in 0..2 {
        assert!(
            faulty
                .inner()
                .vcpu_max(a, VcpuId::new(j))
                .unwrap()
                .is_unlimited(),
            "tenants must be left uncapped, never half-throttled"
        );
    }
}

#[test]
fn disabled_circuit_breaker_soldiers_on() {
    let mut host = quiet_host(2, 1, 11);
    let a = host.provision(&VmTemplate::new("a", 1, MHz(600)));
    host.attach_workload(a, Box::new(SteadyDemand::full()));
    let plan = FaultPlan::none()
        .with_rate(FaultOp::VcpuUsage, 1.0)
        .with_kinds(&[FaultKind::Io(ErrorKind::Interrupted)]);
    let mut faulty = FaultInjectingBackend::new(host, plan, 12);

    let mut cfg = DaemonConfig::default();
    cfg.controller.mode = ControlMode::Full;
    cfg.controller.period = Micros(1000);
    cfg.iterations = Some(5);
    cfg.max_consecutive_errors = 0; // breaker off
    assert_eq!(daemon::run_with_backend(cfg, &mut faulty), Ok(5));
}
