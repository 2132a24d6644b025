//! End-to-end guarantee properties of the virtual frequency controller,
//! exercised through the public facade (`vfc::prelude`).

use vfc::prelude::*;
use vfc::simcore::Micros;
use vfc::vmm::workload::TraceWorkload;

/// Deterministic host: performance governor, no frequency noise.
fn quiet_host(sockets: u32, cores: u32, threads_per_core: u32) -> SimHost {
    SimHost::fixed_freq(
        NodeSpec::custom("it", sockets, cores, threads_per_core, MHz(2400)),
        99,
    )
}

fn controller_for(host: &SimHost) -> Controller {
    Controller::new(ControllerConfig::paper_defaults(), host.topology_info())
}

fn settle(host: &mut SimHost, ctl: &mut Controller, periods: u32) {
    for _ in 0..periods {
        host.advance_period();
        ctl.iterate(host).expect("sim backend");
    }
}

#[test]
fn every_class_meets_its_guarantee_under_full_contention() {
    // chetemi fully packed per Eq. 7 with the Table V mix.
    let mut host = quiet_host(2, 10, 2);
    let mut vms = Vec::new();
    for _ in 0..14 {
        vms.push((host.provision(&VmTemplate::small()), 500));
    }
    for _ in 0..8 {
        vms.push((host.provision(&VmTemplate::medium()), 1200));
    }
    for _ in 0..6 {
        vms.push((host.provision(&VmTemplate::large()), 1800));
    }
    for (vm, _) in &vms {
        host.attach_workload(*vm, Box::new(SteadyDemand::full()));
    }
    let mut ctl = controller_for(&host);
    settle(&mut host, &mut ctl, 25);

    for (vm, base) in &vms {
        for j in 0..host.instance(*vm).nr_vcpus() {
            let f = host.vcpu_freq_exact(*vm, VcpuId::new(j));
            assert!(
                f.as_u32() as i64 >= *base as i64 - 60,
                "{} vcpu{} got {} MHz, guarantee {}",
                host.instance(*vm).name,
                j,
                f,
                base
            );
        }
    }
}

#[test]
fn allocations_respect_node_capacity_even_when_oversubscribed() {
    // Deliberately violate Eq. 7: guarantees sum past the node.
    let mut host = quiet_host(1, 2, 1); // 4800 MHz capacity
    for _ in 0..4 {
        let vm = host.provision(&VmTemplate::new("greedy", 2, MHz(1800))); // 14 400 asked
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
    }
    let mut ctl = controller_for(&host);
    let c_max = host.topology_info().c_max(Micros::SEC);
    for _ in 0..15 {
        host.advance_period();
        let report = ctl.iterate(&mut host).expect("sim backend");
        let total: Micros = report.vcpus.iter().map(|v| v.alloc).sum();
        assert!(
            total <= c_max,
            "allocations {total} exceed node capacity {c_max}"
        );
    }
}

#[test]
fn idle_guarantee_returns_to_the_market() {
    // One idle 1800 MHz VM + one saturating 500 MHz VM on a tight node:
    // the small VM must burst far beyond its base using the idle VM's
    // cycles.
    let mut host = quiet_host(1, 1, 2); // 2 threads
    let sleeper = host.provision(&VmTemplate::new("sleeper", 1, MHz(1800)));
    let worker = host.provision(&VmTemplate::new("worker", 1, MHz(500)));
    host.attach_workload(sleeper, Box::new(IdleWorkload));
    host.attach_workload(worker, Box::new(SteadyDemand::full()));
    let mut ctl = controller_for(&host);
    settle(&mut host, &mut ctl, 20);
    let f = host.vcpu_freq_exact(worker, VcpuId::new(0));
    assert!(
        f.as_u32() > 2300,
        "worker should take the sleeper's cycles: {f}"
    );
}

#[test]
fn guarantee_restores_quickly_when_idle_vm_wakes_up() {
    let mut host = quiet_host(1, 1, 2);
    let waker = host.provision(&VmTemplate::new("waker", 1, MHz(1800)));
    let worker = host.provision(&VmTemplate::new("worker", 1, MHz(500)));
    // Idle 30 s, then full demand (engine tick = 100 ms → 300 idle ticks).
    host.attach_workload(
        waker,
        Box::new(TraceWorkload::new(
            std::iter::repeat_n(0.0, 300)
                .chain(std::iter::repeat_n(1.0, 1))
                .collect(),
        )),
    );
    host.attach_workload(worker, Box::new(SteadyDemand::full()));
    let mut ctl = controller_for(&host);
    settle(&mut host, &mut ctl, 30); // through the idle phase

    // After waking, the waker must reach ≈1800 within a bounded ramp.
    let mut reached_at = None;
    for t in 1..=30u32 {
        host.advance_period();
        ctl.iterate(&mut host).expect("sim backend");
        let f = host.vcpu_freq_exact(waker, VcpuId::new(0));
        if f.as_u32() >= 1700 {
            reached_at = Some(t);
            break;
        }
    }
    let t = reached_at.expect("waker never reached its guarantee");
    assert!(t <= 15, "guarantee took {t} s to restore (expected ≤ 15)");
}

#[test]
fn monitor_only_leaves_cfs_in_charge() {
    let mut host = quiet_host(1, 1, 2);
    let a = host.provision(&VmTemplate::new("a", 2, MHz(500)));
    let b = host.provision(&VmTemplate::new("b", 4, MHz(1800)));
    host.attach_workload(a, Box::new(SteadyDemand::full()));
    host.attach_workload(b, Box::new(SteadyDemand::full()));
    let mut ctl = Controller::new(ControllerConfig::monitor_only(), host.topology_info());
    settle(&mut host, &mut ctl, 10);
    // No caps written anywhere.
    for vm in [a, b] {
        for j in 0..host.instance(vm).nr_vcpus() {
            assert!(host.vcpu_max(vm, VcpuId::new(j)).unwrap().is_unlimited());
        }
    }
    // CFS shares per VM: the 2-vCPU VM's vCPUs run twice as fast.
    let fa = host.vcpu_freq_exact(a, VcpuId::new(0)).as_f64();
    let fb = host.vcpu_freq_exact(b, VcpuId::new(0)).as_f64();
    assert!(
        (fa / fb - 2.0).abs() < 0.2,
        "expected per-VM fairness (ratio 2): {fa} vs {fb}"
    );
}

#[test]
fn runtime_vfreq_upgrade_takes_effect_next_period() {
    // Two saturating VMs on one thread: 500 + 1800 = 2300 of 2400 MHz.
    // The cheap customer upgrades to 1100 MHz mid-run; the premium one
    // downgrades to 1200 — the controller re-derives C_i from the
    // template every iteration, so the plateaus move within a few
    // periods.
    let mut host = quiet_host(1, 1, 1);
    let a = host.provision(&VmTemplate::new("a", 1, MHz(500)));
    let b = host.provision(&VmTemplate::new("b", 1, MHz(1800)));
    host.attach_workload(a, Box::new(SteadyDemand::full()));
    host.attach_workload(b, Box::new(SteadyDemand::full()));
    let mut ctl = controller_for(&host);
    settle(&mut host, &mut ctl, 15);
    let fa = host.vcpu_freq_exact(a, VcpuId::new(0)).as_u32();
    let fb = host.vcpu_freq_exact(b, VcpuId::new(0)).as_u32();
    assert!((450..700).contains(&fa), "before upgrade: {fa}");
    assert!(fb > 1700, "before upgrade: {fb}");

    host.set_vfreq(a, MHz(1100));
    host.set_vfreq(b, MHz(1200));
    settle(&mut host, &mut ctl, 15);
    let fa = host.vcpu_freq_exact(a, VcpuId::new(0)).as_u32();
    let fb = host.vcpu_freq_exact(b, VcpuId::new(0)).as_u32();
    assert!(
        (1000..1350).contains(&fa),
        "upgraded VM should reach ≈1100+: {fa}"
    );
    assert!(
        (1100..1450).contains(&fb),
        "downgraded VM should fall to ≈1200+: {fb}"
    );
}

#[test]
fn controller_survives_vm_churn() {
    // VMs appearing mid-run must be picked up; the controller state for
    // departed VMs must not corrupt anything (SimHost has no deprovision,
    // so churn = staggered arrivals here).
    let mut host = quiet_host(1, 2, 2);
    let first = host.provision(&VmTemplate::new("first", 2, MHz(800)));
    host.attach_workload(first, Box::new(SteadyDemand::full()));
    let mut ctl = controller_for(&host);
    settle(&mut host, &mut ctl, 5);

    let second = host.provision(&VmTemplate::new("second", 2, MHz(1500)));
    host.attach_workload(second, Box::new(SteadyDemand::full()));
    settle(&mut host, &mut ctl, 20);

    let f = host.vcpu_freq_exact(second, VcpuId::new(0));
    assert!(
        f.as_u32() >= 1400,
        "late-arriving VM must still get its guarantee: {f}"
    );
}
