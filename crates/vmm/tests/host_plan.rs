//! `SimHost` on the engine's flat plan:
//!
//! * a warm `advance_period` performs **zero heap allocations** (counting
//!   `#[global_allocator]`, per thread — `vfc_simcore::alloc_count`);
//! * the plan is rebuilt **once per provision/deprovision**, at the next
//!   tick, and never for `cpu.max`/`cpu.weight` writes;
//! * after every mutator the slot-indexed path (demands in, windows out)
//!   and the cgroup-indexed path (`cpu.stat`) still describe the same
//!   vCPUs;
//! * the last CPU `read_vcpu_raw` finds by engine slot is the one the
//!   engine's search by thread id finds, after provisions, deprovisions
//!   and between a provision and the next tick;
//! * the placer remembers the live threads only, and the host's heap
//!   follows the VMs it hosts now, not every VM it ever hosted.

use std::collections::VecDeque;

use vfc_cgroupfs::backend::HostBackend;
use vfc_cgroupfs::model::CpuMax;
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::alloc_count::{thread_alloc_events, thread_live_bytes, CountingAlloc};
use vfc_simcore::{CpuId, MHz, Micros, VcpuId, VmId};
use vfc_vmm::workload::{BurstyWeb, IdleWorkload, SteadyDemand};
use vfc_vmm::{SimHost, VmTemplate};

// Per-thread counts: the test harness runs each test on its own thread.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---- fixtures ----------------------------------------------------------

/// A contended node: 24 VMs × 2 vCPUs on 8 threads, bursty / steady /
/// saturating / idle guests, default (noisy schedutil) governor.
fn busy_host() -> (SimHost, Vec<VmId>) {
    let mut host = SimHost::new(NodeSpec::custom("t", 1, 8, 1, MHz(2400)), 11);
    let mut vms = Vec::new();
    for i in 0..24u64 {
        let vm = host.provision(&VmTemplate::new("t", 2, MHz(600)));
        match i % 4 {
            0 => host.attach_workload(vm, Box::new(BurstyWeb::new(i))),
            1 => host.attach_workload(vm, Box::new(SteadyDemand::new(0.8))),
            2 => host.attach_workload(vm, Box::new(SteadyDemand::full())),
            _ => host.attach_workload(vm, Box::new(IdleWorkload)),
        }
        vms.push(vm);
    }
    (host, vms)
}

#[test]
fn warm_advance_period_allocates_nothing() {
    let (mut host, vms) = busy_host();
    // Warm-up: the plan, every scratch vector and the telemetry ring
    // (2 × 64 ticks) reach their working size.
    for _ in 0..20 {
        host.advance_period();
    }
    let rebuilds = host.engine().plan_rebuilds();
    let before = thread_alloc_events();
    for period in 0..10u64 {
        // What a controller does every period is not a structure
        // change: no rebuild, no allocation.
        for (k, vm) in vms.iter().enumerate() {
            let quota = Micros(5_000 + 1_000 * ((k as u64 + period) % 40));
            host.set_vcpu_max(*vm, VcpuId::new(0), CpuMax::limited(quota))
                .unwrap();
            host.set_vm_weight(*vm, 50 + 10 * ((k as u32 + period as u32) % 20))
                .unwrap();
        }
        host.advance_period();
    }
    assert_eq!(
        thread_alloc_events() - before,
        0,
        "warm advance_period allocated"
    );
    assert_eq!(host.engine().plan_rebuilds(), rebuilds);
    assert!(host.utilization() > 0.9, "the node is contended");
}

#[test]
fn one_plan_rebuild_per_provision_and_deprovision() {
    let (mut host, vms) = busy_host();
    assert_eq!(host.engine().plan_rebuilds(), 0, "built at the first tick");
    host.advance_period();
    assert_eq!(host.engine().plan_rebuilds(), 1, "24 provisions, one tick");

    let extra = host.provision(&VmTemplate::new("t", 3, MHz(600)));
    host.advance_period();
    assert_eq!(host.engine().plan_rebuilds(), 2);

    drop(host.deprovision(vms[3]));
    host.advance_period();
    assert_eq!(host.engine().plan_rebuilds(), 3);

    // The deferred tear-down lands on one tick of the period.
    host.schedule_deprovision(extra);
    host.advance_period();
    assert_eq!(host.engine().plan_rebuilds(), 4);

    // Inventory changes that are not structure.
    host.set_vfreq(vms[0], MHz(900));
    host.attach_workload(vms[0], Box::new(SteadyDemand::new(0.3)));
    host.advance_period();
    assert_eq!(host.engine().plan_rebuilds(), 4);
}

// ---- slot path == cgroup path -------------------------------------------

/// A quiet node (performance governor, no noise): work = ran × 2400 MHz
/// exactly, so the per-vCPU windows (filled through engine slots) can be
/// checked against `cpu.stat` (filled through cgroup nodes).
fn quiet_host(threads: u32) -> SimHost {
    SimHost::fixed_freq(NodeSpec::custom("t", 1, threads, 1, MHz(2400)), 42)
}

/// Provision a VM whose demand fraction is unique to it.
fn provision(host: &mut SimHost, fracs: &mut Vec<(VmId, f64)>, vcpus: u32) -> VmId {
    let vm = host.provision(&VmTemplate::new("t", vcpus, MHz(600)));
    let frac = 0.11 + 0.07 * fracs.len() as f64;
    host.attach_workload(vm, Box::new(SteadyDemand::new(frac)));
    fracs.push((vm, frac));
    vm
}

/// Run one period and check every live vCPU: demanded time is its own
/// workload's, and ground-truth frequency is its own cgroup's usage.
fn period_is_consistent(host: &mut SimHost, fracs: &[(VmId, f64)], what: &str) {
    let usage = |host: &SimHost| -> Vec<Vec<Micros>> {
        fracs
            .iter()
            .map(|&(vm, _)| {
                let n = if host.is_alive(vm) {
                    host.instance(vm).nr_vcpus()
                } else {
                    0
                };
                (0..n)
                    .map(|j| host.vcpu_usage(vm, VcpuId::new(j)).unwrap())
                    .collect()
            })
            .collect()
    };
    let before = usage(host);
    host.advance_period();
    let after = usage(host);
    for (k, &(vm, frac)) in fracs.iter().enumerate() {
        for j in 0..after[k].len() {
            let vcpu = VcpuId::new(j as u32);
            let demanded = Micros(100_000).scale(frac) * 10;
            assert_eq!(
                host.vcpu_demand_last_window(vm, vcpu),
                demanded,
                "{what}: {vm} vcpu{j} demand"
            );
            let ran = after[k][j] - before[k][j];
            assert_eq!(
                host.vcpu_freq_exact(vm, vcpu),
                MHz((ran.as_u64() * 2400 / 1_000_000) as u32),
                "{what}: {vm} vcpu{j} ran {ran}"
            );
        }
    }
}

#[test]
fn every_mutator_keeps_slots_and_cgroups_in_step() {
    let mut host = quiet_host(3);
    let mut fracs = Vec::new();
    let a = provision(&mut host, &mut fracs, 2);
    let b = provision(&mut host, &mut fracs, 1);
    let c = provision(&mut host, &mut fracs, 3);
    period_is_consistent(&mut host, &fracs, "start");

    let d = provision(&mut host, &mut fracs, 2);
    period_is_consistent(&mut host, &fracs, "provision");

    // The first VM goes: every later slot moves down.
    drop(host.deprovision(a));
    period_is_consistent(&mut host, &fracs, "deprovision");

    host.schedule_deprovision(c);
    // The tear-down falls into this period; check the next, clean one.
    host.advance_period();
    period_is_consistent(&mut host, &fracs, "schedule_deprovision");

    host.set_vcpu_max(d, VcpuId::new(1), CpuMax::limited(Micros(7_000)))
        .unwrap();
    period_is_consistent(&mut host, &fracs, "set_vcpu_max");
    assert_eq!(
        host.vcpu_freq_exact(d, VcpuId::new(1)),
        MHz(168),
        "7 % of 2400"
    );

    host.set_vm_weight(b, 900).unwrap();
    period_is_consistent(&mut host, &fracs, "set_vm_weight");

    provision(&mut host, &mut fracs, 4);
    period_is_consistent(&mut host, &fracs, "provision after churn");
    assert_eq!(host.engine().plan_rebuilds(), 5);
}

/// Every live vCPU's last CPU as `read_vcpu_raw` reports it (by engine
/// slot) equals the engine's search by thread id, and so does its core
/// frequency. Returns how many distinct CPUs were reported.
fn last_cpus_agree(host: &SimHost, what: &str) -> usize {
    let mut seen = std::collections::BTreeSet::new();
    for inst in host.instances() {
        for (j, tid) in inst.tids.iter().enumerate() {
            let raw = host.read_vcpu_raw(inst.id, VcpuId::new(j as u32)).unwrap();
            let by_tid = host.engine().thread_last_cpu(*tid).unwrap_or(CpuId::new(0));
            assert_eq!(raw.last_cpu, by_tid, "{what}: {} vcpu{j}", inst.id);
            assert_eq!(raw.core_freq, host.engine().core_freq(by_tid), "{what}");
            seen.insert(by_tid);
        }
    }
    seen.len()
}

#[test]
fn last_cpu_by_slot_is_last_cpu_by_thread() {
    let (mut host, vms) = busy_host();
    for _ in 0..3 {
        host.advance_period();
    }
    assert!(
        last_cpus_agree(&host, "after provisions") > 1,
        "placement spreads"
    );

    // Between a provision and the next tick the new VM has no slots yet:
    // its thread is in no plan, so it answers CPU 0.
    let extra = host.provision(&VmTemplate::new("t", 3, MHz(600)));
    host.attach_workload(extra, Box::new(SteadyDemand::full()));
    last_cpus_agree(&host, "provisioned, not ticked");
    for j in 0..3 {
        let raw = host.read_vcpu_raw(extra, VcpuId::new(j)).unwrap();
        assert_eq!(raw.last_cpu, CpuId::new(0));
    }
    host.tick();
    last_cpus_agree(&host, "after the tick");

    // A deprovision moves every later VM's slots at the next rebuild;
    // until then both answers still come from the old plan.
    drop(host.deprovision(vms[0]));
    last_cpus_agree(&host, "deprovisioned, not ticked");
    host.tick();
    last_cpus_agree(&host, "after the rebuild");

    // Churn: one VM in, one out, every period.
    for (round, vm) in vms[1..12].iter().enumerate() {
        let new = host.provision(&VmTemplate::new("t", 1 + round as u32 % 3, MHz(600)));
        host.attach_workload(new, Box::new(BurstyWeb::new(round as u64)));
        last_cpus_agree(&host, "churn provision");
        host.schedule_deprovision(*vm);
        host.advance_period();
        assert!(last_cpus_agree(&host, "churn period") > 1);
    }
}

/// Regression: `Tid`s are never reused, so over a replay a host's sticky
/// table grew with every VM it ever hosted.
#[test]
fn placer_tracks_only_live_threads_under_vm_churn() {
    let mut host = quiet_host(4);
    let mut live = VecDeque::new();
    for round in 0..60u32 {
        let vm = host.provision(&VmTemplate::new("t", 1 + round % 3, MHz(600)));
        host.attach_workload(vm, Box::new(SteadyDemand::new(0.5)));
        live.push_back(vm);
        if live.len() > 3 {
            drop(host.deprovision(live.pop_front().unwrap()));
        }
        host.tick();
        let vcpus: u32 = live.iter().map(|vm| host.instance(*vm).nr_vcpus()).sum();
        assert_eq!(host.engine().tracked_threads(), vcpus as usize);
        assert_eq!(host.engine().slots().len(), vcpus as usize);
    }
    assert_eq!(HostBackend::vms(&host).len(), 3);
    assert_eq!(host.instances().len(), 3);
}

/// Regression: a departed VM used to leave its instance (name, template,
/// cgroup and thread lists) and its five cgroup nodes behind, about
/// 1.4 KB per VM, so a host's heap grew with every VM it ever hosted.
#[test]
fn host_memory_follows_live_vms_not_vms_ever_hosted() {
    let mut host = quiet_host(4);
    let mut live = VecDeque::new();
    let mut after_40 = 0;
    for round in 0..4_000u32 {
        let vm = host.provision(&VmTemplate::new("t", 1 + round % 3, MHz(600)));
        host.attach_workload(vm, Box::new(SteadyDemand::new(0.5)));
        live.push_back(vm);
        if live.len() > 3 {
            drop(host.deprovision(live.pop_front().unwrap()));
        }
        host.tick();
        if round == 39 {
            after_40 = thread_live_bytes();
        }
    }
    // What still grows: 4 B of `VmId` → position per VM ever provisioned.
    let grown = thread_live_bytes() - after_40;
    assert!(
        grown <= 32 * 1024,
        "3 960 more VMs through 3 live slots grew the heap by {grown} B"
    );
}
