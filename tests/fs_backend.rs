//! The controller driving the **filesystem backend** end-to-end: every
//! read and write crosses real files with the kernel formats, against a
//! fixture tree that a test "hypervisor" animates between iterations.

use vfc::cgroupfs::fixture::FixtureTree;
use vfc::cgroupfs::HostBackend;
use vfc::controller::{Controller, ControllerConfig};
use vfc::simcore::{MHz, Micros};

/// Advance the fixture by one emulated second: each named VM's vCPUs try
/// to consume `demand` µs, bounded by their current `cpu.max`.
fn consume(fx: &FixtureTree, vm: &str, vcpus: u32, demand: Micros) {
    for j in 0..vcpus {
        let cap = fx.vcpu_cpu_max(vm, j);
        let allowed = cap.budget_for(Micros::SEC);
        fx.add_vcpu_usage(vm, j, demand.min(allowed));
    }
}

#[test]
fn caps_are_written_to_disk_and_guarantees_converge() {
    // Tight node: 2 CPUs = 4800 MHz for 2×500 + 2×1800 = 4600 MHz of
    // guarantees, so the caps actually bind (on a slack node the
    // controller correctly writes `max` instead).
    let fx = FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("small0", 2, &[101, 102])
        .vm("large0", 2, &[201, 202])
        .build();
    let mut backend = fx.backend();
    backend.set_vfreq("small0", MHz(500));
    backend.set_vfreq("large0", MHz(1800));

    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());

    for _ in 0..15 {
        consume(&fx, "small0", 2, Micros::SEC);
        consume(&fx, "large0", 2, Micros::SEC);
        ctl.iterate(&mut backend).expect("fs backend");
    }

    // The caps on disk encode ≈ the guarantees + any market burst; the
    // large VM's quota must be ≥ its guarantee (75 000 µs per 100 ms).
    let large_cap = fx.vcpu_cpu_max("large0", 0);
    let large_quota = large_cap.quota.expect("large is capped");
    assert!(
        large_quota >= Micros(74_000),
        "large quota {large_quota} below its guarantee"
    );

    // And consumption converged to the guarantee ratio: with both VMs
    // saturating on 2 CPUs (4800 MHz) and 4600 MHz guaranteed, everyone
    // gets at least their base.
    let report = ctl.iterate(&mut backend).expect("fs backend");
    for v in &report.vcpus {
        assert!(
            v.alloc >= v.guaranteed.min(v.estimate),
            "{}: alloc {} below min(guarantee {}, estimate {})",
            v.vm_name,
            v.alloc,
            v.guaranteed,
            v.estimate
        );
    }
}

#[test]
fn fs_backend_sees_new_vms_between_iterations() {
    let fx = FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("only", 1, &[11])
        .build();
    let mut backend = fx.backend();
    backend.set_vfreq("only", MHz(1000));
    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    consume(&fx, "only", 1, Micros::SEC);
    let r = ctl.iterate(&mut backend).expect("fs backend");
    assert_eq!(r.vcpus.len(), 1);

    // A "new VM" appears on disk (as if libvirt had provisioned it).
    let fx2 = FixtureTree::builder().cpus(1, MHz(2400)).build();
    drop(fx2); // unrelated tree; the real addition:
    std::fs::create_dir_all(
        fx.cgroup_root()
            .join("machine.slice")
            .join("machine-qemu\\x2d9\\x2dnewbie.scope/libvirt/vcpu0"),
    )
    .unwrap();
    let vdir = fx
        .cgroup_root()
        .join("machine.slice")
        .join("machine-qemu\\x2d9\\x2dnewbie.scope/libvirt/vcpu0");
    std::fs::write(vdir.join("cpu.max"), "max 100000\n").unwrap();
    std::fs::write(
        vdir.join("cpu.stat"),
        "usage_usec 0\nuser_usec 0\nsystem_usec 0\nnr_periods 0\nnr_throttled 0\nthrottled_usec 0\n",
    )
    .unwrap();
    std::fs::write(vdir.join("cgroup.threads"), "5555\n").unwrap();
    fx.set_thread_cpu(vfc::simcore::Tid::new(5555), vfc::simcore::CpuId::new(0));

    let r = ctl.iterate(&mut backend).expect("fs backend");
    assert_eq!(r.vcpus.len(), 2, "new scope must be discovered");
    assert!(r.vcpus.iter().any(|v| v.vm_name == "newbie"));
}

#[test]
fn vm_without_declared_vfreq_is_best_effort() {
    let fx = FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("anon", 1, &[31])
        .build();
    let mut backend = fx.backend();
    // No set_vfreq: the controller treats it as zero-guarantee.
    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    for _ in 0..5 {
        consume(&fx, "anon", 1, Micros::SEC);
        let r = ctl.iterate(&mut backend).expect("fs backend");
        let v = &r.vcpus[0];
        assert_eq!(v.guaranteed, Micros::ZERO);
        assert!(v.vfreq.is_none());
    }
    // It still receives cycles (stage 5 gives away the whole idle node).
    let r = ctl.iterate(&mut backend).expect("fs backend");
    assert!(r.vcpus[0].alloc > Micros::ZERO);
}

#[test]
fn topology_read_from_disk() {
    let fx = FixtureTree::builder().cpus(7, MHz(2100)).build();
    let backend = fx.backend();
    let topo = backend.topology();
    assert_eq!(topo.nr_cpus, 7);
    assert_eq!(topo.max_mhz, MHz(2100));
}

#[test]
fn vm_teardown_mid_run_is_survivable() {
    // A VM's whole scope vanishing between iterations (KVM shutdown) must
    // simply drop it from the next discovery — no error, no stale state.
    let fx = FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("stays", 1, &[11])
        .vm("goes", 1, &[21])
        .build();
    let mut backend = fx.backend();
    backend.set_vfreq("stays", MHz(500));
    backend.set_vfreq("goes", MHz(500));
    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    consume(&fx, "stays", 1, Micros::SEC);
    consume(&fx, "goes", 1, Micros::SEC);
    let r = ctl.iterate(&mut backend).expect("both alive");
    assert_eq!(r.vcpus.len(), 2);

    // Tear the second VM down on disk.
    let scope = fx
        .cgroup_root()
        .join("machine.slice")
        .join("machine-qemu\\x2d2\\x2dgoes.scope");
    std::fs::remove_dir_all(&scope).unwrap();

    consume(&fx, "stays", 1, Micros::SEC);
    let r = ctl.iterate(&mut backend).expect("survivor still works");
    assert_eq!(r.vcpus.len(), 1);
    assert_eq!(r.vcpus[0].vm_name, "stays");
}

#[test]
fn torn_interface_file_errors_cleanly_and_recovers() {
    // Only the cpu.stat file disappears (a mid-teardown race): the VM is
    // treated as vanished for the iteration — no panic, no Err — and once
    // the file is back the controller picks it up again.
    let fx = FixtureTree::builder()
        .cpus(1, MHz(2400))
        .vm("racy", 1, &[31])
        .build();
    let mut backend = fx.backend();
    backend.set_vfreq("racy", MHz(500));
    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    consume(&fx, "racy", 1, Micros::SEC);
    let r = ctl.iterate(&mut backend).expect("healthy");
    let vm = r.vcpus[0].addr.vm;

    let stat = fx
        .cgroup_root()
        .join("machine.slice")
        .join("machine-qemu\\x2d1\\x2dracy.scope/libvirt/vcpu0/cpu.stat");
    let content = std::fs::read_to_string(&stat).unwrap();
    std::fs::remove_file(&stat).unwrap();
    let r = ctl.iterate(&mut backend).expect("degrades, not aborts");
    assert_eq!(r.health.vanished_vms, vec![vm]);
    assert!(r.health.degraded);
    assert!(r.vcpus.is_empty(), "no rows for the vanished VM");

    std::fs::write(&stat, content).unwrap();
    consume(&fx, "racy", 1, Micros::SEC);
    let r = ctl.iterate(&mut backend).expect("recovered");
    assert_eq!(r.vcpus.len(), 1);
    assert!(!r.health.degraded, "{:?}", r.health);
}

#[test]
fn throttle_aware_controller_reacts_over_the_fs_backend() {
    // End-to-end: a vCPU whose on-disk throttled_usec grows gets its cap
    // raised even though its consumption is pinned at the old cap.
    let fx = FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("bursty", 1, &[41])
        .build();
    let mut backend = fx.backend();
    backend.set_vfreq("bursty", MHz(1200));
    let mut ctl = Controller::new(
        vfc::controller::ControllerConfig::throttle_aware(),
        backend.topology(),
    );
    // Settle at idle: cap decays to the floor.
    for _ in 0..4 {
        ctl.iterate(&mut backend).expect("fs backend");
    }
    let floor = fx.vcpu_cpu_max("bursty", 0);
    assert_eq!(floor.quota, Some(Micros(1_000)));

    // Burst: consumption clipped at the cap, throttled time huge.
    let allowed = floor.budget_for(Micros::SEC);
    fx.add_vcpu_usage("bursty", 0, allowed);
    fx.add_vcpu_throttled("bursty", 0, Micros(900_000));
    ctl.iterate(&mut backend).expect("fs backend");
    let after = fx.vcpu_cpu_max("bursty", 0);
    let quota = after.quota.expect("still capped");
    assert!(
        quota >= Micros(50_000),
        "throttle signal should jump the cap to the guarantee, got {quota}"
    );
}

#[test]
fn controller_works_identically_on_cgroup_v1() {
    // §III.B: "the version is not important as our controller works on
    // both". Same scenario as the v2 convergence test, against a legacy
    // cpu,cpuacct hierarchy.
    let fx = FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("small0", 2, &[101, 102])
        .vm("large0", 2, &[201, 202])
        .v1()
        .build();
    let mut backend = fx.backend();
    assert_eq!(
        backend.version(),
        vfc::cgroupfs::fs::CgroupVersion::V1,
        "fixture must be detected as v1"
    );
    backend.set_vfreq("small0", MHz(500));
    backend.set_vfreq("large0", MHz(1800));

    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    for _ in 0..15 {
        consume(&fx, "small0", 2, Micros::SEC);
        consume(&fx, "large0", 2, Micros::SEC);
        ctl.iterate(&mut backend).expect("v1 backend");
    }

    let large_cap = fx.vcpu_cpu_max("large0", 0);
    let quota = large_cap.quota.expect("large is capped on the tight node");
    assert!(
        quota >= Micros(74_000),
        "large quota {quota} below its 1800 MHz guarantee"
    );
    let small_cap = fx.vcpu_cpu_max("small0", 0);
    let quota = small_cap.quota.expect("small is capped");
    assert!(
        (19_000..=30_000).contains(&quota.as_u64()),
        "small quota {quota} should encode ≈500 MHz (≈20 833 µs/100 ms)"
    );
}

#[test]
fn failed_listing_keeps_wallets_histories_and_caps() {
    // One transient error listing machine.slice must not empty the host:
    // the run that suffers it stays identical, period for period, to a
    // twin that does not — wallets, estimates and the caps on disk.
    fn tight_node() -> (FixtureTree, vfc::cgroupfs::fs::FsBackend, Controller) {
        let fx = FixtureTree::builder()
            .cpus(2, MHz(2400))
            .vm("small0", 2, &[101, 102])
            .vm("large0", 2, &[201, 202])
            .build();
        let mut backend = fx.backend();
        backend.set_vfreq("small0", MHz(500));
        backend.set_vfreq("large0", MHz(1800));
        let ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
        (fx, backend, ctl)
    }
    fn state(
        fx: &FixtureTree,
        r: &vfc::controller::IterationReport,
    ) -> (String, Vec<vfc::cgroupfs::CpuMax>) {
        let caps = [("small0", 0), ("small0", 1), ("large0", 0), ("large0", 1)]
            .map(|(vm, j)| fx.vcpu_cpu_max(vm, j))
            .to_vec();
        (format!("{:?} {:?}", r.vcpus, r.credits), caps)
    }
    if vfc::cgroupfs::fs::handle_budget() < 64 {
        // With machine.slice not a directory nothing is reachable by
        // path; only reads through kept handles carry the period.
        return;
    }
    let (fx, mut backend, mut ctl) = tight_node();
    let (twin_fx, mut twin_backend, mut twin_ctl) = tight_node();

    for period in 0..12 {
        for fx in [&fx, &twin_fx] {
            consume(fx, "small0", 2, Micros(300_000));
            consume(fx, "large0", 2, Micros::SEC);
        }
        // Period 6: machine.slice is a plain file while the controller
        // lists it (ENOTDIR; chmod 000 does not bite under root).
        let slice = fx.cgroup_root().join("machine.slice");
        let aside = fx.root().join("machine.slice.aside");
        if period == 6 {
            std::fs::rename(&slice, &aside).unwrap();
            std::fs::write(&slice, "").unwrap();
        }
        let r = ctl.iterate(&mut backend).expect("fs backend");
        if period == 6 {
            std::fs::remove_file(&slice).unwrap();
            std::fs::rename(&aside, &slice).unwrap();
        }
        let twin = twin_ctl.iterate(&mut twin_backend).expect("fs backend");
        assert_eq!(r.vcpus.len(), 4, "period {period}: inventory emptied");
        assert!(!r.health.degraded, "period {period}: {:?}", r.health);
        assert_eq!(state(&fx, &r), state(&twin_fx, &twin), "period {period}");
    }
    assert_eq!(backend.listing_errors(), 1);
    assert_eq!(twin_backend.listing_errors(), 0);
    assert!(
        ctl.credit_of(vfc::simcore::VmId::new(0)) > 0,
        "wallets survived"
    );
}

#[test]
fn low_fd_dense_node_never_fails_for_lack_of_descriptors() {
    // A dense node wants 3 × vCPUs + vCPUs + CPUs descriptors. Whatever
    // part of that the process's RLIMIT_NOFILE leaves room for is kept;
    // the rest is opened per call, and the loop cannot tell. CI runs
    // this under `ulimit -n 64` as well as at the default limit.
    use vfc::cgroupfs::fs::handle_budget;
    use vfc::controller::apply::allocation_to_cpu_max;
    const VMS: u32 = 40;
    let names: Vec<String> = (0..VMS).map(|i| format!("vm{i:02}")).collect();
    let mut builder = FixtureTree::builder().cpus(8, MHz(2400));
    for (i, name) in names.iter().enumerate() {
        let base = 1_000 + 10 * i as u32;
        builder = builder.vm(name, 2, &[base, base + 1]);
    }
    let fx = builder.build();
    let mut backend = fx.backend();
    for (i, name) in names.iter().enumerate() {
        backend.set_vfreq(name.clone(), MHz(if i % 2 == 0 { 600 } else { 1800 }));
    }
    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    let period = ctl.config().period;

    for it in 0..10 {
        for (i, name) in names.iter().enumerate() {
            consume(&fx, name, 2, Micros(50_000 + 20_000 * (i as u64 % 7)));
        }
        let r = ctl
            .iterate(&mut backend)
            .expect("no Err for lack of descriptors");
        assert_eq!(r.vcpus.len(), 2 * VMS as usize, "iteration {it}");
        assert!(!r.health.degraded, "iteration {it}: {:?}", r.health);
        for row in &r.vcpus {
            assert_eq!(
                fx.vcpu_cpu_max(&row.vm_name, row.addr.vcpu.as_u32()),
                allocation_to_cpu_max(row.alloc, period),
                "iteration {it}: {}/{} cpu.max on disk",
                row.vm_name,
                row.addr.vcpu
            );
        }
    }
    assert_eq!(backend.listing_errors(), 0);

    // 80 × (cpu.stat, cgroup.threads, cpu.max) + 80 × /proc/<tid>/stat +
    // the 2 CPUs the fixture's threads sit on.
    let wanted = 80 * 3 + 80 + 2;
    if handle_budget() >= wanted + 64 {
        // Room to spare (other tests of this binary share the budget):
        // every handle is kept.
        assert_eq!(backend.handles_kept(), wanted);
    } else {
        assert!(backend.handles_kept() <= handle_budget());
    }
}
