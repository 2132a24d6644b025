//! Descriptor accounting of [`FsBackend`], by counting `/proc/self/fd`.
//!
//! The only test of this binary, on purpose: tests of one binary run on
//! parallel threads of one process, and any of them opening a file would
//! move the count.

use std::fs;
use vfc_cgroupfs::fixture::FixtureTree;
use vfc_cgroupfs::fs::FsBackend;
use vfc_cgroupfs::tree::kvm_layout;
use vfc_cgroupfs::HostBackend;
use vfc_simcore::{CpuId, MHz, Tid, VcpuId};

fn open_descriptors() -> usize {
    fs::read_dir("/proc/self/fd").expect("procfs").count()
}

fn read_everything(backend: &FsBackend) -> usize {
    let vms = backend.vms();
    backend.begin_read_pass();
    for info in &vms {
        for j in 0..info.nr_vcpus {
            backend.read_vcpu_raw(info.vm, VcpuId::new(j)).unwrap();
        }
    }
    vms.len()
}

#[test]
fn a_scope_s_handles_are_closed_by_the_listing_that_drops_it() {
    let without_backend = open_descriptors();
    let fx = FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("stays", 1, &[11])
        .build();
    let backend = fx.backend();
    assert_eq!(read_everything(&backend), 1);
    // cpu.stat, cgroup.threads, cpu.max, /proc/11/stat, cpu0's frequency,
    // and the backend's change feed (one inotify instance).
    let before = open_descriptors();
    assert_eq!(before, without_backend + 5 + 1);

    // A VM arrives: two vCPUs whose threads run on cpu0 as well.
    let scope = fx
        .cgroup_root()
        .join(kvm_layout::MACHINE_SLICE)
        .join(kvm_layout::scope_name(2, "comes"));
    for (j, tid) in [(0, 21), (1, 22)] {
        let dir = scope.join("libvirt").join(kvm_layout::vcpu_dir(j));
        fx.make_vcpu_group(&dir, Tid::new(tid), CpuId::new(0));
    }
    assert_eq!(read_everything(&backend), 2);
    assert_eq!(open_descriptors(), before + 2 * 4);
    assert_eq!(backend.handles_kept(), 5 + 2 * 4);

    // … and leaves: the listing that no longer finds it closes them all.
    fs::remove_dir_all(&scope).unwrap();
    assert_eq!(backend.vms().len(), 1);
    assert_eq!(open_descriptors(), before);

    drop(backend);
    assert_eq!(open_descriptors(), without_backend);
}
