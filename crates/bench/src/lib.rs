//! Shared fixtures for the `vfc` Criterion benchmarks.
//!
//! The benches live in `benches/`:
//!
//! * `controller` — full-loop iteration cost vs hosted vCPU count, plus
//!   per-stage microbenchmarks (the §IV.A.2 "5 ms per iteration" claim);
//! * `scheduler` — engine tick cost vs thread count, one simulated host
//!   period, `water_fill` microbenchmark;
//! * `placement` — Best/First-Fit over the §IV.C cluster under both
//!   constraints;
//! * `figures` — one benchmark per reproduced figure: each measures the
//!   cost of regenerating that figure's data (truncated scenario runs);
//! * `ablation` — controller cost under swept design parameters (auction
//!   window, history length, increase factor);
//! * `fs_backend` — the same iteration over the filesystem backend on a
//!   fixture tree, and its three file-layer operations on their own.

use std::fs::File;
use std::os::unix::fs::FileExt;
use vfc_cgroupfs::fixture::FixtureTree;
use vfc_cgroupfs::fs::FsBackend;
use vfc_cgroupfs::model::CpuStat;
use vfc_cgroupfs::tree::kvm_layout;
use vfc_cgroupfs::{parse, HostBackend};
use vfc_controller::{ControlMode, Controller, ControllerConfig};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, Micros};
use vfc_vmm::workload::{BurstyWeb, SteadyDemand};
use vfc_vmm::{SimHost, VmTemplate};

/// A chetemi host loaded with saturating 2-vCPU VMs until `vcpus` vCPUs
/// are hosted, plus a ready controller.
pub fn loaded_host(vcpus: u32, mode: ControlMode) -> (SimHost, Controller) {
    let spec = NodeSpec::chetemi();
    let mut host = SimHost::new(spec, 42);
    let mut hosted = 0;
    while hosted < vcpus {
        let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        hosted += 2;
    }
    let controller = Controller::new(
        ControllerConfig::paper_defaults().with_mode(mode),
        host.topology_info(),
    );
    (host, controller)
}

/// The population of the end-to-end `node_sim` benchmark: 80 VMs × 2 vCPUs
/// on chetemi (40 threads, saturated), a third each bursty / steady 80 % /
/// saturating.
pub fn mixed_host() -> SimHost {
    let mut host = SimHost::new(NodeSpec::chetemi(), 42);
    for i in 0..80u64 {
        let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
        match i % 3 {
            0 => host.attach_workload(vm, Box::new(BurstyWeb::new(i))),
            1 => host.attach_workload(vm, Box::new(SteadyDemand::new(0.8))),
            _ => host.attach_workload(vm, Box::new(SteadyDemand::full())),
        }
    }
    host
}

/// A dense many-vCPU host: `vcpus / 2` hardware threads (the same 2:1
/// virtual oversubscription as the chetemi fixture, scaled up),
/// saturating 2-vCPU VMs, and a ready controller. Sizes past
/// [`loaded_host`]'s chetemi node — 500, 1000, 2000 vCPUs — are not the
/// paper's testbed.
pub fn dense_host(vcpus: u32, mode: ControlMode) -> (SimHost, Controller) {
    let spec = NodeSpec::custom("dense", 1, (vcpus / 4).max(1), 2, MHz(2400));
    let mut host = SimHost::new(spec, 42);
    let mut hosted = 0;
    while hosted < vcpus {
        let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        hosted += 2;
    }
    let controller = Controller::new(
        ControllerConfig::paper_defaults().with_mode(mode),
        host.topology_info(),
    );
    (host, controller)
}

/// Drive `host` and `controller` through `n` warm-up periods so benches
/// measure steady state, not the cold-start ramp.
pub fn warm_up(host: &mut SimHost, controller: &mut Controller, n: u32) {
    for _ in 0..n {
        host.advance_period();
        controller.iterate(host).expect("sim backend");
    }
}

/// The tree of the end-to-end `node_fs` benchmark — 40 VMs × 2 vCPUs on
/// 40 CPUs, guarantees alternating 600 / 1800 MHz — with its backend, a
/// controller, and the guests' side of the files.
pub struct FsNode {
    /// Keeps the tree on disk.
    pub fixture: FixtureTree,
    /// The backend under test.
    pub backend: FsBackend,
    /// A controller for the tree's topology.
    pub controller: Controller,
    /// Each vCPU's `cpu.stat`, open for the guests' in-place rewrites,
    /// and the counters written so far.
    guests: Vec<(File, CpuStat)>,
}

/// Build [`FsNode`] (under `$TMPDIR`; `tools/bench_gate.sh` points it at
/// tmpfs so the rows time the backend's system calls, not a journal).
pub fn fs_node() -> FsNode {
    let names: Vec<String> = (0..40).map(|i| format!("vm{i:02}")).collect();
    let mut builder = FixtureTree::builder().cpus(40, MHz(2400));
    for (i, name) in names.iter().enumerate() {
        let base = 1_000 + 10 * i as u32;
        builder = builder.vm(name, 2, &[base, base + 1]);
    }
    let fixture = builder.build();
    let mut backend = fixture.backend();
    let slice = fixture.cgroup_root().join(kvm_layout::MACHINE_SLICE);
    let mut guests = Vec::new();
    for (i, name) in names.iter().enumerate() {
        backend.set_vfreq(name.clone(), MHz(if i % 2 == 0 { 600 } else { 1800 }));
        for vcpu in 0..2 {
            let stat = slice
                .join(kvm_layout::scope_name(i as u32 + 1, name))
                .join("libvirt")
                .join(kvm_layout::vcpu_dir(vcpu))
                .join("cpu.stat");
            let file = File::options().write(true).open(stat).expect("cpu.stat");
            guests.push((file, CpuStat::default()));
        }
    }
    let controller = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    FsNode {
        fixture,
        backend,
        controller,
        guests,
    }
}

impl FsNode {
    /// The guests run for one period: every vCPU's usage counter grows
    /// by 10–90 % of a period (counters only grow, so rewriting from
    /// offset 0 needs no truncation).
    pub fn consume(&mut self) {
        for (k, (file, stat)) in self.guests.iter_mut().enumerate() {
            stat.account_usage(Micros(100_000 + 10_000 * (k as u64 % 81)));
            file.write_all_at(parse::format_cpu_stat(stat).as_bytes(), 0)
                .expect("rewrite cpu.stat");
        }
    }

    /// `n` periods of guests and controller, so rows measure steady state.
    pub fn warm_up(&mut self, n: u32) {
        for _ in 0..n {
            self.consume();
            self.controller
                .iterate(&mut self.backend)
                .expect("fs backend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (mut host, mut ctl) = loaded_host(8, ControlMode::Full);
        warm_up(&mut host, &mut ctl, 3);
        assert_eq!(ctl.iterations(), 3);
        assert_eq!(host.instances().len(), 4);
    }

    #[test]
    fn fs_node_builds_and_iterates() {
        let mut node = fs_node();
        node.warm_up(2);
        assert_eq!(node.controller.iterations(), 2);
        assert_eq!(node.backend.vms().len(), 40);
    }
}
