//! On-disk fixture trees for testing and demonstrating [`crate::fs::FsBackend`]
//! without root privileges or a KVM host.
//!
//! [`FixtureTree`] materializes, in a unique temp directory:
//!
//! ```text
//! <root>/cgroup/machine.slice/machine-qemu\x2dN\x2dNAME.scope/libvirt/vcpuJ/
//!     cpu.max  cpu.stat  cgroup.threads
//! <root>/proc/<tid>/stat
//! <root>/cpu/cpuI/cpufreq/{scaling_cur_freq, cpuinfo_max_freq}
//! ```
//!
//! Tests mutate the tree (usage counters, thread placement, core
//! frequencies) between controller iterations to emulate a live host.
//! The directory is removed on drop.

use crate::fs::CgroupVersion;
use crate::model::{CpuMax, CpuStat};
use crate::parse;
use crate::tree::kvm_layout;
use crate::v1;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use vfc_simcore::{CpuId, MHz, Micros, Tid};

static FIXTURE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Builder for a [`FixtureTree`].
#[derive(Debug)]
pub struct FixtureBuilder {
    cpus: u32,
    max_mhz: MHz,
    vms: Vec<(String, u32, Vec<Tid>)>,
    version: CgroupVersion,
}

impl Default for FixtureBuilder {
    fn default() -> Self {
        FixtureBuilder {
            cpus: 0,
            max_mhz: MHz::ZERO,
            vms: Vec::new(),
            version: CgroupVersion::V2,
        }
    }
}

impl FixtureBuilder {
    /// Host topology: `n` CPUs, all with hardware max `max_mhz`.
    pub fn cpus(mut self, n: u32, max_mhz: MHz) -> Self {
        self.cpus = n;
        self.max_mhz = max_mhz;
        self
    }

    /// Add a VM with `vcpus` vCPUs whose threads get the given TIDs
    /// (one per vCPU; extra TIDs ignored, missing ones synthesized).
    pub fn vm(mut self, name: &str, vcpus: u32, tids: &[u32]) -> Self {
        self.vms.push((
            name.to_owned(),
            vcpus,
            tids.iter().copied().map(Tid::new).collect(),
        ));
        self
    }

    /// Build a legacy cgroup-v1 (`cpu,cpuacct`) tree instead of v2.
    pub fn v1(mut self) -> Self {
        self.version = CgroupVersion::V1;
        self
    }

    /// Write the tree to disk.
    pub fn build(self) -> FixtureTree {
        let id = FIXTURE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("vfc-fixture-{}-{id}", std::process::id()));
        let tree = FixtureTree {
            root,
            version: self.version,
        };
        tree.init(&self);
        tree
    }
}

/// A materialized fixture tree (see module docs).
#[derive(Debug)]
pub struct FixtureTree {
    root: PathBuf,
    version: CgroupVersion,
}

impl FixtureTree {
    /// Start building a fixture.
    pub fn builder() -> FixtureBuilder {
        FixtureBuilder::default()
    }

    /// Root of the fixture tree.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// cgroup-v2 mount point of this fixture.
    pub fn cgroup_root(&self) -> PathBuf {
        self.root.join("cgroup")
    }

    /// `/proc` of this fixture.
    pub fn proc_root(&self) -> PathBuf {
        self.root.join("proc")
    }

    /// `/sys/devices/system/cpu` of this fixture.
    pub fn cpu_root(&self) -> PathBuf {
        self.root.join("cpu")
    }

    /// A fresh [`crate::fs::FsBackend`] over this fixture.
    pub fn backend(&self) -> crate::fs::FsBackend {
        crate::fs::FsBackend::new(self.cgroup_root(), self.proc_root(), self.cpu_root())
    }

    fn init(&self, b: &FixtureBuilder) {
        // Topology files.
        for i in 0..b.cpus {
            let dir = self.cpu_root().join(format!("cpu{i}")).join("cpufreq");
            fs::create_dir_all(&dir).expect("fixture mkdir");
            fs::write(
                dir.join("scaling_cur_freq"),
                parse::format_scaling_cur_freq(b.max_mhz),
            )
            .unwrap();
            fs::write(
                dir.join("cpuinfo_max_freq"),
                parse::format_scaling_cur_freq(b.max_mhz),
            )
            .unwrap();
        }
        fs::create_dir_all(self.cgroup_root().join(kvm_layout::MACHINE_SLICE)).unwrap();
        fs::create_dir_all(self.proc_root()).unwrap();
        if self.version == CgroupVersion::V2 {
            // Mark the root as a unified hierarchy for auto-detection.
            fs::write(
                self.cgroup_root().join("cgroup.controllers"),
                "cpuset cpu io memory pids\n",
            )
            .unwrap();
        }

        // VM scopes.
        for (n, (name, vcpus, tids)) in b.vms.iter().enumerate() {
            let scope = self
                .cgroup_root()
                .join(kvm_layout::MACHINE_SLICE)
                .join(kvm_layout::scope_name(n as u32 + 1, name));
            for j in 0..*vcpus {
                let vdir = scope.join("libvirt").join(kvm_layout::vcpu_dir(j));
                let tid = tids
                    .get(j as usize)
                    .copied()
                    .unwrap_or(Tid::new(1000 * (n as u32 + 1) + j));
                self.make_vcpu_group(&vdir, tid, CpuId::new(j % b.cpus.max(1)));
            }
            // The emulator group libvirt also creates, plus the scope's
            // weight knob with its kernel default.
            fs::create_dir_all(scope.join("libvirt").join("emulator")).unwrap();
            match self.version {
                CgroupVersion::V2 => fs::write(scope.join("cpu.weight"), "100\n").unwrap(),
                CgroupVersion::V1 => fs::write(scope.join("cpu.shares"), "1024\n").unwrap(),
            }
        }
    }

    /// Create `dir` as one vCPU group of this tree's hierarchy version —
    /// zeroed counters, no limit, `tid` as its only thread, last seen on
    /// `cpu` — the way libvirt would on hot-plug or for a new VM. Tests
    /// that grow a tree between controller iterations use it for groups
    /// the builder did not make.
    pub fn make_vcpu_group(&self, dir: &Path, tid: Tid, cpu: CpuId) {
        fs::create_dir_all(dir).unwrap();
        let unlimited = CpuMax::unlimited();
        let files = match self.version {
            CgroupVersion::V2 => vec![
                ("cpu.max", parse::format_cpu_max(&unlimited)),
                ("cpu.stat", parse::format_cpu_stat(&CpuStat::default())),
                ("cgroup.threads", parse::format_threads(&[tid])),
            ],
            CgroupVersion::V1 => vec![
                ("cpu.stat", v1::format_v1_cpu_stat(0, 0, Micros::ZERO)),
                ("cpu.cfs_quota_us", v1::format_cfs_quota(&unlimited)),
                ("cpu.cfs_period_us", v1::format_cfs_period(&unlimited)),
                ("cpuacct.usage", v1::format_cpuacct_usage(Micros::ZERO)),
                ("tasks", parse::format_threads(&[tid])),
            ],
        };
        for (file, content) in files {
            fs::write(dir.join(file), content).unwrap();
        }
        self.set_thread_cpu(tid, cpu);
    }

    fn vcpu_dir(&self, vm_name: &str, vcpu: u32) -> PathBuf {
        let slice = self.cgroup_root().join(kvm_layout::MACHINE_SLICE);
        let entries = fs::read_dir(&slice).expect("fixture machine.slice");
        for e in entries.flatten() {
            let dir = e.file_name().to_string_lossy().into_owned();
            if let Some((_, name)) = kvm_layout::parse_scope_name(&dir) {
                if name == vm_name {
                    return e.path().join("libvirt").join(kvm_layout::vcpu_dir(vcpu));
                }
            }
        }
        panic!("fixture has no VM named {vm_name}");
    }

    /// Increase a vCPU's cumulative usage counter by `delta` (in whichever
    /// format this tree's version uses).
    pub fn add_vcpu_usage(&self, vm_name: &str, vcpu: u32, delta: Micros) {
        match self.version {
            CgroupVersion::V2 => {
                let path = self.vcpu_dir(vm_name, vcpu).join("cpu.stat");
                let mut stat = parse::parse_cpu_stat(&fs::read_to_string(&path).unwrap()).unwrap();
                stat.account_usage(delta);
                fs::write(&path, parse::format_cpu_stat(&stat)).unwrap();
            }
            CgroupVersion::V1 => {
                let path = self.vcpu_dir(vm_name, vcpu).join("cpuacct.usage");
                let usage = v1::parse_cpuacct_usage(&fs::read_to_string(&path).unwrap()).unwrap();
                fs::write(&path, v1::format_cpuacct_usage(usage + delta)).unwrap();
            }
        }
    }

    /// Read a vCPU's current CPU bandwidth limit (to assert on controller
    /// writes), regardless of the tree's version.
    pub fn vcpu_cpu_max(&self, vm_name: &str, vcpu: u32) -> CpuMax {
        let dir = self.vcpu_dir(vm_name, vcpu);
        match self.version {
            CgroupVersion::V2 => {
                parse::parse_cpu_max(&fs::read_to_string(dir.join("cpu.max")).unwrap()).unwrap()
            }
            CgroupVersion::V1 => v1::parse_cfs_quota(
                &fs::read_to_string(dir.join("cpu.cfs_quota_us")).unwrap(),
                &fs::read_to_string(dir.join("cpu.cfs_period_us")).unwrap(),
            )
            .unwrap(),
        }
    }

    /// Increase a vCPU's cumulative throttled time (the signal
    /// throttle-aware estimation consumes).
    pub fn add_vcpu_throttled(&self, vm_name: &str, vcpu: u32, delta: Micros) {
        let path = self.vcpu_dir(vm_name, vcpu).join("cpu.stat");
        match self.version {
            CgroupVersion::V2 => {
                let mut stat = parse::parse_cpu_stat(&fs::read_to_string(&path).unwrap()).unwrap();
                stat.account_period(delta);
                fs::write(&path, parse::format_cpu_stat(&stat)).unwrap();
            }
            CgroupVersion::V1 => {
                let (p, t, us) =
                    v1::parse_v1_cpu_stat(&fs::read_to_string(&path).unwrap()).unwrap();
                fs::write(&path, v1::format_v1_cpu_stat(p + 1, t + 1, us + delta)).unwrap();
            }
        }
    }

    /// Place a thread on a CPU (rewrites `/proc/<tid>/stat`).
    pub fn set_thread_cpu(&self, tid: Tid, cpu: CpuId) {
        let dir = self.proc_root().join(tid.as_u32().to_string());
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("stat"),
            parse::format_stat_line(tid, "CPU 0/KVM", cpu),
        )
        .unwrap();
    }

    /// Set a core's current frequency.
    pub fn set_cpu_freq(&self, cpu: CpuId, freq: MHz) {
        let path = self
            .cpu_root()
            .join(format!("cpu{}", cpu.as_u32()))
            .join("cpufreq/scaling_cur_freq");
        fs::write(path, parse::format_scaling_cur_freq(freq)).unwrap();
    }
}

impl Drop for FixtureTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_creates_expected_layout() {
        let fx = FixtureTree::builder()
            .cpus(2, MHz(2400))
            .vm("demo", 2, &[42, 43])
            .build();
        let scope = fx
            .cgroup_root()
            .join("machine.slice")
            .join(kvm_layout::scope_name(1, "demo"));
        assert!(scope.join("libvirt/vcpu0/cpu.max").exists());
        assert!(scope.join("libvirt/vcpu1/cpu.stat").exists());
        assert!(scope.join("libvirt/emulator").is_dir());
        assert!(fx.proc_root().join("42/stat").exists());
        assert!(fx.cpu_root().join("cpu1/cpufreq/scaling_cur_freq").exists());
    }

    #[test]
    fn fixture_cleans_up_on_drop() {
        let root;
        {
            let fx = FixtureTree::builder().cpus(1, MHz(1000)).build();
            root = fx.root().to_path_buf();
            assert!(root.exists());
        }
        assert!(!root.exists());
    }

    #[test]
    fn usage_and_cpu_max_helpers() {
        let fx = FixtureTree::builder()
            .cpus(1, MHz(1000))
            .vm("a", 1, &[7])
            .build();
        assert!(fx.vcpu_cpu_max("a", 0).is_unlimited());
        fx.add_vcpu_usage("a", 0, Micros(500));
        fx.add_vcpu_usage("a", 0, Micros(250));
        let stat_path = fx.vcpu_dir("a", 0).join("cpu.stat");
        let stat = parse::parse_cpu_stat(&fs::read_to_string(stat_path).unwrap()).unwrap();
        assert_eq!(stat.usage_usec, Micros(750));
    }

    #[test]
    #[should_panic(expected = "no VM named")]
    fn unknown_vm_panics() {
        let fx = FixtureTree::builder().cpus(1, MHz(1000)).build();
        fx.add_vcpu_usage("ghost", 0, Micros(1));
    }
}
