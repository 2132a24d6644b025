//! Oracle equivalence for the handle-keeping [`FsBackend`].
//!
//! A backend built fresh for one period has nothing to go stale: every
//! path it touches it has just discovered. One long-lived backend is
//! driven beside such an oracle over the same [`FixtureTree`] while a
//! random "host" mutates the tree between periods, and every answer —
//! the listing, the fused and the fine-grained reads, the cap write and
//! the bytes it leaves on disk — must be the oracle's, value or error
//! class, in every period, with no exception. And after every mutation,
//! an epoch the long-lived backend answers equal to the one it answered
//! after its last listing means that listing is still the oracle's: the
//! controller skips `vms()` on that promise.

use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

use proptest::prelude::*;
use vfc_cgroupfs::fixture::FixtureTree;
use vfc_cgroupfs::fs::{CgroupVersion, FsBackend};
use vfc_cgroupfs::model::{CpuMax, CpuStat};
use vfc_cgroupfs::tree::kvm_layout;
use vfc_cgroupfs::{parse, v1, CgroupError, HostBackend, Result, VmCgroupInfo};
use vfc_simcore::{CpuId, MHz, Micros, Tid, VcpuId};

const CPUS: u32 = 4;

/// One host-side mutation: an op code and two free parameters.
type Op = (u8, u32, u32);

/// The "host": mutates the fixture tree by path, the way libvirt, the
/// kernel and a foreign writer would.
struct Host {
    fx: FixtureTree,
    version: CgroupVersion,
    next_number: u32,
    next_tid: u32,
}

impl Host {
    fn new(version: CgroupVersion) -> Host {
        let b = FixtureTree::builder()
            .cpus(CPUS, MHz(2400))
            .vm("a", 2, &[101, 102])
            .vm("b", 1, &[201])
            .vm("c", 2, &[301, 302]);
        let fx = match version {
            CgroupVersion::V1 => b.v1().build(),
            CgroupVersion::V2 => b.build(),
        };
        Host {
            fx,
            version,
            next_number: 10,
            next_tid: 1_000,
        }
    }

    fn slice(&self) -> PathBuf {
        self.fx.cgroup_root().join(kvm_layout::MACHINE_SLICE)
    }

    fn subdirs(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| keep(&e.file_name().to_string_lossy()) && e.path().is_dir())
                    .map(|e| e.path())
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }

    fn scopes(&self) -> Vec<PathBuf> {
        Self::subdirs(&self.slice(), |n| kvm_layout::scope_parts(n).is_some())
    }

    fn vcpu_parent(scope: &Path) -> PathBuf {
        let libvirt = scope.join("libvirt");
        if libvirt.is_dir() {
            libvirt
        } else {
            scope.to_path_buf()
        }
    }

    fn vcpu_dirs(scope: &Path) -> Vec<PathBuf> {
        Self::subdirs(&Self::vcpu_parent(scope), |n| {
            kvm_layout::parse_vcpu_dir(n).is_some()
        })
    }

    fn pick<T: Clone>(items: &[T], at: u32) -> Option<T> {
        (!items.is_empty()).then(|| items[at as usize % items.len()].clone())
    }

    /// Some vCPU directory of some scope.
    fn pick_vcpu(&self, a: u32, b: u32) -> Option<PathBuf> {
        Self::pick(&Self::vcpu_dirs(&Self::pick(&self.scopes(), a)?), b)
    }

    /// File names of one vCPU group: (usage, threads, cap).
    fn names(&self) -> (&'static str, &'static str, &'static str) {
        match self.version {
            CgroupVersion::V2 => ("cpu.stat", "cgroup.threads", "cpu.max"),
            CgroupVersion::V1 => ("cpuacct.usage", "tasks", "cpu.cfs_quota_us"),
        }
    }

    fn usage_text(&self, usage: u64, throttled: u64) -> String {
        match self.version {
            CgroupVersion::V2 => parse::format_cpu_stat(&CpuStat {
                usage_usec: Micros(usage),
                throttled_usec: Micros(throttled),
                ..CpuStat::default()
            }),
            CgroupVersion::V1 => v1::format_cpuacct_usage(Micros(usage)),
        }
    }

    /// A new vCPU group with a thread of its own and `usage` consumed.
    fn make_vcpu(&mut self, dir: &Path, usage: u64) {
        let tid = Tid::new(self.next_tid);
        self.next_tid += 1;
        self.fx
            .make_vcpu_group(dir, tid, CpuId::new(tid.as_u32() % CPUS));
        fs::write(dir.join(self.names().0), self.usage_text(usage, 0)).unwrap();
    }

    fn make_scope(&mut self, scope: &Path, vcpus: u32, libvirt: bool, usage: u64) {
        let parent = if libvirt {
            scope.join("libvirt")
        } else {
            scope.to_path_buf()
        };
        for j in 0..vcpus {
            self.make_vcpu(&parent.join(kvm_layout::vcpu_dir(j)), usage);
        }
    }

    fn apply(&mut self, (op, a, b): Op) {
        let (usage_file, threads_file, cap_file) = self.names();
        match op {
            // A VM is provisioned.
            0 => {
                let n = self.next_number;
                self.next_number += 1;
                let scope = self
                    .slice()
                    .join(kvm_layout::scope_name(n, &format!("n{n}")));
                self.make_scope(&scope, 1 + a % 2, b % 2 == 0, u64::from(a));
            }
            // A VM is torn down.
            1 => {
                if let Some(scope) = Self::pick(&self.scopes(), a) {
                    fs::remove_dir_all(scope).unwrap();
                }
            }
            // vCPU hot-plug / hot-unplug.
            2 => {
                if let Some(scope) = Self::pick(&self.scopes(), a) {
                    let next = Self::vcpu_dirs(&scope).len() as u32 + b % 2;
                    let dir = Self::vcpu_parent(&scope).join(kvm_layout::vcpu_dir(next));
                    if !dir.exists() {
                        self.make_vcpu(&dir, u64::from(b));
                    }
                }
            }
            3 => {
                if let Some(dir) = self.pick_vcpu(a, b) {
                    fs::remove_dir_all(&dir).unwrap();
                }
            }
            // A scope, or one vCPU group, swapped under the same name.
            4 => {
                if let Some(scope) = Self::pick(&self.scopes(), a) {
                    // Same shape: a sub-directory count is all the cache
                    // compares, and `emulator` lives as long as its VM.
                    let vcpus = Self::vcpu_dirs(&scope).len() as u32;
                    let libvirt = scope.join("libvirt").is_dir();
                    let emulator = Self::vcpu_parent(&scope).join("emulator");
                    let had_emulator = emulator.is_dir();
                    fs::remove_dir_all(&scope).unwrap();
                    self.make_scope(&scope, vcpus, libvirt, u64::from(b) + 7);
                    if had_emulator {
                        fs::create_dir_all(emulator).unwrap();
                    }
                }
            }
            5 => {
                if let Some(dir) = self.pick_vcpu(a, b) {
                    fs::remove_dir_all(&dir).unwrap();
                    self.make_vcpu(&dir, u64::from(b) + 11);
                }
            }
            // One interface file unlinked, and (b odd) put back.
            6 => {
                let Some(dir) = self.pick_vcpu(a, b / 8) else {
                    return;
                };
                let tid = fs::read_to_string(dir.join(threads_file))
                    .ok()
                    .and_then(|t| parse::parse_first_thread(&t).ok().flatten());
                let file = match (b / 2) % 5 {
                    0 => dir.join(usage_file),
                    1 => dir.join(threads_file),
                    2 => dir.join(cap_file),
                    3 => match tid {
                        Some(tid) => self
                            .fx
                            .proc_root()
                            .join(tid.as_u32().to_string())
                            .join("stat"),
                        None => return,
                    },
                    _ => self
                        .fx
                        .cpu_root()
                        .join(format!("cpu{}/cpufreq/scaling_cur_freq", a % CPUS)),
                };
                if let Ok(content) = fs::read(&file) {
                    fs::remove_file(&file).unwrap();
                    if b % 2 == 1 {
                        fs::write(&file, content).unwrap();
                    }
                }
            }
            // The libvirt/ layer appears under a scope that had none.
            7 => {
                let flat = self
                    .scopes()
                    .into_iter()
                    .filter(|s| !s.join("libvirt").is_dir())
                    .collect::<Vec<_>>();
                if let Some(scope) = Self::pick(&flat, a) {
                    let vcpus = Self::vcpu_dirs(&scope);
                    fs::create_dir(scope.join("libvirt")).unwrap();
                    for dir in vcpus {
                        let to = scope.join("libvirt").join(dir.file_name().unwrap());
                        fs::rename(dir, to).unwrap();
                    }
                }
            }
            // Counters move (possibly to a shorter text).
            8 => {
                if let Some(dir) = self.pick_vcpu(a, b) {
                    let _ = fs::write(
                        dir.join(usage_file),
                        self.usage_text(u64::from(a) * 997, u64::from(b)),
                    );
                    if self.version == CgroupVersion::V1 {
                        let _ = fs::write(
                            dir.join("cpu.stat"),
                            v1::format_v1_cpu_stat(1, 1, Micros(u64::from(b))),
                        );
                    }
                }
            }
            // The vCPU runs as another thread, on another CPU.
            9 => {
                if let Some(dir) = self.pick_vcpu(a, b) {
                    let tid = Tid::new(self.next_tid);
                    self.next_tid += 1;
                    let _ = fs::write(dir.join(threads_file), parse::format_threads(&[tid]));
                    self.fx.set_thread_cpu(tid, CpuId::new(b % CPUS));
                }
            }
            // A foreign writer leaves a long cap behind.
            10 => {
                if let Some(dir) = self.pick_vcpu(a, b) {
                    let _ = fs::write(
                        dir.join(cap_file),
                        match self.version {
                            CgroupVersion::V2 => "18446744073709551 1000000\n",
                            CgroupVersion::V1 => "18446744073709551\n",
                        },
                    );
                }
            }
            // One interface file replaced by rename: the new text written
            // beside it, then moved over it, as an atomic writer would —
            // or (a ≥ 500) written outside the tree, so the move is the
            // only event its directory sees.
            12 => {
                let Some(dir) = self.pick_vcpu(a, b / 8) else {
                    return;
                };
                let tid = fs::read_to_string(dir.join(threads_file))
                    .ok()
                    .and_then(|t| parse::parse_first_thread(&t).ok().flatten());
                let (file, text) = match (b / 2) % 5 {
                    0 => (
                        dir.join(usage_file),
                        self.usage_text(u64::from(a) * 991, u64::from(b)),
                    ),
                    1 => {
                        let tid = Tid::new(self.next_tid);
                        self.next_tid += 1;
                        self.fx.set_thread_cpu(tid, CpuId::new(a % CPUS));
                        (dir.join(threads_file), parse::format_threads(&[tid]))
                    }
                    2 => (
                        dir.join(cap_file),
                        match self.version {
                            CgroupVersion::V2 => format!("{} 100000\n", 1_000 + a),
                            CgroupVersion::V1 => format!("{}\n", 1_000 + a),
                        },
                    ),
                    3 => match tid {
                        Some(tid) => (
                            self.fx
                                .proc_root()
                                .join(tid.as_u32().to_string())
                                .join("stat"),
                            parse::format_stat_line(tid, "CPU 0/KVM", CpuId::new(b % CPUS)),
                        ),
                        None => return,
                    },
                    _ => (
                        self.fx
                            .cpu_root()
                            .join(format!("cpu{}/cpufreq/scaling_cur_freq", a % CPUS)),
                        parse::format_scaling_cur_freq(MHz(800 + b % 1600)),
                    ),
                };
                if file.exists() {
                    let mut tmp = file.clone().into_os_string();
                    tmp.push(".tmp");
                    if a >= 500 {
                        tmp = self.fx.root().join("replacement.tmp").into_os_string();
                    }
                    fs::write(&tmp, text).unwrap();
                    fs::rename(&tmp, &file).unwrap();
                }
            }
            // DVFS, and the thread migrates.
            _ => {
                self.fx
                    .set_cpu_freq(CpuId::new(a % CPUS), MHz(800 + b % 1600));
                if let Some(dir) = self.pick_vcpu(a, b) {
                    if let Some(tid) = fs::read_to_string(dir.join(threads_file))
                        .ok()
                        .and_then(|t| parse::parse_first_thread(&t).ok().flatten())
                    {
                        self.fx.set_thread_cpu(tid, CpuId::new(a % CPUS));
                    }
                }
            }
        }
    }

    /// The cap files of the `j`-th vCPU group of the VM named `vm`, read
    /// by path, and what a write of `cap` must leave in them — exactly:
    /// no tail of a longer value an in-place write failed to cut.
    fn cap_on_disk(&self, vm: &str, j: u32, cap: &CpuMax) -> (Vec<String>, Vec<String>) {
        let scope = self
            .scopes()
            .into_iter()
            .find(|s| {
                let dir = s.file_name().unwrap().to_string_lossy().into_owned();
                kvm_layout::scope_parts(&dir).is_some_and(|(_, name)| name == vm)
            })
            .expect("a listed VM has a scope");
        // Fewer than ten groups per VM here, so path order is index order.
        let dir = &Self::vcpu_dirs(&scope)[j as usize];
        let read = |file: &str| fs::read_to_string(dir.join(file)).unwrap_or_default();
        match self.version {
            CgroupVersion::V2 => (vec![read("cpu.max")], vec![parse::format_cpu_max(cap)]),
            CgroupVersion::V1 => (
                vec![read("cpu.cfs_quota_us"), read("cpu.cfs_period_us")],
                vec![v1::format_cfs_quota(cap), v1::format_cfs_period(cap)],
            ),
        }
    }
}

/// What the two backends must agree on for one call: the value, or what
/// kind of error it was and how the controller would class it.
fn class<T: Debug>(r: &Result<T>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(e) => {
            let kind = match e {
                CgroupError::Io { source, .. } => format!("io {:?}", source.kind()),
                CgroupError::Parse { what, .. } => format!("parse {what}"),
                other => format!("{other}"),
            };
            format!(
                "Err({kind}, vanished={}, transient={})",
                e.is_vanished(),
                e.is_transient()
            )
        }
    }
}

/// The long-lived backend's answer against the oracle's.
fn same<T: Debug>(
    got: &Result<T>,
    want: &Result<T>,
    at: &str,
    what: &str,
) -> std::result::Result<(), String> {
    let (got, want) = (class(got), class(want));
    prop_assert!(got == want, "{at}: {what} {got}, the oracle's {want}");
    Ok(())
}

fn check(version: CgroupVersion, periods: Vec<Vec<Op>>) -> std::result::Result<(), String> {
    let mut host = Host::new(version);
    let mut live = host.fx.backend();
    // The epoch the live backend answered after its last listing.
    let mut vouched: Option<(u64, Vec<VmCgroupInfo>)> = None;

    for (t, ops) in periods.into_iter().enumerate() {
        for op in ops {
            host.apply(op);
            if let Some((epoch, listed)) = &vouched {
                if live.vms_epoch() == Some(*epoch) {
                    let now = host.fx.backend().vms();
                    prop_assert!(
                        &now == listed,
                        "period {t}: after {op:?} epoch {epoch} still vouches for \
                         {listed:?}, the oracle lists {now:?}"
                    );
                }
            }
        }
        let mut oracle = host.fx.backend();
        prop_assert_eq!(live.version(), version);

        let vms = oracle.vms();
        let listed = live.vms();
        prop_assert!(
            listed == vms,
            "period {t}: listing {listed:?}, the oracle's {vms:?}"
        );
        let epoch = live.vms_epoch();
        if let (Some(epoch), Some((before, then))) = (epoch, &vouched) {
            prop_assert!(
                epoch != *before || &listed == then,
                "period {t}: epoch {epoch} again, but the listing moved from {then:?} to {listed:?}"
            );
        }
        vouched = epoch.map(|epoch| (epoch, listed));
        live.begin_read_pass();
        oracle.begin_read_pass();

        for info in &vms {
            let vm = info.vm;
            // One past the end too: the unknown-vCPU answer must match.
            let vcpus = || (0..=info.nr_vcpus).map(VcpuId::new);
            let raw: Vec<_> = vcpus()
                .map(|vcpu| (live.read_vcpu_raw(vm, vcpu), oracle.read_vcpu_raw(vm, vcpu)))
                .collect();
            for (vcpu, (got, want)) in vcpus().zip(raw) {
                let j = vcpu.as_u32();
                let at = format!("period {t}: {}/vcpu{j}", info.name);
                same(&got, &want, &at, "read_vcpu_raw")?;

                same(
                    &live.vcpu_usage(vm, vcpu),
                    &oracle.vcpu_usage(vm, vcpu),
                    &at,
                    "vcpu_usage",
                )?;
                same(
                    &live.vcpu_throttled(vm, vcpu),
                    &oracle.vcpu_throttled(vm, vcpu),
                    &at,
                    "vcpu_throttled",
                )?;
                same(
                    &live.vcpu_threads(vm, vcpu),
                    &oracle.vcpu_threads(vm, vcpu),
                    &at,
                    "vcpu_threads",
                )?;
                let tid = oracle.vcpu_first_thread(vm, vcpu);
                same(
                    &live.vcpu_first_thread(vm, vcpu),
                    &tid,
                    &at,
                    "vcpu_first_thread",
                )?;
                if let Ok(Some(tid)) = tid {
                    same(
                        &live.thread_last_cpu(tid),
                        &oracle.thread_last_cpu(tid),
                        &at,
                        "thread_last_cpu",
                    )?;
                }

                // The cap, through each backend in turn: a write that
                // succeeds leaves exactly the new text on disk.
                let cap = match (t as u32 + j) % 3 {
                    0 => CpuMax::unlimited(),
                    k => CpuMax::limited(Micros(u64::from(k) * 1_000 + t as u64)),
                };
                let wrote = live.set_vcpu_max(vm, vcpu, cap);
                if wrote.is_ok() {
                    let (on_disk, expected) = host.cap_on_disk(&info.name, j, &cap);
                    prop_assert_eq!(on_disk, expected, "{}: cap bytes on disk", at);
                }
                let read_back = live.vcpu_max(vm, vcpu);
                same(
                    &wrote,
                    &oracle.set_vcpu_max(vm, vcpu, cap),
                    &at,
                    "set_vcpu_max",
                )?;
                same(&read_back, &oracle.vcpu_max(vm, vcpu), &at, "vcpu_max")?;
            }
        }
        for cpu in 0..=CPUS {
            same(
                &live.cpu_cur_freq(CpuId::new(cpu)),
                &oracle.cpu_cur_freq(CpuId::new(cpu)),
                &format!("period {t}: cpu{cpu}"),
                "cpu_cur_freq",
            )?;
        }
    }
    Ok(())
}

fn periods() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..13, 0u32..1_000, 0u32..1_000), 0..4),
        4..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn long_lived_backend_answers_like_a_fresh_one_v2(periods in periods()) {
        check(CgroupVersion::V2, periods)?;
    }

    #[test]
    fn long_lived_backend_answers_like_a_fresh_one_v1(periods in periods()) {
        check(CgroupVersion::V1, periods)?;
    }
}

/// What `FsBackend: Sync` promises: threads reading disjoint vCPUs
/// through one shared `&FsBackend`, started together.
#[test]
fn two_threads_read_disjoint_vcpus_through_one_backend() {
    let fx = FixtureTree::builder()
        .cpus(CPUS, MHz(2400))
        .vm("left", 2, &[11, 12])
        .vm("right", 2, &[21, 22])
        .build();
    for (vm, base) in [("left", 1_000u64), ("right", 2_000)] {
        for j in 0..2u32 {
            fx.add_vcpu_usage(vm, j, Micros(base + u64::from(j)));
        }
    }
    let backend: FsBackend = fx.backend();
    let vms = backend.vms();
    backend.begin_read_pass();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (info, base) in vms.iter().zip([1_000u64, 2_000]) {
            let (backend, start) = (&backend, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..500 {
                    for j in 0..info.nr_vcpus {
                        let raw = backend.read_vcpu_raw(info.vm, VcpuId::new(j)).unwrap();
                        assert_eq!(raw.usage, Micros(base + u64::from(j)));
                        assert_eq!(raw.last_cpu, CpuId::new(j % CPUS));
                        assert_eq!(raw.core_freq, MHz(2400));
                    }
                }
            });
        }
    });
    // 4 vCPUs × (cpu.stat, cgroup.threads, cpu.max, /proc stat) + 2 CPUs.
    assert_eq!(backend.handles_kept(), 4 * 4 + 2);
}
