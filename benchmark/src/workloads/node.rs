//! `node_sim` and `node_fs`: one node's control loop, period by period.
//!
//! Both drive the same `Controller::iterate_into` with a reused report.
//! `node_sim` feeds it from the in-memory `SimHost` (host simulation does
//! most of the work); `node_fs` feeds it from `FsBackend` over a fixture
//! tree of real files, on tmpfs when the machine has `/dev/shm` (file
//! reads and `cpu.max` writes do most of the work, and no host simulation
//! runs at all).

use super::Demand;
use crate::common::{prom_sum, us, Cfg, Checks, Digest, Layers, Rep};
use crate::spans::Tracer;
use crate::stats;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vfc::cgroupfs::backend::{HostBackend, TopologyInfo, VcpuRawSample, VmCgroupInfo};
use vfc::cgroupfs::fixture::FixtureTree;
use vfc::cgroupfs::fs::FsBackend;
use vfc::cgroupfs::model::{CpuMax, CpuStat};
use vfc::cgroupfs::parse;
use vfc::cgroupfs::tree::kvm_layout;
use vfc::cgroupfs::Result;
use vfc::controller::apply::allocation_to_cpu_max;
use vfc::controller::{Controller, ControllerConfig, IterationReport, StageTimings};
use vfc::cpusched::engine::Engine;
use vfc::cpusched::topology::NodeSpec;
use vfc::simcore::{CpuId, FastMap, MHz, Micros, SplitMix64, Tid, VcpuId, VmId};
use vfc::vmm::{SimHost, VmTemplate};

/// Sums of the controller's own stage timings over a rep.
#[derive(Default)]
pub(super) struct StageSums {
    iterations: u64,
    stages: [Duration; 6],
    total: Duration,
}

const STAGE_SPANS: [&str; 6] = [
    "controller.monitor",
    "controller.estimate",
    "controller.enforce",
    "controller.auction",
    "controller.distribute",
    "controller.apply",
];

fn stage_array(t: &StageTimings) -> [Duration; 6] {
    [
        t.monitor,
        t.estimate,
        t.enforce,
        t.auction,
        t.distribute,
        t.apply,
    ]
}

impl StageSums {
    pub(super) fn add(&mut self, t: &StageTimings) {
        self.iterations += 1;
        for (sum, d) in self.stages.iter_mut().zip(stage_array(t)) {
            *sum += d;
        }
        self.total += t.total;
    }

    /// Mean µs per iteration of each stage, plus the controller's own
    /// bookkeeping between stages (`self`).
    pub(super) fn into_layers(self, layers: &mut Layers) {
        let n = self.iterations.max(1) as f64;
        let names = [
            "controller.monitor_us",
            "controller.estimate_us",
            "controller.enforce_us",
            "controller.auction_us",
            "controller.distribute_us",
            "controller.apply_us",
        ];
        let mut staged = Duration::ZERO;
        for (name, d) in names.into_iter().zip(self.stages) {
            layers.insert(name, us(d) / n);
            staged += d;
        }
        layers.insert(
            "controller.self_us",
            us(self.total.saturating_sub(staged)) / n,
        );
    }
}

/// What both node loops check after every iteration: the call succeeded,
/// the health report is clean, and Σ caps fits the node.
fn check_iteration(
    checks: &mut Checks,
    period: u64,
    result: &Result<()>,
    report: &IterationReport,
    capacity: Micros,
    digest: &mut Digest,
) {
    let total = report.total_alloc();
    digest.u64(total.as_u64());
    let h = &report.health;
    checks.check(
        result.is_ok() && h.read_errors == 0 && h.write_errors == 0 && !h.degraded,
        || format!("period {period}: iteration failed or degraded: {result:?} {h:?}"),
    );
    checks.check(total <= capacity, || {
        format!("period {period}: Σ caps {total} exceeds node capacity {capacity}")
    });
}

/// Final state into the digest: every vCPU's row and every wallet.
fn digest_report(digest: &mut Digest, report: &IterationReport) {
    for v in &report.vcpus {
        digest.str(&v.vm_name);
        digest.u64(u64::from(v.addr.vcpu.as_u32()));
        digest.u64(v.used.as_u64());
        digest.u64(v.estimate.as_u64());
        digest.u64(v.alloc.as_u64());
    }
    for (vm, credit) in &report.credits {
        digest.u64(u64::from(vm.as_u32()));
        digest.u64(*credit);
    }
}

/// `cap_writes_per_iter` and `cap_writes_elided_share` from the
/// controller's own counters (read from its exposition page).
fn cap_write_layers(controller: &Controller, before: (f64, f64), iters: u64, layers: &mut Layers) {
    let (w, e) = cap_counters(controller);
    let (writes, elided) = (w - before.0, e - before.1);
    layers.insert(
        "controller.cap_writes_per_iter",
        writes / iters.max(1) as f64,
    );
    let decided = writes + elided;
    layers.insert(
        "controller.cap_writes_elided_share",
        if decided > 0.0 { elided / decided } else { 0.0 },
    );
}

fn cap_counters(controller: &Controller) -> (f64, f64) {
    let page = controller.telemetry().render_prometheus();
    (
        prom_sum(&page, "vfc_cap_writes_total"),
        prom_sum(&page, "vfc_cap_writes_elided_total"),
    )
}

fn iteration_layers(
    iter_us: &[f64],
    iter_total: Duration,
    measured: Duration,
    layers: &mut Layers,
) {
    layers.insert("controller.iter_p50_us", stats::median(iter_us));
    layers.insert("controller.iter_p99_us", stats::tail(iter_us));
    layers.insert(
        "controller.share",
        iter_total.as_secs_f64() / measured.as_secs_f64().max(1e-9),
    );
}

// ---------------------------------------------------------------- node_sim

const SIM_VMS: usize = 80;
const SIM_WARMUP: u32 = 20;
/// Periods per calibration chunk (≈ 10 ms of work).
const SIM_CHUNK: u64 = 25;

fn sim_host(seed: u64) -> (SimHost, Controller) {
    let mut rng = SplitMix64::new(seed ^ 0x51A1_0000_0000_0001);
    let mut host = SimHost::new(NodeSpec::chetemi(), rng.next_u64());
    for i in 0..SIM_VMS {
        let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
        let demand = [Demand::BurstyWeb, Demand::Steady80, Demand::Saturating][i % 3];
        host.attach_workload(vm, demand.workload(&mut rng));
    }
    let controller = Controller::new(ControllerConfig::paper_defaults(), host.topology_info());
    (host, controller)
}

/// A warmed-up `node_sim` node.
pub struct SimNode {
    host: SimHost,
    controller: Controller,
    report: IterationReport,
    checks: Checks,
}

/// Build the node and run the warm-up periods.
pub fn sim_setup(cfg: &Cfg) -> SimNode {
    let (mut host, mut controller) = sim_host(cfg.seed);
    let mut report = IterationReport::default();
    let mut checks = Checks::default();
    for _ in 0..SIM_WARMUP {
        host.advance_period();
        let r = controller.iterate_into(&mut host, &mut report);
        checks.check(r.is_ok(), || format!("warm-up iteration failed: {r:?}"));
    }
    SimNode {
        host,
        controller,
        report,
        checks,
    }
}

/// The measured loop of `node_sim`.
pub fn sim_run(node: SimNode, cfg: &Cfg, tracer: &mut Tracer) -> Rep {
    let periods = cfg.size(8_000, 300) as u64;
    let SimNode {
        mut host,
        mut controller,
        mut report,
        checks,
    } = node;
    let mut rep = Rep {
        checks,
        ..Rep::default()
    };

    let capacity =
        Micros(u64::from(host.spec().nr_threads()) * controller.config().period.as_u64());
    let caps_before = cap_counters(&controller);
    let mut digest = Digest::default();
    let mut stages = StageSums::default();
    let (mut advance_total, mut iter_total) = (Duration::ZERO, Duration::ZERO);
    rep.op_us.reserve(periods as usize);

    let mut chunk_started = Instant::now();
    for period in 0..periods {
        let t0 = Instant::now();
        host.advance_period();
        let t1 = Instant::now();
        let result = controller.iterate_into(&mut host, &mut report);
        let t2 = Instant::now();
        advance_total += t1 - t0;
        iter_total += t2 - t1;
        rep.op(t2 - t1);
        stages.add(&report.timings);
        check_iteration(
            &mut rep.checks,
            period,
            &result,
            &report,
            capacity,
            &mut digest,
        );
        if tracer.enabled() {
            let root = tracer.record("node.period", t0, t2, None, period);
            tracer.record("vmm.advance_period", t0, t1, root, period);
            let it = tracer.record("controller.iterate_into", t1, t2, root, period);
            let parts: Vec<(&'static str, u64)> = STAGE_SPANS
                .into_iter()
                .zip(stage_array(&report.timings))
                .map(|(n, d)| (n, d.as_nanos() as u64))
                .collect();
            tracer.record_sequence(it, &parts);
        }
        if (period + 1) % SIM_CHUNK == 0 || period + 1 == periods {
            rep.close_chunk(chunk_started.elapsed());
            chunk_started = Instant::now();
        }
    }
    rep.finish();
    let measured = Duration::from_secs_f64(rep.measured_s);
    rep.work = periods;
    digest_report(&mut digest, &report);
    rep.digest = digest.hex();
    stages.into_layers(&mut rep.layers);
    iteration_layers(&rep.op_us, iter_total, measured, &mut rep.layers);
    cap_write_layers(&controller, caps_before, periods, &mut rep.layers);
    rep.layers.insert(
        "vmm.advance_period_us",
        us(advance_total) / periods.max(1) as f64,
    );
    rep.layers.insert(
        "vmm.share",
        advance_total.as_secs_f64() / rep.measured_s.max(1e-9),
    );
    rep
}

/// `cpusched.tick_us`: the scheduler engine alone on this workload's
/// cgroup tree, every vCPU thread demanding a full tick — the engine's
/// share of `vmm.advance_period_us` (ten ticks per period) without the
/// workload models and the ground-truth windows `SimHost` adds.
pub fn sim_probes(cfg: &Cfg, layers: &mut Layers) {
    let (host, _) = sim_host(cfg.seed);
    let mut tree = host.tree().clone();
    let mut engine = Engine::new(host.spec().clone(), cfg.seed);
    let tick = engine.tick_len();
    let mut demands: FastMap<Tid, Micros> = FastMap::default();
    for inst in host.instances() {
        for tid in &inst.tids {
            demands.insert(*tid, tick);
        }
    }
    let mut out = Default::default();
    let ticks = cfg.size(2_000, 100);
    for _ in 0..ticks / 10 {
        engine.tick_into(&mut tree, &demands, &mut out);
    }
    let started = Instant::now();
    for _ in 0..ticks {
        engine.tick_into(&mut tree, &demands, &mut out);
    }
    std::hint::black_box(&out);
    layers.insert("cpusched.tick_us", us(started.elapsed()) / ticks as f64);
}

// ----------------------------------------------------------------- node_fs

const FS_CPUS: u32 = 40;
const FS_VMS: usize = 40;
const FS_WARMUP: u32 = 5;
/// Iterations per calibration chunk (≈ 10 ms of work on tmpfs).
const FS_CHUNK: u64 = 10;

/// What the harness knows about one vCPU of the fixture tree: where its
/// files are, what it has consumed so far, and how much it wants.
struct FsVcpu {
    vm_name: String,
    vcpu: u32,
    /// `cpu.stat`, kept open: the harness rewrites it in place every
    /// period, and reopening with truncation would cost more than the
    /// controller's whole iteration on a journaling filesystem.
    stat_file: std::fs::File,
    max_path: PathBuf,
    stat: CpuStat,
    /// Mean demand as a fraction of one hardware thread.
    level: f64,
    /// This period's allowance: last written allocation, µs per period.
    allowed: Micros,
}

/// The fixture tree, its backend and controller, and the "guest" side the
/// harness plays between iterations.
pub struct FsNode {
    fixture: FixtureTree,
    backend: FsBackend,
    controller: Controller,
    vcpus: Vec<FsVcpu>,
    rng: SplitMix64,
    report: IterationReport,
    checks: Checks,
    tree_build: Duration,
}

impl FsNode {
    fn build(seed: u64) -> FsNode {
        let mut rng = SplitMix64::new(seed ^ 0xF5F5_0000_0000_0002);
        let mut builder = FixtureTree::builder().cpus(FS_CPUS, MHz(2400));
        let names: Vec<String> = (0..FS_VMS).map(|i| format!("vm{i:02}")).collect();
        for (i, name) in names.iter().enumerate() {
            let base = 1_000 + 10 * i as u32;
            builder = builder.vm(name, 2, &[base, base + 1]);
        }
        let tree_started = Instant::now();
        let fixture = builder.build();
        let tree_build = tree_started.elapsed();
        let mut backend = fixture.backend();
        let mut vcpus = Vec::with_capacity(FS_VMS * 2);
        let slice = fixture.cgroup_root().join(kvm_layout::MACHINE_SLICE);
        for (i, name) in names.iter().enumerate() {
            backend.set_vfreq(name.clone(), MHz(if i % 2 == 0 { 600 } else { 1800 }));
            for vcpu in 0..2 {
                let dir = slice
                    .join(kvm_layout::scope_name(i as u32 + 1, name))
                    .join("libvirt")
                    .join(kvm_layout::vcpu_dir(vcpu));
                vcpus.push(FsVcpu {
                    vm_name: name.clone(),
                    vcpu,
                    stat_file: std::fs::OpenOptions::new()
                        .write(true)
                        .open(dir.join("cpu.stat"))
                        .expect("open cpu.stat"),
                    max_path: dir.join("cpu.max"),
                    stat: CpuStat::default(),
                    level: rng.uniform(0.05, 1.0),
                    allowed: Micros::SEC,
                });
            }
        }
        let controller = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
        FsNode {
            fixture,
            backend,
            controller,
            vcpus,
            rng,
            report: IterationReport::default(),
            checks: Checks::default(),
            tree_build,
        }
    }

    /// Time the harness spent standing in for the kernel: creating the
    /// cgroup tree. On a real host the tree exists before the controller
    /// starts, so this is not part of the program's set-up — and on a
    /// journaling filesystem it is several times the rest of it and
    /// varies 4× between minutes.
    pub fn harness_time(&self) -> Duration {
        self.tree_build
    }

    /// One period outside any measurement: guests run, controller reacts.
    fn warm_up_period(&mut self) {
        self.consume();
        let r = self
            .controller
            .iterate_into(&mut self.backend, &mut self.report);
        self.checks
            .check(r.is_ok(), || format!("warm-up iteration failed: {r:?}"));
        self.adopt_caps();
    }

    /// Play the guests for one period (see [`consume`]).
    fn consume(&mut self) {
        consume(
            &mut self.vcpus,
            &mut self.rng,
            self.controller.config().period,
        );
    }

    /// Remember what the controller just allowed each vCPU. The caps on
    /// disk are compared with the same report at the end of the rep, so
    /// clipping by the report is clipping by the cap on disk.
    fn adopt_caps(&mut self) {
        // Report rows and `vcpus` are both in (machine number, vCPU)
        // order; names are matched anyway so a reordering cannot go
        // unnoticed.
        for (v, row) in self.vcpus.iter_mut().zip(&self.report.vcpus) {
            if v.vm_name == row.vm_name && v.vcpu == row.addr.vcpu.as_u32() {
                v.allowed = row.alloc;
            }
        }
    }

    /// `cpu.max` on disk equals what the report says was applied.
    fn check_disk(&self, checks: &mut Checks, digest: &mut Digest) {
        let period = self.controller.config().period;
        let report = &self.report;
        checks.check(report.vcpus.len() == self.vcpus.len(), || {
            format!(
                "report has {} vCPUs, tree has {}",
                report.vcpus.len(),
                self.vcpus.len()
            )
        });
        for (v, row) in self.vcpus.iter().zip(&report.vcpus) {
            let on_disk = std::fs::read_to_string(&v.max_path).unwrap_or_default();
            digest.str(&on_disk);
            let expected = parse::format_cpu_max(&allocation_to_cpu_max(row.alloc, period));
            checks.check(v.vm_name == row.vm_name && on_disk == expected, || {
                format!(
                    "{}/vcpu{}: cpu.max on disk {on_disk:?}, report implies {expected:?}",
                    v.vm_name, v.vcpu
                )
            });
        }
    }
}

/// Play the guests for one period: each vCPU consumes its (jittered)
/// demand, clipped by the cap in force, and the harness rewrites its
/// `cpu.stat` the way the kernel would have. Counters only grow, so the
/// new text is never shorter than the old and overwriting from offset 0
/// needs no truncation.
fn consume(vcpus: &mut [FsVcpu], rng: &mut SplitMix64, period: Micros) {
    use std::os::unix::fs::FileExt;
    for v in vcpus {
        let want = (v.level * rng.uniform(0.85, 1.15)).clamp(0.0, 1.0);
        let used = period.scale(want).min(v.allowed);
        v.stat.account_usage(used);
        v.stat_file
            .write_all_at(parse::format_cpu_stat(&v.stat).as_bytes(), 0)
            .expect("rewrite cpu.stat");
    }
}

/// Write the fixture tree, open the backend on it, warm the controller up.
pub fn fs_setup(cfg: &Cfg) -> FsNode {
    let mut node = FsNode::build(cfg.seed);
    for _ in 0..FS_WARMUP {
        node.warm_up_period();
    }
    node
}

/// The measured loop of `node_fs`.
pub fn fs_run(mut node: FsNode, cfg: &Cfg, tracer: &mut Tracer) -> Rep {
    let periods = cfg.size(750, 30) as u64;
    let mut rep = Rep {
        checks: std::mem::take(&mut node.checks),
        ..Rep::default()
    };

    let capacity = Micros(u64::from(FS_CPUS) * node.controller.config().period.as_u64());
    let caps_before = cap_counters(&node.controller);
    let mut digest = Digest::default();
    let mut stages = StageSums::default();
    let (mut iter_total, mut chunk_wall) = (Duration::ZERO, Duration::ZERO);
    rep.op_us.reserve(periods as usize);

    for period in 0..periods {
        // Outside the timed window: the guests run.
        node.consume();
        let t0 = Instant::now();
        let result = node
            .controller
            .iterate_into(&mut node.backend, &mut node.report);
        let t1 = Instant::now();
        iter_total += t1 - t0;
        chunk_wall += t1 - t0;
        rep.op(t1 - t0);
        stages.add(&node.report.timings);
        check_iteration(
            &mut rep.checks,
            period,
            &result,
            &node.report,
            capacity,
            &mut digest,
        );
        node.adopt_caps();
        if tracer.enabled() {
            let it = tracer.record("controller.iterate_into", t0, t1, None, period);
            let parts: Vec<(&'static str, u64)> = STAGE_SPANS
                .into_iter()
                .zip(stage_array(&node.report.timings))
                .map(|(n, d)| (n, d.as_nanos() as u64))
                .collect();
            tracer.record_sequence(it, &parts);
        }
        if (period + 1) % FS_CHUNK == 0 || period + 1 == periods {
            rep.close_chunk(std::mem::take(&mut chunk_wall));
        }
    }

    // The measured time of this workload is the controller's alone: the
    // guests' file writes between iterations are the harness's cost.
    rep.finish();
    rep.work = periods;
    node.check_disk(&mut rep.checks, &mut digest);
    digest_report(&mut digest, &node.report);
    rep.digest = digest.hex();
    stages.into_layers(&mut rep.layers);
    iteration_layers(&rep.op_us, iter_total, iter_total, &mut rep.layers);
    cap_write_layers(&node.controller, caps_before, periods, &mut rep.layers);
    let root = node.fixture.root().to_path_buf();
    drop(node);
    rep.checks.check(!root.exists(), || {
        format!("fixture tree {} not removed", root.display())
    });
    rep
}

/// A `HostBackend` that counts the calls the controller makes — how
/// `cgroupfs.reads_per_iter` / `writes_per_iter` are measured without
/// touching the backend itself.
struct Counting<'a> {
    inner: &'a mut FsBackend,
    reads: std::cell::Cell<u64>,
    writes: u64,
}

impl HostBackend for Counting<'_> {
    fn topology(&self) -> TopologyInfo {
        self.inner.topology()
    }
    fn vms(&self) -> Vec<VmCgroupInfo> {
        self.inner.vms()
    }
    fn vms_epoch(&self) -> Option<u64> {
        self.inner.vms_epoch()
    }
    fn vcpu_first_thread(&self, vm: VmId, vcpu: VcpuId) -> Result<Option<Tid>> {
        self.inner.vcpu_first_thread(vm, vcpu)
    }
    fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        self.reads.set(self.reads.get() + 1);
        self.inner.vcpu_usage(vm, vcpu)
    }
    fn vcpu_throttled(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        self.inner.vcpu_throttled(vm, vcpu)
    }
    fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> Result<Vec<Tid>> {
        self.inner.vcpu_threads(vm, vcpu)
    }
    fn thread_last_cpu(&self, tid: Tid) -> Result<CpuId> {
        self.inner.thread_last_cpu(tid)
    }
    fn cpu_cur_freq(&self, cpu: CpuId) -> Result<MHz> {
        self.inner.cpu_cur_freq(cpu)
    }
    fn begin_read_pass(&self) {
        self.inner.begin_read_pass()
    }
    fn read_vcpu_raw(&self, vm: VmId, vcpu: VcpuId) -> Result<VcpuRawSample> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read_vcpu_raw(vm, vcpu)
    }
    fn set_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId, max: CpuMax) -> Result<()> {
        self.writes += 1;
        self.inner.set_vcpu_max(vm, vcpu, max)
    }
    fn vcpu_max(&self, vm: VmId, vcpu: VcpuId) -> Result<CpuMax> {
        self.inner.vcpu_max(vm, vcpu)
    }
    fn set_vm_weight(&mut self, vm: VmId, weight: u32) -> Result<()> {
        self.inner.set_vm_weight(vm, weight)
    }
    fn vm_weight(&self, vm: VmId) -> Result<u32> {
        self.inner.vm_weight(vm)
    }
}

/// The file layer on its own, on this workload's tree: one fused vCPU
/// read, one `cpu.max` write, one inventory listing; and how many of the
/// first two the controller issues per iteration.
pub fn fs_probes(cfg: &Cfg, layers: &mut Layers) {
    let mut node = FsNode::build(cfg.seed);
    let mut report = IterationReport::default();
    let periods = cfg.size(100, 10) as u64;
    {
        let FsNode {
            backend,
            controller,
            vcpus,
            rng,
            ..
        } = &mut node;
        let period = controller.config().period;
        let mut counting = Counting {
            inner: backend,
            reads: std::cell::Cell::new(0),
            writes: 0,
        };
        // The first iterations discover the tree; count the steady state.
        for _ in 0..FS_WARMUP {
            consume(vcpus, rng, period);
            let _ = controller.iterate_into(&mut counting, &mut report);
        }
        counting.reads.set(0);
        counting.writes = 0;
        for _ in 0..periods {
            consume(vcpus, rng, period);
            let _ = controller.iterate_into(&mut counting, &mut report);
        }
        layers.insert(
            "cgroupfs.reads_per_iter",
            counting.reads.get() as f64 / periods as f64,
        );
        layers.insert(
            "cgroupfs.writes_per_iter",
            counting.writes as f64 / periods as f64,
        );
    }
    for _ in 0..FS_WARMUP {
        node.warm_up_period();
    }

    let vms = node.backend.vms();
    let rounds = cfg.size(200, 10);
    let addrs: Vec<_> = vms
        .iter()
        .flat_map(|vm| (0..vm.nr_vcpus).map(move |j| (vm.vm, VcpuId::new(j))))
        .collect();
    let ops = (rounds * addrs.len()).max(1) as f64;

    let started = Instant::now();
    for _ in 0..rounds {
        node.backend.begin_read_pass();
        for &(vm, vcpu) in &addrs {
            std::hint::black_box(node.backend.read_vcpu_raw(vm, vcpu).ok());
        }
    }
    layers.insert("cgroupfs.read_vcpu_us", us(started.elapsed()) / ops);

    let started = Instant::now();
    for round in 0..rounds {
        // Alternate two quotas so every call rewrites the file.
        let quota = Micros(20_000 + (round as u64 % 2) * 1_000);
        for &(vm, vcpu) in &addrs {
            let _ = node.backend.set_vcpu_max(vm, vcpu, CpuMax::limited(quota));
        }
    }
    layers.insert("cgroupfs.write_cap_us", us(started.elapsed()) / ops);

    let started = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(node.backend.vms());
    }
    layers.insert(
        "cgroupfs.vms_list_us",
        us(started.elapsed()) / rounds.max(1) as f64,
    );
}
