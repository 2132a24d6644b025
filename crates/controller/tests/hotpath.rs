//! Hot-path guarantees of [`Controller::iterate_into`]:
//!
//! * a warm steady-state iteration performs **zero heap allocations**
//!   (counting `#[global_allocator]`, per-thread so parallel tests do
//!   not pollute the measurement), and the iteration after an arrival
//!   allocates nothing per VM already hosted;
//! * a controller's heap follows the VMs listed now, not every VM it ever
//!   listed;
//! * an unchanged-demand period issues **zero `cpu.max` writes** — every
//!   candidate is elided against the in-force value, and the elisions
//!   are visible on the Prometheus exposition;
//! * the slot-table pipeline is
//!   **golden-equivalent** to the original pipeline of map-keyed stages: byte-identical `cpu.max` state, wallet entries,
//!   health reports and Eq. 3 histories after every period of a
//!   randomized life with VM churn, resizes, recycled names and an
//!   injected fault storm.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use vfc_cgroupfs::backend::{HostBackend, TopologyInfo, VmCgroupInfo};
use vfc_cgroupfs::{
    CgroupError, CpuMax, FaultInjectingBackend, FaultKind, FaultOp, FaultPlan, Result,
};
use vfc_controller::apply::allocation_to_cpu_max;
use vfc_controller::auction::{run_auction, Buyer};
use vfc_controller::controller::{
    Controller, CreditFlow, HealthReport, IterationReport, LadderRung,
};
use vfc_controller::credits::{base_allocations, Wallet};
use vfc_controller::distribute::distribute_leftovers;
use vfc_controller::estimate::{EstimateCase, Estimator};
use vfc_controller::monitor::Monitor;
use vfc_controller::{guaranteed_cycles, ControlMode, ControllerConfig};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::alloc_count::{thread_alloc_events, thread_live_bytes, CountingAlloc};
use vfc_simcore::{CpuId, FastMap, MHz, Micros, SplitMix64, Tid, VcpuAddr, VcpuId, VmId};
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

// Per-thread counts: the test harness runs each test on its own thread.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---- fixtures ----------------------------------------------------------

/// Deterministic host: performance governor, zero frequency noise.
fn quiet_host(cores: u32, threads_per_core: u32, seed: u64) -> SimHost {
    SimHost::fixed_freq(
        NodeSpec::custom("hot", 1, cores, threads_per_core, MHz(2400)),
        seed,
    )
}

fn full_config() -> ControllerConfig {
    ControllerConfig::paper_defaults().with_mode(ControlMode::Full)
}

/// Value of an unlabelled metric on the Prometheus exposition.
fn metric(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} not an integer: {e}"))
}

// ---- zero-allocation steady state --------------------------------------

#[test]
fn warm_steady_state_iteration_allocates_nothing() {
    let mut host = quiet_host(4, 2, 21);
    let web = host.provision(&VmTemplate::new("web", 2, MHz(800)));
    let db = host.provision(&VmTemplate::new("db", 1, MHz(1200)));
    let batch = host.provision(&VmTemplate::new("batch", 2, MHz(600)));
    host.attach_workload(web, Box::new(SteadyDemand::full()));
    host.attach_workload(db, Box::new(SteadyDemand::new(0.5)));
    host.attach_workload(batch, Box::new(SteadyDemand::new(0.8)));

    let mut ctl = Controller::new(full_config(), host.topology_info());
    let mut report = IterationReport::default();
    for _ in 0..16 {
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report).unwrap();
    }
    assert!(!report.health.degraded, "{:?}", report.health);

    // Measure a few full periods: registry, histories, scratch vectors
    // and telemetry series are all warm now.
    for _ in 0..3 {
        host.advance_period();
        let before = thread_alloc_events();
        ctl.iterate_into(&mut host, &mut report).unwrap();
        let after = thread_alloc_events();
        assert_eq!(
            after - before,
            0,
            "steady-state iterate_into must not touch the allocator"
        );
    }
}

/// The same guarantee over the **filesystem backend**: on an unchanged
/// 40-VM tree a warm iteration allocates exactly what its one
/// `vms()` listing allocates — so stage 1's reads (stack buffers through
/// kept handles), stage 6's `cpu.max` writes (formatted on the stack)
/// and everything between allocate nothing — and the listing's share
/// does not depend on how many vCPUs the VMs have.
///
/// Today's figure: 42 events per listing for 40 VMs — the rebuilt scope
/// cache (1) and the returned `Vec<VmCgroupInfo>` (1) with its 40 VM
/// names; `machine.slice` is not re-read while the backend's change feed
/// reports it quiet. (129 while every listing ran `read_dir`: its handle
/// and root path, each entry's name twice, the growing `Vec` of scope
/// names.) The count is asserted as vCPU-independent, not as 42: a
/// listing that does run `read_dir` allocates `std`'s share too.
#[test]
fn warm_iteration_over_the_fs_backend_allocates_only_the_listing() {
    use vfc_cgroupfs::fixture::FixtureTree;

    let measure = |vcpus_per_vm: u32| -> u64 {
        let names: Vec<String> = (0..40).map(|i| format!("vm{i:02}")).collect();
        let mut builder = FixtureTree::builder().cpus(8, MHz(2400));
        for (i, name) in names.iter().enumerate() {
            let tids: Vec<u32> = (0..vcpus_per_vm)
                .map(|j| 1_000 + 10 * i as u32 + j)
                .collect();
            builder = builder.vm(name, vcpus_per_vm, &tids);
        }
        let fx = builder.build();
        let mut backend = fx.backend();
        for (i, name) in names.iter().enumerate() {
            backend.set_vfreq(name.clone(), MHz(if i % 2 == 0 { 600 } else { 1800 }));
        }
        let mut ctl = Controller::new(full_config(), backend.topology());
        let mut report = IterationReport::default();
        let period = |ctl: &mut Controller, backend: &mut _, report: &mut _| -> u64 {
            // The guests run (the fixture's helpers allocate freely).
            for (i, name) in names.iter().enumerate() {
                for j in 0..vcpus_per_vm {
                    fx.add_vcpu_usage(name, j, Micros(20_000 + 1_000 * (i as u64 % 9)));
                }
            }
            let before = thread_alloc_events();
            ctl.iterate_into(backend, report).unwrap();
            thread_alloc_events() - before
        };
        for _ in 0..16 {
            period(&mut ctl, &mut backend, &mut report);
        }
        assert!(!report.health.degraded, "{:?}", report.health);
        assert_eq!(report.vcpus.len(), (40 * vcpus_per_vm) as usize);

        let before = thread_alloc_events();
        let listed = backend.vms();
        let listing = thread_alloc_events() - before;
        assert_eq!(listed.len(), 40);
        for _ in 0..3 {
            assert_eq!(
                period(&mut ctl, &mut backend, &mut report),
                listing,
                "a warm iterate_into over FsBackend allocates its listing and nothing else \
                 ({vcpus_per_vm} vCPUs per VM)"
            );
        }
        listing
    };
    assert_eq!(
        measure(1),
        measure(4),
        "the listing's allocations must not grow with the vCPU count"
    );
}

/// The iteration after an arrival is not warm — the tables are laid
/// out again — but what it allocates beyond its `vms()` listing does not
/// grow with the VMs already hosted: table and scratch vectors grown in
/// one step each, the arrival's name, its rows' Eq. 3 rings, its report
/// rows. Which vectors happen to cross a capacity step depends on the
/// size, so the count wobbles by a few events; it never gains one per
/// hosted VM.
///
/// Today's figures, events beyond the listing on the `node_sim`
/// population: 16 at 80 hosted VMs, 16 at 160 (21 and 21 while an
/// arrival created three per-VM credit series, `a88822a`; 25 and 33
/// while the controller filled a trace ring, `131a0e9`; the map-keyed
/// controller, `509a5e5`: 329 and 637 — names cloned into three tables,
/// the maps rehashed).
#[test]
fn an_arrival_allocates_a_constant_beyond_its_listing() {
    let arrival = |hosted: usize| -> u64 {
        let mut host = SimHost::new(NodeSpec::chetemi(), 7);
        let provision = |host: &mut SimHost| {
            let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
            host.attach_workload(vm, Box::new(SteadyDemand::new(0.8)));
        };
        for _ in 0..hosted {
            provision(&mut host);
        }
        let mut ctl = Controller::new(full_config(), host.topology_info());
        let mut report = IterationReport::default();
        for _ in 0..16 {
            host.advance_period();
            ctl.iterate_into(&mut host, &mut report).unwrap();
        }
        provision(&mut host);
        host.advance_period();
        let before = thread_alloc_events();
        let listed = host.vms();
        let listing = thread_alloc_events() - before;
        assert_eq!(listed.len(), hosted + 1);
        drop(listed);
        let before = thread_alloc_events();
        ctl.iterate_into(&mut host, &mut report).unwrap();
        let events = thread_alloc_events() - before;
        assert_eq!(report.vcpus.len(), 2 * (hosted + 1));
        events - listing
    };
    let (at_80, at_160) = (arrival(80), arrival(160));
    assert!(at_80 <= 32, "{at_80} events beyond the listing at 80 VMs");
    assert!(
        at_160 <= at_80 + 16,
        "twice the hosted VMs may cross a few more capacity steps, not add \
         an event per VM: {at_80} at 80, {at_160} at 160"
    );
}

/// Regression: every VM a controller ever listed left ≈ 190 B behind —
/// its per-VM credit series on the page — so a node's heap grew with
/// every VM that came and went. The pattern of `vfc-vmm`'s
/// `host_memory_follows_live_vms_not_vms_ever_hosted`, with a controller
/// iterating the host every period.
#[test]
fn controller_memory_follows_live_vms_not_vms_ever_listed() {
    let mut host = quiet_host(4, 2, 7);
    let mut ctl = Controller::new(full_config(), host.topology_info());
    let mut report = IterationReport::default();
    let mut live = VecDeque::new();
    let mut after_40 = 0;
    for round in 0..4_000u32 {
        let vm = host.provision(&VmTemplate::new("t", 1 + round % 3, MHz(600)));
        // Most VMs idle below their guarantee and mint; every third one
        // saturates and bids.
        let demand = if round % 3 == 0 { 1.0 } else { 0.1 };
        host.attach_workload(vm, Box::new(SteadyDemand::new(demand)));
        live.push_back(vm);
        if live.len() > 3 {
            drop(host.deprovision(live.pop_front().unwrap()));
        }
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report).unwrap();
        if round == 39 {
            after_40 = thread_live_bytes();
        }
    }
    assert!(
        report.flows.iter().any(|f| f.minted > 0),
        "{:?}",
        report.flows
    );
    // What still grows is the host's: 4 B of `VmId` → position per VM
    // ever provisioned.
    let grown = thread_live_bytes() - after_40;
    assert!(
        grown <= 32 * 1024,
        "3 960 more VMs through 3 live slots grew the heap by {grown} B"
    );
}

// ---- write elision -----------------------------------------------------

#[test]
fn unchanged_demand_elides_every_cpu_max_write() {
    let mut host = quiet_host(2, 2, 31);
    let web = host.provision(&VmTemplate::new("web", 2, MHz(800)));
    let db = host.provision(&VmTemplate::new("db", 1, MHz(1200)));
    host.attach_workload(web, Box::new(SteadyDemand::full()));
    host.attach_workload(db, Box::new(SteadyDemand::new(0.5)));

    let mut ctl = Controller::new(full_config(), host.topology_info());
    let mut report = IterationReport::default();
    for _ in 0..12 {
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report).unwrap();
    }

    let prom = ctl.telemetry().render_prometheus();
    assert!(
        prom.contains("vfc_cap_writes_elided_total"),
        "elision counter must be exposed"
    );
    let writes0 = metric(&prom, "vfc_cap_writes_total");
    let elided0 = metric(&prom, "vfc_cap_writes_elided_total");

    // Demand does not move, so the computed caps do not move: every
    // period's 3 candidates are already in force and are elided.
    for _ in 0..4 {
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report).unwrap();
    }
    let prom = ctl.telemetry().render_prometheus();
    assert_eq!(
        metric(&prom, "vfc_cap_writes_total"),
        writes0,
        "an unchanged-demand period must issue zero cpu.max writes"
    );
    assert_eq!(
        metric(&prom, "vfc_cap_writes_elided_total"),
        elided0 + 4 * 3,
        "every candidate of the 4 quiet periods is elided"
    );

    // Elision is dedup, not loss: a genuine demand change writes again.
    host.attach_workload(db, Box::new(SteadyDemand::new(0.9)));
    let mut wrote = 0;
    for _ in 0..3 {
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report).unwrap();
        wrote = metric(&ctl.telemetry().render_prometheus(), "vfc_cap_writes_total") - writes0;
        if wrote > 0 {
            break;
        }
    }
    assert!(wrote > 0, "a changed cap must reach the kernel");
}

// ---- golden equivalence with the seed pipeline -------------------------

/// The original controller pipeline, reconstructed from the map-keyed
/// public stage APIs it was built of: observe → estimate (+ QoS floors)
/// → earn → base capping (+ over-subscription scale) → auction → free
/// distribution → apply, with every piece of per-vCPU and per-VM state
/// in a map keyed by address or VM id. Stage 6 is written out here —
/// same candidates, same elision, same failure handling as the
/// controller's — because both sides sit behind fault layers whose RNG
/// replays against the exact sequence of backend calls.
struct SeedPipeline {
    cfg: ControllerConfig,
    monitor: Monitor,
    estimator: Estimator,
    wallet: Wallet,
    prev_alloc: FastMap<VcpuAddr, Micros>,
    pending: FastMap<VcpuAddr, Micros>,
    in_force: FastMap<VcpuAddr, CpuMax>,
    c_max: Micros,
    max_mhz: MHz,
    health: HealthReport,
    /// Stage 6's `cpu.max` writes issued, writes elided, and the volume
    /// the successful ones carried.
    writes: [u64; 3],
    flows: Vec<CreditFlow>,
}

impl SeedPipeline {
    fn new(cfg: ControllerConfig, topo: TopologyInfo) -> Self {
        SeedPipeline {
            monitor: Monitor::new(),
            estimator: Estimator::new(&cfg),
            wallet: Wallet::new(),
            prev_alloc: FastMap::default(),
            pending: FastMap::default(),
            in_force: FastMap::default(),
            c_max: topo.c_max(cfg.period),
            max_mhz: topo.max_mhz,
            health: HealthReport::default(),
            writes: [0; 3],
            flows: Vec::new(),
            cfg,
        }
    }

    fn forget_vm_caps(&mut self, vm: VmId) {
        self.prev_alloc.retain(|a, _| a.vm != vm);
        self.pending.retain(|a, _| a.vm != vm);
        self.in_force.retain(|a, _| a.vm != vm);
    }

    /// [`Controller::set_vfreq`] over the maps.
    fn set_vfreq(&mut self, vm: VmId, vfreq: MHz) {
        let c_i = guaranteed_cycles(vfreq, self.max_mhz, self.cfg.period);
        let tracked = self.estimator.export_histories();
        let vcpus = tracked.iter().filter(|(a, _)| a.vm == vm).count().max(1) as u64;
        self.wallet
            .clamp(vm, c_i.as_u64() * vcpus * self.cfg.history_len as u64);
        self.estimator.forget_vm(vm);
        self.forget_vm_caps(vm);
    }

    fn iterate<B: HostBackend>(&mut self, host: &mut B) {
        let period = self.cfg.period;
        let out = self
            .monitor
            .observe(host, period, self.cfg.stale_sample_ttl);
        let guarantee: HashMap<VmId, Micros> = out
            .vms
            .iter()
            .map(|vm| {
                let c_i = guaranteed_cycles(vm.vfreq.unwrap_or(MHz::ZERO), self.max_mhz, period);
                (vm.vm, c_i)
            })
            .collect();

        let mut estimates = self
            .estimator
            .estimate(&self.cfg, &out.observations, &self.prev_alloc);

        // What is no longer listed (departed, or vanished under the
        // reads) keeps no capping, no retry and no wallet.
        let listed = |a: &VcpuAddr| {
            out.vms
                .iter()
                .any(|v| v.vm == a.vm && a.vcpu.as_u32() < v.nr_vcpus)
        };
        self.prev_alloc.retain(|a, _| listed(a));
        self.pending.retain(|a, _| listed(a));
        self.in_force.retain(|a, _| listed(a));
        let ids: Vec<VmId> = out.vms.iter().map(|v| v.vm).collect();
        self.wallet.retain_vms(&ids);

        for e in &mut estimates {
            if !self.prev_alloc.contains_key(&e.addr) || e.case == EstimateCase::Increase {
                e.estimate = e.estimate.max(guarantee[&e.addr.vm]);
            }
        }

        // Eq. 4 read off the wallet: what stage 3 added, what the
        // auction took, for every listed VM in id order.
        let mut by_id = ids.clone();
        by_id.sort_unstable();
        let balances = |w: &Wallet| -> Vec<u64> { by_id.iter().map(|vm| w.balance(*vm)).collect() };
        let before = balances(&self.wallet);
        self.wallet.earn(&out.observations, &guarantee);
        let earned = balances(&self.wallet);

        let mut allocations = base_allocations(&estimates, &guarantee);
        let base_total: Micros = allocations.values().copied().sum();
        if base_total > self.c_max && !base_total.is_zero() {
            let ratio = self.c_max.as_u64() as f64 / base_total.as_u64() as f64;
            for alloc in allocations.values_mut() {
                *alloc = Micros((alloc.as_u64() as f64 * ratio) as u64);
            }
        }

        let allocated: Micros = allocations.values().copied().sum();
        let mut market = self.c_max.saturating_sub(allocated);
        let mut buyers: Vec<Buyer> = estimates
            .iter()
            .filter(|e| e.estimate > allocations[&e.addr])
            .map(|e| Buyer::new(e.addr, e.estimate - allocations[&e.addr]))
            .collect();
        run_auction(
            &mut market,
            &mut buyers,
            &mut self.wallet,
            self.cfg.window,
            &mut allocations,
        );
        let paid = balances(&self.wallet);
        self.flows = (0..by_id.len())
            .map(|k| CreditFlow {
                vm: by_id[k],
                minted: earned[k] - before[k],
                spent: earned[k] - paid[k],
            })
            .collect();

        let residual: Vec<(VcpuAddr, Micros)> = estimates
            .iter()
            .filter(|e| e.estimate > allocations[&e.addr])
            .map(|e| (e.addr, e.estimate - allocations[&e.addr]))
            .collect();
        distribute_leftovers(&mut market, &residual, &mut allocations);

        // Stage 6, every listed vCPU in address order.
        let mut addrs: Vec<VcpuAddr> = out
            .vms
            .iter()
            .flat_map(|v| (0..v.nr_vcpus).map(|j| VcpuAddr::new(v.vm, VcpuId::new(j))))
            .collect();
        addrs.sort_unstable();
        let mut failed: Vec<(VcpuAddr, Micros)> = Vec::new();
        let mut write_vanished: Vec<VmId> = Vec::new();
        let mut retries = 0;
        self.writes = [0; 3];
        for addr in addrs {
            if write_vanished.contains(&addr.vm) {
                continue;
            }
            let (alloc, is_retry) = match (allocations.get(&addr), self.pending.get(&addr)) {
                (Some(alloc), _) => (*alloc, false),
                (None, Some(pending)) => (*pending, true),
                (None, None) => continue,
            };
            retries += u32::from(is_retry);
            let max = allocation_to_cpu_max(alloc, period);
            if self.in_force.get(&addr) == Some(&max) {
                self.writes[1] += 1;
                self.prev_alloc.insert(addr, alloc);
                continue;
            }
            self.writes[0] += 1;
            match host.set_vcpu_max(addr.vm, addr.vcpu, max) {
                Ok(()) => {
                    self.writes[2] += alloc.as_u64();
                    self.in_force.insert(addr, max);
                    if !is_retry {
                        self.prev_alloc.insert(addr, alloc);
                    }
                }
                Err(e) if e.is_vanished() => write_vanished.push(addr.vm),
                Err(_) => {
                    failed.push((addr, alloc));
                    self.prev_alloc.remove(&addr);
                    self.in_force.remove(&addr);
                }
            }
        }
        self.pending = failed.iter().copied().collect();
        for vm in &write_vanished {
            self.forget_vm_caps(*vm);
            self.monitor.forget_vm(*vm);
            self.estimator.forget_vm(*vm);
        }
        let keep: Vec<VmId> = ids
            .iter()
            .copied()
            .filter(|v| !write_vanished.contains(v))
            .collect();
        self.wallet.retain_vms(&keep);

        let mut vanished_vms = out.vanished;
        vanished_vms.extend(&write_vanished);
        let write_errors = (failed.len() + write_vanished.len()) as u32;
        self.health = HealthReport {
            read_errors: out.read_errors,
            write_errors,
            write_retries: retries,
            stale_reused: out.stale_reused.len() as u32,
            degraded: out.read_errors > 0
                || write_errors > 0
                || retries > 0
                || !out.skipped.is_empty()
                || !vanished_vms.is_empty(),
            skipped_vcpus: out.skipped,
            vanished_vms,
            // No deadline budget and no lease: the ladder never leaves
            // `Full` and the lease never runs down.
            ladder_next: LadderRung::Full,
            lease_remaining: self.cfg.cap_lease_ttl,
            lease_expired: false,
            ..HealthReport::default()
        };
    }
}

/// What the test scripts into a backend from outside the fault layer:
/// stable instance names that can be handed to a later VM, and one VM
/// whose cgroups are gone by the time stage 6 writes to them.
struct Scripted {
    inner: FaultInjectingBackend<SimHost>,
    names: FastMap<VmId, &'static str>,
    doomed: Option<VmId>,
}

impl HostBackend for Scripted {
    fn topology(&self) -> TopologyInfo {
        self.inner.topology()
    }
    fn vms(&self) -> Vec<VmCgroupInfo> {
        let mut vms = self.inner.vms();
        for vm in &mut vms {
            vm.name = self.names[&vm.vm].to_string();
        }
        vms
    }
    fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
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
    fn set_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId, max: CpuMax) -> Result<()> {
        if self.doomed == Some(vm) {
            return Err(CgroupError::NoSuchGroup(format!("{vm}.scope")));
        }
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

/// What a loop holds that the other sides must hold too: the wallet
/// entries, the period's credit flows, the health report and stage 6's
/// write counts (rendered), and every tracked vCPU's Eq. 3 history and
/// `c_{t-1}`.
type Held = (
    Vec<(VmId, u64)>,
    Vec<CreditFlow>,
    String,
    Vec<(VcpuAddr, Vec<u64>, Option<Micros>)>,
);

/// One side of the comparison: the controller, or the map-keyed oracle.
enum Loop {
    Dense(Box<Controller>, Box<IterationReport>),
    Seed(Box<SeedPipeline>),
}

impl Loop {
    fn iterate(&mut self, backend: &mut Scripted) {
        match self {
            Loop::Dense(ctl, report) => ctl.iterate_into(backend, report).unwrap(),
            Loop::Seed(oracle) => oracle.iterate(backend),
        }
    }

    fn set_vfreq(&mut self, vm: VmId, vfreq: MHz) {
        match self {
            Loop::Dense(ctl, _) => drop(ctl.set_vfreq(vm, vfreq)),
            Loop::Seed(oracle) => oracle.set_vfreq(vm, vfreq),
        }
    }

    /// See [`Held`]; `names` resolves the journal's VM names.
    fn state(&self, names: &[(VmId, &'static str)]) -> Held {
        let health = |h: &HealthReport, [issued, elided, volume]: [u64; 3]| {
            format!(
                "{} {} {} {} {:?} {:?} {} {:?} {:?} {:?} {} {} writes {issued} {elided} {volume}",
                h.read_errors,
                h.write_errors,
                h.write_retries,
                h.stale_reused,
                h.skipped_vcpus,
                h.vanished_vms,
                h.degraded,
                h.ladder_rung,
                h.ladder_next,
                h.lease_state,
                h.lease_remaining,
                h.lease_expired,
            )
        };
        match self {
            Loop::Dense(ctl, report) => {
                let mut tracked = Vec::new();
                for vm in ctl.export_state().vms {
                    let (id, _) = names
                        .iter()
                        .find(|(_, name)| *name == vm.name)
                        .expect("a journalled VM is a provisioned one");
                    for v in vm.vcpus {
                        let addr = VcpuAddr::new(*id, VcpuId::new(v.vcpu));
                        tracked.push((addr, v.history, v.prev_alloc));
                    }
                }
                tracked.sort();
                (
                    report.credits.clone(),
                    report.flows.clone(),
                    health(
                        &report.health,
                        [
                            report.cap_writes.into(),
                            report.cap_writes_elided.into(),
                            report.cap_write_volume.as_u64(),
                        ],
                    ),
                    tracked,
                )
            }
            Loop::Seed(oracle) => {
                let tracked = oracle
                    .estimator
                    .export_histories()
                    .into_iter()
                    .map(|(addr, h)| (addr, h, oracle.prev_alloc.get(&addr).copied()))
                    .collect();
                (
                    oracle.wallet.snapshot(),
                    oracle.flows.clone(),
                    health(&oracle.health, oracle.writes),
                    tracked,
                )
            }
        }
    }
}

/// A host, its fault layer, and the loop under test driving it.
struct World {
    backend: Scripted,
    side: Loop,
}

const NAMES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
const PERIODS: usize = 48;
/// Cases per run in CI. The by-hand soak (docs/PERFORMANCE.md) sets
/// `VFC_PROPTEST_CASES`, which overrides it, and `VFC_PROPTEST_SEED`,
/// which the proptest runner mixes into every case's seed.
const CASES: u32 = 32;

impl World {
    fn new(seed: u64, dense: bool) -> World {
        let host = quiet_host(4, 2, seed);
        let mut plan = FaultPlan::none()
            .with_kinds(&[
                FaultKind::Io(std::io::ErrorKind::Interrupted),
                FaultKind::Torn,
                FaultKind::Stale,
                FaultKind::Zero,
            ])
            .with_vanish_rate(0.01)
            .with_rate(FaultOp::SetVcpuMax, 0.03);
        for op in FaultOp::READS {
            plan = plan.with_rate(op, 0.01);
        }
        let backend = Scripted {
            inner: FaultInjectingBackend::new(host, plan, seed),
            names: FastMap::default(),
            doomed: None,
        };
        let cfg = full_config();
        let topo = backend.topology();
        let side = if dense {
            Loop::Dense(Box::new(Controller::new(cfg, topo)), Box::default())
        } else {
            Loop::Seed(Box::new(SeedPipeline::new(cfg, topo)))
        };
        World { backend, side }
    }

    fn host(&mut self) -> &mut SimHost {
        self.backend.inner.inner_mut()
    }

    /// The VMs still provisioned on the host, oldest first.
    fn alive(&self) -> Vec<VmId> {
        let host = self.backend.inner.inner();
        let mut vms: Vec<VmId> = self.backend.names.keys().copied().collect();
        vms.retain(|vm| host.is_alive(*vm));
        vms.sort_unstable();
        vms
    }

    /// A VM arrives, under a name no listed VM holds — which a departed
    /// one may have.
    fn arrive(&mut self, rng: &mut SplitMix64) {
        let (alive, names) = (self.alive(), &self.backend.names);
        let free: Vec<&'static str> = NAMES
            .into_iter()
            .filter(|n| !alive.iter().any(|vm| names[vm] == *n))
            .collect();
        let name = free[rng.next_below(free.len() as u64) as usize];
        let vcpus = 1 + rng.next_below(2) as u32;
        let vfreq = MHz([500, 800, 1200, 1800][rng.next_below(4) as usize]);
        let vm = self.host().provision(&VmTemplate::new(name, vcpus, vfreq));
        let demand = rng.next_below(11) as f64 / 10.0;
        self.host()
            .attach_workload(vm, Box::new(SteadyDemand::new(demand)));
        self.backend.names.insert(vm, name);
    }

    /// One scripted event between two periods, drawn from `rng` — the
    /// same draws on every side, since the sides hold the same VMs.
    fn churn(&mut self, rng: &mut SplitMix64) {
        let alive = self.alive();
        let pick = |rng: &mut SplitMix64| alive[rng.next_below(alive.len() as u64) as usize];
        match rng.next_below(16) {
            0..=1 if alive.len() < 5 => self.arrive(rng),
            2 if alive.len() > 1 => drop(self.host().deprovision(pick(rng))),
            3 => {
                let vm = pick(rng);
                let vfreq = MHz([400, 900, 1500][rng.next_below(3) as usize]);
                self.host().set_vfreq(vm, vfreq);
                self.side.set_vfreq(vm, vfreq);
            }
            4..=6 => {
                let demand = rng.next_below(11) as f64 / 10.0;
                let vm = pick(rng);
                self.host()
                    .attach_workload(vm, Box::new(SteadyDemand::new(demand)));
            }
            // A burst of failing reads on one vCPU: stale reuse, then skip
            // — and, every other time, its writes bounce meanwhile, so the
            // skipped vCPU has a write to retry.
            op @ 7..=8 => {
                let at = (Some(pick(rng)), Some(VcpuId::new(0)));
                let times = 1 + rng.next_below(5) as u32;
                let busy = FaultKind::Io(std::io::ErrorKind::ResourceBusy);
                let faults = &self.backend.inner;
                faults.script_fault(FaultOp::VcpuUsage, at.0, at.1, busy, times);
                if op == 8 {
                    faults.script_fault(FaultOp::SetVcpuMax, at.0, at.1, busy, 2);
                }
            }
            // A VM shut down between this period's reads and its writes.
            9 if alive.len() > 1 => self.backend.doomed = Some(pick(rng)),
            // Every read of one VM fails for a few periods: all its vCPUs
            // go stale, then skipped, while the other VMs are untouched.
            10 => {
                let busy = FaultKind::Io(std::io::ErrorKind::ResourceBusy);
                let times = 2 + rng.next_below(7) as u32;
                let faults = &self.backend.inner;
                faults.script_fault(FaultOp::VcpuUsage, Some(pick(rng)), None, busy, times);
            }
            _ => {}
        }
    }

    fn period(&mut self) {
        self.host().advance_period();
        self.side.iterate(&mut self.backend);
        if let Some(vm) = self.backend.doomed.take() {
            drop(self.host().deprovision(vm));
        }
    }

    /// What the loop holds (see [`Loop::state`]), its journal's names
    /// resolved to the latest VM provisioned under each.
    fn state(&self) -> Held {
        let mut names: Vec<_> = self.backend.names.iter().map(|(vm, n)| (*vm, *n)).collect();
        names.sort_unstable_by(|a, b| b.cmp(a));
        self.side.state(&names)
    }

    /// Every live VM's `cpu.max` as the host holds it.
    fn caps(&self) -> Vec<(VcpuAddr, CpuMax)> {
        let host = self.backend.inner.inner();
        let mut caps = Vec::new();
        for vm in self.alive() {
            for j in 0..host.instance(vm).nr_vcpus() {
                let vcpu = VcpuId::new(j);
                caps.push((VcpuAddr::new(vm, vcpu), host.vcpu_max(vm, vcpu).unwrap()));
            }
        }
        caps
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The dense pipeline and the seed pipeline leave
    /// byte-identical `cpu.max` state, wallet entries, health reports, Eq. 3 histories and
    /// `c_{t-1}` after every one of 48 periods, while VMs arrive, leave,
    /// are resized and hand their names on, and every side sits behind
    /// the same seeded fault layer (failing and lying reads, failed and
    /// vanished writes, stale listings).
    #[test]
    fn golden_equivalence_with_seed_pipeline(seed in 0u64..u64::MAX) {
        let mut worlds = [World::new(seed, false), World::new(seed, true)];
        let mut rngs = [seed; 2].map(SplitMix64::new);
        for (world, rng) in worlds.iter_mut().zip(&mut rngs) {
            for _ in 0..3 {
                world.arrive(rng);
            }
        }

        for period in 0..PERIODS {
            for (world, rng) in worlds.iter_mut().zip(&mut rngs) {
                world.churn(rng);
                world.period();
            }
            let [oracle, dense] = &worlds;
            let want = (oracle.caps(), oracle.state());
            let got = (dense.caps(), dense.state());
            prop_assert!(
                got == want,
                "period {}: the dense loop\n{:#?}\nleft the seed pipeline\n{:#?}",
                period, got, want
            );
        }
    }
}
