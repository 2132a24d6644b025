//! Hot-path guarantees of [`Controller::iterate_into`]:
//!
//! * a warm steady-state iteration performs **zero heap allocations**
//!   (counting `#[global_allocator]`, per-thread so parallel tests do
//!   not pollute the measurement);
//! * an unchanged-demand period issues **zero `cpu.max` writes** — every
//!   candidate is elided against the in-force value, and the elisions
//!   are visible on the Prometheus exposition;
//! * with hysteresis off, the dense-slot pipeline is **golden-equivalent**
//!   to the original HashMap-keyed stage pipeline: byte-identical
//!   effective `cpu.max` state and wallet balances across randomized
//!   64-period demand schedules.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use proptest::prelude::*;
use vfc_cgroupfs::backend::HostBackend;
use vfc_controller::apply::apply_allocations;
use vfc_controller::auction::{run_auction, Buyer};
use vfc_controller::controller::{Controller, IterationReport};
use vfc_controller::credits::{base_allocations, Wallet};
use vfc_controller::distribute::distribute_leftovers;
use vfc_controller::estimate::{EstimateCase, Estimator};
use vfc_controller::monitor::Monitor;
use vfc_controller::{guaranteed_cycles, ControlMode, ControllerConfig};
use vfc_cpusched::dvfs::{Governor, GovernorKind};
use vfc_cpusched::engine::Engine;
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{FastMap, MHz, Micros, VcpuAddr, VcpuId, VmId};
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

// ---- counting allocator ------------------------------------------------
//
// Counts allocation *events* (alloc, alloc_zeroed, realloc) per thread.
// The Rust test harness runs each test on its own thread, so a test
// reading its thread-local counter sees only its own traffic.

struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during TLS teardown never panic.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

fn thread_alloc_events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---- fixtures ----------------------------------------------------------

/// Deterministic host: performance governor, zero frequency noise.
fn quiet_host(cores: u32, threads_per_core: u32, seed: u64) -> SimHost {
    let spec = NodeSpec::custom("hot", 1, cores, threads_per_core, MHz(2400));
    let gov =
        Governor::new(GovernorKind::Performance, spec.min_mhz, spec.max_mhz, 1).with_noise_std(0.0);
    let engine = Engine::with_parts(spec.clone(), Micros(100_000), gov, seed);
    SimHost::new(spec, seed).with_engine(engine)
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
    // A small ring reaches eviction (entry recycling) within the warmup
    // instead of after 128 pushes.
    ctl.telemetry_mut().set_trace_capacity(4);

    let mut report = IterationReport::default();
    for _ in 0..16 {
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report).unwrap();
    }
    assert!(!report.health.degraded, "{:?}", report.health);

    // Measure a few full periods: registry, histories, scratch vectors,
    // telemetry series and the trace ring are all warm now.
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

/// The zero-allocation guarantee survives sharding: with `Fixed(4)`
/// the sequential runner walks four warm shards per period — merge
/// buffers, per-shard telemetry series and the repartition plan are
/// all steady after warmup, so the allocator stays untouched. (The
/// parallel runner is exempt: spawning scoped workers allocates by
/// design; its *per-shard stage work* is the same allocation-free code
/// measured here.)
#[test]
fn warm_sharded_iteration_allocates_nothing() {
    let mut host = quiet_host(8, 2, 23);
    for (i, name) in ["web", "db", "batch", "cache", "proxy"].iter().enumerate() {
        let vm = host.provision(&VmTemplate::new(name, 1 + (i as u32 % 3), MHz(800)));
        host.attach_workload(vm, Box::new(SteadyDemand::new(0.7)));
    }

    let mut cfg = full_config();
    cfg.shard_count = vfc_controller::ShardCount::Fixed(4);
    let mut ctl = Controller::new(cfg, host.topology_info());
    ctl.telemetry_mut().set_trace_capacity(4);

    let mut report = IterationReport::default();
    for _ in 0..16 {
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report).unwrap();
    }
    assert!(!report.health.degraded, "{:?}", report.health);

    for _ in 0..3 {
        host.advance_period();
        let before = thread_alloc_events();
        ctl.iterate_into(&mut host, &mut report).unwrap();
        let after = thread_alloc_events();
        assert_eq!(
            after - before,
            0,
            "steady-state sharded iterate_into must not touch the allocator"
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
/// Today's figure: 129 events per listing for 40 VMs — `read_dir`'s
/// handle and root path (2), each directory entry's name twice (`std`'s
/// own copy and the `OsString` handed out: 80), the growing `Vec` of
/// scope names (5), the rebuilt scope cache (1), and the returned
/// `Vec<VmCgroupInfo>` (1) with its 40 VM names. The count is asserted
/// as vCPU-independent, not as 129: `std`'s `read_dir` is free to
/// change its share.
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
        ctl.telemetry_mut().set_trace_capacity(4);
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

/// The original controller pipeline, reconstructed verbatim from the
/// HashMap-keyed public stage APIs it was built of: observe → estimate
/// (+ QoS floors) → earn → base capping (+ over-subscription scale) →
/// auction → free distribution → apply. No elision, no dense slots —
/// every allocation is written every period.
struct SeedPipeline {
    cfg: ControllerConfig,
    monitor: Monitor,
    estimator: Estimator,
    wallet: Wallet,
    prev_alloc: FastMap<VcpuAddr, Micros>,
    c_max: Micros,
    max_mhz: MHz,
}

impl SeedPipeline {
    fn new(cfg: ControllerConfig, host: &SimHost) -> Self {
        let topo = host.topology_info();
        SeedPipeline {
            monitor: Monitor::new(),
            estimator: Estimator::new(&cfg),
            wallet: Wallet::new(),
            prev_alloc: FastMap::default(),
            c_max: topo.c_max(cfg.period),
            max_mhz: topo.max_mhz,
            cfg,
        }
    }

    fn iterate(&mut self, host: &mut SimHost) {
        let out = self
            .monitor
            .observe(host, self.cfg.period, self.cfg.stale_sample_ttl);
        let guarantee: HashMap<VmId, Micros> = out
            .vms
            .iter()
            .map(|vm| {
                let c_i =
                    guaranteed_cycles(vm.vfreq.unwrap_or(MHz::ZERO), self.max_mhz, self.cfg.period);
                (vm.vm, c_i)
            })
            .collect();

        let mut estimates = self
            .estimator
            .estimate(&self.cfg, &out.observations, &self.prev_alloc);
        for e in &mut estimates {
            if !self.prev_alloc.contains_key(&e.addr) || e.case == EstimateCase::Increase {
                e.estimate = e.estimate.max(guarantee[&e.addr.vm]);
            }
        }

        self.wallet.earn(&out.observations, &guarantee);

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
            .map(|e| Buyer {
                addr: e.addr,
                want: e.estimate - allocations[&e.addr],
            })
            .collect();
        run_auction(
            &mut market,
            &mut buyers,
            &mut self.wallet,
            self.cfg.window,
            &mut allocations,
        );

        let residual: Vec<(VcpuAddr, Micros)> = estimates
            .iter()
            .filter(|e| e.estimate > allocations[&e.addr])
            .map(|e| (e.addr, e.estimate - allocations[&e.addr]))
            .collect();
        distribute_leftovers(&mut market, &residual, &mut allocations);

        let outcome = apply_allocations(host, &self.cfg, &allocations);
        assert_eq!(outcome.errors(), 0, "clean host: every write succeeds");
        for (addr, alloc) in &allocations {
            self.prev_alloc.insert(*addr, *alloc);
        }
    }
}

const VMS: usize = 3;
const SEGMENTS: usize = 4;
const PERIODS_PER_SEGMENT: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hysteresis off ⇒ the dense pipeline and the seed pipeline leave
    /// byte-identical `cpu.max` state (and wallets) after every one of
    /// 64 periods of a randomized demand schedule.
    #[test]
    fn golden_equivalence_with_seed_pipeline(
        seed in 0u64..u64::MAX,
        levels in proptest::collection::vec(
            proptest::collection::vec(0u32..=10u32, SEGMENTS),
            VMS,
        ),
    ) {
        let specs: [(&str, u32, MHz); VMS] =
            [("alpha", 2, MHz(600)), ("beta", 2, MHz(800)), ("gamma", 1, MHz(1200))];

        let mut host_a = quiet_host(4, 2, seed); // dense pipeline
        let mut host_b = quiet_host(4, 2, seed); // seed oracle
        let mut vms = Vec::new();
        for (name, vcpus, vfreq) in specs {
            let a = host_a.provision(&VmTemplate::new(name, vcpus, vfreq));
            let b = host_b.provision(&VmTemplate::new(name, vcpus, vfreq));
            prop_assert_eq!(a, b, "identical hosts assign identical ids");
            vms.push((a, vcpus));
        }

        let cfg = full_config();
        prop_assert_eq!(cfg.apply_min_delta_us, 0, "hysteresis off by default");
        let mut ctl = Controller::new(cfg.clone(), host_a.topology_info());
        let mut oracle = SeedPipeline::new(cfg, &host_b);
        let mut report = IterationReport::default();

        for period in 0..SEGMENTS * PERIODS_PER_SEGMENT {
            if period % PERIODS_PER_SEGMENT == 0 {
                let seg = period / PERIODS_PER_SEGMENT;
                for (v, &(vm, _)) in vms.iter().enumerate() {
                    let demand = f64::from(levels[v][seg]) / 10.0;
                    host_a.attach_workload(vm, Box::new(SteadyDemand::new(demand)));
                    host_b.attach_workload(vm, Box::new(SteadyDemand::new(demand)));
                }
            }
            host_a.advance_period();
            host_b.advance_period();
            ctl.iterate_into(&mut host_a, &mut report).unwrap();
            oracle.iterate(&mut host_b);

            for &(vm, vcpus) in &vms {
                for j in 0..vcpus {
                    let a = host_a.vcpu_max(vm, VcpuId::new(j)).unwrap();
                    let b = host_b.vcpu_max(vm, VcpuId::new(j)).unwrap();
                    prop_assert_eq!(
                        a, b,
                        "period {}: cpu.max diverged on vm {:?} vcpu {}", period, vm, j
                    );
                }
                prop_assert_eq!(ctl.credit_of(vm), oracle.wallet.balance(vm));
            }
        }
    }
}
