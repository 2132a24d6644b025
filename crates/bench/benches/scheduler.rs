//! Host engine cost: one 100 ms scheduling tick at several population
//! sizes, one simulated host period (ten ticks plus the guest workload
//! models), and the water-filling fair share in isolation.
//! `tools/bench_gate.sh` holds the `engine_tick/*` and `host_period/*`
//! rows against `BENCH_controller.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vfc_bench::mixed_host;
use vfc_cgroupfs::backend::HostBackend;
use vfc_cgroupfs::model::CpuMax;
use vfc_cgroupfs::tree::{CgroupTree, ROOT};
use vfc_cpusched::engine::Engine;
use vfc_cpusched::fair::{water_fill, Entity};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{FastMap, Micros, Tid, VcpuId};

/// Tree of `vms` two-level scopes with `vcpus` single-thread leaves each.
fn build(vms: u32, vcpus: u32) -> (CgroupTree, FastMap<Tid, Micros>) {
    let mut tree = CgroupTree::new();
    let mut demands = FastMap::default();
    let mut tid = 100u32;
    for v in 0..vms {
        let scope = tree.mkdir(ROOT, &format!("vm{v}")).expect("fresh name");
        for j in 0..vcpus {
            let leaf = tree.mkdir(scope, &format!("vcpu{j}")).expect("fresh name");
            tree.attach_thread(leaf, Tid::new(tid));
            demands.insert(Tid::new(tid), Micros(100_000));
            tid += 1;
        }
    }
    (tree, demands)
}

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_tick");
    for (vms, vcpus) in [(10u32, 2u32), (30, 2), (30, 4), (60, 4)] {
        let threads = vms * vcpus;
        group.bench_with_input(
            BenchmarkId::new("saturated", format!("{threads}threads")),
            &(vms, vcpus),
            |b, &(vms, vcpus)| {
                let spec = NodeSpec::chetemi();
                let mut engine = Engine::new(spec, 42);
                let (mut tree, demands) = build(vms, vcpus);
                b.iter(|| black_box(engine.tick(&mut tree, &demands)));
            },
        );
    }
    group.finish();
}

/// `SimHost::advance_period` on the node the end-to-end `node_sim`
/// workload runs ([`mixed_host`]), every vCPU under a `cpu.max` as a
/// controller would leave it.
fn bench_host_period(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_period");
    group.bench_function("160vcpus", |b| {
        let mut host = mixed_host();
        for vm in HostBackend::vms(&host) {
            for j in 0..vm.nr_vcpus {
                host.set_vcpu_max(vm.vm, VcpuId::new(j), CpuMax::limited(Micros(30_000)))
                    .expect("live vCPU");
            }
        }
        b.iter(|| host.advance_period());
    });
    group.finish();
}

fn bench_water_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("water_fill");
    for n in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("entities", n), &n, |b, &n| {
            let entities: Vec<Entity> = (0..n)
                .map(|i| Entity::new(100, 10_000 + (i as u64 * 7919) % 90_000))
                .collect();
            b.iter(|| black_box(water_fill(black_box(1_000_000), &entities)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tick, bench_host_period, bench_water_fill);
criterion_main!(benches);
