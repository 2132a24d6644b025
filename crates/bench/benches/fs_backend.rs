//! The controller over the **filesystem backend** (the end-to-end
//! `node_fs` tree: 40 VMs × 2 vCPUs), and the backend's three file-layer
//! operations on their own. `tools/bench_gate.sh` holds the
//! `fs_backend/*` rows against `BENCH_controller.json`.
//!
//! The shim exports whole microseconds, so the read and write rows time
//! a pass over all 80 vCPUs, not one call.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vfc_bench::fs_node;
use vfc_cgroupfs::model::CpuMax;
use vfc_cgroupfs::HostBackend;
use vfc_controller::controller::IterationReport;
use vfc_simcore::{Micros, VcpuId, VmId};

fn bench_fs_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs_backend");

    // One six-stage iteration; the guests' file writes are per-sample
    // set-up, outside the timed window.
    group.bench_function("iterate/80vcpus", |b| {
        let mut node = fs_node();
        node.warm_up(5);
        let mut report = IterationReport::default();
        b.iter_custom(|| {
            node.consume();
            let t = Instant::now();
            node.controller
                .iterate_into(&mut node.backend, &mut report)
                .expect("fs backend");
            black_box(&report);
            t.elapsed()
        });
    });

    let mut node = fs_node();
    node.warm_up(5);
    let addrs: Vec<(VmId, VcpuId)> = node
        .backend
        .vms()
        .iter()
        .flat_map(|vm| (0..vm.nr_vcpus).map(move |j| (vm.vm, VcpuId::new(j))))
        .collect();

    // 80 fused monitoring reads: one stage-1 pass.
    group.bench_function("read_vcpu", |b| {
        b.iter(|| {
            node.backend.begin_read_pass();
            for &(vm, vcpu) in &addrs {
                black_box(node.backend.read_vcpu_raw(vm, vcpu).expect("live vCPU"));
            }
        });
    });

    // 80 cap writes, alternating two quotas so every call changes the
    // file (and, every other round, shortens it).
    let mut round = 0u64;
    group.bench_function("write_cap", |b| {
        b.iter(|| {
            round += 1;
            let cap = CpuMax::limited(Micros(if round.is_multiple_of(2) {
                20_000
            } else {
                9_000
            }));
            for &(vm, vcpu) in &addrs {
                node.backend.set_vcpu_max(vm, vcpu, cap).expect("live vCPU");
            }
        });
    });

    // One inventory listing of the unchanged tree.
    group.bench_function("list_40vms", |b| {
        b.iter(|| black_box(node.backend.vms()));
    });

    group.finish();
}

criterion_group!(benches, bench_fs_backend);
criterion_main!(benches);
