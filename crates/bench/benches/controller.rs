//! Controller loop cost (§IV.A.2: the paper reports ≈5 ms per 1 s
//! iteration on 80 hosted vCPUs, ≈4 ms of it monitoring).
//!
//! `iteration/*` measures one full six-stage iteration against the
//! in-memory host at several vCPU counts; `stages/*` isolates the
//! estimation and auction machinery on synthetic inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vfc_bench::{dense_host, loaded_host, warm_up};
use vfc_controller::auction::{run_auction_with, Buyer};
use vfc_controller::controller::IterationReport;
use vfc_controller::estimate::trend;
use vfc_controller::ControlMode;
use vfc_simcore::{Micros, VcpuAddr, VcpuId, VmId};

fn bench_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("iteration");
    for vcpus in [20u32, 80, 160] {
        group.bench_with_input(BenchmarkId::new("full_loop", vcpus), &vcpus, |b, &vcpus| {
            let (mut host, mut ctl) = loaded_host(vcpus, ControlMode::Full);
            warm_up(&mut host, &mut ctl, 5);
            // The daemon's steady-state entry point: one reused report,
            // zero allocations per iteration. Advancing the simulated
            // host is per-sample setup, not controller work: keep it
            // outside the timed window.
            let mut report = IterationReport::default();
            b.iter_custom(|| {
                host.advance_period();
                let t = Instant::now();
                ctl.iterate_into(&mut host, &mut report)
                    .expect("sim backend");
                black_box(&report);
                t.elapsed()
            });
        });
    }
    // Scenario A for comparison: monitoring cost only.
    group.bench_function("monitor_only_80", |b| {
        let (mut host, mut ctl) = loaded_host(80, ControlMode::MonitorOnly);
        warm_up(&mut host, &mut ctl, 5);
        let mut report = IterationReport::default();
        b.iter_custom(|| {
            host.advance_period();
            let t = Instant::now();
            ctl.iterate_into(&mut host, &mut report)
                .expect("sim backend");
            black_box(&report);
            t.elapsed()
        });
    });
    group.finish();
}

/// Dense-host scaling: the loop at 500/1000/2000 vCPUs.
fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("iteration");
    for vcpus in [500u32, 1000, 2000] {
        group.bench_with_input(BenchmarkId::new("full_loop", vcpus), &vcpus, |b, &vcpus| {
            let (mut host, mut ctl) = dense_host(vcpus, ControlMode::Full);
            warm_up(&mut host, &mut ctl, 5);
            let mut report = IterationReport::default();
            b.iter_custom(|| {
                host.advance_period();
                let t = Instant::now();
                ctl.iterate_into(&mut host, &mut report)
                    .expect("sim backend");
                black_box(&report);
                t.elapsed()
            });
        });
    }
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("stages");

    group.bench_function("trend_n5", |b| {
        let history = [100_000u64, 120_000, 140_000, 160_000, 180_000];
        b.iter(|| black_box(trend(black_box(&history))));
    });

    group.bench_function("auction_80_buyers", |b| {
        // 40 VMs × 2 vCPUs bidding for a 4 M µs market, addressed the
        // way the controller's stage 4 addresses them: wallets in a dense
        // per-VM table, grants added into a per-slot buffer.
        let mut slot_alloc = vec![Micros::ZERO; 80];
        let mut buyers: Vec<Buyer> = Vec::with_capacity(80);
        b.iter(|| {
            // Eq. 4: every vCPU used 100 000 of its 208 333 µs guarantee.
            let mut credits: Vec<Option<u64>> = vec![Some(2 * 108_333); 40];
            let mut market = Micros(4_000_000);
            buyers.clear();
            for slot in 0..80u32 {
                let vm = slot / 2;
                let addr = VcpuAddr::new(VmId::new(vm), VcpuId::new(slot % 2));
                let mut buyer = Buyer::new(addr, Micros(500_000));
                (buyer.slot, buyer.vm_idx) = (slot, vm);
                buyers.push(buyer);
            }
            slot_alloc.fill(Micros::ZERO);
            black_box(run_auction_with(
                &mut market,
                &mut buyers,
                credits.as_mut_slice(),
                Micros(100_000),
                |buyer, paid| slot_alloc[buyer.slot as usize] += paid,
            ))
        });
    });

    group.finish();
}

/// Event-core replay throughput: the full trace → events → report path
/// the `trace` experiment gates at datacenter scale, shrunk to a bench
/// sample. `replay_60vms_8nodes` is a busy fleet (every node runs its
/// controller every period); `quiet_fleet_40nodes` pins the core claim
/// that idle hosts schedule nothing — 4 busy + 36 idle nodes must cost
/// about the same as 4 busy nodes alone.
fn bench_event_core(c: &mut Criterion) {
    use vfc_cluster::{ClusterManager, EventDrivenCluster, Strategy, SyntheticTrace, TraceVmSpec};
    use vfc_cpusched::topology::NodeSpec;
    use vfc_placement::algo::PlacementAlgorithm;
    use vfc_simcore::MHz;
    use vfc_vmm::VmTemplate;

    let mut group = c.benchmark_group("events");

    let trace = SyntheticTrace::new(60, 60, 7).generate();
    {
        let mgr = ClusterManager::new(
            vec![NodeSpec::custom("bench", 1, 4, 2, MHz(2400)); 8],
            Strategy::FrequencyControl,
            7,
        );
        let mut cluster = EventDrivenCluster::new(mgr).with_algorithm(PlacementAlgorithm::BestFit);
        cluster.load_trace(trace.clone());
        cluster.run_until(60);
        eprintln!(
            "events/replay_60vms_8nodes: {} events per sample",
            cluster.stats().events_processed
        );
    }
    group.bench_function("replay_60vms_8nodes", |b| {
        b.iter_custom(|| {
            let mgr = ClusterManager::new(
                vec![NodeSpec::custom("bench", 1, 4, 2, MHz(2400)); 8],
                Strategy::FrequencyControl,
                7,
            );
            let mut cluster =
                EventDrivenCluster::new(mgr).with_algorithm(PlacementAlgorithm::BestFit);
            cluster.load_trace(trace.clone());
            let t = Instant::now();
            cluster.run_until(60);
            let d = t.elapsed();
            black_box(cluster.stats().events_processed);
            d
        });
    });

    // Datacenter scale: the 1200-node fleet of the `trace` experiment,
    // shrunk to a per-sample trace so the indexed-placement + event-core
    // fast path is timed at full fleet width.
    let dc_trace = SyntheticTrace::new(800, 25, 11).generate();
    let dc_nodes = vec![NodeSpec::custom("dc", 1, 4, 2, MHz(2400)); 1200];
    // Events per replay is a pure function of the fixed trace + seed
    // (stable across machines); BENCH_controller.json pins it as
    // events_per_sample so the gate can print events/s from p50.
    {
        let mgr = ClusterManager::new(dc_nodes.clone(), Strategy::FrequencyControl, 7);
        let mut cluster = EventDrivenCluster::new(mgr).with_algorithm(PlacementAlgorithm::FirstFit);
        cluster.load_trace(dc_trace.clone());
        cluster.run_until(25);
        eprintln!(
            "events/replay_1200nodes: {} events per sample",
            cluster.stats().events_processed
        );
    }
    group.bench_function("replay_1200nodes", |b| {
        b.iter_custom(|| {
            let mgr = ClusterManager::new(dc_nodes.clone(), Strategy::FrequencyControl, 7);
            let mut cluster =
                EventDrivenCluster::new(mgr).with_algorithm(PlacementAlgorithm::FirstFit);
            cluster.load_trace(dc_trace.clone());
            let t = Instant::now();
            cluster.run_until(25);
            let d = t.elapsed();
            black_box(cluster.stats().events_processed);
            d
        });
    });

    let quiet: Vec<TraceVmSpec> = (0..8)
        .map(|i| TraceVmSpec {
            trace_id: format!("q-{i}"),
            arrival: 0,
            departure: None,
            template: VmTemplate::new("std", 2, MHz(2400)),
        })
        .collect();
    group.bench_function("quiet_fleet_40nodes", |b| {
        b.iter_custom(|| {
            let mgr = ClusterManager::new(
                vec![NodeSpec::custom("quiet", 1, 2, 2, MHz(2400)); 40],
                Strategy::FrequencyControl,
                7,
            );
            let mut cluster =
                EventDrivenCluster::new(mgr).with_algorithm(PlacementAlgorithm::FirstFit);
            cluster.load_trace(quiet.clone());
            let t = Instant::now();
            cluster.run_until(60);
            let d = t.elapsed();
            black_box(cluster.stats().events_processed);
            d
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_iteration,
    bench_dense,
    bench_stages,
    bench_event_core
);
criterion_main!(benches);
