//! §IV.C placement throughput: Best/First-Fit of the paper's 400-VM
//! workload over the 22-node cluster under both constraint modes, plus a
//! parallel multi-order sweep (`std::thread::scope`) as used by the
//! harness to report several arrival orders at once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vfc_placement::algo::{PlacementAlgorithm, Placer};
use vfc_placement::cluster::{paper_workload, ArrivalOrder, Cluster};
use vfc_placement::constraint::ConstraintMode;

fn bench_placement(c: &mut Criterion) {
    let cluster = Cluster::paper_cluster();
    let workload = paper_workload(ArrivalOrder::RoundRobin);

    let mut group = c.benchmark_group("place_400_vms");
    for (label, algo, mode) in [
        (
            "bestfit_frequency",
            PlacementAlgorithm::BestFit,
            ConstraintMode::Frequency,
        ),
        (
            "bestfit_core_count",
            PlacementAlgorithm::BestFit,
            ConstraintMode::core_count(),
        ),
        (
            "firstfit_frequency",
            PlacementAlgorithm::FirstFit,
            ConstraintMode::Frequency,
        ),
        (
            "worstfit_frequency",
            PlacementAlgorithm::WorstFit,
            ConstraintMode::Frequency,
        ),
    ] {
        group.bench_function(label, |b| {
            let placer = Placer::new(algo, mode);
            b.iter(|| black_box(placer.place(&cluster.nodes, &workload)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("placement_study");
    group.sample_size(20);
    group.bench_function("three_orders_sequential", |b| {
        b.iter(|| {
            for order in [
                ArrivalOrder::Grouped,
                ArrivalOrder::RoundRobin,
                ArrivalOrder::Shuffled(42),
            ] {
                black_box(vfc_scenarios::placement_eval::study(order));
            }
        });
    });
    group.bench_function("three_orders_parallel", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = [
                    ArrivalOrder::Grouped,
                    ArrivalOrder::RoundRobin,
                    ArrivalOrder::Shuffled(42),
                ]
                .into_iter()
                .map(|order| s.spawn(move || vfc_scenarios::placement_eval::study(order)))
                .collect();
                for h in handles {
                    black_box(h.join().expect("study thread"));
                }
            });
        });
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // How placement cost scales with cluster size (nodes replicated).
    let mut group = c.benchmark_group("placement_scaling");
    let workload = paper_workload(ArrivalOrder::RoundRobin);
    for factor in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("cluster_x", factor),
            &factor,
            |b, &factor| {
                let mut nodes = Vec::new();
                for _ in 0..factor {
                    nodes.extend(Cluster::paper_cluster().nodes);
                }
                let placer = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::Frequency);
                b.iter(|| black_box(placer.place(&nodes, &workload)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_placement, bench_scaling);
criterion_main!(benches);
