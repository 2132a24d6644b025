//! Cluster-manager throughput: cost of one cluster period at several
//! cluster sizes and strategies, plus the end-to-end strategy comparison
//! at test scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vfc_cluster::{ClusterManager, Strategy};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::VmTemplate;

fn populated(nodes: usize, vms_per_node: usize, strategy: Strategy) -> ClusterManager {
    let mut manager = ClusterManager::new(vec![NodeSpec::chetemi(); nodes], strategy, 42);
    for _ in 0..nodes * vms_per_node {
        let _ = manager.deploy(
            &VmTemplate::new("std", 2, MHz(1000)),
            Box::new(SteadyDemand::full()),
        );
    }
    manager
}

fn bench_run_period(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_period");
    group.sample_size(10);
    for nodes in [4usize, 12, 22] {
        group.bench_with_input(
            BenchmarkId::new("freq_control_nodes", nodes),
            &nodes,
            |b, &nodes| {
                let mut manager = populated(nodes, 8, Strategy::FrequencyControl);
                // Warm up past the ramp.
                for _ in 0..3 {
                    manager.run_period();
                }
                b.iter(|| {
                    manager.run_period();
                    black_box(())
                });
            },
        );
    }
    group.bench_function("migration_nodes_12", |b| {
        let mut manager = populated(12, 8, Strategy::migration_default());
        for _ in 0..3 {
            manager.run_period();
        }
        b.iter(|| {
            manager.run_period();
            black_box(())
        });
    });
    group.finish();
}

fn bench_strategy_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_comparison");
    group.sample_size(10);
    group.bench_function("quick_three_way", |b| {
        b.iter(|| {
            black_box(vfc_scenarios::cluster_eval::compare(
                vfc_scenarios::cluster_eval::ClusterScenario::quick(),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_run_period, bench_strategy_comparison);
criterion_main!(benches);
