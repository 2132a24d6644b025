//! Where a trace replay's heap goes, counted by `vfc_simcore::alloc_count`
//! (live bytes on this thread, which is the only one the probe runs):
//!
//! * the bytes a departed VM leaves behind, on a bare `SimHost` and on a
//!   `SimHost` driven by the paper's controller — VMs churn through three
//!   live slots, one period each, and the heap's growth over the churn is
//!   divided by the VMs that came and went;
//! * the live heap of one replay per regime (Eq. 7 admission with a
//!   controller on every busy node; core-count packing without one) at
//!   periods 50, 150 and 300, at the end-to-end benchmark's
//!   `trace_eq7` / `trace_pack` size: 5 500 VMs, 120 nodes of 4 cores × 2
//!   threads.
//!
//! Public API only; seed 7 throughout. Exits non-zero when either row of
//! bytes retained per departed VM exceeds [`MAX_RETAINED_PER_VM`].
//!
//! ```bash
//! cargo run --release -p vfc-bench --example mem_probe
//! ```
use std::collections::VecDeque;
use std::process::ExitCode;
use vfc_cluster::{ClusterManager, EventDrivenCluster, Strategy, SyntheticTrace};
use vfc_controller::controller::IterationReport;
use vfc_controller::{Controller, ControllerConfig};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::algo::PlacementAlgorithm;
use vfc_simcore::alloc_count::{thread_live_bytes, CountingAlloc};
use vfc_simcore::{MHz, Micros, SplitMix64};
use vfc_vmm::workload::{BurstyWeb, SteadyDemand, Workload};
use vfc_vmm::{SimHost, VmTemplate};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// VMs provisioned before the heap is sampled, so that every buffer that
/// grows with the number of live VMs has reached its working size.
const WARM_VMS: u32 = 40;
/// VMs that come and go after the sample.
const CHURN_VMS: u32 = 2_000;
/// Replay periods at which the live heap is printed.
const SAMPLES: [u64; 3] = [50, 150, 300];
/// The most a departed VM may leave behind, bare or under a controller:
/// the host's 4 B `VmId` → position index, with room for allocator
/// rounding.
const MAX_RETAINED_PER_VM: f64 = 16.0;

fn node_spec() -> NodeSpec {
    NodeSpec::custom("trace", 1, 4, 2, MHz(2400))
}

/// The trace scenarios' demand per template: small = bursty web, medium =
/// steady 80 %, large = saturating.
fn class_workload(template: &str, rng: &mut SplitMix64) -> Box<dyn Workload> {
    match template {
        "small" => Box::new(BurstyWeb::with_shape(
            rng.next_u64(),
            0.05,
            1.0,
            Micros::from_secs(60),
            Micros::from_secs(8),
        )),
        "medium" => Box::new(SteadyDemand::new(0.8)),
        _ => Box::new(SteadyDemand::full()),
    }
}

/// Heap growth per VM that came and went, in bytes, and the host's census
/// at the end: `(bytes, arena slots, live groups, instances stored)`.
fn retained_per_departed_vm(seed: u64, with_controller: bool) -> (f64, usize, usize, usize) {
    let mut host = SimHost::new(node_spec(), seed);
    let mut controller = with_controller
        .then(|| Controller::new(ControllerConfig::paper_defaults(), host.topology_info()));
    let mut report = IterationReport::default();
    let templates = [
        VmTemplate::small(),
        VmTemplate::medium(),
        VmTemplate::large(),
    ];
    let mut rng = SplitMix64::new(seed);
    let mut live = VecDeque::new();
    let mut before = 0;
    for round in 0..WARM_VMS + CHURN_VMS {
        if round == WARM_VMS {
            before = thread_live_bytes();
        }
        let template = &templates[round as usize % templates.len()];
        let vm = host.provision(template);
        host.attach_workload(vm, class_workload(&template.name, &mut rng));
        live.push_back(vm);
        if live.len() > 3 {
            drop(host.deprovision(live.pop_front().expect("four live VMs")));
        }
        host.advance_period();
        if let Some(c) = controller.as_mut() {
            c.iterate_into(&mut host, &mut report)
                .expect("in-memory host");
        }
    }
    let per_vm = (thread_live_bytes() - before) as f64 / f64::from(CHURN_VMS);
    let tree = host.tree();
    (
        per_vm,
        tree.arena_size(),
        tree.len(),
        host.instances().len(),
    )
}

/// Live heap of one replay, in MB, at each of [`SAMPLES`].
fn replay_heap(seed: u64, strategy: Strategy, algorithm: PlacementAlgorithm) -> Vec<f64> {
    let before = thread_live_bytes();
    let trace = SyntheticTrace::new(5_500, 300, seed).generate();
    let manager = ClusterManager::new(vec![node_spec(); 120], strategy, seed);
    let mut cluster = EventDrivenCluster::new(manager)
        .with_algorithm(algorithm)
        .with_workloads(
            seed,
            Box::new(|_slot, template, rng| class_workload(&template.name, rng)),
        );
    cluster.load_trace(trace);
    let mut heap = Vec::new();
    for period in 1..=SAMPLES[SAMPLES.len() - 1] {
        cluster.run_until(period);
        if SAMPLES.contains(&period) {
            heap.push((thread_live_bytes() - before) as f64 / 1e6);
        }
    }
    heap
}

fn main() -> ExitCode {
    let seed = 7;
    println!("seed {seed}; {CHURN_VMS} VMs through 3 live slots after {WARM_VMS} warm-up VMs, one period each");
    let mut over = Vec::new();
    for (what, with_controller) in [("bare SimHost", false), ("SimHost + Controller", true)] {
        let (per_vm, arena, groups, instances) = retained_per_departed_vm(seed, with_controller);
        println!(
            "{what:<22} {per_vm:8.1} B retained per departed VM; \
             {arena} cgroup slots for {groups} live groups, {instances} instances stored"
        );
        if per_vm > MAX_RETAINED_PER_VM {
            over.push(format!("{what}: {per_vm:.1} B"));
        }
    }

    println!("live heap of one replay, MB, at periods {SAMPLES:?}");
    let regimes = [
        (
            "eq7  (controller, first-fit)",
            Strategy::FrequencyControl,
            PlacementAlgorithm::FirstFit,
        ),
        (
            "pack (no controller, best-fit)",
            Strategy::migration_default(),
            PlacementAlgorithm::BestFit,
        ),
    ];
    for (what, strategy, algorithm) in regimes {
        let heap = replay_heap(seed, strategy, algorithm);
        let cells: Vec<String> = heap.iter().map(|mb| format!("{mb:7.2}")).collect();
        println!("{what:<31} {}", cells.join(" "));
    }

    if over.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "mem_probe: a departed VM may leave at most {MAX_RETAINED_PER_VM} B behind; {}",
        over.join(", ")
    );
    ExitCode::FAILURE
}
