//! Pins for the event-driven cluster core: queue ordering properties,
//! same-seed byte-identical replays, `run_period`-vs-event-core equivalence,
//! trace-reader robustness, the "quiet hosts are free" bound, and
//! committed golden reports.

use proptest::prelude::*;
use proptest::Strategy as _;
use vfc::cluster::{
    ClusterManager, CsvTraceReader, EventDrivenCluster, FaultModel, GlobalVmId, Strategy,
    SyntheticTrace, TraceError, TraceReader, TraceVmSpec,
};
use vfc::cpusched::topology::NodeSpec;
use vfc::placement::algo::PlacementAlgorithm;
use vfc::simcore::{EventQueue, MHz};
use vfc::vmm::workload::{SteadyDemand, Workload};
use vfc::vmm::VmTemplate;

// ---------------------------------------------------------------------
// Event-queue ordering properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary interleavings of schedule/pop drain in nondecreasing
    /// timestamp order with FIFO tie-breaks — checked against a naive
    /// mirror model that picks min-by-(time, seq) each pop.
    #[test]
    fn queue_drains_in_order(ops in proptest::collection::vec(
        (0u8..=3, 0u64..=15), 1..80,
    )) {
        let mut q = EventQueue::new();
        let mut mirror: Vec<(u64, u64, u32)> = Vec::new();
        let mut payload = 0u32;
        for (choice, delta) in ops {
            if choice < 3 {
                // Schedule relative to `now` (never in the past).
                let t = q.now() + delta;
                let seq = q.schedule(t, payload);
                mirror.push((t, seq, payload));
                payload += 1;
            } else if let Some(got) = q.pop() {
                let best = mirror
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.0, e.1))
                    .map(|(i, _)| i)
                    .expect("queue and mirror agree on emptiness");
                let want = mirror.remove(best);
                prop_assert_eq!((got.time, got.seq, got.event), want);
            } else {
                prop_assert!(mirror.is_empty());
            }
        }
        // Drain the rest: globally nondecreasing (time, seq).
        let mut last = (0u64, 0u64);
        while let Some(got) = q.pop() {
            prop_assert!((got.time, got.seq) >= last, "out of order");
            last = (got.time, got.seq);
            let best = mirror
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i)
                .expect("mirror still has events");
            let want = mirror.remove(best);
            prop_assert_eq!((got.time, got.seq, got.event), want);
        }
        prop_assert!(mirror.is_empty());
    }
}

// ---------------------------------------------------------------------
// Same-seed determinism
// ---------------------------------------------------------------------

fn synthetic_run(trace_seed: u64, cluster_seed: u64) -> (Vec<String>, String) {
    let trace = SyntheticTrace::new(120, 40, trace_seed).generate();
    let nodes = vec![NodeSpec::custom("det", 1, 4, 2, MHz(2400)); 8];
    let mgr = ClusterManager::new(nodes, Strategy::FrequencyControl, cluster_seed);
    let mut cluster = EventDrivenCluster::new(mgr).with_workloads(
        cluster_seed,
        Box::new(|slot, _t, _rng| Box::new(SteadyDemand::new(0.3 + 0.05 * (slot % 10) as f64))),
    );
    cluster.enable_journal();
    cluster.load_trace(trace);
    cluster.run_until(90);
    let journal = cluster.journal().expect("enabled").to_vec();
    let report = serde_json::to_string(&cluster.report()).expect("serializable");
    (journal, report)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (j1, r1) = synthetic_run(9, 42);
    let (j2, r2) = synthetic_run(9, 42);
    assert!(!j1.is_empty(), "the run processed events");
    assert_eq!(j1, j2, "same-seed event journals must be byte-identical");
    assert_eq!(r1, r2, "same-seed reports must be byte-identical");

    let (j3, _) = synthetic_run(10, 42);
    assert_ne!(j1, j3, "a different trace seed must change the schedule");
}

// ---------------------------------------------------------------------
// run_period vs event core equivalence
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct EqVm {
    vcpus: u32,
    vfreq_mhz: u32,
    /// Arrives at second `arrive_s`.
    arrive_s: u64,
    /// 0 = never departs; d ≥ 1 = departs at second `arrive_s + d`.
    stay_s: u64,
}

impl EqVm {
    fn template(&self, slot: usize) -> VmTemplate {
        VmTemplate::new(&format!("c{}", slot % 3), self.vcpus, MHz(self.vfreq_mhz))
    }

    fn depart_s(&self) -> Option<u64> {
        (self.stay_s != 0).then_some(self.arrive_s + self.stay_s)
    }
}

const EQ_HORIZON: u64 = 16;

/// Demand 0.5–1.0: enough that the migration strategy's packed nodes
/// run hot and migrate in about a third of the cases.
fn eq_workload(slot: usize) -> Box<dyn Workload> {
    Box::new(SteadyDemand::new(0.5 + 0.0625 * (slot % 9) as f64))
}

fn eq_fleet() -> Vec<NodeSpec> {
    vec![NodeSpec::custom("eq", 1, 2, 2, MHz(2400)); 3]
}

/// Scripted faults on the three-node fleet: node crashes and controller
/// crashes as `(period, node)`, and one partition `(start, periods, node)`.
type EqScript = (Vec<(u64, usize)>, Vec<(u64, usize)>, (u64, u64, usize));

/// The fault model of one equivalence case: `kind` 0 is none, 1 is the
/// script with every rate at 0, 2 is random node and controller crashes
/// and failing landings.
fn eq_faults(kind: u8, script: EqScript, seed: u64) -> FaultModel {
    let (node_crashes, controller_crashes, (start, periods, node)) = script;
    match kind {
        0 => FaultModel::none(),
        1 => FaultModel {
            scripted_node_crashes: node_crashes,
            scripted_controller_crashes: controller_crashes,
            scripted_partitions: vec![(start, start + periods, node)],
            repair_periods: 3,
            controller_restart_periods: 2,
            evacuation_downtime_periods: 2,
            ..FaultModel::none()
        },
        _ => FaultModel {
            seed,
            node_crash_rate: 0.1,
            controller_crash_rate: 0.1,
            migration_fail_rate: 0.3,
            repair_periods: 3,
            controller_restart_periods: 2,
            evacuation_downtime_periods: 2,
            ..FaultModel::none()
        },
    }
}

/// What the two drivers must agree on: the report, and each node's
/// Eq. 7 ledger with its up flag.
fn eq_outcome(mgr: &ClusterManager) -> String {
    let report = serde_json::to_string(&mgr.report()).expect("serializable");
    let loads = serde_json::to_string(&mgr.node_loads()).expect("serializable");
    format!("{report}\n{loads}")
}

/// The schedule driven by hand in the event core's phase order: before
/// period `p`, the departures at second `p - 1`, then the arrivals at
/// second `p - 1`, each in slot order.
fn run_period_report(plans: &[EqVm], strategy: Strategy, seed: u64, faults: FaultModel) -> String {
    let mut mgr = ClusterManager::with_faults(eq_fleet(), strategy, seed, faults);
    let mut ids: Vec<Option<GlobalVmId>> = vec![None; plans.len()];
    for period in 1..=EQ_HORIZON {
        for (slot, p) in plans.iter().enumerate() {
            if p.depart_s().is_some_and(|d| d + 1 == period) {
                if let Some(id) = ids[slot] {
                    mgr.undeploy(id).expect("departs once");
                }
            }
        }
        for (slot, p) in plans.iter().enumerate() {
            if p.arrive_s + 1 == period {
                ids[slot] = mgr
                    .try_deploy_with(
                        &p.template(slot),
                        eq_workload(slot),
                        PlacementAlgorithm::BestFit,
                    )
                    .ok();
            }
        }
        mgr.run_period();
    }
    eq_outcome(&mgr)
}

fn eq_spec(plans: &[EqVm], slot: usize) -> TraceVmSpec {
    let p = &plans[slot];
    TraceVmSpec {
        trace_id: format!("eq-{slot}"),
        arrival: p.arrive_s,
        departure: p.depart_s(),
        template: p.template(slot),
    }
}

/// The event core with the whole schedule loaded up front.
fn event_report(plans: &[EqVm], strategy: Strategy, seed: u64, faults: FaultModel) -> String {
    let mgr = ClusterManager::with_faults(eq_fleet(), strategy, seed, faults);
    let mut cluster = EventDrivenCluster::new(mgr)
        .with_workloads(0, Box::new(|slot, _t, _rng| eq_workload(slot)));
    for slot in 0..plans.len() {
        cluster.schedule_vm(eq_spec(plans, slot));
    }
    cluster.run_until(EQ_HORIZON);
    eq_outcome(cluster.manager())
}

/// The event core fed the way a live feed drives it: each second, the VMs
/// arriving at it are scheduled, then the clock runs up to it. Slots then
/// follow arrival order, so the factory maps each back to its plan.
fn live_event_report(plans: &[EqVm], strategy: Strategy, seed: u64, faults: FaultModel) -> String {
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| plans[i].arrive_s);
    let mgr = ClusterManager::with_faults(eq_fleet(), strategy, seed, faults);
    let plan_of = order.clone();
    let mut cluster = EventDrivenCluster::new(mgr).with_workloads(
        0,
        Box::new(move |slot, _t, _rng| eq_workload(plan_of[slot])),
    );
    for second in 0..=EQ_HORIZON {
        for &i in order.iter().filter(|&&i| plans[i].arrive_s == second) {
            cluster.schedule_vm(eq_spec(plans, i));
        }
        cluster.run_until(second);
    }
    eq_outcome(cluster.manager())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The contract (see `events` module docs): under any fault model, the
    /// two drivers agree bit for bit on any schedule — VMs arriving on
    /// hosts that sat idle, and, under the migration strategy, VMs
    /// migrating onto them — whether the event core gets the schedule up
    /// front or second by second.
    #[test]
    fn event_core_matches_run_period(
        plans in proptest::collection::vec(
            (1u32..=2, 300u32..=1200, 0u64..=8, 0u64..=7).prop_map(
                |(vcpus, vfreq_mhz, arrive_s, stay_s)| EqVm {
                    vcpus,
                    vfreq_mhz,
                    arrive_s,
                    stay_s,
                },
            ),
            1..12,
        ),
        seed in 0u64..1000,
        kind in 0u8..=2,
        script in (
            proptest::collection::vec((1u64..=EQ_HORIZON, 0usize..3), 0..4),
            proptest::collection::vec((1u64..=EQ_HORIZON, 0usize..3), 0..4),
            (1u64..=EQ_HORIZON, 1u64..=6, 0usize..3),
        ),
    ) {
        for strategy in [Strategy::FrequencyControl, Strategy::migration_default()] {
            let faults = eq_faults(kind, script.clone(), seed);
            let stepped = run_period_report(&plans, strategy, seed, faults.clone());
            let event = event_report(&plans, strategy, seed, faults.clone());
            prop_assert_eq!(&stepped, &event, "reports diverged under {:?} with {:?} for {:?}", strategy, faults, plans);
            let live = live_event_report(&plans, strategy, seed, faults.clone());
            prop_assert_eq!(&stepped, &live, "a live feed diverged under {:?} with {:?} for {:?}", strategy, faults, plans);
        }
    }
}

/// A node that crashes while the cluster is empty comes back after its
/// repair, though the event core jumps over the quiet stretch it is
/// repaired in: the second VM finds the whole fleet up.
#[test]
fn a_repair_due_in_a_quiet_stretch_is_applied() {
    let faults = FaultModel {
        scripted_node_crashes: vec![(2, 0)],
        repair_periods: 3,
        ..FaultModel::none()
    };
    let mgr = ClusterManager::with_faults(eq_fleet(), Strategy::FrequencyControl, 1, faults);
    let mut cluster = EventDrivenCluster::new(mgr);
    let vm = |name: &str, arrival: u64, departure: Option<u64>| TraceVmSpec {
        trace_id: name.into(),
        arrival,
        departure,
        template: VmTemplate::new("std", 2, MHz(1200)),
    };
    cluster.schedule_vm(vm("a", 0, Some(1)));
    cluster.run_until(10);
    cluster.schedule_vm(vm("b", 20, None));
    cluster.run_until(40);
    let up: Vec<bool> = cluster
        .manager()
        .node_loads()
        .iter()
        .map(|l| l.up)
        .collect();
    assert_eq!(up, [true, true, true], "node 0 rejoins at period 5");
    assert_eq!(cluster.manager().fault_report().node_crashes, 1);
}

// ---------------------------------------------------------------------
// Trace-reader robustness
// ---------------------------------------------------------------------

#[test]
fn golden_sample_trace_parses() {
    let specs = CsvTraceReader::from_path("traces/sample_small.csv")
        .expect("committed trace exists")
        .read()
        .expect("committed trace is well-formed");
    assert_eq!(specs.len(), 40);
    let first = &specs[0];
    assert_eq!(first.trace_id, "web-000");
    assert_eq!(first.arrival, 0);
    assert_eq!(first.departure, Some(45));
    assert_eq!(first.template.vcpus, 2);
    assert_eq!(first.template.vfreq, MHz(500));
    assert_eq!(first.template.mem_gb, 4);
    assert_eq!(first.template.name, "small");
    // Long-running VMs have no departure.
    assert!(specs
        .iter()
        .any(|s| s.trace_id == "db-000" && s.departure.is_none()));
    // Every row yields a deployable template.
    for s in &specs {
        assert!(
            s.template.validate().is_ok(),
            "{}: invalid template",
            s.trace_id
        );
        assert_eq!(s.event_count(), 1 + usize::from(s.departure.is_some()));
    }
}

/// Every malformed row is a line-numbered `TraceError`, never a panic.
#[test]
fn malformed_rows_are_line_numbered_errors() {
    let header = "vm_id,arrival_s,departure_s,vcpus,vfreq_mhz,mem_gb,class\n";
    let cases: &[(&str, &str)] = &[
        ("a,-5,,2,500,4,small", "negative arrival_s"),
        ("a,0,-1,2,500,4,small", "negative departure_s"),
        ("a,10,5,2,500,4,small", "not after arrival_s"),
        ("a,10,10,2,500,4,small", "not after arrival_s"),
        ("a,0,50,0,500,4,small", "zero vcpus"),
        ("a,0,50,2,NaN,4,small", "non-finite vfreq_mhz"),
        ("a,0,50,2,inf,4,small", "non-finite vfreq_mhz"),
        ("a,0,50,2,-200,4,small", "out of range"),
        ("a,0,50,2,0,4,small", "out of range"),
        ("a,0,50,2,500,0,small", "zero mem_gb"),
        ("a,0,50,2,500,4,", "empty class"),
        (",0,50,2,500,4,small", "empty vm_id"),
        ("a,0,50,2,500,4", "expected 7 columns"),
        ("a,0,50,2,500,4,small,extra", "expected 7 columns"),
        ("a,zero,,2,500,4,small", "unparsable arrival_s"),
        ("a,0,soon,2,500,4,small", "unparsable departure_s"),
        ("a,0,50,two,500,4,small", "unparsable vcpus"),
        ("a,0,50,2,fast,4,small", "unparsable vfreq_mhz"),
        ("a,0,50,2,500,lots,small", "unparsable mem_gb"),
    ];
    for (row, want) in cases {
        let src = format!("{header}ok-1,0,30,2,500,4,small\n{row}\n");
        let err = CsvTraceReader::from_csv(&src)
            .read()
            .expect_err("malformed row must be rejected");
        match err {
            TraceError::Malformed { line, ref reason } => {
                assert_eq!(line, 3, "row {row:?} reported the wrong line");
                assert!(
                    reason.contains(want),
                    "row {row:?}: reason {reason:?} missing {want:?}"
                );
            }
            other => panic!("row {row:?}: unexpected error {other:?}"),
        }
    }

    // Duplicate ids are rejected on the *second* occurrence.
    let err = CsvTraceReader::from_csv(&format!(
        "{header}dup,0,30,2,500,4,small\ndup,5,40,2,500,4,small\n"
    ))
    .read()
    .expect_err("duplicate id");
    assert_eq!(
        err,
        TraceError::Malformed {
            line: 3,
            reason: "duplicate vm_id \"dup\"".into()
        }
    );

    // Missing files are I/O errors, not panics.
    assert!(matches!(
        CsvTraceReader::from_path("traces/no_such_trace.csv"),
        Err(TraceError::Io(_))
    ));
}

// ---------------------------------------------------------------------
// Quiet hosts are free
// ---------------------------------------------------------------------

#[test]
fn quiet_hosts_cost_nothing() {
    const NODES: usize = 40;
    const PERIODS: u64 = 30;
    const VMS: usize = 8;
    // First-Fit packs eight 2-vCPU @ 2400 MHz VMs (4800 MHz each) onto
    // the first four 9600 MHz nodes: 10 % of the fleet busy, 90 % idle.
    let fleet = vec![NodeSpec::custom("quiet", 1, 2, 2, MHz(2400)); NODES];
    let mgr = ClusterManager::new(fleet, Strategy::FrequencyControl, 7);
    let mut cluster = EventDrivenCluster::new(mgr).with_algorithm(PlacementAlgorithm::FirstFit);
    for i in 0..VMS {
        cluster.schedule_vm(TraceVmSpec {
            trace_id: format!("busy-{i}"),
            arrival: 0,
            departure: None,
            template: VmTemplate::new("std", 2, MHz(2400)),
        });
    }
    cluster.run_until(PERIODS);

    let report = cluster.report();
    assert_eq!(report.deployed, VMS);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.periods, PERIODS);
    assert_eq!(report.nodes_active, 4);

    // Idle hosts ran zero controller iterations; busy hosts ran one per
    // period.
    let totals = cluster.manager().health_totals();
    assert_eq!(totals.len(), NODES);
    let busy: Vec<_> = totals.iter().filter(|(_, t)| t.iterations > 0).collect();
    let idle = totals.len() - busy.len();
    assert_eq!(busy.len(), 4, "only the packed nodes may run controllers");
    assert!(idle >= NODES * 9 / 10, "90 % of hosts stay idle");
    for (name, t) in &busy {
        assert_eq!(t.iterations, PERIODS, "{name} advanced every period");
    }

    // Total events stay within the analytic bound: one arrival per VM
    // and one tick per period. Each tick advances the four busy nodes
    // and closes the period — idle hosts contribute nothing at all.
    let stats = cluster.stats();
    assert_eq!(stats.arrivals, VMS as u64);
    assert_eq!(stats.departures, 0);
    assert_eq!(stats.node_periods, 4 * PERIODS);
    assert_eq!(stats.closes, PERIODS);
    let bound = VMS as u64 + PERIODS;
    assert!(
        stats.events_processed <= bound,
        "{} events exceeds the analytic bound {bound}",
        stats.events_processed
    );
}

// ---------------------------------------------------------------------
// Fault machinery through the event core (smoke)
// ---------------------------------------------------------------------

#[test]
fn event_core_survives_faults_and_terminates() {
    let faults = FaultModel {
        seed: 3,
        node_crash_rate: 0.02,
        controller_crash_rate: 0.02,
        migration_fail_rate: 0.1,
        ..FaultModel::none()
    };
    let fleet = vec![NodeSpec::custom("f", 1, 2, 2, MHz(2400)); 6];
    let mgr = ClusterManager::with_faults(fleet, Strategy::FrequencyControl, 11, faults);
    let mut cluster = EventDrivenCluster::new(mgr);
    let trace = SyntheticTrace::new(60, 30, 5).generate();
    cluster.load_trace(trace);
    cluster.run_until(120);
    let report = cluster.report();
    assert_eq!(report.periods, 120);
    let faults = report.faults.expect("fault counters reported");
    assert!(
        faults.node_crashes + faults.controller_crashes > 0,
        "fault machinery ran"
    );
    // Deterministic under replay even with faults and landings.
    let mgr2 = ClusterManager::with_faults(
        vec![NodeSpec::custom("f", 1, 2, 2, MHz(2400)); 6],
        Strategy::FrequencyControl,
        11,
        FaultModel {
            seed: 3,
            node_crash_rate: 0.02,
            controller_crash_rate: 0.02,
            migration_fail_rate: 0.1,
            ..FaultModel::none()
        },
    );
    let mut cluster2 = EventDrivenCluster::new(mgr2);
    cluster2.load_trace(SyntheticTrace::new(60, 30, 5).generate());
    cluster2.run_until(120);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&cluster2.report()).unwrap(),
        "fault-injected event runs replay bit-identically"
    );
}

/// A migrating VM whose destination filled up while it was in flight,
/// with no other node to go to, waits stranded and is re-placed once
/// capacity frees — every period, as under `run_period`, with or without
/// a fault model.
#[test]
fn stranded_vms_retry_without_a_fault_model() {
    // Two 4-thread nodes; core-count packing ×1.8 admits 7 vCPUs each.
    let fleet = vec![NodeSpec::custom("s", 1, 2, 2, MHz(2400)); 2];
    let mgr = ClusterManager::new(fleet, Strategy::migration_default(), 5);
    let demand = [1.0, 0.3, 0.5, 0.3];
    let mut cluster = EventDrivenCluster::new(mgr).with_workloads(
        0,
        Box::new(move |slot, _t, _rng| Box::new(SteadyDemand::new(demand[slot]))),
    );
    let vm = |slot: usize, arrival: u64, departure: Option<u64>, vcpus: u32| TraceVmSpec {
        trace_id: format!("s{slot}"),
        arrival,
        departure,
        template: VmTemplate::new("std", vcpus, MHz(1200)),
    };
    // `hot` (4 vCPUs, saturating) and `calm` fill node 0; after three hot
    // periods `hot` migrates to node 1 (lands at period 6). `big` takes
    // node 1 meanwhile and `late` the rest of node 0, so `hot` strands at
    // period 6 — until `big` leaves before period 11.
    cluster.schedule_vm(vm(0, 0, None, 4));
    cluster.schedule_vm(vm(1, 0, None, 3));
    cluster.schedule_vm(vm(2, 3, Some(10), 5));
    cluster.schedule_vm(vm(3, 4, None, 3));
    let hot = |c: &EventDrivenCluster| c.manager().vm_freq(c.vm_id_of(0).unwrap()).unwrap();

    cluster.run_until(8);
    assert_eq!(cluster.report().migrations, 1);
    assert_eq!(hot(&cluster), 0.0, "stranded VMs run nowhere");
    cluster.run_until(10);
    assert_eq!(hot(&cluster), 0.0, "no node fits before `big` departs");
    cluster.run_until(12);
    assert!(hot(&cluster) > 0.0, "re-placed once node 1 emptied");
}

// ---------------------------------------------------------------------
// Golden reports: the event core pinned against committed output
// ---------------------------------------------------------------------

/// Report and period history of one finished run, as JSON values.
fn pinned(cluster: &EventDrivenCluster) -> serde_json::Value {
    let value = |json: String| serde_json::from_str(&json).expect("round-trips");
    serde_json::Value::Object(vec![
        (
            "report".into(),
            value(serde_json::to_string(&cluster.report()).expect("serializable")),
        ),
        (
            "history".into(),
            value(serde_json::to_string(cluster.manager().history()).expect("serializable")),
        ),
    ])
}

/// Crashes, 10 % migration failures, evacuations and strandings under
/// Eq. 7 (the `event_core_survives_faults_and_terminates` fleet).
fn golden_faults() -> EventDrivenCluster {
    let faults = FaultModel {
        seed: 3,
        node_crash_rate: 0.02,
        controller_crash_rate: 0.02,
        migration_fail_rate: 0.1,
        ..FaultModel::none()
    };
    let fleet = vec![NodeSpec::custom("f", 1, 2, 2, MHz(2400)); 6];
    let mgr = ClusterManager::with_faults(fleet, Strategy::FrequencyControl, 11, faults);
    let mut cluster = EventDrivenCluster::new(mgr);
    cluster.load_trace(SyntheticTrace::new(60, 30, 5).generate());
    cluster.run_until(120);
    cluster
}

/// Core-count packing with Best-Fit: hot nodes shed VMs, which land
/// after their downtime. `fail_rate > 0` adds a fault model whose only
/// fault is the landing handshake failing, so migrations roll back and
/// some strand. Without it no migration strands on this trace; stranded
/// retries without a fault model are pinned by
/// `stranded_vms_retry_without_a_fault_model`.
fn golden_packing(fail_rate: f64) -> EventDrivenCluster {
    let faults = FaultModel {
        seed: 19,
        migration_fail_rate: fail_rate,
        ..FaultModel::none()
    };
    let fleet = vec![NodeSpec::custom("pk", 1, 2, 2, MHz(2400)); 6];
    let mgr = ClusterManager::with_faults(fleet, Strategy::migration_default(), 13, faults);
    let mut cluster = EventDrivenCluster::new(mgr)
        .with_algorithm(PlacementAlgorithm::BestFit)
        .with_workloads(
            13,
            Box::new(|slot, _t, _rng| Box::new(SteadyDemand::new(0.6 + 0.05 * (slot % 8) as f64))),
        );
    cluster.load_trace(SyntheticTrace::new(50, 40, 24).generate());
    cluster.run_until(100);
    cluster
}

/// Cap leases and the deadline ladder, driven the way a reconciler does
/// between `run_until` steps: a renewal heartbeat every period (cut off
/// for node 1 by a scripted partition) and a stage delay on node 0 that
/// walks its ladder down and back up.
fn golden_leases_and_ladder() -> EventDrivenCluster {
    let faults = FaultModel {
        scripted_partitions: vec![(6, 14, 1)],
        ..FaultModel::none()
    };
    let fleet = vec![NodeSpec::custom("ll", 1, 2, 2, MHz(2400)); 4];
    let mgr = ClusterManager::with_faults(fleet, Strategy::FrequencyControl, 17, faults);
    let mut cluster = EventDrivenCluster::new(mgr).with_algorithm(PlacementAlgorithm::FirstFit);
    cluster.manager_mut().enable_cap_leases(2, 3);
    cluster.manager_mut().enable_deadline_ladder(0.05, 3);
    cluster.load_trace(SyntheticTrace::new(40, 30, 9).generate());
    for p in 1..=40 {
        let delay = if (8..12).contains(&p) { 200_000 } else { 0 };
        cluster.manager_mut().inject_stage_delay_us(0, delay);
        cluster.manager_mut().renew_leases();
        cluster.run_until(p);
    }
    cluster
}

/// A fault model stays on through a stretch with no VM present while
/// arrivals are still pending: crash draws and repairs keep happening,
/// and the second wave lands on whatever the stretch left behind.
fn golden_empty_stretch() -> EventDrivenCluster {
    let faults = FaultModel {
        seed: 29,
        node_crash_rate: 0.08,
        controller_crash_rate: 0.08,
        repair_periods: 6,
        ..FaultModel::none()
    };
    let fleet = vec![NodeSpec::custom("es", 1, 2, 2, MHz(2400)); 4];
    let mgr = ClusterManager::with_faults(fleet, Strategy::FrequencyControl, 23, faults);
    let mut cluster = EventDrivenCluster::new(mgr);
    let wave = |at: u64, until: Option<u64>, n: usize| {
        (0..n).map(move |i| TraceVmSpec {
            trace_id: format!("w{at}-{i}"),
            arrival: at,
            departure: until,
            template: VmTemplate::new("std", 2, MHz(1200 + 300 * i as u32)),
        })
    };
    for spec in wave(0, Some(4), 4).chain(wave(20, None, 5)) {
        cluster.schedule_vm(spec);
    }
    cluster.run_until(40);
    cluster
}

/// Committed output of the event core for five runs that together
/// exercise every step of a period: faults, landings, rollbacks,
/// strandings, leases, the ladder and an empty stretch under a fault
/// model. Regenerate deliberately with
/// `VFC_BLESS=1 cargo test --test events golden` and review the diff.
#[test]
fn event_core_matches_golden_reports() {
    let runs = [
        ("faults", golden_faults()),
        ("packing", golden_packing(0.0)),
        ("packing_rollbacks", golden_packing(0.3)),
        ("leases_and_ladder", golden_leases_and_ladder()),
        ("empty_stretch", golden_empty_stretch()),
    ];
    let doc = serde_json::Value::Object(
        runs.iter()
            .map(|(name, cluster)| (name.to_string(), pinned(cluster)))
            .collect(),
    );
    let got = serde_json::to_string_pretty(&doc).expect("serializable") + "\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/event_core_reports.json");
    if std::env::var_os("VFC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        got == want,
        "event-core reports drifted from {} — if intentional, re-bless with VFC_BLESS=1",
        path.display()
    );
}
