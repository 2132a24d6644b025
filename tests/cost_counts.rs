//! Deterministic cost counts of the cluster replays, pinned at equality.
//!
//! Wall-clock pairs on a small box cannot resolve a 15–50 % move on a
//! row of about a millisecond; these counts can. Each row replays a
//! fixed-seed, in-process miniature of a benchmark workload and records
//! what it cost:
//!
//! * allocation events, bytes requested and peak live bytes, counted per
//!   thread by [`CountingAlloc`] (wrapped here to add the bytes and the
//!   peak);
//! * the event core's own counts: events processed, node-periods, closed
//!   periods, and the cluster's migrations;
//! * the [`FaultReport`] counters (all zero without a fault model).
//!
//! The rows are `traces/sample_small.csv` under Eq. 7 admission and under
//! core-count packing, both without a fault model, and the fleet and
//! trace of the `faults` event-core golden. They are compared with
//! `tests/golden/cost_counts.json` at equality; a change that moves a
//! count shows the diff. Regenerate deliberately, in release, with
//! `VFC_BLESS=1 cargo test --release --test cost_counts`.
//!
//! Counts are asserted in release builds only: debug builds run the
//! cluster's bookkeeping check after every mutation, and it allocates. A
//! debug build prints the counts and says that it skipped the check.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::io::Write;

use serde_json::Value;
use vfc::cluster::{
    ClusterManager, CsvTraceReader, EventDrivenCluster, FaultModel, FaultReport, Strategy,
    SyntheticTrace, TraceReader, TraceVmSpec,
};
use vfc::cpusched::topology::NodeSpec;
use vfc::simcore::alloc_count::{thread_alloc_events, thread_live_bytes, CountingAlloc};
use vfc::simcore::MHz;
use vfc::vmm::workload::class_workload;

/// [`CountingAlloc`] plus, per thread, the bytes requested and the
/// highest live-byte count seen.
struct PeakAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let live = thread_live_bytes();
    let _ = PEAK.try_with(|c| c.set(c.get().max(live)));
}

// SAFETY: every method forwards to `CountingAlloc` with the caller's
// arguments unchanged; the counters are thread-local cells that never
// allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { CountingAlloc.alloc(layout) };
        note(layout.size());
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { CountingAlloc.alloc_zeroed(layout) };
        note(layout.size());
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        note(new_size);
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// One row's replay, run to its horizon.
type Replay = fn() -> EventDrivenCluster;

/// The committed sample trace.
fn sample_trace() -> Vec<TraceVmSpec> {
    CsvTraceReader::from_path("traces/sample_small.csv")
        .and_then(|mut r| r.read())
        .expect("committed trace is well-formed")
}

/// The sample trace on four 8-thread nodes under `strategy`, each VM's
/// demand its class profile, replayed for 130 periods.
fn sample_replay(strategy: Strategy) -> EventDrivenCluster {
    let fleet = vec![NodeSpec::custom("cc", 1, 4, 2, MHz(2400)); 4];
    let mgr = ClusterManager::new(fleet, strategy, 7);
    let mut cluster = EventDrivenCluster::new(mgr).with_workloads(
        7,
        Box::new(|_slot, template, rng| class_workload(&template.name, rng)),
    );
    cluster.load_trace(sample_trace());
    cluster.run_until(130);
    cluster
}

/// The fleet, fault model and trace of the `faults` event-core golden
/// (`tests/events.rs`).
fn golden_faults_replay() -> EventDrivenCluster {
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

/// Run one row on this thread and record its counts.
fn measure(run: Replay) -> Value {
    let events0 = thread_alloc_events();
    let bytes0 = BYTES.with(Cell::get);
    let live0 = thread_live_bytes();
    PEAK.with(|c| c.set(live0));
    let cluster = run();
    let alloc_events = thread_alloc_events() - events0;
    let alloc_bytes = BYTES.with(Cell::get) - bytes0;
    let peak_live_bytes = PEAK.with(Cell::get) - live0;

    let stats = cluster.stats();
    let report = cluster.report();
    let faults: FaultReport = cluster.manager().fault_report();
    let faults = serde_json::to_string(&faults).expect("serializable");
    let uint = |n: u64| Value::UInt(n);
    Value::Object(vec![
        ("alloc_events".into(), uint(alloc_events)),
        ("alloc_bytes".into(), uint(alloc_bytes)),
        ("peak_live_bytes".into(), uint(peak_live_bytes as u64)),
        ("events_processed".into(), uint(stats.events_processed)),
        ("node_periods".into(), uint(stats.node_periods)),
        ("closes".into(), uint(stats.closes)),
        ("migrations".into(), uint(report.migrations)),
        (
            "faults".into(),
            serde_json::from_str(&faults).expect("round-trips"),
        ),
    ])
}

#[test]
fn cluster_replays_cost_what_the_golden_says() {
    let rows: [(&str, Replay); 3] = [
        ("trace_eq7", || sample_replay(Strategy::FrequencyControl)),
        (
            "trace_pack",
            || sample_replay(Strategy::migration_default()),
        ),
        ("golden_faults", golden_faults_replay),
    ];
    let doc = Value::Object(
        rows.iter()
            .map(|&(name, run)| (name.to_string(), measure(run)))
            .collect(),
    );
    let got = serde_json::to_string_pretty(&doc).expect("serializable") + "\n";
    if cfg!(debug_assertions) {
        // Straight to the stderr handle, past the harness's capture, so
        // the skip shows in every run.
        let _ = writeln!(
            std::io::stderr(),
            "{got}cost_counts: SKIPPED the comparison: counts are asserted in \
             release builds only (debug-only bookkeeping checks allocate)"
        );
        return;
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_counts.json");
    if std::env::var_os("VFC_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        got == want,
        "cost counts drifted from {}: got\n{got}\nIf intentional, re-bless with \
         VFC_BLESS=1 cargo test --release --test cost_counts",
        path.display()
    );
}
