//! Deterministic cost counts of the cluster replays and of control-plane
//! writes, pinned at equality.
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
//! core-count packing, both without a fault model, the fleet and trace of
//! the `faults` event-core golden, and a fixed-seed sequence of creates,
//! resizes and deletes admitted by a [`ControlPlane`] over the `api_*`
//! benchmark fleet. They are compared with
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
use vfc::controlplane::{ControlPlane, RateLimit, SpecId, TenantQuota};
use vfc::cpusched::topology::NodeSpec;
use vfc::simcore::alloc_count::{thread_alloc_events, thread_live_bytes, CountingAlloc};
use vfc::simcore::{MHz, SplitMix64};
use vfc::vmm::workload::class_workload;
use vfc::vmm::VmTemplate;

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

/// Allocation events, bytes requested and peak live bytes of one call
/// on this thread, beside what it returned.
fn counted<T>(run: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let events0 = thread_alloc_events();
    let bytes0 = BYTES.with(Cell::get);
    let live0 = thread_live_bytes();
    PEAK.with(|c| c.set(live0));
    let out = run();
    let alloc_events = thread_alloc_events() - events0;
    let alloc_bytes = BYTES.with(Cell::get) - bytes0;
    let peak_live_bytes = PEAK.with(Cell::get) - live0;
    (out, [alloc_events, alloc_bytes, peak_live_bytes as u64])
}

fn uint(n: u64) -> Value {
    Value::UInt(n)
}

/// Run one row on this thread and record its counts.
fn measure(run: Replay) -> Value {
    let (cluster, [alloc_events, alloc_bytes, peak_live_bytes]) = counted(run);
    let stats = cluster.stats();
    let report = cluster.report();
    let faults: FaultReport = cluster.manager().fault_report();
    let faults = serde_json::to_string(&faults).expect("serializable");
    Value::Object(vec![
        ("alloc_events".into(), uint(alloc_events)),
        ("alloc_bytes".into(), uint(alloc_bytes)),
        ("peak_live_bytes".into(), uint(peak_live_bytes)),
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

/// Writes in the control-plane row; the first and the last
/// [`WINDOW`] of them are also counted on their own.
const WRITES: usize = 1_000;
const WINDOW: usize = 100;

/// The `api_*` benchmarks' control plane without HTTP, the reconciler or
/// a spec-log file: 64 nodes of 4 cores × 2 threads at 2.4 GHz under
/// Eq. 7, four tenants each holding at most a quarter of the fleet's
/// budget, and a rate limit that never binds. A fixed-seed sequence of
/// creates, resizes and deletes is admitted against node loads built
/// once; creates lead until about 350 specs are live, then the three
/// kinds balance around that. Returns the row, and the allocation
/// events and bytes of the first and of the last [`WINDOW`] writes.
fn controlplane_writes() -> (Value, [u64; 2], [u64; 2]) {
    const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
    const VCPUS: [u32; 3] = [1, 2, 4];
    const VFREQS: [u32; 4] = [600, 1_200, 1_800, 2_400];
    let node = NodeSpec::custom("cp", 1, 4, 2, MHz(2_400));
    let budget = 64 * node.freq_capacity_mhz();
    let loads = ClusterManager::new(vec![node; 64], Strategy::FrequencyControl, 7).node_loads();
    let mut plane = ControlPlane::new();
    plane.set_rate_limit(RateLimit {
        burst: u64::MAX / 2,
        per_tick: 0,
    });
    for tenant in TENANTS {
        plane.add_tenant(
            tenant,
            TenantQuota {
                max_vms: 400,
                max_vcpus: 1_200,
                max_mhz: budget / TENANTS.len() as u64,
            },
        );
    }
    let mut rng = SplitMix64::new(53);
    let mut live: Vec<SpecId> = Vec::new();
    let (mut accepted, mut refused) = (0u64, 0u64);
    // Allocation events and bytes of the first and of the last window.
    let mut window = [[0u64; 2]; 2];
    let (_, [alloc_events, alloc_bytes, peak_live_bytes]) = counted(|| {
        for i in 0..WRITES {
            let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
            let roll = rng.next_below(100);
            let create_share = if live.len() < 350 { 75 } else { 34 };
            let (events0, bytes0) = (thread_alloc_events(), BYTES.with(Cell::get));
            let ok = if live.is_empty() || roll < create_share {
                let tenant = TENANTS[pick(&mut rng, TENANTS.len())];
                let vcpus = VCPUS[pick(&mut rng, VCPUS.len())];
                let vfreq = VFREQS[pick(&mut rng, VFREQS.len())];
                let template = VmTemplate::new(&format!("vm{i}"), vcpus, MHz(vfreq)).with_mem_gb(1);
                match plane.create_vm(tenant, template, &loads) {
                    Ok(id) => {
                        live.push(id);
                        true
                    }
                    Err(_) => false,
                }
            } else if roll < create_share + (100 - create_share) / 2 {
                let id = live[pick(&mut rng, live.len())];
                let vfreq = VFREQS[pick(&mut rng, VFREQS.len())];
                plane.resize_vm(id, MHz(vfreq), &loads).is_ok()
            } else {
                let id = live.swap_remove(pick(&mut rng, live.len()));
                plane.delete_vm(id).is_ok()
            };
            let cost = [
                thread_alloc_events() - events0,
                BYTES.with(Cell::get) - bytes0,
            ];
            let slot = if i < WINDOW {
                Some(0)
            } else {
                (i >= WRITES - WINDOW).then_some(1)
            };
            if let Some(w) = slot {
                window[w][0] += cost[0];
                window[w][1] += cost[1];
            }
            if ok {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    });
    let row = Value::Object(vec![
        ("alloc_events".into(), uint(alloc_events)),
        ("alloc_bytes".into(), uint(alloc_bytes)),
        ("peak_live_bytes".into(), uint(peak_live_bytes)),
        ("first_writes_alloc_events".into(), uint(window[0][0])),
        ("first_writes_alloc_bytes".into(), uint(window[0][1])),
        ("last_writes_alloc_events".into(), uint(window[1][0])),
        ("last_writes_alloc_bytes".into(), uint(window[1][1])),
        ("accepted".into(), uint(accepted)),
        ("refused".into(), uint(refused)),
        ("seq".into(), uint(plane.store().seq())),
        ("live_specs".into(), uint(plane.store().len() as u64)),
    ]);
    (row, window[0], window[1])
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
    let mut doc: Vec<(String, Value)> = rows
        .iter()
        .map(|&(name, run)| (name.to_string(), measure(run)))
        .collect();
    let (writes, first, last) = controlplane_writes();
    doc.push(("controlplane_writes".into(), writes));
    // Admission may not cost more per write as live specs accumulate:
    // neither more allocations nor more bytes.
    for (what, first, last) in [("times", first[0], last[0]), ("bytes", first[1], last[1])] {
        assert!(
            last <= first,
            "the last {WINDOW} writes allocated {last} {what}, the first {WINDOW} {first}"
        );
    }
    let doc = Value::Object(doc);
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
