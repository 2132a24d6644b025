//! Crash-safe warm restart, end to end (the `tests/degradation.rs`
//! family, aimed at the journal).
//!
//! Three layers of coverage:
//!
//! * **journal robustness** — proptests that `persist::Journal`
//!   round-trips arbitrary controller states through disk, and that
//!   truncated or bit-flipped journal files always degrade to a clean
//!   cold start (`LoadOutcome::Rejected`), never a panic and never a
//!   journal that skipped validation;
//! * **boot reconciliation** — against an on-disk cgroup fixture: a warm
//!   restart adopts the survivor's `cpu.max` untouched and uncaps the
//!   orphan cap of a VM the journal does not know, while a corrupt
//!   journal sweeps every limited cap (cold start);
//! * **the kill-and-restart round trip** — a daemon is killed mid-burst
//!   via the shutdown handle (warm handoff), and the restarted daemon
//!   either loads the journal (warm) or finds it corrupted (cold). Both
//!   worlds replay the identical simulated history; the burst VM's
//!   violated-period count after the warm restart must be strictly lower
//!   than after the cold one, because only the journal carries the
//!   credit wallet that buys its burst service back (Eq. 4 → Eq. 6).

mod common;

use common::TickingHost;
use proptest::prelude::*;
use vfc::controller::daemon::{run_with_shutdown, DaemonConfig, ShutdownHandle};
use vfc::controller::persist::{
    Journal, LoadOutcome, VcpuState, VmState, DEFAULT_MAX_AGE, JOURNAL_VERSION,
};
use vfc::controller::{ControlMode, ControllerConfig};
use vfc::cpusched::dvfs::{Governor, GovernorKind};
use vfc::cpusched::engine::Engine;
use vfc::prelude::*;
use vfc::telemetry::trace::unix_now_ms;
use vfc::vmm::workload::TraceWorkload;

/// Control period of the daemon under test. Small, because the daemon
/// loop sleeps `period − spent` in real time; the simulated window is
/// shrunk to match (10 ticks × 2 ms).
const PERIOD: Micros = Micros(20_000);

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vfc-restart-{tag}-{}", std::process::id()))
}

fn daemon_cfg(journal: &std::path::Path, iterations: Option<u64>) -> DaemonConfig {
    let mut controller = ControllerConfig::paper_defaults().with_mode(ControlMode::Full);
    controller.period = PERIOD;
    controller.window = Micros(2_000);
    DaemonConfig {
        controller,
        journal_path: Some(journal.to_path_buf()),
        iterations,
        ..DaemonConfig::default()
    }
}

// ---------------------------------------------------------------------
// Journal robustness (proptest)
// ---------------------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 1..10).prop_map(|v| {
        v.into_iter()
            .map(|c| char::from(b'a' + c))
            .collect::<String>()
    })
}

fn arb_vcpu() -> impl Strategy<Value = VcpuState> {
    (
        0u32..8,
        proptest::collection::vec(0u64..2_000_000, 0..12),
        proptest::option::of(0u64..2_000_000),
        proptest::option::of(0u64..1u64 << 40),
        proptest::option::of(0u64..1u64 << 40),
    )
        .prop_map(|(vcpu, history, prev, usage, throttled)| VcpuState {
            vcpu,
            history,
            prev_alloc: prev.map(Micros),
            usage_baseline: usage.map(Micros),
            throttled_baseline: throttled.map(Micros),
        })
}

fn arb_journal() -> impl Strategy<Value = Journal> {
    (
        1u64..10_000_000,
        0u64..1u64 << 32,
        proptest::collection::vec(
            (
                arb_name(),
                0u64..1u64 << 40,
                proptest::collection::vec(arb_vcpu(), 0..4),
            ),
            0..6,
        ),
    )
        .prop_map(|(period_us, iterations, vms)| Journal {
            version: JOURNAL_VERSION,
            period_us,
            iterations,
            saved_unix_ms: unix_now_ms(),
            vms: vms
                .into_iter()
                .map(|(name, credits, vcpus)| VmState {
                    name,
                    credits,
                    vcpus,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any exportable controller state survives the disk round trip
    /// bit-identically.
    #[test]
    fn journal_roundtrips_arbitrary_states(journal in arb_journal()) {
        let path = tmp("roundtrip");
        journal.save(&path).unwrap();
        match Journal::load(&path, Micros(journal.period_us), DEFAULT_MAX_AGE) {
            LoadOutcome::Fresh(loaded) => prop_assert_eq!(loaded, journal),
            other => prop_assert!(false, "expected Fresh, got {:?}", other),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A crash mid-`write(2)` (torn tail, partial page) leaves a strict
    /// prefix on disk. Every such prefix must be rejected — cold start —
    /// and must never panic the loader.
    #[test]
    fn truncated_journals_always_cold_start(journal in arb_journal(), cut in 0.0f64..1.0) {
        let path = tmp("truncate");
        journal.save(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap().trim_end().to_owned();
        let keep = 1 + ((body.len() - 2) as f64 * cut) as usize; // strict prefix
        std::fs::write(&path, &body[..keep]).unwrap();
        let outcome = Journal::load(&path, Micros(journal.period_us), DEFAULT_MAX_AGE);
        prop_assert!(
            matches!(outcome, LoadOutcome::Rejected(ref r) if r.contains("corrupt")),
            "truncation to {} of {} bytes must reject, got {:?}",
            keep, body.len(), outcome
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A flipped bit (bad sector, cosmic ray) must never panic the
    /// loader, and anything it still accepts must have passed the full
    /// validation gauntlet — right schema version, right period.
    #[test]
    fn bitflipped_journals_never_panic_or_skip_validation(
        journal in arb_journal(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let path = tmp("bitflip");
        journal.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        match Journal::load(&path, Micros(journal.period_us), DEFAULT_MAX_AGE) {
            LoadOutcome::Rejected(_) => {}
            LoadOutcome::Fresh(j) => {
                // The flip landed somewhere harmless (whitespace, a digit
                // of a non-validated field): acceptance still implies the
                // validated invariants hold.
                prop_assert_eq!(j.version, JOURNAL_VERSION);
                prop_assert_eq!(j.period_us, journal.period_us);
            }
            LoadOutcome::Missing => prop_assert!(false, "file exists; cannot be Missing"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Boot reconciliation against live cgroup state
// ---------------------------------------------------------------------

use vfc::cgroupfs::fixture::FixtureTree;
use vfc::cgroupfs::CpuMax;

fn two_vm_fixture() -> FixtureTree {
    FixtureTree::builder()
        .cpus(2, MHz(2400))
        .vm("web", 1, &[11])
        .vm("stray", 1, &[22])
        .build()
}

#[test]
fn warm_reconcile_adopts_survivor_caps_and_clears_orphans() {
    let fx = two_vm_fixture();
    let mut backend = fx.backend();
    let vms = backend.vms();
    let id = |name: &str| vms.iter().find(|v| v.name == name).unwrap().vm;
    let cap = CpuMax::with_period(Micros(5_000), Micros(100_000));
    backend
        .set_vcpu_max(id("web"), VcpuId::new(0), cap)
        .unwrap();
    backend
        .set_vcpu_max(id("stray"), VcpuId::new(0), cap)
        .unwrap();

    // The predecessor's journal knows "web" but has never seen "stray".
    let journal = fx.root().join("reconcile.journal");
    let cfg = daemon_cfg(&journal, Some(0));
    Journal {
        version: JOURNAL_VERSION,
        period_us: cfg.controller.period.as_u64(),
        iterations: 12,
        saved_unix_ms: unix_now_ms(),
        vms: vec![VmState {
            name: "web".into(),
            credits: 77_000,
            vcpus: vec![VcpuState {
                vcpu: 0,
                history: vec![4_000; 5],
                prev_alloc: Some(Micros(6_000)),
                usage_baseline: Some(Micros::ZERO),
                throttled_baseline: None,
            }],
        }],
    }
    .save(&journal)
    .unwrap();

    // `iterations: Some(0)` runs boot reconciliation and exits before the
    // first control iteration — the reconciled caps are exactly what the
    // loop would start from.
    let done = run_with_shutdown(cfg, &mut backend, &ShutdownHandle::new()).unwrap();
    assert_eq!(done, 0);
    assert_eq!(
        fx.vcpu_cpu_max("web", 0),
        cap,
        "survivor's live cap must be adopted, not rewritten"
    );
    assert!(
        fx.vcpu_cpu_max("stray", 0).is_unlimited(),
        "cap of a VM unknown to the journal is an orphan and must be cleared"
    );
}

#[test]
fn corrupt_journal_cold_starts_and_sweeps_every_cap() {
    let fx = two_vm_fixture();
    let mut backend = fx.backend();
    let vms = backend.vms();
    let cap = CpuMax::with_period(Micros(5_000), Micros(100_000));
    for vm in &vms {
        backend.set_vcpu_max(vm.vm, VcpuId::new(0), cap).unwrap();
    }

    let journal = fx.root().join("corrupt.journal");
    std::fs::write(&journal, "{ definitely not a journal").unwrap();
    let done = run_with_shutdown(
        daemon_cfg(&journal, Some(0)),
        &mut backend,
        &ShutdownHandle::new(),
    )
    .unwrap();
    assert_eq!(done, 0);
    for name in ["web", "stray"] {
        assert!(
            fx.vcpu_cpu_max(name, 0).is_unlimited(),
            "{name}: cold start must sweep the predecessor's cap"
        );
    }
}

// ---------------------------------------------------------------------
// The kill-and-restart round trip: warm strictly beats cold
// ---------------------------------------------------------------------

const F_MAX: MHz = MHz(2400);
const GUARANTEE: MHz = MHz(600);
/// Periods the web VM idles before its burst (wallet accrual).
const IDLE_PERIODS: usize = 25;
/// Iterations of the pre-crash daemon run (idle phase + burst-in-flight).
const CRASH_AFTER: u64 = 30;
/// Iterations of the restarted daemon run (the measured recovery window).
const RECOVERY_ITERATIONS: u64 = 8;
/// A recovery period counts as violated when the burst VM is served
/// below this — far above the all-broke fair split (~1600 MHz) and far
/// below wallet-funded full service (~2400 MHz).
const VIOLATION_MHZ: u32 = 1900;

/// A noise-free 2-thread host (1 core × 2 threads at 2.4 GHz) running
/// three 1-vCPU VMs guaranteed 600 MHz each: `web` idles for
/// [`IDLE_PERIODS`] periods, then demands everything; both hogs saturate
/// from the start. ΣC_i = 0.75 periods, C_MAX = 2 periods — the spare
/// 1.25 periods is what the wallet competes for.
fn burst_host(seed: u64) -> (TickingHost, VmId) {
    let spec = NodeSpec::custom("restart", 1, 1, 2, F_MAX);
    let gov =
        Governor::new(GovernorKind::Performance, spec.min_mhz, spec.max_mhz, 1).with_noise_std(0.0);
    let engine = Engine::with_parts(spec.clone(), Micros(2_000), gov, seed);
    let mut host = SimHost::new(spec, seed).with_engine(engine);
    let web = host.provision(&VmTemplate::new("web", 1, GUARANTEE));
    let hog_a = host.provision(&VmTemplate::new("hog-a", 1, GUARANTEE));
    let hog_b = host.provision(&VmTemplate::new("hog-b", 1, GUARANTEE));
    // 10 engine ticks per period: idle through the accrual phase, then a
    // full-demand burst that is still in flight when the daemon dies.
    let mut trace = vec![0.0; IDLE_PERIODS * 10];
    trace.push(1.0); // TraceWorkload holds the last value forever
    host.attach_workload(web, Box::new(TraceWorkload::new(trace)));
    for hog in [hog_a, hog_b] {
        host.attach_workload(hog, Box::new(SteadyDemand::full()));
    }
    (TickingHost::new(host).watch(web, VcpuId::new(0)), web)
}

/// Run the pre-crash daemon: killed mid-burst through the shutdown
/// handle — a warm handoff that flushes the journal and leaves every cap
/// in force. Returns the web VM's recorded pre-crash frequencies.
fn run_until_crash(backend: &mut TickingHost, web: VmId, journal: &std::path::Path) -> Vec<MHz> {
    let handle = ShutdownHandle::new();
    handle.request_after_iterations(CRASH_AFTER);
    let done = run_with_shutdown(daemon_cfg(journal, None), backend, &handle)
        .expect("pre-crash run must exit warm");
    assert_eq!(done, CRASH_AFTER);
    backend.freqs_of(web, VcpuId::new(0))
}

/// Restart the daemon over the surviving host state and count the burst
/// VM's violated recovery periods.
fn violations_after_restart(
    mut backend: TickingHost,
    web: VmId,
    journal: &std::path::Path,
) -> usize {
    backend.clear_freqs();
    let done = run_with_shutdown(
        daemon_cfg(journal, Some(RECOVERY_ITERATIONS)),
        &mut backend,
        &ShutdownHandle::new(),
    )
    .expect("restarted run");
    assert_eq!(done, RECOVERY_ITERATIONS);
    let freqs = backend.freqs_of(web, VcpuId::new(0));
    // One period advanced by boot reconciliation + one per iteration.
    assert_eq!(freqs.len(), RECOVERY_ITERATIONS as usize + 1);
    freqs.iter().filter(|f| f.as_u32() < VIOLATION_MHZ).count()
}

#[test]
fn kill_and_restart_mid_burst_warm_strictly_beats_cold() {
    let seed = 0xB007;

    // Warm world: the journal survives the crash.
    let (mut backend, web) = burst_host(seed);
    let warm_journal = tmp("warm.journal");
    let _ = std::fs::remove_file(&warm_journal);
    let warm_precrash = run_until_crash(&mut backend, web, &warm_journal);

    // The journal must carry what the warm restart claims to restore:
    // the frugal VM's wallet, its history ring and its last allocation.
    let journal = match Journal::load(&warm_journal, PERIOD, DEFAULT_MAX_AGE) {
        LoadOutcome::Fresh(j) => j,
        other => panic!("crash journal must be loadable, got {other:?}"),
    };
    assert_eq!(journal.iterations, CRASH_AFTER);
    let state = |prefix: &str| {
        journal
            .vms
            .iter()
            .find(|v| v.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("{prefix} missing from journal"))
    };
    let (web_state, hog_state) = (state("web"), state("hog"));
    assert!(
        web_state.credits > hog_state.credits,
        "the idle-then-bursting VM must out-save the saturating hog: {} vs {}",
        web_state.credits,
        hog_state.credits
    );
    assert!(!web_state.vcpus[0].history.is_empty());
    assert!(web_state.vcpus[0].prev_alloc.is_some());

    let warm_violations = violations_after_restart(backend, web, &warm_journal);

    // Cold world: identical seed, identical pre-crash history — but the
    // crash also took the journal with it (torn disk, new host, …).
    let (mut backend, web_cold) = burst_host(seed);
    let cold_journal = tmp("cold.journal");
    let _ = std::fs::remove_file(&cold_journal);
    let cold_precrash = run_until_crash(&mut backend, web_cold, &cold_journal);
    assert_eq!(
        warm_precrash, cold_precrash,
        "both worlds must replay the identical pre-crash history"
    );
    let body = std::fs::read_to_string(&cold_journal).unwrap();
    std::fs::write(&cold_journal, &body[..body.len() / 2]).unwrap();
    let cold_violations = violations_after_restart(backend, web_cold, &cold_journal);

    eprintln!(
        "recovery violations (of {} periods): warm {warm_violations}, cold {cold_violations}",
        RECOVERY_ITERATIONS + 1
    );
    assert!(
        warm_violations < cold_violations,
        "warm restart must strictly beat cold in violated recovery periods: \
         warm {warm_violations} vs cold {cold_violations} \
         (of {} measured)",
        RECOVERY_ITERATIONS + 1
    );

    let _ = std::fs::remove_file(&warm_journal);
    let _ = std::fs::remove_file(&cold_journal);
}
