//! Crash-safe controller state journal (warm restart).
//!
//! A `vfcd` process dies — OOM-killed, panicked supervisor, host reboot —
//! and everything the market economy learned dies with it: credit
//! wallets, per-vCPU consumption histories, the previous allocations.
//! Tenants restart cold, guarantees re-establish within a period, but
//! earned burst capacity (Eq. 4 credits) is wiped out. The journal fixes
//! that: [`Controller::export_state`](crate::Controller::export_state)
//! snapshots the loop state into a [`Journal`], the daemon writes it
//! atomically every `journal_interval` periods, and a restarted daemon
//! [loads](Journal::load) and reconciles it against the live cgroup
//! state (see `daemon.rs`).
//!
//! Design rules:
//!
//! * **atomic** — the journal is written through
//!   [`vfc_simcore::durable::replace_file`] (tmp, fsync, rename, fsync of
//!   the directory); a crash mid-write never leaves a torn file at the
//!   journal path;
//! * **versioned** — [`JOURNAL_VERSION`] gates the schema; an unknown
//!   version is rejected, never guessed at;
//! * **validated, never trusted** — corruption, truncation, a changed
//!   control period or a stale timestamp all degrade to a clean cold
//!   start ([`LoadOutcome::Rejected`]); loading never panics;
//! * **keyed by VM name** — backend VM ids are not stable across daemon
//!   restarts, the cgroup scope names are.

use std::path::Path;
use std::time::Duration;
use vfc_simcore::Micros;
use vfc_telemetry::trace::unix_now_ms;

/// Schema version written by [`Controller::export_state`]; bump on any
/// incompatible change.
///
/// [`Controller::export_state`]: crate::Controller::export_state
pub const JOURNAL_VERSION: u32 = 1;

/// Default staleness bound for [`Journal::load`]: a snapshot older than
/// this describes a host state too far gone to resume from.
pub const DEFAULT_MAX_AGE: Duration = Duration::from_secs(15 * 60);

/// Persisted state of one vCPU.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VcpuState {
    /// vCPU index within its VM.
    pub vcpu: u32,
    /// Consumption history ring (oldest → newest), µs per period.
    pub history: Vec<u64>,
    /// `c_{i,j,t-1}` — the capping in force when the snapshot was taken.
    pub prev_alloc: Option<Micros>,
    /// Cumulative `usage_usec` baseline, so the first warm observation
    /// differences against the real counter instead of reporting zero.
    pub usage_baseline: Option<Micros>,
    /// Cumulative `throttled_usec` baseline.
    pub throttled_baseline: Option<Micros>,
}

/// Persisted state of one VM, keyed by its cgroup scope name.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VmState {
    /// Scope name — the stable identity across restarts.
    pub name: String,
    /// Credit wallet balance (Eq. 4), µs of cycles.
    pub credits: u64,
    /// Per-vCPU state, sorted by index.
    pub vcpus: Vec<VcpuState>,
}

/// One complete controller snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Journal {
    /// Schema version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Control period the snapshot was taken under, µs. Histories and
    /// allocations are meaningless under a different period, so load
    /// rejects a mismatch.
    pub period_us: u64,
    /// Controller iteration counter at snapshot time.
    pub iterations: u64,
    /// Wall-clock snapshot time (ms since the Unix epoch), for the
    /// staleness bound.
    pub saved_unix_ms: u64,
    /// Per-VM state, sorted by name.
    pub vms: Vec<VmState>,
}

/// What [`Journal::load`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOutcome {
    /// A valid, current journal: warm restart is possible.
    Fresh(Journal),
    /// No journal file exists (first boot): cold start.
    Missing,
    /// The journal exists but cannot be trusted — unreadable, corrupt,
    /// wrong version, wrong period, or stale. Cold start; the reason is
    /// for the operator's log.
    Rejected(String),
}

impl Journal {
    /// Write the journal atomically and durably. A crash at any point
    /// leaves either the old journal or the new one, never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut json =
            serde_json::to_string_pretty(self).map_err(|e| format!("serialize journal: {e}"))?;
        json.push('\n');
        vfc_simcore::durable::replace_file(path, json.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Load and validate a journal. Never panics: every failure mode —
    /// missing file, unreadable file, corrupt or truncated JSON, wrong
    /// schema version, a control period different from `expected_period`,
    /// or a snapshot older than `max_age` — maps to a [`LoadOutcome`]
    /// that tells the daemon to cold-start instead.
    pub fn load(path: &Path, expected_period: Micros, max_age: Duration) -> LoadOutcome {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Missing,
            Err(e) => return LoadOutcome::Rejected(format!("unreadable: {e}")),
        };
        let journal: Journal = match serde_json::from_str(&content) {
            Ok(j) => j,
            Err(e) => return LoadOutcome::Rejected(format!("corrupt: {e}")),
        };
        if journal.version != JOURNAL_VERSION {
            return LoadOutcome::Rejected(format!(
                "schema version {} (this daemon writes {JOURNAL_VERSION})",
                journal.version
            ));
        }
        if journal.period_us != expected_period.as_u64() {
            return LoadOutcome::Rejected(format!(
                "period {} µs differs from the configured {} µs",
                journal.period_us,
                expected_period.as_u64()
            ));
        }
        let age_ms = unix_now_ms().saturating_sub(journal.saved_unix_ms);
        if age_ms > max_age.as_millis() as u64 {
            return LoadOutcome::Rejected(format!(
                "stale: snapshot is {age_ms} ms old (bound {} ms)",
                max_age.as_millis()
            ));
        }
        LoadOutcome::Fresh(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Journal {
        Journal {
            version: JOURNAL_VERSION,
            period_us: 1_000_000,
            iterations: 42,
            saved_unix_ms: unix_now_ms(),
            vms: vec![VmState {
                name: "web".into(),
                credits: 123_456,
                vcpus: vec![VcpuState {
                    vcpu: 0,
                    history: vec![1, 2, 3],
                    prev_alloc: Some(Micros(208_333)),
                    usage_baseline: Some(Micros(9_999_999)),
                    throttled_baseline: None,
                }],
            }],
        }
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vfc-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip() {
        let path = tmp_path("roundtrip");
        let j = sample();
        j.save(&path).unwrap();
        match Journal::load(&path, Micros::SEC, DEFAULT_MAX_AGE) {
            LoadOutcome::Fresh(loaded) => assert_eq!(loaded, j),
            other => panic!("expected Fresh, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Journals written while the controller had a `shard_count` option
    /// may carry the key; extra keys are ignored, so they still restore.
    #[test]
    fn journal_with_a_shard_count_key_still_loads() {
        let path = tmp_path("oldkey");
        let j = sample();
        let json = serde_json::to_string_pretty(&j).unwrap();
        let old = json.replacen('{', "{\n  \"shard_count\": {\"Fixed\": 4},", 1);
        assert!(old.contains("shard_count"));
        std::fs::write(&path, old).unwrap();
        match Journal::load(&path, Micros::SEC, DEFAULT_MAX_AGE) {
            LoadOutcome::Fresh(loaded) => assert_eq!(loaded, j),
            other => panic!("expected Fresh, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_missing_not_an_error() {
        let path = tmp_path("nonexistent");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            Journal::load(&path, Micros::SEC, DEFAULT_MAX_AGE),
            LoadOutcome::Missing
        );
    }

    #[test]
    fn corrupt_wrong_version_wrong_period_and_stale_all_reject() {
        let path = tmp_path("reject");

        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(
            Journal::load(&path, Micros::SEC, DEFAULT_MAX_AGE),
            LoadOutcome::Rejected(r) if r.contains("corrupt")
        ));

        let mut j = sample();
        j.version = JOURNAL_VERSION + 1;
        j.save(&path).unwrap();
        assert!(matches!(
            Journal::load(&path, Micros::SEC, DEFAULT_MAX_AGE),
            LoadOutcome::Rejected(r) if r.contains("version")
        ));

        let j = sample();
        j.save(&path).unwrap();
        assert!(matches!(
            Journal::load(&path, Micros(500_000), DEFAULT_MAX_AGE),
            LoadOutcome::Rejected(r) if r.contains("period")
        ));

        let mut j = sample();
        j.saved_unix_ms = unix_now_ms().saturating_sub(60_000);
        j.save(&path).unwrap();
        assert!(matches!(
            Journal::load(&path, Micros::SEC, Duration::from_secs(1)),
            LoadOutcome::Rejected(r) if r.contains("stale")
        ));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_leaves_no_tmp_file_behind() {
        let path = tmp_path("tmpclean");
        sample().save(&path).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        let _ = std::fs::remove_file(&path);
    }
}
