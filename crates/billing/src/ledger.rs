//! The crash-safe usage ledger: every metered tenant-period, appended in
//! order and durable once its checkpoint returns.
//!
//! The on-disk format is the workspace's one log grammar
//! ([`vfc_simcore::durable`]) over JSON lines:
//!
//! ```text
//! {"version":1}
//! {"seq":0,"period":1,"tenant":"acme","vfreq_mhz":500, ...}
//! {"seq":1,"period":1,"tenant":"bob","vfreq_mhz":1200, ...}
//! {"seal":2}
//! {"seq":2,"period":2,"tenant":"acme","vfreq_mhz":500, ...}
//! {"seal":3}
//! ```
//!
//! * line 1 is the format header;
//! * every record carries a `seq` that must be exactly its position —
//!   a gap or repeat means the file was hand-edited or interleaved;
//! * every checkpoint appends its records and a **seal** holding the
//!   cumulative record count. A seal that disagrees with the records
//!   before it rejects the file as a whole — a bill must never silently
//!   shrink.
//!
//! [`UsageLedger::save`] exports a whole ledger as one sealed batch and
//! [`UsageLedger::load`] / [`UsageLedger::parse`] read such a file
//! **strictly**: one that does not end in a seal is `Truncated`. Only a
//! restarting [`BillingEngine`](crate::BillingEngine) takes the log's one
//! recovery licence and ignores a batch whose checkpoint never returned.
//! Loading never panics: every defect maps to a typed [`LedgerError`].

use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use vfc_simcore::durable::{self, AppendLog};

/// Why a ledger file was rejected: the durable log's error taxonomy.
pub use vfc_simcore::durable::LogError as LedgerError;

/// On-disk format version this build writes and accepts.
pub const LEDGER_VERSION: u32 = 1;

/// The header line of that version.
const HEADER: &str = "{\"version\":1}";

/// One metered tenant-period at one guaranteed frequency: what a tenant's
/// VMs running at `vfreq_mhz` were promised, received and traded during
/// one control period. The `(period, tenant, vfreq_mhz)` granularity
/// preserves the frequency tier, which tiered price curves bill on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageRecord {
    /// Position in the ledger (assigned on append; contiguous from 0).
    pub seq: u64,
    /// Control period the usage occurred in (1-based).
    pub period: u64,
    /// Tenant billed for this usage.
    pub tenant: String,
    /// Guaranteed virtual frequency per vCPU (`F_v`), MHz — the price
    /// tier.
    pub vfreq_mhz: u32,
    /// VM-periods aggregated into this record.
    pub vm_periods: u64,
    /// Reserved work: Σ `k_v × F_v` over those VM-periods, MHz·s.
    pub guaranteed_mhz_s: u64,
    /// Work actually delivered (exact per-vCPU frequencies), MHz·s.
    pub delivered_mhz_s: u64,
    /// Auction-won cycles (credits spent, Alg. 1), µs of `F^MAX` time.
    pub auction_usec: u64,
    /// Credits minted by under-consumption (Eq. 4), µs.
    pub minted_usec: u64,
    /// This tenant's share of market cycles the cluster wasted, µs.
    pub wasted_share_usec: u64,
    /// VM-periods in which a VM demanded at least its guarantee.
    pub demanding_vm_periods: u64,
    /// Of those, VM-periods below the delivery tolerance (violations).
    pub violated_vm_periods: u64,
}

/// The in-memory ledger: an append-only record list. Appends assign
/// `seq`; the billing engine appends each period's records to the file,
/// [`UsageLedger::save`] exports the whole ledger atomically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageLedger {
    records: Vec<UsageRecord>,
}

impl UsageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        UsageLedger::default()
    }

    /// Append a record; its `seq` is overwritten with the next position.
    pub fn push(&mut self, mut record: UsageRecord) {
        record.seq = self.records.len() as u64;
        self.records.push(record);
    }

    /// All records, in append order.
    pub fn records(&self) -> &[UsageRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been metered yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Render the full on-disk form (header, records, one seal).
    pub fn render(&self) -> String {
        durable::render(HEADER, self.records.iter().map(record_line))
    }

    /// Export atomically and durably ([`durable::replace_file`]): after a
    /// crash at any point the file at `path` is either its previous
    /// complete content or this ledger — never a torn mix.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        durable::replace_file(path, self.render().as_bytes())
    }

    /// Load and fully validate a ledger file. See [`LedgerError`] for
    /// the rejection taxonomy; in particular a truncated tail rejects
    /// the whole file rather than returning a silently short bill.
    pub fn load(path: &Path) -> Result<Self, LedgerError> {
        Self::parse(&durable::read(path)?)
    }

    /// Validate the textual form (the testable core of [`UsageLedger::load`]).
    pub fn parse(text: &str) -> Result<Self, LedgerError> {
        let mut ledger = UsageLedger::new();
        let parsed = durable::parse(text, HEADER, |line, json| ledger.replay(line, json))?;
        if !parsed.sealed || !parsed.tail.is_empty() {
            return Err(LedgerError::Truncated {
                sealed: None,
                found: parsed.records + parsed.tail.lines().count() as u64,
            });
        }
        Ok(ledger)
    }

    /// Open the ledger at `path` as a log to append to: the records every
    /// returned checkpoint sealed, plus the handle that appends the next
    /// one. A missing file is created empty.
    pub(crate) fn open(path: &Path) -> Result<(Self, AppendLog), LedgerError> {
        let mut ledger = UsageLedger::new();
        let log = AppendLog::open(path, HEADER, |line, json| ledger.replay(line, json))?;
        Ok((ledger, log))
    }

    /// Take one committed record line; returns its `seq` for the chain
    /// check.
    fn replay(&mut self, line: usize, json: &str) -> Result<u64, LedgerError> {
        let record: UsageRecord = serde_json::from_str(json).map_err(|e| LedgerError::Corrupt {
            line,
            reason: e.to_string(),
        })?;
        let seq = record.seq;
        self.records.push(record);
        Ok(seq)
    }
}

/// One record's line in the file.
pub(crate) fn record_line(record: &UsageRecord) -> String {
    serde_json::to_string(record).expect("record serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    pub(crate) fn record(seq: u64, period: u64, tenant: &str) -> UsageRecord {
        UsageRecord {
            seq,
            period,
            tenant: tenant.to_owned(),
            vfreq_mhz: 500,
            vm_periods: 2,
            guaranteed_mhz_s: 2_000,
            delivered_mhz_s: 1_900,
            auction_usec: 120,
            minted_usec: 80,
            wasted_share_usec: 10,
            demanding_vm_periods: 2,
            violated_vm_periods: 1,
        }
    }

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vfc-ledger-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_through_disk() {
        let path = dir("rt").join("usage.ledger");
        let mut l = UsageLedger::new();
        l.push(record(9, 1, "acme")); // seq is overwritten
        l.push(record(9, 1, "bob"));
        l.push(record(9, 2, "acme"));
        l.save(&path).unwrap();
        let back = UsageLedger::load(&path).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.records()[2].seq, 2);
        assert!(!path.with_extension("ledger.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_distinguished() {
        let path = dir("missing").join("never-written.ledger");
        assert_eq!(UsageLedger::load(&path), Err(LedgerError::Missing));
    }

    #[test]
    fn truncated_tail_is_rejected_not_shortened() {
        let mut l = UsageLedger::new();
        l.push(record(0, 1, "acme"));
        l.push(record(0, 1, "bob"));
        let full = l.render();
        // Drop the seal line: mid-write crash shape.
        let cut = full.rsplit_once("{\"seal\"").unwrap().0;
        match UsageLedger::parse(cut) {
            Err(LedgerError::Truncated {
                sealed: None,
                found: 2,
            }) => {}
            other => panic!("want truncation, got {other:?}"),
        }
        // Drop the last record but keep the (now wrong) seal.
        let lines: Vec<&str> = full.lines().collect();
        let missing_rec = format!("{}\n{}\n{}\n", lines[0], lines[1], lines[3]);
        match UsageLedger::parse(&missing_rec) {
            Err(LedgerError::Truncated {
                sealed: Some(2),
                found: 1,
            }) => {}
            other => panic!("want seal mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_line_and_gap_are_typed() {
        let mut l = UsageLedger::new();
        l.push(record(0, 1, "acme"));
        let mut text = l.render();
        text = text.replace("\"tenant\":\"acme\"", "\"tenant\":42");
        match UsageLedger::parse(&text) {
            Err(LedgerError::Corrupt { line: 2, .. }) => {}
            other => panic!("want corrupt line 2, got {other:?}"),
        }
        let mut skipped = UsageLedger::new();
        skipped.push(record(0, 1, "acme"));
        // Seal stays correct (1 record), so the gap is what trips.
        let gap = skipped.render().replace("\"seq\":0", "\"seq\":3");
        match UsageLedger::parse(&gap) {
            Err(LedgerError::Gap {
                line: 2,
                expected: 0,
                found: 3,
            }) => {}
            other => panic!("want gap, got {other:?}"),
        }
    }

    // Restated for the multi-seal grammar: lines after a seal are the
    // next batch, so an unsealed line after the last seal is no longer
    // `Corrupt` — to the strict reader it is a file that does not end in
    // a seal, i.e. `Truncated` with no seal to vouch for it.
    #[test]
    fn content_after_seal_is_corrupt() {
        let mut l = UsageLedger::new();
        l.push(record(0, 1, "acme"));
        let text = format!("{}{{\"seq\":1}}\n", l.render());
        match UsageLedger::parse(&text) {
            Err(LedgerError::Truncated {
                sealed: None,
                found: 2,
            }) => {}
            other => panic!("want unsealed tail rejected, got {other:?}"),
        }
    }
}
