//! Crash at every byte. For every length `L` of a finished spec log and
//! of a finished usage ledger, a copy cut to `L` bytes reopens — never a
//! panic, never a guess — to exactly the state of the longest sealed
//! prefix, and keeps working from there. Damage *before* the last seal
//! is the matching typed error, never a shorter history.
//!
//! Quadratic in the file size: CI runs it in `--release`.

use std::fmt::Debug;
use std::path::{Path, PathBuf};
use vfc_billing::{
    generate_invoice, BillingEngine, PricingConfig, SpecAudit, TenantPeriodUsage, UsageLedger,
};
use vfc_cluster::{ClusterManager, Strategy};
use vfc_controlplane::{
    spec_audit, ControlPlane, RateLimit, SpecEvent, SpecId, TenantQuota, VmSpec,
};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::durable::LogError;
use vfc_simcore::{MHz, SplitMix64};
use vfc_vmm::VmTemplate;

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vfc-every-byte-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// The one helper, for both logs. `states[k]` is `(file length, state)`
/// after the k-th sealed batch, `states[0]` the newborn file. `reopen`
/// recovers a file to its state; `extend` recovers it, appends one more
/// batch and returns the state it acknowledged.
fn crash_at_every_byte<S: PartialEq + Debug>(
    log: &Path,
    states: &[(u64, S)],
    reopen: impl Fn(&Path) -> Result<S, LogError>,
    extend: impl Fn(&Path) -> S,
) {
    let bytes = std::fs::read(log).unwrap();
    assert_eq!(bytes.len() as u64, states.last().unwrap().0);
    let copy = log.with_extension("cut");
    for cut in 0..=bytes.len() {
        std::fs::write(&copy, &bytes[..cut]).unwrap();
        let Some((_, want)) = states.iter().rev().find(|(l, _)| *l <= cut as u64) else {
            let got = reopen(&copy);
            assert!(
                matches!(got, Err(LogError::Version(_))),
                "cut {cut}: {got:?}"
            );
            continue;
        };
        assert_eq!(reopen(&copy).as_ref(), Ok(want), "cut {cut}");
        assert_eq!(len(&copy), cut as u64, "cut {cut}: reopening wrote");
        // The recovered file takes the next append (an fsync each, so
        // not at every byte: around every seal, and every 32nd).
        if cut % 32 == 0 || states.iter().any(|(l, _)| l.abs_diff(cut as u64) <= 1) {
            let acked = extend(&copy);
            assert_eq!(reopen(&copy), Ok(acked), "cut {cut}: append after recovery");
            let text = std::fs::read_to_string(&copy).unwrap();
            let last = text.strip_suffix('\n').and_then(|t| t.lines().last());
            assert!(
                last.is_some_and(|l| l.starts_with("{\"seal\":")),
                "cut {cut}: bytes past the last seal"
            );
        }
    }
}

/// Damage at or before the last seal fails closed, with the right type.
fn damage_is_typed<S: Debug>(log: &Path, reopen: impl Fn(&Path) -> Result<S, LogError>) {
    let text = std::fs::read_to_string(log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let copy = log.with_extension("bad");
    // Replace (or delete) line `at`; the error's `Debug` must start `want`.
    let check = |at: usize, with: Option<&str>, want: &str| {
        let mut damaged = lines.clone();
        match with {
            Some(line) => damaged[at] = line,
            None => drop(damaged.remove(at)),
        }
        std::fs::write(&copy, damaged.join("\n") + "\n").unwrap();
        let got = format!("{:?}", reopen(&copy).expect_err("damaged log reopened"));
        assert!(got.starts_with(want), "line {at}: got {got}, want {want}");
    };
    // A line from the second half of the file, and the number it carries.
    let middle = |prefix: &str| {
        let at = (lines.len() / 2..).find(|&i| lines[i].starts_with(prefix));
        let rest = &lines[at.unwrap()][prefix.len()..];
        let number = rest.split(|c: char| !c.is_ascii_digit()).next();
        (at.unwrap(), number.unwrap().parse().unwrap())
    };
    let (at, seq): (usize, u64) = middle("{\"seq\":");
    let gap = format!(
        "Gap {{ line: {}, expected: {seq}, found: {} }}",
        at + 1,
        seq + 1
    );
    let short = |n: u64| format!("Truncated {{ sealed: Some({n}), found: {} }}", n - 1);
    let flipped = lines[at].replacen(&seq.to_string(), &(seq + 1).to_string(), 1);
    check(at, Some(&flipped), &gap);
    check(
        at,
        Some(&lines[at][..20]),
        &format!("Corrupt {{ line: {},", at + 1),
    );
    let deleted = if lines[at + 1].starts_with("{\"seal\":") {
        short(seq + 1)
    } else {
        gap
    };
    check(at, None, &deleted);
    let (at, count): (usize, u64) = middle("{\"seal\":");
    check(
        at,
        Some(&format!("{{\"seal\":{}}}", count + 1)),
        &short(count + 1),
    );
    check(0, Some("[]"), "Version");
}

type StoreState = (u64, Vec<VmSpec>, Vec<SpecEvent>, SpecAudit);

fn open_plane(path: &Path) -> Result<ControlPlane, LogError> {
    let mut plane = ControlPlane::with_persistence(path.to_owned())?;
    plane.set_rate_limit(RateLimit {
        burst: 1_000,
        per_tick: 1_000,
    });
    plane.add_tenant("acme", TenantQuota::unlimited());
    Ok(plane)
}

fn store_state(plane: &ControlPlane) -> StoreState {
    let store = plane.store();
    // The kept counts are the folded ones, recovered or live.
    assert_eq!(store.audit("acme"), spec_audit(store.log(), "acme"));
    assert_eq!(store.audit("ghost"), SpecAudit::default());
    (
        store.seq(),
        store.specs().cloned().collect(),
        store.log().to_vec(),
        store.audit("acme"),
    )
}

#[test]
fn spec_log_survives_a_crash_at_every_byte() {
    let path = dir("spec").join("specs.log");
    let node = NodeSpec::custom("n", 4, 16, 2, MHz(2400));
    let loads = ClusterManager::new(vec![node], Strategy::FrequencyControl, 1).node_loads();
    let mut plane = open_plane(&path).unwrap();
    let mut states = vec![(len(&path), store_state(&plane))];
    let mut rng = SplitMix64::new(19);
    let mut live: Vec<SpecId> = Vec::new();
    while states.len() <= 104 {
        let pick = rng.next_below(live.len().max(1) as u64) as usize;
        match rng.next_below(4) {
            0 if !live.is_empty() => {
                plane.delete_vm(live.swap_remove(pick)).unwrap();
            }
            1 if !live.is_empty() => {
                let vfreq = MHz(500 + 100 * rng.next_below(15) as u32);
                plane.resize_vm(live[pick], vfreq, &loads).unwrap();
            }
            _ => {
                let template = VmTemplate::new("vm", 1 + rng.next_below(4) as u32, MHz(800));
                live.push(plane.create_vm("acme", template, &loads).unwrap());
            }
        }
        states.push((len(&path), store_state(&plane)));
        assert_eq!(plane.store().seq() as usize, states.len() - 1);
    }
    drop(plane);

    let reopen = |p: &Path| open_plane(p).map(|plane| store_state(&plane));
    let extend = |p: &Path| {
        let mut plane = open_plane(p).unwrap();
        plane
            .create_vm("acme", VmTemplate::small(), &loads)
            .unwrap();
        store_state(&plane)
    };
    crash_at_every_byte(&path, &states, reopen, extend);
    damage_is_typed(&path, reopen);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

const TENANTS: [&str; 3] = ["acme", "bob", "burst"];

fn pricing() -> PricingConfig {
    PricingConfig::linear(1_000, 2_400)
}

/// `n` intake rows for distinct `(tenant, tier)` pairs.
fn rows(rng: &mut SplitMix64, n: usize) -> Vec<TenantPeriodUsage> {
    let first = rng.next_below(6) as usize;
    (first..first + n)
        .map(|i| TenantPeriodUsage {
            tenant: TENANTS[i % 3].to_owned(),
            vfreq_mhz: [600, 1_800][i % 6 / 3],
            vm_periods: 1 + rng.next_below(4),
            guaranteed_mhz_s: 1_000 + rng.next_below(9_000),
            delivered_mhz_s: 1_000 + rng.next_below(9_000),
            auction_usec: rng.next_below(200_000),
            minted_usec: rng.next_below(500),
            wasted_share_usec: rng.next_below(50),
            demanding_vm_periods: 4,
            violated_vm_periods: rng.next_below(3),
        })
        .collect()
}

/// The bills of a record prefix, straight from `generate_invoice`.
fn bills(records: &[vfc_billing::UsageRecord]) -> [String; 3] {
    let mut ledger = UsageLedger::new();
    for r in records {
        ledger.push(r.clone());
    }
    TENANTS.map(|t| generate_invoice(t, SpecAudit::default(), &ledger, &pricing()).render_json())
}

#[test]
fn ledger_survives_a_crash_at_every_byte() {
    let path = dir("ledger").join("usage.ledger");
    let mut engine = BillingEngine::with_ledger(pricing(), path.clone()).unwrap();
    let mut states = vec![(len(&path), bills(&[]))];
    let mut rng = SplitMix64::new(23);
    for period in 1..=30 {
        let n = 1 + rng.next_below(6) as usize;
        engine.meter_period(period, rows(&mut rng, n));
        engine.checkpoint().unwrap();
        states.push((len(&path), bills(engine.ledger().records())));
    }
    drop(engine);

    let served =
        |e: BillingEngine| TENANTS.map(|t| e.invoice(t, SpecAudit::default()).render_json());
    let reopen = |p: &Path| BillingEngine::with_ledger(pricing(), p.to_owned()).map(served);
    let extend = |p: &Path| {
        let mut engine = BillingEngine::with_ledger(pricing(), p.to_owned()).unwrap();
        engine.meter_period(99, rows(&mut SplitMix64::new(5), 2));
        engine.checkpoint().unwrap();
        bills(engine.ledger().records())
    };
    crash_at_every_byte(&path, &states, reopen, extend);
    damage_is_typed(&path, reopen);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
