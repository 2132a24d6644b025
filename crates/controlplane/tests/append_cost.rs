//! O(1) without a clock: what one API write and one checkpoint add to
//! their files is their own lines and a seal, however long the history —
//! measured in bytes, which do not jitter.

use std::path::{Path, PathBuf};
use vfc_billing::{BillingEngine, PricingConfig, TenantPeriodUsage};
use vfc_cluster::{ClusterManager, Strategy};
use vfc_controlplane::{ControlPlane, RateLimit, TenantQuota};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_vmm::VmTemplate;

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vfc-append-cost-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// What the file gained since it was `before` bytes long, as lines; also
/// checks that no `*.tmp` sits beside it.
fn gained(path: &Path, before: u64) -> Vec<String> {
    for entry in std::fs::read_dir(path.parent().unwrap()).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(!name.to_string_lossy().ends_with(".tmp"), "{name:?}");
    }
    let text = std::fs::read_to_string(path).unwrap();
    let tail = &text[before as usize..];
    assert!(tail.is_empty() || tail.ends_with('\n'));
    tail.lines().map(str::to_owned).collect()
}

#[test]
fn write_1000_appends_its_own_line_and_a_seal() {
    let path = dir("spec").join("specs.log");
    let mut plane = ControlPlane::with_persistence(path.clone()).unwrap();
    plane.set_rate_limit(RateLimit {
        burst: 10_000,
        per_tick: 0,
    });
    plane.add_tenant("acme", TenantQuota::unlimited());
    let node = NodeSpec::custom("n", 1, 8, 2, MHz(2400));
    let loads = ClusterManager::new(vec![node], Strategy::FrequencyControl, 1).node_loads();
    let mut before = std::fs::metadata(&path).unwrap().len();
    for write in 1..=1_000u64 {
        // Create, resize, delete, create, ...: the store stays small, the
        // log does not.
        let live = plane.store().specs().next().map(|s| s.id);
        match (write % 3, live) {
            (2, Some(id)) => plane.resize_vm(id, MHz(900), &loads).map(drop),
            (0, Some(id)) => plane.delete_vm(id).map(drop),
            _ => plane
                .create_vm("acme", VmTemplate::small(), &loads)
                .map(drop),
        }
        .unwrap();
        let lines = gained(&path, before);
        assert_eq!(lines.len(), 2, "write {write}: {lines:?}");
        assert!(lines[0].starts_with(&format!("{{\"seq\":{},", write - 1)));
        assert_eq!(lines[1], format!("{{\"seal\":{write}}}"));
        before = std::fs::metadata(&path).unwrap().len();
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn checkpoint_200_appends_its_own_records_and_a_seal() {
    let path = dir("ledger").join("usage.ledger");
    let mut engine =
        BillingEngine::with_ledger(PricingConfig::linear(1_000, 2_400), path.clone()).unwrap();
    let mut before = std::fs::metadata(&path).unwrap().len();
    let mut records = 0;
    for period in 1..=200u64 {
        let n = period % 4; // every fourth period meters nothing
        let rows = (0..n).map(|i| TenantPeriodUsage {
            tenant: format!("tenant-{i}"),
            vfreq_mhz: 1_200,
            vm_periods: 2,
            guaranteed_mhz_s: 2_400,
            delivered_mhz_s: 2_300,
            auction_usec: 10 * period,
            minted_usec: 40,
            wasted_share_usec: 7,
            demanding_vm_periods: 2,
            violated_vm_periods: 0,
        });
        engine.meter_period(period, rows.collect());
        engine.checkpoint().unwrap();
        let lines = gained(&path, before);
        if n == 0 {
            assert!(lines.is_empty(), "an idle checkpoint wrote {lines:?}");
            continue;
        }
        assert_eq!(lines.len() as u64, n + 1, "checkpoint {period}: {lines:?}");
        for line in &lines[..n as usize] {
            assert!(line.starts_with(&format!("{{\"seq\":{records},\"period\":{period},")));
            records += 1;
        }
        assert_eq!(lines[n as usize], format!("{{\"seal\":{records}}}"));
        before = std::fs::metadata(&path).unwrap().len();
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
