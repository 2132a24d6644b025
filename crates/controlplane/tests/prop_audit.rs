//! The audit twin of `bill == f(ledger)`: the per-tenant counts the spec
//! store keeps while it folds events are the counts [`spec_audit`] folds
//! from its log from nothing — after every live mutation, after an
//! export and reload, after a persistent plane reopens its file, and on
//! a log no live store would have written.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vfc_billing::SpecAudit;
use vfc_cluster::{ClusterManager, Strategy};
use vfc_controlplane::{
    spec_audit, ControlPlane, RateLimit, SpecEvent, SpecId, SpecStore, TenantQuota, VmSpec,
};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_vmm::VmTemplate;

/// "ghost" is registered nowhere and owns nothing.
const TENANTS: [&str; 4] = ["acme", "bob", "carol", "ghost"];

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vfc-prop-audit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Kept counts equal folded counts, for every tenant; returns them.
fn audits(store: &SpecStore) -> [SpecAudit; 4] {
    TENANTS.map(|t| {
        assert_eq!(store.audit(t), spec_audit(store.log(), t), "tenant {t}");
        store.audit(t)
    })
}

fn open_plane(path: &Path) -> ControlPlane {
    let mut plane = ControlPlane::with_persistence(path.to_owned()).unwrap();
    plane.set_rate_limit(RateLimit {
        burst: 1_000,
        per_tick: 1_000,
    });
    for tenant in &TENANTS[..3] {
        plane.add_tenant(tenant, TenantQuota::unlimited());
    }
    plane
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_kept_audit_is_the_folded_audit(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0usize..64), 1..40),
    ) {
        let dir = dir("live");
        let path = dir.join("specs.log");
        let node = NodeSpec::custom("n", 4, 16, 2, MHz(2400));
        let loads = ClusterManager::new(vec![node], Strategy::FrequencyControl, 1).node_loads();
        let mut plane = open_plane(&path);
        // Every id ever admitted, live or deleted: a mutation of a dead
        // one is refused and appends nothing.
        let mut ids: Vec<SpecId> = Vec::new();
        for (op, tenant, pick) in ops {
            let seq = plane.store().seq();
            let target = ids.get(pick % ids.len().max(1)).copied();
            let accepted = match (op, target) {
                (0, Some(id)) => plane.delete_vm(id).is_ok(),
                (1, Some(id)) => plane.resize_vm(id, MHz(500 + 10 * pick as u32), &loads).is_ok(),
                _ => plane
                    .create_vm(TENANTS[tenant as usize], VmTemplate::small(), &loads)
                    .map(|id| ids.push(id))
                    .is_ok(),
            };
            prop_assert_eq!(plane.store().seq(), seq + u64::from(accepted));
            audits(plane.store());
        }
        let live = audits(plane.store());

        let export = dir.join("export.log");
        plane.store().save(&export).unwrap();
        prop_assert_eq!(audits(&SpecStore::load(&export).unwrap()), live);
        drop(plane);
        prop_assert_eq!(audits(open_plane(&path).store()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A log only a hand could write: a resize *after* the delete of the same
/// id, a second `Created` for an id already seen (ownership moves), and
/// mutations of an id never created (counted for nobody).
#[test]
fn hand_written_log_counts_the_same_both_ways() {
    let created = |id: u64, tenant: &str| SpecEvent::Created {
        spec: VmSpec {
            id: SpecId(id),
            tenant: tenant.to_owned(),
            template: VmTemplate::small(),
            generation: 1,
        },
    };
    let resized = |id: u64| SpecEvent::Resized {
        id: SpecId(id),
        vfreq: MHz(900),
        generation: 2,
    };
    let events = [
        created(0, "acme"),
        SpecEvent::Deleted { id: SpecId(0) },
        resized(0), // acme's, though spec-0 is gone
        created(0, "bob"),
        resized(0), // bob's now
        SpecEvent::Deleted { id: SpecId(7) },
        resized(7),
        SpecEvent::Deleted { id: SpecId(0) },
        SpecEvent::Deleted { id: SpecId(0) }, // twice: counted twice
    ];
    let mut text = "{\"spec_log\":1}\n".to_owned();
    for (seq, event) in events.iter().enumerate() {
        let event = serde_json::to_string(event).unwrap();
        text += &format!("{{\"seq\":{seq},\"event\":{event}}}\n");
    }
    text += &format!("{{\"seal\":{}}}\n", events.len());
    let dir = dir("hand");
    let path = dir.join("specs.log");
    std::fs::write(&path, text).unwrap();

    let store = SpecStore::load(&path).unwrap();
    assert_eq!(store.log(), events);
    assert!(store.is_empty());
    let count = |creates, resizes, deletes| SpecAudit {
        creates,
        resizes,
        deletes,
    };
    assert_eq!(
        audits(&store),
        [
            count(1, 1, 1),
            count(1, 1, 2),
            SpecAudit::default(),
            SpecAudit::default()
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
