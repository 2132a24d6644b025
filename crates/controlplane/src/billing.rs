//! Glue between the control plane and `vfc-billing`: fold the spec log
//! into audit counts and aggregate the cluster's raw per-VM usage into
//! the per-tenant rows the metering engine ingests.
//!
//! The billing crate sits *below* the control plane and never sees
//! specs or clusters; this module is where `SpecEvent`s and
//! [`PeriodUsage`] meet [`SpecAudit`] and [`TenantPeriodUsage`].

use crate::spec::{SpecEvent, SpecId};
use std::collections::BTreeMap;
use vfc_billing::{SpecAudit, TenantPeriodUsage};
use vfc_cluster::PeriodUsage;

/// Replay the spec-store event log and count `tenant`'s creates,
/// resizes and deletes. `Resized`/`Deleted` events carry only a spec
/// id, so ownership is recovered from the `Created` events earlier in
/// the log — the log is append-only and ids are never reused, so the
/// fold is exact even for long-deleted specs.
pub fn spec_audit(log: &[SpecEvent], tenant: &str) -> SpecAudit {
    let mut owner: BTreeMap<SpecId, bool> = BTreeMap::new();
    let mut audit = SpecAudit::default();
    for event in log {
        match event {
            SpecEvent::Created { spec } => {
                let mine = spec.tenant == tenant;
                owner.insert(spec.id, mine);
                audit.creates += u64::from(mine);
            }
            SpecEvent::Resized { id, .. } => {
                audit.resizes += u64::from(owner.get(id).copied().unwrap_or(false));
            }
            SpecEvent::Deleted { id } => {
                audit.deletes += u64::from(owner.get(id).copied().unwrap_or(false));
            }
        }
    }
    audit
}

/// Aggregate one period of raw per-VM usage into per-`(tenant, F_v)`
/// metering rows, tenant-then-frequency ordered. `tenant_of` maps a
/// cluster VM to its owner (via the reconciler's bindings); VMs the
/// mapping cannot place — e.g. deleted between metering and billing —
/// are dropped from revenue rather than guessed onto a tenant.
///
/// The cluster-wide wasted market cycles (Eq. 6's ω, cycles sold but
/// never delivered) are prorated across rows by guaranteed share with
/// floor division — informational on the bill, never charged.
pub fn aggregate_usage(
    usage: &PeriodUsage,
    mut tenant_of: impl FnMut(vfc_cluster::GlobalVmId) -> Option<String>,
) -> Vec<TenantPeriodUsage> {
    let mut rows: BTreeMap<(String, u32), TenantPeriodUsage> = BTreeMap::new();
    for vm in &usage.vms {
        let Some(tenant) = tenant_of(vm.vm) else {
            continue;
        };
        let row = rows
            .entry((tenant.clone(), vm.vfreq_mhz))
            .or_insert_with(|| TenantPeriodUsage {
                tenant,
                vfreq_mhz: vm.vfreq_mhz,
                vm_periods: 0,
                guaranteed_mhz_s: 0,
                delivered_mhz_s: 0,
                auction_usec: 0,
                minted_usec: 0,
                wasted_share_usec: 0,
                demanding_vm_periods: 0,
                violated_vm_periods: 0,
            });
        row.vm_periods += 1;
        row.guaranteed_mhz_s += vm.guaranteed_mhz_s;
        row.delivered_mhz_s += vm.delivered_mhz_s;
        row.auction_usec += vm.spent_usec;
        row.minted_usec += vm.minted_usec;
        row.demanding_vm_periods += u64::from(vm.demanding);
        row.violated_vm_periods += u64::from(vm.violated);
    }
    let total_guaranteed: u64 = rows.values().map(|r| r.guaranteed_mhz_s).sum();
    if total_guaranteed > 0 && usage.wasted_market_usec > 0 {
        for row in rows.values_mut() {
            row.wasted_share_usec = ((usage.wasted_market_usec as u128
                * row.guaranteed_mhz_s as u128)
                / total_guaranteed as u128) as u64;
        }
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecStore;
    use vfc_cluster::{GlobalVmId, VmPeriodUsage};
    use vfc_simcore::MHz;
    use vfc_vmm::VmTemplate;

    #[test]
    fn audit_counts_follow_ownership_through_the_log() {
        let mut store = SpecStore::new();
        let a = store.create("acme", VmTemplate::small());
        let b = store.create("bob", VmTemplate::small());
        store.resize(a, MHz(800));
        store.resize(b, MHz(900));
        store.delete(a);
        store.resize(b, MHz(700));
        let acme = spec_audit(store.log(), "acme");
        assert_eq!((acme.creates, acme.resizes, acme.deletes), (1, 1, 1));
        let bob = spec_audit(store.log(), "bob");
        assert_eq!((bob.creates, bob.resizes, bob.deletes), (1, 2, 0));
        assert_eq!(spec_audit(store.log(), "ghost"), SpecAudit::default());
    }

    fn vm(id: u32, vfreq: u32, delivered: u64, violated: bool) -> VmPeriodUsage {
        VmPeriodUsage {
            vm: GlobalVmId(id),
            class: String::new(),
            vfreq_mhz: vfreq,
            vcpus: 2,
            delivered_mhz_s: delivered,
            guaranteed_mhz_s: vfreq as u64 * 2,
            minted_usec: 10,
            spent_usec: 20,
            demanding: true,
            violated,
            offline: false,
        }
    }

    #[test]
    fn aggregation_groups_by_tenant_and_tier_and_prorates_waste() {
        let usage = PeriodUsage {
            period: 7,
            vms: vec![
                vm(0, 500, 900, false),
                vm(1, 500, 1000, true),
                vm(2, 1200, 2400, false),
            ],
            wasted_market_usec: 1_000,
            unattributed_usec: 0,
        };
        let rows = aggregate_usage(&usage, |id| match id.0 {
            0 | 1 => Some("acme".to_owned()),
            2 => Some("bob".to_owned()),
            _ => None,
        });
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].tenant.as_str(), rows[0].vfreq_mhz), ("acme", 500));
        assert_eq!(rows[0].vm_periods, 2);
        assert_eq!(rows[0].guaranteed_mhz_s, 2_000);
        assert_eq!(rows[0].delivered_mhz_s, 1_900);
        assert_eq!(rows[0].auction_usec, 40);
        assert_eq!(rows[0].violated_vm_periods, 1);
        assert_eq!((rows[1].tenant.as_str(), rows[1].vfreq_mhz), ("bob", 1200));
        // Waste prorated by guaranteed share: 2000:2400 of 1000 µs.
        assert_eq!(rows[0].wasted_share_usec, 454);
        assert_eq!(rows[1].wasted_share_usec, 545);
    }

    #[test]
    fn unmapped_vms_are_dropped_not_guessed() {
        let usage = PeriodUsage {
            period: 1,
            vms: vec![vm(9, 500, 1000, false)],
            wasted_market_usec: 0,
            unattributed_usec: 0,
        };
        assert!(aggregate_usage(&usage, |_| None).is_empty());
    }
}
