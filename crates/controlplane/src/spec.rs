//! Declarative desired-state store.
//!
//! Customers do not call the cluster manager directly: they declare what
//! they want — "tenant `acme` runs a 4-vCPU VM at 1200 MHz" — and the
//! [reconciler](crate::reconcile) makes the cluster match. The store is
//! therefore the single source of truth for *desired* state, and it is
//! structured as an **append-only event log** replayed into a map:
//!
//! * every accepted mutation appends one [`SpecEvent`] with a
//!   monotonically increasing sequence number;
//! * the in-memory [`VmSpec`] map is a pure fold over that log, so
//!   appending each event to the durable log file
//!   ([`vfc_simcore::durable`]: one sealed, fsynced line per mutation,
//!   written *before* the event is applied) is enough to survive a
//!   control-plane crash: a restarted process replays the file and the
//!   reconciler re-converges the cluster against it;
//! * resizes bump the spec's **generation**; the reconciler compares the
//!   generation it last applied against the spec's current one to decide
//!   whether a live virtual-frequency resize is still pending;
//! * the same fold keeps what admission reads on every write: the live
//!   Eq. 7 demands as a histogram (`k·F_v` MHz → count) and each
//!   tenant's [`TenantUsage`], so a write never re-scans the specs.

use crate::quota::TenantUsage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use vfc_billing::SpecAudit;
use vfc_simcore::durable::{self, AppendLog, LogError};
use vfc_simcore::MHz;
use vfc_vmm::VmTemplate;

/// Stable identifier of one desired VM, assigned by the store at
/// creation and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpecId(pub u64);

impl fmt::Display for SpecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec-{}", self.0)
    }
}

/// One desired VM: who owns it, what template it runs, and which
/// generation of the spec this is (bumped on every resize).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Store-assigned identifier.
    pub id: SpecId,
    /// Owning tenant (quota + rate-limit accounting key).
    pub tenant: String,
    /// The requested shape: vCPUs, virtual frequency `F_v`, memory.
    pub template: VmTemplate,
    /// Mutation counter: 1 at creation, +1 per accepted resize.
    pub generation: u64,
}

/// One entry of the append-only spec log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpecEvent {
    /// A VM was admitted.
    Created {
        /// The full spec as admitted (generation 1).
        spec: VmSpec,
    },
    /// An existing VM's virtual frequency was changed.
    Resized {
        /// Which spec.
        id: SpecId,
        /// The new per-vCPU guarantee.
        vfreq: MHz,
        /// The spec's generation after this event.
        generation: u64,
    },
    /// A VM was removed from the desired state.
    Deleted {
        /// Which spec.
        id: SpecId,
    },
}

/// Header line of the spec-log file.
const HEADER: &str = "{\"spec_log\":1}";

/// One record line of the spec-log file.
#[derive(Deserialize)]
struct Line {
    seq: u64,
    event: SpecEvent,
}

/// The line that records `event` at position `seq`.
pub(crate) fn event_line(seq: u64, event: &SpecEvent) -> String {
    let event = serde_json::to_string(event).expect("event serializes");
    format!("{{\"seq\":{seq},\"event\":{event}}}")
}

/// The desired-state store: an event log and its fold.
#[derive(Debug, Default, Clone)]
pub struct SpecStore {
    next_id: u64,
    log: Vec<SpecEvent>,
    specs: BTreeMap<SpecId, VmSpec>,
    /// Tenant of the last `Created` event per id, live or deleted: the
    /// log is append-only, so no id is ever forgotten.
    owner: BTreeMap<SpecId, String>,
    /// Per-tenant event counts over the whole log.
    audit: BTreeMap<String, SpecAudit>,
    /// Live specs by Eq. 7 demand: `k·F_v` MHz → count (no zero counts).
    demands: BTreeMap<u64, u64>,
    /// Each tenant's footprint over its live specs.
    usage: BTreeMap<String, TenantUsage>,
}

impl SpecStore {
    /// An empty store.
    pub fn new() -> Self {
        SpecStore::default()
    }

    /// Number of events appended so far; also the sequence number the
    /// next event will get. Strictly increases over the store's life.
    pub fn seq(&self) -> u64 {
        self.log.len() as u64
    }

    /// The live (non-deleted) specs, in `SpecId` order.
    pub fn specs(&self) -> impl Iterator<Item = &VmSpec> {
        self.specs.values()
    }

    /// Number of live specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no spec is live.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Look up one live spec.
    pub fn get(&self, id: SpecId) -> Option<&VmSpec> {
        self.specs.get(&id)
    }

    /// The raw event log (for diagnostics and tests).
    pub fn log(&self) -> &[SpecEvent] {
        &self.log
    }

    /// `tenant`'s creates, resizes and deletes over the whole log, as
    /// [`spec_audit`](crate::billing::spec_audit) counts them — kept by
    /// the fold, so reading them replays nothing.
    pub fn audit(&self, tenant: &str) -> SpecAudit {
        self.audit.get(tenant).copied().unwrap_or_default()
    }

    /// `tenant`'s footprint over its live specs, kept by the fold.
    pub fn usage(&self, tenant: &str) -> TenantUsage {
        self.usage.get(tenant).copied().unwrap_or_default()
    }

    /// The live specs' Eq. 7 demands, `k·F_v` MHz → count, kept by the
    /// fold.
    pub(crate) fn demands(&self) -> &BTreeMap<u64, u64> {
        &self.demands
    }

    /// The spec [`create`](SpecStore::create) would admit — the next id,
    /// generation 1 — without admitting it.
    pub(crate) fn stage(&self, tenant: &str, template: VmTemplate) -> VmSpec {
        VmSpec {
            id: SpecId(self.next_id),
            tenant: tenant.to_owned(),
            template,
            generation: 1,
        }
    }

    /// Append a creation event and return the new spec's id. The caller
    /// (the admission layer) has already validated the template.
    pub fn create(&mut self, tenant: &str, template: VmTemplate) -> SpecId {
        let spec = self.stage(tenant, template);
        let id = spec.id;
        self.apply(SpecEvent::Created { spec });
        id
    }

    /// Append a resize event; returns the new generation, or `None` if
    /// the spec does not exist.
    pub fn resize(&mut self, id: SpecId, vfreq: MHz) -> Option<u64> {
        let generation = self.specs.get(&id)?.generation + 1;
        self.apply(SpecEvent::Resized {
            id,
            vfreq,
            generation,
        });
        Some(generation)
    }

    /// Append a deletion event; returns the removed spec, or `None` if
    /// it does not exist.
    pub fn delete(&mut self, id: SpecId) -> Option<VmSpec> {
        let spec = self.specs.get(&id)?.clone();
        self.apply(SpecEvent::Deleted { id });
        Some(spec)
    }

    /// Fold one event into the map, the audit counts, the demand
    /// histogram and the tenant's usage (shared by live mutation and
    /// replay).
    pub(crate) fn apply(&mut self, event: SpecEvent) {
        match &event {
            SpecEvent::Created { spec } => {
                self.next_id = self.next_id.max(spec.id.0 + 1);
                let (vcpus, demand) = (spec.template.vcpus, spec.template.freq_demand_mhz());
                *self.demands.entry(demand).or_default() += 1;
                tenant_entry(&mut self.usage, &spec.tenant).add(vcpus, demand);
                tenant_entry(&mut self.audit, &spec.tenant).creates += 1;
                self.owner.insert(spec.id, spec.tenant.clone());
                self.specs.insert(spec.id, spec.clone());
            }
            SpecEvent::Resized {
                id,
                vfreq,
                generation,
            } => {
                if let Some(spec) = self.specs.get_mut(id) {
                    let old = spec.template.freq_demand_mhz();
                    spec.template.vfreq = *vfreq;
                    spec.generation = *generation;
                    let new = spec.template.freq_demand_mhz();
                    forget_demand(&mut self.demands, old);
                    *self.demands.entry(new).or_default() += 1;
                    let usage = tenant_entry(&mut self.usage, &spec.tenant);
                    usage.mhz = usage.mhz - old + new;
                }
                if let Some(audit) = self.audit_of(id) {
                    audit.resizes += 1;
                }
            }
            SpecEvent::Deleted { id } => {
                if let Some(spec) = self.specs.remove(id) {
                    let demand = spec.template.freq_demand_mhz();
                    forget_demand(&mut self.demands, demand);
                    tenant_entry(&mut self.usage, &spec.tenant).remove(spec.template.vcpus, demand);
                }
                if let Some(audit) = self.audit_of(id) {
                    audit.deletes += 1;
                }
            }
        }
        self.log.push(event);
    }

    /// The counts of `id`'s owner, whether or not the spec is still live.
    fn audit_of(&mut self, id: &SpecId) -> Option<&mut SpecAudit> {
        self.audit.get_mut(self.owner.get(id)?)
    }

    /// Export the whole event log as one sealed batch, atomically and
    /// durably ([`durable::replace_file`]). A persistent control plane
    /// does not call this — it appends one line per mutation.
    pub fn save(&self, path: &Path) -> Result<(), LogError> {
        let lines = (0u64..).zip(&self.log).map(|(seq, e)| event_line(seq, e));
        Ok(durable::replace_file(
            path,
            durable::render(HEADER, lines).as_bytes(),
        )?)
    }

    /// Rebuild a store by replaying a persisted log exactly as a restart
    /// would: a batch whose append never returned is ignored, any other
    /// defect is a typed error.
    pub fn load(path: &Path) -> Result<SpecStore, LogError> {
        let mut store = SpecStore::new();
        durable::parse(&durable::read(path)?, HEADER, |line, json| {
            store.replay(line, json)
        })?;
        Ok(store)
    }

    /// [`load`](SpecStore::load) plus the handle that appends the next
    /// event; a missing file is created empty.
    pub(crate) fn open(path: &Path) -> Result<(SpecStore, AppendLog), LogError> {
        let mut store = SpecStore::new();
        let log = AppendLog::open(path, HEADER, |line, json| store.replay(line, json))?;
        Ok((store, log))
    }

    /// Fold one committed line's event; returns its `seq` for the chain
    /// check.
    fn replay(&mut self, line: usize, json: &str) -> Result<u64, LogError> {
        let entry: Line = serde_json::from_str(json).map_err(|e| LogError::Corrupt {
            line,
            reason: e.to_string(),
        })?;
        self.apply(entry.event);
        Ok(entry.seq)
    }
}

/// `tenant`'s entry, created on first use (no key is cloned otherwise).
fn tenant_entry<'a, T: Default>(map: &'a mut BTreeMap<String, T>, tenant: &str) -> &'a mut T {
    if !map.contains_key(tenant) {
        map.insert(tenant.to_owned(), T::default());
    }
    map.get_mut(tenant).expect("inserted above")
}

/// One live spec of `demand` MHz fewer.
fn forget_demand(demands: &mut BTreeMap<u64, u64>, demand: u64) {
    if let Some(count) = demands.get_mut(&demand) {
        *count -= 1;
        if *count == 0 {
            demands.remove(&demand);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];

    /// The fold's histogram and every tenant's usage equal a recount over
    /// the live specs.
    fn check_fold(store: &SpecStore) -> std::result::Result<(), String> {
        let mut demands = BTreeMap::new();
        let mut usage = [TenantUsage::default(); 4];
        for spec in store.specs() {
            let demand = spec.template.freq_demand_mhz();
            *demands.entry(demand).or_insert(0u64) += 1;
            let t = TENANTS.iter().position(|t| *t == spec.tenant).unwrap();
            usage[t].add(spec.template.vcpus, demand);
        }
        prop_assert_eq!(store.demands(), &demands);
        for (tenant, usage) in TENANTS.iter().zip(usage) {
            prop_assert_eq!(store.usage(tenant), usage, "tenant {}", tenant);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn store_fold_equals_recount(
            ops in proptest::collection::vec((0u8..3, 0usize..4, 0usize..64, 0u32..3), 0..120),
        ) {
            let mut store = SpecStore::new();
            // Every id ever created: a resize or delete of a dead one is
            // refused and appends nothing.
            let mut ids: Vec<SpecId> = Vec::new();
            for (op, tenant, pick, size) in ops {
                let target = ids.get(pick % ids.len().max(1)).copied();
                let vfreq = MHz(600 * (size + 1));
                match (op, target) {
                    (1, Some(id)) => {
                        store.resize(id, vfreq);
                    }
                    (2, Some(id)) => {
                        store.delete(id);
                    }
                    _ => {
                        let template = VmTemplate::new("vm", 1 << size, vfreq);
                        ids.push(store.create(TENANTS[tenant], template));
                    }
                }
                check_fold(&store)?;
            }
            let dir = std::env::temp_dir().join(format!("vfc-cp-fold-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("specs.log");
            store.save(&path).unwrap();
            let back = SpecStore::load(&path).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            check_fold(&back)?;
            prop_assert_eq!(back.demands(), store.demands());
        }
    }

    #[test]
    fn create_resize_delete_fold() {
        let mut s = SpecStore::new();
        let a = s.create("acme", VmTemplate::small());
        let b = s.create("acme", VmTemplate::medium());
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).unwrap().generation, 1);

        assert_eq!(s.resize(a, MHz(900)), Some(2));
        assert_eq!(s.get(a).unwrap().template.vfreq, MHz(900));
        assert_eq!(s.get(a).unwrap().generation, 2);

        assert!(s.delete(b).is_some());
        assert!(s.get(b).is_none());
        assert_eq!(s.delete(b), None);
        assert_eq!(s.resize(b, MHz(700)), None);
        assert_eq!(s.seq(), 4, "dead-id mutations append nothing");
    }

    #[test]
    fn ids_are_never_reused_after_delete() {
        let mut s = SpecStore::new();
        let a = s.create("t", VmTemplate::small());
        s.delete(a).unwrap();
        let b = s.create("t", VmTemplate::small());
        assert!(b.0 > a.0);
    }

    #[test]
    fn log_replay_reproduces_the_store() {
        let dir = std::env::temp_dir().join(format!("vfc-cp-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("specs.json");

        let mut s = SpecStore::new();
        let a = s.create("acme", VmTemplate::small());
        let b = s.create("umbrella", VmTemplate::large());
        s.resize(a, MHz(800)).unwrap();
        s.delete(b).unwrap();
        s.save(&path).unwrap();

        let back = SpecStore::load(&path).unwrap();
        assert_eq!(back.seq(), s.seq());
        assert_eq!(
            back.specs().cloned().collect::<Vec<_>>(),
            s.specs().cloned().collect::<Vec<_>>()
        );
        // New ids continue after the replayed ones.
        let mut back = back;
        let c = back.create("acme", VmTemplate::small());
        assert!(c.0 > a.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
