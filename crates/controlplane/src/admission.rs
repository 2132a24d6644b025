//! Admission control: every mutation is validated before it may touch
//! the desired state.
//!
//! The checks run in a fixed order, and a request must pass all of them:
//!
//! 1. **tenant** — the tenant must be registered (a quota on file);
//! 2. **rate** — one token from the tenant's [`TokenBucket`]; a flood of
//!    invalid requests still drains the bucket, which is exactly what a
//!    rate limiter is for;
//! 3. **shape** — [`VmTemplate::validate`] rejects degenerate requests
//!    (zero `F_v`, zero vCPUs) at the boundary;
//! 4. **quota** — the tenant's post-mutation footprint must stay within
//!    its [`TenantQuota`] on all three axes;
//! 5. **capacity** — the post-mutation desired state must be *feasible*
//!    under the paper's core splitting constraint (Eq. 7): a
//!    first-fit-decreasing pack of every desired VM's `k_v·F_v` demand
//!    into the up nodes' `k_n·F_n^MAX` budgets must succeed. Feasibility
//!    is checked against capacities, not current placements — realizing
//!    the state (including any migrations fragmentation makes necessary)
//!    is the [reconciler](crate::reconcile)'s job.
//!
//! Rejections are **typed errors** ([`AdmissionError`]), never panics;
//! each maps to a stable HTTP status for the API layer.

use crate::quota::{TenantQuota, TenantUsage, TokenBucket};
use crate::spec::{event_line, SpecEvent, SpecId, SpecStore, VmSpec};
use crate::telemetry::ControlPlaneMetrics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use vfc_billing::SlaClass;
use vfc_cluster::NodeLoad;
use vfc_simcore::durable::{AppendLog, LogError};
use vfc_simcore::MHz;
use vfc_vmm::VmTemplate;

/// Why a mutation was refused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionError {
    /// The template failed shape validation (zero `F_v`, zero vCPUs…).
    InvalidTemplate(String),
    /// The tenant has no quota on file.
    UnknownTenant(String),
    /// No live spec with this id.
    UnknownSpec(SpecId),
    /// The mutation would push the tenant past a quota axis.
    QuotaExceeded {
        /// Offending tenant.
        tenant: String,
        /// Which axis (`"vms"`, `"vcpus"` or `"mhz"`).
        resource: String,
        /// Footprint after the mutation.
        requested: u64,
        /// The tenant's ceiling on that axis.
        limit: u64,
    },
    /// The tenant's token bucket is empty.
    RateLimited(String),
    /// The post-mutation desired state does not pack into the up nodes'
    /// Eq. 7 budgets.
    InsufficientCapacity {
        /// Total desired demand after the mutation (MHz).
        demand_mhz: u64,
        /// Total Eq. 7 budget of the nodes currently up (MHz).
        capacity_mhz: u64,
    },
    /// The mutation could not be made durable; it was **not** applied,
    /// so retrying it is safe.
    Internal(String),
}

impl AdmissionError {
    /// The HTTP status the API layer answers with.
    pub fn http_status(&self) -> u16 {
        match self {
            AdmissionError::InvalidTemplate(_) => 400,
            AdmissionError::UnknownTenant(_) => 403,
            AdmissionError::UnknownSpec(_) => 404,
            AdmissionError::QuotaExceeded { .. } => 403,
            AdmissionError::RateLimited(_) => 429,
            AdmissionError::InsufficientCapacity { .. } => 507,
            AdmissionError::Internal(_) => 500,
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::InvalidTemplate(msg) => write!(f, "invalid template: {msg}"),
            AdmissionError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            AdmissionError::UnknownSpec(id) => write!(f, "no such vm {id}"),
            AdmissionError::QuotaExceeded {
                tenant,
                resource,
                requested,
                limit,
            } => write!(
                f,
                "tenant {tenant:?} quota exceeded on {resource}: {requested} > {limit}"
            ),
            AdmissionError::RateLimited(t) => write!(f, "tenant {t:?} rate limited"),
            AdmissionError::InsufficientCapacity {
                demand_mhz,
                capacity_mhz,
            } => write!(
                f,
                "cluster cannot hold the desired state: {demand_mhz} MHz demanded, \
                 {capacity_mhz} MHz of Eq. 7 budget up"
            ),
            AdmissionError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Per-tenant mutation rate: a bucket of `burst` tokens refilled by
/// `per_tick` every control-plane period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Bucket capacity (max burst of back-to-back mutations).
    pub burst: u64,
    /// Tokens refilled per [`ControlPlane::tick`].
    pub per_tick: u64,
}

impl Default for RateLimit {
    fn default() -> Self {
        RateLimit {
            burst: 8,
            per_tick: 2,
        }
    }
}

/// The admission front end: desired-state store + per-tenant quotas,
/// token buckets and metrics, behind validating mutation methods.
#[derive(Debug)]
pub struct ControlPlane {
    store: SpecStore,
    quotas: BTreeMap<String, TenantQuota>,
    buckets: BTreeMap<String, TokenBucket>,
    slas: BTreeMap<String, SlaClass>,
    rate: RateLimit,
    /// The spec-log file; it holds every event of `store`.
    log: Option<AppendLog>,
    /// Admission / reconcile metric families.
    pub metrics: ControlPlaneMetrics,
}

impl Default for ControlPlane {
    fn default() -> Self {
        ControlPlane::new()
    }
}

impl ControlPlane {
    /// An empty, non-persistent control plane with the default rate
    /// limit.
    pub fn new() -> Self {
        ControlPlane {
            store: SpecStore::new(),
            quotas: BTreeMap::new(),
            buckets: BTreeMap::new(),
            slas: BTreeMap::new(),
            rate: RateLimit::default(),
            log: None,
            metrics: ControlPlaneMetrics::new(),
        }
    }

    /// A control plane whose spec log lives at `path`: every accepted
    /// mutation is appended there, durably, before it takes effect. If
    /// the file already exists the log is replayed (crash recovery):
    /// tenants still need to be re-registered, but specs — and the ids
    /// they were ACKed under — survive. Otherwise it is created.
    pub fn with_persistence(path: PathBuf) -> Result<Self, LogError> {
        let mut cp = ControlPlane::new();
        let (store, log) = SpecStore::open(&path)?;
        cp.store = store;
        cp.log = Some(log);
        Ok(cp)
    }

    /// Override the rate limit applied to tenants registered after this
    /// call.
    pub fn set_rate_limit(&mut self, rate: RateLimit) {
        self.rate = rate;
    }

    /// Register a tenant with its quota; replaces any previous quota but
    /// keeps an existing bucket (re-registering must not reset a drained
    /// rate limiter).
    pub fn add_tenant(&mut self, name: &str, quota: TenantQuota) {
        self.quotas.insert(name.to_owned(), quota);
        self.buckets
            .entry(name.to_owned())
            .or_insert_with(|| TokenBucket::new(self.rate.burst, self.rate.per_tick));
    }

    /// Register a tenant with its quota *and* SLA class. Plain
    /// [`add_tenant`](ControlPlane::add_tenant) leaves the tenant on the
    /// default class ([`SlaClass::default`]: guaranteed).
    pub fn add_tenant_with_sla(&mut self, name: &str, quota: TenantQuota, sla: SlaClass) {
        self.add_tenant(name, quota);
        self.slas.insert(name.to_owned(), sla);
    }

    /// All explicitly registered SLA classes, tenant-ordered.
    pub fn slas(&self) -> impl Iterator<Item = (&str, &SlaClass)> {
        self.slas.iter().map(|(t, c)| (t.as_str(), c))
    }

    /// The desired-state store (read-only; mutations go through the
    /// admission methods).
    pub fn store(&self) -> &SpecStore {
        &self.store
    }

    /// A tenant's current footprint, summed over its live specs.
    pub fn usage(&self, tenant: &str) -> TenantUsage {
        let mut usage = TenantUsage::default();
        for spec in self.store.specs().filter(|s| s.tenant == tenant) {
            usage.add(spec.template.vcpus, spec.template.freq_demand_mhz());
        }
        usage
    }

    /// A tenant's quota, if registered.
    pub fn quota(&self, tenant: &str) -> Option<TenantQuota> {
        self.quotas.get(tenant).copied()
    }

    /// Admit a new VM for `tenant`. On success the spec is appended to
    /// the log (durably, when persistent) and its id returned; the
    /// reconciler will deploy it.
    pub fn create_vm(
        &mut self,
        tenant: &str,
        template: VmTemplate,
        loads: &[NodeLoad],
    ) -> Result<SpecId, AdmissionError> {
        self.admit_common(tenant)?;
        if let Err(msg) = template.validate() {
            self.metrics.rejected(tenant, false);
            return Err(AdmissionError::InvalidTemplate(msg));
        }
        let mut usage = self.usage(tenant);
        usage.add(template.vcpus, template.freq_demand_mhz());
        if let Err(e) = self.check_quota(tenant, usage) {
            self.metrics.rejected(tenant, false);
            return Err(e);
        }
        let demands: Vec<u64> = self
            .store
            .specs()
            .map(|s| s.template.freq_demand_mhz())
            .chain(std::iter::once(template.freq_demand_mhz()))
            .collect();
        if let Err(e) = check_capacity(&demands, loads) {
            self.metrics.rejected(tenant, false);
            return Err(e);
        }
        let spec = self.store.stage(tenant, template);
        let id = spec.id;
        self.commit(tenant, SpecEvent::Created { spec })?;
        Ok(id)
    }

    /// Admit a live virtual-frequency resize of an existing VM. On
    /// success returns the spec's new generation; the reconciler will
    /// apply the resize to the running VM.
    pub fn resize_vm(
        &mut self,
        id: SpecId,
        new_vfreq: MHz,
        loads: &[NodeLoad],
    ) -> Result<u64, AdmissionError> {
        let spec = self
            .store
            .get(id)
            .cloned()
            .ok_or(AdmissionError::UnknownSpec(id))?;
        let tenant = spec.tenant.clone();
        self.admit_common(&tenant)?;
        let mut resized = spec.template.clone();
        resized.vfreq = new_vfreq;
        if let Err(msg) = resized.validate() {
            self.metrics.rejected(&tenant, false);
            return Err(AdmissionError::InvalidTemplate(msg));
        }
        let mut usage = self.usage(&tenant);
        usage.mhz = usage.mhz - spec.template.freq_demand_mhz() + resized.freq_demand_mhz();
        if let Err(e) = self.check_quota(&tenant, usage) {
            self.metrics.rejected(&tenant, false);
            return Err(e);
        }
        let demands: Vec<u64> = self
            .store
            .specs()
            .map(|s| {
                if s.id == id {
                    resized.freq_demand_mhz()
                } else {
                    s.template.freq_demand_mhz()
                }
            })
            .collect();
        if let Err(e) = check_capacity(&demands, loads) {
            self.metrics.rejected(&tenant, false);
            return Err(e);
        }
        let generation = spec.generation + 1;
        self.commit(
            &tenant,
            SpecEvent::Resized {
                id,
                vfreq: new_vfreq,
                generation,
            },
        )?;
        Ok(generation)
    }

    /// Remove a VM from the desired state. Deletions free capacity so
    /// they face no quota or capacity check, but they do draw a rate
    /// token — churn is churn.
    pub fn delete_vm(&mut self, id: SpecId) -> Result<VmSpec, AdmissionError> {
        let spec = self
            .store
            .get(id)
            .cloned()
            .ok_or(AdmissionError::UnknownSpec(id))?;
        self.admit_common(&spec.tenant)?;
        self.commit(&spec.tenant, SpecEvent::Deleted { id })?;
        Ok(spec)
    }

    /// One control-plane period: refill every tenant's token bucket and
    /// refresh the usage gauges. Call once per reconcile period.
    pub fn tick(&mut self) {
        for bucket in self.buckets.values_mut() {
            bucket.tick();
        }
        let tenants: Vec<String> = self.quotas.keys().cloned().collect();
        for tenant in tenants {
            let usage = self.usage(&tenant);
            self.metrics.set_usage(&tenant, usage);
        }
        self.metrics
            .set_store(self.store.len() as u64, self.store.seq());
    }

    /// Tenant registration + rate limit, shared by every mutation.
    fn admit_common(&mut self, tenant: &str) -> Result<(), AdmissionError> {
        if !self.quotas.contains_key(tenant) {
            self.metrics.rejected(tenant, false);
            return Err(AdmissionError::UnknownTenant(tenant.to_owned()));
        }
        let bucket = self
            .buckets
            .get_mut(tenant)
            .expect("every registered tenant has a bucket");
        if !bucket.try_take() {
            self.metrics.rejected(tenant, true);
            return Err(AdmissionError::RateLimited(tenant.to_owned()));
        }
        Ok(())
    }

    fn check_quota(&self, tenant: &str, usage: TenantUsage) -> Result<(), AdmissionError> {
        let quota = self.quotas[tenant];
        let axes = [
            ("vms", usage.vms, quota.max_vms),
            ("vcpus", usage.vcpus, quota.max_vcpus),
            ("mhz", usage.mhz, quota.max_mhz),
        ];
        for (resource, requested, limit) in axes {
            if requested > limit {
                return Err(AdmissionError::QuotaExceeded {
                    tenant: tenant.to_owned(),
                    resource: resource.to_owned(),
                    requested,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Take an admitted mutation, disk first: append its event to the
    /// spec-log file, and only once that is durable apply and count it.
    /// On I/O failure nothing has happened — memory, counters and the
    /// file's committed content are as before — and the caller gets a
    /// 500-class error it can safely retry.
    fn commit(&mut self, tenant: &str, event: SpecEvent) -> Result<(), AdmissionError> {
        if let Some(log) = &mut self.log {
            log.append([event_line(self.store.seq(), &event)])
                .map_err(|e| AdmissionError::Internal(format!("spec log append: {e}")))?;
        }
        self.store.apply(event);
        self.metrics.accepted(tenant);
        self.metrics
            .set_store(self.store.len() as u64, self.store.seq());
        Ok(())
    }
}

/// First-fit-decreasing feasibility check of `demands` (each `k_v·F_v`,
/// MHz) against the Eq. 7 budgets (`k_n·F_n^MAX`, MHz) of the nodes that
/// are up.
fn check_capacity(demands: &[u64], loads: &[NodeLoad]) -> Result<(), AdmissionError> {
    let mut free: Vec<u64> = loads
        .iter()
        .filter(|n| n.up)
        .map(|n| n.capacity_mhz)
        .collect();
    let mut sorted: Vec<u64> = demands.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let demand_mhz: u64 = sorted.iter().sum();
    let capacity_mhz: u64 = free.iter().sum();
    for demand in sorted {
        match free.iter_mut().find(|f| **f >= demand) {
            Some(slot) => *slot -= demand,
            None => {
                return Err(AdmissionError::InsufficientCapacity {
                    demand_mhz,
                    capacity_mhz,
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(capacities_mhz: &[u64]) -> Vec<NodeLoad> {
        capacities_mhz
            .iter()
            .enumerate()
            .map(|(i, &capacity_mhz)| NodeLoad {
                name: format!("n-{i}"),
                up: true,
                used_mhz: 0,
                capacity_mhz,
                used_vcpus: 0,
                threads: 8,
                used_mem_gb: 0,
                mem_gb: 64,
            })
            .collect()
    }

    fn quota(max_vms: u64, max_vcpus: u64, max_mhz: u64) -> TenantQuota {
        TenantQuota {
            max_vms,
            max_vcpus,
            max_mhz,
        }
    }

    #[test]
    fn unknown_tenant_and_bad_template_are_rejected() {
        let mut cp = ControlPlane::new();
        let l = loads(&[9600]);
        assert_eq!(
            cp.create_vm("ghost", VmTemplate::small(), &l),
            Err(AdmissionError::UnknownTenant("ghost".into()))
        );
        cp.add_tenant("acme", TenantQuota::unlimited());
        let err = cp
            .create_vm("acme", VmTemplate::new("z", 2, MHz(0)), &l)
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InvalidTemplate(_)));
        assert_eq!(err.http_status(), 400);
    }

    #[test]
    fn quota_axes_are_enforced_independently() {
        let mut cp = ControlPlane::new();
        let l = loads(&[100_000]);
        cp.add_tenant("acme", quota(10, 4, 100_000));
        cp.create_vm("acme", VmTemplate::medium(), &l).unwrap();
        // 4 + 4 vCPUs > 4.
        let err = cp.create_vm("acme", VmTemplate::medium(), &l).unwrap_err();
        assert!(
            matches!(&err, AdmissionError::QuotaExceeded { resource, .. } if resource == "vcpus"),
            "{err:?}"
        );
        assert_eq!(err.http_status(), 403);
        // Usage is unchanged by the rejection.
        assert_eq!(cp.usage("acme").vms, 1);
    }

    #[test]
    fn rate_limiter_drains_and_refills() {
        let mut cp = ControlPlane::new();
        cp.set_rate_limit(RateLimit {
            burst: 2,
            per_tick: 1,
        });
        cp.add_tenant("acme", TenantQuota::unlimited());
        let l = loads(&[1_000_000]);
        cp.create_vm("acme", VmTemplate::small(), &l).unwrap();
        cp.create_vm("acme", VmTemplate::small(), &l).unwrap();
        assert_eq!(
            cp.create_vm("acme", VmTemplate::small(), &l),
            Err(AdmissionError::RateLimited("acme".into()))
        );
        cp.tick();
        cp.create_vm("acme", VmTemplate::small(), &l).unwrap();
        assert_eq!(cp.metrics.admission_counts("acme"), (3, 0, 1));
    }

    #[test]
    fn capacity_check_is_a_bin_pack_not_a_sum() {
        let mut cp = ControlPlane::new();
        cp.add_tenant("acme", TenantQuota::unlimited());
        // Two nodes of 5000: after two 4000-MHz VMs, a 2000-MHz VM
        // passes the naive sum check (10000 total) but packs into
        // neither 1000-MHz remainder.
        let l = loads(&[5000, 5000]);
        cp.create_vm("acme", VmTemplate::new("a", 2, MHz(2000)), &l)
            .unwrap();
        cp.create_vm("acme", VmTemplate::new("b", 2, MHz(2000)), &l)
            .unwrap();
        let err = cp
            .create_vm("acme", VmTemplate::new("c", 2, MHz(1000)), &l)
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InsufficientCapacity { .. }));
        assert_eq!(err.http_status(), 507);
        // A VM that fits the remainder is still admitted.
        cp.create_vm("acme", VmTemplate::new("d", 1, MHz(1000)), &l)
            .unwrap();
    }

    #[test]
    fn down_nodes_contribute_no_capacity() {
        let mut cp = ControlPlane::new();
        cp.add_tenant("acme", TenantQuota::unlimited());
        let mut l = loads(&[9600, 9600]);
        l[1].up = false;
        cp.create_vm("acme", VmTemplate::new("a", 4, MHz(2400)), &l)
            .unwrap();
        let err = cp
            .create_vm("acme", VmTemplate::new("b", 1, MHz(500)), &l)
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InsufficientCapacity { .. }));
    }

    #[test]
    fn resize_is_admitted_against_the_delta() {
        let mut cp = ControlPlane::new();
        cp.add_tenant("acme", quota(10, 100, 6000));
        let l = loads(&[9600]);
        let id = cp
            .create_vm("acme", VmTemplate::new("a", 2, MHz(1200)), &l)
            .unwrap();
        // 2×2900 = 5800 ≤ 6000 quota and ≤ 9600 capacity.
        assert_eq!(cp.resize_vm(id, MHz(2900), &l), Ok(2));
        // 2×3100 = 6200 > 6000 quota.
        let err = cp.resize_vm(id, MHz(3100), &l).unwrap_err();
        assert!(
            matches!(&err, AdmissionError::QuotaExceeded { resource, .. } if resource == "mhz")
        );
        // Unknown spec after delete.
        cp.delete_vm(id).unwrap();
        assert_eq!(
            cp.resize_vm(id, MHz(800), &l),
            Err(AdmissionError::UnknownSpec(id))
        );
    }

    /// Everything a mutation may touch: the fold, the tenant's footprint,
    /// its admission counters and the exported log-seq gauge.
    #[cfg(target_os = "linux")]
    fn observable(cp: &ControlPlane) -> (u64, Vec<VmSpec>, TenantUsage, (u64, u64, u64), bool) {
        let seq = cp.store().seq();
        let gauge = format!("vfc_cp_spec_log_seq {seq}\n");
        (
            seq,
            cp.store().specs().cloned().collect(),
            cp.usage("acme"),
            cp.metrics.admission_counts("acme"),
            cp.metrics.render().contains(&gauge),
        )
    }

    // A real error from a real syscall: every `write` to `/dev/full` is
    // `ENOSPC`.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_spec_log_write_changes_nothing_and_the_retry_is_clean() {
        let dir = std::env::temp_dir().join(format!("vfc-cp-enospc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("specs.log");
        let _ = std::fs::remove_file(&path);
        let mut cp = ControlPlane::with_persistence(path.clone()).unwrap();
        cp.add_tenant("acme", TenantQuota::unlimited());
        let l = loads(&[100_000]);
        let a = cp.create_vm("acme", VmTemplate::small(), &l).unwrap();

        let full = AppendLog::resume(std::path::Path::new("/dev/full"), 1, 0).unwrap();
        let good = cp.log.replace(full).unwrap();
        let before = observable(&cp);
        assert!(before.4);
        let tokens = cp.buckets["acme"].available();
        let errors = [
            cp.create_vm("acme", VmTemplate::medium(), &l).unwrap_err(),
            cp.resize_vm(a, MHz(900), &l).unwrap_err(),
            cp.delete_vm(a).unwrap_err(),
        ];
        for e in &errors {
            assert!(matches!(e, AdmissionError::Internal(_)), "{e:?}");
            assert_eq!(e.http_status(), 500);
        }
        assert_eq!(observable(&cp), before, "a 500 means nothing happened");
        assert_eq!(cp.buckets["acme"].available(), tokens - 3, "churn is churn");

        // Disk back: each retry gets what the first attempt would have.
        cp.log = Some(good);
        let b = cp.create_vm("acme", VmTemplate::medium(), &l).unwrap();
        assert_eq!(b, SpecId(a.0 + 1));
        assert_eq!(cp.resize_vm(a, MHz(900), &l), Ok(2));
        cp.delete_vm(a).unwrap();
        let back = SpecStore::load(&path).unwrap();
        assert_eq!(back.log(), cp.store().log());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
