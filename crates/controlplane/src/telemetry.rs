//! Control-plane metric families.
//!
//! A thin wrapper around a [`vfc_telemetry::Registry`] holding the
//! control plane's metric handles. Families (full reference in
//! `docs/OBSERVABILITY.md`):
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `vfc_cp_admission_accepted_total` | counter | `tenant` |
//! | `vfc_cp_admission_rejected_total` | counter | `tenant` |
//! | `vfc_cp_admission_ratelimited_total` | counter | `tenant` |
//! | `vfc_cp_tenant_used_mhz` | gauge | `tenant` |
//! | `vfc_cp_tenant_used_vcpus` | gauge | `tenant` |
//! | `vfc_cp_tenant_used_vms` | gauge | `tenant` |
//! | `vfc_cp_desired_vms` | gauge | — |
//! | `vfc_cp_spec_log_seq` | gauge | — |
//! | `vfc_cp_reconcile_actions_total` | counter | `action` |
//! | `vfc_cp_reconcile_duration_seconds` | histogram | — |
//! | `vfc_cp_resize_duration_seconds` | histogram | — |
//! | `vfc_cp_shed_total` | counter | `reason` |
//! | `vfc_cp_billing_checkpoint_failures_total` | counter | — |
//!
//! Rate-limited rejections count **only** toward
//! `…_ratelimited_total`, not `…_rejected_total`, so the two series
//! partition rejections into "client too fast" versus "request
//! inadmissible".

use crate::quota::TenantUsage;
use vfc_telemetry::http::{Listener, Refusal};
use vfc_telemetry::{MetricId, Registry, LATENCY_BUCKETS_US};

/// What a reconcile pass did with one spec — the label values of
/// `vfc_cp_reconcile_actions_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// A pending spec was deployed onto the cluster.
    Deploy = 0,
    /// A generation-stale binding had its `F_v` resized live.
    Resize = 1,
    /// A deleted spec's VM was undeployed.
    Undeploy = 2,
    /// A transient failure was re-queued with backoff.
    Retry = 3,
    /// Work existed but the per-period action budget was exhausted.
    Deferred = 4,
    /// A non-transient failure; the spec is left unbound.
    Failed = 5,
}

/// Label values of `vfc_cp_reconcile_actions_total`, indexed by
/// [`ActionKind`] discriminant.
pub const ACTION_LABELS: [&str; 6] = [
    "deploy", "resize", "undeploy", "retry", "deferred", "failed",
];

/// Why the API front door refused work before it reached admission —
/// the label values of `vfc_cp_shed_total`. The first three are the
/// listener's own [`Refusal`]s, counted by the listener
/// ([`ControlPlaneMetrics::count_refusals_of`]); `Backlog` is decided
/// and counted by the API's router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// A client failed to deliver a full request within the read
    /// timeout (slow loris, stalled sender).
    ReadTimeout = 0,
    /// The declared or delivered request size exceeded the body cap.
    BodyTooLarge = 1,
    /// The bounded accept queue was full when the connection arrived.
    QueueFull = 2,
    /// The reconciler backlog was at the shed threshold, so a mutation
    /// was refused to let the loop drain.
    Backlog = 3,
}

/// Label values of `vfc_cp_shed_total`, indexed by [`ShedReason`]
/// discriminant.
pub const SHED_LABELS: [&str; 4] = ["read_timeout", "body_too_large", "queue_full", "backlog"];

/// Registered control-plane metric handles plus their registry.
#[derive(Debug)]
pub struct ControlPlaneMetrics {
    /// The backing registry; render with [`vfc_telemetry::render`] or
    /// serve it next to the node registries.
    pub registry: Registry,
    accepted: MetricId,
    rejected: MetricId,
    ratelimited: MetricId,
    used_mhz: MetricId,
    used_vcpus: MetricId,
    used_vms: MetricId,
    desired_vms: MetricId,
    log_seq: MetricId,
    actions: MetricId,
    reconcile_duration: MetricId,
    resize_duration: MetricId,
    shed: MetricId,
    billing_checkpoint_failures: MetricId,
}

impl Default for ControlPlaneMetrics {
    fn default() -> Self {
        ControlPlaneMetrics::new()
    }
}

impl ControlPlaneMetrics {
    /// Register every family in a fresh registry.
    pub fn new() -> Self {
        let mut r = Registry::new();
        let accepted = r.counter_dyn(
            "vfc_cp_admission_accepted_total",
            "Mutations admitted, by tenant",
            "tenant",
        );
        let rejected = r.counter_dyn(
            "vfc_cp_admission_rejected_total",
            "Mutations rejected (quota, capacity or validation), by tenant",
            "tenant",
        );
        let ratelimited = r.counter_dyn(
            "vfc_cp_admission_ratelimited_total",
            "Mutations rejected by the per-tenant token bucket",
            "tenant",
        );
        let used_mhz = r.gauge_dyn(
            "vfc_cp_tenant_used_mhz",
            "Desired frequency-weighted demand per tenant (MHz)",
            "tenant",
        );
        let used_vcpus = r.gauge_dyn(
            "vfc_cp_tenant_used_vcpus",
            "Desired vCPUs per tenant",
            "tenant",
        );
        let used_vms = r.gauge_dyn(
            "vfc_cp_tenant_used_vms",
            "Desired VM count per tenant",
            "tenant",
        );
        let desired_vms = r.gauge("vfc_cp_desired_vms", "Live specs in the desired state");
        let log_seq = r.gauge(
            "vfc_cp_spec_log_seq",
            "Sequence number of the last appended spec-log event",
        );
        let actions = r.counter_vec(
            "vfc_cp_reconcile_actions_total",
            "Reconcile outcomes, by action",
            "action",
            &ACTION_LABELS,
        );
        let reconcile_duration = r.histogram(
            "vfc_cp_reconcile_duration_seconds",
            "Wall time of one reconcile pass",
            &LATENCY_BUCKETS_US,
        );
        let resize_duration = r.histogram(
            "vfc_cp_resize_duration_seconds",
            "Wall time of one live virtual-frequency resize (cluster call)",
            &LATENCY_BUCKETS_US,
        );
        let shed = r.counter_vec(
            "vfc_cp_shed_total",
            "Requests shed by the API front door before admission, by reason",
            "reason",
            &SHED_LABELS,
        );
        let billing_checkpoint_failures = r.counter(
            "vfc_cp_billing_checkpoint_failures_total",
            "Usage-ledger checkpoints that failed to persist (billing keeps metering in memory)",
        );
        ControlPlaneMetrics {
            registry: r,
            accepted,
            rejected,
            ratelimited,
            used_mhz,
            used_vcpus,
            used_vms,
            desired_vms,
            log_seq,
            actions,
            reconcile_duration,
            resize_duration,
            shed,
            billing_checkpoint_failures,
        }
    }

    /// Count an admitted mutation.
    pub fn accepted(&mut self, tenant: &str) {
        self.registry.inc_dyn(self.accepted, tenant, 1);
    }

    /// Count a rejected mutation (`ratelimited` selects the family).
    pub fn rejected(&mut self, tenant: &str, ratelimited: bool) {
        let id = if ratelimited {
            self.ratelimited
        } else {
            self.rejected
        };
        self.registry.inc_dyn(id, tenant, 1);
    }

    /// Publish one tenant's usage gauges.
    pub fn set_usage(&mut self, tenant: &str, usage: TenantUsage) {
        self.registry.set_dyn(self.used_mhz, tenant, usage.mhz);
        self.registry.set_dyn(self.used_vcpus, tenant, usage.vcpus);
        self.registry.set_dyn(self.used_vms, tenant, usage.vms);
    }

    /// Publish the store-level gauges.
    pub fn set_store(&mut self, desired_vms: u64, log_seq: u64) {
        self.registry.set(self.desired_vms, 0, desired_vms);
        self.registry.set(self.log_seq, 0, log_seq);
    }

    /// Read back one tenant's `(accepted, rejected, ratelimited)`
    /// admission counters (tests, rollups).
    pub fn admission_counts(&self, tenant: &str) -> (u64, u64, u64) {
        (
            self.registry.value_dyn(self.accepted, tenant),
            self.registry.value_dyn(self.rejected, tenant),
            self.registry.value_dyn(self.ratelimited, tenant),
        )
    }

    /// Count `n` reconcile outcomes of one kind.
    pub fn count_actions(&mut self, kind: ActionKind, n: u64) {
        if n > 0 {
            self.registry.inc(self.actions, kind as usize, n);
        }
    }

    /// Read back one action counter (tests, rollups).
    pub fn actions(&self, kind: ActionKind) -> u64 {
        self.registry.value(self.actions, kind as usize)
    }

    /// Record the wall time of a reconcile pass.
    pub fn observe_reconcile_us(&mut self, us: u64) {
        self.registry.observe_us(self.reconcile_duration, 0, us);
    }

    /// Record the wall time of a live-resize cluster call.
    pub fn observe_resize_us(&mut self, us: u64) {
        self.registry.observe_us(self.resize_duration, 0, us);
    }

    /// Count one shed request.
    pub fn shed(&mut self, reason: ShedReason) {
        self.registry.inc(self.shed, reason as usize, 1);
    }

    /// Read `listener`'s own refusal counts into `vfc_cp_shed_total`
    /// from now on. The listener bumps them without a lock, so no shed
    /// waits on the runtime lock to be counted; counts made so far carry
    /// over.
    pub fn count_refusals_of(&mut self, listener: &Listener) {
        for (reason, refusal) in [
            (ShedReason::ReadTimeout, Refusal::ReadTimeout),
            (ShedReason::BodyTooLarge, Refusal::BodyTooLarge),
            (ShedReason::QueueFull, Refusal::QueueFull),
        ] {
            let cell = listener.refusal_counter(refusal);
            self.registry.share(self.shed, reason as usize, cell);
        }
    }

    /// Read back one shed counter (tests, rollups).
    pub fn sheds(&self, reason: ShedReason) -> u64 {
        self.registry.value(self.shed, reason as usize)
    }

    /// Count a usage-ledger checkpoint that failed to persist.
    pub fn billing_checkpoint_failed(&mut self) {
        self.registry.inc(self.billing_checkpoint_failures, 0, 1);
    }

    /// Read back the failed-checkpoint counter (tests, rollups).
    pub fn billing_checkpoint_failures(&self) -> u64 {
        self.registry.value(self.billing_checkpoint_failures, 0)
    }

    /// Render the registry as a Prometheus text page.
    pub fn render(&self) -> String {
        vfc_telemetry::render(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_render_and_partition_rejections() {
        let mut m = ControlPlaneMetrics::new();
        m.accepted("acme");
        m.rejected("acme", false);
        m.rejected("acme", true);
        m.set_usage(
            "acme",
            TenantUsage {
                vms: 2,
                vcpus: 6,
                mhz: 5800,
            },
        );
        m.set_store(2, 3);
        m.count_actions(ActionKind::Deploy, 2);
        m.count_actions(ActionKind::Deferred, 0);
        m.observe_reconcile_us(120);
        m.observe_resize_us(45);
        m.shed(ShedReason::ReadTimeout);
        m.shed(ShedReason::Backlog);
        m.shed(ShedReason::Backlog);
        assert_eq!(m.sheds(ShedReason::ReadTimeout), 1);
        assert_eq!(m.sheds(ShedReason::Backlog), 2);
        assert_eq!(m.sheds(ShedReason::QueueFull), 0);
        assert_eq!(m.actions(ActionKind::Deploy), 2);
        assert_eq!(m.actions(ActionKind::Deferred), 0);
        let page = m.render();
        assert!(page.contains("vfc_cp_admission_accepted_total{tenant=\"acme\"} 1"));
        assert!(page.contains("vfc_cp_admission_rejected_total{tenant=\"acme\"} 1"));
        assert!(page.contains("vfc_cp_admission_ratelimited_total{tenant=\"acme\"} 1"));
        assert!(page.contains("vfc_cp_tenant_used_mhz{tenant=\"acme\"} 5800"));
        assert!(page.contains("vfc_cp_reconcile_actions_total{action=\"deploy\"} 2"));
        assert!(page.contains("vfc_cp_spec_log_seq 3"));
        assert!(page.contains("vfc_cp_resize_duration_seconds_count 1"));
        assert!(page.contains("vfc_cp_shed_total{reason=\"backlog\"} 2"));
    }
}
