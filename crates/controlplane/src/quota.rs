//! Per-tenant quotas and rate limiting.
//!
//! The paper's placement constraint (Eq. 7) protects *nodes* from
//! oversubscription; in a multi-tenant cloud the provider also needs to
//! protect the *cluster* from any single customer. Two mechanisms:
//!
//! * [`TenantQuota`] — static ceilings on a tenant's aggregate desired
//!   state: VM count, total vCPUs, and total frequency-weighted demand
//!   `Σ k_v·F_v` in MHz (the same unit Eq. 7 budgets nodes in, so a
//!   tenant's quota is directly comparable to node capacity);
//! * [`TokenBucket`] — a deterministic token bucket refilled once per
//!   control-plane tick, bounding the *mutation rate* (create, resize,
//!   delete all draw a token) so a misbehaving client cannot churn the
//!   reconciler into livelock. Deterministic on purpose: no wall clock,
//!   the bucket refills when [`TokenBucket::tick`] is called, which the
//!   control plane does once per reconcile period — tests and the churn
//!   benchmark replay identically from a seed.

use serde::{Deserialize, Serialize};

/// Aggregate ceilings for one tenant's desired state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantQuota {
    /// Maximum number of live VMs.
    pub max_vms: u64,
    /// Maximum total vCPUs across the tenant's VMs.
    pub max_vcpus: u64,
    /// Maximum total frequency-weighted demand `Σ k_v·F_v` (MHz).
    pub max_mhz: u64,
}

impl TenantQuota {
    /// A quota that never binds (for tests and single-tenant setups).
    pub fn unlimited() -> Self {
        TenantQuota {
            max_vms: u64::MAX,
            max_vcpus: u64::MAX,
            max_mhz: u64::MAX,
        }
    }
}

/// A tenant's current aggregate footprint in the desired state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Live VMs.
    pub vms: u64,
    /// Total vCPUs.
    pub vcpus: u64,
    /// Total frequency-weighted demand (MHz).
    pub mhz: u64,
}

impl TenantUsage {
    /// Add one template's footprint.
    pub fn add(&mut self, vcpus: u32, demand_mhz: u64) {
        self.vms += 1;
        self.vcpus += vcpus as u64;
        self.mhz += demand_mhz;
    }

    /// Take one template's footprint away again.
    pub(crate) fn remove(&mut self, vcpus: u32, demand_mhz: u64) {
        self.vms -= 1;
        self.vcpus -= vcpus as u64;
        self.mhz -= demand_mhz;
    }
}

/// Deterministic token bucket: starts full, spends one token per
/// mutation, refills `refill_per_tick` (clamped at `capacity`) each
/// control-plane tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenBucket {
    capacity: u64,
    tokens: u64,
    refill_per_tick: u64,
}

impl TokenBucket {
    /// A bucket holding `capacity` tokens, refilled by `refill_per_tick`
    /// per [`tick`](TokenBucket::tick). Starts full (a fresh tenant can
    /// burst up to `capacity` mutations immediately).
    pub fn new(capacity: u64, refill_per_tick: u64) -> Self {
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_tick,
        }
    }

    /// Spend one token; `false` (and no state change) when empty.
    pub fn try_take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    /// Refill for one control-plane period.
    pub fn tick(&mut self) {
        self.tokens = (self.tokens + self.refill_per_tick).min(self.capacity);
    }

    /// Tokens currently available.
    pub fn available(&self) -> u64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bursts_then_throttles_then_refills() {
        let mut b = TokenBucket::new(3, 2);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "empty bucket rejects");
        assert!(!b.try_take(), "rejection does not consume");
        b.tick();
        assert_eq!(b.available(), 2);
        b.tick();
        assert_eq!(b.available(), 3, "refill clamps at capacity");
    }

    #[test]
    fn usage_accumulates_template_footprints() {
        let mut u = TenantUsage::default();
        u.add(2, 1000);
        u.add(4, 4800);
        assert_eq!(
            u,
            TenantUsage {
                vms: 2,
                vcpus: 6,
                mhz: 5800
            }
        );
    }
}
