//! Stage 3 — enforcing guaranteed cycles and earning credits (§III.B.3).
//!
//! Two things happen here:
//!
//! 1. **Credits** (Eq. 4): a VM whose vCPUs consumed less than their
//!    guaranteed cycles `C_i` earns the difference into its wallet. The
//!    wallet pays for market cycles in the auction (stage 4), prioritizing
//!    frugal VMs over chronically greedy ones.
//! 2. **Base capping** (Eq. 5): each vCPU's allocation starts at
//!    `c = min(e, C_i)` — its estimated need, but never more than its
//!    guarantee (bursting beyond `C_i` is the auction's job, not a right).

use crate::estimate::Estimate;
use crate::monitor::VcpuObservation;
use std::collections::HashMap;
use vfc_simcore::{FastMap, Micros, VcpuAddr, VmId};

/// Debit up to `amount` from one balance; returns what was actually
/// debited (never overdraws).
pub(crate) fn debit(balance: &mut u64, amount: u64) -> u64 {
    let spent = amount.min(*balance);
    *balance -= spent;
    spent
}

/// Per-VM credit wallets (µs of cycles), keyed by VM id. The controller
/// keeps its balances in its VM table (`Option<u64>` per row, `None` = no
/// wallet entry) and follows the same entry rules: minting and spending
/// create an entry, a clamp to zero removes it.
#[derive(Debug, Default)]
pub struct Wallet {
    credits: FastMap<VmId, u64>,
}

impl Wallet {
    /// Create an empty wallet set.
    pub fn new() -> Self {
        Wallet::default()
    }

    /// Apply Eq. 4: for every vCPU that consumed less than its guarantee,
    /// credit the difference to its VM.
    ///
    /// `guarantee` maps each VM to its per-vCPU `C_i`.
    pub fn earn(&mut self, observations: &[VcpuObservation], guarantee: &HashMap<VmId, Micros>) {
        for obs in observations {
            let c_i = guarantee.get(&obs.addr.vm).copied().unwrap_or(Micros::ZERO);
            if c_i > obs.used {
                *self.credits.entry(obs.addr.vm).or_insert(0) += (c_i - obs.used).as_u64();
            }
        }
    }

    /// Current balance of a VM.
    pub fn balance(&self, vm: VmId) -> u64 {
        self.credits.get(&vm).copied().unwrap_or(0)
    }

    /// Spend up to `amount` from a VM's wallet; returns what was actually
    /// debited (never overdraws).
    pub fn spend(&mut self, vm: VmId, amount: u64) -> u64 {
        debit(self.credits.entry(vm).or_insert(0), amount)
    }

    /// Clamp a VM's balance to `ceiling` (live-resize semantics: credits
    /// earned under a higher guarantee must not outlive it). Returns the
    /// amount forfeited, 0 when the balance was already within bounds.
    pub fn clamp(&mut self, vm: VmId, ceiling: u64) -> u64 {
        match self.credits.get_mut(&vm) {
            Some(balance) if *balance > ceiling => {
                let forfeited = *balance - ceiling;
                *balance = ceiling;
                if *balance == 0 {
                    self.credits.remove(&vm);
                }
                forfeited
            }
            _ => 0,
        }
    }

    /// Drop wallets of departed VMs.
    pub fn retain_vms(&mut self, live: &[VmId]) {
        let set: std::collections::HashSet<VmId> = live.iter().copied().collect();
        self.credits.retain(|vm, _| set.contains(vm));
    }

    /// Snapshot of all wallet entries (for reports), sorted by VM id.
    pub fn snapshot(&self) -> Vec<(VmId, u64)> {
        let mut v: Vec<_> = self.credits.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_unstable_by_key(|(vm, _)| *vm);
        v
    }
}

/// Apply Eq. 5: base allocation `c_{i,j,t} = min(e_{i,j,t}, C_i)`.
pub fn base_allocations(
    estimates: &[Estimate],
    guarantee: &HashMap<VmId, Micros>,
) -> HashMap<VcpuAddr, Micros> {
    estimates
        .iter()
        .map(|e| {
            let c_i = guarantee.get(&e.addr.vm).copied().unwrap_or(Micros::ZERO);
            (e.addr, e.estimate.min(c_i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimateCase;
    use vfc_simcore::{CpuId, MHz, VcpuId};

    fn obs(vm: u32, vcpu: u32, used: u64) -> VcpuObservation {
        VcpuObservation {
            addr: VcpuAddr::new(VmId::new(vm), VcpuId::new(vcpu)),
            slot: 0,
            vm_idx: 0,
            used: Micros(used),
            throttled: Micros::ZERO,
            last_cpu: CpuId::new(0),
            freq_est: MHz(0),
        }
    }

    fn est(vm: u32, vcpu: u32, e: u64) -> Estimate {
        Estimate {
            addr: VcpuAddr::new(VmId::new(vm), VcpuId::new(vcpu)),
            slot: 0,
            vm_idx: 0,
            estimate: Micros(e),
            case: EstimateCase::Stable,
        }
    }

    #[test]
    fn eq4_credits_underconsumption_only() {
        let mut w = Wallet::new();
        let guarantee: HashMap<VmId, Micros> = [
            (VmId::new(0), Micros(200_000)),
            (VmId::new(1), Micros(750_000)),
        ]
        .into();
        // vm0: one frugal vCPU (+150k), one greedy (0).
        // vm1: both above guarantee (0).
        w.earn(
            &[
                obs(0, 0, 50_000),
                obs(0, 1, 900_000),
                obs(1, 0, 800_000),
                obs(1, 1, 750_000),
            ],
            &guarantee,
        );
        assert_eq!(w.balance(VmId::new(0)), 150_000);
        assert_eq!(w.balance(VmId::new(1)), 0);
    }

    #[test]
    fn credits_accumulate_across_iterations() {
        let mut w = Wallet::new();
        let guarantee: HashMap<VmId, Micros> = [(VmId::new(0), Micros(100_000))].into();
        for _ in 0..5 {
            w.earn(&[obs(0, 0, 40_000)], &guarantee);
        }
        assert_eq!(w.balance(VmId::new(0)), 5 * 60_000);
    }

    #[test]
    fn spend_never_overdraws() {
        let mut w = Wallet::new();
        let guarantee: HashMap<VmId, Micros> = [(VmId::new(0), Micros(100_000))].into();
        w.earn(&[obs(0, 0, 0)], &guarantee);
        assert_eq!(w.spend(VmId::new(0), 30_000), 30_000);
        assert_eq!(w.spend(VmId::new(0), 100_000), 70_000);
        assert_eq!(w.spend(VmId::new(0), 1), 0);
        assert_eq!(w.spend(VmId::new(9), 1), 0, "unknown VM has no credit");
    }

    #[test]
    fn vm_without_guarantee_earns_nothing() {
        let mut w = Wallet::new();
        w.earn(&[obs(3, 0, 0)], &HashMap::new());
        assert_eq!(w.balance(VmId::new(3)), 0);
    }

    #[test]
    fn eq5_base_is_min_of_estimate_and_guarantee() {
        let guarantee: HashMap<VmId, Micros> = [(VmId::new(0), Micros(208_333))].into();
        let alloc = base_allocations(&[est(0, 0, 100_000), est(0, 1, 900_000)], &guarantee);
        let a = |j| alloc[&VcpuAddr::new(VmId::new(0), VcpuId::new(j))];
        // Below guarantee: estimate wins.
        assert_eq!(a(VcpuId::new(0).as_u32()), Micros(100_000));
        // Above guarantee: capped at C_i — bursting is the auction's job.
        assert_eq!(a(VcpuId::new(1).as_u32()), Micros(208_333));
    }

    #[test]
    fn retain_and_snapshot() {
        let mut w = Wallet::new();
        let guarantee: HashMap<VmId, Micros> =
            [(VmId::new(0), Micros(10)), (VmId::new(1), Micros(10))].into();
        w.earn(&[obs(0, 0, 0), obs(1, 0, 0)], &guarantee);
        w.retain_vms(&[VmId::new(1)]);
        assert_eq!(w.balance(VmId::new(0)), 0);
        assert_eq!(w.snapshot(), vec![(VmId::new(1), 10)]);
    }
}
