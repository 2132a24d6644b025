//! CPU-controller state attached to a cgroup.

use serde::{Deserialize, Serialize};
use vfc_simcore::Micros;

/// Default cgroup-v2 CPU bandwidth period (`cpu.max` second field).
pub const DEFAULT_PERIOD: Micros = Micros(100_000);

/// Default `cpu.weight` value.
pub const DEFAULT_WEIGHT: u32 = 100;

/// The `cpu.max` bandwidth limit of a cgroup: at most `quota` µs of CPU
/// time per `period` µs of wall clock, across all threads of the group.
///
/// `quota == None` encodes the literal `max` (unlimited), the kernel
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CpuMax {
    /// Allowed CPU time per period; `None` = `max` (no limit).
    pub quota: Option<Micros>,
    /// Bandwidth enforcement period.
    pub period: Micros,
}

impl Default for CpuMax {
    fn default() -> Self {
        CpuMax::unlimited()
    }
}

impl CpuMax {
    /// The kernel default: `max 100000`.
    pub const fn unlimited() -> Self {
        CpuMax {
            quota: None,
            period: DEFAULT_PERIOD,
        }
    }

    /// A concrete limit with the default period.
    pub const fn limited(quota: Micros) -> Self {
        CpuMax {
            quota: Some(quota),
            period: DEFAULT_PERIOD,
        }
    }

    /// A concrete limit with an explicit period.
    pub const fn with_period(quota: Micros, period: Micros) -> Self {
        CpuMax {
            quota: Some(quota),
            period,
        }
    }

    /// Is this the unlimited (`max`) configuration?
    #[inline]
    pub fn is_unlimited(&self) -> bool {
        self.quota.is_none()
    }

    /// CPU-time budget available during a window of `window` µs,
    /// pro-rated from the quota/period ratio. Unlimited groups get
    /// `u64::MAX` µs.
    ///
    /// The real kernel refills the quota every `period`; enforcing the
    /// *average* bandwidth over an engine tick is equivalent at the 100 ms
    /// resolution the simulator runs at.
    #[inline]
    pub fn budget_for(&self, window: Micros) -> Micros {
        match self.quota {
            None => Micros(u64::MAX),
            Some(q) => {
                if self.period.is_zero() {
                    Micros::ZERO
                } else {
                    // q * window / period, in u128 to avoid overflow.
                    Micros(
                        ((q.as_u64() as u128 * window.as_u64() as u128)
                            / self.period.as_u64() as u128) as u64,
                    )
                }
            }
        }
    }
}

/// The `cpu.stat` counters of a cgroup (the subset the controller uses,
/// which is also the subset cgroup-v2 guarantees for every group with the
/// `cpu` controller enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CpuStat {
    /// Total CPU time consumed by the group since creation.
    pub usage_usec: Micros,
    /// User-mode share of `usage_usec`.
    pub user_usec: Micros,
    /// Kernel-mode share of `usage_usec`.
    pub system_usec: Micros,
    /// Number of enforcement periods that have elapsed (only counted while
    /// a limit is set, as in the kernel).
    pub nr_periods: u64,
    /// Number of periods in which the group was throttled.
    pub nr_throttled: u64,
    /// Total time the group spent throttled.
    pub throttled_usec: Micros,
}

impl CpuStat {
    /// Record `used` µs of CPU consumption (split user/system with the
    /// kernel-typical 90/10 ratio used by the simulator).
    pub fn account_usage(&mut self, used: Micros) {
        self.usage_usec += used;
        let user = Micros(used.as_u64() * 9 / 10);
        self.user_usec += user;
        self.system_usec += used - user;
    }

    /// Record the outcome of one enforcement period.
    pub fn account_period(&mut self, throttled_for: Micros) {
        self.nr_periods += 1;
        if !throttled_for.is_zero() {
            self.nr_throttled += 1;
            self.throttled_usec += throttled_for;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_effectively_infinite() {
        let m = CpuMax::unlimited();
        assert!(m.is_unlimited());
        assert_eq!(m.budget_for(Micros(100_000)), Micros(u64::MAX));
    }

    #[test]
    fn budget_prorates_quota() {
        // 50 ms per 100 ms period => 0.5 CPU => 500 ms per second.
        let m = CpuMax::with_period(Micros(50_000), Micros(100_000));
        assert_eq!(m.budget_for(Micros::SEC), Micros(500_000));
        assert_eq!(m.budget_for(Micros(100_000)), Micros(50_000));
        assert_eq!(m.budget_for(Micros::ZERO), Micros::ZERO);
    }

    #[test]
    fn budget_handles_large_quotas_without_overflow() {
        // Multi-CPU quota: 64 CPUs' worth of time per period.
        let m = CpuMax::with_period(Micros(6_400_000), Micros(100_000));
        assert_eq!(m.budget_for(Micros::SEC), Micros(64_000_000));
    }

    #[test]
    fn zero_period_yields_zero_budget() {
        let m = CpuMax {
            quota: Some(Micros(1)),
            period: Micros::ZERO,
        };
        assert_eq!(m.budget_for(Micros::SEC), Micros::ZERO);
    }

    #[test]
    fn stat_accounting() {
        let mut s = CpuStat::default();
        s.account_usage(Micros(1000));
        assert_eq!(s.usage_usec, Micros(1000));
        assert_eq!(s.user_usec + s.system_usec, s.usage_usec);
        s.account_period(Micros::ZERO);
        s.account_period(Micros(250));
        assert_eq!(s.nr_periods, 2);
        assert_eq!(s.nr_throttled, 1);
        assert_eq!(s.throttled_usec, Micros(250));
    }
}
