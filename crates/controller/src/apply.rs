//! Stage 6 — applying the vCPU capping (§III.B.6).
//!
//! The per-period allocation `c_{i,j,t}` (µs per controller period `p`)
//! translates directly into a `cpu.max` quota: the kernel enforces
//! bandwidth over its own 100 ms period, so the quota is the allocation
//! scaled by `cgroup_period / p`. An allocation of the full period (the
//! vCPU may use a whole hardware thread) is written as `max` — no reason
//! to make the kernel track a limit that cannot bind.

use vfc_cgroupfs::model::{CpuMax, DEFAULT_PERIOD};
use vfc_simcore::Micros;

/// Kernel-imposed floor on `cpu.max` quotas (1 ms).
pub const KERNEL_MIN_QUOTA: Micros = Micros(1_000);

/// Convert a per-period allocation into the `cpu.max` value to write.
pub fn allocation_to_cpu_max(alloc: Micros, period: Micros) -> CpuMax {
    if alloc >= period {
        // A single KVM vCPU thread cannot use more than one CPU anyway.
        return CpuMax::unlimited();
    }
    let quota = alloc.scale(DEFAULT_PERIOD.as_u64() as f64 / period.as_u64() as f64);
    CpuMax::with_period(quota.max(KERNEL_MIN_QUOTA), DEFAULT_PERIOD)
}

/// Invert [`allocation_to_cpu_max`]: the per-period allocation implied
/// by a `cpu.max` read-back. Warm-restart reconciliation uses this to
/// adopt whatever cap a dead predecessor left in force as `c_{i,j,t-1}`.
/// `max` (unlimited) reads back as the full period.
pub fn cpu_max_to_allocation(max: CpuMax, period: Micros) -> Micros {
    match max.quota {
        None => period,
        Some(quota) => {
            let kernel_period = if max.period.is_zero() {
                DEFAULT_PERIOD
            } else {
                max.period
            };
            quota
                .scale(period.as_u64() as f64 / kernel_period.as_u64() as f64)
                .min(period)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_period_means_unlimited() {
        let m = allocation_to_cpu_max(Micros::SEC, Micros::SEC);
        assert!(m.is_unlimited());
        let m = allocation_to_cpu_max(Micros(1_200_000), Micros::SEC);
        assert!(m.is_unlimited());
    }

    #[test]
    fn paper_guarantees_scale_to_kernel_period() {
        // 500 MHz on a 2.4 GHz node: 208 333 µs/s → 20 833 µs per 100 ms.
        let m = allocation_to_cpu_max(Micros(208_333), Micros::SEC);
        assert_eq!(m.quota, Some(Micros(20_833)));
        assert_eq!(m.period, Micros(100_000));
        // 1800 MHz: 750 000 µs/s → 75 000 µs per 100 ms.
        let m = allocation_to_cpu_max(Micros(750_000), Micros::SEC);
        assert_eq!(m.quota, Some(Micros(75_000)));
    }

    #[test]
    fn kernel_floor_is_respected() {
        let m = allocation_to_cpu_max(Micros(1), Micros::SEC);
        assert_eq!(m.quota, Some(KERNEL_MIN_QUOTA));
        let m = allocation_to_cpu_max(Micros::ZERO, Micros::SEC);
        assert_eq!(m.quota, Some(KERNEL_MIN_QUOTA));
    }

    proptest! {
        #[test]
        fn prop_quota_reproduces_the_allocation(alloc in 0u64..1_000_000) {
            // Scaling to the kernel period and back must reproduce the
            // allocation within rounding + kernel floor.
            let m = allocation_to_cpu_max(Micros(alloc), Micros::SEC);
            match m.quota {
                None => prop_assert!(alloc >= 1_000_000),
                Some(q) => {
                    let back = q.as_u64() * 10; // 100 ms → 1 s
                    let expected = alloc.max(KERNEL_MIN_QUOTA.as_u64() * 10);
                    prop_assert!(
                        back.abs_diff(expected) <= 10,
                        "alloc {alloc} → quota {} → back {back}", q.as_u64()
                    );
                }
            }
        }
    }
}
