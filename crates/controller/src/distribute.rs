//! Stage 5 — distributing the unsold cycles (§III.B.5).
//!
//! The auction stops when no bidder can pay; whatever is left in the
//! market would be wasted if kept. It is therefore given away — free of
//! credits — to the vCPUs whose allocation is still below their estimate,
//! proportionally to each one's residual demand.

use std::collections::HashMap;
use vfc_simcore::{Micros, VcpuAddr};

/// Give away the remaining `market` to vCPUs with residual demand
/// (`estimate − allocation > 0`), proportionally to that residual.
/// Returns the amount distributed; `market` is reduced accordingly
/// (it only stays positive if residual demand ran out first).
pub fn distribute_leftovers(
    market: &mut Micros,
    residual: &[(VcpuAddr, Micros)],
    allocations: &mut HashMap<VcpuAddr, Micros>,
) -> Micros {
    let mut grants = Vec::new();
    distribute_leftovers_with(market, residual, &mut grants, |addr, share| {
        *allocations.entry(addr).or_insert(Micros::ZERO) += share;
    })
}

/// [`distribute_leftovers`] with a caller-supplied grant sink and scratch
/// buffer: `grant(who, share)` is invoked per non-zero share instead of
/// touching a HashMap, and the intermediate `(who, share, cap)` table
/// lives in the reused `scratch` — zero heap allocation once its
/// capacity has grown to the buyer count. `K` is however the caller
/// names a vCPU: its address, or its slot in a dense table.
pub fn distribute_leftovers_with<K: Copy, F: FnMut(K, Micros)>(
    market: &mut Micros,
    residual: &[(K, Micros)],
    scratch: &mut Vec<(K, u64, u64)>,
    mut grant: F,
) -> Micros {
    let total_residual: u64 = residual.iter().map(|(_, r)| r.as_u64()).sum();
    if market.is_zero() || total_residual == 0 {
        return Micros::ZERO;
    }
    let pot = market.as_u64().min(total_residual);

    // Proportional floor shares...
    let mut given = 0u64;
    let grants = scratch;
    grants.clear();
    for (who, r) in residual {
        let share = (pot as u128 * r.as_u64() as u128 / total_residual as u128) as u64;
        let share = share.min(r.as_u64());
        grants.push((*who, share, r.as_u64()));
        given += share;
    }
    // ...then round-robin the integer dust, respecting residual caps.
    let mut dust = pot - given;
    'outer: while dust > 0 {
        let mut progressed = false;
        for (_, share, cap) in grants.iter_mut() {
            if dust == 0 {
                break 'outer;
            }
            if *share < *cap {
                *share += 1;
                dust -= 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let distributed: u64 = grants.iter().map(|(_, s, _)| *s).sum();
    for &(who, share, _) in grants.iter() {
        if share > 0 {
            grant(who, Micros(share));
        }
    }
    *market -= Micros(distributed);
    Micros(distributed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vfc_simcore::{VcpuId, VmId};

    fn addr(vm: u32, j: u32) -> VcpuAddr {
        VcpuAddr::new(VmId::new(vm), VcpuId::new(j))
    }

    #[test]
    fn proportional_split() {
        let mut market = Micros(300);
        let residual = vec![(addr(0, 0), Micros(200)), (addr(1, 0), Micros(100))];
        let mut alloc = HashMap::new();
        let given = distribute_leftovers(&mut market, &residual, &mut alloc);
        assert_eq!(given, Micros(300));
        assert_eq!(market, Micros::ZERO);
        assert_eq!(alloc[&addr(0, 0)], Micros(200));
        assert_eq!(alloc[&addr(1, 0)], Micros(100));
    }

    #[test]
    fn market_larger_than_demand_leaves_a_remainder() {
        let mut market = Micros(1_000);
        let residual = vec![(addr(0, 0), Micros(100))];
        let mut alloc = HashMap::new();
        let given = distribute_leftovers(&mut market, &residual, &mut alloc);
        assert_eq!(given, Micros(100));
        assert_eq!(market, Micros(900), "genuinely spare cycles remain");
    }

    #[test]
    fn no_buyers_distributes_nothing() {
        let mut market = Micros(1_000);
        let mut alloc = HashMap::new();
        let given = distribute_leftovers(&mut market, &[], &mut alloc);
        assert_eq!(given, Micros::ZERO);
        assert_eq!(market, Micros(1_000));
    }

    #[test]
    fn empty_market_is_a_noop() {
        let mut market = Micros::ZERO;
        let residual = vec![(addr(0, 0), Micros(100))];
        let mut alloc = HashMap::new();
        assert_eq!(
            distribute_leftovers(&mut market, &residual, &mut alloc),
            Micros::ZERO
        );
        assert!(alloc.is_empty());
    }

    #[test]
    fn dust_goes_somewhere() {
        // 10 cycles across 3 equal residuals: 3/3/3 + 1 dust.
        let mut market = Micros(10);
        let residual = vec![
            (addr(0, 0), Micros(100)),
            (addr(1, 0), Micros(100)),
            (addr(2, 0), Micros(100)),
        ];
        let mut alloc = HashMap::new();
        let given = distribute_leftovers(&mut market, &residual, &mut alloc);
        assert_eq!(given, Micros(10));
        let total: u64 = alloc.values().map(|m| m.as_u64()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn adds_on_top_of_existing_allocations() {
        let mut market = Micros(50);
        let residual = vec![(addr(0, 0), Micros(50))];
        let mut alloc = HashMap::new();
        alloc.insert(addr(0, 0), Micros(200));
        distribute_leftovers(&mut market, &residual, &mut alloc);
        assert_eq!(alloc[&addr(0, 0)], Micros(250));
    }

    proptest! {
        #[test]
        fn prop_distribution_invariants(
            market0 in 0u64..1_000_000,
            residuals in proptest::collection::vec(0u64..200_000, 0..20),
        ) {
            let residual: Vec<(VcpuAddr, Micros)> = residuals.iter().enumerate()
                .map(|(i, r)| (addr(i as u32, 0), Micros(*r)))
                .collect();
            let total_residual: u64 = residuals.iter().sum();
            let mut market = Micros(market0);
            let mut alloc = HashMap::new();
            let given = distribute_leftovers(&mut market, &residual, &mut alloc);

            // Conservation.
            prop_assert_eq!(given + market, Micros(market0));
            // Give exactly min(market, total residual).
            prop_assert_eq!(given.as_u64(), market0.min(total_residual));
            // Nobody gets more than their residual.
            for (a, r) in &residual {
                let got = alloc.get(a).copied().unwrap_or(Micros::ZERO);
                prop_assert!(got <= *r);
            }
        }
    }
}
