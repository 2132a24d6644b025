//! Weighted water-filling fair share.
//!
//! This is the analytical heart of the CFS-like scheduler: given a
//! capacity `C` and entities with weights `w_i` and caps `cap_i`
//! (demand and/or quota), compute allocations `a_i` such that
//!
//! 1. `a_i ≤ cap_i` (never allocate what cannot be used),
//! 2. `Σ a_i ≤ C`,
//! 3. **work conservation** — if `Σ cap_i ≥ C` then `Σ a_i = C`,
//! 4. **weighted fairness** — unsaturated entities receive shares
//!    proportional to their weights (progressive filling / max-min
//!    fairness).
//!
//! The same routine is applied at every level of the cgroup hierarchy:
//! among the VM scopes of `machine.slice` (equal weights by default —
//! which is exactly why, in the paper's scenario A, CFS shares *per VM*
//! rather than per vCPU), and among the vCPU groups inside a VM.

/// One entity competing for capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entity {
    /// CFS weight (`cpu.weight`; default 100).
    pub weight: u32,
    /// Upper bound on the allocation (µs): min(demand, quota budget, …).
    pub cap: u64,
}

impl Entity {
    /// Entity with the given CFS weight and allocation cap.
    pub fn new(weight: u32, cap: u64) -> Self {
        Entity { weight, cap }
    }
}

/// Reusable scratch for [`water_fill_into`]: the active/next index lists
/// that [`water_fill`] would otherwise allocate per round.
#[derive(Debug, Default)]
pub struct FillScratch {
    active: Vec<usize>,
    next: Vec<usize>,
}

/// Progressive-filling allocation. See module docs for invariants.
///
/// Runs in `O(k·n)` where `k` is the number of filling rounds (bounded by
/// the number of distinct saturation events, ≤ n). Entities with zero
/// weight receive nothing until all positively-weighted entities are
/// saturated, then share the remainder equally (degenerate but total).
pub fn water_fill(capacity: u64, entities: &[Entity]) -> Vec<u64> {
    let mut alloc = Vec::new();
    let mut scratch = FillScratch::default();
    water_fill_into(capacity, entities, &mut alloc, &mut scratch);
    alloc
}

/// [`water_fill`] into caller-owned buffers. `alloc` is cleared and
/// resized to `entities.len()`; `scratch` holds the round bookkeeping.
/// The per-tick engine calls this at every hierarchy level, so reusing
/// the buffers removes the dominant allocation in the share pass.
pub fn water_fill_into(
    capacity: u64,
    entities: &[Entity],
    alloc: &mut Vec<u64>,
    scratch: &mut FillScratch,
) {
    let n = entities.len();
    alloc.clear();
    alloc.resize(n, 0);
    if n == 0 || capacity == 0 {
        return;
    }

    let cap_sum = entities
        .iter()
        .fold(0u64, |acc, e| acc.saturating_add(e.cap));
    if cap_sum <= capacity && cap_sum < u64::MAX {
        // Nothing to share out: by invariants 1 and 3 the filling rounds
        // below end with every entity at its cap.
        for (a, e) in alloc.iter_mut().zip(entities) {
            *a = e.cap;
        }
        return;
    }
    let mut remaining = capacity.min(cap_sum);
    // Active = not yet saturated.
    let FillScratch { active, next } = scratch;
    active.clear();
    active.extend((0..n).filter(|&i| entities[i].cap > 0));

    while remaining > 0 && !active.is_empty() {
        let total_weight: u64 = active.iter().map(|&i| entities[i].weight as u64).sum();
        next.clear();
        let mut distributed = 0u64;

        if total_weight == 0 {
            // All remaining entities have zero weight: share equally.
            let share = remaining / active.len() as u64;
            if share == 0 {
                // Fewer µs than entities: hand out 1 µs each, front first.
                for &i in active.iter().take(remaining as usize) {
                    alloc[i] += 1;
                }
                return;
            }
            for &i in active.iter() {
                let headroom = entities[i].cap - alloc[i];
                let got = share.min(headroom);
                alloc[i] += got;
                distributed += got;
                if alloc[i] < entities[i].cap {
                    next.push(i);
                }
            }
        } else {
            // Entities of one weight have one fair share per round: with
            // the default `cpu.weight` everywhere that is one 128-bit
            // division per round, not one per entity.
            let mut last: Option<(u32, u64)> = None;
            for &i in active.iter() {
                let weight = entities[i].weight;
                let fair = match last {
                    Some((w, fair)) if w == weight => fair,
                    _ => {
                        let fair =
                            (remaining as u128 * weight as u128 / total_weight as u128) as u64;
                        last = Some((weight, fair));
                        fair
                    }
                };
                let headroom = entities[i].cap - alloc[i];
                let got = fair.min(headroom);
                alloc[i] += got;
                distributed += got;
                if alloc[i] < entities[i].cap {
                    next.push(i);
                }
            }
        }

        if distributed == 0 {
            // Integer-division dust: hand out 1 µs per unsaturated entity,
            // round-robin, until the dust is gone or everyone saturates.
            'dust: loop {
                let mut progressed = false;
                for &i in next.iter() {
                    if remaining == 0 {
                        break 'dust;
                    }
                    if alloc[i] < entities[i].cap {
                        alloc[i] += 1;
                        remaining -= 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            break;
        }

        remaining -= distributed;
        std::mem::swap(active, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`water_fill`] with equal weights.
    fn water_fill_equal(capacity: u64, caps: &[u64]) -> Vec<u64> {
        let entities: Vec<Entity> = caps.iter().map(|&c| Entity::new(100, c)).collect();
        water_fill(capacity, &entities)
    }

    #[test]
    fn empty_and_zero_capacity() {
        assert!(water_fill(100, &[]).is_empty());
        assert_eq!(water_fill(0, &[Entity::new(100, 50)]), vec![0]);
    }

    #[test]
    fn equal_weights_split_equally() {
        let e = vec![Entity::new(100, 1000); 4];
        assert_eq!(water_fill(400, &e), vec![100; 4]);
    }

    #[test]
    fn surplus_from_small_demand_is_redistributed() {
        // One entity wants only 10; the other two absorb its surplus.
        let e = vec![
            Entity::new(100, 10),
            Entity::new(100, 1000),
            Entity::new(100, 1000),
        ];
        let a = water_fill(310, &e);
        assert_eq!(a[0], 10);
        assert_eq!(a[1], 150);
        assert_eq!(a[2], 150);
    }

    #[test]
    fn weights_are_respected() {
        // 2:1:1 weights, ample caps.
        let e = vec![
            Entity::new(200, 10_000),
            Entity::new(100, 10_000),
            Entity::new(100, 10_000),
        ];
        let a = water_fill(1000, &e);
        assert_eq!(a, vec![500, 250, 250]);
    }

    #[test]
    fn paper_example_fig1() {
        // Fig. 1: thread a has twice the CPU time of b and c on one core
        // with 10^6 cycles: 0.5 M / 0.25 M / 0.25 M.
        let e = vec![
            Entity::new(200, u64::MAX),
            Entity::new(100, u64::MAX),
            Entity::new(100, u64::MAX),
        ];
        let a = water_fill(1_000_000, &e);
        assert_eq!(a, vec![500_000, 250_000, 250_000]);
    }

    #[test]
    fn under_demand_is_not_inflated() {
        let e = vec![Entity::new(100, 30), Entity::new(100, 40)];
        let a = water_fill(1000, &e);
        assert_eq!(a, vec![30, 40]);
    }

    #[test]
    fn zero_weight_entities_get_leftovers_only() {
        let e = vec![Entity::new(0, 100), Entity::new(100, 60)];
        let a = water_fill(100, &e);
        assert_eq!(a[1], 60, "weighted entity saturates first");
        assert_eq!(a[0], 40, "zero-weight gets the leftover");
    }

    #[test]
    fn dust_is_distributed() {
        // 7 µs among 3 equal entities: 2/2/2 then 1 more to one of them.
        let a = water_fill_equal(7, &[100, 100, 100]);
        assert_eq!(a.iter().sum::<u64>(), 7);
        assert!(a.iter().all(|&x| x == 2 || x == 3));
    }

    #[test]
    fn single_entity_takes_min_of_cap_and_capacity() {
        assert_eq!(water_fill_equal(100, &[250]), vec![100]);
        assert_eq!(water_fill_equal(400, &[250]), vec![250]);
    }

    proptest! {
        /// The shortcuts (unconstrained early-out, one division per weight
        /// and round) against the plain filling rounds, dust and
        /// zero-weight cases included.
        #[test]
        fn prop_equals_plain_filling_rounds(
            capacity in 0u64..400_000,
            around_cap_sum in proptest::option::of(-4i64..5),
            caps in proptest::collection::vec(0u64..120_000, 0..24),
            weights in proptest::collection::vec(
                prop_oneof![Just(100u32), Just(100u32), 0u32..4, 1u32..1000],
                0..24,
            ),
        ) {
            let n = caps.len().min(weights.len());
            let entities: Vec<Entity> = (0..n)
                .map(|i| Entity::new(weights[i], caps[i]))
                .collect();
            // Half the cases sit on the edge of the early-out.
            let cap_sum: u64 = entities.iter().map(|e| e.cap).sum();
            let capacity = match around_cap_sum {
                Some(d) => cap_sum.saturating_add_signed(d),
                None => capacity,
            };
            prop_assert_eq!(
                water_fill(capacity, &entities),
                crate::oracle::water_fill(capacity, &entities)
            );
        }

        #[test]
        fn prop_invariants(
            capacity in 0u64..5_000_000,
            caps in proptest::collection::vec(0u64..2_000_000, 0..40),
            weights in proptest::collection::vec(1u32..1000, 0..40),
        ) {
            let n = caps.len().min(weights.len());
            let entities: Vec<Entity> = (0..n)
                .map(|i| Entity::new(weights[i], caps[i]))
                .collect();
            let alloc = water_fill(capacity, &entities);

            // (1) caps respected
            for (a, e) in alloc.iter().zip(&entities) {
                prop_assert!(*a <= e.cap);
            }
            // (2) capacity respected
            let total: u64 = alloc.iter().sum();
            prop_assert!(total <= capacity);
            // (3) work conservation
            let cap_sum: u64 = entities.iter().map(|e| e.cap).sum();
            prop_assert_eq!(total, capacity.min(cap_sum));
        }

        #[test]
        fn prop_equal_weights_envy_free(
            capacity in 1u64..1_000_000,
            caps in proptest::collection::vec(1u64..500_000, 2..20),
        ) {
            // With equal weights, an entity with a larger cap never gets
            // less than one with a smaller cap (max-min fairness).
            let alloc = water_fill_equal(capacity, &caps);
            for i in 0..caps.len() {
                for j in 0..caps.len() {
                    if caps[i] >= caps[j] {
                        // allow 1 µs of integer dust
                        prop_assert!(alloc[i] + 1 >= alloc[j],
                            "cap[{}]={} got {}, cap[{}]={} got {}",
                            i, caps[i], alloc[i], j, caps[j], alloc[j]);
                    }
                }
            }
        }
    }
}
