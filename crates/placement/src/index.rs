//! Residual-capacity placement index: O(log n) First/Best/Worst-Fit.
//!
//! The cluster manager answers every placement question — admission,
//! evacuation, migration fallback, control-plane feasibility — by
//! scanning all `n` node bins and applying
//! [`ConstraintMode::fits`](crate::ConstraintMode::fits).
//! That scan is exact but linear, and at trace scale (1,200 nodes,
//! ~100k arrivals/evacuations) it dominates the placement cost.
//!
//! This index replaces the scan with two incrementally-maintained
//! structures over the *residual* capacity of each slot:
//!
//! - a **segment tree** over slot order holding, per subtree, the
//!   maximum residual constraint units and the maximum residual memory.
//!   First-Fit descends to the leftmost feasible leaf in O(log n)
//!   (both maxima bound the subtree, so infeasible subtrees prune; a
//!   subtree where the two maxima come from different leaves may force
//!   a backtrack, but memory almost never binds — the paper's own
//!   assumption — so the descent is logarithmic in practice);
//! - an **ordered set** of `(residual units, slot)` pairs. Best-Fit
//!   starts at `(demand, 0)` and walks up: the first entry whose slot
//!   also has the memory is the tightest feasible node with the lowest
//!   index among ties. Worst-Fit walks down from the top, scanning each
//!   equal-residual group in ascending slot order.
//!
//! The tie-break orders reproduce the linear scans **exactly**:
//! First-Fit = lowest feasible index; Best-Fit = `min_by_key
//! ((remaining, index))`; Worst-Fit = `max_by_key((remaining,
//! usize::MAX - index))`. `tests/` pins this byte-for-byte against the
//! linear oracle over random deploy/undeploy/crash/resize sequences.
//!
//! The index does not own bins. The owner calls [`ResidualIndex::set`]
//! with the slot's current residuals after *every* mutation (place,
//! remove, resize, node repair) and [`ResidualIndex::deactivate`] when
//! a slot leaves the candidate set (node crash). Residuals are in the
//! owner's constraint units
//! ([`ConstraintMode::remaining`](crate::ConstraintMode::remaining)): MHz under
//! Eq. 7, vCPU slots under core-count.

use std::collections::BTreeSet;

/// See module docs.
#[derive(Debug, Clone)]
pub struct ResidualIndex {
    /// Number of slots (leaves in use).
    len: usize,
    /// Power-of-two leaf span of the segment tree.
    span: usize,
    /// Per subtree: max over active leaves of `units + 1` (0 = none
    /// active). The +1 shift lets a zero-residual active slot still
    /// satisfy a zero-unit demand, exactly like the linear scan.
    seg_units: Vec<u64>,
    /// Per subtree: max over active leaves of `mem + 1`.
    seg_mem: Vec<u64>,
    /// Current residual units per active slot (stale for inactive).
    units: Vec<u64>,
    /// Current residual memory per active slot (stale for inactive).
    mem: Vec<u64>,
    /// Is the slot a placement candidate at all?
    active: Vec<bool>,
    /// Active slots keyed by `(residual units, slot)`.
    by_units: BTreeSet<(u64, usize)>,
}

impl ResidualIndex {
    /// An index over `len` slots, all inactive. Activate each with
    /// [`ResidualIndex::set`].
    pub fn new(len: usize) -> Self {
        let span = len.next_power_of_two().max(1);
        ResidualIndex {
            len,
            span,
            seg_units: vec![0; 2 * span],
            seg_mem: vec![0; 2 * span],
            units: vec![0; len],
            mem: vec![0; len],
            active: vec![false; len],
            by_units: BTreeSet::new(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Any slots at all?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Activate `slot` (or update an active one) with its current
    /// residual capacity.
    pub fn set(&mut self, slot: usize, units: u64, mem: u64) {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        if self.active[slot] {
            if self.units[slot] == units && self.mem[slot] == mem {
                return;
            }
            self.by_units.remove(&(self.units[slot], slot));
        }
        self.active[slot] = true;
        self.units[slot] = units;
        self.mem[slot] = mem;
        self.by_units.insert((units, slot));
        self.write_leaf(slot, units + 1, mem + 1);
    }

    /// Remove `slot` from the candidate set (node down).
    pub fn deactivate(&mut self, slot: usize) {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        if !self.active[slot] {
            return;
        }
        self.active[slot] = false;
        self.by_units.remove(&(self.units[slot], slot));
        self.write_leaf(slot, 0, 0);
    }

    /// Set a leaf's shifted values and re-establish the maxima up the
    /// tree.
    fn write_leaf(&mut self, slot: usize, units_v: u64, mem_v: u64) {
        let mut i = self.span + slot;
        self.seg_units[i] = units_v;
        self.seg_mem[i] = mem_v;
        while i > 1 {
            i /= 2;
            self.seg_units[i] = self.seg_units[2 * i].max(self.seg_units[2 * i + 1]);
            self.seg_mem[i] = self.seg_mem[2 * i].max(self.seg_mem[2 * i + 1]);
        }
    }

    #[inline]
    fn feasible(&self, slot: usize, units: u64, mem: u64, exclude: Option<usize>) -> bool {
        self.active[slot]
            && Some(slot) != exclude
            && self.units[slot] >= units
            && self.mem[slot] >= mem
    }

    /// Lowest active slot with `residual units ≥ units` and `residual
    /// mem ≥ mem`, skipping `exclude` — the First-Fit answer.
    pub fn first_fit(&self, units: u64, mem: u64, exclude: Option<usize>) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Shifted thresholds: leaf value is residual+1 for active slots.
        let (tu, tm) = (units.saturating_add(1), mem.saturating_add(1));
        self.descend(1, tu, tm, units, mem, exclude)
    }

    /// Leftmost feasible leaf under segment-tree node `i`, with
    /// backtracking (needed because the two maxima, and the excluded
    /// slot, can make a promising subtree fail at leaf level).
    fn descend(
        &self,
        i: usize,
        tu: u64,
        tm: u64,
        units: u64,
        mem: u64,
        exclude: Option<usize>,
    ) -> Option<usize> {
        if self.seg_units[i] < tu || self.seg_mem[i] < tm {
            return None;
        }
        if i >= self.span {
            let slot = i - self.span;
            return (slot < self.len && self.feasible(slot, units, mem, exclude)).then_some(slot);
        }
        self.descend(2 * i, tu, tm, units, mem, exclude)
            .or_else(|| self.descend(2 * i + 1, tu, tm, units, mem, exclude))
    }

    /// Feasible slot with the least residual units (ties: lowest slot),
    /// skipping `exclude` — the Best-Fit answer.
    pub fn best_fit(&self, units: u64, mem: u64, exclude: Option<usize>) -> Option<usize> {
        self.by_units
            .range((units, 0)..)
            .find(|&&(_, slot)| Some(slot) != exclude && self.mem[slot] >= mem)
            .map(|&(_, slot)| slot)
    }

    /// Feasible slot with the most residual units (ties: lowest slot),
    /// skipping `exclude` — the Worst-Fit answer.
    pub fn worst_fit(&self, units: u64, mem: u64, exclude: Option<usize>) -> Option<usize> {
        let mut group = None;
        for &(r, _) in self.by_units.range((units, 0)..).rev() {
            if group == Some(r) {
                continue; // group already scanned below
            }
            group = Some(r);
            // Equal-residual slots in ascending order: lowest index wins
            // within the highest feasible residual, exactly like
            // `max_by_key((remaining, usize::MAX - i))`.
            for &(_, slot) in self.by_units.range((r, 0)..=(r, usize::MAX)) {
                if Some(slot) != exclude && self.mem[slot] >= mem {
                    return Some(slot);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear reference over the same state.
    struct Oracle {
        slots: Vec<Option<(u64, u64)>>, // (units, mem), None = inactive
    }

    impl Oracle {
        fn candidates<'a>(
            &'a self,
            units: u64,
            mem: u64,
            exclude: Option<usize>,
        ) -> impl Iterator<Item = (usize, u64)> + 'a {
            self.slots
                .iter()
                .enumerate()
                .filter_map(move |(i, s)| s.map(|(u, m)| (i, u, m)))
                .filter(move |&(i, u, m)| Some(i) != exclude && u >= units && m >= mem)
                .map(|(i, u, _)| (i, u))
        }

        fn first(&self, units: u64, mem: u64, exclude: Option<usize>) -> Option<usize> {
            self.candidates(units, mem, exclude).next().map(|(i, _)| i)
        }

        fn best(&self, units: u64, mem: u64, exclude: Option<usize>) -> Option<usize> {
            self.candidates(units, mem, exclude)
                .min_by_key(|&(i, u)| (u, i))
                .map(|(i, _)| i)
        }

        fn worst(&self, units: u64, mem: u64, exclude: Option<usize>) -> Option<usize> {
            self.candidates(units, mem, exclude)
                .max_by_key(|&(i, u)| (u, usize::MAX - i))
                .map(|(i, _)| i)
        }
    }

    #[test]
    fn empty_index_answers_none() {
        let idx = ResidualIndex::new(0);
        assert!(idx.is_empty());
        assert_eq!(idx.first_fit(0, 0, None), None);
        assert_eq!(idx.best_fit(0, 0, None), None);
        assert_eq!(idx.worst_fit(0, 0, None), None);
    }

    #[test]
    fn basic_queries_and_tie_breaks() {
        let mut idx = ResidualIndex::new(4);
        for (i, (u, m)) in [(50, 10), (30, 10), (30, 10), (80, 10)].iter().enumerate() {
            idx.set(i, *u, *m);
        }
        assert_eq!(idx.first_fit(40, 0, None), Some(0));
        assert_eq!(idx.first_fit(20, 0, None), Some(0));
        // Tightest fit for 20 is 30 residual; tie between 1 and 2 →
        // lowest index.
        assert_eq!(idx.best_fit(20, 0, None), Some(1));
        assert_eq!(idx.worst_fit(20, 0, None), Some(3));
        // Exclusion moves the answer.
        assert_eq!(idx.best_fit(20, 0, Some(1)), Some(2));
        assert_eq!(idx.worst_fit(20, 0, Some(3)), Some(0));
        // Memory binds independently of units.
        assert_eq!(idx.first_fit(20, 11, None), None);
        assert_eq!(idx.best_fit(20, 10, None), Some(1));
    }

    #[test]
    fn zero_residual_active_slot_matches_zero_demand() {
        let mut idx = ResidualIndex::new(2);
        idx.set(0, 0, 0);
        assert_eq!(idx.first_fit(0, 0, None), Some(0));
        assert_eq!(idx.best_fit(0, 0, None), Some(0));
        assert_eq!(idx.first_fit(1, 0, None), None);
    }

    #[test]
    fn deactivate_removes_and_set_restores() {
        let mut idx = ResidualIndex::new(3);
        idx.set(0, 10, 10);
        idx.set(1, 20, 10);
        idx.set(2, 30, 10);
        idx.deactivate(0);
        assert!(!idx.active[0]);
        assert_eq!(idx.first_fit(5, 5, None), Some(1));
        idx.deactivate(1);
        assert_eq!(idx.best_fit(5, 5, None), Some(2));
        idx.set(0, 40, 10);
        assert_eq!(idx.first_fit(35, 5, None), Some(0));
        assert_eq!(idx.worst_fit(5, 5, None), Some(0));
        // Double deactivate is a no-op.
        idx.deactivate(1);
        assert_eq!(idx.best_fit(5, 5, None), Some(2));
    }

    #[test]
    fn worst_fit_ties_prefer_lowest_slot() {
        let mut idx = ResidualIndex::new(5);
        for i in 0..5 {
            idx.set(i, 100, 10);
        }
        assert_eq!(idx.worst_fit(1, 1, None), Some(0));
        assert_eq!(idx.worst_fit(1, 1, Some(0)), Some(1));
        // Memory knocks out the low slots within the top group.
        idx.set(0, 100, 0);
        idx.set(1, 100, 0);
        assert_eq!(idx.worst_fit(1, 1, None), Some(2));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Set(usize, u64, u64),
            Deactivate(usize),
            Query(u8, u64, u64, Option<usize>),
        }

        fn arb_op(n: usize) -> impl Strategy<Value = Op> {
            prop_oneof![
                (0..n, 0u64..200, 0u64..50).prop_map(|(s, u, m)| Op::Set(s, u, m)),
                (0..n).prop_map(Op::Deactivate),
                (0u8..3, 0u64..200, 0u64..50, proptest::option::of(0..n))
                    .prop_map(|(a, u, m, e)| Op::Query(a, u, m, e)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn prop_index_matches_linear_oracle(
                n in 1usize..40,
                ops in proptest::collection::vec(arb_op(39), 1..120),
            ) {
                let mut idx = ResidualIndex::new(n);
                let mut oracle = Oracle { slots: vec![None; n] };
                for op in ops {
                    match op {
                        Op::Set(s, u, m) if s < n => {
                            idx.set(s, u, m);
                            oracle.slots[s] = Some((u, m));
                        }
                        Op::Deactivate(s) if s < n => {
                            idx.deactivate(s);
                            oracle.slots[s] = None;
                        }
                        Op::Query(a, u, m, e) => {
                            let e = e.filter(|&x| x < n);
                            let (got, want) = match a {
                                0 => (idx.first_fit(u, m, e), oracle.first(u, m, e)),
                                1 => (idx.best_fit(u, m, e), oracle.best(u, m, e)),
                                _ => (idx.worst_fit(u, m, e), oracle.worst(u, m, e)),
                            };
                            prop_assert_eq!(got, want, "algo {} units {} mem {}", a, u, m);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
