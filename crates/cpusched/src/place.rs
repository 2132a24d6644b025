//! Thread → core placement.
//!
//! §III.B.1 of the paper rests on one scheduler behaviour: *vCPU threads
//! with high workload are moved less often than vCPU threads with low
//! workload* — which is why reading `/proc/{tid}/stat` once per second is
//! enough to locate the busy threads whose frequency matters. The placer
//! reproduces exactly that: a thread's probability of migrating away from
//! its previous core decreases linearly with its load.
//!
//! Within a tick a thread may run on several cores (load balancing); the
//! *primary* core — where it spent the most time — is what `/proc` reports
//! in field 39, and is what we record.

use vfc_simcore::{CpuId, Micros, SplitMix64, Tid};

/// One thread's placement inside a [`PlacementBuf`]: a `(start, len)`
/// window into the buffer's flat slice array.
#[derive(Debug, Clone, Copy)]
pub struct PlacedThread {
    /// The thread's slot (its index in the `tids`/`allocs` given to
    /// [`Placer::place_into`]).
    pub slot: u32,
    start: u32,
    len: u32,
}

/// Reusable output and scratch buffers for [`Placer::place_into`]: one
/// flat slice array instead of a `Vec` per thread, so a simulated tick
/// allocates nothing.
#[derive(Debug, Default)]
pub struct PlacementBuf {
    /// One entry per placed thread, in packing order (largest first).
    pub entries: Vec<PlacedThread>,
    /// Busy time per core.
    pub core_busy: Vec<Micros>,
    slices: Vec<(CpuId, Micros)>,
    /// Time left per core this tick. 32-bit and signed, so that the spill
    /// scan ([`emptiest`]) compiles to vector compares on baseline x86_64.
    remaining: Vec<i32>,
    /// Packing order: one sort key per thread, see [`Placer::place_into`].
    order: Vec<u64>,
}

/// The core with the most time left, lowest index among equals, and that
/// time. Two passes without a data-dependent branch — the largest value,
/// then the smallest index holding it — where one pass that tracks both
/// would branch on every core.
fn emptiest(remaining: &[i32]) -> (usize, i32) {
    let room = remaining.iter().copied().fold(0, i32::max);
    // Written as a loop over `enumerate`: the `zip(0..)` form of the same
    // fold is not vectorised.
    let mut idx = i32::MAX;
    for (i, r) in remaining.iter().enumerate() {
        idx = idx.min(if *r == room { i as i32 } else { i32::MAX });
    }
    (idx as usize, room)
}

impl PlacementBuf {
    /// Per-core time slices of one entry, largest first. The first is the
    /// *primary* core — what `/proc/{tid}/stat` shows at the end of the
    /// tick.
    pub fn slices_of(&self, e: &PlacedThread) -> &[(CpuId, Micros)] {
        &self.slices[e.start as usize..(e.start + e.len) as usize]
    }
}

/// Sticky, load-aware placer.
///
/// Threads are addressed by *slot*: the caller numbers the threads it
/// places `0..n` and keeps that numbering from tick to tick; when it
/// renumbers (threads came or went) it says so through
/// [`Placer::remap`], which carries the sticky cores over and forgets
/// the threads that left.
#[derive(Debug)]
pub struct Placer {
    nr_cpus: u32,
    /// Preferred (last primary) core per slot; `None` until placed once.
    sticky: Vec<Option<CpuId>>,
    rng: SplitMix64,
}

/// Migration probability per tick for an idle thread; a fully-loaded
/// thread migrates with probability `base × (1 − load)² ≈ 0`.
const BASE_MIGRATION: f64 = 0.8;

impl Placer {
    /// Placer for a node with `nr_cpus` hardware threads.
    pub fn new(nr_cpus: u32, seed: u64) -> Self {
        Placer {
            nr_cpus,
            sticky: Vec::new(),
            rng: SplitMix64::new(seed),
        }
    }

    /// Renumber the slots: new slot `s` is the thread that was in slot
    /// `old_of_new[s]`, or a thread never seen before. Threads whose old
    /// slot is not named are forgotten.
    pub fn remap(&mut self, old_of_new: &[Option<u32>]) {
        let old = std::mem::take(&mut self.sticky);
        self.sticky.extend(
            old_of_new
                .iter()
                .map(|o| o.and_then(|o| old.get(o as usize).copied().flatten())),
        );
    }

    /// Place one tick's allocations onto cores.
    ///
    /// `allocs[s]` is the CPU time granted to thread `tids[s]` this tick,
    /// at most `tick`, the tick length (per-core capacity); `by_tid` is
    /// every `(tids[s], s)`, sorted. Threads are packed largest-first; a
    /// thread whose preferred core lacks room spills the remainder onto
    /// the emptiest cores, like CFS load balancing does.
    ///
    /// # Panics
    /// Panics if `tick` exceeds `i32::MAX` µs (35 minutes) or an
    /// allocation exceeds `tick`.
    pub fn place_into(
        &mut self,
        tids: &[Tid],
        allocs: &[Micros],
        by_tid: &[(Tid, u32)],
        tick: Micros,
        buf: &mut PlacementBuf,
    ) {
        assert_eq!(tids.len(), allocs.len(), "one allocation per thread");
        assert_eq!(tids.len(), by_tid.len(), "one rank per thread");
        let tick_us = i32::try_from(tick.as_u64()).expect("a tick of at most i32::MAX µs");
        let n = self.nr_cpus as usize;
        buf.entries.clear();
        buf.slices.clear();
        buf.remaining.clear();
        buf.remaining.resize(n, tick_us);

        self.sticky.resize(tids.len(), None);
        assert!(tids.len() <= u32::MAX as usize, "slots are 32-bit");

        // Largest first for tight packing; tid tiebreak for determinism.
        // The key is the time an allocation leaves idle, then the rank in
        // `by_tid`: sorting plain integers yields (alloc desc, tid asc).
        buf.order.clear();
        buf.order
            .extend(by_tid.iter().zip(0u64..).map(|((_, slot), rank)| {
                let idle = tick
                    .as_u64()
                    .checked_sub(allocs[*slot as usize].as_u64())
                    .expect("an allocation of at most one tick");
                idle << 32 | rank
            }));
        buf.order.sort_unstable();

        for oi in 0..buf.order.len() {
            let slot = by_tid[buf.order[oi] as u32 as usize].1;
            let (tid, want) = (tids[slot as usize], allocs[slot as usize]);
            let start = buf.slices.len() as u32;
            if want.is_zero() {
                // Idle threads still have a location; maybe migrate it.
                let cur = self.sticky[slot as usize]
                    .unwrap_or_else(|| CpuId::new(tid.as_u32() % self.nr_cpus.max(1)));
                let cur = if self.rng.chance(BASE_MIGRATION) {
                    CpuId::new(self.rng.next_below(self.nr_cpus as u64) as u32)
                } else {
                    cur
                };
                self.sticky[slot as usize] = Some(cur);
                buf.slices.push((cur, Micros::ZERO));
                buf.entries.push(PlacedThread {
                    slot,
                    start,
                    len: 1,
                });
                continue;
            }

            let load = want.ratio_of(tick).clamp(0.0, 1.0);
            let p_migrate = BASE_MIGRATION * (1.0 - load) * (1.0 - load);
            let preferred = match self.sticky[slot as usize] {
                Some(c) if !self.rng.chance(p_migrate) => Some(c),
                _ => None,
            };

            // At most `tick`, so it fits.
            let mut left = want.as_u64() as i32;

            // Try the sticky core first.
            if let Some(c) = preferred {
                let got = left.min(buf.remaining[c.as_usize()]);
                if got != 0 {
                    buf.remaining[c.as_usize()] -= got;
                    buf.slices.push((c, Micros(got as u64)));
                    left -= got;
                }
            }

            // Spill to the emptiest cores (lowest index among equals).
            while left != 0 {
                let (idx, room) = emptiest(&buf.remaining);
                if room == 0 {
                    // Node over-committed beyond capacity: drop remainder.
                    // (The fair scheduler never allocates more than
                    // nr_cpus × tick, so this is unreachable from the
                    // engine; kept for standalone robustness.)
                    break;
                }
                let got = left.min(room);
                buf.remaining[idx] -= got;
                buf.slices
                    .push((CpuId::new(idx as u32), Micros(got as u64)));
                left -= got;
            }

            let slices = &mut buf.slices[start as usize..];
            slices.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            if let Some((primary, _)) = slices.first() {
                self.sticky[slot as usize] = Some(*primary);
            }
            let len = buf.slices.len() as u32 - start;
            buf.entries.push(PlacedThread { slot, start, len });
        }

        buf.core_busy.clear();
        buf.core_busy
            .extend(buf.remaining.iter().map(|r| Micros((tick_us - r) as u64)));
    }

    /// Last primary core of the thread in `slot` (procfs emulation
    /// between ticks); `None` if it was never placed.
    pub fn last_cpu(&self, slot: usize) -> Option<CpuId> {
        self.sticky.get(slot).copied().flatten()
    }

    /// Threads with a remembered core.
    pub fn tracked_threads(&self) -> usize {
        self.sticky.iter().flatten().count()
    }

    /// The next raw draw of the placement stream — consumes it. Lets the
    /// reference-oracle tests assert that two engines drew equally often.
    #[cfg(test)]
    pub(crate) fn probe_rng(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const TICK: Micros = Micros(100_000);

    /// One thread's slices, largest first.
    struct ThreadPlacement {
        slices: Vec<(CpuId, Micros)>,
    }

    impl ThreadPlacement {
        fn primary(&self) -> CpuId {
            self.slices[0].0
        }

        fn total(&self) -> Micros {
            self.slices.iter().map(|(_, t)| *t).sum()
        }
    }

    /// Place `(thread, granted time)` pairs — slot = position in the list —
    /// and key the result by thread.
    fn place(
        p: &mut Placer,
        allocs: &[(Tid, Micros)],
    ) -> (HashMap<Tid, ThreadPlacement>, Vec<Micros>) {
        let (tids, want): (Vec<Tid>, Vec<Micros>) = allocs.iter().copied().unzip();
        let mut buf = PlacementBuf::default();
        p.place_into(&tids, &want, &by_tid(&tids), TICK, &mut buf);
        let out = buf
            .entries
            .iter()
            .map(|e| {
                let slices = buf.slices_of(e).to_vec();
                (tids[e.slot as usize], ThreadPlacement { slices })
            })
            .collect();
        (out, buf.core_busy)
    }

    /// `(tid, slot)` of every slot, sorted: what the engine's plan keeps.
    fn by_tid(tids: &[Tid]) -> Vec<(Tid, u32)> {
        let mut by_tid: Vec<(Tid, u32)> = tids.iter().zip(0..).map(|(t, s)| (*t, s)).collect();
        by_tid.sort_unstable();
        by_tid
    }

    fn total_busy(busy: &[Micros]) -> Micros {
        busy.iter().copied().sum()
    }

    #[test]
    fn single_thread_fits_one_core() {
        let mut p = Placer::new(4, 1);
        let (out, busy) = place(&mut p, &[(Tid::new(1), Micros(60_000))]);
        let pl = &out[&Tid::new(1)];
        assert_eq!(pl.slices.len(), 1);
        assert_eq!(pl.total(), Micros(60_000));
        assert_eq!(total_busy(&busy), Micros(60_000));
    }

    #[test]
    fn full_load_threads_fill_all_cores() {
        let mut p = Placer::new(2, 1);
        let allocs: Vec<_> = (0..2).map(|i| (Tid::new(i), TICK)).collect();
        let (out, busy) = place(&mut p, &allocs);
        assert_eq!(total_busy(&busy), Micros(200_000));
        let cores: Vec<CpuId> = out.values().map(|pl| pl.primary()).collect();
        assert_ne!(cores[0], cores[1], "two full threads on distinct cores");
    }

    #[test]
    fn oversized_demand_splits_across_cores() {
        // 3 threads of 80k on 2 cores (200k capacity): 240k demanded but
        // the engine would never allocate that; here allocs are already
        // feasible: 70k+70k+60k = 200k.
        let mut p = Placer::new(2, 1);
        let allocs = vec![
            (Tid::new(1), Micros(70_000)),
            (Tid::new(2), Micros(70_000)),
            (Tid::new(3), Micros(60_000)),
        ];
        let (out, busy) = place(&mut p, &allocs);
        assert_eq!(total_busy(&busy), Micros(200_000));
        // Everyone got everything they asked for.
        for (tid, want) in allocs {
            assert_eq!(out[&tid].total(), want);
        }
        // The last-placed thread must have been split.
        let split = out.values().filter(|pl| pl.slices.len() > 1).count();
        assert_eq!(split, 1);
    }

    #[test]
    fn busy_threads_are_sticky() {
        let mut p = Placer::new(8, 7);
        let tid = Tid::new(9);
        let (out, _) = place(&mut p, &[(tid, TICK)]);
        let first = out[&tid].primary();
        let mut moved = 0;
        for _ in 0..100 {
            let (out, _) = place(&mut p, &[(tid, TICK)]);
            if out[&tid].primary() != first {
                moved += 1;
            }
        }
        assert_eq!(moved, 0, "a fully-loaded thread never migrates");
    }

    #[test]
    fn idle_threads_wander() {
        let mut p = Placer::new(8, 7);
        let tid = Tid::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let (out, _) = place(&mut p, &[(tid, Micros::ZERO)]);
            seen.insert(out[&tid].primary());
        }
        assert!(seen.len() > 3, "idle thread visited {} cores", seen.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut p = Placer::new(4, 99);
            let allocs: Vec<_> = (0..6)
                .map(|i| (Tid::new(i), Micros(30_000 + 1000 * i as u64)))
                .collect();
            let mut trace = Vec::new();
            for _ in 0..20 {
                let (out, _) = place(&mut p, &allocs);
                let mut v: Vec<_> = out.iter().map(|(t, pl)| (*t, pl.primary())).collect();
                v.sort();
                trace.push(v);
            }
            trace
        };
        assert_eq!(run(), run());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_placement_conserves_time(
                allocs in proptest::collection::vec(0u64..100_000, 0..24),
                nr_cpus in 1u32..8,
                seed in 0u64..1000,
            ) {
                // Clamp total to node capacity like the engine guarantees.
                let capacity = nr_cpus as u64 * TICK.as_u64();
                let mut feasible = Vec::new();
                let mut budget = capacity;
                for (i, a) in allocs.iter().enumerate() {
                    let a = (*a).min(TICK.as_u64()).min(budget);
                    budget -= a;
                    feasible.push((Tid::new(i as u32), Micros(a)));
                }

                let mut placer = Placer::new(nr_cpus, seed);
                let (out, busy) = place(&mut placer, &feasible);

                // Every thread got exactly its allocation.
                for (tid, want) in &feasible {
                    prop_assert_eq!(out[tid].total(), *want);
                }
                // No core is over wall clock; busy matches slices.
                let mut per_core = vec![0u64; nr_cpus as usize];
                for placement in out.values() {
                    for (cpu, us) in &placement.slices {
                        per_core[cpu.as_usize()] += us.as_u64();
                    }
                }
                for (i, b) in busy.iter().enumerate() {
                    prop_assert_eq!(b.as_u64(), per_core[i]);
                    prop_assert!(b.as_u64() <= TICK.as_u64());
                }
                // Primary core is where the thread ran the most.
                for placement in out.values() {
                    if let Some((_, first)) = placement.slices.first() {
                        for (_, rest) in &placement.slices[1..] {
                            prop_assert!(first >= rest);
                        }
                    }
                }
            }
        }
    }

    /// The placer against the former one kept in [`crate::oracle`], on
    /// inputs the engine properties seldom build: runs of equal
    /// allocations, idle threads, a node booked to the last µs, thread ids
    /// out of slot order, core counts around the vector widths, and a tick
    /// at the `i32::MAX` µs bound.
    mod oracle_equivalence {
        use super::*;
        use crate::oracle::{self, OraclePlacer};
        use proptest::prelude::*;

        const CORES: [u32; 6] = [1, 3, 40, 64, 65, 128];
        const TICKS: [u64; 3] = [100_000, 7, i32::MAX as u64];

        /// One tick's allocations for `n` threads: at most `tick` each,
        /// at most `nr_cpus × tick` in all, and exactly that under mode 3
        /// when the threads can fill the node.
        fn allocs(rng: &mut SplitMix64, n: usize, nr_cpus: u32, tick: u64, mode: u64) -> Vec<u64> {
            let levels = [0, 1, tick / 3, tick / 2, tick - 1, tick];
            let mut a: Vec<u64> = (0..n)
                .map(|_| match mode {
                    0 => levels[rng.next_below(levels.len() as u64) as usize],
                    1 if rng.chance(0.7) => 0,
                    _ => rng.next_below(tick + 1),
                })
                .collect();
            let capacity = nr_cpus as u64 * tick;
            let mut budget = capacity;
            for x in a.iter_mut() {
                *x = (*x).min(budget);
                budget -= *x;
            }
            if mode == 3 {
                for x in a.iter_mut() {
                    let top_up = (tick - *x).min(budget);
                    *x += top_up;
                    budget -= top_up;
                }
            }
            a
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_placer_equals_the_oracle_placer(
                core_sel in 0usize..6,
                tick_sel in 0usize..3,
                n in 0usize..200,
                mode in 0u64..4,
                seed in 0u64..1_000_000,
            ) {
                let (nr_cpus, tick) = (CORES[core_sel], TICKS[tick_sel]);
                let mut rng = SplitMix64::new(seed);
                // Distinct thread ids, shuffled against the slots.
                let mut tids: Vec<Tid> = (0..n as u32).map(|i| Tid::new(100 + 3 * i)).collect();
                rng.shuffle(&mut tids);
                let by_tid = by_tid(&tids);

                let mut placer = Placer::new(nr_cpus, seed);
                let mut reference = OraclePlacer::new(nr_cpus, seed);
                let (mut got, mut want) = (PlacementBuf::default(), oracle::PlacementBuf::default());
                for _ in 0..3 {
                    let a: Vec<Micros> =
                        allocs(&mut rng, n, nr_cpus, tick, mode).into_iter().map(Micros).collect();
                    if mode == 3 && n as u64 >= nr_cpus as u64 {
                        let total: Micros = a.iter().copied().sum();
                        prop_assert_eq!(total.as_u64(), nr_cpus as u64 * tick);
                    }
                    let pairs: Vec<(Tid, Micros)> = tids.iter().copied().zip(a.iter().copied()).collect();
                    placer.place_into(&tids, &a, &by_tid, Micros(tick), &mut got);
                    reference.place_into(&pairs, Micros(tick), &mut want);

                    prop_assert_eq!(got.entries.len(), want.entries.len());
                    for (g, w) in got.entries.iter().zip(&want.entries) {
                        prop_assert_eq!(tids[g.slot as usize], w.tid);
                        prop_assert_eq!(got.slices_of(g), want.slices_of(w));
                    }
                    prop_assert_eq!(&got.core_busy, &want.core_busy);
                    for (slot, tid) in tids.iter().enumerate() {
                        prop_assert_eq!(placer.last_cpu(slot), reference.sticky.get(tid).copied());
                    }
                }
                prop_assert_eq!(placer.probe_rng(), reference.probe_rng());
            }
        }

        #[test]
        #[should_panic(expected = "i32::MAX")]
        fn a_tick_past_the_bound_is_refused() {
            let mut buf = PlacementBuf::default();
            Placer::new(2, 1).place_into(&[], &[], &[], Micros(i32::MAX as u64 + 1), &mut buf);
        }
    }

    #[test]
    fn zero_alloc_thread_reports_a_location() {
        let mut p = Placer::new(4, 3);
        let (out, busy) = place(&mut p, &[(Tid::new(5), Micros::ZERO)]);
        assert_eq!(out[&Tid::new(5)].total(), Micros::ZERO);
        assert_eq!(total_busy(&busy), Micros::ZERO);
        assert!(out[&Tid::new(5)].primary().as_u32() < 4);
    }
}
