//! The map-keyed engine this crate shipped before the flat plan, kept as
//! the reference oracle: [`OracleEngine::tick_into`] and
//! [`OraclePlacer::place_into`] are the former `Engine::tick_into` and
//! `Placer::place_into` bodies, unchanged — they re-walk the cgroup tree
//! and go through `FastMap<Tid, _>` for every thread, every tick — as is
//! [`water_fill_into`], the former fair-share rounds. The tests in
//! [`crate::engine`] drive both engines over random trees with structure
//! churn and require equal `cpu.stat`, outcomes, sticky cores and RNG
//! positions; the tests in [`crate::fair`] compare the fills directly.

use crate::dvfs::Governor;
use crate::engine::{ThreadSlice, TickOutcome};
use crate::fair::Entity;
use crate::power::node_power_w;
use crate::topology::NodeSpec;
use vfc_cgroupfs::tree::{CgroupTree, NodeIdx, ROOT};
use vfc_simcore::{CpuId, Cycles, FastMap, MHz, Micros, SplitMix64, Tid};

/// The former `fair::water_fill_into`: plain filling rounds, one 128-bit
/// division per entity and round, no early-out.
pub(crate) fn water_fill(capacity: u64, entities: &[Entity]) -> Vec<u64> {
    let n = entities.len();
    let mut alloc = vec![0; n];
    if n == 0 || capacity == 0 {
        return alloc;
    }

    let mut remaining = capacity.min(
        entities
            .iter()
            .fold(0u64, |acc, e| acc.saturating_add(e.cap)),
    );
    // Active = not yet saturated.
    let mut active: Vec<usize> = (0..n).filter(|&i| entities[i].cap > 0).collect();
    let mut next = Vec::new();

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
                return alloc;
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
            for &i in active.iter() {
                let fair =
                    (remaining as u128 * entities[i].weight as u128 / total_weight as u128) as u64;
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
        std::mem::swap(&mut active, &mut next);
    }
    alloc
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct PlacedThread {
    pub(crate) tid: Tid,
    start: u32,
    len: u32,
}

#[derive(Debug, Default)]
pub(crate) struct PlacementBuf {
    pub(crate) entries: Vec<PlacedThread>,
    pub(crate) core_busy: Vec<Micros>,
    slices: Vec<(CpuId, Micros)>,
    order: Vec<(Tid, Micros)>,
    remaining: Vec<Micros>,
}

impl PlacementBuf {
    pub(crate) fn slices_of(&self, e: &PlacedThread) -> &[(CpuId, Micros)] {
        &self.slices[e.start as usize..(e.start + e.len) as usize]
    }
}

/// The former `Placer`: sticky cores in a map that never forgets.
#[derive(Debug)]
pub(crate) struct OraclePlacer {
    nr_cpus: u32,
    pub(crate) sticky: FastMap<Tid, CpuId>,
    base_migration: f64,
    rng: SplitMix64,
}

impl OraclePlacer {
    /// Next raw draw of the placement stream.
    pub(crate) fn probe_rng(&mut self) -> u64 {
        self.rng.next_u64()
    }

    pub(crate) fn new(nr_cpus: u32, seed: u64) -> Self {
        OraclePlacer {
            nr_cpus,
            sticky: FastMap::default(),
            base_migration: 0.8,
            rng: SplitMix64::new(seed),
        }
    }

    pub(crate) fn place_into(
        &mut self,
        allocs: &[(Tid, Micros)],
        tick: Micros,
        buf: &mut PlacementBuf,
    ) {
        let n = self.nr_cpus as usize;
        buf.entries.clear();
        buf.slices.clear();
        buf.remaining.clear();
        buf.remaining.resize(n, tick);

        // Largest first for tight packing; tid tiebreak for determinism.
        buf.order.clear();
        buf.order.extend_from_slice(allocs);
        buf.order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        for oi in 0..buf.order.len() {
            let (tid, want) = buf.order[oi];
            let start = buf.slices.len() as u32;
            if want.is_zero() {
                // Idle threads still have a location; maybe migrate it.
                let cur = *self
                    .sticky
                    .entry(tid)
                    .or_insert_with(|| CpuId::new((tid.as_u32()) % self.nr_cpus.max(1)));
                let cur = if self.rng.chance(self.base_migration) {
                    CpuId::new(self.rng.next_below(self.nr_cpus as u64) as u32)
                } else {
                    cur
                };
                self.sticky.insert(tid, cur);
                buf.slices.push((cur, Micros::ZERO));
                buf.entries.push(PlacedThread { tid, start, len: 1 });
                continue;
            }

            let load = want.ratio_of(tick).clamp(0.0, 1.0);
            let p_migrate = self.base_migration * (1.0 - load) * (1.0 - load);
            let preferred = match self.sticky.get(&tid) {
                Some(&c) if !self.rng.chance(p_migrate) => Some(c),
                _ => None,
            };

            let mut left = want;

            // Try the sticky core first.
            if let Some(c) = preferred {
                let got = left.min(buf.remaining[c.as_usize()]);
                if !got.is_zero() {
                    buf.remaining[c.as_usize()] -= got;
                    buf.slices.push((c, got));
                    left -= got;
                }
            }

            // Spill to the emptiest cores.
            while !left.is_zero() {
                let (idx, &room) = buf
                    .remaining
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, r)| (**r, usize::MAX - *i))
                    .expect("at least one core");
                if room.is_zero() {
                    // Node over-committed beyond capacity: drop remainder.
                    // (The fair scheduler never allocates more than
                    // nr_cpus × tick, so this is unreachable from the
                    // engine; kept for standalone robustness.)
                    break;
                }
                let got = left.min(room);
                buf.remaining[idx] -= got;
                buf.slices.push((CpuId::new(idx as u32), got));
                left -= got;
            }

            let slices = &mut buf.slices[start as usize..];
            slices.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            if let Some((primary, _)) = slices.first() {
                self.sticky.insert(tid, *primary);
            }
            let len = buf.slices.len() as u32 - start;
            buf.entries.push(PlacedThread { tid, start, len });
        }

        buf.core_busy.clear();
        buf.core_busy
            .extend(buf.remaining.iter().map(|r| tick - *r));
    }
}

#[derive(Debug, Default)]
struct Scratch {
    dfs: Vec<NodeIdx>,
    caps: Vec<u64>,
    group_alloc: Vec<u64>,
    children: Vec<NodeIdx>,
    entities: Vec<Entity>,
    shares: Vec<u64>,
    thread_alloc: FastMap<Tid, Micros>,
    all_threads: Vec<(Tid, Micros)>,
    place: PlacementBuf,
}

/// The former `Engine`.
#[derive(Debug)]
pub(crate) struct OracleEngine {
    spec: NodeSpec,
    tick: Micros,
    governor: Governor,
    placer: OraclePlacer,
    core_freqs: Vec<MHz>,
    scratch: Scratch,
}

impl OracleEngine {
    /// Same seeds, same streams as `Engine::with_parts`.
    pub(crate) fn with_parts(spec: NodeSpec, tick: Micros, governor: Governor, seed: u64) -> Self {
        let nr = spec.nr_threads();
        let min = spec.min_mhz;
        OracleEngine {
            placer: OraclePlacer::new(nr, seed ^ 0x5151_5151),
            core_freqs: vec![min; nr as usize],
            spec,
            tick,
            governor,
            scratch: Scratch::default(),
        }
    }

    pub(crate) fn thread_last_cpu(&self, tid: Tid) -> Option<CpuId> {
        self.placer.sticky.get(&tid).copied()
    }

    /// Next raw draw of the placement and governor streams.
    pub(crate) fn probe_rngs(&mut self) -> (u64, u64) {
        (self.placer.probe_rng(), self.governor.probe_rng())
    }

    pub(crate) fn tick_into(
        &mut self,
        tree: &mut CgroupTree,
        demands: &FastMap<Tid, Micros>,
        out: &mut TickOutcome,
    ) {
        let tick = self.tick;
        let arena = tree.arena_size();
        let Scratch {
            dfs,
            caps,
            group_alloc,
            children,
            entities,
            shares,
            thread_alloc,
            all_threads,
            place,
        } = &mut self.scratch;

        // ---- 1. demand-side caps, bottom-up -------------------------------
        tree.iter_dfs_into(dfs);
        caps.clear();
        caps.resize(arena, 0);
        for &idx in dfs.iter().rev() {
            let node = tree.node(idx);
            let thread_demand: u64 = node
                .threads()
                .iter()
                .map(|t| {
                    demands
                        .get(t)
                        .copied()
                        .unwrap_or(Micros::ZERO)
                        .min(tick)
                        .as_u64()
                })
                .sum();
            let child_demand: u64 = tree.children(idx).map(|c| caps[c.0]).sum();
            let raw = thread_demand + child_demand;
            let quota = node.cpu_max.budget_for(tick).as_u64();
            caps[idx.0] = raw.min(quota);
        }

        // ---- 2. allocation, top-down --------------------------------------
        let capacity = (self.spec.nr_threads() as u64) * tick.as_u64();
        thread_alloc.clear();
        group_alloc.clear();
        group_alloc.resize(arena, 0);
        group_alloc[ROOT.0] = capacity.min(caps[ROOT.0]);

        // Pre-order traversal (parents before children); iter_dfs is one.
        for &idx in dfs.iter() {
            let budget = group_alloc[idx.0];
            let node = tree.node(idx);
            children.clear();
            children.extend(tree.children(idx));
            // Entities: child groups first, then direct threads.
            entities.clear();
            for &c in children.iter() {
                entities.push(Entity::new(tree.node(c).weight, caps[c.0]));
            }
            for t in node.threads() {
                let d = demands.get(t).copied().unwrap_or(Micros::ZERO).min(tick);
                entities.push(Entity::new(node.weight, d.as_u64()));
            }
            if entities.is_empty() {
                continue;
            }
            *shares = water_fill(budget, entities);
            for (i, &c) in children.iter().enumerate() {
                group_alloc[c.0] = shares[i];
            }
            for (k, t) in node.threads().iter().enumerate() {
                thread_alloc.insert(*t, Micros(shares[children.len() + k]));
            }
        }

        // ---- 3. usage + throttling accounting ------------------------------
        // Leaf usage, then per-group periods for limited groups.
        for &idx in dfs.iter() {
            let node = tree.node(idx);
            let has_threads = !node.threads().is_empty();
            let used: Micros = node
                .threads()
                .iter()
                .map(|t| thread_alloc.get(t).copied().unwrap_or(Micros::ZERO))
                .sum();
            let unlimited = node.cpu_max.is_unlimited();
            let quota = node.cpu_max.budget_for(tick).as_u64();
            let raw_demand: u64 = if unlimited {
                0
            } else {
                node.threads()
                    .iter()
                    .map(|t| {
                        demands
                            .get(t)
                            .copied()
                            .unwrap_or(Micros::ZERO)
                            .min(tick)
                            .as_u64()
                    })
                    .sum::<u64>()
                    + tree.children(idx).map(|c| caps[c.0]).sum::<u64>()
            };
            if has_threads {
                tree.node_mut(idx).cpu_stat.account_usage(used);
            }
            if !unlimited {
                let throttled_for = if raw_demand > quota {
                    Micros(raw_demand - quota)
                } else {
                    Micros::ZERO
                };
                tree.node_mut(idx).cpu_stat.account_period(throttled_for);
            }
        }

        // ---- 4. placement ---------------------------------------------------
        // Include every known thread so idle ones keep a location.
        all_threads.clear();
        for &idx in dfs.iter() {
            for t in tree.node(idx).threads() {
                all_threads.push((*t, thread_alloc.get(t).copied().unwrap_or(Micros::ZERO)));
            }
        }
        self.placer.place_into(all_threads, tick, place);
        let core_busy = &place.core_busy;

        // ---- 5. DVFS ---------------------------------------------------------
        for (i, busy) in core_busy.iter().enumerate() {
            let util = busy.ratio_of(tick);
            self.core_freqs[i] = self.governor.core_freq(util);
        }

        // ---- 6. per-thread work ----------------------------------------------
        out.threads.clear();
        for e in place.entries.iter() {
            let slices = place.slices_of(e);
            let mut ran = Micros::ZERO;
            let mut work = Cycles::ZERO;
            for (cpu, us) in slices {
                ran += *us;
                work += Cycles::from_time_at(*us, self.core_freqs[cpu.as_usize()]);
            }
            let last_cpu = slices.first().map(|(c, _)| *c).unwrap_or(CpuId::new(0));
            out.threads.insert(
                e.tid,
                ThreadSlice {
                    ran,
                    last_cpu,
                    work,
                },
            );
        }

        // ---- 7. power ----------------------------------------------------------
        let total_busy: Micros = core_busy.iter().copied().sum();
        let utilization = total_busy.as_u64() as f64 / capacity as f64;
        let active_freq = {
            let mut weighted = 0u64;
            for (i, busy) in core_busy.iter().enumerate() {
                weighted += busy.as_u64() * self.core_freqs[i].as_u32() as u64;
            }
            if total_busy.is_zero() {
                self.spec.min_mhz
            } else {
                MHz((weighted / total_busy.as_u64()) as u32)
            }
        };
        let power_w = node_power_w(&self.spec, utilization, active_freq);

        out.core_freqs.clear();
        out.core_freqs.extend_from_slice(&self.core_freqs);
        out.core_busy.clear();
        out.core_busy.extend_from_slice(core_busy);
        out.utilization = utilization;
        out.power_w = power_w;
    }
}
