//! The per-tick host scheduling engine.
//!
//! One [`Engine`] tick models what Linux does over a 100 ms bandwidth
//! period (the default `cpu.max` period):
//!
//! 1. **Hierarchical fair share** — node capacity (`nr_cpus × tick` µs of
//!    CPU time) is distributed over the cgroup tree by weighted
//!    water-filling ([`crate::fair`]); every group is capped by its
//!    `cpu.max` budget and by its subtree demand; every thread by its own
//!    demand and the wall clock (`tick`).
//! 2. **Throttling accounting** — groups that hit their quota get
//!    `nr_throttled`/`throttled_usec` updates in their `cpu.stat`.
//! 3. **Placement** — granted time is packed onto cores with sticky,
//!    load-aware placement ([`crate::place`]).
//! 4. **DVFS** — per-core utilization drives the governor; the resulting
//!    frequencies determine how much *work* (hardware cycles) each thread
//!    actually performed.
//! 5. **Power** — node draw from utilization and average frequency.
//!
//! The engine deliberately knows nothing about VMs: it sees a cgroup tree
//! and per-thread demands, exactly like the kernel.
//!
//! What those steps need to know about the *shape* of the tree — which
//! groups exist in which order, which threads sit where — is kept in a
//! flattened plan that is rebuilt only when
//! [`CgroupTree::structure_epoch`] moves. The steps run over vectors
//! indexed by group position and thread slot ([`Engine::tick_slots`]);
//! [`Engine::tick_into`] is the map-keyed front of the same code. `cpu.max` and `cpu.weight` are gathered into the plan
//! again only when [`CgroupTree::values_epoch`] moves too — once per
//! controller write, not once per tick.

use crate::dvfs::Governor;
use crate::fair::{water_fill_into, Entity, FillScratch};
use crate::place::{PlacementBuf, Placer};
use crate::power::node_power_w;
use crate::topology::NodeSpec;
use vfc_cgroupfs::model::CpuMax;
use vfc_cgroupfs::tree::{CgroupTree, NodeIdx, ROOT};
use vfc_simcore::{CpuId, Cycles, FastMap, MHz, Micros, Tid};

/// What one thread got out of a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSlice {
    /// CPU time actually run.
    pub ran: Micros,
    /// Core the thread mainly ran on (what `/proc/{tid}/stat` reports).
    pub last_cpu: CpuId,
    /// Hardware cycles performed (`Σ slice_µs × core_MHz`).
    pub work: Cycles,
}

/// Aggregate result of one engine tick, keyed by thread id.
#[derive(Debug, Clone, Default)]
pub struct TickOutcome {
    /// Per-thread outcome of the tick.
    pub threads: FastMap<Tid, ThreadSlice>,
    /// Frequency each core reported this tick.
    pub core_freqs: Vec<MHz>,
    /// Busy time per core.
    pub core_busy: Vec<Micros>,
    /// Node utilization (busy / capacity) in [0, 1].
    pub utilization: f64,
    /// Node power draw, Watts.
    pub power_w: f64,
}

impl TickOutcome {
    /// Mean frequency across all cores.
    pub fn mean_core_freq(&self) -> MHz {
        mean_freq(&self.core_freqs)
    }
}

/// Result of one engine tick, indexed by thread slot: a view into the
/// engine, valid until its next tick. See [`Engine::tick_slots`].
#[derive(Debug, Clone, Copy)]
pub struct SlotTick<'a> {
    /// Thread in each slot ([`Engine::slots`]).
    pub tids: &'a [Tid],
    /// Per-thread outcome of the tick, by slot.
    pub threads: &'a [ThreadSlice],
    /// Frequency each core reported this tick.
    pub core_freqs: &'a [MHz],
    /// Busy time per core.
    pub core_busy: &'a [Micros],
    /// Node utilization (busy / capacity) in [0, 1].
    pub utilization: f64,
    /// Node power draw, Watts.
    pub power_w: f64,
}

impl SlotTick<'_> {
    /// Mean frequency across all cores.
    pub fn mean_core_freq(&self) -> MHz {
        mean_freq(self.core_freqs)
    }
}

fn mean_freq(core_freqs: &[MHz]) -> MHz {
    if core_freqs.is_empty() {
        return MHz::ZERO;
    }
    let sum: u64 = core_freqs.iter().map(|f| f.as_u32() as u64).sum();
    MHz((sum / core_freqs.len() as u64) as u32)
}

/// Everything about a cgroup tree that stays the same from tick to tick,
/// flattened: groups numbered by *position* (pre-order, so a parent comes
/// before its subtree and a subtree is a contiguous range), threads
/// numbered by *slot* (position order, then `cgroup.threads` order, so
/// the threads of a group — and of a whole subtree — are a contiguous
/// range too). Rebuilt only when [`CgroupTree::structure_epoch`] moves.
#[derive(Debug, Default)]
struct Plan {
    /// Structure epoch of the tree this was built from; 0 before the first.
    epoch: u64,
    /// Group at each position.
    nodes: Vec<NodeIdx>,
    /// Position of each group's parent (the root names itself).
    parent: Vec<u32>,
    /// One past the last position of each group's subtree. The children
    /// of `p` are `p + 1`, `subtree_end[p + 1]`, … while below
    /// `subtree_end[p]`: how `children` is built.
    subtree_end: Vec<u32>,
    /// Children of each group, in order: group `p`'s are
    /// `children[child_start[p]..child_start[p + 1]]` (one trailing entry).
    child_start: Vec<u32>,
    children: Vec<u32>,
    /// First slot of each group's own threads; one trailing entry, so
    /// group `p` owns `thread_start[p]..thread_start[p + 1]` and its
    /// subtree `thread_start[p]..thread_start[subtree_end[p]]`.
    thread_start: Vec<u32>,
    /// Thread in each slot.
    tids: Vec<Tid>,
    /// Position of each slot's group.
    pos_of_slot: Vec<u32>,
    /// `(thread, slot)`, sorted by thread.
    by_tid: Vec<(Tid, u32)>,
    /// Values epoch of the tree `weight`, `cpu_max` and `quota` were
    /// gathered from.
    values: u64,
    /// `cpu.weight` per position.
    weight: Vec<u32>,
    /// `cpu.max` per position.
    cpu_max: Vec<CpuMax>,
    /// Budget for one tick per position. A gather recomputes only the
    /// budgets whose `cpu.max` changed: one is a 128-bit division.
    quota: Vec<u64>,
}

impl Plan {
    fn rebuild(&mut self, tree: &CgroupTree, tick: Micros, placer: &mut Placer) {
        self.nodes.clear();
        self.parent.clear();
        self.subtree_end.clear();
        self.thread_start.clear();
        self.tids.clear();
        self.pos_of_slot.clear();
        self.push_subtree(tree, ROOT, 0);
        self.thread_start.push(self.tids.len() as u32);
        self.child_start.clear();
        self.children.clear();
        for p in 0..self.nodes.len() {
            self.child_start.push(self.children.len() as u32);
            let mut c = p + 1;
            while c < self.subtree_end[p] as usize {
                self.children.push(c as u32);
                c = self.subtree_end[c] as usize;
            }
        }
        self.child_start.push(self.children.len() as u32);
        self.cpu_max.clear();
        self.quota.clear();
        self.gather_values(tree, tick);

        // Sticky cores follow their thread into its new slot; threads that
        // left are forgotten. `by_tid` still indexes the old slots here.
        let old_of_new: Vec<Option<u32>> = self
            .tids
            .iter()
            .map(|t| self.slot_of(*t).map(|s| s as u32))
            .collect();
        placer.remap(&old_of_new);

        self.by_tid.clear();
        self.by_tid
            .extend(self.tids.iter().enumerate().map(|(s, t)| (*t, s as u32)));
        self.by_tid.sort_unstable();
        self.epoch = tree.structure_epoch();
    }

    /// Recursion depth is the hierarchy depth (root → slice → scope →
    /// libvirt → vCPU group, a small constant).
    fn push_subtree(&mut self, tree: &CgroupTree, idx: NodeIdx, parent: u32) {
        let pos = self.nodes.len();
        self.nodes.push(idx);
        self.parent.push(parent);
        self.subtree_end.push(0);
        self.thread_start.push(self.tids.len() as u32);
        let threads = tree.node(idx).threads();
        self.tids.extend_from_slice(threads);
        self.pos_of_slot
            .extend(std::iter::repeat_n(pos as u32, threads.len()));
        for c in tree.children(idx) {
            self.push_subtree(tree, c, pos as u32);
        }
        self.subtree_end[pos] = self.nodes.len() as u32;
    }

    /// Read every group's `cpu.weight` and `cpu.max` again.
    fn gather_values(&mut self, tree: &CgroupTree, tick: Micros) {
        let unlimited = CpuMax::unlimited();
        self.weight.clear();
        self.cpu_max.resize(self.nodes.len(), unlimited);
        self.quota
            .resize(self.nodes.len(), unlimited.budget_for(tick).as_u64());
        for ((idx, cpu_max), quota) in self
            .nodes
            .iter()
            .zip(&mut self.cpu_max)
            .zip(&mut self.quota)
        {
            let node = tree.node(*idx);
            self.weight.push(node.weight);
            if *cpu_max != node.cpu_max {
                *cpu_max = node.cpu_max;
                *quota = node.cpu_max.budget_for(tick).as_u64();
            }
        }
        self.values = tree.values_epoch();
    }

    fn slot_of(&self, tid: Tid) -> Option<usize> {
        let i = self.by_tid.binary_search_by_key(&tid, |e| e.0).ok()?;
        Some(self.by_tid[i].1 as usize)
    }
}

/// Reusable per-tick working memory, sized by the plan: the steady-state
/// tick allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// What each group asks for, per position: its threads' demands plus
    /// its children's caps, before its own quota.
    raw: Vec<u64>,
    /// Demand-side cap per position: `raw` under the group's quota.
    caps: Vec<u64>,
    /// Granted budget per position.
    group_alloc: Vec<u64>,
    /// Demand per slot, clamped to the tick.
    want: Vec<u64>,
    /// Granted CPU time per slot.
    alloc: Vec<Micros>,
    /// Water-filling entities, output and bookkeeping of the current group.
    entities: Vec<Entity>,
    shares: Vec<u64>,
    fill: FillScratch,
    place: PlacementBuf,
    /// Slot demands gathered by the map-keyed [`Engine::tick_into`].
    map_demands: Vec<Micros>,
}

/// Host scheduling engine. See module docs.
#[derive(Debug)]
pub struct Engine {
    spec: NodeSpec,
    tick: Micros,
    governor: Governor,
    placer: Placer,
    /// Frequencies from the last tick (idle cores keep reporting).
    core_freqs: Vec<MHz>,
    plan: Plan,
    plan_rebuilds: u64,
    scratch: Scratch,
    /// Outcome of the last tick, per slot.
    slices: Vec<ThreadSlice>,
}

impl Engine {
    /// Engine with the default 100 ms tick and a schedutil-like governor.
    pub fn new(spec: NodeSpec, seed: u64) -> Self {
        let governor = Governor::new(
            crate::dvfs::GovernorKind::Schedutil,
            spec.min_mhz,
            spec.max_mhz,
            seed ^ 0x9E37_79B9,
        );
        Engine::with_parts(spec, Micros(100_000), governor, seed)
    }

    /// Fully explicit construction.
    pub fn with_parts(spec: NodeSpec, tick: Micros, governor: Governor, seed: u64) -> Self {
        assert!(!tick.is_zero(), "tick must be positive");
        let nr = spec.nr_threads();
        let min = spec.min_mhz;
        Engine {
            placer: Placer::new(nr, seed ^ 0x5151_5151),
            core_freqs: vec![min; nr as usize],
            spec,
            tick,
            governor,
            plan: Plan::default(),
            plan_rebuilds: 0,
            scratch: Scratch::default(),
            slices: Vec::new(),
        }
    }

    /// The node this engine schedules.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The engine tick length.
    pub fn tick_len(&self) -> Micros {
        self.tick
    }

    /// Current frequency of one core (between ticks, the last reading).
    pub fn core_freq(&self, cpu: CpuId) -> MHz {
        self.core_freqs
            .get(cpu.as_usize())
            .copied()
            .unwrap_or(MHz::ZERO)
    }

    /// Last primary core of a thread, if it ran under the current plan or
    /// was carried into it. Threads that left the tree are forgotten at
    /// the next plan rebuild.
    pub fn thread_last_cpu(&self, tid: Tid) -> Option<CpuId> {
        self.slot_last_cpu(self.plan.slot_of(tid)?)
    }

    /// [`Engine::thread_last_cpu`] for the thread in `slot` of the
    /// current plan ([`Engine::slot_of`]), without the search by id.
    pub fn slot_last_cpu(&self, slot: usize) -> Option<CpuId> {
        self.placer.last_cpu(slot)
    }

    /// Bring the flattened plan up to date with `tree`; `true` if it had
    /// to be rebuilt, after which slots are renumbered. Every tick does
    /// this itself — call it first only to learn the slots
    /// ([`Engine::slots`], [`Engine::slot_of`]) before filling the demand
    /// vector of [`Engine::tick_slots`].
    pub fn sync(&mut self, tree: &CgroupTree) -> bool {
        if self.plan.epoch == tree.structure_epoch() {
            if self.plan.values != tree.values_epoch() {
                self.plan.gather_values(tree, self.tick);
            }
            return false;
        }
        self.plan.rebuild(tree, self.tick, &mut self.placer);
        self.plan_rebuilds += 1;
        true
    }

    /// Thread in each slot of the current plan: pre-order over the groups,
    /// `cgroup.threads` order within a group.
    pub fn slots(&self) -> &[Tid] {
        &self.plan.tids
    }

    /// Slot of a thread in the current plan.
    pub fn slot_of(&self, tid: Tid) -> Option<usize> {
        self.plan.slot_of(tid)
    }

    /// How often the plan was rebuilt — once per tree whose structure
    /// epoch differed from the plan's at a `sync` or tick.
    pub fn plan_rebuilds(&self) -> u64 {
        self.plan_rebuilds
    }

    /// Threads the placer remembers a core for.
    pub fn tracked_threads(&self) -> usize {
        self.placer.tracked_threads()
    }

    /// Advance the host by one tick into a caller-owned [`TickOutcome`].
    ///
    /// `demands` maps each thread to the CPU time it *wants* this tick
    /// (clamped to `tick`); absent threads are idle. Usage and throttling
    /// are accounted into `tree`. The map-keyed front of
    /// [`Engine::tick_slots`]: one lookup per thread to gather the slot
    /// demands, one insert per thread to key the outcome.
    pub fn tick_into(
        &mut self,
        tree: &mut CgroupTree,
        demands: &FastMap<Tid, Micros>,
        out: &mut TickOutcome,
    ) {
        self.sync(tree);
        let mut by_slot = std::mem::take(&mut self.scratch.map_demands);
        by_slot.clear();
        by_slot.extend(
            self.plan
                .tids
                .iter()
                .map(|t| demands.get(t).copied().unwrap_or(Micros::ZERO)),
        );
        let tick = self.tick_slots(tree, &by_slot);
        out.threads.clear();
        out.threads
            .extend(tick.tids.iter().copied().zip(tick.threads.iter().copied()));
        out.core_freqs.clear();
        out.core_freqs.extend_from_slice(tick.core_freqs);
        out.core_busy.clear();
        out.core_busy.extend_from_slice(tick.core_busy);
        out.utilization = tick.utilization;
        out.power_w = tick.power_w;
        self.scratch.map_demands = by_slot;
    }

    /// Advance the host by one tick, slot-indexed: `demands[s]` is the CPU
    /// time thread [`Engine::slots`]`[s]` *wants* this tick (clamped to
    /// `tick`), and the returned view carries what it got in `threads[s]`.
    /// Usage and throttling are accounted into `tree`. The steady-state
    /// tick performs no heap allocation and no lookup by thread id.
    ///
    /// # Panics
    /// Panics unless `demands` has one entry per slot of the plan for
    /// `tree` as it is now — [`Engine::sync`] first, then fill.
    pub fn tick_slots(&mut self, tree: &mut CgroupTree, demands: &[Micros]) -> SlotTick<'_> {
        self.sync(tree);
        let tick = self.tick;
        let plan = &self.plan;
        let n_pos = plan.nodes.len();
        assert_eq!(
            demands.len(),
            plan.tids.len(),
            "one demand per slot of the current plan"
        );
        let Scratch {
            raw,
            caps,
            group_alloc,
            want,
            alloc,
            entities,
            shares,
            fill,
            place,
            map_demands: _,
        } = &mut self.scratch;

        // ---- 1. demand-side caps, bottom-up -------------------------------
        // Threads' demands into their groups, then reverse pre-order:
        // every group is final before it is added to its parent.
        want.clear();
        raw.clear();
        raw.resize(n_pos, 0);
        for (d, p) in demands.iter().zip(&plan.pos_of_slot) {
            let w = (*d).min(tick).as_u64();
            want.push(w);
            raw[*p as usize] += w;
        }
        let weight = &plan.weight;
        caps.resize(n_pos, 0);
        for p in (1..n_pos).rev() {
            let cap = raw[p].min(plan.quota[p]);
            caps[p] = cap;
            raw[plan.parent[p] as usize] += cap;
        }
        caps[0] = raw[0].min(plan.quota[0]);

        // ---- 2. allocation, top-down; 3. usage + throttling accounting ----
        let capacity = (self.spec.nr_threads() as u64) * tick.as_u64();
        group_alloc.resize(n_pos, 0);
        group_alloc[0] = capacity.min(caps[0]);
        alloc.resize(want.len(), Micros::ZERO);
        for p in 0..n_pos {
            let budget = group_alloc[p];
            let kids =
                &plan.children[plan.child_start[p] as usize..plan.child_start[p + 1] as usize];
            let threads = plan.thread_start[p] as usize..plan.thread_start[p + 1] as usize;
            if threads.is_empty() && kids.len() == 1 {
                // A lone entity gets min(budget, cap) whatever its weight.
                let c = kids[0] as usize;
                group_alloc[c] = budget.min(caps[c]);
            } else if threads.len() == 1 && kids.is_empty() {
                alloc[threads.start] = Micros(budget.min(want[threads.start]));
            } else if !threads.is_empty() || !kids.is_empty() {
                // Entities: child groups first, then direct threads.
                entities.clear();
                entities.extend(
                    kids.iter()
                        .map(|c| Entity::new(weight[*c as usize], caps[*c as usize])),
                );
                entities.extend(
                    want[threads.clone()]
                        .iter()
                        .map(|d| Entity::new(weight[p], *d)),
                );
                water_fill_into(budget, entities, shares, fill);
                for (c, share) in kids.iter().zip(shares.iter()) {
                    group_alloc[*c as usize] = *share;
                }
                for (a, share) in alloc[threads.clone()].iter_mut().zip(&shares[kids.len()..]) {
                    *a = Micros(*share);
                }
            }

            let (cpu_max, quota) = (plan.cpu_max[p], plan.quota[p]);
            if !threads.is_empty() || !cpu_max.is_unlimited() {
                let stat = tree.stat_mut(plan.nodes[p]);
                if !threads.is_empty() {
                    stat.account_usage(alloc[threads].iter().copied().sum());
                }
                if !cpu_max.is_unlimited() {
                    stat.account_period(Micros(raw[p].saturating_sub(quota)));
                }
            }
        }

        // ---- 4. placement ---------------------------------------------------
        // Every known thread is placed, so idle ones keep a location.
        self.placer
            .place_into(&plan.tids, alloc, &plan.by_tid, tick, place);
        let core_busy = &place.core_busy;

        // ---- 5. DVFS ---------------------------------------------------------
        for (i, busy) in core_busy.iter().enumerate() {
            let util = busy.ratio_of(tick);
            self.core_freqs[i] = self.governor.core_freq(util);
        }

        // ---- 6. per-thread work ----------------------------------------------
        let idle = ThreadSlice {
            ran: Micros::ZERO,
            last_cpu: CpuId::new(0),
            work: Cycles::ZERO,
        };
        self.slices.resize(alloc.len(), idle);
        for e in place.entries.iter() {
            let slices = place.slices_of(e);
            let mut ran = Micros::ZERO;
            let mut work = Cycles::ZERO;
            for (cpu, us) in slices {
                ran += *us;
                work += Cycles::from_time_at(*us, self.core_freqs[cpu.as_usize()]);
            }
            let last_cpu = slices.first().map(|(c, _)| *c).unwrap_or(CpuId::new(0));
            self.slices[e.slot as usize] = ThreadSlice {
                ran,
                last_cpu,
                work,
            };
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

        SlotTick {
            tids: &plan.tids,
            threads: &self.slices,
            core_freqs: &self.core_freqs,
            core_busy,
            utilization,
            power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_cgroupfs::model::CpuMax;
    use vfc_cgroupfs::tree::ROOT;

    const TICK: Micros = Micros(100_000);

    fn engine(threads: u32) -> Engine {
        let spec = NodeSpec::custom("test", 1, threads, 1, MHz(2400));
        let gov = Governor::new(
            crate::dvfs::GovernorKind::Performance,
            spec.min_mhz,
            spec.max_mhz,
            1,
        )
        .with_noise_std(0.0);
        Engine::with_parts(spec, TICK, gov, 42)
    }

    /// Build `/vmK/vcpuJ`-style two-level trees with one thread per leaf.
    fn build_tree(vms: &[u32]) -> (CgroupTree, Vec<Vec<Tid>>) {
        let mut tree = CgroupTree::new();
        let mut tids = Vec::new();
        let mut next_tid = 100;
        for (k, &vcpus) in vms.iter().enumerate() {
            let scope = tree.mkdir(ROOT, &format!("vm{k}")).unwrap();
            let mut vm_tids = Vec::new();
            for j in 0..vcpus {
                let leaf = tree.mkdir(scope, &format!("vcpu{j}")).unwrap();
                let tid = Tid::new(next_tid);
                next_tid += 1;
                tree.attach_thread(leaf, tid);
                vm_tids.push(tid);
            }
            tids.push(vm_tids);
        }
        (tree, tids)
    }

    /// One tick through the map-keyed front, into a fresh outcome.
    fn tick(e: &mut Engine, tree: &mut CgroupTree, demands: &FastMap<Tid, Micros>) -> TickOutcome {
        let mut out = TickOutcome::default();
        e.tick_into(tree, demands, &mut out);
        out
    }

    fn full_demand(tids: &[Vec<Tid>]) -> FastMap<Tid, Micros> {
        tids.iter().flatten().map(|t| (*t, TICK)).collect()
    }

    #[test]
    fn single_thread_gets_its_demand() {
        let mut e = engine(4);
        let (mut tree, tids) = build_tree(&[1]);
        let demands: FastMap<_, _> = [(tids[0][0], Micros(40_000))].into_iter().collect();
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(40_000));
        // Performance governor at 2400: work = 40_000 µs × 2400 MHz.
        assert_eq!(out.threads[&tids[0][0]].work, Cycles(96_000_000));
    }

    #[test]
    fn cfs_shares_per_vm_not_per_vcpu() {
        // The paper's key scenario-A observation: a 2-vCPU VM and a 4-vCPU
        // VM on a saturated host get the *same* VM-level share, so the
        // 2-vCPU VM's vCPUs run faster.
        let mut e = engine(3); // 3 threads of capacity for 6 vCPUs
        let (mut tree, tids) = build_tree(&[2, 4]);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let vm0: Micros = tids[0].iter().map(|t| out.threads[t].ran).sum();
        let vm1: Micros = tids[1].iter().map(|t| out.threads[t].ran).sum();
        // Equal shares per VM: 150k each out of 300k capacity.
        assert_eq!(vm0, Micros(150_000));
        assert_eq!(vm1, Micros(150_000));
        // So each small vCPU runs 75k, each large vCPU 37.5k.
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(75_000));
        assert_eq!(out.threads[&tids[1][0]].ran, Micros(37_500));
    }

    #[test]
    fn side_experiment_b_one_vcpu_vms_get_four_fifths() {
        // §IV.A.2 b): 40 VMs × 1 vCPU + 10 VMs × 4 vCPUs on 40 threads:
        // each VM gets 1/50 of 40 threads = 0.8 thread; the 1-vCPU VMs
        // together take 32/40 = 4/5 of the node.
        let spec = NodeSpec::custom("test", 1, 40, 1, MHz(2400));
        let gov = Governor::new(
            crate::dvfs::GovernorKind::Performance,
            spec.min_mhz,
            spec.max_mhz,
            1,
        )
        .with_noise_std(0.0);
        let mut e = Engine::with_parts(spec, TICK, gov, 7);
        let mut vms: Vec<u32> = vec![1; 40];
        vms.extend_from_slice(&[4; 10]);
        let (mut tree, tids) = build_tree(&vms);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let singles: Micros = tids[..40]
            .iter()
            .flatten()
            .map(|t| out.threads[t].ran)
            .sum();
        let total: Micros = tids.iter().flatten().map(|t| out.threads[t].ran).sum();
        let share = singles.ratio_of(total);
        assert!(
            (share - 0.8).abs() < 0.01,
            "1-vCPU VMs got {share} of the node"
        );
    }

    #[test]
    fn quota_caps_a_group() {
        let mut e = engine(4);
        let (mut tree, tids) = build_tree(&[1]);
        // Cap vm0 at 25 % of one CPU.
        let leaf = tree.resolve("/vm0/vcpu0").unwrap();
        tree.node_mut(leaf).cpu_max = CpuMax::limited(Micros(25_000));
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(25_000));
        // Throttle accounting happened.
        let stat = tree.node(leaf).cpu_stat;
        assert_eq!(stat.nr_periods, 1);
        assert_eq!(stat.nr_throttled, 1);
        assert_eq!(stat.throttled_usec, Micros(75_000));
    }

    #[test]
    fn quota_on_parent_caps_subtree() {
        let mut e = engine(4);
        let (mut tree, tids) = build_tree(&[2]);
        let scope = tree.resolve("/vm0").unwrap();
        tree.node_mut(scope).cpu_max = CpuMax::limited(Micros(50_000));
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let total: Micros = tids[0].iter().map(|t| out.threads[t].ran).sum();
        assert_eq!(total, Micros(50_000));
        // Fairly split between the two vCPUs.
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(25_000));
    }

    #[test]
    fn unthrottled_group_has_no_periods() {
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[1]);
        let demands = full_demand(&tids);
        tick(&mut e, &mut tree, &demands);
        let leaf = tree.resolve("/vm0/vcpu0").unwrap();
        assert_eq!(tree.node(leaf).cpu_stat.nr_periods, 0);
        assert_eq!(tree.node(leaf).cpu_stat.usage_usec, TICK);
    }

    #[test]
    fn work_conservation_across_tree() {
        // Demand far exceeds capacity: every µs of the node must be used.
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[3, 2, 1]);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let total: Micros = tids.iter().flatten().map(|t| out.threads[t].ran).sum();
        assert_eq!(total, Micros(200_000));
        assert!((out.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_node_uses_no_time() {
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[2]);
        let demands: FastMap<Tid, Micros> = tids[0].iter().map(|t| (*t, Micros::ZERO)).collect();
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.utilization, 0.0);
        let total: Micros = tids[0].iter().map(|t| out.threads[t].ran).sum();
        assert_eq!(total, Micros::ZERO);
        // Power is the idle floor.
        assert!((out.power_w - e.spec().idle_power_w).abs() < 1e-9);
    }

    #[test]
    fn usage_accumulates_across_ticks() {
        let mut e = engine(1);
        let (mut tree, tids) = build_tree(&[1]);
        let demands = full_demand(&tids);
        for _ in 0..5 {
            tick(&mut e, &mut tree, &demands);
        }
        let leaf = tree.resolve("/vm0/vcpu0").unwrap();
        assert_eq!(tree.node(leaf).cpu_stat.usage_usec, Micros(500_000));
    }

    /// `cpu.max` and `cpu.weight` written between two ticks, with no
    /// structure change, decide the very next tick.
    #[test]
    fn knob_writes_reach_the_next_tick() {
        let mut e = engine(1);
        let (mut tree, tids) = build_tree(&[1, 1]);
        let (vm0, vm1) = (tree.resolve("/vm0").unwrap(), tree.resolve("/vm1").unwrap());
        let leaf1 = tree.resolve("/vm1/vcpu0").unwrap();
        let demands = [TICK, TICK];
        let ran = |e: &mut Engine, tree: &mut CgroupTree| {
            let out = e.tick_slots(tree, &demands);
            [0, 1]
                .map(|vm| out.threads[out.tids.iter().position(|t| *t == tids[vm][0]).unwrap()].ran)
        };
        assert_eq!(ran(&mut e, &mut tree), [Micros(50_000); 2]);

        tree.node_mut(leaf1).cpu_max = CpuMax::limited(Micros(10_000));
        assert_eq!(ran(&mut e, &mut tree), [Micros(90_000), Micros(10_000)]);

        tree.node_mut(leaf1).cpu_max = CpuMax::unlimited();
        tree.node_mut(vm0).weight = 300;
        assert_eq!(ran(&mut e, &mut tree), [Micros(75_000), Micros(25_000)]);

        tree.node_mut(vm1).weight = 300;
        assert_eq!(ran(&mut e, &mut tree), [Micros(50_000); 2]);
        assert_eq!(e.plan_rebuilds(), 1, "values are not structure");
    }

    #[test]
    fn weights_shift_vm_shares() {
        let mut e = engine(1);
        let (mut tree, tids) = build_tree(&[1, 1]);
        let vm0 = tree.resolve("/vm0").unwrap();
        tree.node_mut(vm0).weight = 200; // double weight
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let a = out.threads[&tids[0][0]].ran.as_u64() as f64;
        let b = out.threads[&tids[1][0]].ran.as_u64() as f64;
        // 2:1 within integer-µs dust.
        assert!((a / b - 2.0).abs() < 1e-3, "{a} vs {b}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One VM's shape: vCPU count, optional quota, per-vCPU demands.
        type VmShape = (u32, Option<u64>, Vec<u64>);

        /// Random two-level VM trees with optional per-VM quotas and
        /// arbitrary demands.
        fn arb_setup() -> impl Strategy<Value = (Vec<VmShape>, u32)> {
            // (vcpu demands µs, quota µs per 100 ms tick) per VM; thread
            // count of the node.
            (
                proptest::collection::vec(
                    (
                        proptest::option::of(1_000u64..150_000),
                        proptest::collection::vec(0u64..120_000, 1..4),
                    )
                        .prop_map(|(q, d)| (d.len() as u32, q, d)),
                    1..6,
                ),
                1u32..6,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_tick_invariants((vms, threads) in arb_setup()) {
                let spec = NodeSpec::custom("p", 1, threads, 1, MHz(2400));
                let gov = Governor::new(
                    crate::dvfs::GovernorKind::Performance,
                    spec.min_mhz,
                    spec.max_mhz,
                    1,
                )
                .with_noise_std(0.0);
                let mut engine = Engine::with_parts(spec, TICK, gov, 5);

                let mut tree = CgroupTree::new();
                let mut demands = FastMap::default();
                let mut groups = Vec::new();
                let mut tid_n = 100u32;
                for (k, (_, quota, ds)) in vms.iter().enumerate() {
                    let scope = tree.mkdir(ROOT, &format!("vm{k}")).expect("fresh");
                    if let Some(q) = quota {
                        tree.node_mut(scope).cpu_max =
                            CpuMax::with_period(Micros(*q), Micros(100_000));
                    }
                    let mut tids = Vec::new();
                    for (j, d) in ds.iter().enumerate() {
                        let leaf =
                            tree.mkdir(scope, &format!("vcpu{j}")).expect("fresh");
                        let tid = Tid::new(tid_n);
                        tid_n += 1;
                        tree.attach_thread(leaf, tid);
                        demands.insert(tid, Micros(*d));
                        tids.push(tid);
                    }
                    groups.push((scope, *quota, tids, ds.clone()));
                }

                let out = tick(&mut engine, &mut tree, &demands);
                let capacity = threads as u64 * TICK.as_u64();

                // (1) Node capacity respected.
                let total: u64 = out
                    .threads
                    .values()
                    .map(|s| s.ran.as_u64())
                    .sum();
                prop_assert!(total <= capacity, "{total} > {capacity}");

                // (2) Nobody runs longer than it asked (clamped to tick).
                for (tid, slice) in &out.threads {
                    let want = demands[tid].min(TICK);
                    prop_assert!(slice.ran <= want);
                }

                // (3) Per-VM quota budgets hold.
                for (_, quota, tids, _) in &groups {
                    if let Some(q) = quota {
                        let used: u64 = tids
                            .iter()
                            .map(|t| out.threads[t].ran.as_u64())
                            .sum();
                        prop_assert!(used <= *q, "used {used} > quota {q}");
                    }
                }

                // (4) Work conservation without quotas: all feasible
                // demand is served.
                if vms.iter().all(|(_, q, _)| q.is_none()) {
                    let feasible: u64 = demands
                        .values()
                        .map(|d| (*d).min(TICK).as_u64())
                        .sum();
                    prop_assert_eq!(total, feasible.min(capacity));
                }

                // (5) Usage accounting matches the outcome.
                let accounted: u64 = groups
                    .iter()
                    .flat_map(|(_, _, tids, _)| tids.iter())
                    .map(|t| out.threads[t].ran.as_u64())
                    .sum();
                let from_tree: u64 = tree
                    .iter_dfs()
                    .iter()
                    .map(|&i| tree.node(i).cpu_stat.usage_usec.as_u64())
                    .sum();
                prop_assert_eq!(accounted, from_tree);
            }
        }
    }

    /// The flat-plan engine against the map-keyed reference oracle
    /// ([`crate::oracle`]): two copies of one tree, the same structure
    /// churn and demands fed to both, everything observable compared
    /// after every tick.
    mod oracle_equivalence {
        use super::*;
        use crate::dvfs::GovernorKind;
        use crate::oracle::OracleEngine;
        use proptest::prelude::*;
        use vfc_cgroupfs::tree::kvm_layout;
        use vfc_simcore::SplitMix64;

        /// One structure or knob change between two ticks. Selectors are
        /// reduced modulo the live population when applied.
        #[derive(Debug, Clone)]
        enum Op {
            Mkdir {
                parent: usize,
                name: u8,
            },
            Rmdir {
                group: usize,
            },
            Attach {
                group: usize,
            },
            Detach {
                group: usize,
            },
            Provision {
                vcpus: u32,
            },
            Deprovision {
                vm: usize,
            },
            /// `HostBackend::set_vm_weight`
            SetWeight {
                group: usize,
                weight: u32,
            },
            /// `HostBackend::set_vcpu_max`
            SetMax {
                group: usize,
                max: Option<(u64, u64)>,
            },
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0usize..64, 0u8..8).prop_map(|(parent, name)| Op::Mkdir { parent, name }),
                (0usize..64).prop_map(|group| Op::Rmdir { group }),
                (0usize..64).prop_map(|group| Op::Attach { group }),
                (0usize..64).prop_map(|group| Op::Detach { group }),
                (1u32..5).prop_map(|vcpus| Op::Provision { vcpus }),
                (0usize..64).prop_map(|vm| Op::Deprovision { vm }),
                (0usize..64, 0u32..400).prop_map(|(group, weight)| Op::SetWeight { group, weight }),
                (
                    0usize..64,
                    proptest::option::of((0u64..150_000, 50_000u64..200_001))
                )
                    .prop_map(|(group, max)| Op::SetMax { group, max }),
            ]
        }

        /// A tree under churn, with the bookkeeping to pick live targets.
        struct World {
            tree: CgroupTree,
            groups: Vec<NodeIdx>,
            /// Provisioned VMs: scope and vCPU leaves.
            vms: Vec<(NodeIdx, Vec<NodeIdx>)>,
            live_tids: Vec<Tid>,
            dead_tids: Vec<Tid>,
            next_tid: u32,
            next_machine: u32,
        }

        impl World {
            fn new() -> Self {
                World {
                    tree: CgroupTree::new(),
                    groups: vec![ROOT],
                    vms: Vec::new(),
                    live_tids: Vec::new(),
                    dead_tids: Vec::new(),
                    next_tid: 100,
                    next_machine: 1,
                }
            }

            fn attach(&mut self, group: NodeIdx) {
                let tid = Tid::new(self.next_tid);
                self.next_tid += 1;
                self.tree.attach_thread(group, tid);
                self.live_tids.push(tid);
            }

            fn detach(&mut self, group: NodeIdx) {
                let gone = self.tree.node(group).threads().to_vec();
                self.tree.detach_threads(group);
                self.live_tids.retain(|t| !gone.contains(t));
                self.dead_tids.extend(gone);
            }

            /// `rmdir` frees the slot for a later `mkdir`: no list may
            /// keep the index, or it would name that later group.
            fn rmdir(&mut self, group: NodeIdx) {
                if self.tree.rmdir(group).is_ok() {
                    self.groups.retain(|g| *g != group);
                    self.vms.retain(|(scope, _)| *scope != group);
                }
            }

            /// `top` and every group below it, parents first.
            fn subtree(&self, top: NodeIdx) -> Vec<NodeIdx> {
                let mut subtree = vec![top];
                let mut i = 0;
                while i < subtree.len() {
                    subtree.extend(self.tree.children(subtree[i]));
                    i += 1;
                }
                subtree
            }

            fn apply(&mut self, op: &Op) {
                let pick = |groups: &[NodeIdx], sel: usize| groups[sel % groups.len()];
                match *op {
                    Op::Mkdir { parent, name } => {
                        let parent = pick(&self.groups, parent);
                        if let Ok(g) = self.tree.mkdir(parent, &format!("g{name}")) {
                            self.groups.push(g);
                        }
                    }
                    Op::Rmdir { group } => self.rmdir(pick(&self.groups, group)),
                    Op::Attach { group } => self.attach(pick(&self.groups, group)),
                    Op::Detach { group } => self.detach(pick(&self.groups, group)),
                    Op::Provision { vcpus } => {
                        let n = self.next_machine;
                        self.next_machine += 1;
                        let slice = self.tree.child_named(ROOT, kvm_layout::MACHINE_SLICE);
                        let (scope, leaves) =
                            kvm_layout::provision(&mut self.tree, n, "vm", vcpus).expect("fresh");
                        // The new groups may sit in slots an `rmdir` freed.
                        if slice.is_none() {
                            self.groups
                                .push(self.tree.node(scope).parent().expect("slice"));
                        }
                        let subtree = self.subtree(scope);
                        self.groups.extend(subtree);
                        for &leaf in &leaves {
                            self.attach(leaf);
                        }
                        self.vms.push((scope, leaves));
                    }
                    Op::Deprovision { vm } => {
                        if self.vms.is_empty() {
                            return;
                        }
                        let (scope, _) = self.vms.remove(vm % self.vms.len());
                        // Leaves first: detach, then remove bottom-up.
                        for &g in self.subtree(scope).iter().rev() {
                            self.detach(g);
                            self.rmdir(g);
                        }
                    }
                    Op::SetWeight { group, weight } => {
                        self.tree.node_mut(pick(&self.groups, group)).weight = weight;
                    }
                    Op::SetMax { group, max } => {
                        self.tree.node_mut(pick(&self.groups, group)).cpu_max = match max {
                            None => CpuMax::unlimited(),
                            Some((q, p)) => CpuMax::with_period(Micros(q), Micros(p)),
                        };
                    }
                }
            }

            /// Demands of one tick: idle, partial, full and over-full
            /// threads, and some threads missing from the map.
            fn demands(&self, rng: &mut SplitMix64) -> FastMap<Tid, Micros> {
                let mut demands = FastMap::default();
                for &tid in &self.live_tids {
                    match rng.next_below(5) {
                        0 => {}
                        1 => drop(demands.insert(tid, Micros::ZERO)),
                        _ => drop(demands.insert(tid, Micros(rng.next_below(130_000)))),
                    }
                }
                // A thread the tree does not know is ignored.
                demands.insert(Tid::new(7), TICK);
                demands
            }
        }

        fn engines(threads: u32, seed: u64) -> (Engine, OracleEngine) {
            let spec = NodeSpec::custom("p", 1, threads, 1, MHz(2400));
            let gov = || Governor::new(GovernorKind::Schedutil, spec.min_mhz, spec.max_mhz, seed);
            (
                Engine::with_parts(spec.clone(), TICK, gov(), seed),
                OracleEngine::with_parts(spec.clone(), TICK, gov(), seed),
            )
        }

        /// Tick both engines on `demands` and require equal outcomes,
        /// equal `cpu.stat` everywhere and equal sticky cores.
        fn tick_both(
            engine: &mut Engine,
            oracle: &mut OracleEngine,
            world: &mut World,
            shadow: &mut CgroupTree,
            demands: &FastMap<Tid, Micros>,
        ) -> std::result::Result<(), String> {
            let mut got = TickOutcome::default();
            let mut want = TickOutcome::default();
            engine.tick_into(&mut world.tree, demands, &mut got);
            oracle.tick_into(shadow, demands, &mut want);
            prop_assert_eq!(&got.threads, &want.threads);
            prop_assert_eq!(&got.core_freqs, &want.core_freqs);
            prop_assert_eq!(&got.core_busy, &want.core_busy);
            prop_assert_eq!(got.utilization.to_bits(), want.utilization.to_bits());
            prop_assert_eq!(got.power_w.to_bits(), want.power_w.to_bits());
            let groups = world.tree.iter_dfs();
            prop_assert_eq!(&groups, &shadow.iter_dfs());
            for &g in &groups {
                prop_assert_eq!(world.tree.node(g).cpu_stat, shadow.node(g).cpu_stat);
            }
            for &tid in &world.live_tids {
                prop_assert_eq!(engine.thread_last_cpu(tid), oracle.thread_last_cpu(tid));
            }
            // The oracle never forgets; the engine tracks the live threads.
            for &tid in &world.dead_tids {
                prop_assert_eq!(engine.thread_last_cpu(tid), None);
            }
            prop_assert_eq!(engine.tracked_threads(), world.live_tids.len());
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn prop_flat_plan_equals_map_oracle_under_churn(
                setup in proptest::collection::vec(arb_op(), 0..12),
                steps in proptest::collection::vec(
                    proptest::collection::vec(arb_op(), 0..4),
                    32..40,
                ),
                threads in 1u32..6,
                seed in 0u64..1_000_000,
            ) {
                let mut world = World::new();
                let mut shadow_world = World::new();
                for op in &setup {
                    world.apply(op);
                    shadow_world.apply(op);
                }
                let (mut engine, mut oracle) = engines(threads, seed);
                let mut rng = SplitMix64::new(seed ^ 0xD3);
                let mut rebuilds = 0;
                for ops in &steps {
                    let epoch = world.tree.structure_epoch();
                    for op in ops {
                        world.apply(op);
                        shadow_world.apply(op);
                    }
                    let demands = world.demands(&mut rng);
                    let first = engine.plan_rebuilds() == 0;
                    tick_both(
                        &mut engine,
                        &mut oracle,
                        &mut world,
                        &mut shadow_world.tree,
                        &demands,
                    )?;
                    // Rebuilt when, and only when, the structure moved.
                    if first || world.tree.structure_epoch() != epoch {
                        rebuilds += 1;
                    }
                    prop_assert_eq!(engine.plan_rebuilds(), rebuilds);
                }
                let (placer_draw, governor_draw) = oracle.probe_rngs();
                prop_assert_eq!(engine.placer.probe_rng(), placer_draw);
                prop_assert_eq!(engine.governor.probe_rng(), governor_draw);
            }
        }

        /// Every structure mutator, alone between two ticks: a plan that
        /// survived it would schedule the old tree.
        #[test]
        fn no_mutator_leaves_a_stale_plan() {
            let mutators: [(&str, Op); 6] = [
                ("mkdir", Op::Mkdir { parent: 2, name: 7 }),
                ("attach_thread", Op::Attach { group: 1 }),
                ("detach_threads", Op::Detach { group: 6 }),
                ("provision", Op::Provision { vcpus: 3 }),
                ("deprovision (detach + rmdir)", Op::Deprovision { vm: 0 }),
                // Group 3 is VM 0's emulator group: empty, so this succeeds.
                ("rmdir", Op::Rmdir { group: 4 }),
            ];
            for (name, op) in mutators {
                let mut world = World::new();
                let mut shadow = World::new();
                for w in [&mut world, &mut shadow] {
                    w.apply(&Op::Provision { vcpus: 2 });
                    w.apply(&Op::Provision { vcpus: 1 });
                }
                let (mut engine, mut oracle) = engines(2, 9);
                let mut rng = SplitMix64::new(3);
                for round in 0..3 {
                    if round == 1 {
                        let before = world.tree.structure_epoch();
                        world.apply(&op);
                        shadow.apply(&op);
                        assert_ne!(world.tree.structure_epoch(), before, "{name}");
                    }
                    let demands = world.demands(&mut rng);
                    tick_both(
                        &mut engine,
                        &mut oracle,
                        &mut world,
                        &mut shadow.tree,
                        &demands,
                    )
                    .unwrap_or_else(|e| panic!("{name}, round {round}: {e:?}"));
                }
                assert_eq!(engine.plan_rebuilds(), 2, "{name}");
            }
        }

        /// A VM provisioned into the slots a departed one freed gets lower
        /// indices than an older VM, and must still be scheduled after it.
        #[test]
        fn a_provision_into_freed_slots_schedules_like_the_oracle() {
            let mut world = World::new();
            let mut shadow = World::new();
            let (mut engine, mut oracle) = engines(2, 5);
            let mut rng = SplitMix64::new(8);
            let script = [
                Op::Provision { vcpus: 2 },
                Op::Provision { vcpus: 1 },
                Op::Deprovision { vm: 0 },
                Op::Provision { vcpus: 2 },
                Op::Provision { vcpus: 3 },
            ];
            for op in &script {
                world.apply(op);
                shadow.apply(op);
                let demands = world.demands(&mut rng);
                tick_both(
                    &mut engine,
                    &mut oracle,
                    &mut world,
                    &mut shadow.tree,
                    &demands,
                )
                .unwrap_or_else(|e| panic!("{op:?}: {e:?}"));
            }
            let (old, reused) = (world.vms[0].0, world.vms[1].0);
            assert!(reused < old, "the third VM took the first one's slots");
            // Root, slice, and the first, second and fourth VMs' groups.
            assert_eq!(world.tree.arena_size(), 2 + 5 + 4 + 6);
        }

        /// The knobs a controller turns every period are not structure:
        /// they take effect without a rebuild.
        #[test]
        fn cpu_max_and_weight_take_effect_without_a_rebuild() {
            let mut world = World::new();
            let mut shadow = World::new();
            for w in [&mut world, &mut shadow] {
                w.apply(&Op::Provision { vcpus: 2 });
                w.apply(&Op::Provision { vcpus: 2 });
            }
            let (mut engine, mut oracle) = engines(2, 1);
            let mut rng = SplitMix64::new(8);
            for round in 0..6 {
                let knobs = [
                    Op::SetMax {
                        group: round + 3,
                        max: Some((10_000 * round as u64, 100_000)),
                    },
                    Op::SetWeight {
                        group: 2,
                        weight: 50 * round as u32,
                    },
                ];
                for op in &knobs {
                    world.apply(op);
                    shadow.apply(op);
                }
                let demands = world.demands(&mut rng);
                tick_both(
                    &mut engine,
                    &mut oracle,
                    &mut world,
                    &mut shadow.tree,
                    &demands,
                )
                .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
            }
            assert_eq!(engine.plan_rebuilds(), 1);
        }

        /// What `benchmark`'s `sim_probes` does: a clone of a tree another
        /// engine is ticking, under a fresh engine — and then the two
        /// trees diverge.
        #[test]
        fn a_cloned_tree_never_reuses_the_original_plan() {
            let mut world = World::new();
            world.apply(&Op::Provision { vcpus: 2 });
            let (mut engine, _) = engines(2, 4);
            let mut rng = SplitMix64::new(5);
            let demands = world.demands(&mut rng);
            tick(&mut engine, &mut world.tree, &demands);

            // Same engine, the clone: a different tree, so a rebuild even
            // though the structure is equal …
            let mut clone = world.tree.clone();
            tick(&mut engine, &mut clone, &demands);
            assert_eq!(engine.plan_rebuilds(), 2);
            // … and one step of divergence on each side cannot alias.
            let leaf = clone.mkdir(ROOT, "only-in-clone").unwrap();
            clone.attach_thread(leaf, Tid::new(9_000));
            world.apply(&Op::Provision { vcpus: 1 });
            tick(&mut engine, &mut clone, &demands);
            assert_eq!(engine.slots().last(), Some(&Tid::new(9_000)));
            tick(&mut engine, &mut world.tree, &demands);
            assert_eq!(engine.slot_of(Tid::new(9_000)), None);

            // A fresh engine on a clone equals the oracle on another.
            let (mut fresh, mut oracle) = engines(2, 6);
            let mut a = World::new();
            a.tree = world.tree.clone();
            a.live_tids = world.live_tids.clone();
            let mut b = world.tree.clone();
            for _ in 0..3 {
                let demands = a.demands(&mut rng);
                tick_both(&mut fresh, &mut oracle, &mut a, &mut b, &demands).unwrap();
            }
        }

        /// Regression: the sticky table grew with every thread a host ever
        /// ran (`Tid`s are never reused).
        #[test]
        fn sticky_table_tracks_live_threads_under_vm_churn() {
            let mut world = World::new();
            let (mut engine, _) = engines(4, 2);
            let mut rng = SplitMix64::new(1);
            for round in 0..50 {
                world.apply(&Op::Provision {
                    vcpus: 1 + round % 3,
                });
                if round >= 2 {
                    world.apply(&Op::Deprovision { vm: 0 });
                }
                let demands = world.demands(&mut rng);
                tick(&mut engine, &mut world.tree, &demands);
                assert_eq!(engine.tracked_threads(), world.live_tids.len());
            }
            assert!(world.dead_tids.len() > 80);
            assert!(engine.tracked_threads() <= 6);
        }
    }

    #[test]
    fn outcome_mean_freq_and_last_cpu() {
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[1]);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.mean_core_freq(), MHz(2400));
        let tid = tids[0][0];
        assert_eq!(e.thread_last_cpu(tid), Some(out.threads[&tid].last_cpu));
        assert!(e.core_freq(out.threads[&tid].last_cpu) > MHz::ZERO);
    }
}
