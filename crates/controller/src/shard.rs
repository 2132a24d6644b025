//! Stages 1–2 on the slot table, optionally sharded (see
//! `docs/PERFORMANCE.md` and DESIGN.md §§12, 14).
//!
//! The controller keeps everything it knows about one vCPU in one
//! [`VcpuRow`] of a table laid out in inventory order: VM `i` of the
//! listing owns the rows `base_i .. base_i + nr_vcpus_i`. Stages 1–2
//! (monitor + estimate) touch every vCPU independently — no per-vCPU
//! result feeds another vCPU's — so they run as one loop over that
//! table, applying [`monitor::difference`]/[`monitor::reuse_stale`] and
//! [`estimate::estimate_vcpu`] to each row with no lookup by address.
//! On thousand-vCPU hosts the loop dominates the iteration (one batched
//! backend read per vCPU), so the table is cut into **shards** — each a
//! contiguous, vCPU-balanced run of the inventory order and therefore a
//! contiguous run of rows — handed to a caller-supplied runner
//! (sequential, or parallel via the vendored `rayon`), and the per-shard
//! outputs are merged back into the flat buffers stages 3–6 expect, in
//! shard order.
//!
//! # The merge contract
//!
//! Shard order **is** inventory order: shard 0 owns the first VMs of
//! the listing, shard 1 the next, and so on. Concatenating the shards'
//! observation and estimate buffers therefore reproduces exactly the
//! sequence the unsharded loop would have produced, so stages 3–6 (and
//! with them every `cpu.max` value, wallet balance and health counter)
//! are byte-identical for any shard count. Two details keep that true:
//!
//! * **The Eq. 3 ring of an unobserved vCPU is dropped, host-wide.**
//!   [`Estimator`](crate::estimate::Estimator) forgets every history it
//!   was not shown a sample for. In the table the rows are exactly the
//!   listed vCPUs, so "not shown" is "skipped by stage 1" (the ring is
//!   dropped where the skip is decided) or "of a VM that vanished" (all
//!   its rows are reset); neither depends on where shard borders fall.
//! * **Fault-injection draws stay ordered.** The sequential runner
//!   visits shards in order, so a non-`Sync` fault-injecting backend
//!   observes the exact per-vCPU read sequence of the unsharded loop
//!   and its RNG replays identically. The parallel runner is only
//!   reachable for `Sync` backends.
//!
//! # Repartitioning
//!
//! The pipeline owns the inventory lister (the epoch-gated `vms()`
//! cache). Whenever the inventory generation moves — arrival,
//! departure, resize, vanish — the controller moves the surviving rows
//! to their new slots and the next run recomputes which run of rows
//! each shard owns; no per-vCPU state is copied, hashed or rebuilt.
//! Steady state never repartitions and never allocates.

use crate::config::ControllerConfig;
use crate::estimate::{self, Estimate, History};
use crate::monitor::{self, VcpuObservation};
use std::time::{Duration, Instant};
use vfc_cgroupfs::backend::{HostBackend, VmCgroupInfo};
use vfc_cgroupfs::model::CpuMax;
use vfc_simcore::{Micros, VcpuAddr, VcpuId, VmId};

/// Everything the controller remembers about one vCPU between periods.
/// `None` throughout is a vCPU seen for the first time.
#[derive(Debug, Default)]
pub(crate) struct VcpuRow {
    /// Cumulative `usage_usec` at the last successful read.
    pub(crate) prev_usage: Option<Micros>,
    /// Cumulative `throttled_usec` at the last successful read.
    pub(crate) prev_throttled: Option<Micros>,
    /// Last successful observation and its age in periods.
    pub(crate) last_good: Option<(VcpuObservation, u32)>,
    /// Eq. 3 consumption window.
    pub(crate) history: Option<History>,
    /// `c_{i,j,t-1}` — what stage 6 applied last.
    pub(crate) prev_alloc: Option<Micros>,
    /// A `cpu.max` write that failed last period, re-issued if the vCPU
    /// gets no fresh allocation.
    pub(crate) pending: Option<Micros>,
    /// Last `cpu.max` successfully written, with the allocation that
    /// produced it. Stage 6 elides a write whose value is already in
    /// force (plus optional hysteresis, see
    /// [`ControllerConfig::apply_min_delta_us`]). A failed write clears
    /// it so retries are never elided, and warm-restart adoption
    /// deliberately does *not* seed it (the first write after a restart
    /// is always issued).
    pub(crate) in_force: Option<(Micros, CpuMax)>,
}

/// One shard: a contiguous run of the VM inventory — hence of the slot
/// table — plus this period's stage-1/2 outputs for it. A shard's rows
/// are nobody else's, so `&mut Shard` and its `&mut [VcpuRow]` are all a
/// worker thread needs.
#[derive(Default)]
pub(crate) struct Shard {
    /// First VM (inventory index) and first slot this shard owns.
    vm_lo: usize,
    slot_lo: usize,
    /// How many VMs and slots follow.
    nr_vms: usize,
    nr_vcpus: u32,
    // This period's outputs, reused across periods.
    observations: Vec<VcpuObservation>,
    estimates: Vec<Estimate>,
    read_errors: u32,
    stale_reused: Vec<VcpuAddr>,
    skipped: Vec<VcpuAddr>,
    vanished: Vec<VmId>,
    /// Stage-1 wall time of the last run.
    mon_time: Duration,
    /// Stage-2 wall time of the last run.
    est_time: Duration,
}

impl Shard {
    /// Stages 1–2 over this shard's VMs. Self-contained: reads only the
    /// backend, the shared config and inventory, writes only its own
    /// `rows` and buffers — safe to run concurrently with every other
    /// shard. Reads go VM by VM, vCPU by vCPU, through one batched
    /// [`HostBackend::read_vcpu_raw`] pass.
    pub(crate) fn run_period<B: HostBackend + ?Sized>(
        &mut self,
        backend: &B,
        cfg: &ControllerConfig,
        inventory: &[VmCgroupInfo],
        rows: &mut [VcpuRow],
    ) {
        let t = Instant::now();
        self.observations.clear();
        self.read_errors = 0;
        self.stale_reused.clear();
        self.skipped.clear();
        self.vanished.clear();
        backend.begin_read_pass();

        let vms = &inventory[self.vm_lo..self.vm_lo + self.nr_vms];
        let mut next = 0usize;
        'vms: for (k, info) in vms.iter().enumerate() {
            let vm_start = self.observations.len();
            let base = next;
            next += info.nr_vcpus as usize;
            let vm_rows = &mut rows[base..next];
            for j in 0..vm_rows.len() {
                let row = &mut vm_rows[j];
                let vcpu = VcpuId::new(j as u32);
                let addr = VcpuAddr::new(info.vm, vcpu);
                let at = (
                    addr,
                    (self.slot_lo + base + j) as u32,
                    (self.vm_lo + k) as u32,
                );
                match backend.read_vcpu_raw(info.vm, vcpu) {
                    Ok(raw) => {
                        let obs = monitor::difference(
                            at,
                            &raw,
                            row.prev_usage,
                            row.prev_throttled,
                            cfg.period,
                        );
                        row.prev_usage = Some(raw.usage);
                        row.prev_throttled = Some(raw.throttled);
                        row.last_good = Some((obs, 0));
                        self.observations.push(obs);
                    }
                    Err(e) if e.is_vanished() => {
                        // The VM's cgroups were removed under us. Undo its
                        // partial observations and forget the VM entirely:
                        // no ghost capping, no pending write, no history.
                        self.observations.truncate(vm_start);
                        vm_rows.fill_with(VcpuRow::default);
                        self.vanished.push(info.vm);
                        continue 'vms;
                    }
                    Err(_) => {
                        self.read_errors += 1;
                        match monitor::reuse_stale(row.last_good.as_mut(), cfg.stale_sample_ttl) {
                            // The sample may predate a move of this row.
                            Some(obs) => {
                                self.stale_reused.push(addr);
                                self.observations.push(VcpuObservation {
                                    slot: at.1,
                                    vm_idx: at.2,
                                    ..obs
                                });
                            }
                            // Stage 2 is not shown this vCPU, and forgets
                            // what it is not shown (module docs).
                            None => {
                                self.skipped.push(addr);
                                row.history = None;
                            }
                        }
                    }
                }
            }
        }
        self.mon_time = t.elapsed();

        let t = Instant::now();
        self.estimates.clear();
        for obs in &self.observations {
            let row = &mut rows[obs.slot as usize - self.slot_lo];
            let history = row
                .history
                .get_or_insert_with(|| History::new(cfg.history_len));
            self.estimates
                .push(estimate::estimate_vcpu(cfg, history, obs, row.prev_alloc));
        }
        self.est_time = t.elapsed();
    }

    /// vCPUs this shard owns (partition weight, not this period's
    /// observation count).
    pub(crate) fn nr_vcpus(&self) -> u32 {
        self.nr_vcpus
    }

    /// Stage-1 wall time of the last period.
    pub(crate) fn mon_time(&self) -> Duration {
        self.mon_time
    }

    /// Stage-2 wall time of the last period.
    pub(crate) fn est_time(&self) -> Duration {
        self.est_time
    }
}

/// Hand each shard the run of `rows` it owns, in shard order.
fn rows_by_shard<'a>(
    shards: &'a mut [Shard],
    mut rows: &'a mut [VcpuRow],
) -> impl Iterator<Item = (&'a mut Shard, &'a mut [VcpuRow])> {
    shards.iter_mut().map(move |shard| {
        let (mine, rest) = std::mem::take(&mut rows).split_at_mut(shard.nr_vcpus as usize);
        rows = rest;
        (shard, mine)
    })
}

/// Run every shard on the calling thread, in shard order — the exact
/// read order of the unsharded loop, which non-`Sync` fault-injecting
/// backends rely on for deterministic RNG replay.
pub(crate) fn run_shards_sequential<B: HostBackend + ?Sized>(
    shards: &mut [Shard],
    rows: &mut [VcpuRow],
    backend: &B,
    cfg: &ControllerConfig,
    inventory: &[VmCgroupInfo],
) {
    for (shard, rows) in rows_by_shard(shards, rows) {
        shard.run_period(backend, cfg, inventory, rows);
    }
}

/// Run shards across threads via the vendored `rayon` (one contiguous
/// chunk per core, first chunk on the caller). Requires a `Sync`
/// backend; each shard's rows are disjoint from every other's, so no
/// further synchronization is needed.
pub(crate) fn run_shards_parallel<B: HostBackend + Sync + ?Sized>(
    shards: &mut [Shard],
    rows: &mut [VcpuRow],
    backend: &B,
    cfg: &ControllerConfig,
    inventory: &[VmCgroupInfo],
) {
    use rayon::prelude::*;
    let mut work: Vec<_> = rows_by_shard(shards, rows).collect();
    work.par_iter_mut()
        .for_each(|(shard, rows)| shard.run_period(backend, cfg, inventory, rows));
}

/// The stage-1/2 pipeline: the inventory lister, the shard partition,
/// and the merged per-period outputs stages 3–6 consume. The slot table
/// itself belongs to [`crate::Controller`], which lends it to
/// [`ShardedPipeline::run`].
pub(crate) struct ShardedPipeline {
    shards: Vec<Shard>,
    /// Host-wide VM inventory (vanished VMs removed), in listing order,
    /// as of the last refresh or run.
    pub(crate) inventory: Vec<VmCgroupInfo>,
    /// The epoch `inventory` was listed at.
    inventory_epoch: Option<u64>,
    listed_once: bool,
    /// Bumped whenever `inventory` contents change; the slot table and
    /// the shard partition both key off it.
    generation: u64,
    /// Generation the current partition was built against; `None`
    /// forces a repartition (initial state).
    plan_generation: Option<u64>,
    /// Times the partition was rebuilt since construction.
    repartitions: u64,
    // ---- merged per-period outputs (buffers reused across periods) ----
    observations: Vec<VcpuObservation>,
    read_errors: u32,
    stale_reused: Vec<VcpuAddr>,
    skipped: Vec<VcpuAddr>,
    vanished: Vec<VmId>,
}

impl ShardedPipeline {
    /// A pipeline that has listed nothing yet.
    pub(crate) fn new() -> Self {
        ShardedPipeline {
            shards: Vec::new(),
            inventory: Vec::new(),
            inventory_epoch: None,
            listed_once: false,
            generation: 0,
            plan_generation: None,
            repartitions: 0,
            observations: Vec::new(),
            read_errors: 0,
            stale_reused: Vec::new(),
            skipped: Vec::new(),
            vanished: Vec::new(),
        }
    }

    /// Re-list the inventory if the backend cannot prove it unchanged;
    /// bump the generation when the contents moved. The controller
    /// calls this first each period, re-slots its table if the
    /// generation moved, then calls [`ShardedPipeline::run`].
    pub(crate) fn refresh_inventory<B: HostBackend + ?Sized>(&mut self, backend: &B) {
        let epoch = backend.vms_epoch();
        if self.listed_once && epoch.is_some() && epoch == self.inventory_epoch {
            return; // proven unchanged: skip the allocating re-list
        }
        let vms = backend.vms();
        self.inventory_epoch = epoch;
        self.listed_once = true;
        if vms != self.inventory {
            self.inventory = vms;
            self.generation = self.generation.wrapping_add(1);
        }
    }

    /// Rebuild the shard partition for the current inventory. Cold
    /// path: runs only when the inventory generation moved, and only
    /// decides which run of VMs (and so of rows) each shard owns.
    fn repartition(&mut self, cfg: &ControllerConfig) {
        let total: u64 = self.inventory.iter().map(|v| v.nr_vcpus as u64).sum();
        let n = (cfg.shard_count.effective(total.min(u32::MAX as u64) as u32) as usize)
            .min(self.inventory.len().max(1));
        // Shards keep their buffers across partitions.
        self.shards.resize_with(n, Shard::default);
        for shard in &mut self.shards {
            (shard.vm_lo, shard.slot_lo, shard.nr_vms, shard.nr_vcpus) = (0, 0, 0, 0);
        }

        // Contiguous, vCPU-balanced split of the inventory order: shard
        // k advances once it has reached its proportional share of the
        // total vCPU count (and never leaves a later shard empty).
        let mut k = 0usize;
        let mut cum = 0u64;
        for (i, vm) in self.inventory.iter().enumerate() {
            let remaining_vms = self.inventory.len() - i;
            let remaining_shards = n - k;
            if k + 1 < n
                && self.shards[k].nr_vms > 0
                && (remaining_vms == remaining_shards || cum * n as u64 >= total * (k as u64 + 1))
            {
                k += 1;
            }
            if self.shards[k].nr_vms == 0 {
                (self.shards[k].vm_lo, self.shards[k].slot_lo) = (i, cum as usize);
            }
            self.shards[k].nr_vms += 1;
            self.shards[k].nr_vcpus += vm.nr_vcpus;
            cum += vm.nr_vcpus as u64;
        }

        self.plan_generation = Some(self.generation);
        self.repartitions += 1;
    }

    /// One stage-1/2 pass over `rows` — the controller's slot table, one
    /// row per listed vCPU in inventory order: repartition if the
    /// inventory moved, run every shard through `runner`, merge the
    /// per-shard outputs in shard order, and fold shard vanishes back
    /// into the lister.
    ///
    /// `estimates_out` receives the merged stage-2 output (cleared
    /// first); observations and health counters are readable through
    /// the accessors afterwards. Steady state performs zero heap
    /// allocations on the sequential runner.
    pub(crate) fn run<B, F>(
        &mut self,
        backend: &B,
        cfg: &ControllerConfig,
        rows: &mut [VcpuRow],
        estimates_out: &mut Vec<Estimate>,
        runner: F,
    ) where
        B: HostBackend + ?Sized,
        F: FnOnce(&mut [Shard], &mut [VcpuRow], &B, &ControllerConfig, &[VmCgroupInfo]),
    {
        if self.plan_generation != Some(self.generation) {
            self.repartition(cfg);
        }
        debug_assert_eq!(
            rows.len(),
            self.shards
                .iter()
                .map(|s| s.nr_vcpus as usize)
                .sum::<usize>(),
            "one row per listed vCPU"
        );

        runner(&mut self.shards, rows, backend, cfg, &self.inventory);

        // ---- merge (shard order == inventory order) -------------------
        self.observations.clear();
        estimates_out.clear();
        self.read_errors = 0;
        self.stale_reused.clear();
        self.skipped.clear();
        self.vanished.clear();
        for shard in &self.shards {
            self.observations.extend_from_slice(&shard.observations);
            estimates_out.extend_from_slice(&shard.estimates);
            self.read_errors += shard.read_errors;
            self.stale_reused.extend_from_slice(&shard.stale_reused);
            self.skipped.extend_from_slice(&shard.skipped);
            self.vanished.extend_from_slice(&shard.vanished);
        }

        // ---- vanish epilogue ------------------------------------------
        // Drop vanished VMs from the lister and force a real re-list
        // (the backend's epoch may not move for a vanish it never saw);
        // the generation bump re-slots the table before stage 3 and
        // repartitions next period.
        if !self.vanished.is_empty() {
            let vanished = &self.vanished;
            self.inventory.retain(|v| !vanished.contains(&v.vm));
            self.inventory_epoch = None;
            self.listed_once = false;
            self.generation = self.generation.wrapping_add(1);
        }
    }

    /// Bumped whenever [`ShardedPipeline::inventory`] contents change.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Merged observations of the last run, in inventory order. Mutable
    /// because a vanish re-slots the table under them.
    pub(crate) fn observations_mut(&mut self) -> &mut [VcpuObservation] {
        &mut self.observations
    }

    /// Merged observations of the last run, in inventory order.
    pub(crate) fn observations(&self) -> &[VcpuObservation] {
        &self.observations
    }

    /// Per-vCPU read errors of the last run (vanished VMs not included).
    pub(crate) fn read_errors(&self) -> u32 {
        self.read_errors
    }

    /// vCPUs answered from the stale-sample cache in the last run.
    pub(crate) fn stale_reused(&self) -> &[VcpuAddr] {
        &self.stale_reused
    }

    /// vCPUs with no observation in the last run.
    pub(crate) fn skipped(&self) -> &[VcpuAddr] {
        &self.skipped
    }

    /// VMs that disappeared during the last run's reads.
    pub(crate) fn vanished(&self) -> &[VmId] {
        &self.vanished
    }

    /// The current shards (telemetry, stage-time attribution).
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Times the partition has been rebuilt since construction.
    pub(crate) fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Stage-1/2 times of the **critical-path shard** — the shard whose
    /// combined monitor+estimate time is largest. Under the parallel
    /// runner that shard bounds the pass's wall time, so attributing
    /// its split (rather than summing across shards) keeps the
    /// invariant that stage times never exceed the iteration total.
    pub(crate) fn critical_stage_times(&self) -> (Duration, Duration) {
        self.shards
            .iter()
            .map(|s| (s.mon_time, s.est_time))
            .max_by_key(|(m, e)| *m + *e)
            .unwrap_or((Duration::ZERO, Duration::ZERO))
    }

    /// Drop a VM from the lister (stage 6 learnt of a vanish from a
    /// failed write). Forces a re-list next period.
    pub(crate) fn forget_vm(&mut self, vm: VmId) {
        if self.inventory.iter().any(|v| v.vm == vm) {
            self.inventory.retain(|v| v.vm != vm);
            self.generation = self.generation.wrapping_add(1);
            self.inventory_epoch = None;
            self.listed_once = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_simcore::MHz;

    fn vm(i: u32, vcpus: u32) -> VmCgroupInfo {
        VmCgroupInfo {
            vm: VmId::new(i),
            name: format!("vm{i}"),
            nr_vcpus: vcpus,
            vfreq: Some(MHz(500)),
        }
    }

    /// Drive just the partitioner (no backend) by constructing a
    /// pipeline, injecting an inventory, and repartitioning. Returns
    /// each shard's VM ids and its first slot.
    fn partition(vms: Vec<VmCgroupInfo>, cfg: &ControllerConfig) -> Vec<(Vec<u32>, usize)> {
        let mut p = ShardedPipeline::new();
        p.inventory = vms;
        p.repartition(cfg);
        p.shards
            .iter()
            .map(|s| {
                let ids = p.inventory[s.vm_lo..s.vm_lo + s.nr_vms]
                    .iter()
                    .map(|v| v.vm.as_u32())
                    .collect();
                (ids, s.slot_lo)
            })
            .collect()
    }

    #[test]
    fn partition_is_contiguous_and_preserves_order() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(3);
        let shards = partition((0..9).map(|i| vm(i, 2)).collect(), &cfg);
        assert_eq!(shards.len(), 3);
        let flat: Vec<u32> = shards.iter().flat_map(|(ids, _)| ids.clone()).collect();
        assert_eq!(
            flat,
            (0..9).collect::<Vec<_>>(),
            "concatenation == inventory order"
        );
        let firsts: Vec<usize> = shards.iter().map(|(_, slot)| *slot).collect();
        assert_eq!(firsts, [0, 6, 12], "each shard's rows follow the last's");
    }

    #[test]
    fn partition_balances_by_vcpus_not_vms() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(2);
        // One 8-vCPU VM plus eight 1-vCPU VMs: the fat VM should sit
        // alone in shard 0 (8 vs 8), not be grouped with half the rest.
        let mut vms = vec![vm(0, 8)];
        vms.extend((1..9).map(|i| vm(i, 1)));
        let shards = partition(vms, &cfg);
        assert_eq!(shards[0], (vec![0], 0));
        assert_eq!(shards[1], ((1..9).collect::<Vec<_>>(), 8));
    }

    #[test]
    fn partition_never_leaves_a_shard_empty() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(4);
        // More shards requested than VMs exist: capped at #VMs.
        let shards = partition((0..3).map(|i| vm(i, 1)).collect(), &cfg);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|(ids, _)| !ids.is_empty()));
        // Skewed sizes with n == #VMs: still one VM per shard.
        let shards = partition(vec![vm(0, 100), vm(1, 1), vm(2, 1), vm(3, 1)], &cfg);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|(ids, _)| ids.len() == 1));
    }

    #[test]
    fn a_shrinking_partition_keeps_no_stale_shard() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(3);
        let mut p = ShardedPipeline::new();
        p.inventory = (0..6).map(|i| vm(i, 1)).collect();
        p.repartition(&cfg);
        assert_eq!(p.shards.len(), 3);
        p.inventory.truncate(1);
        p.repartition(&cfg);
        assert_eq!(p.shards.len(), 1);
        assert_eq!((p.shards[0].nr_vms, p.shards[0].nr_vcpus), (1, 1));
        assert_eq!(p.repartitions(), 2);
    }
}
