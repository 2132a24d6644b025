//! The six-stage control loop (Fig. 2), assembled.

use crate::apply::allocation_to_cpu_max;
use crate::auction::{run_auction_with, AuctionOutcome, Buyer};
use crate::config::{ControlMode, ControllerConfig};
use crate::distribute::distribute_leftovers_with;
use crate::estimate::{self, Estimate, EstimateCase, History};
use crate::monitor::{self, VcpuObservation};
use crate::persist::{Journal, VcpuState, VmState, JOURNAL_VERSION};
use crate::telemetry::ControllerMetrics;
use crate::vfreq::guaranteed_cycles;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vfc_cgroupfs::backend::{HostBackend, TopologyInfo, VmCgroupInfo};
use vfc_cgroupfs::error::Result;
use vfc_cgroupfs::model::CpuMax;
use vfc_simcore::{FastMap, MHz, Micros, VcpuAddr, VcpuId, VmId};

/// Wall-clock cost of each stage of one iteration — the paper reports
/// ≈5 ms total, ≈4 ms of it monitoring, on 60 vCPUs (§IV.A.2).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct StageTimings {
    /// Stage 1: reading usage, placement and core frequencies.
    pub monitor: Duration,
    /// Stage 2: trends and estimates.
    pub estimate: Duration,
    /// Stage 3: credits and base capping.
    pub enforce: Duration,
    /// Stage 4: the cycles auction.
    pub auction: Duration,
    /// Stage 5: free distribution of leftovers.
    pub distribute: Duration,
    /// Stage 6: writing `cpu.max`.
    pub apply: Duration,
    /// Whole iteration, including bookkeeping between stages.
    pub total: Duration,
}

impl StageTimings {
    /// The six stage times in pipeline order, the order of
    /// [`vfc_telemetry::STAGE_NAMES`].
    pub fn stages(&self) -> [Duration; 6] {
        [
            self.monitor,
            self.estimate,
            self.enforce,
            self.auction,
            self.distribute,
            self.apply,
        ]
    }
}

/// Degradation bookkeeping for one iteration: what failed, what the
/// controller did about it. All-zero/empty on a healthy host.
///
/// **Reset semantics.** A `HealthReport` describes exactly one period —
/// every counter here starts from zero each iteration. Cumulative
/// since-boot totals live in [`HealthTotals`]
/// ([`Controller::health_totals`]); the daemon's per-iteration JSON line
/// carries the cumulative totals as `health` and this per-period report
/// as `health_delta`, so log consumers never have to guess which
/// semantics they are reading. Warm restarts do *not* resurrect totals:
/// they are process-lifetime counters, deliberately absent from the
/// crash journal.
///
/// The ladder, mildest first: a failing read is answered from the stale
/// cache (`stale_reused`), then the vCPU is skipped for the period
/// (`skipped_vcpus`, its current capping stays in force), failed `cpu.max`
/// writes are re-issued next period (`write_retries`), and VMs whose
/// cgroups disappear are dropped cleanly (`vanished_vms`). The daemon
/// layers a circuit breaker on top: too many consecutive degraded
/// iterations uncap everything and exit.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct HealthReport {
    /// Per-vCPU monitoring reads that failed (stage 1).
    pub read_errors: u32,
    /// `cpu.max` writes that failed (stage 6).
    pub write_errors: u32,
    /// Writes re-issued this period after failing in the previous one.
    pub write_retries: u32,
    /// vCPUs served from the stale-sample cache (stage 1).
    pub stale_reused: u32,
    /// vCPUs with no usable sample this period — untouched by stages 2–6.
    pub skipped_vcpus: Vec<VcpuAddr>,
    /// VMs that disappeared mid-iteration; wallets and history purged.
    pub vanished_vms: Vec<VmId>,
    /// Deadline-ladder rung in effect this period (see [`LadderRung`]).
    pub ladder_rung: LadderRung,
    /// The rung the next period runs on: one below `ladder_rung` when
    /// this period's overrun descended the ladder, one above when it
    /// climbed, the same otherwise.
    pub ladder_next: LadderRung,
    /// The time charged against the deadline budget this period exceeded
    /// it (the ladder descends one rung for the *next* period).
    pub deadline_overrun: bool,
    /// Time charged against the deadline budget this period, µs
    /// (measured wall time plus any injected synthetic stage time).
    pub deadline_spent_us: u64,
    /// The per-period deadline budget, µs; `0` when disabled.
    pub deadline_budget_us: u64,
    /// Fail-safe cap-lease state in effect this period.
    pub lease_state: LeaseState,
    /// Periods left on the cap lease before it expires.
    pub lease_remaining: u64,
    /// The lease expired this period (it moved into guarantee-only).
    pub lease_expired: bool,
    /// True iff anything above is non-zero/non-empty/degraded.
    pub degraded: bool,
}

impl HealthReport {
    fn finalize(&mut self) {
        self.degraded = self.read_errors > 0
            || self.write_errors > 0
            || self.write_retries > 0
            || self.stale_reused > 0
            || !self.skipped_vcpus.is_empty()
            || !self.vanished_vms.is_empty()
            || self.ladder_rung != LadderRung::Full
            || self.deadline_overrun
            || matches!(
                self.lease_state,
                LeaseState::GuaranteeOnly | LeaseState::Uncapped
            );
    }
}

/// Rung of the **deadline degradation ladder**, mildest first.
///
/// When [`ControllerConfig::deadline_budget_frac`] is positive, every
/// iteration's wall time is charged against the budget; an overrun
/// descends exactly one rung for the next period, and
/// [`ControllerConfig::ladder_recovery_periods`] consecutive in-budget
/// periods climb back exactly one rung (hysteresis). The rung in effect
/// each period is exported in [`HealthReport::ladder_rung`] and the
/// `vfc_deadline_ladder_rung` gauge.
///
/// This ladder is distinct from the per-vCPU fault ladder documented on
/// [`HealthReport`] (stale reuse → skip → retry → vanish) and from the
/// daemon's circuit breaker: it reacts to *time*, not to errors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum LadderRung {
    /// All six stages run.
    #[default]
    Full,
    /// Stages 1–2 only; previous allocations stay in force (pending
    /// failed writes are still re-issued), no credits minted or spent.
    ReusePrev,
    /// Stages 1–2 only; nothing is written, no credits minted or spent.
    MonitorOnly,
    /// Watchdog: every cap is removed and the node runs uncontrolled —
    /// a controller too slow to decide must not enforce stale caps.
    UncapAll,
}

impl LadderRung {
    /// One rung more degraded, or `self` at the bottom.
    pub fn down(self) -> LadderRung {
        match self {
            LadderRung::Full => LadderRung::ReusePrev,
            LadderRung::ReusePrev => LadderRung::MonitorOnly,
            LadderRung::MonitorOnly | LadderRung::UncapAll => LadderRung::UncapAll,
        }
    }

    /// One rung less degraded, or `self` at the top.
    pub fn up(self) -> LadderRung {
        match self {
            LadderRung::Full | LadderRung::ReusePrev => LadderRung::Full,
            LadderRung::MonitorOnly => LadderRung::ReusePrev,
            LadderRung::UncapAll => LadderRung::MonitorOnly,
        }
    }

    /// Stable numeric encoding (gauge value): `Full` = 0 … `UncapAll` = 3.
    pub fn as_u8(self) -> u8 {
        match self {
            LadderRung::Full => 0,
            LadderRung::ReusePrev => 1,
            LadderRung::MonitorOnly => 2,
            LadderRung::UncapAll => 3,
        }
    }
}

/// State of the **fail-safe cap lease** (see
/// [`ControllerConfig::cap_lease_ttl`]).
///
/// Caps pushed by a control plane are only as trustworthy as the last
/// renewal: a partitioned controller enforcing week-old allocations is
/// worse than one that backs off to the locally-provable guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub enum LeaseState {
    /// Leases disabled (`cap_lease_ttl == 0`): standalone operation,
    /// the controller owns its caps indefinitely.
    #[default]
    Disabled,
    /// The lease is current; normal operation.
    Leased,
    /// The lease expired: only the Eq. 2 guarantee is enforced — market
    /// surplus is released, no credits are minted or spent.
    GuaranteeOnly,
    /// The grace window is exhausted: everything is uncapped until the
    /// control plane renews (re-adoption then re-issues fresh caps).
    Uncapped,
}

impl LeaseState {
    /// Stable numeric encoding (gauge value): `Disabled`/`Leased` = 0,
    /// `GuaranteeOnly` = 1, `Uncapped` = 2.
    pub fn as_u8(self) -> u8 {
        match self {
            LeaseState::Disabled | LeaseState::Leased => 0,
            LeaseState::GuaranteeOnly => 1,
            LeaseState::Uncapped => 2,
        }
    }
}

/// What the pipeline actually runs this period, after the control mode,
/// the deadline ladder and the cap lease have all had their say —
/// ordered mildest first so combining is `max`. Stages 1–2 run under
/// every plan; the plan says which of stages 3–6 run after them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum Plan {
    /// Full market pipeline (stages 3–6).
    #[default]
    Market,
    /// Lease expired: write the Eq. 2 guarantee (stage 6), nothing more.
    Guarantee,
    /// Ladder `ReusePrev`: keep previous caps, re-issue failed writes
    /// (stage 6).
    Retry,
    /// Stages 1–2 only.
    Monitor,
    /// The watchdog removes every cap (in stage 6's place), again each
    /// period until no clear fails; the excursion's later periods run
    /// `Monitor`.
    Uncap,
}

/// Cumulative health counters since the controller was built — the
/// running sum of every [`HealthReport`] (which itself resets each
/// iteration). These are process-lifetime counters: a warm restart from
/// the crash journal starts them at zero again, because a counter that
/// silently survives restarts would make rate computations lie.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct HealthTotals {
    /// Iterations folded into these totals.
    pub iterations: u64,
    /// Iterations with any degradation at all.
    pub degraded_iterations: u64,
    /// Per-vCPU monitoring reads that failed (stage 1).
    pub read_errors: u64,
    /// `cpu.max` writes that failed (stage 6).
    pub write_errors: u64,
    /// Writes re-issued after failing the previous period.
    pub write_retries: u64,
    /// vCPU-periods served from the stale-sample cache.
    pub stale_reused: u64,
    /// vCPU-periods skipped for lack of a usable sample.
    pub skipped_vcpus: u64,
    /// VMs that disappeared mid-iteration.
    pub vanished_vms: u64,
    /// Periods whose charged time overran the deadline budget.
    pub deadline_overruns: u64,
    /// Periods spent on a deadline-ladder rung below `Full`.
    pub ladder_degraded_periods: u64,
    /// Periods spent with an expired cap lease (guarantee-only or
    /// uncapped).
    pub lease_expired_periods: u64,
}

impl HealthTotals {
    /// Fold one iteration's report into the running totals.
    pub fn absorb(&mut self, h: &HealthReport) {
        self.iterations += 1;
        self.read_errors += h.read_errors as u64;
        self.write_errors += h.write_errors as u64;
        self.write_retries += h.write_retries as u64;
        self.stale_reused += h.stale_reused as u64;
        self.skipped_vcpus += h.skipped_vcpus.len() as u64;
        self.vanished_vms += h.vanished_vms.len() as u64;
        if h.deadline_overrun {
            self.deadline_overruns += 1;
        }
        if h.ladder_rung != LadderRung::Full {
            self.ladder_degraded_periods += 1;
        }
        if matches!(
            h.lease_state,
            LeaseState::GuaranteeOnly | LeaseState::Uncapped
        ) {
            self.lease_expired_periods += 1;
        }
        if h.degraded {
            self.degraded_iterations += 1;
        }
    }
}

/// Everything the controller decided about one vCPU this iteration.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct VcpuReport {
    /// Which vCPU this row describes.
    pub addr: VcpuAddr,
    /// Instance name (from the cgroup scope).
    pub vm_name: String,
    /// The template's virtual frequency (`F_v`), if declared.
    pub vfreq: Option<MHz>,
    /// Measured consumption over the last period (`u_{i,j,t}`).
    pub used: Micros,
    /// Estimated virtual frequency (stage 1).
    pub freq_est: MHz,
    /// Predicted next-period consumption (stage 2).
    pub estimate: Micros,
    /// Which estimator case fired.
    pub case: EstimateCase,
    /// Guaranteed cycles `C_i` (Eq. 2).
    pub guaranteed: Micros,
    /// Final allocation `c_{i,j,t}` after all stages.
    pub alloc: Micros,
}

/// One VM's credit flows over one period — what a metering layer bills
/// on, and the first fields of a per-VM decision record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CreditFlow {
    /// The VM (node-local id).
    pub vm: VmId,
    /// Credits earned by consuming below the guarantee (Eq. 4), µs.
    pub minted: u64,
    /// Credits paid in the auction (Alg. 1), µs.
    pub spent: u64,
}

/// Summary of one controller iteration.
///
/// `Default` yields an empty report suitable as the reusable buffer for
/// [`Controller::iterate_into`]: the controller refills every field each
/// period, recycling the row and credit vectors in place.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct IterationReport {
    /// Per-vCPU rows, sorted by address.
    pub vcpus: Vec<VcpuReport>,
    /// Market size after base capping (Eq. 6).
    pub market_initial: Micros,
    /// Cycles sold by the auction.
    pub auction: AuctionOutcome,
    /// Cycles given away by stage 5.
    pub distributed: Micros,
    /// Cycles still unallocated at the end (genuine slack).
    pub market_left: Micros,
    /// The pipeline this period ran: which of stages 3–6 ran.
    pub pipeline: Plan,
    /// VMs in this period's inventory, once those that vanished under
    /// the reads are dropped.
    pub inventory_vms: u32,
    /// vCPUs of those VMs.
    pub inventory_vcpus: u32,
    /// `cpu.max` writes issued this period (the watchdog's clears
    /// included), successful or not.
    pub cap_writes: u32,
    /// Allocation volume carried by the successful writes.
    pub cap_write_volume: Micros,
    /// Writes skipped because the value was already in force.
    pub cap_writes_elided: u32,
    /// Credit balances after the iteration, sorted by VM.
    pub credits: Vec<(VmId, u64)>,
    /// What every VM the market ran for earned (Eq. 4) and paid (Alg. 1)
    /// this period, sorted by VM; empty whenever the market did not run.
    pub flows: Vec<CreditFlow>,
    /// Wall-clock cost of each stage.
    pub timings: StageTimings,
    /// Errors encountered and degradations applied this iteration.
    pub health: HealthReport,
}

impl IterationReport {
    /// Mean estimated virtual frequency of all vCPUs whose instance name
    /// starts with `prefix` (e.g. a template name like `"small"`), or
    /// `None` if no vCPU matches.
    pub fn mean_freq_of(&self, prefix: &str) -> Option<MHz> {
        let mut sum = 0u64;
        let mut n = 0u64;
        for v in &self.vcpus {
            if v.vm_name.starts_with(prefix) {
                sum += v.freq_est.as_u32() as u64;
                n += 1;
            }
        }
        sum.checked_div(n).map(|mean| MHz(mean as u32))
    }

    /// Total allocation across all vCPUs.
    pub fn total_alloc(&self) -> Micros {
        self.vcpus.iter().map(|v| v.alloc).sum()
    }

    /// Report entry for one vCPU.
    pub fn vcpu(&self, addr: VcpuAddr) -> Option<&VcpuReport> {
        self.vcpus.iter().find(|v| v.addr == addr)
    }
}

/// Fill `order` with `0..n` sorted by `key`.
fn sorted_indices<K: Ord>(order: &mut Vec<u32>, n: usize, key: impl Fn(u32) -> K) {
    order.clear();
    order.extend(0..n as u32);
    order.sort_unstable_by_key(|&i| key(i));
}

/// Everything the controller remembers about one vCPU between periods.
/// `None` throughout is a vCPU seen for the first time.
#[derive(Debug, Default)]
struct VcpuRow {
    /// Cumulative `usage_usec` at the last successful read.
    prev_usage: Option<Micros>,
    /// Cumulative `throttled_usec` at the last successful read.
    prev_throttled: Option<Micros>,
    /// Last successful observation and its age in periods.
    last_good: Option<(VcpuObservation, u32)>,
    /// Eq. 3 consumption window.
    history: Option<History>,
    /// `c_{i,j,t-1}` — what stage 6 applied last.
    prev_alloc: Option<Micros>,
    /// A `cpu.max` write that failed last period, re-issued if the vCPU
    /// gets no fresh allocation.
    pending: Option<Micros>,
    /// Last `cpu.max` successfully written. Stage 6 elides a write whose
    /// value is already in force. A failed write clears it so retries
    /// are never elided, and warm-restart adoption deliberately does
    /// *not* seed it (the first write after a restart is always issued).
    in_force: Option<CpuMax>,
}

/// The virtual frequency controller. One instance per node.
///
/// # Hot-path architecture
///
/// Steady state (membership unchanged, no faults) performs **zero heap
/// allocations** and **no lookup by address** per iteration. Everything
/// remembered about a vCPU lives in one row of a *slot table* laid out
/// in inventory order — VM `i` of the listing owns the slots
/// `vm_slot_base[i] ..` — and everything about a VM (names, guarantee,
/// wallet, metric series) in one row of the VM tables. The tables are
/// re-slotted only when the inventory generation moves: surviving rows
/// move to their new slot, arrivals start from `Default`, departures are
/// dropped. Stages 1–2 are one loop over the table in inventory order
/// (one batched backend read per vCPU, no lookup by address), so every
/// observation, estimate and buyer carries its slot and VM index, and
/// stages 3–6 index the flat per-iteration buffers (`slot_alloc`,
/// `vm_spent`, …) with them. Finding a row from an id (`vm_index_of`)
/// is for the cold paths: journal restore, adoption, resize, vanish
/// clean-up and the re-slot itself.
pub struct Controller {
    cfg: ControllerConfig,
    topo: TopologyInfo,
    iterations: u64,
    /// Running sum of every iteration's [`HealthReport`].
    health_totals: HealthTotals,
    /// The Prometheus page: a fold of every iteration's report.
    metrics: ControllerMetrics,

    // ---- inventory lister (the epoch-gated `vms()` cache) -------------
    /// Host-wide VM inventory (vanished VMs removed), in listing order,
    /// as of the last refresh or read pass.
    inventory: Vec<VmCgroupInfo>,
    /// The epoch `inventory` was listed at; `None` forces a re-list.
    inventory_epoch: Option<u64>,
    /// Bumped whenever `inventory` contents change; the slot table keys
    /// off it.
    generation: u64,

    // ---- overload resilience ------------------------------------------
    /// Current rung of the deadline degradation ladder.
    rung: LadderRung,
    /// Consecutive in-budget periods (the ladder's hysteresis counter).
    ladder_streak: u32,
    /// Synthetic per-iteration stage time (µs) charged against the
    /// deadline budget — the fault-injection hook behind
    /// [`Controller::inject_stage_delay_us`].
    synthetic_stage_us: u64,
    /// Periods left on the cap lease before it expires.
    lease_remaining: u64,
    /// Periods left in the guarantee-only grace window.
    lease_grace_left: u64,
    /// Current cap-lease state.
    lease: LeaseState,
    /// The uncap watchdog has cleared every cap for the current
    /// excursion.
    uncap_done: bool,

    // ---- slot table (re-slotted per inventory generation) -------------
    /// Inventory generation the tables were laid out against; `None`
    /// forces a re-slot (initial state, after a journal restore).
    table_generation: Option<u64>,
    /// One row per listed vCPU, in inventory order.
    rows: Vec<VcpuRow>,
    /// Slot → address.
    slots: Vec<VcpuAddr>,
    /// Slots in address order: the deterministic `cpu.max` write order
    /// of stage 6 (the identity wherever the backend lists by id).
    write_order: Vec<u32>,
    /// VM tables, in inventory order. `vm_slot_base` has one more entry
    /// than there are VMs: VM `i` owns `vm_slot_base[i]..vm_slot_base[i + 1]`.
    vm_ids: Vec<VmId>,
    vm_names: Vec<String>,
    vm_guarantee: Vec<Micros>,
    vm_vfreq: Vec<Option<MHz>>,
    vm_slot_base: Vec<u32>,
    /// Credit wallets (Eq. 4); `None` = no wallet entry, which is what
    /// `report.credits` lists (see [`crate::credits::Wallet`] for when
    /// entries appear and go).
    vm_credits: Vec<Option<u64>>,
    /// VM id → VM table index (cold paths only).
    vm_index_of: FastMap<VmId, u32>,
    /// VM table indices ordered by id (wallet report order).
    vm_id_order: Vec<u32>,

    // ---- per-iteration scratch (reused, cleared each period) ----------
    /// Stage-1 output, in inventory order.
    observations: Vec<VcpuObservation>,
    /// Stage-2 output, one per observation.
    estimates: Vec<Estimate>,
    slot_alloc: Vec<Micros>,
    slot_has: Vec<bool>,
    buyers: Vec<Buyer>,
    residual: Vec<(u32, Micros)>,
    dist_scratch: Vec<(u32, u64, u64)>,
    vm_minted: Vec<u64>,
    vm_spent: Vec<u64>,
}

impl Controller {
    /// Build a controller for a node with the given topology.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see
    /// [`ControllerConfig::validate`]); configurations are programmer
    /// input, not runtime data.
    pub fn new(cfg: ControllerConfig, topo: TopologyInfo) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid controller config: {e}");
        }
        let lease_ttl = cfg.cap_lease_ttl;
        Controller {
            cfg,
            topo,
            iterations: 0,
            health_totals: HealthTotals::default(),
            metrics: ControllerMetrics::new(),
            inventory: Vec::new(),
            inventory_epoch: None,
            generation: 0,
            rung: LadderRung::Full,
            ladder_streak: 0,
            synthetic_stage_us: 0,
            lease_remaining: lease_ttl,
            lease_grace_left: 0,
            lease: if lease_ttl > 0 {
                LeaseState::Leased
            } else {
                LeaseState::Disabled
            },
            uncap_done: false,
            table_generation: None,
            rows: Vec::new(),
            slots: Vec::new(),
            write_order: Vec::new(),
            vm_ids: Vec::new(),
            vm_names: Vec::new(),
            vm_guarantee: Vec::new(),
            vm_vfreq: Vec::new(),
            vm_slot_base: vec![0],
            vm_credits: Vec::new(),
            vm_index_of: FastMap::default(),
            vm_id_order: Vec::new(),
            observations: Vec::new(),
            estimates: Vec::new(),
            slot_alloc: Vec::new(),
            slot_has: Vec::new(),
            buyers: Vec::new(),
            residual: Vec::new(),
            dist_scratch: Vec::new(),
            vm_minted: Vec::new(),
            vm_spent: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Credit balance of a VM.
    pub fn credit_of(&self, vm: VmId) -> u64 {
        self.vm_index_of
            .get(&vm)
            .and_then(|&vi| self.vm_credits[vi as usize])
            .unwrap_or(0)
    }

    /// The slots of VM table row `vi`.
    fn vm_slots(&self, vi: usize) -> std::ops::Range<usize> {
        self.vm_slot_base[vi] as usize..self.vm_slot_base[vi + 1] as usize
    }

    /// Slot of a vCPU, if it was in the listing the tables were last
    /// laid out against. A hash lookup: cold paths only.
    fn slot_of(&self, addr: VcpuAddr) -> Option<usize> {
        let slots = self.vm_slots(*self.vm_index_of.get(&addr.vm)? as usize);
        let slot = slots.start + addr.vcpu.as_u32() as usize;
        (slot < slots.end).then_some(slot)
    }

    /// Cumulative health counters since this controller was built (see
    /// [`HealthTotals`] for the reset semantics).
    pub fn health_totals(&self) -> HealthTotals {
        self.health_totals
    }

    /// Current rung of the deadline degradation ladder.
    pub fn ladder_rung(&self) -> LadderRung {
        self.rung
    }

    /// Current fail-safe cap-lease state.
    pub fn lease_state(&self) -> LeaseState {
        self.lease
    }

    /// Renew the fail-safe cap lease (no-op when leases are disabled).
    ///
    /// The control plane's reconciler calls this for every node it can
    /// still reach; a node it cannot reach misses renewals, its lease
    /// runs out, and the controller degrades to locally-safe behavior
    /// (see [`LeaseState`]). Renewal after an expiry is the re-adoption
    /// path: the next iteration runs the full pipeline again and issues
    /// exactly the writes needed to move from the degraded caps (or no
    /// caps at all) back to market allocations — the `in_force` write
    /// cache already reflects whatever the degraded states enforced.
    pub fn renew_lease(&mut self) {
        if self.cfg.cap_lease_ttl == 0 {
            return;
        }
        self.lease_remaining = self.cfg.cap_lease_ttl;
        self.lease_grace_left = 0;
        self.lease = LeaseState::Leased;
    }

    /// Fault-injection hook: charge `us` µs of synthetic stage time
    /// against the deadline budget on every subsequent iteration, on top
    /// of the measured wall time. Lets tests drive the degradation
    /// ladder deterministically without real sleeps (which would make
    /// the chaos suites wall-clock-dependent). `0` disables.
    pub fn inject_stage_delay_us(&mut self, us: u64) {
        self.synthetic_stage_us = us;
    }

    /// The telemetry registry and stage histograms.
    pub fn telemetry(&self) -> &ControllerMetrics {
        &self.metrics
    }

    /// Snapshot everything a warm restart needs — wallets, consumption
    /// histories, previous allocations, monitor baselines and the period
    /// counter — keyed by VM name (see [`crate::persist`]). A VM enters
    /// the snapshot through its vCPUs with an Eq. 3 history; one with
    /// none (never observed, or every vCPU skipped last period) is
    /// omitted.
    ///
    /// What is *deliberately not* in the snapshot:
    ///
    /// * **backend VM ids** — not stable across restarts; the journal
    ///   keys by cgroup scope name and [`Controller::restore_state`]
    ///   re-binds to whatever ids the live listing reports;
    /// * **the `in_force` write cache and stale-sample cache** — both
    ///   describe the *previous process's* relationship with the
    ///   kernel; a successor must re-learn caps from a live read-back
    ///   ([`Controller::adopt_allocation`]) rather than trust memory;
    /// * **ladder / lease / telemetry state** — overload and health
    ///   tracking restart clean by design (a restart *is* the reset).
    ///
    /// The snapshot is deterministic for a given loop state: VMs are
    /// sorted by name and vCPUs by index, so two exports without an
    /// intervening iteration are byte-identical — which is what lets
    /// `tests/restart.rs` diff journals across kill/restart cycles.
    /// Atomic write-out and validation on load live in
    /// [`crate::persist`]; this method only captures state.
    pub fn export_state(&self) -> Journal {
        let mut vms: Vec<VmState> = Vec::new();
        for (vi, name) in self.vm_names.iter().enumerate() {
            let slots = self.vm_slots(vi);
            let vcpus: Vec<VcpuState> = self.rows[slots]
                .iter()
                .enumerate()
                .filter_map(|(j, row)| {
                    Some(VcpuState {
                        vcpu: j as u32,
                        history: row.history.as_ref()?.to_vec(),
                        prev_alloc: row.prev_alloc,
                        usage_baseline: row.prev_usage,
                        throttled_baseline: row.prev_throttled,
                    })
                })
                .collect();
            // A VM is journalled through its tracked vCPUs.
            if !vcpus.is_empty() {
                vms.push(VmState {
                    name: name.clone(),
                    credits: self.vm_credits[vi].unwrap_or(0),
                    vcpus,
                });
            }
        }
        vms.sort_by(|a, b| a.name.cmp(&b.name));
        Journal {
            version: JOURNAL_VERSION,
            period_us: self.cfg.period.as_u64(),
            iterations: self.iterations,
            saved_unix_ms: vfc_telemetry::trace::unix_now_ms(),
            vms,
        }
    }

    /// Resume from a journal: for every live VM whose name appears in
    /// the snapshot, restore its wallet, histories, monitor baselines
    /// and previous allocations under its *current* backend id. Live VMs
    /// absent from the journal are untouched (they cold-start), and
    /// journalled VMs that no longer exist are dropped. Returns the
    /// names of the VMs resumed.
    ///
    /// Per-field semantics, chosen so a *stale* journal can degrade but
    /// never corrupt:
    ///
    /// * **wallet** — restored verbatim; this is the whole point of
    ///   warm restart (a cold-started frugal VM re-earns its guarantee
    ///   in one period but has lost the burst capacity it saved for —
    ///   DESIGN.md §10.3 quantifies the gap);
    /// * **histories & monitor baselines** — seeded so the first warm
    ///   observation differences against the last *real* cumulative
    ///   counters instead of reporting a zero-usage period that would
    ///   crater every estimate;
    /// * **vCPUs past the live count** — skipped (the VM shrank while
    ///   the daemon was dead); vCPUs the journal lacks cold-start
    ///   through the `C_i` floor like any first sighting;
    /// * **the iteration counter** — `max(live, journal)`, monotone so
    ///   period-indexed telemetry never runs backwards even if the
    ///   journal is older than the current process's progress.
    ///
    /// This method trusts the journal's *contents* (validation —
    /// version, staleness, torn files — happened in
    /// [`crate::persist::Journal::load`]) but not its *relationship to
    /// the kernel*: the caller remains responsible for reconciling
    /// `prev_alloc` against the caps actually in force via
    /// [`Controller::adopt_allocation`] — a read-back beats the
    /// journal's memory (DESIGN.md §10.2 table).
    pub fn restore_state(&mut self, journal: &Journal, live: &[VmCgroupInfo]) -> Vec<String> {
        // No iteration may have listed the host yet: lay the tables out
        // against `live` and seed its rows. The next iteration re-slots
        // against its own listing, moving the seeded rows by address.
        self.reslot(live);
        self.table_generation = None;
        let by_name: HashMap<&str, &VmState> =
            journal.vms.iter().map(|v| (v.name.as_str(), v)).collect();
        let mut resumed = Vec::new();
        for (vi, vm) in live.iter().enumerate() {
            let Some(state) = by_name.get(vm.name.as_str()) else {
                continue;
            };
            self.vm_credits[vi] = (state.credits > 0).then_some(state.credits);
            let slots = self.vm_slots(vi);
            // vCPUs past the live count: the VM shrank while the daemon
            // was dead.
            for v in state.vcpus.iter().filter(|v| v.vcpu < vm.nr_vcpus) {
                let row = &mut self.rows[slots.start + v.vcpu as usize];
                row.history = Some(History::seeded(self.cfg.history_len, &v.history));
                row.prev_usage = v.usage_baseline.or(row.prev_usage);
                row.prev_throttled = v.throttled_baseline.or(row.prev_throttled);
                row.prev_alloc = v.prev_alloc.or(row.prev_alloc);
            }
            resumed.push(vm.name.clone());
        }
        self.iterations = self.iterations.max(journal.iterations);
        resumed
    }

    /// Override `c_{i,j,t-1}` with the allocation implied by a live
    /// `cpu.max` read-back — reconciliation adopts what is actually in
    /// force over what the journal remembers. Applies to the vCPUs of
    /// the listing the controller last worked from
    /// ([`Controller::restore_state`]'s `live`, or the previous
    /// iteration's inventory); any other address has no state to amend.
    pub fn adopt_allocation(&mut self, addr: VcpuAddr, alloc: Micros) {
        if let Some(slot) = self.slot_of(addr) {
            self.rows[slot].prev_alloc = Some(alloc);
        }
    }

    /// Live virtual-frequency resize hook. The backend (host) is the
    /// source of truth for `F_v` — stage 1 re-reads it every iteration —
    /// so this does *not* store the new frequency; it re-bases the
    /// controller state that would otherwise act on pre-resize samples:
    ///
    /// * the **credit wallet** is clamped to what the VM could have
    ///   earned at the *new* guarantee over the estimator's history
    ///   window (`C_i^new × vCPUs × history_len`) — credits minted under
    ///   a higher old guarantee must not keep outbidding others;
    /// * every vCPU's **estimator history** is dropped, so the Eq. 3
    ///   trend never mixes pre- and post-resize consumption;
    /// * the vCPUs' **previous allocations** are forgotten, which routes
    ///   them through the cold-start path: the very next estimate is
    ///   floored at the new `C_i` (guarantee-first ramp), instead of
    ///   doubling up from an allocation sized for the old frequency.
    ///
    /// Monitor usage/throttle baselines are deliberately kept — they are
    /// cumulative kernel counters and resetting them would corrupt the
    /// next delta. Returns the new per-vCPU guarantee `C_i` (Eq. 2).
    pub fn set_vfreq(&mut self, vm: VmId, new_vfreq: MHz) -> Micros {
        let c_i = guaranteed_cycles(new_vfreq, self.topo.max_mhz, self.cfg.period);
        let Some(&vi) = self.vm_index_of.get(&vm) else {
            return c_i; // never listed: nothing acts on old samples
        };
        let slots = self.vm_slots(vi as usize);
        let rows = &mut self.rows[slots];
        let vcpus = rows.iter().filter(|r| r.history.is_some()).count().max(1) as u64;
        let ceiling = c_i.as_u64() * vcpus * self.cfg.history_len as u64;
        let credits = &mut self.vm_credits[vi as usize];
        if credits.is_some_and(|balance| balance > ceiling) {
            *credits = (ceiling > 0).then_some(ceiling);
        }
        for row in rows {
            row.history = None;
            row.prev_alloc = None;
            // A retry queued under the old frequency would re-impose an
            // old-sized cap if the vCPU is ever skipped; drop it.
            row.pending = None;
            // Forget the in-force cap so the first post-resize write is
            // always issued, never elided against a cap sized for the old
            // frequency.
            row.in_force = None;
        }
        c_i
    }

    /// Execute one full iteration against the backend.
    ///
    /// Degrades instead of aborting: a failed per-vCPU read or `cpu.max`
    /// write affects only that vCPU (stale reuse, skip, or retry next
    /// period — see [`HealthReport`]), and a VM whose cgroups disappear
    /// mid-iteration is dropped cleanly. No single-vCPU failure makes
    /// this return `Err`; the variant remains for genuinely fatal
    /// conditions of future backends.
    ///
    /// Allocating convenience wrapper over [`Controller::iterate_into`];
    /// long-running callers keep one [`IterationReport`] and reuse it.
    pub fn iterate<B: HostBackend + ?Sized>(&mut self, backend: &mut B) -> Result<IterationReport> {
        let mut report = IterationReport::default();
        self.iterate_into(backend, &mut report)?;
        Ok(report)
    }

    /// Lay the slot and VM tables out against `inv`, moving what is
    /// remembered about every vCPU and VM that is still listed (found by
    /// id, so state follows an id exactly as far as a map keyed by it
    /// would) and dropping the rest, a departed VM's wallet included.
    /// Called only when the inventory generation moves; allocation here
    /// is fine (membership changes are rare events, not steady state) but
    /// is O(1) events plus one name per arrival.
    fn reslot(&mut self, inv: &[VmCgroupInfo]) {
        let (n, nr_slots) = (inv.len(), inv.iter().map(|vm| vm.nr_vcpus as usize).sum());
        let old_base = std::mem::replace(&mut self.vm_slot_base, Vec::with_capacity(n + 1));
        let mut old_names = std::mem::replace(&mut self.vm_names, Vec::with_capacity(n));
        let old_credits = std::mem::replace(&mut self.vm_credits, Vec::with_capacity(n));
        let mut old_rows = std::mem::replace(&mut self.rows, Vec::with_capacity(nr_slots));
        self.vm_ids.clear();
        self.vm_guarantee.clear();
        self.vm_vfreq.clear();
        self.slots.clear();
        for vm in inv {
            let old = self.vm_index_of.get(&vm.vm).map(|&o| o as usize);
            self.vm_ids.push(vm.vm);
            self.vm_names.push(match old {
                Some(o) if old_names[o] == vm.name => std::mem::take(&mut old_names[o]),
                _ => vm.name.clone(),
            });
            self.vm_guarantee.push(guaranteed_cycles(
                vm.vfreq.unwrap_or(MHz::ZERO),
                self.topo.max_mhz,
                self.cfg.period,
            ));
            self.vm_vfreq.push(vm.vfreq);
            self.vm_credits.push(old.and_then(|o| old_credits[o]));
            self.vm_slot_base.push(self.slots.len() as u32);
            let old_slots = old.map_or(0..0, |o| old_base[o] as usize..old_base[o + 1] as usize);
            for j in 0..vm.nr_vcpus {
                self.slots.push(VcpuAddr::new(vm.vm, VcpuId::new(j)));
                self.rows.push(match old_slots.start + j as usize {
                    s if s < old_slots.end => std::mem::take(&mut old_rows[s]),
                    _ => VcpuRow::default(),
                });
            }
        }
        self.vm_slot_base.push(self.slots.len() as u32);
        self.vm_index_of.clear();
        self.vm_index_of
            .extend(self.vm_ids.iter().zip(0..).map(|(id, vi)| (*id, vi)));

        let (slots, ids) = (&self.slots, &self.vm_ids);
        sorted_indices(&mut self.write_order, slots.len(), |s| slots[s as usize]);
        sorted_indices(&mut self.vm_id_order, n, |vi| ids[vi as usize]);
    }

    /// [`Controller::reslot`] against the current inventory.
    fn reslot_to_inventory(&mut self) {
        // Detach the listing for the call: a pointer swap, not a copy.
        let inv = std::mem::take(&mut self.inventory);
        self.reslot(&inv);
        self.inventory = inv;
        self.table_generation = Some(self.generation);
    }

    /// Re-list the inventory unless the backend can prove it unchanged;
    /// bump the generation when the contents moved.
    fn refresh_inventory<B: HostBackend + ?Sized>(&mut self, backend: &B) {
        let epoch = backend.vms_epoch();
        if epoch.is_some() && epoch == self.inventory_epoch {
            return; // proven unchanged: skip the allocating re-list
        }
        let vms = backend.vms();
        self.inventory_epoch = epoch;
        if vms != self.inventory {
            self.inventory = vms;
            self.generation = self.generation.wrapping_add(1);
        }
    }

    /// Drop the VMs that vanished under this period's reads or writes
    /// from the lister and force a real re-list next period (the
    /// backend's epoch may not move for a vanish it never saw). The
    /// generation bump re-slots the table.
    fn forget_vanished(&mut self, vanished: &[VmId]) {
        self.inventory.retain(|v| !vanished.contains(&v.vm));
        self.inventory_epoch = None;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Stages 1–2 — monitor and estimate, one pass over the slot table
    /// in inventory order: VM by VM, vCPU by vCPU, one batched
    /// [`HostBackend::read_vcpu_raw`] each. No per-vCPU result feeds
    /// another vCPU's. Fills `observations`, `estimates` and the read
    /// side of `health`; returns the two stages' wall times.
    ///
    /// Stage 2 forgets the Eq. 3 ring of every vCPU it is not shown: a
    /// skipped vCPU loses its ring where the skip is decided, a vanished
    /// VM all its rows.
    fn monitor_and_estimate<B: HostBackend + ?Sized>(
        &mut self,
        backend: &B,
        health: &mut HealthReport,
    ) -> (Duration, Duration) {
        let t = Instant::now();
        let cfg = &self.cfg;
        self.observations.clear();
        health.read_errors = 0;
        health.stale_reused = 0;
        health.skipped_vcpus.clear();
        health.vanished_vms.clear();
        backend.begin_read_pass();

        'vms: for (vi, info) in self.inventory.iter().enumerate() {
            let vm_start = self.observations.len();
            let base = self.vm_slot_base[vi] as usize;
            let vm_rows = &mut self.rows[base..self.vm_slot_base[vi + 1] as usize];
            for j in 0..vm_rows.len() {
                let row = &mut vm_rows[j];
                let vcpu = VcpuId::new(j as u32);
                let addr = VcpuAddr::new(info.vm, vcpu);
                let at = (addr, (base + j) as u32, vi as u32);
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
                        health.vanished_vms.push(info.vm);
                        continue 'vms;
                    }
                    Err(_) => {
                        health.read_errors += 1;
                        match monitor::reuse_stale(row.last_good.as_mut(), cfg.stale_sample_ttl) {
                            // The sample may predate a move of this row.
                            Some(obs) => {
                                health.stale_reused += 1;
                                self.observations.push(VcpuObservation {
                                    slot: at.1,
                                    vm_idx: at.2,
                                    ..obs
                                });
                            }
                            None => {
                                health.skipped_vcpus.push(addr);
                                row.history = None;
                            }
                        }
                    }
                }
            }
        }
        let monitor_time = t.elapsed();

        let t = Instant::now();
        self.estimates.clear();
        for obs in &self.observations {
            let row = &mut self.rows[obs.slot as usize];
            let history = row
                .history
                .get_or_insert_with(|| History::new(cfg.history_len));
            self.estimates
                .push(estimate::estimate_vcpu(cfg, history, obs, row.prev_alloc));
        }
        (monitor_time, t.elapsed())
    }

    /// Stage 6 — write the slot allocations (and pending retries) to the
    /// backend. Shared by the full market pipeline and the degraded
    /// plans that still write caps (guarantee-only lease state, the
    /// ladder's retry rung); `slot_alloc`/`slot_has` must already be
    /// sized to the slot table. Adds its writes to the report's counts and
    /// returns the stage's wall time.
    ///
    /// Slots are visited in address order, the deterministic write
    /// order. Per slot, the write candidate is this period's fresh
    /// allocation, or a re-issue of last period's failed write for the
    /// (skipped) vCPUs that got no fresh one. A candidate whose
    /// `cpu.max` value is already in force is elided — kernel state ends
    /// up identical without the syscall.
    fn stage_apply<B: HostBackend + ?Sized>(
        &mut self,
        backend: &mut B,
        period: Micros,
        report: &mut IterationReport,
    ) -> Duration {
        let t = Instant::now();
        // VMs whose cgroups are gone by the time their cap is written
        // (cold path: nothing is allocated until one is).
        let mut write_vanished: Vec<VmId> = Vec::new();
        let mut retries = 0u32;
        let mut failed = 0u32;
        for &slot in &self.write_order {
            let slot = slot as usize;
            let addr = self.slots[slot];
            if write_vanished.contains(&addr.vm) {
                continue;
            }
            let row = &mut self.rows[slot];
            // Retriable failures are re-issued once, next period: every
            // pending write is consumed here, used or not.
            let (alloc, is_retry) = match (self.slot_has[slot], row.pending.take()) {
                (true, _) => (self.slot_alloc[slot], false),
                (false, Some(pending)) => (pending, true),
                (false, None) => continue,
            };
            if is_retry {
                retries += 1;
            }
            let max = allocation_to_cpu_max(alloc, period);
            if row.in_force == Some(max) {
                // The kernel already enforces this value, so the write
                // would be a no-op syscall.
                report.cap_writes_elided += 1;
                row.prev_alloc = Some(alloc);
                continue;
            }
            report.cap_writes += 1;
            match backend.set_vcpu_max(addr.vm, addr.vcpu, max) {
                Ok(()) => {
                    report.cap_write_volume += alloc;
                    row.in_force = Some(max);
                    if !is_retry {
                        row.prev_alloc = Some(alloc);
                    }
                    // A successful retry keeps the *old* prev_alloc:
                    // the vCPU was skipped this period, so stages 2–5
                    // never saw the retried value as `c_{t-1}`.
                }
                Err(e) if e.is_vanished() => {
                    write_vanished.push(addr.vm);
                }
                Err(_) => {
                    // The kernel keeps the old capping, but our model
                    // of it is now suspect — and a vCPU stuck on a
                    // stale low cap reads as "stable low" to Eq. 3
                    // for `history_len` periods (its consumption is
                    // pinned at the cap, so no positive trend ever
                    // forms). Drop `prev_alloc` so the vCPU re-enters
                    // through the cold-start path at its next
                    // observation: the estimate is floored at `C_i`,
                    // bounding recovery to one observed period. The
                    // pending write still re-issues the intended
                    // value while the vCPU stays unobserved, and is
                    // never elided, because the in-force entry is
                    // cleared here.
                    failed += 1;
                    row.pending = Some(alloc);
                    row.prev_alloc = None;
                    row.in_force = None;
                }
            }
        }
        report.health.write_retries = retries;
        report.health.write_errors = failed + write_vanished.len() as u32;

        // A VM that disappeared during the writes gets the same
        // cleanup as one that disappeared during monitoring: its rows
        // and its wallet go now, its table rows when the next period
        // re-slots (this period's report still lists it).
        for vm in &write_vanished {
            let vi = self.vm_index_of[vm] as usize;
            let slots = self.vm_slots(vi);
            self.rows[slots].fill_with(VcpuRow::default);
            self.vm_credits[vi] = None;
            report.health.vanished_vms.push(*vm);
        }
        if !write_vanished.is_empty() {
            self.forget_vanished(&write_vanished);
        }
        t.elapsed()
    }

    /// [`Controller::iterate`] into a caller-owned report. The report's
    /// vectors are recycled in place; once their capacities cover the
    /// inventory, a healthy steady-state iteration performs **zero heap
    /// allocations** end to end.
    ///
    /// Backend reads happen in inventory order, VM by VM, vCPU by vCPU —
    /// the sequence fault-injecting backends replay their RNG against.
    pub fn iterate_into<B: HostBackend + ?Sized>(
        &mut self,
        backend: &mut B,
        report: &mut IterationReport,
    ) -> Result<()> {
        let t_start = Instant::now();
        let mut timings = StageTimings::default();
        let period = self.cfg.period;
        let full = self.cfg.mode == ControlMode::Full;

        // ---- lease tick ---------------------------------------------------
        // One period of the cap lease is consumed up front; expiry and
        // grace transitions take effect for *this* iteration, renewal
        // (between iterations) resets them.
        report.health.lease_expired = false;
        if self.cfg.cap_lease_ttl > 0 {
            match self.lease {
                LeaseState::Leased => {
                    if self.lease_remaining > 0 {
                        self.lease_remaining -= 1;
                    } else {
                        self.lease = LeaseState::GuaranteeOnly;
                        self.lease_grace_left = self.cfg.cap_lease_grace;
                        report.health.lease_expired = true;
                    }
                }
                LeaseState::GuaranteeOnly => {
                    if self.lease_grace_left > 0 {
                        self.lease_grace_left -= 1;
                    } else {
                        self.lease = LeaseState::Uncapped;
                    }
                }
                LeaseState::Uncapped | LeaseState::Disabled => {}
            }
        }

        // ---- degradation plan ---------------------------------------------
        // The ladder rung chosen at the end of the previous period and
        // the lease state each demand a pipeline shape; the more
        // degraded one wins. Monitor-only *mode* (scenario A) trumps
        // both — it never wrote caps, so there is nothing to degrade.
        let rung = self.rung;
        let lease_plan = match self.lease {
            LeaseState::Disabled | LeaseState::Leased => Plan::Market,
            LeaseState::GuaranteeOnly => Plan::Guarantee,
            LeaseState::Uncapped => Plan::Uncap,
        };
        let ladder_plan = match rung {
            LadderRung::Full => Plan::Market,
            LadderRung::ReusePrev => Plan::Retry,
            LadderRung::MonitorOnly => Plan::Monitor,
            LadderRung::UncapAll => Plan::Uncap,
        };
        let mut plan = if full {
            lease_plan.max(ladder_plan)
        } else {
            Plan::Monitor
        };
        if plan != Plan::Uncap {
            // Arm the watchdog again once the excursion is over.
            self.uncap_done = false;
        } else if self.uncap_done {
            // It already fired this excursion: from now on it watches.
            plan = Plan::Monitor;
        }
        report.pipeline = plan;
        report.cap_writes = 0;
        report.cap_write_volume = Micros::ZERO;
        report.cap_writes_elided = 0;

        // ---- stages 1–2: monitor + estimate -------------------------------
        // List first: the read loop wants a row for every listed vCPU,
        // arrivals included, so a moved inventory re-slots the table
        // before anything is read.
        self.refresh_inventory(backend);
        if self.table_generation != Some(self.generation) {
            self.reslot_to_inventory();
        }
        let health = &mut report.health;
        (timings.monitor, timings.estimate) = self.monitor_and_estimate(backend, health);
        health.write_errors = 0;
        health.write_retries = 0;
        health.degraded = false;

        if !health.vanished_vms.is_empty() {
            // A VM vanished under the reads: drop it from the lister and
            // re-slot the tables without it (no ghost capping, pending
            // write or wallet survives), then point this period's
            // outputs, read at the old slots, at the new ones.
            self.forget_vanished(&health.vanished_vms);
            self.reslot_to_inventory();
            for (e, o) in self.estimates.iter_mut().zip(&mut self.observations) {
                let vi = self.vm_index_of[&e.addr.vm];
                e.slot = self.vm_slot_base[vi as usize] + e.addr.vcpu.as_u32();
                (e.vm_idx, o.slot, o.vm_idx) = (vi, e.slot, vi);
            }
        }
        let n_vms = self.vm_ids.len();
        report.inventory_vms = n_vms as u32;
        report.inventory_vcpus = self.slots.len() as u32;

        // QoS floors on the estimates (both follow from Eq. 5's premise:
        // the guarantee must hold whenever the estimated demand reaches
        // it, and under-estimating a throttled vCPU denies a paid-for
        // guarantee):
        //
        // * cold start — a vCPU seen for the first time has no usable
        //   history (its first delta reads 0), so until evidence arrives
        //   it is assumed to need its full guarantee;
        // * guarantee-first ramp — a vCPU in the *increase* case is
        //   saturating its current capping, so its true demand is only
        //   known to be "at least the cap": the estimate jumps at least
        //   to C_i immediately (instead of doubling its way up from the
        //   idle floor across many periods), and the increase factor
        //   governs growth beyond the guarantee.
        for e in &mut self.estimates {
            if self.rows[e.slot as usize].prev_alloc.is_none() || e.case == EstimateCase::Increase {
                e.estimate = e.estimate.max(self.vm_guarantee[e.vm_idx as usize]);
            }
        }

        let market_initial;
        let auction_outcome;
        let distributed;
        let market_left;

        if plan == Plan::Market {
            // ---- stage 3: credits + base capping (Eqs. 4, 5) --------------
            let t = Instant::now();
            self.vm_minted.clear();
            self.vm_minted.resize(n_vms, 0);
            for obs in &self.observations {
                let vi = obs.vm_idx as usize;
                let c_i = self.vm_guarantee[vi];
                if c_i > obs.used {
                    let amount = (c_i - obs.used).as_u64();
                    *self.vm_credits[vi].get_or_insert(0) += amount;
                    self.vm_minted[vi] += amount;
                }
            }
            self.slot_alloc.clear();
            self.slot_alloc.resize(self.slots.len(), Micros::ZERO);
            self.slot_has.clear();
            self.slot_has.resize(self.slots.len(), false);
            for e in &self.estimates {
                let slot = e.slot as usize;
                self.slot_alloc[slot] = e.estimate.min(self.vm_guarantee[e.vm_idx as usize]);
                self.slot_has[slot] = true;
            }
            // Over-subscription guard: placement (Eq. 7) should prevent
            // the sum of guarantees from exceeding the node, but if an
            // operator over-packs anyway, degrade every base allocation
            // proportionally instead of writing caps the node cannot
            // honour.
            let c_max = self.topo.c_max(period);
            let base_total: Micros = self.slot_alloc.iter().copied().sum();
            if base_total > c_max && !base_total.is_zero() {
                let ratio = c_max.as_u64() as f64 / base_total.as_u64() as f64;
                for alloc in self.slot_alloc.iter_mut() {
                    // Floor so the scaled sum can never exceed C_MAX.
                    *alloc = Micros((alloc.as_u64() as f64 * ratio) as u64);
                }
            }
            timings.enforce = t.elapsed();

            // ---- stage 4: auction (Eq. 6, Alg. 1) --------------------------
            let t = Instant::now();
            let allocated: Micros = self.slot_alloc.iter().copied().sum();
            let mut market = c_max.saturating_sub(allocated);
            market_initial = market;
            self.buyers.clear();
            for e in &self.estimates {
                let alloc = self.slot_alloc[e.slot as usize];
                if e.estimate > alloc {
                    self.buyers.push(Buyer::of(e, e.estimate - alloc));
                }
            }
            self.vm_spent.clear();
            self.vm_spent.resize(n_vms, 0);
            {
                let slot_alloc = &mut self.slot_alloc;
                let vm_spent = &mut self.vm_spent;
                auction_outcome = run_auction_with(
                    &mut market,
                    &mut self.buyers,
                    self.vm_credits.as_mut_slice(),
                    self.cfg.window,
                    |buyer, paid| {
                        slot_alloc[buyer.slot as usize] += paid;
                        vm_spent[buyer.vm_idx as usize] += paid.as_u64();
                    },
                );
            }
            timings.auction = t.elapsed();

            // ---- stage 5: free distribution --------------------------------
            let t = Instant::now();
            self.residual.clear();
            for e in &self.estimates {
                let alloc = self.slot_alloc[e.slot as usize];
                if e.estimate > alloc {
                    self.residual.push((e.slot, e.estimate - alloc));
                }
            }
            {
                let slot_alloc = &mut self.slot_alloc;
                distributed = distribute_leftovers_with(
                    &mut market,
                    &self.residual,
                    &mut self.dist_scratch,
                    |slot, share| slot_alloc[slot as usize] += share,
                );
            }
            market_left = market;
            timings.distribute = t.elapsed();

            // ---- stage 6: apply --------------------------------------------
            timings.apply = self.stage_apply(backend, period, report);
        } else {
            // Scenario A, a degraded ladder rung, or an expired lease:
            // the market does not run this period.
            market_initial = Micros::ZERO;
            auction_outcome = AuctionOutcome::default();
            distributed = Micros::ZERO;
            market_left = Micros::ZERO;
            match plan {
                Plan::Guarantee => {
                    // Lease expired: enforce exactly the Eq. 2 guarantee
                    // for every observed vCPU — market surplus released,
                    // no credits minted or spent. VMs with no declared
                    // `F_v` have no guarantee to hold; their caps are
                    // released outright (an allocation of a full period
                    // writes as `max`).
                    self.slot_alloc.clear();
                    self.slot_alloc.resize(self.slots.len(), Micros::ZERO);
                    self.slot_has.clear();
                    self.slot_has.resize(self.slots.len(), false);
                    for e in &self.estimates {
                        let slot = e.slot as usize;
                        let c_i = self.vm_guarantee[e.vm_idx as usize];
                        self.slot_alloc[slot] = if c_i.is_zero() { period } else { c_i };
                        self.slot_has[slot] = true;
                    }
                    timings.apply = self.stage_apply(backend, period, report);
                }
                Plan::Retry => {
                    // Ladder `ReusePrev`: previous caps stay in force
                    // (they are already written); only last period's
                    // failed writes are re-issued.
                    self.slot_has.clear();
                    self.slot_has.resize(self.slots.len(), false);
                    timings.apply = self.stage_apply(backend, period, report);
                }
                Plan::Uncap => {
                    // Watchdog: a controller too degraded to decide must
                    // not keep stale caps enforced. It clears every cap,
                    // again each period until no clear fails (a vanished
                    // cgroup needs none), then watches for the rest of
                    // the excursion; VMs arriving while uncapped start at
                    // the kernel default (`max`) anyway.
                    let t = Instant::now();
                    let mut retry = false;
                    for &slot in &self.write_order {
                        let addr = self.slots[slot as usize];
                        report.cap_writes += 1;
                        if let Err(e) = backend.clear_vcpu_max(addr.vm, addr.vcpu) {
                            report.health.write_errors += 1;
                            retry |= !e.is_vanished();
                        }
                    }
                    for row in &mut self.rows {
                        (row.prev_alloc, row.pending, row.in_force) = (None, None, None);
                    }
                    self.uncap_done = !retry;
                    timings.apply = t.elapsed();
                }
                Plan::Monitor | Plan::Market => {}
            }
        }

        // ---- report -------------------------------------------------------
        let wrote_fresh = matches!(plan, Plan::Market | Plan::Guarantee);
        let n_rows = self.estimates.len();
        report.vcpus.truncate(n_rows);
        while report.vcpus.len() < n_rows {
            report.vcpus.push(VcpuReport {
                addr: VcpuAddr::new(VmId::new(0), VcpuId::new(0)),
                vm_name: String::new(),
                vfreq: None,
                used: Micros::ZERO,
                freq_est: MHz::ZERO,
                estimate: Micros::ZERO,
                case: EstimateCase::Stable,
                guaranteed: Micros::ZERO,
                alloc: Micros::ZERO,
            });
        }
        for i in 0..n_rows {
            let e = &self.estimates[i];
            let o = &self.observations[i];
            let slot = e.slot as usize;
            let vi = e.vm_idx as usize;
            let row = &mut report.vcpus[i];
            row.addr = e.addr;
            let name = &self.vm_names[vi];
            if row.vm_name != *name {
                row.vm_name.clear();
                row.vm_name.push_str(name);
            }
            row.vfreq = self.vm_vfreq[vi];
            row.used = o.used;
            row.freq_est = o.freq_est;
            row.estimate = e.estimate;
            row.case = e.case;
            row.guaranteed = self.vm_guarantee[vi];
            row.alloc = if wrote_fresh && self.slot_has[slot] {
                self.slot_alloc[slot]
            } else {
                Micros::ZERO
            };
        }
        report.vcpus.sort_unstable_by_key(|v| v.addr);
        report.market_initial = market_initial;
        report.auction = auction_outcome;
        report.distributed = distributed;
        report.market_left = market_left;

        timings.total = t_start.elapsed();
        report.timings = timings;
        self.iterations += 1;

        // ---- deadline accounting ------------------------------------------
        // The charged time is the measured wall time plus any injected
        // synthetic stage time; the verdict applies to the *next* period
        // (this one already ran on the rung chosen last period).
        let budget_us = if self.cfg.deadline_budget_frac > 0.0 {
            (period.as_u64() as f64 * self.cfg.deadline_budget_frac) as u64
        } else {
            0
        };
        let spent_us = timings.total.as_micros() as u64 + self.synthetic_stage_us;
        let overrun = budget_us > 0 && spent_us > budget_us;
        report.health.ladder_rung = rung;
        report.health.deadline_overrun = overrun;
        report.health.deadline_spent_us = spent_us;
        report.health.deadline_budget_us = budget_us;
        report.health.lease_state = self.lease;
        report.health.lease_remaining = self.lease_remaining;
        if budget_us > 0 {
            if overrun {
                self.ladder_streak = 0;
                self.rung = self.rung.down();
            } else {
                self.ladder_streak = self.ladder_streak.saturating_add(1);
                if self.rung != LadderRung::Full
                    && self.ladder_streak >= self.cfg.ladder_recovery_periods
                {
                    self.rung = self.rung.up();
                    self.ladder_streak = 0;
                }
            }
        }
        report.health.ladder_next = self.rung;

        report.health.finalize();
        self.health_totals.absorb(&report.health);

        // Every VM's flows, in id order — when the market ran: the
        // tables are last market period's otherwise.
        report.flows.clear();
        if plan == Plan::Market {
            report
                .flows
                .extend(self.vm_id_order.iter().map(|&vi| CreditFlow {
                    vm: self.vm_ids[vi as usize],
                    minted: self.vm_minted[vi as usize],
                    spent: self.vm_spent[vi as usize],
                }));
        }
        // Exactly the VMs with a wallet entry, in id order.
        report.credits.clear();
        for &vi in &self.vm_id_order {
            let vi = vi as usize;
            if let Some(balance) = self.vm_credits[vi] {
                report.credits.push((self.vm_ids[vi], balance));
            }
        }

        // ---- telemetry (outside the timed window) -------------------------
        self.metrics.observe(report);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_cgroupfs::{FaultInjectingBackend, FaultKind, FaultOp, FaultPlan};
    use vfc_cpusched::topology::NodeSpec;
    use vfc_simcore::VcpuId;
    use vfc_vmm::workload::{BurstyWeb, IdleWorkload, SteadyDemand};
    use vfc_vmm::{SimHost, VmTemplate};

    /// Host with deterministic performance governor (no freq noise).
    fn host(threads: u32) -> SimHost {
        SimHost::fixed_freq(NodeSpec::custom("t", 1, threads, 1, MHz(2400)), 42)
    }

    fn step(host: &mut SimHost, ctl: &mut Controller) -> IterationReport {
        host.advance_period();
        ctl.iterate(host).unwrap()
    }

    #[test]
    fn guarantees_hold_under_full_contention() {
        // 2 threads; one 500 MHz VM and one 1800 MHz VM, both saturating
        // with 2 vCPUs each: without control they'd split evenly; the
        // controller must deliver ≈500 and ≈1800.
        let mut h = host(2);
        let small = h.provision(&VmTemplate::new("small", 1, MHz(500)));
        let large = h.provision(&VmTemplate::new("large", 1, MHz(1800)));
        h.attach_workload(small, Box::new(SteadyDemand::full()));
        h.attach_workload(large, Box::new(SteadyDemand::full()));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        // Second thread load: add two more saturating 500 MHz VMs so the
        // node is genuinely contended (total ask 500·3+1800 = 3300 < 4800).
        let s2 = h.provision(&VmTemplate::new("small", 1, MHz(500)));
        let s3 = h.provision(&VmTemplate::new("small", 1, MHz(500)));
        h.attach_workload(s2, Box::new(SteadyDemand::full()));
        h.attach_workload(s3, Box::new(SteadyDemand::full()));

        let mut last = None;
        for _ in 0..30 {
            last = Some(step(&mut h, &mut ctl));
        }
        let report = last.unwrap();
        let large_freq = report
            .vcpu(VcpuAddr::new(large, VcpuId::new(0)))
            .unwrap()
            .freq_est;
        assert!(
            large_freq.as_u32() >= 1700,
            "large should be ≈1800 MHz, got {large_freq}"
        );
        // Every small vCPU must be at or above its 500 MHz guarantee.
        for vm in [small, s2, s3] {
            let f = report
                .vcpu(VcpuAddr::new(vm, VcpuId::new(0)))
                .unwrap()
                .freq_est;
            assert!(f.as_u32() >= 450, "small guarantee violated: {f}");
        }
    }

    #[test]
    fn lone_vm_bursts_to_node_maximum() {
        // A 500 MHz VM alone on the node must not stay capped at 500: the
        // market sells it everything (Fig. 7 before t = 200 s).
        let mut h = host(2);
        let vm = h.provision(&VmTemplate::new("small", 1, MHz(500)));
        h.attach_workload(vm, Box::new(SteadyDemand::full()));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        let mut freqs = Vec::new();
        for _ in 0..25 {
            let r = step(&mut h, &mut ctl);
            freqs.push(
                r.vcpu(VcpuAddr::new(vm, VcpuId::new(0)))
                    .unwrap()
                    .freq_est
                    .as_u32(),
            );
        }
        let final_freq = *freqs.last().unwrap();
        assert!(
            final_freq >= 2300,
            "lone VM should burst to ≈2400 MHz, got {final_freq} (ramp {freqs:?})"
        );
    }

    #[test]
    fn monitor_only_mode_never_writes_caps() {
        let mut h = host(2);
        let vm = h.provision(&VmTemplate::new("small", 1, MHz(500)));
        h.attach_workload(vm, Box::new(SteadyDemand::full()));
        let mut ctl = Controller::new(ControllerConfig::monitor_only(), h.topology_info());
        for _ in 0..5 {
            let r = step(&mut h, &mut ctl);
            assert!(r.vcpus.iter().all(|v| v.alloc.is_zero()));
        }
        assert!(h.vcpu_max(vm, VcpuId::new(0)).unwrap().is_unlimited());
    }

    #[test]
    fn idle_vm_earns_credits() {
        let mut h = host(2);
        let vm = h.provision(&VmTemplate::new("small", 1, MHz(1200)));
        h.attach_workload(vm, Box::new(IdleWorkload));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        for _ in 0..5 {
            step(&mut h, &mut ctl);
        }
        // 1200 MHz on a 2.4 GHz node = 500 000 µs/iteration of credit.
        let credit = ctl.credit_of(vm);
        assert_eq!(credit, 5 * 500_000);
    }

    #[test]
    fn estimates_drive_caps_down_for_idle_vms() {
        let mut h = host(2);
        let vm = h.provision(&VmTemplate::new("small", 1, MHz(1200)));
        h.attach_workload(vm, Box::new(IdleWorkload));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        let mut last = None;
        for _ in 0..5 {
            last = Some(step(&mut h, &mut ctl));
        }
        let r = last.unwrap();
        let v = r.vcpu(VcpuAddr::new(vm, VcpuId::new(0))).unwrap();
        // An idle vCPU is allocated only the floor, freeing its guarantee
        // for the market.
        assert_eq!(v.alloc, crate::estimate::MIN_CAP);
    }

    #[test]
    fn bursty_vm_is_served_through_its_credits() {
        // A bursty VM that was idle accumulates credits; when its burst
        // comes, the auction serves it beyond its base frequency even on
        // a contended node.
        let mut h = host(2);
        let web = h.provision(&VmTemplate::new("web", 1, MHz(600)));
        let hog = h.provision(&VmTemplate::new("hog", 2, MHz(600)));
        h.attach_workload(
            web,
            Box::new(BurstyWeb::with_shape(
                0,
                0.0,
                1.0,
                Micros::from_secs(40),
                Micros::from_secs(18),
            )),
        );
        h.attach_workload(hog, Box::new(SteadyDemand::full()));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        let mut web_freqs = Vec::new();
        for _ in 0..80 {
            let r = step(&mut h, &mut ctl);
            web_freqs.push(
                r.vcpu(VcpuAddr::new(web, VcpuId::new(0)))
                    .unwrap()
                    .freq_est
                    .as_u32(),
            );
        }
        let peak = *web_freqs.iter().max().unwrap();
        assert!(
            peak > 900,
            "bursting web VM should exceed its 600 MHz base, peaked at {peak}: {web_freqs:?}"
        );
    }

    #[test]
    fn allocations_never_exceed_node_capacity() {
        let mut h = host(4);
        for i in 0..6 {
            let vm = h.provision(&VmTemplate::new("vm", 2, MHz(700 + 100 * i)));
            h.attach_workload(vm, Box::new(SteadyDemand::full()));
        }
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        let c_max = h.topology_info().c_max(Micros::SEC);
        for _ in 0..15 {
            let r = step(&mut h, &mut ctl);
            assert!(
                r.total_alloc() <= c_max,
                "allocated {} > C_MAX {}",
                r.total_alloc(),
                c_max
            );
        }
    }

    #[test]
    fn report_aggregates_work() {
        let mut h = host(2);
        let a = h.provision(&VmTemplate::new("small", 1, MHz(500)));
        let _b = h.provision(&VmTemplate::new("large", 1, MHz(1800)));
        h.attach_workload(a, Box::new(SteadyDemand::full()));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        let r = step(&mut h, &mut ctl);
        assert!(r.mean_freq_of("small").is_some());
        assert!(r.mean_freq_of("large").is_some());
        assert!(r.mean_freq_of("ghost").is_none());
        assert_eq!(r.vcpus.len(), 2);
        assert_eq!(ctl.iterations(), 1);
        assert!(r.timings.total >= r.timings.monitor);
    }

    #[test]
    fn live_resize_rebases_wallet_and_guarantee() {
        let mut h = host(2);
        let vm = h.provision(&VmTemplate::new("web", 1, MHz(1800)));
        h.attach_workload(vm, Box::new(IdleWorkload));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        for _ in 0..10 {
            step(&mut h, &mut ctl);
        }
        // Idle at 1800/2400 MHz: earns 750 000 µs per period.
        assert_eq!(ctl.credit_of(vm), 10 * 750_000);

        // Downgrade to 600 MHz: host first (source of truth), then the hook.
        h.set_vfreq(vm, MHz(600));
        let c_new = ctl.set_vfreq(vm, MHz(600));
        assert_eq!(c_new, Micros(250_000));
        // Wallet clamped to C_i^new × vCPUs × history_len.
        assert_eq!(ctl.credit_of(vm), 250_000 * 5);

        // The next iteration runs against the new guarantee.
        let r = step(&mut h, &mut ctl);
        let v = r.vcpu(VcpuAddr::new(vm, VcpuId::new(0))).unwrap();
        assert_eq!(v.guaranteed, Micros(250_000));
        assert_eq!(v.vfreq, Some(MHz(600)));
    }

    #[test]
    fn upward_resize_grants_new_guarantee_within_one_period() {
        // Contended node: two saturating VMs. Resize one upward; its very
        // next allocation must already be floored at the new C_i (the
        // cold-start path), not ramp up from the old capping.
        let mut h = host(2);
        let a = h.provision(&VmTemplate::new("a", 2, MHz(500)));
        let b = h.provision(&VmTemplate::new("b", 2, MHz(500)));
        h.attach_workload(a, Box::new(SteadyDemand::full()));
        h.attach_workload(b, Box::new(SteadyDemand::full()));
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), h.topology_info());
        for _ in 0..10 {
            step(&mut h, &mut ctl);
        }
        h.set_vfreq(a, MHz(1500));
        let c_new = ctl.set_vfreq(a, MHz(1500));
        assert_eq!(c_new, Micros(625_000));
        let r = step(&mut h, &mut ctl);
        for j in 0..2 {
            let v = r.vcpu(VcpuAddr::new(a, VcpuId::new(j))).unwrap();
            assert!(
                v.alloc >= Micros(625_000),
                "vCPU {j} alloc {} below the new guarantee",
                v.alloc
            );
        }
    }

    /// A clear that fails while the watchdog uncaps is retried next
    /// period, so no vCPU stays capped through the excursion.
    #[test]
    fn the_watchdog_retries_a_failed_clear() {
        let mut h = host(2);
        let vm = h.provision(&VmTemplate::new("web", 2, MHz(600)));
        h.attach_workload(vm, Box::new(SteadyDemand::full()));
        let mut backend = FaultInjectingBackend::new(h, FaultPlan::none(), 1);
        let cfg = ControllerConfig {
            cap_lease_ttl: 1,
            cap_lease_grace: 0,
            ..ControllerConfig::paper_defaults()
        };
        let mut ctl = Controller::new(cfg, backend.topology());
        let mut period = |backend: &mut FaultInjectingBackend<SimHost>| {
            backend.inner_mut().advance_period();
            ctl.iterate(backend).unwrap()
        };
        // One leased period, then the lease expires: the guarantee caps
        // both vCPUs.
        period(&mut backend);
        assert_eq!(period(&mut backend).pipeline, Plan::Guarantee);
        let vcpu0 = VcpuId::new(0);
        assert!(!backend.vcpu_max(vm, vcpu0).unwrap().is_unlimited());

        // The grace is over: the watchdog uncaps, and one clear fails.
        let busy = FaultKind::Io(std::io::ErrorKind::ResourceBusy);
        backend.script_fault(FaultOp::SetVcpuMax, Some(vm), Some(vcpu0), busy, 1);
        let r = period(&mut backend);
        assert_eq!(r.pipeline, Plan::Uncap);
        assert_eq!((r.cap_writes, r.health.write_errors), (2, 1));

        // Still armed: it clears again, then only watches.
        let r = period(&mut backend);
        assert_eq!(r.pipeline, Plan::Uncap);
        assert_eq!((r.cap_writes, r.health.write_errors), (2, 0));
        assert_eq!(period(&mut backend).pipeline, Plan::Monitor);
        for j in 0..2 {
            assert!(backend.vcpu_max(vm, VcpuId::new(j)).unwrap().is_unlimited());
        }
    }

    #[test]
    #[should_panic(expected = "invalid controller config")]
    fn bad_config_panics() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.history_len = 0;
        let _ = Controller::new(
            cfg,
            TopologyInfo {
                nr_cpus: 1,
                max_mhz: MHz(2400),
            },
        );
    }
}
