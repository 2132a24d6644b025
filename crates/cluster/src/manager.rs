//! The cluster manager: admission, per-node control, migrations, and
//! energy/SLO accounting. See the crate docs for the two strategies.

use crate::faults::{Crash, FaultModel, FaultReport, Faults, NodeState, RestartPolicy};
use crate::slo::{SloTracker, VmSlo};
use serde::{Deserialize, Serialize};
use std::fmt;
use vfc_cgroupfs::backend::HostBackend;
use vfc_controller::{Controller, ControllerConfig, CreditFlow, IterationReport, LeaseState};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::algo::PlacementAlgorithm;
use vfc_placement::constraint::ConstraintMode;
use vfc_placement::model::{NodeBin, PlacementRequest};
use vfc_placement::ResidualIndex;
use vfc_simcore::{MHz, Micros, VcpuId, VmId};
use vfc_vmm::workload::Workload;
use vfc_vmm::{SimHost, VmTemplate};

/// Cluster-wide VM identifier (stable across migrations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GlobalVmId(pub u32);

impl fmt::Display for GlobalVmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gvm{}", self.0)
    }
}

/// Typed failure of an id-addressed cluster operation. The control
/// plane's reconciler races against fault-injected node crashes and
/// customer-initiated departures, so every lookup miss must be
/// distinguishable (and recoverable) instead of a silent no-op or a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterError {
    /// The id was never issued by this cluster.
    UnknownVm(GlobalVmId),
    /// The VM already left the cluster; the id stays reserved forever.
    AlreadyRemoved(GlobalVmId),
    /// The VM exists but is mid-migration or stranded — the operation
    /// cannot touch it right now. Transient: retry next period.
    NotPlaced(GlobalVmId),
    /// The template failed validation ([`VmTemplate::validate`]).
    InvalidTemplate(String),
    /// No node satisfies the request under the strategy's constraint
    /// (Eq. 7 for the frequency strategies). Transient: capacity may
    /// free up as other VMs depart.
    NoCapacity,
}

impl ClusterError {
    /// Should the caller retry later (capacity/landing races), or is the
    /// operation permanently invalid? Mirrors the PR 1 error taxonomy
    /// (`CgroupError::is_transient`).
    pub fn is_transient(&self) -> bool {
        matches!(self, ClusterError::NotPlaced(_) | ClusterError::NoCapacity)
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownVm(id) => write!(f, "unknown VM id {id}"),
            ClusterError::AlreadyRemoved(id) => write!(f, "VM {id} already removed"),
            ClusterError::NotPlaced(id) => write!(f, "VM {id} is migrating or stranded"),
            ClusterError::InvalidTemplate(why) => write!(f, "invalid template: {why}"),
            ClusterError::NoCapacity => write!(f, "no node satisfies the placement constraint"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// How a successful [`ClusterManager::resize_vfreq`] was carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResizeOutcome {
    /// The new `F_v` still satisfies Eq. 7 on the VM's current node: the
    /// host template, the placement bin and the node controller were
    /// updated in place — zero downtime.
    InPlace,
    /// The new `F_v` broke Eq. 7 on the current node; a live migration
    /// to a node that fits was started instead (one period of downtime,
    /// like any migration). The resize lands with the VM.
    Migrating,
}

/// One node's Eq. 7 ledger, for capacity views and violation audits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// `<family>-<index>` label, as in the telemetry rollup.
    pub name: String,
    /// False while the node is crashed (its bin is empty then).
    pub up: bool,
    /// Σ `k_i·F_i` of the VMs placed here (left side of Eq. 7), MHz.
    pub used_mhz: u64,
    /// `k_n·F_n^MAX` (right side of Eq. 7), MHz.
    pub capacity_mhz: u64,
    /// vCPUs placed here.
    pub used_vcpus: u64,
    /// Hardware threads of the node.
    pub threads: u32,
    /// Memory placed here, GB.
    pub used_mem_gb: u64,
    /// Node DRAM, GB.
    pub mem_gb: u64,
}

/// How the cluster keeps its promises.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Eq. 7 admission + the paper's controller on every node.
    FrequencyControl,
    /// Eq. 7 admission + the controller with the throttle-aware
    /// estimation extension (detects capped bursts from
    /// `cpu.stat::throttled_usec` instead of waiting for the consumption
    /// trend).
    FrequencyControlThrottleAware,
    /// Core-count admission with an overcommitment `factor`, no
    /// controller; nodes whose utilization stays above `high_watermark`
    /// for `sustain` consecutive periods migrate their largest VM away,
    /// paying `downtime_periods` of unavailability (the legacy approach
    /// of §II).
    MigrationBased {
        /// vCPU overcommitment factor for admission.
        factor: f64,
        /// Utilization above which a node counts as hot.
        high_watermark: f64,
        /// Consecutive hot periods before a migration fires.
        sustain: u32,
        /// Periods a migrating VM is offline.
        downtime_periods: u32,
    },
}

impl Strategy {
    /// The §II defaults used by the comparison scenario.
    pub fn migration_default() -> Strategy {
        Strategy::MigrationBased {
            factor: 1.8,
            high_watermark: 0.95,
            sustain: 3,
            downtime_periods: 3,
        }
    }

    fn constraint(&self) -> ConstraintMode {
        match self {
            Strategy::FrequencyControl | Strategy::FrequencyControlThrottleAware => {
                ConstraintMode::Frequency
            }
            Strategy::MigrationBased { factor, .. } => {
                ConstraintMode::CoreCount { factor: *factor }
            }
        }
    }

    fn controller_config(&self) -> Option<ControllerConfig> {
        match self {
            Strategy::FrequencyControl => Some(ControllerConfig::paper_defaults()),
            Strategy::FrequencyControlThrottleAware => Some(ControllerConfig::throttle_aware()),
            Strategy::MigrationBased { .. } => None,
        }
    }
}

/// Per-VM SLO sample computed node-side in the node advance of
/// [`ClusterManager::run_period`], then merged in node order so the
/// trackers see a deterministic update sequence.
#[derive(Clone, Copy)]
struct SloSample {
    /// Index into the manager's VM records (the merge key).
    vm: usize,
    /// The VM's id on this node (the key of the report's credit flows).
    local: VmId,
    worst_demand: f64,
    worst_delivery: f64,
    rec_demand: f64,
    rec_served: f64,
    /// Σ exact per-vCPU frequency over the period (MHz·s of work the VM
    /// actually received) — the quantity a metering layer bills on.
    delivered_mhz: u64,
}

struct NodeRuntime {
    host: SimHost,
    controller: Option<Controller>,
    bin: NodeBin,
    hot_streak: u32,
    /// Up, controller down, or down, with the timers of that state.
    state: NodeState,
    /// Reused iteration report: its row buffers reach steady-state
    /// capacity after a few periods, so the per-period controller run
    /// stays off the allocator (see `Controller::iterate_into`).
    report: IterationReport,
    /// The period `report` was filled in: a node that did not advance,
    /// or whose controller is dead, leaves an older report behind.
    report_period: u64,
    /// VMs resident on this node, as (VM-record index, local id,
    /// guaranteed vfreq, vCPU count), kept sorted by VM-record index and
    /// maintained *incrementally* by [`ClusterManager::put_on`] and
    /// [`ClusterManager::take_off`] (and an in-place resize) — so no
    /// period ever scans the whole fleet per node, and an empty node's
    /// emptiness is an O(1) check.
    residents: Vec<(usize, VmId, MHz, u32)>,
    /// SLO samples this node computed in its advance, merged at the
    /// period close. Keeps its capacity across periods.
    slo_scratch: Vec<SloSample>,
    /// Last values folded into the cluster-wide incremental tallies
    /// (`used_node_count`, `violating_node_count`, `committed_mhz`) —
    /// [`ClusterManager::refresh_node`] applies the delta against these
    /// and overwrites them, so the rollups never re-walk the fleet.
    tallied_used: bool,
    tallied_violating: bool,
    tallied_mhz: u64,
}

impl NodeRuntime {
    fn new(spec: NodeSpec, seed: u64) -> Self {
        NodeRuntime {
            host: SimHost::new(spec.clone(), seed),
            controller: None,
            bin: NodeBin::new(spec),
            hot_streak: 0,
            state: NodeState::Up { recovery_until: 0 },
            report: IterationReport::default(),
            report_period: 0,
            residents: Vec::new(),
            slo_scratch: Vec::new(),
            tallied_used: false,
            tallied_violating: false,
            tallied_mhz: 0,
        }
    }
}

enum Location {
    OnNode {
        node: usize,
        local: VmId,
    },
    InFlight {
        dest: usize,
        arrive: u64,
        /// Node to roll back to if the landing fails (`None` for
        /// evacuations off a dead node and for completed rollbacks —
        /// those landings cannot fail again).
        src: Option<usize>,
    },
    /// Evacuated off a crashed node with nowhere to go; re-placement is
    /// retried every period and each waiting period is a violation.
    Stranded,
    /// Terminated by the customer; the id stays reserved.
    Gone,
}

impl Location {
    /// In flight to `dest`, landing at period `arrive`; stranded when
    /// there is no `dest`.
    fn offline(dest: Option<usize>, arrive: u64, src: Option<usize>) -> Location {
        dest.map_or(Location::Stranded, |dest| Location::InFlight {
            dest,
            arrive,
            src,
        })
    }
}

struct VmRecord {
    template: VmTemplate,
    location: Location,
    /// Workload parked during migration.
    parked: Option<Box<dyn Workload>>,
}

/// One VM's metered usage for one period, exported when
/// [`ClusterManager::enable_usage_export`] is on. All quantities are
/// ground truth read node-side while the period's state is hot: the
/// delivered work comes from the exact per-vCPU frequencies, the credit
/// flows are the ones the node controller's iteration report carried
/// for the period, and the SLO flags apply the same predicate as
/// [`SloTracker`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmPeriodUsage {
    /// The VM (stable across migrations).
    pub vm: GlobalVmId,
    /// Template/class name (the SLO-tracker key).
    pub class: String,
    /// Guaranteed virtual frequency per vCPU (`F_v`), MHz.
    pub vfreq_mhz: u32,
    /// vCPU count (`k_v`).
    pub vcpus: u32,
    /// Work actually received this period: Σ per-vCPU exact frequency,
    /// MHz·s (periods are 1 s).
    pub delivered_mhz_s: u64,
    /// Reserved work this period: `k_v × F_v`, MHz·s.
    pub guaranteed_mhz_s: u64,
    /// Credits earned this period (Eq. 4 mint), µs of `F^MAX` cycles.
    pub minted_usec: u64,
    /// Credits spent in the auction this period (Alg. 1), µs.
    pub spent_usec: u64,
    /// The VM demanded at least its guarantee this period.
    pub demanding: bool,
    /// Demanding but delivered below tolerance (an SLO violation).
    pub violated: bool,
    /// Offline the whole period (migration downtime / stranded) —
    /// always a demanding violation, with zero delivered work.
    pub offline: bool,
}

/// One period's metered usage across the whole cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodUsage {
    /// Period index (1-based).
    pub period: u64,
    /// Per-VM usage, resident VMs first (node order) then offline VMs.
    pub vms: Vec<VmPeriodUsage>,
    /// Market cycles wasted cluster-wide this period (Eq. 6 leftovers
    /// that neither the auction nor free distribution placed), µs.
    pub wasted_market_usec: u64,
    /// Credit flows of VMs no longer resident at the period close, µs.
    /// Kept visible so a biller can see metering is conservative rather
    /// than silently lossy.
    pub unattributed_usec: u64,
}

/// One period's cluster-wide sample (for time-series reporting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodSample {
    /// Period index (1-based).
    pub period: u64,
    /// Nodes hosting at least one VM.
    pub nodes_active: usize,
    /// Cluster draw this period, Watts (powered-off nodes excluded).
    pub power_w: f64,
    /// VMs currently mid-migration.
    pub in_flight: usize,
}

/// Final accounting of a cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Periods the cluster ran.
    pub periods: u64,
    /// VMs admitted over the run.
    pub deployed: usize,
    /// VMs refused for lack of capacity.
    pub rejected: usize,
    /// Live migrations performed.
    pub migrations: u64,
    /// Total cluster energy, watt-hours (empty nodes powered off).
    pub energy_wh: f64,
    /// Cluster size.
    pub nodes_total: usize,
    /// Nodes hosting at least one VM at the end.
    pub nodes_active: usize,
    /// Per-class SLO counters, sorted by class name.
    pub slo_by_class: Vec<(String, VmSlo)>,
    /// Aggregate violation rate across classes.
    pub slo_overall: f64,
    /// Fault-machinery counters; `None` when no fault model was active.
    pub faults: Option<FaultReport>,
    /// Demand-aware SLO counters restricted to recovery windows (node
    /// down, controller down, or the tail after a controller restart),
    /// sorted by class name. A period is violated when the VM demanded
    /// at least its guarantee and received less than 95 % of what it
    /// demanded — strict enough to see a lost credit wallet, which the
    /// guarantee-relative [`ClusterReport::slo_by_class`] cannot.
    pub recovery_slo_by_class: Vec<(String, VmSlo)>,
}

/// See crate docs.
pub struct ClusterManager {
    strategy: Strategy,
    nodes: Vec<NodeRuntime>,
    vms: Vec<VmRecord>,
    rejected: usize,
    migrations: u64,
    period: u64,
    energy_j: f64,
    slo: SloTracker,
    history: Vec<PeriodSample>,
    faults: Faults,
    recovery: SloTracker,
    /// VM-record indices currently [`Location::InFlight`] or
    /// [`Location::Stranded`], sorted — the per-period landing sweep and
    /// offline-SLO accounting read this instead of scanning the whole
    /// fleet.
    offline_vms: Vec<usize>,
    /// Indices of the nodes hosting at least one VM, sorted — the nodes
    /// a period advances. Written only by [`ClusterManager::put_on`] and
    /// [`ClusterManager::take_off`].
    occupied: Vec<usize>,
    /// Reusable snapshot of [`ClusterManager::offline_vms`] for the
    /// per-period landing sweep (landing mutates the offline set).
    landing_scratch: Vec<usize>,
    /// Reusable list of the nodes a period advances and closes over (the
    /// migration policy mutates `occupied` during the close).
    active_scratch: Vec<usize>,
    /// What every node controller is built from (restarts included):
    /// the strategy's parameters (full mode), plus the cap-lease and
    /// deadline-ladder policies once enabled. `None` under the migration
    /// strategy, which runs no controllers.
    controller_config: Option<ControllerConfig>,
    /// Per-period usage metering, when enabled via
    /// [`ClusterManager::enable_usage_export`]: the records not yet
    /// drained. `None` = off (the default): the hot path pays nothing.
    usage_export: Option<Vec<PeriodUsage>>,
    /// The strategy's placement constraint, cached (it never changes
    /// after construction) so the placement fast path skips the match.
    mode: ConstraintMode,
    /// Residual-capacity index over the node bins: every placement
    /// question (admission, evacuation, migration fallback) answers in
    /// O(log n) instead of an O(n) bin scan. Kept in sync by
    /// [`ClusterManager::refresh_node`] after every bin or up/down
    /// transition; down nodes are deactivated. See DESIGN.md §16.
    index: ResidualIndex,
    /// Incrementally-maintained count of nodes hosting ≥ 1 VM
    /// (= [`ClusterManager::active_nodes`], O(1)).
    used_node_count: usize,
    /// Incrementally-maintained count of nodes with `used_mhz >
    /// capacity_mhz` (= [`ClusterManager::eq7_violations`], O(1)).
    violating_node_count: usize,
    /// Incrementally-maintained Σ over nodes of committed Eq. 7 MHz.
    committed_mhz: u64,
    /// Static Σ over nodes of `k_n·F_n^MAX` (MHz).
    capacity_mhz_total: u64,
}

impl ClusterManager {
    /// Build a cluster over the given nodes. Each node gets its own deterministic seed stream.
    pub fn new(specs: Vec<NodeSpec>, strategy: Strategy, seed: u64) -> Self {
        Self::with_faults(specs, strategy, seed, FaultModel::none())
    }

    /// Like [`ClusterManager::new`], with a fault model. The fault RNG is
    /// seeded from the model alone, so two runs differing only in
    /// [`FaultModel::restart`] see the exact same fault schedule — the
    /// basis of warm-vs-cold comparisons. Panics when a scripted fault
    /// names a node index `specs` does not have.
    pub fn with_faults(
        specs: Vec<NodeSpec>,
        strategy: Strategy,
        seed: u64,
        faults: FaultModel,
    ) -> Self {
        let nodes: Vec<NodeRuntime> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| NodeRuntime::new(spec, seed.wrapping_add(i as u64 * 7919)))
            .collect();
        let faults = Faults::new(faults, nodes.len());
        let mode = strategy.constraint();
        let index = ResidualIndex::new(nodes.len());
        let capacity_mhz_total = nodes.iter().map(|n| n.bin.spec.freq_capacity_mhz()).sum();
        let controller_config = strategy.controller_config();
        let mut mgr = ClusterManager {
            strategy,
            nodes,
            vms: Vec::new(),
            rejected: 0,
            migrations: 0,
            period: 0,
            energy_j: 0.0,
            slo: SloTracker::new(0.95),
            history: Vec::new(),
            faults,
            recovery: SloTracker::new(0.95),
            offline_vms: Vec::new(),
            occupied: Vec::new(),
            landing_scratch: Vec::new(),
            active_scratch: Vec::new(),
            controller_config,
            usage_export: None,
            mode,
            index,
            used_node_count: 0,
            violating_node_count: 0,
            committed_mhz: 0,
            capacity_mhz_total,
        };
        for i in 0..mgr.nodes.len() {
            mgr.nodes[i].controller = mgr.fresh_controller(i);
            mgr.refresh_node(i);
        }
        mgr
    }

    /// Re-derive one node's contribution to the incremental tallies and
    /// its residual-capacity index entry, after any bin mutation or
    /// up/down transition. The *only* write path into the index and the
    /// cluster-wide counters — every placement transition (deploy,
    /// undeploy, resize, landing, crash, repair) funnels through here.
    fn refresh_node(&mut self, i: usize) {
        let rt = &self.nodes[i];
        let used = rt.bin.is_used();
        let mhz = rt.bin.used_freq_mhz();
        let violating = mhz > rt.bin.spec.freq_capacity_mhz();
        let down = rt.state.is_down();
        let units = self.mode.remaining(&rt.bin);
        let mem = (rt.bin.spec.mem_gb as u64).saturating_sub(rt.bin.used_mem_gb());

        self.used_node_count -= rt.tallied_used as usize;
        self.used_node_count += used as usize;
        self.violating_node_count -= rt.tallied_violating as usize;
        self.violating_node_count += violating as usize;
        self.committed_mhz -= rt.tallied_mhz;
        self.committed_mhz += mhz;
        let rt = &mut self.nodes[i];
        rt.tallied_used = used;
        rt.tallied_violating = violating;
        rt.tallied_mhz = mhz;

        if down {
            self.index.deactivate(i);
        } else {
            self.index.set(i, units, mem);
        }
    }

    #[cfg(not(debug_assertions))]
    fn check_bookkeeping(&self) {}

    /// Re-derive every incremental ledger from the VM records and the
    /// bins, and assert it equals the kept one: each record sits in
    /// exactly one place (its node's residents, the offline set, or
    /// nowhere once gone), each bin is the sum of its residents' requests,
    /// a down node hosts nothing, only an up node holds a controller, and
    /// `occupied` and the three tallies match a full fold. Runs at the end
    /// of every period body and after every public VM mutation, in debug
    /// builds only.
    #[cfg(debug_assertions)]
    fn check_bookkeeping(&self) {
        let mut on = vec![Vec::new(); self.nodes.len()];
        let mut offline = Vec::new();
        for (vm, r) in self.vms.iter().enumerate() {
            let t = &r.template;
            match r.location {
                Location::OnNode { node, local } => on[node].push((vm, local, t.vfreq, t.vcpus)),
                Location::InFlight { .. } | Location::Stranded => offline.push(vm),
                Location::Gone => {}
            }
            let is_offline = offline.last() == Some(&vm);
            assert_eq!(r.parked.is_some(), is_offline, "VM {vm} parked");
        }
        assert_eq!(offline, self.offline_vms, "offline set");
        let (mut occupied, mut tallies) = (Vec::new(), (0, 0, 0));
        for (i, (rt, kept)) in self.nodes.iter().zip(&on).enumerate() {
            assert_eq!(&rt.residents, kept, "node {i} residents");
            let bin = &rt.bin;
            let mut sum = (0, 0, 0);
            for &(vm, _, vfreq, vcpus) in kept {
                sum.0 += vcpus as u64;
                sum.1 += vcpus as u64 * vfreq.as_u32() as u64;
                sum.2 += self.vms[vm].template.mem_gb as u64;
            }
            let held = (bin.used_vcpus(), bin.used_freq_mhz(), bin.used_mem_gb());
            assert_eq!(held, sum, "node {i}: bin ≠ Σ residents' requests");
            assert_eq!(bin.placed.len(), kept.len(), "node {i} bin");
            let (up, down) = (matches!(rt.state, NodeState::Up { .. }), rt.state.is_down());
            assert!(!down || !bin.is_used(), "down node {i} hosts VMs");
            assert!(up || rt.controller.is_none(), "node {i} is not up");
            if !kept.is_empty() {
                occupied.push(i);
            }
            tallies.0 += bin.is_used() as usize;
            tallies.1 += (bin.used_freq_mhz() > bin.spec.freq_capacity_mhz()) as usize;
            tallies.2 += bin.used_freq_mhz();
        }
        assert_eq!(occupied, self.occupied, "occupied ≠ nodes with residents");
        assert_eq!(tallies.0, self.used_node_count, "used nodes");
        assert_eq!(tallies.1, self.violating_node_count, "Eq. 7 violations");
        assert_eq!(tallies.2, self.committed_mhz, "committed MHz");
    }

    /// A cold controller for `node` — the one place node controllers
    /// are built. `None` under the migration strategy.
    fn fresh_controller(&self, node: usize) -> Option<Controller> {
        let cfg = self.controller_config.clone()?;
        Some(Controller::new(cfg, self.nodes[node].host.topology_info()))
    }

    /// Change the controller configuration and rebuild every live
    /// controller fresh from it. No-op under the migration strategy.
    fn reconfigure_controllers(&mut self, change: impl FnOnce(&mut ControllerConfig)) {
        let Some(cfg) = &mut self.controller_config else {
            return;
        };
        change(cfg);
        for i in 0..self.nodes.len() {
            if self.nodes[i].controller.is_some() {
                self.nodes[i].controller = self.fresh_controller(i);
            }
        }
    }

    /// Enable the deadline-aware degradation ladder on every
    /// controller-bearing node: each period gets a time budget of
    /// `budget_frac` of the period and overruns descend the
    /// full → reuse-previous → monitor-only → uncap-all ladder;
    /// `recovery_periods` consecutive in-budget periods climb one rung
    /// back. Call right after construction: existing controllers are
    /// rebuilt fresh. No-op under the migration strategy.
    pub fn enable_deadline_ladder(&mut self, budget_frac: f64, recovery_periods: u32) {
        self.reconfigure_controllers(|cfg| {
            cfg.deadline_budget_frac = budget_frac;
            cfg.ladder_recovery_periods = recovery_periods;
        });
    }

    /// Inject a synthetic per-period stage delay (µs) into one node's
    /// controller — the overload-evaluation fault hook; see
    /// [`Controller::inject_stage_delay_us`]. Returns `false` when the
    /// node has no live controller to inject into.
    pub fn inject_stage_delay_us(&mut self, node: usize, us: u64) -> bool {
        match self.nodes.get_mut(node).and_then(|n| n.controller.as_mut()) {
            Some(ctl) => {
                ctl.inject_stage_delay_us(us);
                true
            }
            None => false,
        }
    }

    /// One node's current degradation-ladder rung (`None` for a node
    /// without a live controller).
    pub fn ladder_rung(&self, node: usize) -> Option<vfc_controller::LadderRung> {
        let ctl = self.nodes.get(node)?.controller.as_ref()?;
        Some(ctl.ladder_rung())
    }

    /// Enable fail-safe cap leases on every controller-bearing node:
    /// each controller's caps are covered by a lease of `ttl` periods
    /// that [`ClusterManager::renew_leases`] (called by the control
    /// plane's reconciler) refreshes; a node partitioned from the
    /// control plane lets its lease expire and degrades to guarantees
    /// only, then — after `grace` further periods — uncaps. Call right
    /// after construction: existing controllers are rebuilt fresh.
    /// No-op under the migration strategy (no controllers to lease).
    pub fn enable_cap_leases(&mut self, ttl: u64, grace: u64) {
        self.reconfigure_controllers(|cfg| {
            cfg.cap_lease_ttl = ttl;
            cfg.cap_lease_grace = grace;
        });
    }

    /// Renew the cap lease of every node the control plane can reach:
    /// up, controller alive, and not inside a scripted partition window
    /// for the *upcoming* period. Returns how many leases were renewed.
    /// Harmless when leases are disabled (renewal is a no-op then).
    pub fn renew_leases(&mut self) -> usize {
        let next = self.period + 1;
        let mut renewed = 0;
        for (i, rt) in self.nodes.iter_mut().enumerate() {
            match &mut rt.controller {
                Some(ctl) if !self.faults.model.is_partitioned(i, next) => {
                    ctl.renew_lease();
                    renewed += 1;
                }
                _ => {}
            }
        }
        renewed
    }

    /// One node's current lease state (`None` for a node without a live
    /// controller).
    pub fn lease_state(&self, node: usize) -> Option<LeaseState> {
        let ctl = self.nodes.get(node)?.controller.as_ref()?;
        Some(ctl.lease_state())
    }

    /// Put VM `vm` on `node`: provision it, resume `workload`, book
    /// `request` in the bin and list the VM as resident. The one way onto
    /// a node, for admission and every landing.
    fn put_on(
        &mut self,
        vm: usize,
        node: usize,
        request: &PlacementRequest,
        workload: Box<dyn Workload>,
    ) {
        let rt = &mut self.nodes[node];
        let t = &self.vms[vm].template;
        let local = rt.host.provision(t);
        rt.host.attach_workload(local, workload);
        rt.bin.place(request);
        let at = rt
            .residents
            .binary_search_by_key(&vm, |r| r.0)
            .expect_err("VM resident twice on one node");
        rt.residents.insert(at, (vm, local, t.vfreq, t.vcpus));
        if rt.residents.len() == 1 {
            let at = self
                .occupied
                .binary_search(&node)
                .expect_err("empty node listed as occupied");
            self.occupied.insert(at, node);
        }
        self.refresh_node(node);
        self.vms[vm].location = Location::OnNode { node, local };
    }

    /// Take VM `vm` off its node and return its workload; the caller
    /// says where the VM goes. The one way off a node. A node emptied this
    /// way leaves `occupied` and forgets its migration-policy hot streak.
    fn take_off(&mut self, vm: usize, request: &PlacementRequest) -> Box<dyn Workload> {
        let Location::OnNode { node, local } = self.vms[vm].location else {
            unreachable!("only a placed VM leaves its node");
        };
        let rt = &mut self.nodes[node];
        let workload = rt.host.deprovision(local);
        rt.bin.remove(request);
        let at = rt
            .residents
            .binary_search_by_key(&vm, |r| r.0)
            .expect("resident index out of sync");
        rt.residents.remove(at);
        if rt.residents.is_empty() {
            rt.hot_streak = 0;
            let at = self
                .occupied
                .binary_search(&node)
                .expect("occupied list out of sync");
            self.occupied.remove(at);
        }
        self.refresh_node(node);
        workload
    }

    /// Take VM `vm` off its node and park it offline, `to` in flight or
    /// stranded.
    fn send_offline(&mut self, vm: usize, request: &PlacementRequest, to: Location) {
        let workload = self.take_off(vm, request);
        let record = &mut self.vms[vm];
        record.parked = Some(workload);
        record.location = to;
        if let Err(at) = self.offline_vms.binary_search(&vm) {
            self.offline_vms.insert(at, vm);
        }
    }

    /// Bring offline VM `vm` back: it leaves the offline set and hands
    /// over its parked workload. The caller lands it or drops it.
    fn take_parked(&mut self, vm: usize) -> Box<dyn Workload> {
        if let Ok(at) = self.offline_vms.binary_search(&vm) {
            self.offline_vms.remove(at);
        }
        self.vms[vm].parked.take().expect("parked workload")
    }

    /// Fault counters accumulated so far.
    pub fn fault_report(&self) -> FaultReport {
        self.faults.report
    }

    /// Cumulative controller health per node (`<family>-<index>` →
    /// totals), for nodes that currently have a controller. See
    /// [`vfc_controller::HealthTotals`] for the reset semantics.
    pub fn health_totals(&self) -> Vec<(String, vfc_controller::HealthTotals)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                n.controller
                    .as_ref()
                    .map(|c| (format!("{}-{i}", n.bin.spec.name), c.health_totals()))
            })
            .collect()
    }

    /// Per-period cluster samples recorded so far (power, active nodes,
    /// migrations in flight) — the raw data for energy-over-time plots.
    pub fn history(&self) -> &[PeriodSample] {
        &self.history
    }

    /// Admit and place a VM (Best-Fit under the strategy's constraint).
    /// Returns `None` — and counts a rejection — when no node fits.
    /// Convenience wrapper over [`ClusterManager::try_deploy`] for
    /// callers that only care about capacity.
    pub fn deploy(
        &mut self,
        template: &VmTemplate,
        workload: Box<dyn Workload>,
    ) -> Option<GlobalVmId> {
        self.try_deploy(template, workload).ok()
    }

    /// Admit and place a VM with Best-Fit, with a typed rejection.
    pub fn try_deploy(
        &mut self,
        template: &VmTemplate,
        workload: Box<dyn Workload>,
    ) -> Result<GlobalVmId, ClusterError> {
        self.try_deploy_with(template, workload, PlacementAlgorithm::BestFit)
    }

    /// Admit and place a VM under the strategy's constraint with the
    /// chosen bin-packing heuristic. The template is validated at this
    /// boundary (zero `F_v` would yield a degenerate `C_i = 0` cap
    /// downstream); a validation failure is *not* counted as a capacity
    /// rejection.
    pub fn try_deploy_with(
        &mut self,
        template: &VmTemplate,
        workload: Box<dyn Workload>,
        algorithm: PlacementAlgorithm,
    ) -> Result<GlobalVmId, ClusterError> {
        template.validate().map_err(ClusterError::InvalidTemplate)?;
        let request = PlacementRequest::from(template);
        let Some(node) = self.place_with(algorithm, &request, None) else {
            self.rejected += 1;
            return Err(ClusterError::NoCapacity);
        };
        let vm = self.vms.len();
        self.vms.push(VmRecord {
            template: template.clone(),
            location: Location::Gone, // until `put_on` places it
            parked: None,
        });
        self.put_on(vm, node, &request, workload);
        self.check_bookkeeping();
        Ok(GlobalVmId(vm as u32))
    }

    /// Number of nodes currently hosting at least one VM. O(1): the
    /// count is maintained incrementally at every placement transition.
    pub fn active_nodes(&self) -> usize {
        self.used_node_count
    }

    /// Σ committed Eq. 7 MHz across all nodes (`Σ_n Σ_{i∈I_n} k_i·F_i`),
    /// maintained incrementally — the O(1) replacement for summing
    /// [`ClusterManager::node_loads`] every period.
    pub fn committed_mhz(&self) -> u64 {
        self.committed_mhz
    }

    /// Σ `k_n·F_n^MAX` across all nodes (MHz), fixed at construction.
    pub fn capacity_mhz_total(&self) -> u64 {
        self.capacity_mhz_total
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Ground-truth frequency of a VM's vCPU 0 over the last window.
    /// `None` for an id this cluster never issued or a VM that already
    /// departed; `Some(0.0)` while migrating or stranded (deployed but
    /// not running anywhere).
    pub fn vm_freq(&self, id: GlobalVmId) -> Option<f64> {
        match &self.vms.get(id.0 as usize)?.location {
            Location::OnNode { node, local } => Some(
                self.nodes[*node]
                    .host
                    .vcpu_freq_exact(*local, VcpuId::new(0))
                    .as_f64(),
            ),
            Location::InFlight { .. } | Location::Stranded => Some(0.0),
            Location::Gone => None,
        }
    }

    /// A request's demand in the constraint's residual unit: vCPU slots
    /// under core-count, `k_v·F_v` MHz under the frequency modes —
    /// exactly the quantity [`ConstraintMode::fits`] compares against
    /// the bin's remaining capacity.
    fn demand_units(&self, request: &PlacementRequest) -> u64 {
        match self.mode {
            ConstraintMode::CoreCount { .. } => request.vcpus as u64,
            ConstraintMode::Frequency | ConstraintMode::FrequencyFactor { .. } => {
                request.freq_demand_mhz()
            }
        }
    }

    /// Placement under the strategy's constraint with the chosen
    /// heuristic, skipping crashed nodes (and optionally one more — a
    /// migration source). Answered by the residual-capacity index in
    /// O(log n); `tests/placement_index_equivalence.rs` pins it
    /// byte-identical to [`ClusterManager::place_with_linear`].
    fn place_with(
        &self,
        algorithm: PlacementAlgorithm,
        request: &PlacementRequest,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let units = self.demand_units(request);
        let mem = request.mem_gb as u64;
        match algorithm {
            PlacementAlgorithm::FirstFit => self.index.first_fit(units, mem, exclude),
            PlacementAlgorithm::BestFit => self.index.best_fit(units, mem, exclude),
            PlacementAlgorithm::WorstFit => self.index.worst_fit(units, mem, exclude),
        }
    }

    /// The pre-index O(n) bin scan, kept as the oracle for the
    /// index-equivalence proptests. Not part of the public API.
    #[doc(hidden)]
    pub fn place_with_linear(
        &self,
        algorithm: PlacementAlgorithm,
        request: &PlacementRequest,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let mode = self.strategy.constraint();
        let mut candidates = self.nodes.iter().enumerate().filter(|(i, n)| {
            Some(*i) != exclude && !n.state.is_down() && mode.fits(&n.bin, request)
        });
        match algorithm {
            PlacementAlgorithm::FirstFit => candidates.next().map(|(i, _)| i),
            PlacementAlgorithm::BestFit => candidates
                .min_by_key(|(i, n)| (mode.remaining(&n.bin), *i))
                .map(|(i, _)| i),
            PlacementAlgorithm::WorstFit => candidates
                .max_by_key(|(i, n)| (mode.remaining(&n.bin), usize::MAX - *i))
                .map(|(i, _)| i),
        }
    }

    /// The indexed placement answer, exposed for the equivalence
    /// proptests. Not part of the public API.
    #[doc(hidden)]
    pub fn place_with_indexed(
        &self,
        algorithm: PlacementAlgorithm,
        request: &PlacementRequest,
        exclude: Option<usize>,
    ) -> Option<usize> {
        self.place_with(algorithm, request, exclude)
    }

    /// Best-Fit placement (the internal default for migrations and
    /// evacuations).
    fn place_excluding(&self, request: &PlacementRequest, exclude: Option<usize>) -> Option<usize> {
        self.place_with(PlacementAlgorithm::BestFit, request, exclude)
    }

    /// Customer-initiated termination: the VM leaves the cluster and its
    /// capacity returns to the pool (the §IV.C note that freed nodes "can
    /// be reused for additional workload"). A VM caught mid-migration is
    /// simply dropped. An unknown or already-removed id is a typed
    /// error, never a silent no-op — the reconciler races against
    /// fault-injected crashes and must see the difference.
    pub fn undeploy(&mut self, id: GlobalVmId) -> Result<(), ClusterError> {
        let vm = id.0 as usize;
        let record = self.vms.get(vm).ok_or(ClusterError::UnknownVm(id))?;
        match record.location {
            Location::OnNode { .. } => {
                let request = PlacementRequest::from(&self.vms[vm].template);
                self.take_off(vm, &request);
            }
            Location::InFlight { .. } | Location::Stranded => drop(self.take_parked(vm)),
            Location::Gone => return Err(ClusterError::AlreadyRemoved(id)),
        }
        self.vms[vm].location = Location::Gone;
        self.check_bookkeeping();
        Ok(())
    }

    /// Change a deployed VM's guaranteed virtual frequency **live**.
    ///
    /// In place when the new `F_v` still satisfies Eq. 7 on the current
    /// node: the placement bin, the host template (stage 1 re-reads
    /// `F_v` from it next period) and the node's controller
    /// ([`Controller::set_vfreq`]: wallet clamp + estimator-history
    /// reset) are updated atomically, with zero downtime. When it does
    /// not fit, falls back to a live migration to any node that fits the
    /// *new* size (Best-Fit); only when no node fits is the resize
    /// rejected with [`ClusterError::NoCapacity`], leaving the VM
    /// untouched at its old frequency.
    pub fn resize_vfreq(
        &mut self,
        id: GlobalVmId,
        new_vfreq: MHz,
    ) -> Result<ResizeOutcome, ClusterError> {
        let record = self
            .vms
            .get(id.0 as usize)
            .ok_or(ClusterError::UnknownVm(id))?;
        let mut new_template = record.template.clone();
        new_template.vfreq = new_vfreq;
        new_template
            .validate()
            .map_err(ClusterError::InvalidTemplate)?;
        let (node, local) = match record.location {
            Location::Gone => return Err(ClusterError::AlreadyRemoved(id)),
            Location::InFlight { .. } | Location::Stranded => {
                return Err(ClusterError::NotPlaced(id))
            }
            Location::OnNode { node, local } => (node, local),
        };
        let old_request = PlacementRequest::from(&record.template);
        let new_request = PlacementRequest::from(&new_template);

        // Would the current node still satisfy Eq. 7 at the new size?
        let fits_in_place = {
            let bin = &mut self.nodes[node].bin;
            bin.remove(&old_request);
            let ok = self.mode.fits(bin, &new_request);
            bin.place(if ok { &new_request } else { &old_request });
            ok
        };
        if fits_in_place {
            self.refresh_node(node);
            let rt = &mut self.nodes[node];
            rt.host.set_vfreq(local, new_vfreq);
            if let Some(ctl) = &mut rt.controller {
                ctl.set_vfreq(local, new_vfreq);
            }
            let at = rt
                .residents
                .binary_search_by_key(&(id.0 as usize), |r| r.0)
                .expect("resident index out of sync");
            rt.residents[at].2 = new_vfreq;
            self.vms[id.0 as usize].template = new_template;
            self.check_bookkeeping();
            return Ok(ResizeOutcome::InPlace);
        }

        // Migration fallback: any *other* node that fits the new size.
        let Some(dest) = self.place_excluding(&new_request, Some(node)) else {
            return Err(ClusterError::NoCapacity);
        };
        let to = Location::offline(Some(dest), self.period + 1, None);
        self.send_offline(id.0 as usize, &old_request, to);
        self.vms[id.0 as usize].template = new_template;
        self.migrations += 1;
        self.check_bookkeeping();
        Ok(ResizeOutcome::Migrating)
    }

    /// Is the VM still present (placed or migrating)? `false` for ids
    /// this cluster never issued.
    pub fn is_deployed(&self, id: GlobalVmId) -> bool {
        self.vms
            .get(id.0 as usize)
            .is_some_and(|r| !matches!(r.location, Location::Gone))
    }

    /// The deployed VM's current template (`None` once departed or for
    /// an unknown id) — the desired-state reconciler's observed `F_v`.
    pub fn vm_template(&self, id: GlobalVmId) -> Option<&VmTemplate> {
        let record = self.vms.get(id.0 as usize)?;
        match record.location {
            Location::Gone => None,
            _ => Some(&record.template),
        }
    }

    /// Every node's Eq. 7 ledger (used vs capacity), in cluster order —
    /// the audit surface for "no admitted set ever violates Eq. 7".
    pub fn node_loads(&self) -> Vec<NodeLoad> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeLoad {
                name: format!("{}-{i}", n.bin.spec.name),
                up: !n.state.is_down(),
                used_mhz: n.bin.used_freq_mhz(),
                capacity_mhz: n.bin.spec.freq_capacity_mhz(),
                used_vcpus: n.bin.used_vcpus(),
                threads: n.bin.spec.nr_threads(),
                used_mem_gb: n.bin.used_mem_gb(),
                mem_gb: n.bin.spec.mem_gb as u64,
            })
            .collect()
    }

    /// Number of nodes currently violating Eq. 7 (`Σ k_i·F_i` above
    /// `k_n·F_n^MAX`). Always 0 under the frequency strategies — the
    /// churn proptest pins this. O(1): maintained as deltas on
    /// residency changes instead of re-walking the fleet.
    pub fn eq7_violations(&self) -> usize {
        self.violating_node_count
    }

    /// Advance the cluster by one controller period (1 s) and close it:
    /// the synchronous step. Like every period, it advances only the
    /// nodes that host a VM — an empty node is powered off, with no vCPU
    /// for its controller to cap. The event-driven core
    /// ([`crate::events::EventDrivenCluster`]) enters the same body, and
    /// jumps over the periods in which nothing is deployed; the faults
    /// of every period run as the counter moves, under either driver.
    pub fn run_period(&mut self) {
        self.run_busy_period(self.period + 1, true);
    }

    /// Run period `p` over the nodes that host a VM, closing it when
    /// `close`. Returns how many nodes advanced.
    pub(crate) fn run_busy_period(&mut self, p: u64, close: bool) -> usize {
        self.begin_period_at(p);
        self.period_body(close)
    }

    /// The one period body, run after [`ClusterManager::begin_period_at`]
    /// moved the counter to the period and ran its faults, so nothing
    /// lands on a node that just died:
    ///
    /// 1. land migrations whose downtime elapsed, retry stranded VMs;
    /// 2. advance, in ascending order, the nodes that host a VM after
    ///    step 1;
    /// 3. close the period over the advanced nodes, when `close`.
    ///
    /// Returns how many nodes advanced. The node list is a reused
    /// scratch buffer, so the steady-state loop stays off the allocator.
    fn period_body(&mut self, close: bool) -> usize {
        self.land_migrations();
        let mut active = std::mem::take(&mut self.active_scratch);
        active.clear();
        active.extend_from_slice(&self.occupied);
        for &i in &active {
            Self::advance_node(&mut self.nodes[i], self.period);
        }
        if close {
            self.close_period_for(&active);
        }
        let advanced = active.len();
        self.active_scratch = active;
        self.check_bookkeeping();
        advanced
    }

    /// The faults of the period the counter just entered: due repairs and
    /// controller restarts, then the node and controller crashes
    /// [`Faults::hits`] draws, each kind in ascending node order, then the
    /// count of partitioned node-periods (a partition only acts by making
    /// [`ClusterManager::renew_leases`] skip the node).
    fn fault_phase(&mut self) {
        let p = self.period;
        for i in 0..self.nodes.len() {
            match &mut self.nodes[i].state {
                NodeState::Down { repairs_at } if *repairs_at == p => {
                    // It rejoins empty (evacuated at crash time) under a
                    // cold controller, and re-enters the placement index.
                    self.nodes[i].controller = self.fresh_controller(i);
                    self.nodes[i].state = NodeState::Up { recovery_until: 0 };
                    self.refresh_node(i);
                }
                NodeState::ControllerDown {
                    returns_at,
                    snapshot,
                } if *returns_at == p => {
                    let snapshot = snapshot.take();
                    let mut ctl = self.fresh_controller(i).expect("controller strategy");
                    let rt = &mut self.nodes[i];
                    match snapshot {
                        Some(snap) => {
                            ctl.restore_state(&snap, &HostBackend::vms(&rt.host));
                            self.faults.report.warm_restarts += 1;
                        }
                        None => self.faults.report.cold_restarts += 1,
                    }
                    rt.controller = Some(ctl);
                    let recovery_until = p + self.faults.model.recovery_tail_periods;
                    rt.state = NodeState::Up { recovery_until };
                }
                _ => {}
            }
        }
        for node in 0..self.nodes.len() {
            if !self.nodes[node].state.is_down() && self.faults.hits(Crash::Node, p, node) {
                self.crash_node(node);
            }
        }
        for node in 0..self.nodes.len() {
            let rt = &mut self.nodes[node];
            if rt.controller.is_none() || !self.faults.hits(Crash::Controller, p, node) {
                continue;
            }
            let ctl = rt.controller.take().expect("a live controller");
            self.faults.report.controller_crashes += 1;
            // Keep the journal the daemon would have on disk, then fail
            // open exactly like the circuit breaker: uncap all.
            let warm = self.faults.model.restart == RestartPolicy::Warm;
            rt.state = NodeState::ControllerDown {
                returns_at: p + self.faults.model.controller_restart_periods.max(1),
                snapshot: warm.then(|| ctl.export_state()),
            };
            vfc_controller::daemon::uncap_all(&mut rt.host);
        }
        for (i, rt) in self.nodes.iter().enumerate() {
            let cut_off = !rt.state.is_down() && self.faults.model.is_partitioned(i, p);
            self.faults.report.partitioned_node_periods += cut_off as u64;
        }
    }

    /// Kill a node: its controller state dies with it, it stays down for
    /// `repair_periods`, and every VM on it is evacuated through Eq. 7
    /// placement, in record order, or stranded.
    fn crash_node(&mut self, node: usize) {
        self.faults.report.node_crashes += 1;
        self.nodes[node].controller = None;
        let repairs_at = self.period + self.faults.model.repair_periods.max(1);
        self.nodes[node].state = NodeState::Down { repairs_at };
        self.refresh_node(node);
        let arrive = self.period + self.faults.model.evacuation_downtime_periods.max(1);
        while let Some(&(vm, ..)) = self.nodes[node].residents.first() {
            let request = PlacementRequest::from(&self.vms[vm].template);
            let dest = self.place_excluding(&request, Some(node));
            self.send_offline(vm, &request, Location::offline(dest, arrive, None));
            self.faults.report.evacuated_vms += 1;
        }
    }

    /// Move the period counter to `p`, the one place it moves. Without a
    /// fault model it is set; with one, it steps through each period up
    /// to `p` and runs its fault phase, which is all a period with no VM
    /// present does, so the event core's jumps stay exact. Monotone.
    pub(crate) fn begin_period_at(&mut self, p: u64) {
        debug_assert!(p >= self.period, "period must be monotone");
        if !self.faults.model.enabled() {
            self.period = p;
            return;
        }
        while self.period < p {
            self.period += 1;
            self.fault_phase();
        }
    }

    /// Current period counter (the last period started).
    pub(crate) fn period(&self) -> u64 {
        self.period
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One node's period: advance the host, run the
    /// controller, then compute each resident's SLO sample while the
    /// node state is hot. A node whose controller died advances uncapped
    /// (fail-open).
    fn advance_node(node: &mut NodeRuntime, period: u64) {
        debug_assert!(
            !node.state.is_down(),
            "only occupied nodes advance, and a down node hosts nothing: \
             a crash evacuates it and placement and landing skip it"
        );
        node.host.advance_period();
        // A dead controller is gone and writes no cpu.max: fail-open.
        if let Some(ctl) = &mut node.controller {
            ctl.iterate_into(&mut node.host, &mut node.report)
                .expect("sim backend");
            node.report_period = period;
        }
        let f_max = node.host.spec().max_mhz;
        node.slo_scratch.clear();
        for k in 0..node.residents.len() {
            let (vm, local, vfreq, nr_vcpus) = node.residents[k];
            let c_i = vfc_controller::guaranteed_cycles(vfreq, f_max, Micros::SEC);
            if c_i.is_zero() {
                continue;
            }
            // Worst vCPU decides the period's outcome.
            let mut worst_demand = f64::INFINITY;
            let mut worst_delivery = f64::INFINITY;
            // Demand-aware variant for recovery windows: what share
            // of the *demanded* time was actually served.
            let mut rec_demand = f64::NEG_INFINITY;
            let mut rec_served = f64::INFINITY;
            let mut delivered_mhz = 0u64;
            for j in 0..nr_vcpus {
                let demanded = node.host.vcpu_demand_last_window(local, VcpuId::new(j));
                let freq = node.host.vcpu_freq_exact(local, VcpuId::new(j));
                delivered_mhz += freq.as_u32() as u64;
                let demand_ratio = demanded.as_u64() as f64 / c_i.as_u64() as f64;
                let delivery_ratio = freq.as_f64() / vfreq.as_f64().max(1.0);
                // Track the vCPU that demanded most but got least.
                if delivery_ratio < worst_delivery {
                    worst_delivery = delivery_ratio;
                    worst_demand = demand_ratio;
                }
                if !demanded.is_zero() {
                    let served_us =
                        freq.as_f64() / f_max.as_f64().max(1.0) * Micros::SEC.as_u64() as f64;
                    let served_ratio = served_us / demanded.as_u64() as f64;
                    if served_ratio < rec_served {
                        rec_served = served_ratio;
                        rec_demand = demand_ratio;
                    }
                }
            }
            node.slo_scratch.push(SloSample {
                vm,
                local,
                worst_demand,
                worst_delivery,
                rec_demand,
                rec_served,
                delivered_mhz,
            });
        }
    }

    /// Step 3 of the period body: end-of-period accounting. Merges the
    /// SLO samples the `active` nodes computed in their advance,
    /// accounts offline (in-flight/stranded) VMs, integrates energy,
    /// records the period sample, and runs the migration policy.
    ///
    /// `active` must be sorted ascending: energy accumulates in node
    /// order, so the float sum does not depend on the driver. The SLO
    /// trackers are integer counters per class, so merge order cannot
    /// affect them.
    fn close_period_for(&mut self, active: &[usize]) {
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "active not sorted");
        self.export_usage(active);
        for &n in active {
            // Recovery windows: controller down, or the tail after its
            // restart (a down node hosts nothing).
            let (uncontrolled, in_recovery) = match self.nodes[n].state {
                NodeState::Up { recovery_until } => (false, self.period < recovery_until),
                _ => (true, true),
            };
            let samples = self.nodes[n].slo_scratch.len();
            self.faults.report.uncontrolled_vm_periods += (uncontrolled as usize * samples) as u64;
            for k in 0..samples {
                let s = self.nodes[n].slo_scratch[k];
                let class = self.vms[s.vm].template.name.as_str();
                if s.worst_demand.is_finite() {
                    self.slo.record(class, s.worst_demand, s.worst_delivery);
                }
                if in_recovery && s.rec_demand.is_finite() {
                    self.recovery.record(class, s.rec_demand, s.rec_served);
                }
            }
        }
        // A VM is only migrated off a hot node: it was demanding;
        // downtime is a violated period. Stranded VMs additionally count
        // toward recovery accounting unconditionally.
        for k in 0..self.offline_vms.len() {
            let i = self.offline_vms[k];
            let stranded = matches!(self.vms[i].location, Location::Stranded);
            let class = self.vms[i].template.name.as_str();
            self.slo.record_offline_demanding(class);
            if stranded || self.faults.model.enabled() {
                self.recovery.record_offline_demanding(class);
            }
            self.faults.report.stranded_vm_periods += stranded as u64;
        }
        let mut period_power = 0.0;
        for &n in active {
            let node = &self.nodes[n];
            // Every node here hosted a VM at the advance, so it was up
            // with a used bin, and no VM has moved since.
            debug_assert!(
                node.bin.is_used() && !node.state.is_down(),
                "node {n} is powered off"
            );
            let telemetry = node.host.telemetry();
            let window = telemetry.len().saturating_sub(10);
            let recent = &telemetry[window..];
            if !recent.is_empty() {
                let mean_w = recent.iter().map(|t| t.power_w).sum::<f64>() / recent.len() as f64;
                period_power += mean_w;
            }
        }
        self.energy_j += period_power; // × 1 s
        let in_flight = self
            .offline_vms
            .iter()
            .filter(|&&i| matches!(self.vms[i].location, Location::InFlight { .. }))
            .count();
        self.history.push(PeriodSample {
            period: self.period,
            nodes_active: self.active_nodes(),
            power_w: period_power,
            in_flight,
        });

        if let Strategy::MigrationBased {
            high_watermark,
            sustain,
            downtime_periods,
            ..
        } = self.strategy
        {
            for &src in active {
                // Every node here hosted a VM at the advance, so it was
                // up, and nothing in the close takes a node down.
                debug_assert!(
                    !self.nodes[src].state.is_down(),
                    "node {src} down mid-close"
                );
                let util = self.nodes[src].host.utilization();
                if util > high_watermark {
                    self.nodes[src].hot_streak += 1;
                } else {
                    self.nodes[src].hot_streak = 0;
                }
                if self.nodes[src].hot_streak >= sustain
                    && self.try_migrate_from(src, downtime_periods)
                {
                    self.nodes[src].hot_streak = 0;
                }
            }
        }
    }

    /// Turn on per-period usage metering: every closed period appends a
    /// [`PeriodUsage`] record for [`ClusterManager::drain_usage`] to
    /// collect. Off by default — the hot path pays nothing then.
    pub fn enable_usage_export(&mut self) {
        self.usage_export.get_or_insert_default();
    }

    /// Collect the usage records accumulated since the last drain (empty
    /// when metering is off). Call between periods; a billing layer is
    /// expected to drain every period or every few periods.
    pub fn drain_usage(&mut self) -> Vec<PeriodUsage> {
        self.usage_export
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Build this period's [`PeriodUsage`] record: per-VM delivered work
    /// and SLO flags off the nodes' hot SLO scratch, joined by local VM
    /// id with the credit flows of each node's iteration report, and
    /// offline VMs as zero-delivery violations. A node whose controller
    /// is dead did not iterate this period: it holds a stale report and
    /// contributes no flows.
    fn export_usage(&mut self, active: &[usize]) {
        let Some(pending) = &mut self.usage_export else {
            return;
        };
        let offline_usage = |i: usize, t: &VmTemplate| VmPeriodUsage {
            vm: GlobalVmId(i as u32),
            class: t.name.clone(),
            vfreq_mhz: t.vfreq.as_u32(),
            vcpus: t.vcpus,
            delivered_mhz_s: 0,
            guaranteed_mhz_s: t.vfreq.as_u32() as u64 * t.vcpus as u64,
            minted_usec: 0,
            spent_usec: 0,
            demanding: true,
            violated: true,
            offline: true,
        };
        let mut vms: Vec<VmPeriodUsage> = Vec::new();
        let mut wasted = 0u64;
        let mut unattributed = 0u64;
        for &n in active {
            let node = &self.nodes[n];
            let flows: &[CreditFlow] = if node.report_period == self.period {
                wasted += node.report.market_left.as_u64();
                &node.report.flows
            } else {
                &[]
            };
            unattributed += flows.iter().map(|f| f.minted + f.spent).sum::<u64>();
            for s in &node.slo_scratch {
                let demanding = s.worst_demand.is_finite() && s.worst_demand >= 1.0;
                let flow = flows
                    .binary_search_by_key(&s.local, |f| f.vm)
                    .map_or((0, 0), |at| (flows[at].minted, flows[at].spent));
                unattributed -= flow.0 + flow.1;
                vms.push(VmPeriodUsage {
                    delivered_mhz_s: s.delivered_mhz,
                    minted_usec: flow.0,
                    spent_usec: flow.1,
                    demanding,
                    violated: demanding && s.worst_delivery < self.slo.tolerance(),
                    offline: false,
                    ..offline_usage(s.vm, &self.vms[s.vm].template)
                });
            }
        }
        for &i in &self.offline_vms {
            vms.push(offline_usage(i, &self.vms[i].template));
        }
        pending.push(PeriodUsage {
            period: self.period,
            vms,
            wasted_market_usec: wasted,
            unattributed_usec: unattributed,
        });
    }

    /// Land migrations whose downtime elapsed (possibly failing the
    /// handshake and rolling back), and re-place stranded VMs if capacity
    /// appeared, in ascending VM-record order. Scans only the offline
    /// set — placed VMs are never touched here. The scratch buffer keeps
    /// its capacity across periods, so the steady-state loop stays off
    /// the allocator.
    fn land_migrations(&mut self) {
        let mut due = std::mem::take(&mut self.landing_scratch);
        due.clear();
        due.extend_from_slice(&self.offline_vms);
        let p = self.period;
        for &idx in &due {
            let (dest, src) = match self.vms[idx].location {
                Location::Stranded => (None, None),
                Location::InFlight { dest, arrive, src } if arrive <= p => (Some(dest), src),
                _ => continue,
            };
            let request = PlacementRequest::from(&self.vms[idx].template);
            let fits = |n: usize| {
                let rt = &self.nodes[n];
                !rt.state.is_down() && self.mode.fits(&rt.bin, &request)
            };
            // `Ok(node)` to land there now, `Err(next hop)` otherwise
            // (`Err(None)`: stranded).
            let landing = match dest {
                None => self.place_excluding(&request, None).ok_or(None),
                // The destination died (or filled up) while the VM was
                // in flight: place it somewhere else.
                Some(dest) if !fits(dest) => Err(self.place_excluding(&request, None)),
                // The landing handshake failed: roll back to the source
                // (one extra offline period), or re-place if the source
                // meanwhile died or filled up.
                Some(dest) if src.is_some() && self.faults.migration_fails() => Err(src
                    .filter(|&s| fits(s))
                    .or_else(|| self.place_excluding(&request, Some(dest)))),
                Some(dest) => Ok(dest),
            };
            match landing {
                Ok(node) => {
                    let workload = self.take_parked(idx);
                    self.put_on(idx, node, &request, workload);
                }
                Err(hop) => self.vms[idx].location = Location::offline(hop, p + 1, None),
            }
        }
        self.landing_scratch = due;
    }

    /// Migrate the largest VM off `src` to the emptiest node that fits.
    fn try_migrate_from(&mut self, src: usize, downtime: u32) -> bool {
        // Largest frequency-demand VM currently on src, off the resident
        // index (sorted ascending, so ties break exactly like the old
        // full-fleet scan: last maximal VM-record index wins).
        let candidate = self.nodes[src]
            .residents
            .iter()
            .max_by_key(|r| r.3 as u64 * r.2.as_u32() as u64)
            .map(|r| r.0);
        let Some(vm_idx) = candidate else {
            return false;
        };
        let request = PlacementRequest::from(&self.vms[vm_idx].template);
        let dest = self.place_with(PlacementAlgorithm::WorstFit, &request, Some(src));
        let Some(dest) = dest else {
            return false; // nowhere to go; stay hot
        };
        let to = Location::offline(Some(dest), self.period + downtime as u64, Some(src));
        self.send_offline(vm_idx, &request, to);
        self.migrations += 1;
        true
    }

    /// Final report.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            periods: self.period,
            deployed: self.vms.len(),
            rejected: self.rejected,
            migrations: self.migrations,
            energy_wh: self.energy_j / 3_600.0,
            nodes_total: self.nodes.len(),
            nodes_active: self.active_nodes(),
            slo_by_class: self.slo.by_class(),
            slo_overall: self.slo.overall_rate(),
            faults: self.faults.model.enabled().then_some(self.faults.report),
            recovery_slo_by_class: self.recovery.by_class(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_simcore::MHz;
    use vfc_vmm::workload::SteadyDemand;

    fn small_cluster(strategy: Strategy) -> ClusterManager {
        ClusterManager::new(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 3],
            strategy,
            1,
        )
    }

    #[test]
    fn deploy_packs_best_fit_and_rejects_overflow() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        // Node capacity 9600 MHz; a 4-vCPU 1800 MHz VM takes 7200.
        for _ in 0..3 {
            assert!(c
                .deploy(
                    &VmTemplate::new("big", 4, MHz(1800)),
                    Box::new(SteadyDemand::full()),
                )
                .is_some());
        }
        // Fourth big VM still fits (3 nodes × 9600 vs 4×7200=28 800 —
        // no: each node holds one 7200 VM, 2400 left each; a fourth
        // needs 7200 contiguous → rejected).
        assert!(c
            .deploy(
                &VmTemplate::new("big", 4, MHz(1800)),
                Box::new(SteadyDemand::full()),
            )
            .is_none());
        let r = c.report();
        assert_eq!(r.deployed, 3);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.nodes_active, 3);
    }

    #[test]
    fn partitioned_lease_degrades_then_readopts_on_heal() {
        let mut faults = FaultModel::none();
        // Node 0 loses the control plane for periods 3..12.
        faults.scripted_partitions.push((3, 12, 0));
        let mut c = ClusterManager::with_faults(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 2],
            Strategy::FrequencyControl,
            1,
            faults,
        );
        // TTL 2, grace 3: renewals must come at least every 2 periods.
        c.enable_cap_leases(2, 3);
        c.deploy(
            &VmTemplate::new("std", 2, MHz(1200)),
            Box::new(SteadyDemand::full()),
        )
        .expect("fits");

        let mut states = Vec::new();
        for _ in 0..16 {
            c.renew_leases(); // what the reconciler does each pass
            c.run_period();
            states.push(c.lease_state(0).unwrap());
        }
        // Healthy at first, guarantee-only once renewals stop reaching
        // the node, uncapped after the grace runs out, and re-adopted
        // (leased again) once the partition heals.
        assert_eq!(states[0], LeaseState::Leased, "{states:?}");
        assert!(
            states.contains(&LeaseState::GuaranteeOnly),
            "never degraded: {states:?}"
        );
        assert!(
            states.contains(&LeaseState::Uncapped),
            "grace never ran out: {states:?}"
        );
        assert_eq!(
            *states.last().unwrap(),
            LeaseState::Leased,
            "not re-adopted after heal: {states:?}"
        );
        // The untouched node never degraded.
        assert_eq!(c.lease_state(1).unwrap(), LeaseState::Leased);
        // Partition node-periods were accounted.
        assert_eq!(c.fault_report().partitioned_node_periods, 9);
    }

    #[test]
    fn health_totals_name_every_controller_node() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        c.deploy(
            &VmTemplate::new("std", 2, MHz(1200)),
            Box::new(SteadyDemand::full()),
        )
        .expect("fits");
        for _ in 0..5 {
            c.run_period();
        }
        // Every controller node is named, but only the one Best-Fit
        // filled advanced: an idle host runs no controller iteration.
        let totals = c.health_totals();
        let names: Vec<&str> = totals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["n-0", "n-1", "n-2"]);
        let iterations: Vec<u64> = totals.iter().map(|(_, t)| t.iterations).collect();
        assert_eq!(iterations, [5, 0, 0]);

        // The migration strategy has no controllers: no totals.
        let mut m = small_cluster(Strategy::migration_default());
        m.run_period();
        assert!(m.health_totals().is_empty());
    }

    #[test]
    fn frequency_control_meets_slo_without_migrations() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        let mut ids = Vec::new();
        // Fill one node exactly: 2×(2 vCPU @ 1200) + 2×(2 vCPU @ 1200) =
        // 9600 MHz across nodes via BestFit.
        for _ in 0..4 {
            ids.push(
                c.deploy(
                    &VmTemplate::new("std", 2, MHz(1200)),
                    Box::new(SteadyDemand::full()),
                )
                .expect("fits"),
            );
        }
        for _ in 0..20 {
            c.run_period();
        }
        let r = c.report();
        assert_eq!(r.migrations, 0);
        assert!(
            r.slo_overall < 0.30,
            "freq control should mostly meet SLOs (ramp-up aside): {}",
            r.slo_overall
        );
        // Steady state actually meets them.
        for id in ids {
            let f = c.vm_freq(id).unwrap();
            assert!(f >= 1100.0, "vm {id}: {f}");
        }
    }

    #[test]
    fn migration_strategy_migrates_hot_nodes() {
        // Overcommit one node heavily, leave the others empty.
        let mut c = small_cluster(Strategy::MigrationBased {
            factor: 2.0,
            high_watermark: 0.9,
            sustain: 2,
            downtime_periods: 2,
        });
        // 2.0 factor: 8 vCPUs per 4-thread node; BestFit piles the first
        // four 2-vCPU VMs onto one node.
        let mut ids = Vec::new();
        for _ in 0..4 {
            ids.push(
                c.deploy(
                    &VmTemplate::new("std", 2, MHz(1200)),
                    Box::new(SteadyDemand::full()),
                )
                .expect("fits with factor 2"),
            );
        }
        assert_eq!(c.active_nodes(), 1, "BestFit piles them up");
        for _ in 0..15 {
            c.run_period();
        }
        let r = c.report();
        assert!(r.migrations >= 1, "hot node should shed VMs");
        assert!(c.active_nodes() >= 2);
        // Migration downtime shows up as SLO violations.
        assert!(r.slo_overall > 0.0);
    }

    #[test]
    fn migrated_vm_resumes_on_the_destination() {
        let mut c = small_cluster(Strategy::MigrationBased {
            factor: 2.0,
            high_watermark: 0.9,
            sustain: 1,
            downtime_periods: 1,
        });
        // Three identical VMs: BestFit piles them onto one node (6 vCPUs
        // ≤ the 8 the ×2 factor allows); migrations then spread them to
        // the stable 1/1/1 equilibrium (util 0.5 per node, below the
        // watermark). Four VMs would thrash forever — see
        // `migration_strategy_migrates_hot_nodes` for the hot case.
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(
                c.deploy(
                    &VmTemplate::new("std", 2, MHz(1200)),
                    Box::new(SteadyDemand::full()),
                )
                .unwrap(),
            );
        }
        assert_eq!(c.active_nodes(), 1);
        for _ in 0..15 {
            c.run_period();
        }
        assert!(c.migrations() >= 2, "got {}", c.migrations());
        assert_eq!(c.active_nodes(), 3, "equilibrium is one VM per node");
        for id in ids {
            let f = c.vm_freq(id).unwrap();
            assert!(f > 2300.0, "{id} should now own its node: {f}");
        }
    }

    #[test]
    fn undeploy_frees_capacity_for_new_arrivals() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        // Fill the cluster with larges (one per node, 7200 of 9600 MHz).
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(
                c.deploy(
                    &VmTemplate::new("big", 4, MHz(1800)),
                    Box::new(SteadyDemand::full()),
                )
                .expect("fits"),
            );
        }
        // A fourth big VM is rejected…
        assert!(c
            .deploy(
                &VmTemplate::new("big", 4, MHz(1800)),
                Box::new(SteadyDemand::full())
            )
            .is_none());
        // …until one departs.
        c.undeploy(ids[0]).unwrap();
        assert!(!c.is_deployed(ids[0]));
        assert!(c.is_deployed(ids[1]));
        let replacement = c
            .deploy(
                &VmTemplate::new("big", 4, MHz(1800)),
                Box::new(SteadyDemand::full()),
            )
            .expect("freed capacity is reusable");
        c.run_period();
        assert!(c.vm_freq(replacement).unwrap() > 0.0);
        // A second removal is a typed error, not a silent no-op.
        assert_eq!(
            c.undeploy(ids[0]),
            Err(ClusterError::AlreadyRemoved(ids[0]))
        );
    }

    #[test]
    fn id_lookup_misses_are_typed_errors() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        let ghost = GlobalVmId(99);
        assert_eq!(c.undeploy(ghost), Err(ClusterError::UnknownVm(ghost)));
        assert_eq!(
            c.resize_vfreq(ghost, MHz(700)),
            Err(ClusterError::UnknownVm(ghost))
        );
        assert_eq!(c.vm_freq(ghost), None);
        assert!(!c.is_deployed(ghost));
        assert!(c.vm_template(ghost).is_none());

        let id = c
            .deploy(
                &VmTemplate::new("std", 2, MHz(1200)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        c.undeploy(id).unwrap();
        assert_eq!(c.vm_freq(id), None);
        assert_eq!(
            c.resize_vfreq(id, MHz(700)),
            Err(ClusterError::AlreadyRemoved(id))
        );
        assert!(ClusterError::NoCapacity.is_transient());
        assert!(!ClusterError::UnknownVm(ghost).is_transient());
    }

    #[test]
    fn deploy_rejects_degenerate_templates() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        let err = c
            .try_deploy(
                &VmTemplate::new("zero", 2, MHz(0)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidTemplate(_)));
        // Not counted as a capacity rejection.
        assert_eq!(c.report().rejected, 0);
        // A zero-F_v resize is equally refused.
        let id = c
            .deploy(
                &VmTemplate::new("std", 2, MHz(1200)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        assert!(matches!(
            c.resize_vfreq(id, MHz(0)),
            Err(ClusterError::InvalidTemplate(_))
        ));
    }

    #[test]
    fn first_fit_deploy_fills_in_cluster_order() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        // FirstFit always picks the lowest-index feasible node, so
        // five 2-vCPU @1200 VMs (2400 MHz each) fill node 0 to its
        // 9600 MHz budget before the fifth spills onto node 1.
        for _ in 0..5 {
            c.try_deploy_with(
                &VmTemplate::new("std", 2, MHz(1200)),
                Box::new(SteadyDemand::full()),
                PlacementAlgorithm::FirstFit,
            )
            .unwrap();
        }
        let loads = c.node_loads();
        assert_eq!(loads[0].used_mhz, 9600, "{loads:?}");
        assert_eq!(loads[1].used_mhz, 2400);
        assert_eq!(loads[2].used_mhz, 0);
    }

    #[test]
    fn resize_in_place_changes_enforced_cap_without_migration() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        // Fill one node's Eq. 7 budget exactly (1200 + 8400 = 9600 MHz)
        // so the guarantees genuinely bind: both VMs saturate, the
        // market is empty, and `std` is pinned at its 600 MHz.
        let id = c
            .deploy(
                &VmTemplate::new("std", 2, MHz(600)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        let hog = c
            .deploy(
                &VmTemplate::new("hog", 4, MHz(2100)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        assert_eq!(c.active_nodes(), 1, "BestFit co-locates them");
        for _ in 0..15 {
            c.run_period();
        }
        let before = c.vm_freq(id).unwrap();
        assert!(
            before < 800.0,
            "capped near its 600 MHz guarantee: {before}"
        );

        // The customer downgrades the hog, then upgrades `std` into the
        // freed budget: 4×1500 + 2×1800 = 9600 — both resizes are
        // in-place, zero downtime, no migration.
        assert_eq!(c.resize_vfreq(hog, MHz(1500)), Ok(ResizeOutcome::InPlace));
        assert_eq!(c.resize_vfreq(id, MHz(1800)), Ok(ResizeOutcome::InPlace));
        assert_eq!(c.vm_template(id).unwrap().vfreq, MHz(1800));
        for _ in 0..6 {
            c.run_period();
            assert_eq!(c.eq7_violations(), 0);
        }
        let after = c.vm_freq(id).unwrap();
        assert!(
            after >= 1600.0,
            "resized VM should be delivered ≈1800 MHz, got {after}"
        );
        assert_eq!(c.migrations(), 0);
        assert!(c.vm_freq(hog).unwrap() > 0.0);
    }

    #[test]
    fn resize_falls_back_to_migration_when_eq7_breaks() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        // Fill node 0 exactly: 2×2200 + 4×1300 = 9600 of 9600.
        let a = c
            .deploy(
                &VmTemplate::new("a", 2, MHz(2200)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        let _b = c
            .deploy(
                &VmTemplate::new("b", 4, MHz(1300)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        assert_eq!(c.active_nodes(), 1);
        // Growing `a` to 2400 needs 4800 MHz; even with its own 4400
        // returned, node 0 only has 4400 free → must migrate to an
        // empty node.
        assert_eq!(c.resize_vfreq(a, MHz(2400)), Ok(ResizeOutcome::Migrating));
        assert_eq!(c.vm_freq(a), Some(0.0), "in flight during the resize");
        for _ in 0..3 {
            c.run_period();
            assert_eq!(c.eq7_violations(), 0);
        }
        assert!(c.is_deployed(a));
        assert_eq!(c.vm_template(a).unwrap().vfreq, MHz(2400));
        assert!(c.vm_freq(a).unwrap() > 2300.0, "{:?}", c.vm_freq(a));
        assert_eq!(c.migrations(), 1);
    }

    #[test]
    fn impossible_resize_is_rejected_and_leaves_the_vm_untouched() {
        let mut c = ClusterManager::new(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 2],
            Strategy::FrequencyControl,
            1,
        );
        // Both nodes nearly full: 4×2200 + 1×500 = 9300 of 9600 each.
        let ids: Vec<_> = (0..2)
            .map(|_| {
                c.deploy(
                    &VmTemplate::new("big", 4, MHz(2200)),
                    Box::new(SteadyDemand::full()),
                )
                .unwrap()
            })
            .collect();
        for _ in 0..2 {
            c.deploy(
                &VmTemplate::new("pin", 1, MHz(500)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        }
        // 4 vCPUs × 2400 = 9600 fits nowhere: in place the pin leaves
        // only 9100 even with big's own 8800 returned, and the other
        // node has 300 free. Typed rejection, VM unchanged.
        assert_eq!(
            c.resize_vfreq(ids[0], MHz(2400)),
            Err(ClusterError::NoCapacity)
        );
        assert_eq!(c.vm_template(ids[0]).unwrap().vfreq, MHz(2200));
        c.run_period();
        assert!(c.vm_freq(ids[0]).unwrap() > 0.0, "still running in place");
        assert_eq!(c.eq7_violations(), 0);
    }

    #[test]
    fn churn_with_migrations_stays_consistent() {
        // Arrivals and departures while the migration policy is active:
        // the manager must never lose track of a VM.
        let mut c = small_cluster(Strategy::MigrationBased {
            factor: 2.0,
            high_watermark: 0.9,
            sustain: 1,
            downtime_periods: 2,
        });
        let mut rng = vfc_simcore::SplitMix64::new(17);
        let mut live: Vec<GlobalVmId> = Vec::new();
        for step in 0..40 {
            if rng.chance(0.5) {
                if let Some(id) = c.deploy(
                    &VmTemplate::new("std", 2, MHz(1200)),
                    Box::new(SteadyDemand::full()),
                ) {
                    live.push(id);
                }
            }
            if step % 4 == 3 && !live.is_empty() {
                let victim = live.remove(rng.next_below(live.len() as u64) as usize);
                c.undeploy(victim).unwrap();
                assert!(!c.is_deployed(victim));
            }
            c.run_period();
        }
        // Every surviving VM eventually runs (allow in-flight stragglers
        // a couple of periods to land).
        for _ in 0..4 {
            c.run_period();
        }
        for id in live {
            assert!(c.is_deployed(id));
        }
        let r = c.report();
        assert_eq!(r.periods, 44);
    }

    #[test]
    fn history_tracks_power_and_in_flight() {
        let mut c = small_cluster(Strategy::MigrationBased {
            factor: 2.0,
            high_watermark: 0.9,
            sustain: 1,
            downtime_periods: 2,
        });
        for _ in 0..4 {
            c.deploy(
                &VmTemplate::new("std", 2, MHz(1200)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        }
        for _ in 0..10 {
            c.run_period();
        }
        let h = c.history();
        assert_eq!(h.len(), 10);
        assert!(h.iter().all(|s| s.power_w > 0.0));
        // Periods are sequential and some migration was in flight at some
        // point (the thrashing scenario).
        assert!(h.windows(2).all(|w| w[1].period == w[0].period + 1));
        assert!(h.iter().any(|s| s.in_flight > 0));
        // Energy in the report equals the integrated history.
        let integrated: f64 = h.iter().map(|s| s.power_w).sum::<f64>() / 3_600.0;
        let r = c.report();
        assert!((r.energy_wh - integrated).abs() < 1e-9);
    }

    #[test]
    fn node_crash_evacuates_vms_and_node_rejoins() {
        let mut faults = FaultModel::none();
        faults.scripted_node_crashes.push((3, 0));
        faults.repair_periods = 4;
        faults.evacuation_downtime_periods = 2;
        let mut c = ClusterManager::with_faults(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 3],
            Strategy::FrequencyControl,
            1,
            faults,
        );
        // BestFit piles both VMs onto node 0 — the node we then kill.
        let mut ids = Vec::new();
        for _ in 0..2 {
            ids.push(
                c.deploy(
                    &VmTemplate::new("std", 2, MHz(1200)),
                    Box::new(SteadyDemand::full()),
                )
                .unwrap(),
            );
        }
        assert_eq!(c.active_nodes(), 1);
        for _ in 0..12 {
            c.run_period();
        }
        let f = c.fault_report();
        assert_eq!(f.node_crashes, 1);
        assert_eq!(f.evacuated_vms, 2);
        // Both VMs survived the crash and run somewhere else now.
        for id in ids {
            assert!(c.is_deployed(id));
            assert!(c.vm_freq(id).unwrap() > 0.0, "{id} should be running again");
        }
        // The repaired node accepts new work again.
        assert!(c
            .deploy(
                &VmTemplate::new("std", 2, MHz(1200)),
                Box::new(SteadyDemand::full()),
            )
            .is_some());
        let r = c.report();
        assert!(r.faults.is_some());
        // Evacuation downtime shows up in the recovery accounting.
        assert!(r
            .recovery_slo_by_class
            .iter()
            .any(|(_, s)| s.violated_periods > 0));
    }

    #[test]
    fn crashed_node_is_skipped_by_placement() {
        // Two nodes; one VM per node; kill node 0 while node 1 is full:
        // the evacuated VM has nowhere to go and waits stranded, then
        // lands once its home node is repaired.
        let mut faults = FaultModel::none();
        faults.scripted_node_crashes.push((2, 0));
        faults.repair_periods = 3;
        let mut c = ClusterManager::with_faults(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 2],
            Strategy::FrequencyControl,
            1,
            faults,
        );
        let a = c
            .deploy(
                &VmTemplate::new("big", 4, MHz(1800)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        let b = c
            .deploy(
                &VmTemplate::new("big", 4, MHz(1800)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        for _ in 0..10 {
            c.run_period();
        }
        let f = c.fault_report();
        assert_eq!(f.node_crashes, 1);
        assert!(f.stranded_vm_periods > 0, "VM had nowhere to go");
        assert!(c.is_deployed(a) && c.is_deployed(b));
        assert!(
            c.vm_freq(a).unwrap() > 0.0,
            "stranded VM landed after the repair"
        );
        assert!(c.vm_freq(b).unwrap() > 0.0, "bystander VM never stopped");
    }

    #[test]
    fn controller_crash_uncaps_then_restarts_warm() {
        let mut faults = FaultModel::none();
        faults.scripted_controller_crashes.push((5, 0));
        faults.controller_restart_periods = 3;
        faults.restart = RestartPolicy::Warm;
        let mut c = ClusterManager::with_faults(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 1],
            Strategy::FrequencyControl,
            1,
            faults,
        );
        let id = c
            .deploy(
                &VmTemplate::new("std", 2, MHz(1200)),
                Box::new(SteadyDemand::full()),
            )
            .unwrap();
        for _ in 0..12 {
            c.run_period();
        }
        let f = c.fault_report();
        assert_eq!(f.controller_crashes, 1);
        assert_eq!(f.warm_restarts, 1);
        assert_eq!(f.cold_restarts, 0);
        // One VM, three uncontrolled periods.
        assert_eq!(f.uncontrolled_vm_periods, 3);
        assert!(c.is_deployed(id) && c.vm_freq(id).unwrap() > 0.0);
    }

    #[test]
    fn controller_crash_cold_restart_counts_cold() {
        let mut faults = FaultModel::none();
        faults.scripted_controller_crashes.push((5, 0));
        faults.restart = RestartPolicy::Cold;
        let mut c = ClusterManager::with_faults(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 1],
            Strategy::FrequencyControl,
            1,
            faults,
        );
        c.deploy(
            &VmTemplate::new("std", 2, MHz(1200)),
            Box::new(SteadyDemand::full()),
        )
        .unwrap();
        for _ in 0..12 {
            c.run_period();
        }
        let f = c.fault_report();
        assert_eq!(f.controller_crashes, 1);
        assert_eq!(f.cold_restarts, 1);
        assert_eq!(f.warm_restarts, 0);
    }

    #[test]
    fn failed_migrations_roll_back_and_vms_survive() {
        let mut faults = FaultModel::none();
        faults.migration_fail_rate = 0.5; // half the landings fail
        faults.seed = 7;
        let mut c = ClusterManager::with_faults(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 3],
            Strategy::MigrationBased {
                factor: 2.0,
                high_watermark: 0.9,
                sustain: 1,
                downtime_periods: 1,
            },
            1,
            faults,
        );
        // Three identical VMs pile onto one node and spread to the
        // stable 1/1/1 equilibrium — through failing migrations.
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(
                c.deploy(
                    &VmTemplate::new("std", 2, MHz(1200)),
                    Box::new(SteadyDemand::full()),
                )
                .unwrap(),
            );
        }
        for _ in 0..30 {
            c.run_period();
        }
        let f = c.fault_report();
        assert!(f.migrations_failed > 0, "rate 0.5 must fail some landings");
        // Rollbacks never lose a VM.
        for _ in 0..4 {
            c.run_period();
        }
        for id in ids {
            assert!(c.is_deployed(id));
            assert!(c.vm_freq(id).unwrap() > 0.0, "{id} must end up running");
        }
    }

    #[test]
    fn fault_free_runs_report_no_fault_section() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        c.deploy(
            &VmTemplate::new("one", 1, MHz(500)),
            Box::new(SteadyDemand::new(0.2)),
        )
        .unwrap();
        for _ in 0..3 {
            c.run_period();
        }
        let r = c.report();
        assert!(r.faults.is_none());
        assert!(r.recovery_slo_by_class.is_empty());
    }

    #[test]
    fn empty_nodes_consume_no_energy() {
        let mut c = small_cluster(Strategy::FrequencyControl);
        c.deploy(
            &VmTemplate::new("one", 1, MHz(500)),
            Box::new(SteadyDemand::new(0.2)),
        )
        .unwrap();
        for _ in 0..5 {
            c.run_period();
        }
        let r = c.report();
        // Only one node draws power: ≤ 5 s × max_power of one node.
        let bound = 5.0 * 300.0 / 3600.0;
        assert!(r.energy_wh > 0.0 && r.energy_wh <= bound, "{}", r.energy_wh);
        assert_eq!(r.nodes_active, 1);
    }

    /// One metered node hosting a light VM (mints every market period)
    /// and one that idles three periods, then saturates (mints, then
    /// spends what it saved).
    fn metered_node(faults: FaultModel) -> (ClusterManager, [GlobalVmId; 2]) {
        let mut c = ClusterManager::with_faults(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400))],
            Strategy::FrequencyControl,
            1,
            faults,
        );
        c.enable_usage_export();
        let light = c.deploy(
            &VmTemplate::new("light", 2, MHz(1200)),
            Box::new(SteadyDemand::new(0.1)),
        );
        let mut demand = vec![0.05; 30];
        demand.push(1.0);
        let burst = c.deploy(
            &VmTemplate::new("burst", 1, MHz(600)),
            Box::new(vfc_vmm::workload::TraceWorkload::new(demand)),
        );
        (c, [light.unwrap(), burst.unwrap()])
    }

    /// Run one period and drain its usage record.
    fn metered_period(c: &mut ClusterManager) -> PeriodUsage {
        c.run_period();
        let mut drained = c.drain_usage();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].period, c.period);
        drained.remove(0)
    }

    fn total_flows(usage: &PeriodUsage) -> u64 {
        let per_vm = |v: &VmPeriodUsage| v.minted_usec + v.spent_usec;
        usage.vms.iter().map(per_vm).sum::<u64>() + usage.unattributed_usec
    }

    #[test]
    fn restarted_controller_meters_the_flows_its_report_carried() {
        for crash in [2u64, 3] {
            for restart in [RestartPolicy::Cold, RestartPolicy::Warm] {
                let case = format!("crash at {crash}, {restart:?}");
                let mut faults = FaultModel::none();
                faults.scripted_controller_crashes.push((crash, 0));
                faults.controller_restart_periods = 1;
                faults.restart = restart;
                let (mut c, ids) = metered_node(faults);
                // Eq. 4 replayed from the metered flows alone.
                let mut wallets = [0u64; 2];
                let (mut minted, mut spent) = (0, 0);
                for p in 1..=8u64 {
                    let usage = metered_period(&mut c);
                    let node = &c.nodes[0];
                    let iterated = node.report_period == p;
                    assert_eq!(iterated, p != crash, "{case}, period {p}");
                    if !iterated {
                        // The dead controller's last report stays unbilled.
                        assert_eq!(total_flows(&usage), 0, "{case}, period {p}");
                        assert_eq!(usage.wasted_market_usec, 0, "{case}, period {p}");
                        if restart == RestartPolicy::Cold {
                            wallets = [0; 2];
                        }
                        continue;
                    }
                    assert_eq!(
                        usage.wasted_market_usec,
                        node.report.market_left.as_u64(),
                        "{case}, period {p}"
                    );
                    assert_eq!(usage.unattributed_usec, 0, "{case}, period {p}");
                    for (id, wallet) in ids.iter().zip(&mut wallets) {
                        let Location::OnNode { local, .. } = c.vms[id.0 as usize].location else {
                            panic!("{id} left its node");
                        };
                        let flow = node.report.flows.iter().find(|f| f.vm == local).unwrap();
                        let row = usage.vms.iter().find(|v| v.vm == *id).unwrap();
                        assert_eq!(
                            (row.minted_usec, row.spent_usec),
                            (flow.minted, flow.spent),
                            "{case}, period {p}, {id}"
                        );
                        *wallet = *wallet + row.minted_usec - row.spent_usec;
                        let held = node.report.credits.iter().find(|(vm, _)| *vm == local);
                        assert_eq!(
                            *wallet,
                            held.map_or(0, |(_, balance)| *balance),
                            "{case}, period {p}, {id}: Σ minted − Σ spent ≠ Δbalance"
                        );
                        minted += row.minted_usec;
                        spent += row.spent_usec;
                    }
                }
                assert!(
                    minted > 0 && spent > 0,
                    "{case}: {minted} minted, {spent} spent"
                );
            }
        }
    }

    #[test]
    fn an_expired_lease_bills_no_stale_flows() {
        let mut faults = FaultModel::none();
        faults.scripted_partitions.push((3, 12, 0));
        let (mut c, _) = metered_node(faults);
        c.enable_cap_leases(2, 3);
        let mut degraded = 0;
        for p in 1..=8u64 {
            c.renew_leases();
            let usage = metered_period(&mut c);
            if c.nodes[0].report.health.lease_state == LeaseState::Leased {
                assert!(total_flows(&usage) > 0, "period {p}: the market ran");
            } else {
                degraded += 1;
                assert_eq!(total_flows(&usage), 0, "period {p}");
                assert_eq!(usage.wasted_market_usec, 0, "period {p}");
            }
        }
        assert!(degraded > 0, "the lease never expired");
    }

    #[test]
    fn a_degraded_ladder_rung_bills_no_stale_flows() {
        let (mut c, _) = metered_node(FaultModel::none());
        c.enable_deadline_ladder(0.05, 4);
        let mut rungs = Vec::new();
        for p in 1..=8u64 {
            // Two overruns walk full → reuse-previous → monitor-only.
            c.inject_stage_delay_us(0, if (4..6).contains(&p) { 200_000 } else { 0 });
            let usage = metered_period(&mut c);
            let rung = c.nodes[0].report.health.ladder_rung;
            if rung == vfc_controller::LadderRung::Full {
                assert!(total_flows(&usage) > 0, "period {p}: the market ran");
            } else {
                assert_eq!(total_flows(&usage), 0, "period {p}, {rung:?}");
                assert_eq!(usage.wasted_market_usec, 0, "period {p}, {rung:?}");
            }
            rungs.push(rung);
        }
        assert!(
            rungs.contains(&vfc_controller::LadderRung::MonitorOnly),
            "{rungs:?}"
        );
    }
}
