//! Event-driven cluster core.
//!
//! [`ClusterManager::run_period`] is a fixed-step driver: every node
//! advances every period, which is O(nodes) per period even when almost
//! every host is quiet — hopeless for thousands of nodes and hundreds of
//! thousands of VM arrivals. [`EventDrivenCluster`] reworks the same
//! cluster around a discrete-event queue ([`vfc_simcore::EventQueue`]):
//! VM arrival/departure, controller periods, fault ticks, and migration
//! completions are *events*, and **a quiet host schedules nothing and
//! costs nothing** — its controller runs zero iterations and its host
//! never ticks.
//!
//! # Phase encoding
//!
//! Timestamps pack `period × 8 + phase` into one `u64`, so intra-period
//! ordering is part of the timestamp itself and the queue's FIFO
//! tie-break applies only within a phase:
//!
//! | phase | constant | what happens |
//! |------:|----------|--------------|
//! | 0 | [`PH_DEPART`] | departures free capacity first |
//! | 1 | [`PH_ARRIVE`] | arrivals are admitted (Eq. 7 / core-count) |
//! | 2 | [`PH_FAULT`] | repairs, node/controller crash draws |
//! | 3 | [`PH_LANDING`] | due migrations land, stranded VMs retry |
//! | 4 | [`PH_NODE`] | busy nodes advance, in sorted node order |
//! | 5 | [`PH_CLOSE`] | SLO/energy accounting, migration policy |
//!
//! This mirrors the legacy `run_period` sequence exactly (deploys happen
//! *between* legacy periods, i.e. before the fault phase).
//!
//! # Determinism contract
//!
//! Same construction + same scheduled specs ⇒ byte-identical event
//! journals and reports: every queue tie-break is FIFO, every RNG is
//! seeded, and the same-instant batch of busy nodes is sorted before it
//! is advanced, so nodes step — and their samples are merged by
//! `close_period_for` — in node order.
//!
//! Against the legacy driver, [`ClusterManager::report`] is
//! **bit-identical** for runs where no VM ever lands on a host that the
//! event core previously skipped (e.g. all arrivals before period 1,
//! departures at any time, no faults, no migrations): an idle host's
//! governor RNG advances under the legacy driver but not here, so a VM
//! landing on such a host later sees a different (equally valid) noise
//! stream. The `events_equivalence` proptest pins the contract.
//! Period-sample history differs in one way: the event core records no
//! samples for periods in which the whole cluster was empty (it jumps
//! over them), and when a fault model is active it only processes
//! periods while VMs are present or arrivals are pending.

use crate::manager::{ClusterError, ClusterManager, ClusterReport, GlobalVmId};
use crate::trace::TraceVmSpec;
use serde::{Deserialize, Serialize};
use vfc_placement::algo::PlacementAlgorithm;
use vfc_simcore::{EventQueue, Scheduled, SplitMix64};
use vfc_vmm::workload::{SteadyDemand, Workload};
use vfc_vmm::VmTemplate;

/// Phases per period in the timestamp encoding (spare slots included).
pub const PHASES_PER_PERIOD: u64 = 8;
/// Departures: capacity frees before the same instant's arrivals.
pub const PH_DEPART: u64 = 0;
/// Arrivals: admission under the strategy's constraint.
pub const PH_ARRIVE: u64 = 1;
/// Fault machinery: repairs first, then crash draws.
pub const PH_FAULT: u64 = 2;
/// Migration landings and stranded retries.
pub const PH_LANDING: u64 = 3;
/// Node advance (hosts tick, controllers iterate).
pub const PH_NODE: u64 = 4;
/// End-of-period accounting.
pub const PH_CLOSE: u64 = 5;

/// Pack `(period, phase)` into an event timestamp.
pub fn encode_time(period: u64, phase: u64) -> u64 {
    debug_assert!(phase < PHASES_PER_PERIOD);
    period * PHASES_PER_PERIOD + phase
}

/// Unpack an event timestamp into `(period, phase)`.
pub fn decode_time(t: u64) -> (u64, u64) {
    (t / PHASES_PER_PERIOD, t % PHASES_PER_PERIOD)
}

/// What can happen in the cluster. `slot` indexes the scheduled spec
/// table, `vm` a manager VM record, `node` a cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterEvent {
    /// A trace VM arrives and requests admission.
    Arrival { slot: usize },
    /// A trace VM departs (wherever it currently is).
    Departure { slot: usize },
    /// Per-period fault machinery (only while a fault model is active).
    FaultTick,
    /// An in-flight VM's downtime elapsed (or a stranded retry).
    Landing { vm: usize },
    /// A busy node's controller period.
    NodePeriod { node: usize },
    /// End-of-period accounting.
    PeriodClose,
}

/// Counters for everything the event loop processed — the raw material
/// for the quiet-hosts-are-free bound and the events/sec throughput
/// figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStats {
    /// Every event popped off the queue.
    pub events_processed: u64,
    /// VM arrivals processed (admitted or rejected).
    pub arrivals: u64,
    /// VM departures processed.
    pub departures: u64,
    /// Landing events processed (includes stranded retries).
    pub landings: u64,
    /// Per-node period advances processed.
    pub node_periods: u64,
    /// Fault ticks processed.
    pub fault_ticks: u64,
    /// Period closes processed.
    pub closes: u64,
}

/// Builds each admitted VM's workload: `(spec slot, template, rng)`.
/// Slot-keyed so a test harness can reproduce the exact same workload
/// objects outside the event core.
pub type WorkloadFactory = Box<dyn Fn(usize, &VmTemplate, &mut SplitMix64) -> Box<dyn Workload>>;

/// The event-driven driver. Wraps a [`ClusterManager`] and replays
/// scheduled VM lifetimes through the discrete-event queue. See the
/// module docs for the phase model and determinism contract.
pub struct EventDrivenCluster {
    mgr: ClusterManager,
    queue: EventQueue<ClusterEvent>,
    specs: Vec<TraceVmSpec>,
    /// Slot → manager id once admitted (`None` before arrival or after a
    /// capacity rejection).
    slot_gvm: Vec<Option<GlobalVmId>>,
    /// Per node: the latest period for which a `NodePeriod` event has
    /// been scheduled — the "is this host awake?" guard.
    node_next: Vec<u64>,
    /// Nodes advanced in the current period's `PH_NODE` batch, sorted.
    active_nodes: Vec<usize>,
    active_period: u64,
    /// Is a `PeriodClose` currently queued? (The close chain
    /// self-perpetuates while VMs are present.)
    close_queued: bool,
    /// Is a `FaultTick` currently queued?
    fault_tick_queued: bool,
    /// Scratch for batching same-instant landings.
    landing_batch: Vec<usize>,
    /// VMs currently deployed (placed, in flight, or stranded).
    vms_present: usize,
    /// Scheduled arrivals not yet processed.
    arrivals_pending: usize,
    algorithm: PlacementAlgorithm,
    workloads: WorkloadFactory,
    wrng: SplitMix64,
    stats: EventStats,
    journal: Option<Vec<String>>,
}

impl EventDrivenCluster {
    /// Wrap a freshly built manager. Workloads default to a steady full
    /// demand; override with [`EventDrivenCluster::with_workloads`].
    pub fn new(mut mgr: ClusterManager) -> Self {
        mgr.set_track_inflight();
        let node_next = vec![0; mgr.node_count()];
        EventDrivenCluster {
            mgr,
            queue: EventQueue::new(),
            specs: Vec::new(),
            slot_gvm: Vec::new(),
            node_next,
            active_nodes: Vec::new(),
            active_period: 0,
            close_queued: false,
            fault_tick_queued: false,
            landing_batch: Vec::new(),
            vms_present: 0,
            arrivals_pending: 0,
            algorithm: PlacementAlgorithm::BestFit,
            workloads: Box::new(|_, _, _| Box::new(SteadyDemand::full())),
            wrng: SplitMix64::new(0xE7E9_7D41),
            stats: EventStats::default(),
            journal: None,
        }
    }

    /// Builder: placement heuristic used for every admission.
    pub fn with_algorithm(mut self, algorithm: PlacementAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Builder: workload factory (and the seed of the RNG handed to it).
    pub fn with_workloads(mut self, seed: u64, factory: WorkloadFactory) -> Self {
        self.wrng = SplitMix64::new(seed);
        self.workloads = factory;
        self
    }

    /// Start recording one line per processed event. Two same-seed runs
    /// must produce byte-identical journals — the determinism pin.
    pub fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// The recorded event journal, if enabled.
    pub fn journal(&self) -> Option<&[String]> {
        self.journal.as_deref()
    }

    /// Counters of everything processed so far.
    pub fn stats(&self) -> EventStats {
        self.stats
    }

    /// The wrapped manager (read-only: reports, telemetry, loads).
    pub fn manager(&self) -> &ClusterManager {
        &self.mgr
    }

    /// Mutable access to the wrapped manager, for the control actions a
    /// driving harness performs *between* `run_until` steps: lease
    /// renewal heartbeats, stage-delay fault injection, policy enables.
    /// Mutating VM placement through this handle mid-run is not
    /// supported — use the event API for arrivals and departures.
    pub fn manager_mut(&mut self) -> &mut ClusterManager {
        &mut self.mgr
    }

    /// Final accounting (delegates to [`ClusterManager::report`]).
    pub fn report(&self) -> ClusterReport {
        self.mgr.report()
    }

    /// Manager id of the trace slot's VM, once admitted.
    pub fn vm_id_of(&self, slot: usize) -> Option<GlobalVmId> {
        self.slot_gvm.get(slot).copied().flatten()
    }

    /// Events still queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedule one VM lifetime; returns its spec slot. A VM arriving at
    /// second `t` is admitted just before period `t + 1`; a departure at
    /// second `d` takes effect just before period `d + 1`.
    pub fn schedule_vm(&mut self, spec: TraceVmSpec) -> usize {
        let slot = self.specs.len();
        let arrive_p = spec.arrival + 1;
        self.queue.schedule(
            encode_time(arrive_p, PH_ARRIVE),
            ClusterEvent::Arrival { slot },
        );
        self.arrivals_pending += 1;
        if let Some(d) = spec.departure {
            debug_assert!(d > spec.arrival, "trace validation enforces this");
            self.queue.schedule(
                encode_time(d + 1, PH_DEPART),
                ClusterEvent::Departure { slot },
            );
        }
        self.specs.push(spec);
        self.slot_gvm.push(None);
        slot
    }

    /// Schedule a whole trace (specs in order).
    pub fn load_trace(&mut self, specs: Vec<TraceVmSpec>) {
        for spec in specs {
            self.schedule_vm(spec);
        }
    }

    /// Process every event up to and including period `horizon`, then
    /// move the period counter there (trailing quiet periods are jumped
    /// over, not simulated). Events beyond the horizon stay queued for a
    /// later call.
    pub fn run_until(&mut self, horizon: u64) {
        let limit = encode_time(horizon, PHASES_PER_PERIOD - 1);
        while self.queue.peek_time().is_some_and(|t| t <= limit) {
            self.step();
        }
        if self.mgr.period() < horizon {
            self.mgr.begin_period_at(horizon);
        }
    }

    /// Pop + dispatch one event. Returns `false` on an empty queue.
    fn step(&mut self) -> bool {
        let Some(ev) = self.pop_logged() else {
            return false;
        };
        let (p, _phase) = decode_time(ev.time);
        match ev.event {
            ClusterEvent::Arrival { slot } => self.on_arrival(p, slot),
            ClusterEvent::Departure { slot } => self.on_departure(slot),
            ClusterEvent::FaultTick => self.on_fault_tick(p),
            ClusterEvent::Landing { vm } => self.on_landing_batch(p, ev.time, vm),
            ClusterEvent::NodePeriod { node } => self.on_node_batch(p, ev.time, node),
            ClusterEvent::PeriodClose => self.on_close(p),
        }
        true
    }

    fn pop_logged(&mut self) -> Option<Scheduled<ClusterEvent>> {
        let ev = self.queue.pop()?;
        self.log_event(&ev);
        Some(ev)
    }

    fn pop_logged_at(&mut self, t: u64) -> Option<Scheduled<ClusterEvent>> {
        let ev = self.queue.pop_at(t)?;
        self.log_event(&ev);
        Some(ev)
    }

    fn log_event(&mut self, ev: &Scheduled<ClusterEvent>) {
        self.stats.events_processed += 1;
        if let Some(journal) = &mut self.journal {
            let (p, phase) = decode_time(ev.time);
            journal.push(format!("p{p}.{phase} seq{} {:?}", ev.seq, ev.event));
        }
    }

    /// A node gained a VM effective period `p`: make sure it advances
    /// from `p` on, and that `p` gets a close.
    fn wake_node(&mut self, node: usize, p: u64) {
        if self.node_next[node] < p {
            self.node_next[node] = p;
            self.queue
                .schedule(encode_time(p, PH_NODE), ClusterEvent::NodePeriod { node });
        }
        self.ensure_close(p);
    }

    /// Revive the close chain at period `p` if it is not already queued.
    /// While VMs are present the close handler re-schedules itself, so
    /// every period from the first admission to the last departure gets
    /// its serial accounting (offline VMs included).
    fn ensure_close(&mut self, p: u64) {
        if !self.close_queued {
            self.close_queued = true;
            self.queue
                .schedule(encode_time(p, PH_CLOSE), ClusterEvent::PeriodClose);
        }
    }

    /// Revive the fault chain at period `p` if a model is active. Fault
    /// draws happen every period while VMs are present or arrivals are
    /// pending; quiet stretches before the first arrival are jumped.
    fn ensure_fault_tick(&mut self, p: u64) {
        if self.mgr.faults_enabled() && !self.fault_tick_queued {
            self.fault_tick_queued = true;
            self.queue
                .schedule(encode_time(p, PH_FAULT), ClusterEvent::FaultTick);
        }
    }

    fn on_arrival(&mut self, p: u64, slot: usize) {
        self.stats.arrivals += 1;
        self.arrivals_pending -= 1;
        let template = self.specs[slot].template.clone();
        let workload = (self.workloads)(slot, &template, &mut self.wrng);
        match self
            .mgr
            .try_deploy_with(&template, workload, self.algorithm)
        {
            Ok(id) => {
                self.slot_gvm[slot] = Some(id);
                self.vms_present += 1;
                let node = self
                    .mgr
                    .vm_node(id.0 as usize)
                    .expect("freshly deployed VM is placed");
                self.wake_node(node, p);
                self.ensure_fault_tick(p);
            }
            Err(ClusterError::NoCapacity) => {
                // Counted as a rejection by the manager; the departure
                // event (if any) will find no id and no-op.
            }
            Err(e) => unreachable!("trace-validated template rejected: {e}"),
        }
    }

    fn on_departure(&mut self, slot: usize) {
        self.stats.departures += 1;
        if let Some(id) = self.slot_gvm[slot] {
            self.mgr
                .undeploy(id)
                .expect("departures fire once per admitted VM");
            self.vms_present -= 1;
        }
    }

    fn on_fault_tick(&mut self, p: u64) {
        self.stats.fault_ticks += 1;
        self.fault_tick_queued = false;
        self.mgr.begin_period_at(p);
        self.mgr.fault_phase();
        // Crash evacuations became in-flight VMs: schedule their
        // landings. Stranded VMs (nowhere to go) retry *this* period's
        // landing phase, exactly like the legacy per-period sweep.
        for (vm, arrive) in self.mgr.drain_pending_inflight() {
            self.queue.schedule(
                encode_time(arrive, PH_LANDING),
                ClusterEvent::Landing { vm },
            );
        }
        for vm in self.mgr.stranded_indices() {
            self.queue
                .schedule(encode_time(p, PH_LANDING), ClusterEvent::Landing { vm });
        }
        if self.vms_present > 0 {
            self.ensure_close(p);
        }
        if self.vms_present > 0 || self.arrivals_pending > 0 {
            self.fault_tick_queued = true;
            self.queue
                .schedule(encode_time(p + 1, PH_FAULT), ClusterEvent::FaultTick);
        }
    }

    fn on_landing_batch(&mut self, p: u64, t: u64, first: usize) {
        self.stats.landings += 1;
        let mut batch = std::mem::take(&mut self.landing_batch);
        batch.clear();
        batch.push(first);
        while let Some(ev) = self.pop_logged_at(t) {
            self.stats.landings += 1;
            let ClusterEvent::Landing { vm } = ev.event else {
                unreachable!("only landings live in PH_LANDING");
            };
            batch.push(vm);
        }
        // Land in ascending VM-record order (legacy sweep order);
        // stranded retries may duplicate scheduled landings.
        batch.sort_unstable();
        batch.dedup();
        self.mgr.begin_period_at(p);
        self.mgr.land_vm_set(&batch);
        for &vm in &batch {
            if let Some(node) = self.mgr.vm_node(vm) {
                self.wake_node(node, p);
            }
        }
        // Failed/rolled-back landings went back in flight.
        for (vm, arrive) in self.mgr.drain_pending_inflight() {
            self.queue.schedule(
                encode_time(arrive, PH_LANDING),
                ClusterEvent::Landing { vm },
            );
        }
        self.landing_batch = batch;
    }

    fn on_node_batch(&mut self, p: u64, t: u64, first: usize) {
        self.stats.node_periods += 1;
        let mut batch = std::mem::take(&mut self.active_nodes);
        batch.clear();
        batch.push(first);
        while let Some(ev) = self.pop_logged_at(t) {
            self.stats.node_periods += 1;
            let ClusterEvent::NodePeriod { node } = ev.event else {
                unreachable!("only node periods live in PH_NODE");
            };
            batch.push(node);
        }
        // One event per node per period (guarded by `node_next`), but
        // scheduling order is arbitrary — sort for the deterministic
        // merge order `close_period_for` requires.
        batch.sort_unstable();
        batch.dedup();
        // A node emptied since its period was scheduled (departures,
        // crash evacuation) goes back to sleep without advancing.
        batch.retain(|&n| self.mgr.node_has_residents(n));
        self.mgr.begin_period_at(p);
        self.mgr.advance_node_set(&batch);
        for &n in &batch {
            debug_assert!(self.mgr.node_has_residents(n));
            self.node_next[n] = p + 1;
            self.queue.schedule(
                encode_time(p + 1, PH_NODE),
                ClusterEvent::NodePeriod { node: n },
            );
        }
        if !batch.is_empty() {
            self.ensure_close(p);
        }
        self.active_nodes = batch;
        self.active_period = p;
    }

    fn on_close(&mut self, p: u64) {
        self.stats.closes += 1;
        self.close_queued = false;
        let mut active = std::mem::take(&mut self.active_nodes);
        if self.active_period != p {
            // No node advanced this period (offline-only accounting).
            active.clear();
        }
        self.mgr.begin_period_at(p);
        self.mgr.close_period_for(&active);
        self.active_nodes = active;
        // The migration policy may have started migrations just now.
        for (vm, arrive) in self.mgr.drain_pending_inflight() {
            self.queue.schedule(
                encode_time(arrive, PH_LANDING),
                ClusterEvent::Landing { vm },
            );
        }
        if self.vms_present > 0 {
            self.close_queued = true;
            self.queue
                .schedule(encode_time(p + 1, PH_CLOSE), ClusterEvent::PeriodClose);
        }
    }
}
