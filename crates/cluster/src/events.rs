//! Event-driven cluster core.
//!
//! [`ClusterManager::run_period`] is the synchronous step: the caller
//! deploys and undeploys between periods and steps every period, even
//! when the cluster is empty. [`EventDrivenCluster`] enters the same
//! period body from a discrete-event queue ([`vfc_simcore::EventQueue`]).
//! The only independent events are the online stream the cluster answers
//! to — VM arrivals and departures — plus one tick per period while there
//! is anything to simulate, so empty stretches cost nothing. Under either
//! driver a period advances only the nodes that host VMs, so **a quiet
//! host costs nothing**: its controller runs zero iterations and its host
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
//! | 2 | [`PH_TICK`] | the period: faults, landings, busy nodes advance in node order, close |
//!
//! The tick is `run_period`'s body. Arrivals and departures happen
//! *between* periods, as deploys do under `run_period`: before the first
//! event of period `p` the manager's counter is brought to `p - 1`, and
//! [`ClusterManager`] runs the faults of every period it passes. The tick
//! closes the period — SLO/energy accounting, the migration policy — when
//! a VM was present at the end of the previous period or was admitted in
//! this one. The next tick is queued while VMs are present; an admission
//! revives the chain.
//!
//! # Determinism contract
//!
//! Same construction + same scheduled specs ⇒ byte-identical event
//! journals and reports: every queue tie-break is FIFO, every RNG is
//! seeded, and a tick advances its nodes — and the close merges their
//! samples — in node order.
//!
//! Against [`ClusterManager::run_period`] fed the same schedule
//! (departures, then arrivals, before each period), the
//! [`ClusterManager::report`] is **bit-identical** for any schedule and
//! any fault model, crashes, repairs and restarts inside a jumped stretch
//! included: the core jumps only while no VM is present (in flight and
//! stranded count), so a jumped period's body is its fault phase alone,
//! which the manager runs as the counter catches up. The
//! `event_core_matches_run_period` proptest (`tests/events.rs`) pins the
//! contract. The one remaining difference is the period-sample history:
//! the event core records no samples for periods in which the whole
//! cluster was empty (it jumps over them).

use crate::manager::{ClusterError, ClusterManager, ClusterReport, GlobalVmId};
use crate::trace::TraceVmSpec;
use serde::{Deserialize, Serialize};
use vfc_placement::algo::PlacementAlgorithm;
use vfc_simcore::{EventQueue, SplitMix64};
use vfc_vmm::workload::{SteadyDemand, Workload};
use vfc_vmm::VmTemplate;

/// Phases per period in the timestamp encoding (spare slots included).
pub const PHASES_PER_PERIOD: u64 = 8;
/// Departures: capacity frees before the same instant's arrivals.
pub const PH_DEPART: u64 = 0;
/// Arrivals: admission under the strategy's constraint.
pub const PH_ARRIVE: u64 = 1;
/// The period itself: faults, landings, node advance, close.
pub const PH_TICK: u64 = 2;

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
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterEvent {
    /// A trace VM arrives and requests admission.
    Arrival { slot: usize },
    /// A trace VM departs (wherever it currently is).
    Departure { slot: usize },
    /// One period of the cluster.
    Tick,
}

/// Counters for everything the event loop processed — the raw material
/// for the quiet-hosts-are-free bound and the events/sec throughput
/// figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStats {
    /// Every event popped off the queue: arrivals, departures, ticks.
    pub events_processed: u64,
    /// VM arrivals processed (admitted or rejected).
    pub arrivals: u64,
    /// VM departures processed.
    pub departures: u64,
    /// Node advances: each tick counts the nodes it advanced.
    pub node_periods: u64,
    /// Ticks that closed their period.
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
    /// Is a tick queued? (The tick chain re-queues itself; an admission
    /// revives it.)
    tick_queued: bool,
    /// Does the current period close? A VM was present at the end of the
    /// previous period, or one was admitted in this one.
    close_due: bool,
    /// VMs currently deployed (placed, in flight, or stranded).
    vms_present: usize,
    algorithm: PlacementAlgorithm,
    workloads: WorkloadFactory,
    wrng: SplitMix64,
    stats: EventStats,
    journal: Option<Vec<String>>,
}

impl EventDrivenCluster {
    /// Wrap a freshly built manager. Workloads default to a steady full
    /// demand; override with [`EventDrivenCluster::with_workloads`].
    pub fn new(mgr: ClusterManager) -> Self {
        EventDrivenCluster {
            mgr,
            queue: EventQueue::new(),
            specs: Vec::new(),
            slot_gvm: Vec::new(),
            tick_queued: false,
            close_due: false,
            vms_present: 0,
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
    /// later call. Events of period `p` happen between periods `p - 1`
    /// and `p`, so the counter is first brought to `p - 1`.
    pub fn run_until(&mut self, horizon: u64) {
        let limit = encode_time(horizon, PHASES_PER_PERIOD - 1);
        while self.queue.peek_time().is_some_and(|t| t <= limit) {
            let ev = self.queue.pop().expect("an event was peeked");
            let (p, phase) = decode_time(ev.time);
            if self.mgr.period() + 1 < p {
                self.mgr.begin_period_at(p - 1);
            }
            self.stats.events_processed += 1;
            if let Some(journal) = &mut self.journal {
                journal.push(format!("p{p}.{phase} seq{} {:?}", ev.seq, ev.event));
            }
            match ev.event {
                ClusterEvent::Arrival { slot } => self.on_arrival(p, slot),
                ClusterEvent::Departure { slot } => self.on_departure(slot),
                ClusterEvent::Tick => self.on_tick(p),
            }
        }
        if self.mgr.period() < horizon {
            self.mgr.begin_period_at(horizon);
        }
    }

    fn queue_tick(&mut self, p: u64) {
        self.tick_queued = true;
        self.queue
            .schedule(encode_time(p, PH_TICK), ClusterEvent::Tick);
    }

    fn on_arrival(&mut self, p: u64, slot: usize) {
        self.stats.arrivals += 1;
        let template = self.specs[slot].template.clone();
        let workload = (self.workloads)(slot, &template, &mut self.wrng);
        match self
            .mgr
            .try_deploy_with(&template, workload, self.algorithm)
        {
            Ok(id) => {
                self.slot_gvm[slot] = Some(id);
                self.vms_present += 1;
                self.close_due = true;
                if !self.tick_queued {
                    self.queue_tick(p);
                }
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

    fn on_tick(&mut self, p: u64) {
        self.tick_queued = false;
        self.stats.closes += u64::from(self.close_due);
        self.stats.node_periods += self.mgr.run_busy_period(p, self.close_due) as u64;
        self.close_due = self.vms_present > 0;
        if self.vms_present > 0 {
            self.queue_tick(p + 1);
        }
    }
}
