//! Fault injection for the cluster simulation.
//!
//! The paper evaluates the controller on healthy nodes; real clusters
//! lose nodes and controller daemons. This module decides *what* fails
//! and *when*: the model, its RNG, the counters and each node's fault
//! state. The [`manager::ClusterManager`](crate::manager::ClusterManager)
//! applies the outcome: it evacuates, uncaps, restores and re-places.
//!
//! * **node crash** — every VM on the node is evacuated through the same
//!   Eq. 7 placement used for admission (paying an evacuation downtime);
//!   VMs that fit nowhere wait *stranded* and are retried every period.
//!   The node rejoins empty after `repair_periods`.
//! * **controller crash** — the node keeps running but nobody writes
//!   `cpu.max`: the dying controller uncaps everything (the same
//!   fail-open posture as the daemon's circuit breaker) and the node runs
//!   uncontrolled for `controller_restart_periods`. The replacement
//!   controller starts [`RestartPolicy::Warm`] (from the journal snapshot
//!   the dead one exported) or [`RestartPolicy::Cold`] (empty wallets and
//!   history).
//! * **migration failure** — a live migration fails at the landing
//!   handshake with some probability and rolls back to the source node
//!   (re-placed elsewhere if the source meanwhile died or filled up).
//! * **control-plane partition** — a node keeps running its controller
//!   but cannot reach the control plane: lease renewals
//!   ([`ClusterManager::renew_leases`](crate::manager::ClusterManager::renew_leases))
//!   skip it for the window, so with cap leases enabled the node's
//!   controller degrades to its locally-safe ladder (hold Eq. 2
//!   guarantees, then uncap) instead of enforcing stale allocations
//!   forever.
//!
//! All draws come from one seeded [`SplitMix64`] stream consumed in a
//! fixed order — each period node crashes, then controller crashes, then
//! failing landings, each in ascending order — so runs are reproducible
//! and warm-vs-cold comparisons share the exact same fault schedule.

use serde::{Deserialize, Serialize};
use vfc_controller::Journal;
use vfc_simcore::SplitMix64;

/// How a replacement controller comes up after a controller crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartPolicy {
    /// Restore wallets, estimation history and previous allocations from
    /// the journal snapshot the dead controller left behind.
    Warm,
    /// Start from scratch: empty wallets, no history.
    Cold,
}

/// What can go wrong, and how often. [`FaultModel::none`] disables
/// everything (the default for existing callers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Seed of the fault-schedule RNG (independent of workload seeds).
    pub seed: u64,
    /// Per-node, per-period probability of a node crash.
    pub node_crash_rate: f64,
    /// Deterministic node crashes: (period, node index). Fires when the
    /// cluster *enters* that period, on top of the random draws.
    pub scripted_node_crashes: Vec<(u64, usize)>,
    /// Periods a crashed node stays down before rejoining (empty).
    pub repair_periods: u64,
    /// Per-node, per-period probability of a controller crash.
    pub controller_crash_rate: f64,
    /// Deterministic controller crashes: (period, node index).
    pub scripted_controller_crashes: Vec<(u64, usize)>,
    /// Periods a node runs uncapped before its controller restarts
    /// (the `k` of the recovery analysis).
    pub controller_restart_periods: u64,
    /// Warm (journal) or cold restart for replacement controllers.
    pub restart: RestartPolicy,
    /// Probability that a landing migration fails and rolls back.
    pub migration_fail_rate: f64,
    /// Downtime paid by a VM evacuated off a crashed node.
    pub evacuation_downtime_periods: u64,
    /// Periods after a controller restart during which VM-periods on the
    /// node still count toward the recovery-window SLO accounting.
    pub recovery_tail_periods: u64,
    /// Control-plane partition windows: `(start, end, node index)` — the
    /// node cannot reach the control plane for periods `start..end`
    /// (half-open). The node itself keeps running; only lease renewals
    /// are cut off.
    pub scripted_partitions: Vec<(u64, u64, usize)>,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

impl FaultModel {
    /// No faults ever fire; recovery accounting stays empty.
    pub fn none() -> Self {
        FaultModel {
            seed: 0,
            node_crash_rate: 0.0,
            scripted_node_crashes: Vec::new(),
            repair_periods: 10,
            controller_crash_rate: 0.0,
            scripted_controller_crashes: Vec::new(),
            controller_restart_periods: 3,
            restart: RestartPolicy::Warm,
            migration_fail_rate: 0.0,
            evacuation_downtime_periods: 3,
            recovery_tail_periods: 10,
            scripted_partitions: Vec::new(),
        }
    }

    /// Anything to inject at all?
    pub fn enabled(&self) -> bool {
        self.node_crash_rate > 0.0
            || self.controller_crash_rate > 0.0
            || self.migration_fail_rate > 0.0
            || !self.scripted_node_crashes.is_empty()
            || !self.scripted_controller_crashes.is_empty()
            || !self.scripted_partitions.is_empty()
    }

    /// Is `node` partitioned from the control plane at `period`?
    pub fn is_partitioned(&self, node: usize, period: u64) -> bool {
        self.scripted_partitions
            .iter()
            .any(|&(start, end, n)| n == node && (start..end).contains(&period))
    }
}

/// What the fault machinery did over a run — attached to
/// [`ClusterReport`](crate::manager::ClusterReport) when a fault model is
/// active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Nodes lost (scripted + random).
    pub node_crashes: u64,
    /// Controllers lost (scripted + random).
    pub controller_crashes: u64,
    /// Replacement controllers restored from a journal snapshot.
    pub warm_restarts: u64,
    /// Replacement controllers started from scratch.
    pub cold_restarts: u64,
    /// VMs evacuated off crashed nodes.
    pub evacuated_vms: u64,
    /// Migrations that failed at landing and rolled back.
    pub migrations_failed: u64,
    /// VM-periods spent waiting for capacity after an evacuation found
    /// no node to land on.
    pub stranded_vm_periods: u64,
    /// VM-periods spent on a node whose controller was down (running
    /// uncapped, guarantees unenforced).
    pub uncontrolled_vm_periods: u64,
    /// Node-periods spent partitioned from the control plane (lease
    /// renewals cut off; zero unless partitions are scripted).
    pub partitioned_node_periods: u64,
}

/// One node's place in its fault life. A crash replaces the whole
/// state, so the timers of the state it ends go with it. Only an `Up`
/// node holds a controller.
pub(crate) enum NodeState {
    /// Running. VM-periods count toward recovery accounting until
    /// `recovery_until` (exclusive): the tail after a controller restart.
    Up { recovery_until: u64 },
    /// The controller crashed: the node runs uncapped (fail-open) until
    /// `returns_at`, when a replacement starts from `snapshot` (warm) or
    /// from scratch (`None`, cold).
    ControllerDown {
        returns_at: u64,
        snapshot: Option<Journal>,
    },
    /// The node crashed: it hosts nothing and is out of placement until
    /// it rejoins, empty and under a cold controller, at `repairs_at`.
    Down { repairs_at: u64 },
}

impl NodeState {
    pub(crate) fn is_down(&self) -> bool {
        matches!(self, NodeState::Down { .. })
    }
}

/// What crashes: the whole node, or only its controller.
pub(crate) enum Crash {
    Node,
    Controller,
}

/// The fault machinery of one run: the model, the RNG every fault draw
/// comes from, and what the faults did so far.
pub(crate) struct Faults {
    pub(crate) model: FaultModel,
    rng: SplitMix64,
    pub(crate) report: FaultReport,
}

impl Faults {
    /// The machinery for a fleet of `nodes`, its RNG seeded from the
    /// model alone. Panics when a scripted fault names a node the fleet
    /// does not have: the scenario would run without that fault.
    pub(crate) fn new(model: FaultModel, nodes: usize) -> Faults {
        let crashes = model.scripted_node_crashes.iter();
        let crashes = crashes.chain(&model.scripted_controller_crashes);
        let windows = model.scripted_partitions.iter().map(|w| w.2);
        for n in crashes.map(|c| c.1).chain(windows) {
            assert!(n < nodes, "scripted fault on node {n} of {nodes}");
        }
        Faults {
            rng: SplitMix64::new(model.seed ^ 0x5EED_F417),
            model,
            report: FaultReport::default(),
        }
    }

    /// Does `kind` hit `node`, one that may crash, at `period`? It draws
    /// once (when the rate is non-zero), scripted or not, and hits on a
    /// draw or when the script names the node for `period`. The caller
    /// asks node by node, in ascending order.
    pub(crate) fn hits(&mut self, kind: Crash, period: u64, node: usize) -> bool {
        let m = &self.model;
        let (scripted, rate) = match kind {
            Crash::Node => (&m.scripted_node_crashes, m.node_crash_rate),
            Crash::Controller => (&m.scripted_controller_crashes, m.controller_crash_rate),
        };
        let drawn = rate > 0.0 && self.rng.chance(rate);
        drawn || scripted.contains(&(period, node))
    }

    /// Does a landing migration fail its handshake? Draws only when the
    /// rate is non-zero.
    pub(crate) fn migration_fails(&mut self) -> bool {
        let rate = self.model.migration_fail_rate;
        let failed = rate > 0.0 && self.rng.chance(rate);
        self.report.migrations_failed += failed as u64;
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_simcore::MHz;

    #[test]
    fn none_is_disabled_and_default() {
        assert!(!FaultModel::none().enabled());
        assert_eq!(FaultModel::default(), FaultModel::none());
    }

    #[test]
    fn any_rate_or_script_enables() {
        let mut m = FaultModel::none();
        m.migration_fail_rate = 0.1;
        assert!(m.enabled());
        let mut m = FaultModel::none();
        m.scripted_node_crashes.push((5, 0));
        assert!(m.enabled());
        let mut m = FaultModel::none();
        m.scripted_controller_crashes.push((5, 0));
        assert!(m.enabled());
        let mut m = FaultModel::none();
        m.scripted_partitions.push((5, 10, 0));
        assert!(m.enabled());
    }

    #[test]
    fn partition_windows_are_half_open_per_node() {
        let mut m = FaultModel::none();
        m.scripted_partitions.push((5, 10, 1));
        assert!(!m.is_partitioned(1, 4));
        assert!(m.is_partitioned(1, 5));
        assert!(m.is_partitioned(1, 9));
        assert!(!m.is_partitioned(1, 10));
        assert!(!m.is_partitioned(0, 7), "only the named node is cut off");
    }

    /// A two-node fleet under `model`.
    fn two_nodes(model: FaultModel) -> crate::ClusterManager {
        let fleet = vec![vfc_cpusched::topology::NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 2];
        crate::ClusterManager::with_faults(fleet, crate::Strategy::FrequencyControl, 1, model)
    }

    #[test]
    #[should_panic(expected = "scripted fault on node 2 of 2")]
    fn a_node_crash_off_the_fleet_is_refused() {
        let mut m = FaultModel::none();
        m.scripted_node_crashes.push((3, 2));
        two_nodes(m);
    }

    #[test]
    #[should_panic(expected = "scripted fault on node 5 of 2")]
    fn a_controller_crash_off_the_fleet_is_refused() {
        let mut m = FaultModel::none();
        m.scripted_controller_crashes.extend([(3, 1), (4, 5)]);
        two_nodes(m);
    }

    #[test]
    #[should_panic(expected = "scripted fault on node 2 of 2")]
    fn a_partition_off_the_fleet_is_refused() {
        let mut m = FaultModel::none();
        m.scripted_partitions.push((3, 9, 2));
        two_nodes(m);
    }

    #[test]
    fn report_serializes() {
        let r = FaultReport {
            node_crashes: 1,
            warm_restarts: 2,
            ..FaultReport::default()
        };
        let s = serde_json::to_string(&r).unwrap();
        let back: FaultReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }
}
