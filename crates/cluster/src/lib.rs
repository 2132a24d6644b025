#![warn(missing_docs)]

//! Cluster-level management built on the `vfc` stack.
//!
//! The paper's state-of-the-art review (§II) observes that existing
//! consolidation systems handle overload "relying on migration
//! mechanism", whereas virtual frequency capping lets the placement
//! promise be kept *on the node* by the controller. This crate implements
//! both worlds on the same simulated substrate so they can be compared:
//!
//! * [`Strategy::FrequencyControl`] — VMs are admitted under the core
//!   splitting constraint (Eq. 7); every node runs the paper's six-stage
//!   controller; no migrations are ever needed;
//! * [`Strategy::MigrationBased`] — classic overcommitment with a
//!   consolidation factor and **no** controller; overloaded nodes shed
//!   VMs via live migration (with realistic downtime), the legacy
//!   technique the paper argues against.
//!
//! The [`manager::ClusterManager`] runs either strategy over a set of
//! [`vfc_cpusched::topology::NodeSpec`]s, tracking energy, migrations and
//! per-class SLO violations ([`slo`]). A period runs faults, landings,
//! the advance of the nodes that host a VM, and the close, through the
//! manager's one period body. Two drivers enter it: the synchronous
//! [`ClusterManager::run_period`], one period per call, and the
//! discrete-event [`events::EventDrivenCluster`], which queues VM
//! arrivals, departures and one tick per period, jumps over empty
//! stretches, and replays VM lifetimes from a [`trace::TraceReader`] at
//! datacenter scale.

pub mod events;
pub mod faults;
pub mod manager;
pub mod slo;
pub mod trace;

pub use events::{EventDrivenCluster, EventStats, WorkloadFactory};

/// Does nothing. Nodes advance one after another in sorted node order;
/// there is no worker count to set. Kept with an empty body only because
/// `benchmark/`, which a change to the library may not edit, still calls
/// it in three places; it goes once a `benchmark`-only change drops those
/// calls.
pub fn set_parallelism(_threads: usize) {}
pub use faults::{FaultModel, FaultReport, RestartPolicy};
pub use manager::{
    ClusterError, ClusterManager, ClusterReport, GlobalVmId, NodeLoad, PeriodSample, PeriodUsage,
    ResizeOutcome, Strategy, VmPeriodUsage,
};
pub use slo::{SloTracker, VmSlo};
pub use trace::{CsvTraceReader, SyntheticTrace, TraceError, TraceReader, TraceVmSpec};
