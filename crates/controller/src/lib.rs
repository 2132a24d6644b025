#![warn(missing_docs)]

//! The virtual frequency controller (§III of the paper).
//!
//! A feedback control loop, triggered every period `p`, that guarantees
//! each VM the virtual frequency of its template while letting VMs burst
//! above it when spare cycles exist. The six stages of Fig. 2:
//!
//! | stage | module | paper reference |
//! |---|---|---|
//! | 1. Monitor vCPU consumption | [`monitor`] | §III.B.1 |
//! | 2. Estimate upcoming utilization | [`estimate`] | §III.B.2, Eq. 3, Figs. 3–5 |
//! | 3. Enforce guaranteed cycles + credits | [`credits`] | §III.B.3, Eqs. 4–5 |
//! | 4. Auction spare cycles | [`auction`] | §III.B.4, Eq. 6, Alg. 1 |
//! | 5. Distribute unsold cycles | [`distribute`] | §III.B.5 |
//! | 6. Apply `cpu.max` capping | [`apply`] | §III.B.6 |
//!
//! The loop is generic over [`vfc_cgroupfs::HostBackend`], so the same
//! controller drives the simulated host (`vfc_vmm::SimHost`) and a real
//! cgroup-v2 machine (`vfc_cgroupfs::fs::FsBackend`).
//!
//! ```
//! use vfc_controller::{Controller, ControllerConfig, ControlMode};
//! use vfc_cpusched::topology::NodeSpec;
//! use vfc_simcore::MHz;
//! use vfc_vmm::{SimHost, VmTemplate, workload::SteadyDemand};
//!
//! let mut host = SimHost::new(NodeSpec::custom("n", 1, 2, 2, MHz(2400)), 1);
//! let vm = host.provision(&VmTemplate::new("web", 1, MHz(800)));
//! host.attach_workload(vm, Box::new(SteadyDemand::full()));
//!
//! let mut ctl = Controller::new(ControllerConfig::paper_defaults(), host.topology_info());
//! for _ in 0..10 {
//!     host.advance_period();
//!     let report = ctl.iterate(&mut host).unwrap();
//!     assert!(report.timings.total.as_micros() < 1_000_000);
//! }
//! ```

pub mod apply;
pub mod auction;
pub mod config;
pub mod controller;
pub mod credits;
pub mod distribute;
pub mod estimate;
pub mod monitor;
pub mod persist;
pub mod telemetry;
pub mod vfreq;

pub use config::{ControlMode, ControllerConfig};
pub use controller::{
    Controller, CreditFlow, HealthReport, HealthTotals, IterationReport, LadderRung, LeaseState,
    Plan, StageTimings, VcpuReport,
};
pub use monitor::MonitorOutcome;
pub use persist::{Journal, LoadOutcome, JOURNAL_VERSION};
pub use telemetry::{ControllerMetrics, Stage};
pub use vfreq::{cycles_to_freq, guaranteed_cycles};
pub mod daemon;
