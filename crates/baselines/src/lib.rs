#![warn(missing_docs)]

//! Baseline vCPU-management policies from the paper's state of the art
//! (§II), implemented over the same [`vfc_cgroupfs::HostBackend`] as the
//! virtual frequency controller so all three can be compared head-to-head
//! on identical hosts:
//!
//! * [`burstvm::BurstVmPolicy`] — the public-cloud **Burst VM** model
//!   (EC2 t-instances / Azure B-series): a fixed low baseline share, a
//!   credit meter, and a *binary* cap toggle (uncapped while credits
//!   last, hard-capped at the baseline otherwise);
//! * [`vmdfs::VmdfsPolicy`] — a **VMDFS-style** predictive controller
//!   (\[21\] in the paper): per-VM utilization prediction drives the caps,
//!   every VM has the same priority, and there is no market for spare
//!   cycles;
//! * [`shares::CfsSharesPolicy`] — static `cpu.weight` proportional to
//!   the purchased capacity: the "just use CFS shares" strawman, which
//!   delivers ratios but neither caps, credits, nor predictability.
//!
//! The [`policy::HostPolicy`] trait unifies them with the paper's
//! controller (which implements it directly) for the comparison scenarios
//! in `vfc-scenarios::baseline_eval`.

pub mod burstvm;
pub mod policy;
pub mod shares;
pub mod vmdfs;

pub use burstvm::{BurstVmConfig, BurstVmPolicy};
pub use policy::HostPolicy;
pub use shares::{CfsSharesPolicy, SharesConfig};
pub use vmdfs::{VmdfsConfig, VmdfsPolicy};
