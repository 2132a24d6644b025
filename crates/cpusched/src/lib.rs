#![warn(missing_docs)]

//! Host CPU substrate: everything below the cgroup interface.
//!
//! The paper runs on bare-metal Linux; this crate recreates the pieces of
//! that stack the virtual frequency controller interacts with, directly or
//! through side effects:
//!
//! * [`topology`] — SMT CPU topology ([`topology::NodeSpec`]) with the two
//!   Grid'5000 nodes from Table IV (*chetemi*, *chiclet*) as presets;
//! * [`fair`] — weighted water-filling fair share, the analytical core of
//!   a CFS-like scheduler: work-conserving, cap-respecting, weight-
//!   proportional;
//! * [`engine`] — the per-tick scheduling engine: hierarchical fair share
//!   over a cgroup tree with `cpu.max` quota throttling, thread→core
//!   placement, per-thread work accounting in hardware cycles;
//! * [`place`] — sticky thread placement (highly-loaded threads migrate
//!   rarely — the assumption §III.B.1 of the paper relies on);
//! * [`dvfs`] — frequency governors with seeded measurement noise
//!   (reproducing the paper's 16–150 MHz core-frequency variance);
//! * [`power`] — a standard idle+dynamic node power model used by the
//!   placement evaluation.

pub mod dvfs;
pub mod engine;
pub mod fair;
#[cfg(test)]
mod oracle;
pub mod place;
pub mod power;
pub mod topology;

pub use dvfs::{Governor, GovernorKind};
pub use engine::{Engine, SlotTick, ThreadSlice, TickOutcome};
pub use topology::NodeSpec;
