#![warn(missing_docs)]

//! Foundation types shared across the `vfc` workspace.
//!
//! This crate intentionally has no dependency on the rest of the workspace.
//! It provides:
//!
//! * strongly-typed units — [`Micros`] (CPU time, the paper's *cycles*),
//!   [`MHz`] (frequency), [`Cycles`] (true hardware cycles = µs × MHz);
//! * entity identifiers — [`VmId`], [`VcpuId`], [`CpuId`], [`Tid`];
//! * a deterministic, seedable [`SplitMix64`] RNG so that every simulation
//!   in the workspace is exactly reproducible regardless of external crate
//!   versions;
//! * a fixed-capacity [`RingBuffer`] used for consumption histories;
//! * a deterministic discrete-event queue ([`EventQueue`]) ordered by
//!   `(timestamp, seqno)` — the core of the event-driven cluster
//!   simulation;
//! * [`durable`] — the one durable append log (spec log, usage ledger)
//!   and the atomic whole-file write every persisted file goes through.
//! * [`alloc_count`] — the counting global allocator the zero-allocation
//!   tests and the heap probe install.
//!
//! # Unit conventions
//!
//! Following §III.A of the paper, a *cycle* is one micro-second of CPU time
//! inside the controller period `p`: `C^MAX = p × k^CPU` (Eq. 1). True
//! hardware work is measured in [`Cycles`]: 1 µs of CPU time on a core
//! running at `f` MHz performs exactly `f` hardware cycles
//! (`10⁶ Hz × 10⁻⁶ s = 1`).

pub mod alloc_count;
pub mod durable;
pub mod events;
pub mod fasthash;
pub mod ids;
pub mod ring;
pub mod rng;
pub mod time;

pub use events::{EventQueue, Scheduled};
pub use fasthash::{FastHash, FastMap, FastSet};
pub use ids::{CpuId, Tid, VcpuAddr, VcpuId, VmId};
pub use ring::RingBuffer;
pub use rng::SplitMix64;
pub use time::{Cycles, MHz, Micros, USEC_PER_SEC};
