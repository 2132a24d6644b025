#![warn(missing_docs)]

//! Multi-tenant control plane for the vfc cluster.
//!
//! The paper's controller keeps per-node promises (Eq. 2–4) and its
//! placement keeps per-node feasibility (Eq. 7); this crate adds the
//! missing cloud-provider layer on top: **who** may ask for VMs, **how
//! much**, and **how** the cluster is made to match what they asked for.
//!
//! * [`spec`] — a declarative desired-state store: customers create,
//!   live-resize (`F_v`) and delete VM specs; every accepted mutation is
//!   an event in an append-only, generation-numbered log that persists
//!   atomically and replays after a crash;
//! * [`quota`] — per-tenant ceilings (VMs, vCPUs, total `Σ k_v·F_v`
//!   MHz) and a deterministic per-tenant token-bucket rate limiter;
//! * [`admission`] — the [`ControlPlane`]:
//!   every mutation is validated (shape → rate → quota → a
//!   first-fit-decreasing Eq. 7 feasibility pack over the up nodes)
//!   before it may enter the desired state; rejections are typed
//!   [`AdmissionError`]s, never panics;
//! * [`reconcile`] — the [`Reconciler`] diffs
//!   desired vs observed each period and drives the
//!   [`ClusterManager`](vfc_cluster::ClusterManager): bounded actions
//!   per period, retry-with-backoff on transient errors, live resizes
//!   that fall back to migration when the current node cannot absorb
//!   the new frequency;
//! * [`api`] — a std-only HTTP/JSON front end
//!   ([`ApiServer`]) exposing create / resize / delete /
//!   usage / health, plus the control plane's own Prometheus page;
//! * [`telemetry`] — admission and reconcile metric families
//!   ([`ControlPlaneMetrics`]).
//!
//! See `docs/CONTROLPLANE.md` for the architecture walk-through and
//! `examples/control_plane.rs` for an end-to-end two-tenant session.

pub mod admission;
pub mod api;
pub mod billing;
pub mod quota;
pub mod reconcile;
pub mod spec;
pub mod telemetry;

pub use admission::{AdmissionError, ControlPlane, RateLimit};
pub use api::{ApiServer, ApiServerConfig, ControlPlaneRuntime};
pub use billing::{aggregate_usage, spec_audit};
pub use quota::{TenantQuota, TenantUsage, TokenBucket};
pub use reconcile::{Binding, ReconcileSummary, Reconciler, ReconcilerConfig, WorkloadFactory};
pub use spec::{SpecEvent, SpecId, SpecStore, VmSpec};
pub use telemetry::{ActionKind, ControlPlaneMetrics, ShedReason, ACTION_LABELS, SHED_LABELS};
