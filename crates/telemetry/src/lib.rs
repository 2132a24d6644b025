#![warn(missing_docs)]

//! Telemetry substrate for the virtual frequency controller.
//!
//! The paper sells the controller on its negligible per-period overhead
//! (§IV.A.2: ≈5 ms of a 1 s period, ≈4 ms of it monitoring); this crate
//! makes that claim — and the market's behaviour — continuously
//! observable in production instead of anecdotal:
//!
//! * [`hist`] — fixed-bucket latency [histograms](hist::Histogram)
//!   (p50/p95/p99/max) cheap enough to wrap every stage of every
//!   iteration: observing is a binary search plus integer adds, with no
//!   allocation in steady state;
//! * [`registry`] — a [`registry::Registry`] of counters, gauges and
//!   histogram families behind copyable handles, mutated by index (no
//!   hashing on the hot path);
//! * [`expose`] — Prometheus text-format [rendering](expose::render)
//!   and the [scrape endpoint](expose::MetricsServer);
//! * [`http`] — the one std-only HTTP [listener](http::Listener), which
//!   the scrape endpoint and the control-plane API both bind;
//! * [`trace`] — a ring-buffer [trace journal](trace::TraceRing) of the
//!   last N iterations, kept by the daemon and dumped as JSON for
//!   post-mortems when it dies or trips its circuit breaker.
//!
//! Everything is integer-valued (µs and event counts) end to end, so an
//! exposition can never contain `NaN`; durations render in seconds via
//! exact decimal-string arithmetic. See `docs/OBSERVABILITY.md` for the
//! full metric reference.

pub mod expose;
pub mod hist;
pub mod http;
pub mod registry;
pub mod trace;

pub use expose::{render, MetricsServer};
pub use hist::{HistSnapshot, Histogram, LATENCY_BUCKETS_US};
pub use registry::{Kind, MetricId, Registry};
pub use trace::{IterationTrace, TraceDump, TraceRing, STAGE_NAMES, TRACE_DUMP_VERSION};
