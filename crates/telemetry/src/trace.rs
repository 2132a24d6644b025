//! Ring-buffer trace journal: the last N iterations, span by span.
//!
//! Aggregated histograms answer "how slow is the monitor stage usually";
//! they cannot answer "what was the controller doing in the ten periods
//! before the circuit breaker tripped". The [`TraceRing`] keeps a bounded
//! window of per-iteration traces — per-stage spans, degradation flags
//! and per-VM allocations — that the daemon dumps as JSON on SIGTERM or
//! a circuit-breaker trip, turning a dead process into a post-mortem.
//! The daemon is its one owner: it fills the ring from each iteration's
//! report, outside the control loop, and a controller embedded anywhere
//! else keeps no trace.

use std::collections::VecDeque;

/// Stage names in pipeline order; index into
/// [`IterationTrace::stages_us`].
pub const STAGE_NAMES: [&str; 6] = [
    "monitor",
    "estimate",
    "enforce",
    "auction",
    "distribute",
    "apply",
];

/// One iteration's trace entry.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IterationTrace {
    /// Controller iteration counter.
    pub iteration: u64,
    /// Wall-clock time the iteration finished, ms since the Unix epoch.
    pub unix_ms: u64,
    /// Per-stage wall time, µs, in [`STAGE_NAMES`] order (length 6; a
    /// `Vec` because the vendored serde subset has no fixed-array impls).
    pub stages_us: Vec<u64>,
    /// Whole-iteration wall time, µs (≥ the sum of the stages).
    pub total_us: u64,
    /// Did anything degrade this iteration (see the controller's
    /// `HealthReport`)?
    pub degraded: bool,
    /// Final allocation per VM, µs per period, summed over its vCPUs and
    /// sorted by name.
    pub vm_alloc_us: Vec<(String, u64)>,
}

/// Bounded ring of [`IterationTrace`]s: pushing the N+1th entry drops
/// the oldest. Memory grows with the entries pushed, not with the
/// capacity asked for.
#[derive(Debug, Clone)]
pub struct TraceRing {
    cap: usize,
    buf: VecDeque<IterationTrace>,
}

/// The JSON document [`TraceRing::dump_json`] produces.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct TraceDump {
    /// Dump format version; bump on incompatible change.
    pub version: u32,
    /// Ring capacity at dump time.
    pub capacity: usize,
    /// Why the dump was taken (e.g. `"shutdown"`, `"circuit-breaker"`).
    pub reason: String,
    /// Oldest → newest traces.
    pub iterations: Vec<IterationTrace>,
}

/// Version written by [`TraceRing::dump_json`].
pub const TRACE_DUMP_VERSION: u32 = 1;

impl TraceRing {
    /// A ring holding the last `cap` iterations (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            buf: VecDeque::new(),
        }
    }

    /// Append a trace, evicting the oldest entry when full.
    pub fn push(&mut self, trace: IterationTrace) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(trace);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum entries held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Oldest → newest iterator.
    pub fn iter(&self) -> impl Iterator<Item = &IterationTrace> {
        self.buf.iter()
    }

    /// Serialize the ring (oldest → newest) as a [`TraceDump`] JSON
    /// document. `reason` records what triggered the dump.
    pub fn dump_json(&self, reason: &str) -> String {
        let dump = TraceDump {
            version: TRACE_DUMP_VERSION,
            capacity: self.cap,
            reason: reason.to_string(),
            iterations: self.buf.iter().cloned().collect(),
        };
        serde_json::to_string_pretty(&dump).expect("trace dump serialization cannot fail")
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before 1970).
pub fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(i: u64) -> IterationTrace {
        IterationTrace {
            iteration: i,
            unix_ms: 1_000 + i,
            stages_us: vec![4, 1, 1, 1, 1, 2],
            total_us: 12,
            degraded: i.is_multiple_of(2),
            vm_alloc_us: vec![("web".into(), 208_333)],
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            ring.push(trace(i));
        }
        assert_eq!(ring.len(), 3);
        let kept: Vec<u64> = ring.iter().map(|t| t.iteration).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = TraceRing::new(0);
        ring.push(trace(0));
        ring.push(trace(1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.capacity(), 1);
    }

    #[test]
    fn dump_roundtrips_through_json() {
        let mut ring = TraceRing::new(8);
        ring.push(trace(0));
        ring.push(trace(1));
        let json = ring.dump_json("circuit-breaker");
        let dump: TraceDump = serde_json::from_str(&json).unwrap();
        assert_eq!(dump.version, TRACE_DUMP_VERSION);
        assert_eq!(dump.reason, "circuit-breaker");
        assert_eq!(dump.iterations.len(), 2);
        assert_eq!(dump.iterations[0], trace(0));
        assert_eq!(dump.iterations[1].vm_alloc_us[0].0, "web");
    }
}
