//! Demand-trace capture and replay.
//!
//! Wrap any workload in a [`RecordingWorkload`] to capture the per-tick,
//! per-vCPU demand it produced; the resulting [`DemandTrace`] serializes
//! to CSV and replays bit-identically through a [`ReplayWorkload`]. This
//! is how production traces (e.g. from a real host's monitoring) are fed
//! to the simulator, and how any simulated run can be frozen into a
//! regression fixture.

use super::{Workload, WorkloadEvent};
use vfc_simcore::{Cycles, Micros};

/// A captured demand trace: `ticks × vcpus` fractions in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DemandTrace {
    per_tick: Vec<Vec<f64>>,
}

impl DemandTrace {
    /// Recorded ticks.
    pub fn len(&self) -> usize {
        self.per_tick.len()
    }

    /// Any ticks recorded?
    pub fn is_empty(&self) -> bool {
        self.per_tick.is_empty()
    }

    /// vCPU count of the trace (0 for an empty trace).
    pub fn vcpus(&self) -> usize {
        self.per_tick.first().map(|v| v.len()).unwrap_or(0)
    }

    /// Serialize as CSV: one row per tick, one column per vCPU.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        if let Some(first) = self.per_tick.first() {
            let header: Vec<String> = (0..first.len()).map(|j| format!("vcpu{j}")).collect();
            out.push_str(&header.join(","));
            out.push('\n');
        }
        for row in &self.per_tick {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Parse the CSV produced by [`DemandTrace::to_csv`].
    pub fn from_csv(content: &str) -> Result<DemandTrace, String> {
        let mut per_tick = Vec::new();
        let mut width = None;
        for (i, line) in content.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (i == 0 && line.starts_with("vcpu")) {
                continue;
            }
            let row: Result<Vec<f64>, _> =
                line.split(',').map(|c| c.trim().parse::<f64>()).collect();
            let row = row.map_err(|e| format!("line {}: {e}", i + 1))?;
            if let Some(w) = width {
                if row.len() != w {
                    return Err(format!(
                        "line {}: expected {w} columns, got {}",
                        i + 1,
                        row.len()
                    ));
                }
            } else {
                width = Some(row.len());
            }
            per_tick.push(row);
        }
        Ok(DemandTrace { per_tick })
    }

    /// Build a replayer over this trace.
    pub fn replay(self) -> ReplayWorkload {
        ReplayWorkload {
            trace: self,
            pos: 0,
        }
    }
}

/// Wraps a workload and records every demand vector it emits.
pub struct RecordingWorkload {
    inner: Box<dyn Workload>,
    trace: DemandTrace,
}

impl RecordingWorkload {
    /// Wrap a workload, recording everything it demands.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        RecordingWorkload {
            inner,
            trace: DemandTrace::default(),
        }
    }

    /// The trace captured so far.
    pub fn trace(&self) -> &DemandTrace {
        &self.trace
    }
}

impl Workload for RecordingWorkload {
    fn demand(&mut self, now: Micros, vcpus: u32) -> Vec<f64> {
        let d = self.inner.demand(now, vcpus);
        self.trace.per_tick.push(d.clone());
        d
    }

    fn deliver(&mut self, now: Micros, delivered: &[Cycles]) {
        self.inner.deliver(now, delivered);
    }

    fn poll_events(&mut self) -> Vec<WorkloadEvent> {
        self.inner.poll_events()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

/// Replays a [`DemandTrace`] tick by tick; zero demand once exhausted.
#[derive(Debug, Clone)]
pub struct ReplayWorkload {
    trace: DemandTrace,
    pos: usize,
}

impl Workload for ReplayWorkload {
    fn demand(&mut self, _now: Micros, vcpus: u32) -> Vec<f64> {
        let row = self.trace.per_tick.get(self.pos);
        self.pos += 1;
        match row {
            Some(row) => {
                let mut d: Vec<f64> = row.clone();
                d.resize(vcpus as usize, 0.0);
                d.truncate(vcpus as usize);
                d
            }
            None => vec![0.0; vcpus as usize],
        }
    }

    fn deliver(&mut self, _now: Micros, _delivered: &[Cycles]) {}

    fn is_done(&self) -> bool {
        self.pos >= self.trace.len()
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::super::{BurstyWeb, SteadyDemand};
    use super::*;

    #[test]
    fn records_what_the_inner_workload_demands() {
        let mut rec = RecordingWorkload::new(Box::new(SteadyDemand::new(0.4)));
        for t in 0..5u64 {
            let d = rec.demand(Micros(t * 100_000), 2);
            assert_eq!(d, vec![0.4, 0.4]);
        }
        let trace = rec.trace;
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.vcpus(), 2);
    }

    #[test]
    fn csv_roundtrip() {
        let mut rec = RecordingWorkload::new(Box::new(BurstyWeb::new(7)));
        for t in 0..50u64 {
            rec.demand(Micros(t * 100_000), 3);
        }
        let trace = rec.trace;
        let csv = trace.to_csv();
        let back = DemandTrace::from_csv(&csv).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn replay_reproduces_the_recording_exactly() {
        // Record a seeded bursty workload, replay it, and compare the
        // demand streams tick for tick.
        let mut original = BurstyWeb::new(3);
        let mut rec = RecordingWorkload::new(Box::new(BurstyWeb::new(3)));
        let mut demands_orig = Vec::new();
        let mut demands_rec = Vec::new();
        for t in 0..100u64 {
            let now = Micros(t * 100_000);
            demands_orig.push(original.demand(now, 2));
            demands_rec.push(rec.demand(now, 2));
        }
        assert_eq!(demands_orig, demands_rec, "same seed, same stream");

        let mut replay = rec.trace.replay();
        for (t, expected) in demands_orig.iter().enumerate() {
            let d = replay.demand(Micros(t as u64 * 100_000), 2);
            assert_eq!(&d, expected, "tick {t}");
        }
        assert!(replay.is_done());
        assert_eq!(replay.demand(Micros::ZERO, 2), vec![0.0, 0.0]);
    }

    #[test]
    fn replay_adapts_to_vcpu_count_mismatch() {
        let trace = DemandTrace {
            per_tick: vec![vec![0.5, 0.6]],
        };
        let mut r = trace.clone().replay();
        assert_eq!(r.demand(Micros::ZERO, 3), vec![0.5, 0.6, 0.0]);
        let mut r = trace.replay();
        assert_eq!(r.demand(Micros::ZERO, 1), vec![0.5]);
    }

    #[test]
    fn csv_parser_rejects_ragged_and_junk_rows() {
        assert!(DemandTrace::from_csv("vcpu0,vcpu1\n0.5,0.5\n0.5\n").is_err());
        assert!(DemandTrace::from_csv("vcpu0\nhello\n").is_err());
        assert!(DemandTrace::from_csv("").unwrap().is_empty());
    }
}
