//! Guest workload models.
//!
//! A [`Workload`] is the guest-side behaviour of a VM: every tick it
//! declares how much CPU each vCPU *wants* (a demand fraction), and after
//! the host has scheduled the tick it is told how many hardware cycles
//! each vCPU actually *performed*, so its progress depends on both the
//! CPU-time share it received and the frequency of the cores it ran on —
//! exactly the two quantities the paper's controller trades off.
//!
//! Implementations:
//!
//! * [`Compress7zip`] — the Phoronix `compress-7zip` benchmark model:
//!   15 timed iterations of parallel compression + decompression with
//!   short synchronization dips between phases (the demand dips visible
//!   in Figs. 6–9 of the paper);
//! * [`OpensslBench`] — the Phoronix `openssl` model: saturating compute
//!   until a fixed amount of work completes (the medium instances of
//!   Table V that finish and release their cycles);
//! * [`SteadyDemand`], [`IdleWorkload`], [`TraceWorkload`],
//!   [`BurstyWeb`] — synthetic building blocks for tests, ablations and
//!   the burst-credit example.

mod bursty;
mod compress7zip;
mod mapreduce;
mod openssl;

pub use bursty::BurstyWeb;
pub use compress7zip::Compress7zip;
pub use mapreduce::MapReduce;
pub use openssl::OpensslBench;

use vfc_simcore::{Cycles, Micros, SplitMix64};

/// The guest profile of each VM class of the cluster, trace and overload
/// evaluations: `small` = bursty web (60 s period, 8 s bursts, one draw
/// from `rng` for its phase), `medium` = steady 80 %, anything else =
/// saturating.
pub fn class_workload(class: &str, rng: &mut SplitMix64) -> Box<dyn Workload> {
    match class {
        "small" => Box::new(BurstyWeb::with_shape(
            rng.next_u64(),
            0.05,
            1.0,
            Micros::from_secs(60),
            Micros::from_secs(8),
        )),
        "medium" => Box::new(SteadyDemand::new(0.8)),
        _ => Box::new(SteadyDemand::full()),
    }
}

/// Benchmark phase that completed (for throughput reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// 7-Zip compression pass.
    Compress,
    /// 7-Zip decompression pass.
    Decompress,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Compress => write!(f, "compress"),
            Phase::Decompress => write!(f, "decompress"),
        }
    }
}

/// Something a workload wants to report upward (benchmark results).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadEvent {
    /// A timed benchmark iteration finished.
    IterationCompleted {
        /// Benchmark name (e.g. `compress-7zip`).
        benchmark: &'static str,
        /// Which pass completed.
        phase: Phase,
        /// 1-based iteration index.
        iteration: u32,
        /// Throughput in MIPS-like units: hardware mega-cycles per
        /// wall-clock second (what the Phoronix rating is proportional
        /// to).
        rate: f64,
        /// Wall-clock duration of the iteration.
        duration: Micros,
    },
    /// The whole workload is done; the VM goes idle.
    /// The whole workload is done; the VM goes idle.
    Finished {
        /// Benchmark name.
        benchmark: &'static str,
    },
}

/// Guest workload behaviour. See module docs for the tick protocol.
///
/// `Send + Sync` so a [`crate::SimHost`] holding boxed workloads is
/// itself `Sync` (`&SimHost` may cross threads); all methods still take
/// `&mut self`, so workload state is only ever mutated from the
/// simulation thread.
pub trait Workload: Send + Sync {
    /// Demand fraction in `[0, 1]` for each of the `vcpus` vCPUs during
    /// the tick starting at `now`.
    fn demand(&mut self, now: Micros, vcpus: u32) -> Vec<f64>;

    /// Like [`Workload::demand`], but written into a caller-owned buffer
    /// (cleared first). The host calls this once per VM per tick; the
    /// hot-path workloads override it so the steady-state tick performs
    /// no per-VM allocation. Overrides must produce the same values (and
    /// draw from any internal RNG in the same order) as
    /// [`Workload::demand`].
    fn demand_into(&mut self, now: Micros, vcpus: u32, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.demand(now, vcpus));
    }

    /// Account the work each vCPU performed during the tick that just
    /// ended at `now` (`delivered[j]` = hardware cycles of vCPU j).
    fn deliver(&mut self, now: Micros, delivered: &[Cycles]);

    /// Drain pending events (benchmark iteration results, completion).
    fn poll_events(&mut self) -> Vec<WorkloadEvent> {
        Vec::new()
    }

    /// `true` once the workload will never demand CPU again.
    fn is_done(&self) -> bool {
        false
    }

    /// Short label for reporting.
    fn name(&self) -> &'static str;
}

/// Constant demand on every vCPU, forever.
#[derive(Debug, Clone)]
pub struct SteadyDemand {
    frac: f64,
}

impl SteadyDemand {
    /// Constant fractional demand (clamped to `[0, 1]`).
    pub fn new(frac: f64) -> Self {
        SteadyDemand {
            frac: frac.clamp(0.0, 1.0),
        }
    }

    /// 100 % demand: a fully CPU-bound guest.
    pub fn full() -> Self {
        SteadyDemand::new(1.0)
    }
}

impl Workload for SteadyDemand {
    fn demand(&mut self, _now: Micros, vcpus: u32) -> Vec<f64> {
        vec![self.frac; vcpus as usize]
    }

    fn demand_into(&mut self, _now: Micros, vcpus: u32, out: &mut Vec<f64>) {
        out.clear();
        out.resize(vcpus as usize, self.frac);
    }

    fn deliver(&mut self, _now: Micros, _delivered: &[Cycles]) {}

    fn name(&self) -> &'static str {
        "steady"
    }
}

/// A VM that never demands CPU.
#[derive(Debug, Clone, Default)]
pub struct IdleWorkload;

impl Workload for IdleWorkload {
    fn demand(&mut self, _now: Micros, vcpus: u32) -> Vec<f64> {
        vec![0.0; vcpus as usize]
    }

    fn demand_into(&mut self, _now: Micros, vcpus: u32, out: &mut Vec<f64>) {
        out.clear();
        out.resize(vcpus as usize, 0.0);
    }

    fn deliver(&mut self, _now: Micros, _delivered: &[Cycles]) {}

    fn is_done(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "idle"
    }
}

/// Replay an explicit per-tick demand trace (all vCPUs identical).
///
/// After the trace is exhausted the last value holds (or 0 for an empty
/// trace). Used heavily by the estimator tests and the Fig. 3–5
/// reproductions, which need exact demand staircases.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    trace: Vec<f64>,
    pos: usize,
    hold_last: bool,
}

impl TraceWorkload {
    /// Trace that holds its last value forever.
    pub fn new(trace: Vec<f64>) -> Self {
        TraceWorkload {
            trace,
            pos: 0,
            hold_last: true,
        }
    }

    /// Trace that drops to zero demand when exhausted.
    pub fn once(trace: Vec<f64>) -> Self {
        TraceWorkload {
            trace,
            pos: 0,
            hold_last: false,
        }
    }
}

impl Workload for TraceWorkload {
    fn demand(&mut self, now: Micros, vcpus: u32) -> Vec<f64> {
        let mut out = Vec::new();
        self.demand_into(now, vcpus, &mut out);
        out
    }

    fn demand_into(&mut self, _now: Micros, vcpus: u32, out: &mut Vec<f64>) {
        let v = if self.pos < self.trace.len() {
            let v = self.trace[self.pos];
            self.pos += 1;
            v
        } else if self.hold_last {
            self.trace.last().copied().unwrap_or(0.0)
        } else {
            0.0
        };
        out.clear();
        out.resize(vcpus as usize, v.clamp(0.0, 1.0));
    }

    fn deliver(&mut self, _now: Micros, _delivered: &[Cycles]) {}

    fn is_done(&self) -> bool {
        !self.hold_last && self.pos >= self.trace.len()
    }

    fn name(&self) -> &'static str {
        "trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_demand_is_constant() {
        let mut w = SteadyDemand::new(0.7);
        assert_eq!(w.demand(Micros::ZERO, 3), vec![0.7, 0.7, 0.7]);
        assert_eq!(w.demand(Micros::SEC, 3), vec![0.7, 0.7, 0.7]);
        assert!(!w.is_done());
        assert!(w.poll_events().is_empty());
    }

    #[test]
    fn steady_demand_clamps() {
        let mut w = SteadyDemand::new(3.0);
        assert_eq!(w.demand(Micros::ZERO, 1), vec![1.0]);
        let mut w = SteadyDemand::new(-1.0);
        assert_eq!(w.demand(Micros::ZERO, 1), vec![0.0]);
    }

    #[test]
    fn idle_demands_nothing() {
        let mut w = IdleWorkload;
        assert_eq!(w.demand(Micros::ZERO, 2), vec![0.0, 0.0]);
        assert!(w.is_done());
    }

    #[test]
    fn trace_replays_then_holds() {
        let mut w = TraceWorkload::new(vec![0.1, 0.9]);
        assert_eq!(w.demand(Micros::ZERO, 1), vec![0.1]);
        assert_eq!(w.demand(Micros::ZERO, 1), vec![0.9]);
        assert_eq!(w.demand(Micros::ZERO, 1), vec![0.9]);
        assert!(!w.is_done());
    }

    #[test]
    fn trace_once_finishes() {
        let mut w = TraceWorkload::once(vec![1.0]);
        assert!(!w.is_done());
        assert_eq!(w.demand(Micros::ZERO, 1), vec![1.0]);
        assert_eq!(w.demand(Micros::ZERO, 1), vec![0.0]);
        assert!(w.is_done());
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Compress.to_string(), "compress");
        assert_eq!(Phase::Decompress.to_string(), "decompress");
    }
}
