//! First evaluation (§IV.A): Tables II/III, Figures 6–11.
//!
//! Two VM classes co-hosted on one node, both running `compress-7zip`:
//! *small* instances start at t = 0, *large* at t = 200 s. Scenario A
//! monitors only; scenario B runs the full controller. The expected
//! shapes:
//!
//! * **A** (Figs. 6/8): until t = 200 s smalls run at the core maximum;
//!   afterwards CFS splits per VM, so smalls (2 vCPUs) run *faster* than
//!   larges (4 vCPUs) — the inversion the paper highlights;
//! * **B** (Figs. 7/9): smalls burst to the maximum while alone, then
//!   drop to ≈500 MHz; larges hold ≈1800 MHz; small peaks appear during
//!   the larges' synchronization dips;
//! * **throughput** (Figs. 10/11): small-instance compression rates are
//!   equal in A and B for the first iterations, then B stabilizes low
//!   (guarantee) while A floats higher but unpredictably.

use crate::runner::{Scale, ScenarioOutcome, ScenarioSpec, VmGroup, WorkloadKind};
use vfc_controller::ControlMode;
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{Cycles, Micros};
use vfc_vmm::VmTemplate;

/// Which Table IV node hosts the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Table II: 20 small + 10 large.
    Chetemi,
    /// Table III: 32 small + 16 large.
    Chiclet,
}

impl NodeKind {
    /// The Table IV hardware description.
    pub fn spec(&self) -> NodeSpec {
        match self {
            NodeKind::Chetemi => NodeSpec::chetemi(),
            NodeKind::Chiclet => NodeSpec::chiclet(),
        }
    }

    /// Instance counts `(small, large)` from Tables II/III.
    pub fn counts(&self) -> (u32, u32) {
        match self {
            NodeKind::Chetemi => (20, 10),
            NodeKind::Chiclet => (32, 16),
        }
    }
}

/// Wall time at which the large instances start their workload.
pub const LARGE_START: Micros = Micros(200_000_000);

/// Total experiment duration: long enough for the small instances to
/// complete their 15 benchmark runs at the 500 MHz guarantee (the paper's
/// frequency plots show the first ~700 s; the benchmark itself runs much
/// longer — 3 runs fit the 200 s solo phase, the other 12 run throttled).
pub const DURATION: Micros = Micros(3_800_000_000);

/// Per-vCPU compression work per benchmark run, sized from Fig. 10's "the
/// first 3 iterations of the benchmark are equal in A and B": three runs
/// must fit in the 200 s uncontended phase at 2.4 GHz, so one run
/// (compress + 0.8× decompress + syncs) is ≈65 s there and ≈290 s at the
/// 500 MHz guarantee.
pub const COMPRESS_WORK: Cycles = Cycles(80_000_000_000);

fn compress() -> WorkloadKind {
    WorkloadKind::Compress7zip {
        iterations: 15,
        work_per_vcpu: COMPRESS_WORK,
        sync_len: Micros::from_secs(2),
    }
}

/// Build the scenario for one node and control mode.
pub fn spec(node: NodeKind, mode: ControlMode, scale: Scale) -> ScenarioSpec {
    let (n_small, n_large) = node.counts();
    ScenarioSpec {
        name: format!(
            "eval1-{}-{}",
            node.spec().name,
            match mode {
                ControlMode::MonitorOnly => "A",
                ControlMode::Full => "B",
            }
        ),
        node: node.spec(),
        groups: vec![
            VmGroup {
                template: VmTemplate::small(),
                instances: n_small,
                workload: compress(),
                start_at: Micros::ZERO,
            },
            VmGroup {
                template: VmTemplate::large(),
                instances: n_large,
                workload: compress(),
                start_at: LARGE_START,
            },
        ],
        duration: DURATION,
        mode,
        scale,
        seed: 0xE7A1,
    }
}

/// Run one of Figs. 6–9.
pub fn run(node: NodeKind, mode: ControlMode, scale: Scale) -> ScenarioOutcome {
    crate::runner::run(&spec(node, mode, scale))
}

/// Shape summary used by tests and the harness: mean class frequencies in
/// the contended phase (after the larges have started and ramped).
#[derive(Debug, Clone, Copy)]
pub struct ContededPhaseFreqs {
    /// Mean small-class vCPU frequency, MHz.
    pub small_mhz: f64,
    /// Mean large-class vCPU frequency, MHz.
    pub large_mhz: f64,
}

/// Mean class frequencies over the paper's visible contended window
/// ([250 s, 650 s] at full scale — after the larges' ramp, before any
/// benchmark completes).
pub fn contended_freqs(outcome: &ScenarioOutcome, scale: Scale) -> ContededPhaseFreqs {
    let from = scale.time(Micros(250_000_000));
    let to = scale.time(Micros(650_000_000));
    ContededPhaseFreqs {
        small_mhz: outcome.mean_freq_between("small", from, to),
        large_mhz: outcome.mean_freq_between("large", from, to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_and_iii_counts() {
        assert_eq!(NodeKind::Chetemi.counts(), (20, 10));
        assert_eq!(NodeKind::Chiclet.counts(), (32, 16));
        // Eq. 7 load is ≈96 % on both nodes (the paper's "equally loaded").
        for node in [NodeKind::Chetemi, NodeKind::Chiclet] {
            let (s, l) = node.counts();
            let demand = s as u64 * 1000 + l as u64 * 7200;
            let cap = node.spec().freq_capacity_mhz();
            let ratio = demand as f64 / cap as f64;
            assert!((0.95..=1.0).contains(&ratio), "{node:?}: {ratio}");
        }
    }

    /// Quick spec truncated to the first (scaled) 700 s — the window the
    /// paper's frequency figures show; keeps debug-mode tests fast.
    fn truncated_quick_spec(mode: ControlMode) -> crate::runner::ScenarioSpec {
        let mut s = spec(NodeKind::Chetemi, mode, Scale::quick());
        s.duration = Micros(700_000_000); // pre-scale → 70 iterations
        s
    }

    #[test]
    fn fig7_shape_on_chetemi_quick() {
        // Scenario B, 10× shrunk: smalls burst early, then hold ≈500 while
        // larges hold ≈1800.
        let scale = Scale::quick();
        let out = crate::runner::run(&truncated_quick_spec(ControlMode::Full));
        // Pre-contention burst: smalls well above their 500 MHz base.
        let early = out.mean_freq_between("small", Micros::from_secs(10), Micros::from_secs(20));
        assert!(early > 1500.0, "small burst phase too slow: {early}");
        let freqs = contended_freqs(&out, scale);
        assert!(
            (400.0..800.0).contains(&freqs.small_mhz),
            "small plateau {} ∉ [400, 800) — ≈500 MHz plus the peaks the \
             larges' sync dips release (which quick scale amplifies)",
            freqs.small_mhz
        );
        assert!(
            freqs.large_mhz > 1500.0,
            "large plateau {} < 1500",
            freqs.large_mhz
        );
    }

    #[test]
    fn fig6_shape_on_chetemi_quick() {
        // Scenario A: after the larges start, CFS inverts the classes —
        // small vCPUs run faster than large vCPUs.
        let scale = Scale::quick();
        let out = crate::runner::run(&truncated_quick_spec(ControlMode::MonitorOnly));
        let freqs = contended_freqs(&out, scale);
        assert!(
            freqs.small_mhz > freqs.large_mhz,
            "scenario A should favour smalls: small {} vs large {}",
            freqs.small_mhz,
            freqs.large_mhz
        );
    }
}
