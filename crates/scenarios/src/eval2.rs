//! Second evaluation (§IV.B): Table V, Figures 12–14.
//!
//! Three classes on *chetemi*: 14 small (compress-7zip, t = 0), 8 medium
//! (openssl, t = 100 s, 4 vCPUs @ 1200 MHz), 6 large (compress-7zip,
//! t = 200 s). Expected shapes:
//!
//! * **A** (Fig. 12): smalls fastest; medium = large (CFS per-VM shares);
//! * **B** (Fig. 13): plateaus at ≈500/1200/1800 MHz; when the openssl
//!   run of the mediums completes, the freed cycles lift smalls and
//!   larges.

use crate::runner::{Scale, ScenarioOutcome, ScenarioSpec, VmGroup, WorkloadKind};
use vfc_controller::ControlMode;
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{Cycles, Micros};
use vfc_vmm::VmTemplate;

/// Start of the medium (openssl) workload.
pub const MEDIUM_START: Micros = Micros(100_000_000);
/// Start of the large workload.
pub const LARGE_START: Micros = Micros(200_000_000);
/// Experiment duration.
pub const DURATION: Micros = Micros(700_000_000);

/// openssl work per vCPU, sized so the medium instances — which burst to
/// ≈2.4 GHz while alone with the smalls (t ∈ [100, 200] s) and then hold
/// their 1200 MHz guarantee — finish around t ≈ 430 s, making Fig. 13's
/// cycle release visible well before the end of the run.
pub const OPENSSL_WORK: Cycles = Cycles(400_000_000_000);

/// Table V instance counts: (small, medium, large).
pub const COUNTS: (u32, u32, u32) = (14, 8, 6);

/// Build the Table V scenario.
pub fn spec(mode: ControlMode, scale: Scale) -> ScenarioSpec {
    let (n_small, n_medium, n_large) = COUNTS;
    ScenarioSpec {
        name: format!(
            "eval2-chetemi-{}",
            match mode {
                ControlMode::MonitorOnly => "A",
                ControlMode::Full => "B",
            }
        ),
        node: NodeSpec::chetemi(),
        groups: vec![
            VmGroup {
                template: VmTemplate::small(),
                instances: n_small,
                workload: WorkloadKind::Compress7zip {
                    iterations: 15,
                    work_per_vcpu: crate::eval1::COMPRESS_WORK,
                    sync_len: Micros::from_secs(2),
                },
                start_at: Micros::ZERO,
            },
            VmGroup {
                template: VmTemplate::medium(),
                instances: n_medium,
                workload: WorkloadKind::Openssl {
                    work_per_vcpu: OPENSSL_WORK,
                },
                start_at: MEDIUM_START,
            },
            VmGroup {
                template: VmTemplate::large(),
                instances: n_large,
                workload: WorkloadKind::Compress7zip {
                    iterations: 15,
                    work_per_vcpu: crate::eval1::COMPRESS_WORK,
                    sync_len: Micros::from_secs(2),
                },
                start_at: LARGE_START,
            },
        ],
        duration: DURATION,
        mode,
        scale,
        seed: 0xBEE2,
    }
}

/// Run Fig. 12 (A) or Fig. 13 (B).
pub fn run(mode: ControlMode, scale: Scale) -> ScenarioOutcome {
    crate::runner::run(&spec(mode, scale))
}

/// When (post-scale) did the last medium instance finish its openssl run?
pub fn medium_finish_time(outcome: &ScenarioOutcome) -> Option<Micros> {
    outcome
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                vfc_vmm::workload::WorkloadEvent::Finished {
                    benchmark: "openssl"
                }
            )
        })
        .map(|e| e.at)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_is_within_eq7() {
        let (s, m, l) = COUNTS;
        let demand = s as u64 * 1000 + m as u64 * 4800 + l as u64 * 7200;
        assert_eq!(demand, 95_600);
        assert!(demand <= NodeSpec::chetemi().freq_capacity_mhz());
    }

    #[test]
    fn fig13_three_plateaus_and_release_quick() {
        let scale = Scale::quick();
        let out = run(ControlMode::Full, scale);
        // All three classes contending: after the larges' ramp (they
        // start at 20 s post-scale; the guarantee-first ramp reaches
        // 1800 MHz within a few periods) and before the mediums finish
        // their openssl run (≈34 s at quick scale).
        let from = Micros::from_secs(25);
        let to = Micros::from_secs(32);
        let small = out.mean_freq_between("small", from, to);
        let medium = out.mean_freq_between("medium", from, to);
        let large = out.mean_freq_between("large", from, to);
        assert!(
            small < medium && medium < large,
            "plateau ordering violated: {small} / {medium} / {large}"
        );
        assert!((350.0..750.0).contains(&small), "small plateau {small}");
        assert!(
            (1000.0..1500.0).contains(&medium),
            "medium plateau {medium}"
        );
        assert!((1500.0..2100.0).contains(&large), "large plateau {large}");

        // After the mediums finish, smalls and larges must rise.
        let finish = medium_finish_time(&out).expect("openssl should finish");
        let end = scale.time(DURATION);
        if finish + Micros::from_secs(5) < end {
            let small_after = out.mean_freq_between("small", finish + Micros::from_secs(2), end);
            assert!(
                small_after > small + 50.0,
                "small should rise after medium release: {small} → {small_after}"
            );
        }
    }

    #[test]
    fn fig12_scenario_a_ordering_quick() {
        let out = run(ControlMode::MonitorOnly, Scale::quick());
        let from = Micros::from_secs(25);
        let to = Micros::from_secs(32);
        let small = out.mean_freq_between("small", from, to);
        let medium = out.mean_freq_between("medium", from, to);
        let large = out.mean_freq_between("large", from, to);
        // Paper: smalls fastest; medium ≈ large (same vCPU count).
        assert!(
            small > medium && small > large,
            "{small} / {medium} / {large}"
        );
        let ratio = medium / large;
        assert!(
            (0.8..1.25).contains(&ratio),
            "medium and large should be ≈equal in A: {medium} vs {large}"
        );
    }
}
