//! Cluster-scale comparison: frequency-controlled consolidation vs the
//! migration-based overcommitment of the state of the art (§II / §IV.C's
//! closing argument: *"this would reduce the performances of the VM
//! instances (or trigger migrations, and thus use more nodes in the
//! end)"*).
//!
//! Both strategies receive the same VM stream on the same 22-node paper
//! cluster and run for the same wall time; we compare nodes used, energy,
//! migrations and SLO violations.

use serde::{Deserialize, Serialize};
use vfc_cluster::{ClusterManager, ClusterReport, Strategy};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::cluster::Cluster;
use vfc_simcore::SplitMix64;
use vfc_vmm::workload::class_workload;
use vfc_vmm::VmTemplate;

/// Workload mix parameters (defaults follow §IV.C's VM counts, with
/// demand profiles assigned per class: small = bursty web, medium =
/// steady 80 %, large = saturating).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterScenario {
    /// Small (bursty web) instances.
    pub smalls: u32,
    /// Medium (steady 80 %) instances.
    pub mediums: u32,
    /// Large (saturating) instances.
    pub larges: u32,
    /// Cluster periods to run.
    pub periods: u32,
    /// Deterministic seed for workload phases and node streams.
    pub seed: u64,
}

impl Default for ClusterScenario {
    fn default() -> Self {
        ClusterScenario {
            smalls: 250,
            mediums: 50,
            larges: 100,
            periods: 120,
            seed: 0xC1u64,
        }
    }
}

impl ClusterScenario {
    /// A shrunk variant for debug-mode tests. Sized so the ×1.8 baseline
    /// has headroom to migrate into (≈60 % of its vCPU capacity asked):
    /// 24 + 16 + 24 = 64 vCPUs on 6 × 8-thread nodes (84 vCPU cap).
    pub fn quick() -> Self {
        ClusterScenario {
            smalls: 12,
            mediums: 4,
            larges: 6,
            periods: 40,
            seed: 0xC1u64,
        }
    }
}

/// Run one strategy over the scenario, returning the manager for further
/// inspection (history, per-VM queries).
pub fn run_strategy_manager(
    scenario: ClusterScenario,
    nodes: Vec<NodeSpec>,
    strategy: Strategy,
) -> ClusterManager {
    let mut manager = ClusterManager::new(nodes, strategy, scenario.seed);
    let mut rng = SplitMix64::new(scenario.seed ^ 0xFEED);
    let mut deploy = |template: &VmTemplate, count: u32, manager: &mut ClusterManager| {
        for _ in 0..count {
            let w = class_workload(&template.name, &mut rng);
            let _ = manager.deploy(template, w); // rejections counted inside
        }
    };
    deploy(&VmTemplate::small(), scenario.smalls, &mut manager);
    deploy(&VmTemplate::medium(), scenario.mediums, &mut manager);
    deploy(&VmTemplate::large(), scenario.larges, &mut manager);

    for _ in 0..scenario.periods {
        manager.run_period();
    }
    manager
}

/// Run one strategy over the scenario.
pub fn run_strategy(
    scenario: ClusterScenario,
    nodes: Vec<NodeSpec>,
    strategy: Strategy,
) -> ClusterReport {
    run_strategy_manager(scenario, nodes, strategy).report()
}

/// All three strategies on the paper cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterComparison {
    /// Eq. 7 admission + paper controller.
    pub frequency: ClusterReport,
    /// Frequency control + the throttle-aware estimation extension.
    pub frequency_ta: ClusterReport,
    /// Core-count ×1.8 admission + live migration.
    pub migration: ClusterReport,
}

/// Run all three strategies on the paper cluster.
pub fn compare(scenario: ClusterScenario) -> ClusterComparison {
    let cluster = Cluster::paper_cluster();
    ClusterComparison {
        frequency: run_strategy(scenario, cluster.nodes.clone(), Strategy::FrequencyControl),
        frequency_ta: run_strategy(
            scenario,
            cluster.nodes.clone(),
            Strategy::FrequencyControlThrottleAware,
        ),
        migration: run_strategy(scenario, cluster.nodes, Strategy::migration_default()),
    }
}

/// Violation rate of one class in a report (0 when absent).
pub fn class_violation_rate(report: &ClusterReport, class: &str) -> f64 {
    report
        .slo_by_class
        .iter()
        .find(|(c, _)| c == class)
        .map(|(_, s)| s.violation_rate())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Vec<NodeSpec> {
        vec![NodeSpec::custom("n", 1, 4, 2, vfc_simcore::MHz(2400)); 6]
    }

    #[test]
    fn frequency_control_needs_no_migrations() {
        let report = run_strategy(
            ClusterScenario::quick(),
            small_cluster(),
            Strategy::FrequencyControl,
        );
        assert_eq!(report.migrations, 0);
        assert_eq!(report.rejected + report.deployed, 22);
        assert!(report.energy_wh > 0.0);
    }

    #[test]
    fn migration_strategy_pays_in_migrations_and_slo() {
        let scenario = ClusterScenario::quick();
        let freq = run_strategy(scenario, small_cluster(), Strategy::FrequencyControl);
        let mig = run_strategy(scenario, small_cluster(), Strategy::migration_default());
        // The overcommitted baseline migrates; the controlled cluster
        // never does.
        assert!(mig.migrations > 0, "overcommitted cluster should migrate");
        assert_eq!(freq.migrations, 0);
        // And its large (saturating, 1800 MHz) class suffers more SLO
        // violations than under frequency control.
        let violations = |r: &ClusterReport| {
            r.slo_by_class
                .iter()
                .find(|(c, _)| c == "large")
                .map(|(_, s)| s.violation_rate())
                .unwrap_or(0.0)
        };
        let v_freq = violations(&freq);
        let v_mig = violations(&mig);
        assert!(
            v_mig > v_freq,
            "migration baseline should violate more: {v_mig} vs {v_freq}"
        );
    }

    #[test]
    fn throttle_awareness_cuts_bursty_class_violations() {
        // The paper's estimator only sees consumption, which a capping
        // clips: a bursty VM's onsets read as stable-low and pay several
        // violated periods. Reading `throttled_usec` removes the blind
        // spot; the premium (steady) class must stay intact.
        let scenario = ClusterScenario::quick();
        let paper = run_strategy(scenario, small_cluster(), Strategy::FrequencyControl);
        let aware = run_strategy(
            scenario,
            small_cluster(),
            Strategy::FrequencyControlThrottleAware,
        );
        let v_paper = class_violation_rate(&paper, "small");
        let v_aware = class_violation_rate(&aware, "small");
        assert!(
            v_aware < v_paper,
            "throttle-aware should cut bursty-class violations: {v_aware} vs {v_paper}"
        );
        assert!(
            class_violation_rate(&aware, "large") <= class_violation_rate(&paper, "large") + 1e-9,
            "steady class must not regress"
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_strategy(
            ClusterScenario::quick(),
            small_cluster(),
            Strategy::migration_default(),
        );
        let b = run_strategy(
            ClusterScenario::quick(),
            small_cluster(),
            Strategy::migration_default(),
        );
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.slo_overall, b.slo_overall);
        assert_eq!(a.energy_wh, b.energy_wh);
    }
}
