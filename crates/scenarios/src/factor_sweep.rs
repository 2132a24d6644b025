//! Consolidation-factor sweep over the frequency constraint.
//!
//! §III.C: *"a consolidation factor can be added (e.g., multiple by 1.2
//! the number of available cores on the node), but this could lead in the
//! loss of the guarantee of the vCPU frequency."* This sweep quantifies
//! exactly that trade: for factors 1.0 → 2.0, pack a node as full as the
//! relaxed Eq. 7 allows, run the controller against fully saturating
//! guests, and measure nodes needed for a reference workload vs the
//! delivered fraction of the guaranteed frequency.

use serde::{Deserialize, Serialize};
use vfc_controller::{ControlMode, Controller, ControllerConfig};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::algo::{PlacementAlgorithm, Placer};
use vfc_placement::cluster::{paper_workload, ArrivalOrder, Cluster};
use vfc_placement::constraint::ConstraintMode;
use vfc_simcore::{MHz, VcpuId};
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

/// One factor's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FactorRow {
    /// The consolidation factor applied to Eq. 7.
    pub factor: f64,
    /// Nodes the §IV.C workload needs under `Frequency × factor`.
    pub nodes_used: usize,
    /// Worst delivered/guaranteed frequency ratio measured on a node
    /// packed to the factor's limit with saturating guests.
    pub worst_delivery_ratio: f64,
}

/// Pack one chetemi to `factor × capacity` with 1200 MHz VMs, run the
/// controller 15 periods, and return the worst delivery ratio.
fn delivery_at_factor(factor: f64) -> f64 {
    let spec = NodeSpec::chetemi();
    let mut host = SimHost::fixed_freq(spec.clone(), 31);

    // 2-vCPU 1200 MHz VMs = 2400 MHz each; capacity 96 000 MHz.
    let budget = (spec.freq_capacity_mhz() as f64 * factor) as u64;
    let mut vms = Vec::new();
    let mut used = 0u64;
    while used + 2_400 <= budget {
        let vm = host.provision(&VmTemplate::new("vm", 2, MHz(1200)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        vms.push(vm);
        used += 2_400;
    }

    let mut ctl = Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        host.topology_info(),
    );
    for _ in 0..15 {
        host.advance_period();
        ctl.iterate(&mut host).expect("sim backend");
    }

    let mut worst = f64::INFINITY;
    for &vm in &vms {
        for j in 0..2 {
            let f = host.vcpu_freq_exact(vm, VcpuId::new(j)).as_f64();
            worst = worst.min(f / 1_200.0);
        }
    }
    worst
}

/// Run the sweep.
pub fn sweep(factors: &[f64]) -> Vec<FactorRow> {
    let cluster = Cluster::paper_cluster();
    let workload = paper_workload(ArrivalOrder::RoundRobin);
    factors
        .iter()
        .map(|&factor| {
            let mode = if (factor - 1.0).abs() < 1e-9 {
                ConstraintMode::Frequency
            } else {
                ConstraintMode::FrequencyFactor { factor }
            };
            let result =
                Placer::new(PlacementAlgorithm::BestFit, mode).place(&cluster.nodes, &workload);
            FactorRow {
                factor,
                nodes_used: result.nodes_used(),
                worst_delivery_ratio: delivery_at_factor(factor),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_one_keeps_guarantees_and_larger_factors_lose_them() {
        let rows = sweep(&[1.0, 1.5]);
        // Eq. 7 exactly: every vCPU at its guarantee.
        assert!(
            rows[0].worst_delivery_ratio > 0.97,
            "factor 1.0 should deliver ≈100 %: {}",
            rows[0].worst_delivery_ratio
        );
        // 1.5× overcommit: ≈1/1.5 of the guarantee at best.
        let r = rows[1].worst_delivery_ratio;
        assert!(
            (0.55..0.80).contains(&r),
            "factor 1.5 should deliver ≈67 %: {r}"
        );
        // Fewer nodes, though.
        assert!(rows[1].nodes_used <= rows[0].nodes_used);
    }

    #[test]
    fn delivery_degrades_monotonically() {
        let rows = sweep(&[1.0, 1.2, 1.6]);
        assert!(rows[0].worst_delivery_ratio >= rows[1].worst_delivery_ratio - 0.02);
        assert!(rows[1].worst_delivery_ratio >= rows[2].worst_delivery_ratio - 0.02);
    }
}
