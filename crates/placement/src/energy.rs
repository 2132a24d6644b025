//! Cluster energy accounting for placement results (§IV.C: unused nodes
//! "can be reused for additional workload, or shutdown in order to reduce
//! the energy consumption").

use crate::algo::PlacementResult;
use serde::{Deserialize, Serialize};
use vfc_cpusched::power::node_power_w;

/// Energy summary of a placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Nodes hosting at least one VM.
    pub nodes_used: usize,
    /// Cluster size.
    pub nodes_total: usize,
    /// Cluster draw with unused nodes shut down, Watts.
    pub power_used_only_w: f64,
    /// Cluster draw if every node stayed on (idle floor for empty ones).
    pub power_all_on_w: f64,
}

impl EnergyReport {
    /// Power saved by shutting down the unused nodes, Watts.
    pub fn savings_w(&self) -> f64 {
        self.power_all_on_w - self.power_used_only_w
    }

    /// Relative saving in [0, 1].
    pub fn savings_ratio(&self) -> f64 {
        if self.power_all_on_w <= 0.0 {
            0.0
        } else {
            self.savings_w() / self.power_all_on_w
        }
    }
}

/// Compute the energy report of a placement. Each used node is assumed to
/// run at its frequency-constraint utilization with loaded cores at
/// `F^MAX` (the controller guarantees exactly that load shape).
pub fn energy_of(result: &PlacementResult) -> EnergyReport {
    let mut power_used = 0.0;
    let mut power_all = 0.0;
    let mut used = 0usize;
    for bin in &result.nodes {
        let idle = node_power_w(&bin.spec, 0.0, bin.spec.min_mhz);
        if bin.is_used() {
            used += 1;
            let p = node_power_w(&bin.spec, bin.freq_utilization(), bin.spec.max_mhz);
            power_used += p;
            power_all += p;
        } else {
            power_all += idle;
        }
    }
    EnergyReport {
        nodes_used: used,
        nodes_total: result.nodes.len(),
        power_used_only_w: power_used,
        power_all_on_w: power_all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{PlacementAlgorithm, Placer};
    use crate::constraint::ConstraintMode;
    use crate::model::PlacementRequest;
    use vfc_cpusched::topology::NodeSpec;
    use vfc_simcore::MHz;

    fn place_smalls(count: usize, nodes: usize) -> PlacementResult {
        let cluster = vec![NodeSpec::chetemi(); nodes];
        let reqs: Vec<PlacementRequest> = (0..count)
            .map(|_| PlacementRequest::new("small", 2, MHz(500), 1))
            .collect();
        Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::Frequency).place(&cluster, &reqs)
    }

    #[test]
    fn empty_cluster_spends_nothing_when_off() {
        let result = place_smalls(0, 3);
        let report = energy_of(&result);
        assert_eq!(report.nodes_used, 0);
        assert_eq!(report.power_used_only_w, 0.0);
        assert!(report.power_all_on_w > 0.0, "idle floor if left on");
        assert!((report.savings_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn consolidation_saves_energy() {
        // 96 smalls fit one chetemi under Eq. 7: two spare nodes off.
        let result = place_smalls(96, 3);
        let report = energy_of(&result);
        assert_eq!(report.nodes_used, 1);
        assert!(report.savings_w() > 0.0);
        assert!(report.power_used_only_w < report.power_all_on_w);
    }

    #[test]
    fn loaded_nodes_draw_more_than_idle() {
        let result = place_smalls(96, 1);
        let report = energy_of(&result);
        let spec = NodeSpec::chetemi();
        assert!(report.power_used_only_w > spec.idle_power_w);
        assert!(report.power_used_only_w <= spec.max_power_w);
    }
}
