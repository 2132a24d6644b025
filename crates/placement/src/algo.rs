//! Placement algorithms: First-Fit, Best-Fit, Worst-Fit.

use crate::constraint::ConstraintMode;
use crate::model::{NodeBin, PlacementRequest};
use serde::{Deserialize, Serialize};
use vfc_cpusched::topology::NodeSpec;

/// Bin-packing heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementAlgorithm {
    /// First node (in cluster order) that fits.
    FirstFit,
    /// Feasible node with the *least* remaining capacity (tightest fit).
    BestFit,
    /// Feasible node with the *most* remaining capacity.
    WorstFit,
}

/// Outcome of placing a workload on a cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementResult {
    /// Final state of every node, in cluster order.
    pub nodes: Vec<NodeBin>,
    /// Node index per request, in request order; `None` = unplaceable.
    pub assignments: Vec<Option<usize>>,
    /// Requests that fit nowhere.
    pub unplaced: usize,
}

impl PlacementResult {
    /// Number of nodes hosting at least one VM.
    pub fn nodes_used(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_used()).count()
    }

    /// Mean frequency-capacity utilization over the *used* nodes.
    pub fn mean_used_utilization(&self) -> f64 {
        let used: Vec<&NodeBin> = self.nodes.iter().filter(|n| n.is_used()).collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().map(|n| n.freq_utilization()).sum::<f64>() / used.len() as f64
        }
    }
}

/// A configured placer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placer {
    /// Bin-packing heuristic in use.
    pub algorithm: PlacementAlgorithm,
    /// Feasibility rule in use.
    pub mode: ConstraintMode,
}

impl Placer {
    /// Combine a heuristic with a constraint.
    pub fn new(algorithm: PlacementAlgorithm, mode: ConstraintMode) -> Self {
        Placer { algorithm, mode }
    }

    /// Place every request, in order, onto the cluster.
    pub fn place(&self, cluster: &[NodeSpec], requests: &[PlacementRequest]) -> PlacementResult {
        let mut nodes: Vec<NodeBin> = cluster.iter().cloned().map(NodeBin::new).collect();
        let mut assignments = Vec::with_capacity(requests.len());
        let mut unplaced = 0usize;

        for vm in requests {
            let candidate = match self.algorithm {
                PlacementAlgorithm::FirstFit => {
                    nodes.iter().position(|bin| self.mode.fits(bin, vm))
                }
                PlacementAlgorithm::BestFit => nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, bin)| self.mode.fits(bin, vm))
                    // Tightest fit; lowest index breaks ties for
                    // determinism.
                    .min_by_key(|(i, bin)| (self.mode.remaining(bin), *i))
                    .map(|(i, _)| i),
                PlacementAlgorithm::WorstFit => nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, bin)| self.mode.fits(bin, vm))
                    .max_by_key(|(i, bin)| (self.mode.remaining(bin), usize::MAX - *i))
                    .map(|(i, _)| i),
            };
            match candidate {
                Some(i) => {
                    nodes[i].place(vm);
                    assignments.push(Some(i));
                }
                None => {
                    unplaced += 1;
                    assignments.push(None);
                }
            }
        }

        PlacementResult {
            nodes,
            assignments,
            unplaced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vfc_simcore::MHz;

    fn small() -> PlacementRequest {
        PlacementRequest::new("small", 2, MHz(500), 1)
    }

    fn large() -> PlacementRequest {
        PlacementRequest::new("large", 4, MHz(1800), 1)
    }

    fn two_node_cluster() -> Vec<NodeSpec> {
        vec![NodeSpec::chetemi(), NodeSpec::chiclet()]
    }

    #[test]
    fn first_fit_uses_cluster_order() {
        let placer = Placer::new(PlacementAlgorithm::FirstFit, ConstraintMode::Frequency);
        let result = placer.place(&two_node_cluster(), &[small(), small()]);
        assert_eq!(result.assignments, vec![Some(0), Some(0)]);
        assert_eq!(result.nodes_used(), 1);
        assert_eq!(result.unplaced, 0);
    }

    #[test]
    fn best_fit_prefers_the_tighter_node() {
        // chetemi (96 000 MHz) is tighter than chiclet (153 600): BestFit
        // fills chetemi first even if chiclet is listed first.
        let cluster = vec![NodeSpec::chiclet(), NodeSpec::chetemi()];
        let placer = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::Frequency);
        let result = placer.place(&cluster, &[small()]);
        assert_eq!(result.assignments, vec![Some(1)]);
    }

    #[test]
    fn worst_fit_prefers_the_emptier_node() {
        let cluster = vec![NodeSpec::chetemi(), NodeSpec::chiclet()];
        let placer = Placer::new(PlacementAlgorithm::WorstFit, ConstraintMode::Frequency);
        let result = placer.place(&cluster, &[small(), small()]);
        // Both land on chiclet: after one small, chiclet still has more
        // remaining than chetemi.
        assert_eq!(result.assignments, vec![Some(1), Some(1)]);
    }

    #[test]
    fn overflow_is_reported_unplaced() {
        let cluster = vec![NodeSpec::custom("nano", 1, 1, 1, MHz(2400))];
        let placer = Placer::new(PlacementAlgorithm::FirstFit, ConstraintMode::core_count());
        // nano has one thread: the 4-vCPU large can never fit.
        let result = placer.place(&cluster, &[large()]);
        assert_eq!(result.unplaced, 1);
        assert_eq!(result.assignments, vec![None]);
        assert_eq!(result.nodes_used(), 0);
    }

    #[test]
    fn frequency_constraint_needs_fewer_nodes_than_core_count() {
        // 60 smalls: core-count needs 120 vCPUs = 3 chetemi; frequency
        // needs 60 000 MHz = 1 chetemi.
        let cluster = vec![NodeSpec::chetemi(); 5];
        let requests: Vec<PlacementRequest> = (0..60).map(|_| small()).collect();
        let classic = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::core_count())
            .place(&cluster, &requests);
        let freq_aware = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::Frequency)
            .place(&cluster, &requests);
        assert_eq!(classic.nodes_used(), 3);
        assert_eq!(freq_aware.nodes_used(), 1);
        assert_eq!(classic.unplaced + freq_aware.unplaced, 0);
    }

    #[test]
    fn result_helpers() {
        let placer = Placer::new(PlacementAlgorithm::FirstFit, ConstraintMode::Frequency);
        let result = placer.place(&two_node_cluster(), &[small(), small(), large()]);
        assert!(result.mean_used_utilization() > 0.0);
    }

    proptest! {
        #[test]
        fn prop_placements_respect_the_constraint(
            n_small in 0usize..120,
            n_large in 0usize..60,
            algo_pick in 0u8..3,
            freq_mode in proptest::bool::ANY,
        ) {
            let algorithm = match algo_pick {
                0 => PlacementAlgorithm::FirstFit,
                1 => PlacementAlgorithm::BestFit,
                _ => PlacementAlgorithm::WorstFit,
            };
            let mode = if freq_mode {
                ConstraintMode::Frequency
            } else {
                ConstraintMode::core_count()
            };
            let cluster = vec![NodeSpec::chetemi(), NodeSpec::chiclet(), NodeSpec::chetemi()];
            let mut requests: Vec<PlacementRequest> = Vec::new();
            requests.extend((0..n_small).map(|_| small()));
            requests.extend((0..n_large).map(|_| large()));
            let result = Placer::new(algorithm, mode).place(&cluster, &requests);

            // Every used bin satisfies its constraint.
            for bin in &result.nodes {
                match mode {
                    ConstraintMode::Frequency => prop_assert!(
                        bin.used_freq_mhz() <= bin.spec.freq_capacity_mhz()
                    ),
                    ConstraintMode::FrequencyFactor { factor } => prop_assert!(
                        bin.used_freq_mhz() as f64
                            <= bin.spec.freq_capacity_mhz() as f64 * factor
                    ),
                    ConstraintMode::CoreCount { .. } => prop_assert!(
                        bin.used_vcpus() <= bin.spec.nr_threads() as u64
                    ),
                }
            }
            // Assignment bookkeeping is consistent.
            let placed: usize = result.assignments.iter().filter(|a| a.is_some()).count();
            prop_assert_eq!(placed + result.unplaced, requests.len());
            let in_bins: usize = result.nodes.iter().map(|n| n.placed.len()).sum();
            prop_assert_eq!(in_bins, placed);
        }
    }
}
