//! Trace-driven cloud-scale evaluation of the event-driven cluster core.
//!
//! Replays the same VM-lifetime trace — synthetic at datacenter scale
//! (1k–4k nodes, 100k+ arrival/departure events) or a committed CSV —
//! through three placement regimes on identical hardware:
//!
//! * **eq7-ff** — Eq. 7 admission (`Σ k_i·F_i ≤ k_n·F_n^MAX`), First-Fit,
//!   the paper's controller on every busy node;
//! * **eq7-bf** — Eq. 7 admission, Best-Fit;
//! * **pack-bf** — vCPU-count packing with the §II overcommitment
//!   defaults (×1.8, no controller, migration-based overload response).
//!
//! Reported per regime: admission counts, SLO violation rate, energy,
//! migrations, and — the reason the event core exists — wall-clock
//! replay throughput in events per second. The `trace` command of the
//! `experiments` harness renders the comparison table, writes
//! `results/trace_eval.csv`, and holds the CI floor `VFC_TRACE_MIN_EPS`
//! against the slowest regime.

use std::time::{Duration, Instant};
use vfc_cluster::{
    ClusterManager, ClusterReport, EventDrivenCluster, Strategy, SyntheticTrace, TraceVmSpec,
};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::algo::PlacementAlgorithm;
use vfc_simcore::MHz;
use vfc_vmm::workload::class_workload;

/// Shape of one trace-scale run.
#[derive(Debug, Clone, Copy)]
pub struct TraceScenario {
    /// Fleet size (1 socket × 4 cores × 2 threads @ 2400 MHz each →
    /// 19 200 MHz of Eq. 7 budget per node).
    pub nodes: usize,
    /// VMs in the synthetic trace (each contributes 1–2 events).
    pub vms: usize,
    /// Arrival window and replay horizon, seconds (= periods).
    pub horizon_s: u64,
    /// Trace and workload seed.
    pub seed: u64,
}

impl Default for TraceScenario {
    fn default() -> Self {
        // ≥100k VM events across ≥1000 nodes (the PR's acceptance
        // floor): 55k VMs at ~1.98 events each ≈ 109k events.
        TraceScenario {
            nodes: 1200,
            vms: 55_000,
            horizon_s: 600,
            seed: 0x7ACE,
        }
    }
}

impl TraceScenario {
    /// A shrunk variant for debug-mode tests.
    pub fn quick() -> Self {
        TraceScenario {
            nodes: 24,
            vms: 240,
            horizon_s: 90,
            seed: 0x7ACE,
        }
    }

    fn fleet(&self) -> Vec<NodeSpec> {
        vec![NodeSpec::custom("trace", 1, 4, 2, MHz(2400)); self.nodes]
    }

    /// The synthetic trace every regime replays.
    pub fn trace(&self) -> Vec<TraceVmSpec> {
        SyntheticTrace::new(self.vms, self.horizon_s, self.seed).generate()
    }
}

/// One placement regime under comparison.
#[derive(Debug, Clone, Copy)]
pub struct TraceVariant {
    /// Short label used in tables and CSV rows.
    pub label: &'static str,
    /// Admission + overload-response strategy.
    pub strategy: Strategy,
    /// Placement algorithm.
    pub algorithm: PlacementAlgorithm,
}

/// The three regimes of the comparison.
pub fn variants() -> Vec<TraceVariant> {
    vec![
        TraceVariant {
            label: "eq7-ff",
            strategy: Strategy::FrequencyControl,
            algorithm: PlacementAlgorithm::FirstFit,
        },
        TraceVariant {
            label: "eq7-bf",
            strategy: Strategy::FrequencyControl,
            algorithm: PlacementAlgorithm::BestFit,
        },
        TraceVariant {
            label: "pack-bf",
            strategy: Strategy::migration_default(),
            algorithm: PlacementAlgorithm::BestFit,
        },
    ]
}

/// What one regime's replay did and cost.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// Regime label.
    pub label: &'static str,
    /// Arrival + departure events in the input trace.
    pub vm_events: u64,
    /// Events the core actually processed: the arrivals and departures
    /// due by the horizon plus one tick per simulated period.
    pub events_processed: u64,
    /// Replay throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall time of the replay.
    pub wall: Duration,
    /// Final cluster accounting.
    pub report: ClusterReport,
}

/// Replay `trace` under one regime and measure it.
pub fn run_variant(
    scenario: &TraceScenario,
    variant: TraceVariant,
    trace: Vec<TraceVmSpec>,
) -> TraceOutcome {
    let vm_events: u64 = trace.iter().map(|s| s.event_count() as u64).sum();
    let mgr = ClusterManager::new(scenario.fleet(), variant.strategy, scenario.seed);
    let mut cluster = EventDrivenCluster::new(mgr)
        .with_algorithm(variant.algorithm)
        .with_workloads(
            scenario.seed,
            Box::new(|_slot, template, rng| class_workload(&template.name, rng)),
        );
    cluster.load_trace(trace);
    let started = Instant::now();
    cluster.run_until(scenario.horizon_s);
    let wall = started.elapsed();
    let events_processed = cluster.stats().events_processed;
    let secs = wall.as_secs_f64();
    TraceOutcome {
        label: variant.label,
        vm_events,
        events_processed,
        events_per_sec: if secs > 0.0 {
            events_processed as f64 / secs
        } else {
            f64::INFINITY
        },
        wall,
        report: cluster.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay the scenario's trace under every regime.
    fn run_all(scenario: &TraceScenario) -> Vec<TraceOutcome> {
        let trace = scenario.trace();
        variants()
            .into_iter()
            .map(|v| run_variant(scenario, v, trace.clone()))
            .collect()
    }

    #[test]
    fn quick_scenario_compares_all_regimes() {
        let outcomes = run_all(&TraceScenario::quick());
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.report.deployed > 0, "{}: nothing deployed", o.label);
            assert_eq!(o.report.periods, 90, "{}: wrong horizon", o.label);
            // Every arrival falls inside the horizon; beyond the trace's
            // own events the core adds at most one tick per period.
            let arrivals = (o.report.deployed + o.report.rejected) as u64;
            assert!(
                o.events_processed > arrivals,
                "{}: processed fewer events than the trace's arrivals",
                o.label
            );
            assert!(
                o.events_processed <= o.vm_events + 90,
                "{}: more events than the trace's plus one tick per period",
                o.label
            );
        }
        // Only the packing regime may migrate; the Eq. 7 regimes never
        // need to (the controller keeps the promise on the node).
        assert_eq!(outcomes[0].report.migrations, 0);
        assert_eq!(outcomes[1].report.migrations, 0);
    }

    #[test]
    fn same_seed_replays_are_identical() {
        let s = TraceScenario::quick();
        let (a, b) = (run_all(&s), run_all(&s));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                serde_json::to_string(&x.report).unwrap(),
                serde_json::to_string(&y.report).unwrap(),
                "{}: report not deterministic",
                x.label
            );
            assert_eq!(x.events_processed, y.events_processed);
        }
    }
}
