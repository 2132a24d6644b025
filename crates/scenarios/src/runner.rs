//! Generic scenario runner: a host, a set of VM groups, a controller, and
//! per-iteration recording of everything the figures need.

use std::collections::{BTreeMap, HashMap};
use vfc_cgroupfs::backend::HostBackend;
use vfc_controller::{ControlMode, Controller, ControllerConfig, StageTimings};
use vfc_cpusched::dvfs::{Governor, GovernorKind};
use vfc_cpusched::engine::Engine;
use vfc_cpusched::topology::NodeSpec;
use vfc_metrics::series::{GroupedSeries, TimeSeries};
use vfc_metrics::stats::Summary;
use vfc_simcore::{CpuId, Cycles, Micros, VmId};
use vfc_vmm::host::HostEvent;
use vfc_vmm::workload::{
    BurstyWeb, Compress7zip, IdleWorkload, OpensslBench, SteadyDemand, Workload, WorkloadEvent,
};
use vfc_vmm::{SimHost, VmTemplate};

/// Scale factor applied to every wall time and work amount of a scenario,
/// so tests and CI can run the same scenarios in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Full paper-scale run (≈700 simulated seconds).
    pub fn paper() -> Self {
        Scale(1.0)
    }

    /// 10× shrunk (tests, quick looks).
    pub fn quick() -> Self {
        Scale(0.1)
    }

    /// Scale a wall time.
    pub fn time(&self, t: Micros) -> Micros {
        t.scale(self.0)
    }

    /// Scale a work amount.
    pub fn work(&self, w: Cycles) -> Cycles {
        Cycles((w.as_u64() as f64 * self.0) as u64)
    }
}

/// Which guest workload a VM group runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// The Phoronix `compress-7zip` model.
    Compress7zip {
        /// Timed benchmark iterations.
        iterations: u32,
        /// Compression work per vCPU per iteration (pre-scale).
        work_per_vcpu: Cycles,
        /// Low-demand synchronization gap between phases.
        sync_len: Micros,
    },
    /// The Phoronix `openssl` model: saturate until the work is done.
    Openssl {
        /// Total work per vCPU (pre-scale).
        work_per_vcpu: Cycles,
    },
    /// Constant fractional demand.
    Steady(f64),
    /// Low-utilization web profile with periodic bursts.
    Bursty {
        /// Burst every `period`.
        period: Micros,
        /// Burst duration.
        burst_len: Micros,
    },
    /// Never demands CPU.
    Idle,
}

impl WorkloadKind {
    fn instantiate(&self, start_at: Micros, scale: Scale, seed: u64) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Compress7zip {
                iterations,
                work_per_vcpu,
                sync_len,
            } => Box::new(Compress7zip::with_params(
                start_at,
                *iterations,
                scale.work(*work_per_vcpu),
                scale.time(*sync_len).max(Micros(100_000)),
            )),
            WorkloadKind::Openssl { work_per_vcpu } => Box::new(OpensslBench::with_work(
                start_at,
                scale.work(*work_per_vcpu),
            )),
            WorkloadKind::Steady(frac) => Box::new(SteadyDemand::new(*frac)),
            WorkloadKind::Bursty { period, burst_len } => Box::new(BurstyWeb::with_shape(
                seed,
                0.05,
                1.0,
                scale.time(*period),
                scale.time(*burst_len),
            )),
            WorkloadKind::Idle => Box::new(IdleWorkload),
        }
    }
}

/// A homogeneous group of VM instances.
#[derive(Debug, Clone, PartialEq)]
pub struct VmGroup {
    /// Template every instance is created from.
    pub template: VmTemplate,
    /// How many instances to provision.
    pub instances: u32,
    /// Guest behaviour of every instance in the group.
    pub workload: WorkloadKind,
    /// Workload start time (pre-scale).
    pub start_at: Micros,
}

/// A full scenario description.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario label (used in output paths and reports).
    pub name: String,
    /// Host hardware.
    pub node: NodeSpec,
    /// VM groups, provisioned in order.
    pub groups: Vec<VmGroup>,
    /// Total wall time (pre-scale).
    pub duration: Micros,
    /// Scenario A (monitor) or B (full control).
    pub mode: ControlMode,
    /// Time/work scale factor.
    pub scale: Scale,
    /// Deterministic seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Controller iterations this scenario will run.
    pub fn iterations(&self) -> u64 {
        self.scale.time(self.duration).as_u64() / Micros::SEC.as_u64()
    }
}

/// Per-iteration benchmark rates: class → phase → iteration → samples.
pub type BenchRates = BTreeMap<String, BTreeMap<String, BTreeMap<u32, Vec<f64>>>>;

/// Everything recorded while running a scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario label.
    pub name: String,
    /// Control mode the scenario ran under.
    pub mode: ControlMode,
    /// Mean estimated vCPU frequency per VM class, one point per
    /// controller iteration — the curves of Figs. 6–9 and 12–13.
    pub freq_series: GroupedSeries,
    /// Mean per-vCPU allocation per class (µs/period).
    pub alloc_series: GroupedSeries,
    /// Node utilization per iteration.
    pub utilization: TimeSeries,
    /// Mean across iterations of the core-frequency variance (MHz²)
    /// measured across cores at each iteration — the paper's
    /// "average variance of 16 MHz" metric.
    pub core_freq_variance: f64,
    /// Benchmark iteration rates (Figs. 10/11/14).
    pub bench_rates: BenchRates,
    /// Controller stage timings per iteration.
    pub timings: Vec<StageTimings>,
    /// Raw workload events.
    pub events: Vec<HostEvent>,
}

impl ScenarioOutcome {
    /// Mean frequency of a class during a window (post-scale times).
    pub fn mean_freq_between(&self, class: &str, from: Micros, to: Micros) -> f64 {
        self.freq_series
            .get(class)
            .map(|s| s.mean_between(from, to))
            .unwrap_or(0.0)
    }

    /// Mean benchmark rate of a class for one phase and iteration.
    pub fn mean_rate(&self, class: &str, phase: &str, iteration: u32) -> Option<f64> {
        let samples = self.bench_rates.get(class)?.get(phase)?.get(&iteration)?;
        if samples.is_empty() {
            None
        } else {
            Some(samples.iter().sum::<f64>() / samples.len() as f64)
        }
    }

    /// Iterations for which a class reported rates in a phase.
    pub fn iterations_reported(&self, class: &str, phase: &str) -> Vec<u32> {
        self.bench_rates
            .get(class)
            .and_then(|p| p.get(phase))
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }
}

/// Run a scenario to completion on its host: `spec.node` under the
/// schedutil governor at its default reading noise, 100 ms tick.
pub fn run(spec: &ScenarioSpec) -> ScenarioOutcome {
    let governor = Governor::new(
        GovernorKind::Schedutil,
        spec.node.min_mhz,
        spec.node.max_mhz,
        spec.seed ^ 0xD1F5,
    );
    let engine = Engine::with_parts(spec.node.clone(), Micros(100_000), governor, spec.seed);
    let host = SimHost::new(spec.node.clone(), spec.seed).with_engine(engine);
    run_on(spec, host)
}

/// Run a scenario to completion on a fresh host built for `spec.node`.
fn run_on(spec: &ScenarioSpec, mut host: SimHost) -> ScenarioOutcome {
    // Provision all groups; remember each VM's class.
    let mut class_of: HashMap<VmId, String> = HashMap::new();
    let mut classes: Vec<String> = Vec::new();
    let mut wl_seed = spec.seed;
    for group in &spec.groups {
        if !classes.contains(&group.template.name) {
            classes.push(group.template.name.clone());
        }
        for _ in 0..group.instances {
            let vm = host.provision(&group.template);
            class_of.insert(vm, group.template.name.clone());
            wl_seed = wl_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            host.attach_workload(
                vm,
                group
                    .workload
                    .instantiate(spec.scale.time(group.start_at), spec.scale, wl_seed),
            );
        }
    }

    let cfg = ControllerConfig::paper_defaults().with_mode(spec.mode);
    let mut controller = Controller::new(cfg, host.topology_info());

    let mut freq_series = GroupedSeries::new();
    let mut alloc_series = GroupedSeries::new();
    let mut utilization = TimeSeries::new();
    let mut timings = Vec::new();
    let mut variance_acc = Summary::new();
    let nr_cpus = spec.node.nr_threads();

    for _ in 0..spec.iterations() {
        host.advance_period();
        let report = controller
            .iterate(&mut host)
            .expect("SimHost backend is infallible");
        let now = host.now();

        // Per-class aggregates.
        for class in &classes {
            let mut freq = Summary::new();
            let mut alloc = Summary::new();
            for v in &report.vcpus {
                if class_of.get(&v.addr.vm) == Some(class) {
                    freq.push(v.freq_est.as_f64());
                    alloc.push(v.alloc.as_u64() as f64);
                }
            }
            if freq.count() > 0 {
                freq_series.push(class, now, freq.mean());
                alloc_series.push(class, now, alloc.mean());
            }
        }

        // Core-frequency variance across cores at this instant.
        let mut core = Summary::new();
        for c in 0..nr_cpus {
            let f = host
                .cpu_cur_freq(CpuId::new(c))
                .expect("core id is in range");
            core.push(f.as_f64());
        }
        variance_acc.push(core.variance());

        utilization.push(now, host.utilization());
        timings.push(report.timings);
    }

    // Bench rates from events.
    let events = host.drain_events();
    let mut bench_rates: BenchRates = BTreeMap::new();
    for ev in &events {
        if let WorkloadEvent::IterationCompleted {
            phase,
            iteration,
            rate,
            ..
        } = &ev.event
        {
            let class = class_of
                .get(&ev.vm)
                .cloned()
                .unwrap_or_else(|| "unknown".to_owned());
            bench_rates
                .entry(class)
                .or_default()
                .entry(phase.to_string())
                .or_default()
                .entry(*iteration)
                .or_default()
                .push(*rate);
        }
    }

    ScenarioOutcome {
        name: spec.name.clone(),
        mode: spec.mode,
        freq_series,
        alloc_series,
        utilization,
        core_freq_variance: variance_acc.mean(),
        bench_rates,
        timings,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(mode: ControlMode) -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            node: NodeSpec::custom("t", 1, 2, 2, vfc_simcore::MHz(2400)),
            groups: vec![
                VmGroup {
                    template: VmTemplate::new("small", 1, vfc_simcore::MHz(500)),
                    instances: 2,
                    workload: WorkloadKind::Steady(1.0),
                    start_at: Micros::ZERO,
                },
                VmGroup {
                    template: VmTemplate::new("large", 1, vfc_simcore::MHz(1800)),
                    instances: 1,
                    workload: WorkloadKind::Steady(1.0),
                    start_at: Micros::ZERO,
                },
            ],
            duration: Micros::from_secs(25),
            mode,
            scale: Scale::paper(),
            seed: 7,
        }
    }

    #[test]
    fn runner_records_all_series() {
        let out = run(&tiny_spec(ControlMode::Full));
        assert_eq!(
            out.freq_series.names(),
            &["small".to_owned(), "large".to_owned()]
        );
        assert_eq!(out.freq_series.get("small").unwrap().len(), 25);
        assert_eq!(out.utilization.len(), 25);
        assert_eq!(out.timings.len(), 25);
    }

    #[test]
    fn controlled_scenario_differentiates_classes() {
        // Everyone bursts to a full thread here, so the classes' mean
        // frequencies differ only by reading noise: compare them on exact
        // readings.
        let spec = tiny_spec(ControlMode::Full);
        let out = run_on(&spec, SimHost::fixed_freq(spec.node.clone(), spec.seed));
        let small = out.mean_freq_between("small", Micros::from_secs(15), Micros::from_secs(25));
        let large = out.mean_freq_between("large", Micros::from_secs(15), Micros::from_secs(25));
        // 2 small @500 + 1 large @1800 on 4 threads: everyone saturates
        // and larges must be ≈3.6× smalls' guarantee... total ask
        // 2·500+1800 = 2800 < 9600, so everyone can burst; but the large
        // must never be *below* small.
        assert!(
            large >= small,
            "large ({large}) should not run slower than small ({small})"
        );
        assert!(large > 1700.0, "large should reach ≥ its base, got {large}");
    }

    #[test]
    fn scale_shrinks_time_and_work() {
        let s = Scale::quick();
        assert_eq!(s.time(Micros::from_secs(200)), Micros::from_secs(20));
        assert_eq!(s.work(Cycles(1_000)), Cycles(100));
        let mut spec = tiny_spec(ControlMode::Full);
        spec.scale = Scale::quick();
        assert_eq!(spec.iterations(), 2);
    }

    #[test]
    fn workload_kinds_instantiate() {
        let kinds = [
            WorkloadKind::Compress7zip {
                iterations: 2,
                work_per_vcpu: Cycles(1_000_000),
                sync_len: Micros::from_secs(1),
            },
            WorkloadKind::Openssl {
                work_per_vcpu: Cycles(1_000_000),
            },
            WorkloadKind::Steady(0.5),
            WorkloadKind::Bursty {
                period: Micros::from_secs(60),
                burst_len: Micros::from_secs(5),
            },
            WorkloadKind::Idle,
        ];
        for k in kinds {
            let mut w = k.instantiate(Micros::ZERO, Scale::paper(), 1);
            let d = w.demand(Micros::ZERO, 2);
            assert_eq!(d.len(), 2);
        }
    }

    #[test]
    fn monitor_only_runs_without_capping() {
        let out = run(&tiny_spec(ControlMode::MonitorOnly));
        assert_eq!(out.mode, ControlMode::MonitorOnly);
        // Allocation series records zeros in monitor-only mode.
        let allocs = out.alloc_series.get("small").unwrap();
        assert!(allocs.values().all(|v| v == 0.0));
    }
}
