//! `trace_eq7` and `trace_pack`: one synthetic VM-lifetime trace replayed
//! through `EventDrivenCluster` under two regimes.
//!
//! `trace_eq7` runs the paper's controller on every busy node (Eq. 7
//! admission, First-Fit); `trace_pack` runs no controller at all
//! (core-count packing, Best-Fit, migration on overload) — the bypass for
//! any controller optimisation, and the workload where queue, placement
//! and deploy/undeploy weigh most.

use super::node::StageSums;
use super::Demand;
use crate::common::{us, Cfg, Digest, Layers, Rep};
use crate::spans::Tracer;
use crate::stats;
use std::time::Instant;
use vfc::cluster::{
    ClusterManager, EventDrivenCluster, NodeLoad, Strategy, SyntheticTrace, TraceVmSpec,
    WorkloadFactory,
};
use vfc::controller::{Controller, ControllerConfig, IterationReport};
use vfc::cpusched::topology::NodeSpec;
use vfc::placement::algo::PlacementAlgorithm;
use vfc::placement::ResidualIndex;
use vfc::simcore::{EventQueue, MHz, SplitMix64};
use vfc::vmm::workload::Workload;
use vfc::vmm::{SimHost, VmTemplate};

/// Which regime a trace workload replays under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Eq7,
    Pack,
}

impl Regime {
    fn strategy(self) -> Strategy {
        match self {
            Regime::Eq7 => Strategy::FrequencyControl,
            Regime::Pack => Strategy::migration_default(),
        }
    }

    fn algorithm(self) -> PlacementAlgorithm {
        match self {
            Regime::Eq7 => PlacementAlgorithm::FirstFit,
            Regime::Pack => PlacementAlgorithm::BestFit,
        }
    }
}

/// Fleet and trace size. The ratio (≈46 VMs per node over the horizon)
/// is the one the committed `trace_eval` results use; the fleet is cut
/// so one replay fits several times in a run.
struct Shape {
    nodes: usize,
    vms: usize,
    horizon: u64,
}

fn shape(cfg: &Cfg) -> Shape {
    Shape {
        nodes: cfg.size(120, 16),
        vms: cfg.size(5_500, 400),
        horizon: cfg.size(300, 60) as u64,
    }
}

fn node_spec() -> NodeSpec {
    NodeSpec::custom("trace", 1, 4, 2, MHz(2400))
}

/// The `trace_eval` scenario's demand profiles (private there, so
/// restated): small = bursty web, medium = steady 80 %, large = saturating.
fn class_workload(name: &str, rng: &mut SplitMix64) -> Box<dyn Workload> {
    match name {
        "small" => Demand::BurstyWeb,
        "medium" => Demand::Steady80,
        _ => Demand::Saturating,
    }
    .workload(rng)
}

fn workload_factory() -> WorkloadFactory {
    Box::new(|_slot, template, rng| class_workload(&template.name, rng))
}

fn build(cfg: &Cfg, regime: Regime, trace: Vec<TraceVmSpec>) -> EventDrivenCluster {
    let s = shape(cfg);
    let mgr = ClusterManager::new(vec![node_spec(); s.nodes], regime.strategy(), cfg.seed);
    let mut cluster = EventDrivenCluster::new(mgr)
        .with_algorithm(regime.algorithm())
        .with_workloads(cfg.seed, workload_factory());
    cluster.load_trace(trace);
    cluster
}

/// Arrival and departure events the replay must process by `horizon` —
/// defined by the input alone, so a change that schedules fewer internal
/// events does not look like less work done.
fn vm_events(trace: &[TraceVmSpec], horizon: u64) -> u64 {
    trace
        .iter()
        .map(|s| {
            u64::from(s.arrival < horizon) + u64::from(s.departure.is_some_and(|d| d < horizon))
        })
        .sum()
}

/// What the traced rep remembers for the probes: the replay's operating
/// point.
pub struct OperatingPoint {
    pub regime: Regime,
    /// Highest `pending_events()` seen between periods.
    pub queue_high_water: usize,
    /// `node_loads()` at mid-run.
    pub loads: Vec<NodeLoad>,
    pub events_processed: u64,
    pub arrivals: u64,
    pub departures: u64,
    pub node_periods: u64,
    pub migrations: u64,
    pub measured_s: f64,
}

/// A cluster with the whole trace scheduled, nothing replayed yet.
pub struct Loaded {
    cluster: EventDrivenCluster,
    regime: Regime,
    work: u64,
}

/// Generate the trace from the seed, build the fleet, schedule every VM.
pub fn setup(cfg: &Cfg, regime: Regime) -> Loaded {
    let s = shape(cfg);
    let trace = SyntheticTrace::new(s.vms, s.horizon, cfg.seed).generate();
    let work = vm_events(&trace, s.horizon);
    Loaded {
        cluster: build(cfg, regime, trace),
        regime,
        work,
    }
}

/// The replay, one `run_until` per period.
pub fn run(loaded: Loaded, cfg: &Cfg, tracer: &mut Tracer) -> (Rep, OperatingPoint) {
    let s = shape(cfg);
    let Loaded {
        mut cluster,
        regime,
        work,
    } = loaded;
    let mut rep = Rep {
        work,
        ..Rep::default()
    };
    let mut point = OperatingPoint {
        regime,
        queue_high_water: 0,
        loads: Vec::new(),
        events_processed: 0,
        arrivals: 0,
        departures: 0,
        node_periods: 0,
        migrations: 0,
        measured_s: 0.0,
    };
    rep.op_us.reserve(s.horizon as usize);

    for period in 1..=s.horizon {
        let t0 = Instant::now();
        cluster.run_until(period);
        let t1 = Instant::now();
        rep.op(t1 - t0);
        tracer.record("cluster.run_until", t0, t1, None, period);
        point.queue_high_water = point.queue_high_water.max(cluster.pending_events());
        if regime == Regime::Eq7 {
            // Eq. 7 admission: Σ k·F never exceeds a node's budget.
            let over = cluster.manager().eq7_violations();
            rep.checks.check(over == 0, || {
                format!("period {period}: {over} nodes over their Eq. 7 budget")
            });
        } else {
            rep.checks.pass(1);
        }
        if period == s.horizon / 2 && tracer.enabled() {
            point.loads = cluster.manager().node_loads();
        }
        // One chunk per period: checks included, calibration excluded.
        rep.close_chunk(t0.elapsed());
    }
    rep.finish();

    let report = cluster.report();
    let stats = cluster.stats();
    let arrived = stats.arrivals as usize;
    rep.checks
        .check(report.deployed + report.rejected == arrived, || {
            format!(
                "{} deployed + {} rejected != {arrived} arrivals",
                report.deployed, report.rejected
            )
        });
    rep.checks
        .check(stats.arrivals + stats.departures == work, || {
            format!(
                "processed {} arrivals + {} departures, trace defines {work}",
                stats.arrivals, stats.departures
            )
        });
    rep.checks.check(report.periods == s.horizon, || {
        format!("ran {} periods, asked for {}", report.periods, s.horizon)
    });
    if regime == Regime::Eq7 {
        rep.checks.check(report.migrations == 0, || {
            format!("Eq. 7 regime migrated {} VMs", report.migrations)
        });
    }

    let mut digest = Digest::default();
    digest.str(&serde_json::to_string(&report).expect("report serializes"));
    digest.str(&serde_json::to_string(&stats).expect("stats serialize"));
    rep.digest = digest.hex();

    let (period_p50, period_tail) = (stats::median(&rep.op_us), stats::tail(&rep.op_us));
    let l = &mut rep.layers;
    l.insert("cluster.vm_events_per_s", work as f64 / rep.measured_s);
    l.insert(
        "cluster.events_per_s",
        stats.events_processed as f64 / rep.measured_s,
    );
    l.insert(
        "cluster.events_per_vm_event",
        stats.events_processed as f64 / work.max(1) as f64,
    );
    l.insert("cluster.node_periods", stats.node_periods as f64);
    l.insert("cluster.migrations", report.migrations as f64);
    l.insert("cluster.period_p50_ms", period_p50 / 1e3);
    l.insert("cluster.period_p99_ms", period_tail / 1e3);

    point.events_processed = stats.events_processed;
    point.arrivals = stats.arrivals;
    point.departures = stats.departures;
    point.node_periods = stats.node_periods;
    point.migrations = report.migrations;
    point.measured_s = rep.measured_s;
    (rep, point)
}

/// Per-operation costs at the replay's operating point, and from them the
/// *estimated* share of the replay each layer accounts for: one
/// `run_until` call hides every layer, so shares are count × separately
/// timed cost, not spans.
pub fn probes(cfg: &Cfg, point: &OperatingPoint, layers: &mut Layers) {
    let regime = point.regime;
    let measured_ns = (point.measured_s * 1e9).max(1.0);
    let s = shape(cfg);
    let trace = SyntheticTrace::new(s.vms, s.horizon, cfg.seed).generate();

    let queue_ns = probe_queue(cfg, point.queue_high_water.max(16));
    layers.insert("simcore.queue_op_ns", queue_ns);
    let queue_share = point.events_processed as f64 * queue_ns / measured_ns;
    layers.insert("simcore.queue_share", queue_share);

    let (query_ns, update_ns) = probe_index(cfg, regime, &point.loads);
    layers.insert("placement.query_ns", query_ns);
    layers.insert("placement.update_ns", update_ns);
    // One query per arrival and per migration; one index update per
    // residency change (deploy, undeploy, both ends of a migration).
    let queries = (point.arrivals + point.migrations) as f64;
    let updates = (point.arrivals + point.departures + 2 * point.migrations) as f64;
    let placement_share = (queries * query_ns + updates * update_ns) / measured_ns;
    layers.insert("placement.share", placement_share);

    let (deploy_us, undeploy_us, run_period_ms) = probe_manager(cfg, regime, &point.loads, &trace);
    layers.insert("cluster.deploy_us", deploy_us);
    layers.insert("cluster.undeploy_us", undeploy_us);
    layers.insert("cluster.run_period_ms", run_period_ms);

    let node = probe_node(cfg, regime, &point.loads, &trace);
    layers.insert("vmm.advance_period_us", node.advance_us);
    let vmm_share = point.node_periods as f64 * node.advance_us * 1e3 / measured_ns;
    layers.insert("vmm.share", vmm_share);
    layers.insert("cpusched.tick_us", node.advance_us / node.ticks_per_period);
    let mut controller_share = 0.0;
    if let Some(stage_layers) = node.controller {
        let iter_us = stage_layers["controller.iter_p50_us"];
        controller_share = point.node_periods as f64 * iter_us * 1e3 / measured_ns;
        layers.extend(stage_layers);
        layers.insert("controller.share", controller_share);
    }
    layers.insert(
        "cluster.self_share",
        1.0 - (queue_share + placement_share + vmm_share + controller_share),
    );

    layers.insert("cluster.par_speedup", probe_parallel(cfg, point, trace));
}

/// Schedule + pop on a queue holding the replay's high-water number of
/// events (the classic hold model: pop the earliest, schedule one later).
fn probe_queue(cfg: &Cfg, pending: usize) -> f64 {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x9E0E);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..pending {
        queue.schedule(rng.next_below(4_096), i as u64);
    }
    let ops = cfg.size(400_000, 20_000);
    let started = Instant::now();
    for i in 0..ops {
        let ev = queue.pop().expect("queue holds `pending` events");
        queue.schedule(ev.time + 1 + rng.next_below(512), i as u64);
    }
    std::hint::black_box(queue.len());
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Residual units of a node under the regime's constraint, as the manager
/// feeds them to its index.
fn residual(regime: Regime, load: &NodeLoad) -> (u64, u64) {
    let units = match regime {
        Regime::Eq7 => load.capacity_mhz.saturating_sub(load.used_mhz),
        Regime::Pack => ((f64::from(load.threads) * 1.8) as u64).saturating_sub(load.used_vcpus),
    };
    (units, load.mem_gb.saturating_sub(load.used_mem_gb))
}

fn demand(regime: Regime, t: &VmTemplate) -> (u64, u64) {
    let units = match regime {
        Regime::Eq7 => t.freq_demand_mhz(),
        Regime::Pack => u64::from(t.vcpus),
    };
    (units, u64::from(t.mem_gb))
}

/// `ResidualIndex` at fleet size, filled from the mid-run load snapshot:
/// one fit query, and one residual update, in nanoseconds.
fn probe_index(cfg: &Cfg, regime: Regime, loads: &[NodeLoad]) -> (f64, f64) {
    if loads.is_empty() {
        return (0.0, 0.0);
    }
    let mut index = ResidualIndex::new(loads.len());
    for (slot, load) in loads.iter().enumerate() {
        let (units, mem) = residual(regime, load);
        index.set(slot, units, mem);
    }
    let templates = [
        VmTemplate::small(),
        VmTemplate::medium(),
        VmTemplate::large(),
    ];
    let ops = cfg.size(300_000, 20_000);

    let started = Instant::now();
    let mut hits = 0usize;
    for i in 0..ops {
        let (units, mem) = demand(regime, &templates[i % 3]);
        let found = match regime {
            Regime::Eq7 => index.first_fit(units, mem, None),
            Regime::Pack => index.best_fit(units, mem, None),
        };
        hits += usize::from(found.is_some());
    }
    std::hint::black_box(hits);
    let query_ns = started.elapsed().as_nanos() as f64 / ops as f64;

    let mut rng = SplitMix64::new(cfg.seed ^ 0x1DE5);
    let started = Instant::now();
    for i in 0..ops {
        let slot = rng.next_below(loads.len() as u64) as usize;
        let (units, mem) = residual(regime, &loads[slot]);
        // Alternate between the snapshot value and one VM less.
        let (d_units, _) = demand(regime, &templates[i % 3]);
        let units = if i % 2 == 0 {
            units.saturating_sub(d_units)
        } else {
            units
        };
        index.set(slot, units, mem);
    }
    std::hint::black_box(index.len());
    let update_ns = started.elapsed().as_nanos() as f64 / ops as f64;
    (query_ns, update_ns)
}

/// A manager filled to the snapshot's committed share of the fleet, and
/// the VMs resident on it, for timing the calls the event core makes.
fn loaded_manager(
    cfg: &Cfg,
    regime: Regime,
    loads: &[NodeLoad],
    trace: &[TraceVmSpec],
) -> (ClusterManager, Vec<(vfc::cluster::GlobalVmId, VmTemplate)>) {
    let nodes = shape(cfg).nodes;
    let mut mgr = ClusterManager::new(vec![node_spec(); nodes], regime.strategy(), cfg.seed);
    let target: u64 = loads.iter().map(|l| l.used_vcpus).sum();
    let mut rng = SplitMix64::new(cfg.seed ^ 0x10AD);
    let mut resident = Vec::new();
    let mut placed = 0u64;
    for spec in trace {
        if placed >= target {
            break;
        }
        let workload = class_workload(&spec.template.name, &mut rng);
        if let Ok(id) = mgr.try_deploy_with(&spec.template, workload, regime.algorithm()) {
            placed += u64::from(spec.template.vcpus);
            resident.push((id, spec.template.clone()));
        }
    }
    (mgr, resident)
}

/// `undeploy` then `try_deploy_with` of the same template (so occupancy
/// stays at the snapshot's), and the fixed-step `run_period`, on a manager
/// at mid-run occupancy.
fn probe_manager(
    cfg: &Cfg,
    regime: Regime,
    loads: &[NodeLoad],
    trace: &[TraceVmSpec],
) -> (f64, f64, f64) {
    let (mut mgr, mut resident) = loaded_manager(cfg, regime, loads, trace);
    if resident.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut rng = SplitMix64::new(cfg.seed ^ 0xDE91);
    let pairs = cfg.size(2_000, 100);
    let (mut deploy, mut undeploy) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    let mut deploys = 0u64;
    for _ in 0..pairs {
        let slot = rng.next_below(resident.len() as u64) as usize;
        let (id, template) = resident[slot].clone();
        let workload = class_workload(&template.name, &mut rng);
        let t0 = Instant::now();
        let gone = mgr.undeploy(id);
        let t1 = Instant::now();
        let back = mgr.try_deploy_with(&template, workload, regime.algorithm());
        let t2 = Instant::now();
        if let (Ok(()), Ok(new_id)) = (gone, back) {
            undeploy += t1 - t0;
            deploy += t2 - t1;
            deploys += 1;
            resident[slot].0 = new_id;
        }
    }
    let periods = cfg.size(20, 3);
    let started = Instant::now();
    for _ in 0..periods {
        mgr.run_period();
    }
    let run_period_ms = started.elapsed().as_secs_f64() * 1e3 / periods as f64;
    (
        us(deploy) / deploys.max(1) as f64,
        us(undeploy) / deploys.max(1) as f64,
        run_period_ms,
    )
}

struct NodeProbe {
    advance_us: f64,
    ticks_per_period: f64,
    /// Stage means and iteration median, when the regime runs a controller.
    controller: Option<Layers>,
}

/// One fleet node carrying the snapshot's mean load per busy node:
/// `advance_period` and (under Eq. 7) `iterate_into`, as the event core
/// runs them once per busy node-period.
fn probe_node(cfg: &Cfg, regime: Regime, loads: &[NodeLoad], trace: &[TraceVmSpec]) -> NodeProbe {
    let busy: Vec<&NodeLoad> = loads.iter().filter(|l| l.used_vcpus > 0).collect();
    let mean_vcpus = if busy.is_empty() {
        4
    } else {
        (busy.iter().map(|l| l.used_vcpus).sum::<u64>() / busy.len() as u64).max(1)
    };
    let mut rng = SplitMix64::new(cfg.seed ^ 0x0DE);
    let mut host = SimHost::new(node_spec(), cfg.seed);
    let mut vcpus = 0u64;
    for spec in trace {
        if vcpus >= mean_vcpus {
            break;
        }
        let Some(vm) = host.try_provision(&spec.template) else {
            continue;
        };
        host.attach_workload(vm, class_workload(&spec.template.name, &mut rng));
        vcpus += u64::from(spec.template.vcpus);
    }
    let mut controller = (regime == Regime::Eq7)
        .then(|| Controller::new(ControllerConfig::paper_defaults(), host.topology_info()));
    let mut report = IterationReport::default();
    let periods = cfg.size(3_000, 200);
    let mut advance = std::time::Duration::ZERO;
    let mut iter_us = Vec::with_capacity(periods);
    let mut stages = StageSums::default();
    for period in 0..periods + 20 {
        let t0 = Instant::now();
        host.advance_period();
        let t1 = Instant::now();
        if let Some(c) = controller.as_mut() {
            let _ = c.iterate_into(&mut host, &mut report);
        }
        let t2 = Instant::now();
        if period < 20 {
            continue; // warm-up
        }
        advance += t1 - t0;
        iter_us.push(us(t2 - t1));
        stages.add(&report.timings);
    }
    let n = periods as f64;
    let controller = controller.map(|_| {
        let mut l = Layers::new();
        stages.into_layers(&mut l);
        l.insert("controller.iter_p50_us", stats::median(&iter_us));
        l.insert("controller.iter_p99_us", stats::tail(&iter_us));
        l
    });
    NodeProbe {
        advance_us: us(advance) / n,
        ticks_per_period: f64::from(host.period_ticks()),
        controller,
    }
}

/// One extra replay at one worker per core, against the rep's own
/// one-worker time. Diagnostic only: gated numbers are always taken at one
/// worker, and on a one-core machine this reads ≈ 1 by construction.
fn probe_parallel(cfg: &Cfg, point: &OperatingPoint, trace: Vec<TraceVmSpec>) -> f64 {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = shape(cfg);
    let mut cluster = build(cfg, point.regime, trace);
    vfc::cluster::set_parallelism(workers);
    let started = Instant::now();
    cluster.run_until(s.horizon);
    let parallel_s = started.elapsed().as_secs_f64();
    vfc::cluster::set_parallelism(1);
    std::hint::black_box(cluster.stats());
    point.measured_s / parallel_s.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrival: u64, departure: Option<u64>) -> TraceVmSpec {
        TraceVmSpec {
            trace_id: "t".into(),
            arrival,
            departure,
            template: VmTemplate::small(),
        }
    }

    #[test]
    fn vm_events_count_only_what_lands_by_the_horizon() {
        let trace = [
            spec(0, Some(5)),  // both
            spec(3, Some(10)), // departure at period 11 > horizon 10
            spec(9, None),     // arrival only
            spec(2, Some(9)),  // departure takes effect at period 10: counted
        ];
        assert_eq!(vm_events(&trace, 10), 2 + 1 + 1 + 2);
    }
}
