//! Where a simulated host period goes, measured from outside: the whole
//! `SimHost::advance_period`, the engine alone on the same tree, and the
//! placement and DVFS stages alone on the engine's own output. What is
//! left of the engine is the fair share (caps, allocation, accounting)
//! plus the per-thread work; what is left of the period is the host's
//! demand build, delivery and ground-truth windows.
//!
//! The node is the one the end-to-end `node_sim` benchmark runs
//! (`vfc_bench::mixed_host`), under the paper's controller.
//!
//! ```bash
//! cargo run --release -p vfc-bench --example host_probe
//! ```
use std::hint::black_box;
use std::time::Instant;
use vfc_bench::mixed_host;
use vfc_controller::controller::IterationReport;
use vfc_controller::{Controller, ControllerConfig};
use vfc_cpusched::dvfs::{Governor, GovernorKind};
use vfc_cpusched::engine::Engine;
use vfc_cpusched::place::{PlacementBuf, Placer};
use vfc_simcore::{Micros, Tid, VcpuId};
use vfc_vmm::SimHost;

/// Periods per timed batch. Each round times all four batches back to
/// back, so that one round sees one CPU speed state and its rows can be
/// subtracted from each other; the fastest of [`ROUNDS`] is reported.
const PERIODS: u32 = 100;
const ROUNDS: u32 = 20;

/// One batch of `PERIODS × 10` calls of `tick`, in µs per period.
fn batch_us(mut tick: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..10 * PERIODS {
        tick();
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(PERIODS)
}

fn main() {
    let mut host = mixed_host();
    let spec = host.spec().clone();
    let mut controller = Controller::new(ControllerConfig::paper_defaults(), host.topology_info());
    let mut report = IterationReport::default();
    let mut step = |host: &mut SimHost, timed: &mut f64| {
        let started = Instant::now();
        host.advance_period();
        *timed += started.elapsed().as_secs_f64() * 1e6;
        controller
            .iterate_into(host, &mut report)
            .expect("in-memory host");
    };
    for _ in 0..30 {
        step(&mut host, &mut 0.0);
    }

    // The engine alone: the host's tree (the controller's caps included)
    // under a fresh engine, every thread asking for its mean demand of the
    // last window. Placement and DVFS alone: on that engine's own output.
    let mut tree = host.tree().clone();
    let mut engine = Engine::new(spec.clone(), 42);
    engine.sync(&tree);
    let tick = engine.tick_len();
    let mut demands = vec![Micros::ZERO; engine.slots().len()];
    for inst in host.instances() {
        for (j, tid) in inst.tids.iter().enumerate() {
            let slot = engine.slot_of(*tid).expect("live thread");
            demands[slot] = host.vcpu_demand_last_window(inst.id, VcpuId::new(j as u32)) / 10;
        }
    }
    let out = engine.tick_slots(&mut tree, &demands);
    let allocs: Vec<Micros> = out.threads.iter().map(|s| s.ran).collect();
    let busy: Vec<f64> = out.core_busy.iter().map(|b| b.ratio_of(tick)).collect();
    let tids = out.tids.to_vec();
    let mut by_tid: Vec<(Tid, u32)> = tids.iter().zip(0..).map(|(t, s)| (*t, s)).collect();
    by_tid.sort_unstable();
    let mut placer = Placer::new(spec.nr_threads(), 42);
    let mut buf = PlacementBuf::default();
    let mut governor = Governor::new(GovernorKind::Schedutil, spec.min_mhz, spec.max_mhz, 42);

    let [period_us, engine_us, place_us, dvfs_us] = (0..ROUNDS)
        .map(|_| {
            let mut period_us = 0.0;
            for _ in 0..PERIODS {
                step(&mut host, &mut period_us);
            }
            [
                period_us / f64::from(PERIODS),
                batch_us(|| {
                    black_box(engine.tick_slots(&mut tree, &demands).utilization);
                }),
                batch_us(|| placer.place_into(&tids, &allocs, &by_tid, tick, &mut buf)),
                batch_us(|| {
                    for util in &busy {
                        black_box(governor.core_freq(*util));
                    }
                }),
            ]
        })
        .min_by(|a, b| a[0].total_cmp(&b[0]))
        .expect("at least one round");

    println!(
        "node_sim host, {} vCPUs on {} threads; µs per period of 10 ticks, fastest of {ROUNDS} rounds of {PERIODS} periods",
        tids.len(),
        spec.nr_threads()
    );
    println!("SimHost::advance_period                    {period_us:7.1}");
    println!("  Engine::tick_slots × 10                  {engine_us:7.1}");
    println!("    Placer::place_into × 10                {place_us:7.1}");
    println!("    Governor::core_freq × 10 × cores       {dvfs_us:7.1}");
    println!(
        "    fair share, accounting, work (rest)    {:7.1}",
        engine_us - place_us - dvfs_us
    );
    println!(
        "  demand build, delivery, windows (rest)   {:7.1}",
        period_us - engine_us
    );
}
