//! Per-vCPU capping granularity: the controller manages each vCPU's
//! cgroup independently (§III.B operates on `c_{i,j,t}`, not per VM), so
//! a VM whose vCPUs demand *differently* — a map-reduce job in its reduce
//! phase — must see only its hot vCPU kept at a high capping while the
//! idle mappers' guaranteed cycles return to the market for neighbours.

use vfc::controller::ControlMode;
use vfc::prelude::*;
use vfc::simcore::{Cycles, Micros, VcpuAddr};
use vfc::vmm::workload::MapReduce;

#[test]
fn reduce_phase_frees_mapper_cycles_for_neighbours() {
    // 2 threads; the MR VM (4 vCPUs @ 600 MHz = 2400 guaranteed) plus a
    // saturating neighbour (1 vCPU @ 1200). Total guarantees 3600 of
    // 4800 MHz.
    let mut host = SimHost::fixed_freq(NodeSpec::custom("mr", 1, 2, 1, MHz(2400)), 17);

    let mr = host.provision(&VmTemplate::new("mr", 4, MHz(600)));
    let neighbour = host.provision(&VmTemplate::new("nb", 1, MHz(1200)));
    // One long round: a large map phase, then a long reduce on vCPU 0.
    host.attach_workload(
        mr,
        Box::new(MapReduce::new(Micros::ZERO, 1, Cycles(60_000_000_000))),
    );
    host.attach_workload(neighbour, Box::new(SteadyDemand::full()));

    let mut ctl = Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        host.topology_info(),
    );

    // Run until the reduce phase is under way and the estimator settled,
    // then sample.
    let mut sampled = None;
    for _ in 0..200 {
        host.advance_period();
        let report = ctl.iterate(&mut host).expect("sim backend");
        // Detect the reduce phase: mapper vCPU demand collapsed.
        let mapper_used = report
            .vcpu(VcpuAddr::new(mr, VcpuId::new(1)))
            .map(|v| v.used)
            .unwrap_or(Micros::ZERO);
        let reducer_used = report
            .vcpu(VcpuAddr::new(mr, VcpuId::new(0)))
            .map(|v| v.used)
            .unwrap_or(Micros::ZERO);
        if reducer_used > Micros(400_000) && mapper_used < Micros(100_000) {
            // Give the estimator time to converge, then sample (the
            // reduce lasts ≈12 s at full speed; stay well inside it).
            for _ in 0..8 {
                host.advance_period();
                sampled = Some(ctl.iterate(&mut host).expect("sim backend"));
            }
            break;
        }
        if host.workload_done(mr) {
            panic!("reduce phase never observed before completion");
        }
    }
    let report = sampled.expect("reduce phase reached");

    // Per-vCPU differentiation inside the same VM:
    let alloc = |j: u32| {
        report
            .vcpu(VcpuAddr::new(mr, VcpuId::new(j)))
            .expect("vcpu reported")
            .alloc
    };
    let reducer = alloc(0);
    for j in 1..4 {
        let mapper = alloc(j);
        assert!(
            reducer.as_u64() >= 4 * mapper.as_u64(),
            "reducer {reducer} should dwarf idle mapper {mapper} (vcpu{j})"
        );
    }
    // The reducer can exceed its own per-vCPU guarantee (250 000 µs)
    // using cycles the idle mappers returned to the market.
    assert!(
        reducer > Micros(300_000),
        "reducer should burst beyond its 600 MHz share: {reducer}"
    );
    // And the neighbour feasts on the rest.
    let nb_freq = host.vcpu_freq_exact(neighbour, VcpuId::new(0));
    assert!(
        nb_freq.as_u32() > 1400,
        "neighbour should exceed its 1200 MHz guarantee: {nb_freq}"
    );
}
