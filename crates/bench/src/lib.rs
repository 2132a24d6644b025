//! Shared fixtures for the `vfc` Criterion benchmarks.
//!
//! The benches live in `benches/`:
//!
//! * `controller` — full-loop iteration cost vs hosted vCPU count, plus
//!   per-stage microbenchmarks (the §IV.A.2 "5 ms per iteration" claim);
//! * `scheduler` — engine tick cost vs thread count, one simulated host
//!   period, `water_fill` microbenchmark;
//! * `placement` — Best/First-Fit over the §IV.C cluster under both
//!   constraints;
//! * `figures` — one benchmark per reproduced figure: each measures the
//!   cost of regenerating that figure's data (truncated scenario runs);
//! * `ablation` — controller cost under swept design parameters (auction
//!   window, history length, increase factor).

use vfc_controller::{ControlMode, Controller, ControllerConfig, ShardCount};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_vmm::workload::{BurstyWeb, SteadyDemand};
use vfc_vmm::{SimHost, VmTemplate};

/// A chetemi host loaded with saturating 2-vCPU VMs until `vcpus` vCPUs
/// are hosted, plus a ready controller.
pub fn loaded_host(vcpus: u32, mode: ControlMode) -> (SimHost, Controller) {
    let spec = NodeSpec::chetemi();
    let mut host = SimHost::new(spec, 42);
    let mut hosted = 0;
    while hosted < vcpus {
        let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        hosted += 2;
    }
    let controller = Controller::new(
        ControllerConfig::paper_defaults().with_mode(mode),
        host.topology_info(),
    );
    (host, controller)
}

/// The population of the end-to-end `node_sim` benchmark: 80 VMs × 2 vCPUs
/// on chetemi (40 threads, saturated), a third each bursty / steady 80 % /
/// saturating.
pub fn mixed_host() -> SimHost {
    let mut host = SimHost::new(NodeSpec::chetemi(), 42);
    for i in 0..80u64 {
        let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
        match i % 3 {
            0 => host.attach_workload(vm, Box::new(BurstyWeb::new(i))),
            1 => host.attach_workload(vm, Box::new(SteadyDemand::new(0.8))),
            _ => host.attach_workload(vm, Box::new(SteadyDemand::full())),
        }
    }
    host
}

/// A dense many-vCPU host for the sharding benchmarks: `vcpus / 2`
/// hardware threads (the same 2:1 virtual oversubscription as the
/// chetemi fixture, scaled up), saturating 2-vCPU VMs, and a controller
/// pinned to the given shard count. Sizes past [`loaded_host`]'s
/// chetemi node — 500, 1000, 2000 vCPUs — model the dense-host future
/// of ROADMAP open item 1, not the paper's testbed.
pub fn dense_host(vcpus: u32, shards: ShardCount, mode: ControlMode) -> (SimHost, Controller) {
    let spec = NodeSpec::custom("dense", 1, (vcpus / 4).max(1), 2, MHz(2400));
    let mut host = SimHost::new(spec, 42);
    let mut hosted = 0;
    while hosted < vcpus {
        let vm = host.provision(&VmTemplate::new("bench", 2, MHz(600)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        hosted += 2;
    }
    let mut cfg = ControllerConfig::paper_defaults().with_mode(mode);
    cfg.shard_count = shards;
    let controller = Controller::new(cfg, host.topology_info());
    (host, controller)
}

/// Drive `host` and `controller` through `n` warm-up periods so benches
/// measure steady state, not the cold-start ramp.
pub fn warm_up(host: &mut SimHost, controller: &mut Controller, n: u32) {
    for _ in 0..n {
        host.advance_period();
        controller.iterate(host).expect("sim backend");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (mut host, mut ctl) = loaded_host(8, ControlMode::Full);
        warm_up(&mut host, &mut ctl, 3);
        assert_eq!(ctl.iterations(), 3);
        assert_eq!(host.instances().len(), 4);
    }
}
