//! Shared fixtures for the `vfc` probes.
//!
//! The probes live in `examples/`:
//!
//! * `stage_probe` — where a controller iteration's time goes, stage by
//!   stage, on the `node_sim` population and on a 1000-vCPU host (the
//!   §IV.A.2 "5 ms per iteration" claim);
//! * `host_probe` — where a simulated host period's time goes: engine,
//!   placement, DVFS and the host's own work;
//! * `mem_probe` — where a trace replay's heap goes, counted by a global
//!   allocator.
//!
//! The end-to-end and per-layer numbers the repository gates on come from
//! `benchmark/`, not from here.

use vfc_controller::{ControlMode, Controller, ControllerConfig};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_vmm::workload::{BurstyWeb, SteadyDemand};
use vfc_vmm::{SimHost, VmTemplate};

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

/// A dense many-vCPU host: `vcpus / 2` hardware threads (the same 2:1
/// virtual oversubscription as the chetemi fixture, scaled up),
/// saturating 2-vCPU VMs, and a ready controller. Sizes such as 500,
/// 1000 and 2000 vCPUs are not the paper's testbed.
pub fn dense_host(vcpus: u32, mode: ControlMode) -> (SimHost, Controller) {
    let spec = NodeSpec::custom("dense", 1, (vcpus / 4).max(1), 2, MHz(2400));
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

/// Drive `host` and `controller` through `n` warm-up periods so probes
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
        let (mut host, mut ctl) = dense_host(8, ControlMode::Full);
        warm_up(&mut host, &mut ctl, 3);
        assert_eq!(ctl.iterations(), 3);
        assert_eq!(host.instances().len(), 4);
    }
}
