//! The common interface of all host-side vCPU management policies.

use vfc_cgroupfs::backend::HostBackend;
use vfc_cgroupfs::error::Result;
use vfc_controller::Controller;

/// One host policy: something that runs once per period and (possibly)
/// rewrites vCPU caps.
pub trait HostPolicy {
    /// Execute one period's worth of decisions.
    fn iterate(&mut self, backend: &mut dyn HostBackend) -> Result<()>;
}

/// The paper's controller is a policy as it stands.
impl HostPolicy for Controller {
    fn iterate(&mut self, backend: &mut dyn HostBackend) -> Result<()> {
        Controller::iterate(self, backend).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_controller::ControllerConfig;
    use vfc_simcore::MHz;
    use vfc_vmm::workload::SteadyDemand;
    use vfc_vmm::{SimHost, VmTemplate};

    #[test]
    fn vfc_policy_adapts_the_controller() {
        let mut host = SimHost::new(
            vfc_cpusched::topology::NodeSpec::custom("t", 1, 2, 1, MHz(2400)),
            1,
        );
        let vm = host.provision(&VmTemplate::new("a", 1, MHz(500)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        let mut controller =
            Controller::new(ControllerConfig::paper_defaults(), host.topology_info());
        let policy: &mut dyn HostPolicy = &mut controller;
        for _ in 0..3 {
            host.advance_period();
            policy.iterate(&mut host).unwrap();
        }
        assert_eq!(controller.iterations(), 3);
    }
}
