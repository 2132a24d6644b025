//! A provisioned VM instance.

use crate::host::VmWindows;
use crate::template::VmTemplate;
use crate::workload::{IdleWorkload, Workload};
use vfc_cgroupfs::tree::NodeIdx;
use vfc_simcore::{Tid, VmId};

/// One hosted VM (`i ∈ I` in the paper): template + cgroup layout +
/// vCPU threads + the guest workload. A host keeps an instance only while
/// the VM lives; `SimHost::deprovision` drops it.
pub struct VmInstance {
    /// Backend-stable id.
    pub id: VmId,
    /// The template the instance was created from (`V(i)`).
    pub template: VmTemplate,
    /// Unique instance name, e.g. `small3`.
    pub name: String,
    /// The `machine-qemu…scope` cgroup.
    pub scope: NodeIdx,
    /// One leaf cgroup per vCPU (`…/libvirt/vcpuJ`).
    pub vcpu_groups: Vec<NodeIdx>,
    /// One host thread per vCPU.
    pub tids: Vec<Tid>,
    /// Scheduling-engine slot of each vCPU thread, parallel to `tids`;
    /// `SimHost::tick` renumbers them when the engine rebuilds its plan.
    pub(crate) slots: Vec<u32>,
    /// The guest behaviour; defaults to idle until attached.
    pub workload: Box<dyn Workload>,
    /// Ground-truth frequency windows, one slot per vCPU.
    pub(crate) windows: VmWindows,
}

impl VmInstance {
    pub(crate) fn new(
        id: VmId,
        template: VmTemplate,
        name: String,
        scope: NodeIdx,
        vcpu_groups: Vec<NodeIdx>,
        tids: Vec<Tid>,
    ) -> Self {
        debug_assert_eq!(vcpu_groups.len(), tids.len());
        VmInstance {
            id,
            template,
            name,
            scope,
            windows: VmWindows::new(tids.len()),
            vcpu_groups,
            tids,
            slots: Vec::new(),
            workload: Box::new(IdleWorkload),
        }
    }

    /// Number of vCPUs.
    pub fn nr_vcpus(&self) -> u32 {
        self.tids.len() as u32
    }
}

impl std::fmt::Debug for VmInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmInstance")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("template", &self.template.name)
            .field("vcpus", &self.nr_vcpus())
            .field("workload", &self.workload.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_simcore::MHz;

    #[test]
    fn debug_format_mentions_essentials() {
        let inst = VmInstance::new(
            VmId::new(0),
            VmTemplate::new("small", 2, MHz(500)),
            "small0".into(),
            NodeIdx(1),
            vec![NodeIdx(2), NodeIdx(3)],
            vec![Tid::new(100), Tid::new(101)],
        );
        let s = format!("{inst:?}");
        assert!(s.contains("small0"));
        assert!(s.contains("idle"));
        assert_eq!(inst.nr_vcpus(), 2);
    }
}
