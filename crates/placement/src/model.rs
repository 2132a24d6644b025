//! Placement state: requests and node bins.

use serde::{Deserialize, Serialize};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_vmm::VmTemplate;

/// A VM to place. Thin, copy-friendly view of a template.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// Template name (for per-template reporting).
    pub template: String,
    /// vCPU count (`k^vCPU`).
    pub vcpus: u32,
    /// Guaranteed virtual frequency (`F`).
    pub vfreq: MHz,
    /// Provisioned memory.
    pub mem_gb: u32,
}

impl PlacementRequest {
    /// Build a request from raw capacities.
    pub fn new(template: &str, vcpus: u32, vfreq: MHz, mem_gb: u32) -> Self {
        PlacementRequest {
            template: template.to_owned(),
            vcpus,
            vfreq,
            mem_gb,
        }
    }

    /// Frequency-weighted demand `k^vCPU × F` (left side of Eq. 7).
    pub fn freq_demand_mhz(&self) -> u64 {
        self.vcpus as u64 * self.vfreq.as_u32() as u64
    }
}

impl From<&VmTemplate> for PlacementRequest {
    fn from(t: &VmTemplate) -> Self {
        PlacementRequest {
            template: t.name.clone(),
            vcpus: t.vcpus,
            vfreq: t.vfreq,
            mem_gb: t.mem_gb,
        }
    }
}

/// One physical node during placement: its spec plus what has been packed
/// onto it so far.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeBin {
    /// The node's hardware description.
    pub spec: NodeSpec,
    /// Requests placed here, in arrival order.
    pub placed: Vec<PlacementRequest>,
    used_vcpus: u64,
    used_freq_mhz: u64,
    used_mem_gb: u64,
}

impl NodeBin {
    /// An empty bin over the given node.
    pub fn new(spec: NodeSpec) -> Self {
        NodeBin {
            spec,
            placed: Vec::new(),
            used_vcpus: 0,
            used_freq_mhz: 0,
            used_mem_gb: 0,
        }
    }

    /// vCPUs placed so far.
    pub fn used_vcpus(&self) -> u64 {
        self.used_vcpus
    }

    /// Frequency-weighted load placed so far (MHz).
    pub fn used_freq_mhz(&self) -> u64 {
        self.used_freq_mhz
    }

    /// Memory placed so far (GB).
    pub fn used_mem_gb(&self) -> u64 {
        self.used_mem_gb
    }

    /// Is anything placed here?
    pub fn is_used(&self) -> bool {
        !self.placed.is_empty()
    }

    /// Record a placement (feasibility is the constraint's job).
    pub fn place(&mut self, vm: &PlacementRequest) {
        self.used_vcpus += vm.vcpus as u64;
        self.used_freq_mhz += vm.freq_demand_mhz();
        self.used_mem_gb += vm.mem_gb as u64;
        self.placed.push(vm.clone());
    }

    /// Remove one placed instance matching `vm` (migration source side).
    /// Returns `false` if no matching instance is placed here.
    pub fn remove(&mut self, vm: &PlacementRequest) -> bool {
        match self.placed.iter().position(|p| p == vm) {
            Some(i) => {
                self.placed.swap_remove(i);
                self.used_vcpus -= vm.vcpus as u64;
                self.used_freq_mhz -= vm.freq_demand_mhz();
                self.used_mem_gb -= vm.mem_gb as u64;
                true
            }
            None => false,
        }
    }

    /// Number of placed instances of a template.
    pub fn count_of(&self, template: &str) -> usize {
        self.placed
            .iter()
            .filter(|p| p.template == template)
            .count()
    }

    /// Frequency-capacity utilization in [0, 1] (Eq. 7 load ratio).
    pub fn freq_utilization(&self) -> f64 {
        let cap = self.spec.freq_capacity_mhz();
        if cap == 0 {
            0.0
        } else {
            self.used_freq_mhz as f64 / cap as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_from_template() {
        let t = VmTemplate::large();
        let r = PlacementRequest::from(&t);
        assert_eq!(r.template, "large");
        assert_eq!(r.vcpus, 4);
        assert_eq!(r.freq_demand_mhz(), 7200);
    }

    #[test]
    fn bin_accounting() {
        let mut bin = NodeBin::new(NodeSpec::chetemi());
        assert!(!bin.is_used());
        let small = PlacementRequest::new("small", 2, MHz(500), 4);
        let large = PlacementRequest::new("large", 4, MHz(1800), 8);
        bin.place(&small);
        bin.place(&small);
        bin.place(&large);
        assert!(bin.is_used());
        assert_eq!(bin.used_vcpus(), 8);
        assert_eq!(bin.used_freq_mhz(), 2 * 1000 + 7200);
        assert_eq!(bin.used_mem_gb(), 16);
        assert_eq!(bin.count_of("small"), 2);
        assert_eq!(bin.count_of("large"), 1);
        assert_eq!(bin.count_of("medium"), 0);
    }

    #[test]
    fn remove_reverses_place() {
        let mut bin = NodeBin::new(NodeSpec::chetemi());
        let small = PlacementRequest::new("small", 2, MHz(500), 4);
        bin.place(&small);
        bin.place(&small);
        assert!(bin.remove(&small));
        assert_eq!(bin.used_vcpus(), 2);
        assert_eq!(bin.used_freq_mhz(), 1000);
        assert_eq!(bin.used_mem_gb(), 4);
        assert!(bin.remove(&small));
        assert!(!bin.is_used());
        assert!(!bin.remove(&small), "nothing left to remove");
    }

    #[test]
    fn utilizations() {
        let mut bin = NodeBin::new(NodeSpec::chetemi()); // 40 thr, 96 000 MHz
        bin.place(&PlacementRequest::new("x", 20, MHz(2400), 1));
        assert!((bin.freq_utilization() - 0.5).abs() < 1e-12);
    }
}
