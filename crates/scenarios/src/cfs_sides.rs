//! §IV.A.2 side experiments: how CFS divides a node among VMs.
//!
//! The paper runs two control experiments to show that CFS shares CPU
//! time **per VM cgroup**, not per vCPU:
//!
//! * **a)** 20 VMs × 4 vCPUs, all saturating → every vCPU runs at the
//!   same speed;
//! * **b)** 40 VMs × 1 vCPU + 10 VMs × 4 vCPUs → the 1-vCPU VMs receive
//!   4/5 of the node's resources.

use std::collections::HashMap;
use vfc_cgroupfs::backend::HostBackend;
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, Micros, VcpuId, VmId};
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

/// Result of a CFS sharing experiment.
#[derive(Debug, Clone)]
pub struct CfsShareResult {
    /// CPU time consumed per VM over the measurement window, by group.
    pub group_usage: HashMap<String, Micros>,
    /// Fraction of total consumption per group.
    pub group_share: HashMap<String, f64>,
    /// Relative spread (max−min)/mean of per-vCPU usage inside the
    /// first group (experiment a's "all equal" check).
    pub within_group_spread: f64,
}

fn saturated_host(groups: &[(&str, u32, u32)]) -> (SimHost, Vec<(String, Vec<VmId>, u32)>) {
    let mut host = SimHost::fixed_freq(NodeSpec::chetemi(), 11);
    let mut out = Vec::new();
    for (name, instances, vcpus) in groups {
        let mut ids = Vec::new();
        for _ in 0..*instances {
            let vm = host.provision(&VmTemplate::new(name, *vcpus, MHz(1000)));
            host.attach_workload(vm, Box::new(SteadyDemand::full()));
            ids.push(vm);
        }
        out.push((name.to_string(), ids, *vcpus));
    }
    (host, out)
}

fn measure(groups: &[(&str, u32, u32)], seconds: u64) -> CfsShareResult {
    let (mut host, layout) = saturated_host(groups);
    for _ in 0..seconds {
        host.advance_period();
    }
    let mut group_usage: HashMap<String, Micros> = HashMap::new();
    let mut first_group_vcpu_usage: Vec<u64> = Vec::new();
    for (gi, (name, ids, vcpus)) in layout.iter().enumerate() {
        let mut total = Micros::ZERO;
        for vm in ids {
            for j in 0..*vcpus {
                let u = host.vcpu_usage(*vm, VcpuId::new(j)).expect("vcpu exists");
                total += u;
                if gi == 0 {
                    first_group_vcpu_usage.push(u.as_u64());
                }
            }
        }
        group_usage.insert(name.clone(), total);
    }
    let grand_total: u64 = group_usage.values().map(|m| m.as_u64()).sum();
    let group_share = group_usage
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                if grand_total == 0 {
                    0.0
                } else {
                    v.as_u64() as f64 / grand_total as f64
                },
            )
        })
        .collect();
    let within_group_spread = {
        let n = first_group_vcpu_usage.len() as f64;
        if n == 0.0 {
            0.0
        } else {
            let mean = first_group_vcpu_usage.iter().sum::<u64>() as f64 / n;
            let min = *first_group_vcpu_usage.iter().min().unwrap() as f64;
            let max = *first_group_vcpu_usage.iter().max().unwrap() as f64;
            if mean == 0.0 {
                0.0
            } else {
                (max - min) / mean
            }
        }
    };
    CfsShareResult {
        group_usage,
        group_share,
        within_group_spread,
    }
}

/// Experiment a): 20 VMs × 4 vCPUs — every vCPU equal.
pub fn experiment_a() -> CfsShareResult {
    measure(&[("uniform", 20, 4)], 20)
}

/// Experiment b): 40 × 1 vCPU + 10 × 4 vCPUs — singles take 4/5.
pub fn experiment_b() -> CfsShareResult {
    measure(&[("single", 40, 1), ("quad", 10, 4)], 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_a_all_vcpus_equal() {
        let r = experiment_a();
        assert!(
            r.within_group_spread < 0.02,
            "vCPU spread should be ≈0: {}",
            r.within_group_spread
        );
        assert!((r.group_share["uniform"] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn experiment_b_singles_take_four_fifths() {
        let r = experiment_b();
        let share = r.group_share["single"];
        assert!(
            (share - 0.8).abs() < 0.02,
            "paper: 4/5 of resources to 1-vCPU VMs; measured {share}"
        );
    }
}
