//! CFS-shares prioritization: the "just use weights" alternative.
//!
//! The obvious lightweight answer to differentiated frequencies is to set
//! each VM scope's `cpu.weight` proportional to its purchased capacity
//! `k^vCPU × F_v` and let CFS do the rest — one write per VM, no control
//! loop at all. Under Eq. 7 placement and *uniformly saturating* demand
//! this even delivers the guarantees (proportional shares of a node whose
//! capacity equals the sum of guarantees are exactly the guarantees).
//!
//! The comparison scenarios show what it cannot do, and why the paper
//! builds a controller instead:
//!
//! * **no caps** — a VM always takes any slack for free, so observed
//!   performance depends on the neighbours' moods; the paper's
//!   predictability result (Figs. 10/11) is unobtainable;
//! * **no credits** — a frugal VM earns no priority for later bursts;
//!   history never matters, only the static weight;
//! * **per-VM granularity only** — within a VM, CFS splits equally among
//!   the *demanding* vCPUs, so a VM with one busy vCPU concentrates its
//!   whole weight on it, overshooting the per-vCPU frequency promise.

use crate::policy::HostPolicy;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vfc_cgroupfs::backend::HostBackend;
use vfc_cgroupfs::error::Result;
use vfc_simcore::VmId;

/// Shares-policy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharesConfig {
    /// `cpu.weight` units per MHz of purchased capacity (`k^vCPU × F_v`).
    /// The kernel range is 1–10000, so with the paper's templates
    /// (1 000–7 200 MHz per VM) the default keeps everything in range.
    pub weight_per_mhz: f64,
}

impl Default for SharesConfig {
    fn default() -> Self {
        SharesConfig {
            weight_per_mhz: 1.0,
        }
    }
}

/// See module docs.
pub struct CfsSharesPolicy {
    cfg: SharesConfig,
    applied: HashMap<VmId, u32>,
}

impl CfsSharesPolicy {
    /// Create the policy; weights are written lazily on first sight.
    pub fn new(cfg: SharesConfig) -> Self {
        CfsSharesPolicy {
            cfg,
            applied: HashMap::new(),
        }
    }

    /// The weight this policy assigns for a purchased capacity.
    pub fn weight_for(&self, vcpus: u32, vfreq_mhz: u32) -> u32 {
        let mhz = vcpus as u64 * vfreq_mhz as u64;
        vfc_cgroupfs::backend::clamp_cpu_weight(
            (mhz as f64 * self.cfg.weight_per_mhz).round() as u32
        )
    }
}

impl HostPolicy for CfsSharesPolicy {
    fn iterate(&mut self, backend: &mut dyn HostBackend) -> Result<()> {
        let vms = backend.vms();
        for vm in &vms {
            let Some(vfreq) = vm.vfreq else { continue };
            let weight = self.weight_for(vm.nr_vcpus, vfreq.as_u32());
            if self.applied.get(&vm.vm) != Some(&weight) {
                backend.set_vm_weight(vm.vm, weight)?;
                self.applied.insert(vm.vm, weight);
            }
        }
        let live: std::collections::HashSet<VmId> = vms.iter().map(|v| v.vm).collect();
        self.applied.retain(|vm, _| live.contains(vm));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_cpusched::topology::NodeSpec;
    use vfc_simcore::{MHz, VcpuId};
    use vfc_vmm::workload::{IdleWorkload, SteadyDemand, TraceWorkload};
    use vfc_vmm::{SimHost, VmTemplate};

    fn quiet_host(threads: u32) -> SimHost {
        SimHost::fixed_freq(NodeSpec::custom("s", 1, threads, 1, MHz(2400)), 21)
    }

    fn step(host: &mut SimHost, p: &mut CfsSharesPolicy) {
        host.advance_period();
        p.iterate(host).unwrap();
    }

    #[test]
    fn weights_are_written_once_and_proportional() {
        let mut h = quiet_host(2);
        let small = h.provision(&VmTemplate::small()); // 2×500 → 1000
        let large = h.provision(&VmTemplate::large()); // 4×1800 → 7200
        let mut p = CfsSharesPolicy::new(SharesConfig::default());
        p.iterate(&mut h).unwrap();
        assert_eq!(h.vm_weight(small).unwrap(), 1000);
        assert_eq!(h.vm_weight(large).unwrap(), 7200);
    }

    #[test]
    fn shares_deliver_guarantees_under_uniform_saturation() {
        // Eq. 7-tight node, everyone saturating: proportional shares ARE
        // the guarantees — the easy case where weights suffice.
        let mut h = quiet_host(2); // 4800 MHz
        let cheap = h.provision(&VmTemplate::new("cheap", 1, MHz(500)));
        let mid = h.provision(&VmTemplate::new("mid", 1, MHz(1200)));
        let premium = h.provision(&VmTemplate::new("premium", 1, MHz(1800)));
        // 3500 of 4800 asked; add a filler to make it tight: 1300.
        let filler = h.provision(&VmTemplate::new("filler", 1, MHz(1300)));
        for vm in [cheap, mid, premium, filler] {
            h.attach_workload(vm, Box::new(SteadyDemand::full()));
        }
        let mut p = CfsSharesPolicy::new(SharesConfig::default());
        for _ in 0..5 {
            step(&mut h, &mut p);
        }
        for (vm, base) in [(cheap, 500.0), (mid, 1200.0), (premium, 1800.0)] {
            let f = h.vcpu_freq_exact(vm, VcpuId::new(0)).as_f64();
            assert!(
                (f / base - 1.0).abs() < 0.05,
                "uniform saturation: expected ≈{base}, got {f}"
            );
        }
    }

    #[test]
    fn shares_cannot_cap_and_performance_depends_on_neighbours() {
        // The paper's predictability argument: under shares, the cheap
        // VM's speed swings with the neighbour's activity — no capping,
        // no stable customer experience.
        let mut h = quiet_host(1);
        let cheap = h.provision(&VmTemplate::new("cheap", 1, MHz(500)));
        let premium = h.provision(&VmTemplate::new("premium", 1, MHz(1800)));
        h.attach_workload(cheap, Box::new(SteadyDemand::full()));
        // Premium alternates: 10 s on, 10 s off.
        let mut trace = Vec::new();
        for block in 0..4 {
            let v = if block % 2 == 0 { 1.0 } else { 0.0 };
            trace.extend(std::iter::repeat_n(v, 100));
        }
        h.attach_workload(premium, Box::new(TraceWorkload::new(trace)));
        let mut p = CfsSharesPolicy::new(SharesConfig::default());
        let mut cheap_freqs = Vec::new();
        for _ in 0..40 {
            step(&mut h, &mut p);
            cheap_freqs.push(h.vcpu_freq_exact(cheap, VcpuId::new(0)).as_f64());
        }
        let lo = cheap_freqs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = cheap_freqs
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        // Swings between ≈520 (premium on) and 2400 (premium off):
        // >4× variation in delivered performance for constant demand.
        assert!(
            hi / lo > 3.0,
            "shares leave the cheap VM's speed hostage to neighbours: [{lo}, {hi}]"
        );
    }

    #[test]
    fn idle_vm_weight_earns_nothing_later() {
        // No credits: a VM that idled for minutes bursts with exactly the
        // same priority as one that hogged throughout.
        let mut h = quiet_host(1);
        let hog = h.provision(&VmTemplate::new("hog", 1, MHz(1200)));
        let frugal = h.provision(&VmTemplate::new("frugal", 1, MHz(1200)));
        h.attach_workload(hog, Box::new(SteadyDemand::full()));
        h.attach_workload(frugal, Box::new(IdleWorkload));
        let mut p = CfsSharesPolicy::new(SharesConfig::default());
        for _ in 0..20 {
            step(&mut h, &mut p);
        }
        // Frugal wakes up.
        h.attach_workload(frugal, Box::new(SteadyDemand::full()));
        for _ in 0..3 {
            step(&mut h, &mut p);
        }
        let f_hog = h.vcpu_freq_exact(hog, VcpuId::new(0)).as_f64();
        let f_frugal = h.vcpu_freq_exact(frugal, VcpuId::new(0)).as_f64();
        assert!(
            (f_hog / f_frugal - 1.0).abs() < 0.05,
            "no credit memory: {f_hog} vs {f_frugal}"
        );
    }

    #[test]
    fn weight_clamping() {
        let p = CfsSharesPolicy::new(SharesConfig::default());
        assert_eq!(p.weight_for(4, 1800), 7200);
        assert_eq!(p.weight_for(64, 2400), 10_000, "clamped to the kernel max");
        assert_eq!(p.weight_for(0, 0), 1, "clamped to the kernel min");
    }
}
