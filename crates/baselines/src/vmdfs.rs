//! VMDFS-style predictive CPU-share control (\[21\] in the paper:
//! Shojaei et al., *"VMDFS: virtual machine dynamic frequency scaling
//! framework in cloud computing"*).
//!
//! The approach the paper critiques: predict each VM's upcoming CPU
//! utilization (here, an exponentially weighted moving average with
//! headroom) and cap it accordingly to save energy. Crucially, **all VMs
//! share the same priority** — there is no per-customer frequency, no
//! credits, no market. Under contention, VMs "compete for resources at
//! the frequency imposed by the hardware" (§II), so differentiated
//! guarantees are impossible — the property the comparison scenario
//! demonstrates.

use crate::policy::HostPolicy;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vfc_cgroupfs::backend::HostBackend;
use vfc_cgroupfs::error::Result;
use vfc_cgroupfs::model::{CpuMax, DEFAULT_PERIOD};
use vfc_simcore::{Micros, VcpuAddr, VcpuId};

/// VMDFS-style policy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmdfsConfig {
    /// Decision period.
    pub period: Micros,
    /// EWMA smoothing factor in `(0, 1]`; higher = more reactive.
    pub alpha: f64,
    /// Multiplicative headroom over the prediction (1.2 = +20 %).
    pub headroom: f64,
    /// Floor for any cap, µs per period.
    pub min_cap: Micros,
}

impl Default for VmdfsConfig {
    fn default() -> Self {
        VmdfsConfig {
            period: Micros::SEC,
            alpha: 0.5,
            headroom: 1.2,
            min_cap: Micros(10_000),
        }
    }
}

/// The predictive policy. See module docs.
pub struct VmdfsPolicy {
    cfg: VmdfsConfig,
    prev_usage: HashMap<VcpuAddr, Micros>,
    /// EWMA of per-vCPU consumption, µs per period.
    prediction: HashMap<VcpuAddr, f64>,
}

impl VmdfsPolicy {
    /// Create the predictor with the given parameters.
    pub fn new(cfg: VmdfsConfig) -> Self {
        VmdfsPolicy {
            cfg,
            prev_usage: HashMap::new(),
            prediction: HashMap::new(),
        }
    }
}

impl HostPolicy for VmdfsPolicy {
    fn iterate(&mut self, backend: &mut dyn HostBackend) -> Result<()> {
        let vms = backend.vms();
        for vm in &vms {
            for j in 0..vm.nr_vcpus {
                let addr = VcpuAddr::new(vm.vm, VcpuId::new(j));
                let cumulative = backend.vcpu_usage(vm.vm, VcpuId::new(j))?;
                let used = match self.prev_usage.insert(addr, cumulative) {
                    Some(prev) => cumulative.saturating_sub(prev),
                    None => {
                        // First sight: predict optimistically (full use),
                        // shrink from evidence.
                        self.prediction
                            .insert(addr, self.cfg.period.as_u64() as f64);
                        continue;
                    }
                };
                let pred = self.prediction.entry(addr).or_insert(0.0);
                *pred = self.cfg.alpha * used.as_u64() as f64 + (1.0 - self.cfg.alpha) * *pred;

                let cap_us = (*pred * self.cfg.headroom).round().clamp(
                    self.cfg.min_cap.as_u64() as f64,
                    self.cfg.period.as_u64() as f64,
                ) as u64;
                let max = if cap_us >= self.cfg.period.as_u64() {
                    CpuMax::unlimited()
                } else {
                    // Pro-rate to the kernel period.
                    let quota = Micros(cap_us)
                        .scale(DEFAULT_PERIOD.as_u64() as f64 / self.cfg.period.as_u64() as f64)
                        .max(Micros(1_000));
                    CpuMax::with_period(quota, DEFAULT_PERIOD)
                };
                backend.set_vcpu_max(vm.vm, VcpuId::new(j), max)?;
            }
        }
        let live: std::collections::HashSet<_> = vms.iter().map(|v| v.vm).collect();
        self.prev_usage.retain(|a, _| live.contains(&a.vm));
        self.prediction.retain(|a, _| live.contains(&a.vm));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_cpusched::topology::NodeSpec;
    use vfc_simcore::MHz;
    use vfc_vmm::workload::{SteadyDemand, TraceWorkload};
    use vfc_vmm::{SimHost, VmTemplate};

    fn step(host: &mut SimHost, p: &mut VmdfsPolicy) {
        host.advance_period();
        p.iterate(host).unwrap();
    }

    #[test]
    fn prediction_tracks_a_steady_load() {
        let mut h = SimHost::new(NodeSpec::custom("v", 1, 2, 1, MHz(2400)), 1);
        let vm = h.provision(&VmTemplate::new("x", 1, MHz(0)));
        h.attach_workload(vm, Box::new(SteadyDemand::new(0.4)));
        let mut p = VmdfsPolicy::new(VmdfsConfig::default());
        for _ in 0..10 {
            step(&mut h, &mut p);
        }
        let addr = VcpuAddr::new(vm, VcpuId::new(0));
        let pred = p.prediction[&addr];
        assert!(
            (pred - 400_000.0).abs() < 40_000.0,
            "prediction {pred} should track the 400 000 µs load"
        );
        // Cap ≈ prediction × headroom (within EWMA convergence).
        let cap = h.vcpu_max(vm, VcpuId::new(0)).unwrap();
        let cap_us = cap.budget_for(Micros::SEC).as_u64();
        assert!(
            (430_000..=560_000).contains(&cap_us),
            "cap {cap_us} should be ≈480 000"
        );
    }

    #[test]
    fn caps_shrink_when_the_load_drops() {
        let mut h = SimHost::new(NodeSpec::custom("v", 1, 2, 1, MHz(2400)), 1);
        let vm = h.provision(&VmTemplate::new("x", 1, MHz(0)));
        // 10 s at 90 %, then 2 %.
        let mut trace = vec![0.9; 100];
        trace.push(0.02);
        h.attach_workload(vm, Box::new(TraceWorkload::new(trace)));
        let mut p = VmdfsPolicy::new(VmdfsConfig::default());
        for _ in 0..10 {
            step(&mut h, &mut p);
        }
        let high = h
            .vcpu_max(vm, VcpuId::new(0))
            .unwrap()
            .budget_for(Micros::SEC);
        for _ in 0..10 {
            step(&mut h, &mut p);
        }
        let low = h
            .vcpu_max(vm, VcpuId::new(0))
            .unwrap()
            .budget_for(Micros::SEC);
        assert!(
            low.as_u64() * 4 < high.as_u64(),
            "cap should shrink with the load: {high} → {low}"
        );
    }

    #[test]
    fn no_differentiation_under_contention() {
        // The paper's criticism: identical treatment regardless of what
        // the customer paid for. Two saturating VMs on one thread end up
        // with equal shares even though one "bought" 1800 MHz.
        let mut h = SimHost::new(NodeSpec::custom("v", 1, 1, 1, MHz(2400)), 1);
        let cheap = h.provision(&VmTemplate::new("cheap", 1, MHz(500)));
        let premium = h.provision(&VmTemplate::new("premium", 1, MHz(1800)));
        h.attach_workload(cheap, Box::new(SteadyDemand::full()));
        h.attach_workload(premium, Box::new(SteadyDemand::full()));
        let mut p = VmdfsPolicy::new(VmdfsConfig::default());
        for _ in 0..12 {
            step(&mut h, &mut p);
        }
        let fc = h.vcpu_freq_exact(cheap, VcpuId::new(0)).as_f64();
        let fp = h.vcpu_freq_exact(premium, VcpuId::new(0)).as_f64();
        assert!(
            (fc / fp - 1.0).abs() < 0.1,
            "VMDFS treats both equally: {fc} vs {fp}"
        );
        assert!(fp < 1500.0, "premium VM misses its 1800 MHz under VMDFS");
    }

    #[test]
    fn min_cap_floor_holds() {
        let mut h = SimHost::new(NodeSpec::custom("v", 1, 1, 1, MHz(2400)), 1);
        let vm = h.provision(&VmTemplate::new("idle", 1, MHz(0)));
        let mut p = VmdfsPolicy::new(VmdfsConfig::default());
        for _ in 0..5 {
            step(&mut h, &mut p);
        }
        let cap = h.vcpu_max(vm, VcpuId::new(0)).unwrap();
        assert!(cap.budget_for(Micros::SEC) >= Micros(10_000));
    }
}
