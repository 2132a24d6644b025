//! Stage 1 — monitoring vCPU resource consumption (§III.B.1).
//!
//! Reads, for every vCPU cgroup: the cumulative `cpu.stat::usage_usec`
//! (differenced against the previous iteration to obtain `u_{i,j,t}`),
//! the vCPU thread's last CPU from `/proc/{tid}/stat`, and that core's
//! `scaling_cur_freq` — once per iteration, as the paper argues is
//! sufficient: busy threads rarely migrate and loaded cores run at
//! near-identical frequencies, so the virtual-frequency estimate
//! `û = (u / p) · f_core` stays accurate.
//!
//! Monitoring is **fault tolerant**: a failed read never aborts the
//! iteration. Per vCPU, the degradation ladder is
//!
//! 1. a read error whose [`vfc_cgroupfs::CgroupError::is_vanished`] is
//!    true marks the
//!    whole VM as gone — its cgroup subtree was removed between the
//!    `vms()` enumeration and our reads — and drops it from this
//!    iteration's inventory;
//! 2. any other read error falls back to the vCPU's last good
//!    observation, as long as it is at most
//!    [`stale_sample_ttl`](crate::ControllerConfig::stale_sample_ttl)
//!    periods old;
//! 3. with no reusable sample, the vCPU is skipped for this iteration:
//!    it keeps whatever capping it already has, and its usage baselines,
//!    so the first successful read afterwards differences against the
//!    last *real* counter value. Its Eq. 3 history does not survive the
//!    skip: stage 2 drops the ring of every vCPU it was not shown this
//!    period, so the vCPU re-enters through the cold-start floor.
//!
//! The per-vCPU arithmetic lives in two functions, `difference` and
//! `reuse_stale`; [`Monitor`] applies them to state keyed by
//! [`VcpuAddr`], the controller's slot loop (`controller.rs`) to one row
//! of its dense per-vCPU table.

use vfc_cgroupfs::backend::{HostBackend, VcpuRawSample, VmCgroupInfo};
use vfc_simcore::{CpuId, FastMap, MHz, Micros, VcpuAddr, VcpuId, VmId};

/// One vCPU's monitored state for this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcpuObservation {
    /// The observed vCPU.
    pub addr: VcpuAddr,
    /// Dense coordinates of the vCPU in the listing it was read from:
    /// its position among all listed vCPUs …
    pub slot: u32,
    /// … and its VM's position among the listed VMs. Stages 3–6 index
    /// their per-slot and per-VM tables with these instead of hashing
    /// `addr`.
    pub vm_idx: u32,
    /// Cycles consumed during the last period (`u_{i,j,t}`).
    pub used: Micros,
    /// Time the vCPU spent throttled by its quota during the last period
    /// (`cpu.stat::throttled_usec` delta) — the signal that consumption
    /// was capped rather than satisfied. Zero on backends without the
    /// counter.
    pub throttled: Micros,
    /// Core the vCPU thread last ran on.
    pub last_cpu: CpuId,
    /// Estimated virtual frequency over the last period.
    pub freq_est: MHz,
}

/// Difference one raw sample against the vCPU's previous cumulative
/// counters. The first observation of a vCPU (`None` baselines) reports
/// `used = 0`: there is no previous sample to difference against.
pub(crate) fn difference(
    (addr, slot, vm_idx): (VcpuAddr, u32, u32),
    raw: &VcpuRawSample,
    prev_usage: Option<Micros>,
    prev_throttled: Option<Micros>,
    period: Micros,
) -> VcpuObservation {
    let used = prev_usage.map_or(Micros::ZERO, |prev| raw.usage.saturating_sub(prev));
    let throttled = prev_throttled.map_or(Micros::ZERO, |prev| raw.throttled.saturating_sub(prev));
    VcpuObservation {
        addr,
        slot,
        vm_idx,
        used,
        throttled,
        last_cpu: raw.last_cpu,
        freq_est: MHz::rounded(used.ratio_of(period) * raw.core_freq.as_f64()),
    }
}

/// Rung 2 of the ladder: answer a failed read from the vCPU's last good
/// observation if it is younger than `stale_ttl` periods, ageing it.
/// `None` means rung 3 — skip the vCPU. Baselines are not touched either
/// way, so the next successful read differences against the last *real*
/// counter value.
pub(crate) fn reuse_stale(
    last_good: Option<&mut (VcpuObservation, u32)>,
    stale_ttl: u32,
) -> Option<VcpuObservation> {
    match last_good {
        Some((obs, age)) if *age < stale_ttl => {
            *age += 1;
            Some(*obs)
        }
        _ => None,
    }
}

/// What stage 1 produced, including its degradation bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct MonitorOutcome {
    /// VM inventory, with vanished VMs already removed.
    pub vms: Vec<VmCgroupInfo>,
    /// One observation per readable vCPU (fresh or stale).
    pub observations: Vec<VcpuObservation>,
    /// Per-vCPU read errors encountered (vanished VMs not included).
    pub read_errors: u32,
    /// vCPUs answered from the stale-sample cache this iteration.
    pub stale_reused: Vec<VcpuAddr>,
    /// vCPUs with no observation this iteration (read failed, no
    /// reusable sample). They keep their current capping.
    pub skipped: Vec<VcpuAddr>,
    /// VMs that disappeared between enumeration and reads.
    pub vanished: Vec<VmId>,
}

/// Stage-1 state keyed by vCPU address: previous cumulative counters
/// plus the last good observation per vCPU (for bounded stale reuse),
/// and the cached VM inventory with this period's observation buffers.
/// The controller keeps the same state in its slot table; this type is
/// the stage's stand-alone form and the oracle its tests compare with.
#[derive(Debug, Default)]
pub struct Monitor {
    prev_usage: FastMap<VcpuAddr, Micros>,
    prev_throttled: FastMap<VcpuAddr, Micros>,
    /// Last successful observation and its age in periods (0 = produced
    /// by the previous `observe` call).
    last_good: FastMap<VcpuAddr, (VcpuObservation, u32)>,
    /// Cached `vms()` listing, vanished VMs removed. Refreshed only when
    /// the backend's [`HostBackend::vms_epoch`] moves (or is `None`).
    inventory: Vec<VmCgroupInfo>,
    /// The epoch `inventory` was listed at.
    inventory_epoch: Option<u64>,
    /// Whether `inventory` has been listed at least once.
    listed_once: bool,
    // This period's outputs, reused across calls.
    observations: Vec<VcpuObservation>,
    read_errors: u32,
    stale_reused: Vec<VcpuAddr>,
    skipped: Vec<VcpuAddr>,
    vanished: Vec<VmId>,
}

impl Monitor {
    /// Create a monitor with no baselines yet.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Read the host. The first observation of a vCPU reports `used = 0`
    /// (there is no previous sample to difference against). Never fails:
    /// per-vCPU errors degrade per the module docs, and `stale_ttl`
    /// bounds how many periods a cached sample may substitute for a
    /// failed read.
    pub fn observe<B: HostBackend + ?Sized>(
        &mut self,
        backend: &B,
        period: Micros,
        stale_ttl: u32,
    ) -> MonitorOutcome {
        // Re-list unless the backend can prove the inventory unchanged.
        let epoch = backend.vms_epoch();
        let mut changed = false;
        if !(self.listed_once && epoch.is_some() && epoch == self.inventory_epoch) {
            let vms = backend.vms();
            self.inventory_epoch = epoch;
            self.listed_once = true;
            changed = vms != self.inventory;
            self.inventory = vms;
        }
        self.read_listed(backend, period, stale_ttl);

        if !self.vanished.is_empty() {
            let vanished = &self.vanished;
            self.inventory.retain(|v| !vanished.contains(&v.vm));
            // Force a re-list next period: the backend's epoch may not
            // move for a vanish it does not know about (fault layers).
            self.inventory_epoch = None;
            self.listed_once = false;
            changed = true;
        }
        // Drop state for departed vCPUs — only worth scanning when the
        // membership actually changed.
        if changed {
            let vms = &self.inventory;
            let live = |a: &VcpuAddr| {
                vms.iter()
                    .any(|v| v.vm == a.vm && a.vcpu.as_u32() < v.nr_vcpus)
            };
            self.prev_usage.retain(|a, _| live(a));
            self.prev_throttled.retain(|a, _| live(a));
            self.last_good.retain(|a, _| live(a));
        }
        MonitorOutcome {
            vms: self.inventory.clone(),
            observations: self.observations.clone(),
            read_errors: self.read_errors,
            stale_reused: self.stale_reused.clone(),
            skipped: self.skipped.clone(),
            vanished: self.vanished.clone(),
        }
    }

    /// The read loop: every vCPU of every listed VM, in listing order,
    /// through one batched [`HostBackend::read_vcpu_raw`] pass.
    fn read_listed<B: HostBackend + ?Sized>(
        &mut self,
        backend: &B,
        period: Micros,
        stale_ttl: u32,
    ) {
        self.observations.clear();
        self.read_errors = 0;
        self.stale_reused.clear();
        self.skipped.clear();
        self.vanished.clear();
        backend.begin_read_pass();

        let mut slot = 0u32;
        'vms: for (vm_idx, info) in self.inventory.iter().enumerate() {
            let (vm, nr_vcpus) = (info.vm, info.nr_vcpus);
            let vm_start = self.observations.len();
            let vm_slot = slot;
            slot += nr_vcpus;
            for j in 0..nr_vcpus {
                let addr = VcpuAddr::new(vm, VcpuId::new(j));
                match backend.read_vcpu_raw(vm, VcpuId::new(j)) {
                    Ok(raw) => {
                        let obs = difference(
                            (addr, vm_slot + j, vm_idx as u32),
                            &raw,
                            self.prev_usage.get(&addr).copied(),
                            self.prev_throttled.get(&addr).copied(),
                            period,
                        );
                        self.prev_usage.insert(addr, raw.usage);
                        self.prev_throttled.insert(addr, raw.throttled);
                        self.last_good.insert(addr, (obs, 0));
                        self.observations.push(obs);
                    }
                    Err(e) if e.is_vanished() => {
                        // The VM's cgroups were removed under us. Undo its
                        // partial observations and forget the VM entirely.
                        self.observations.truncate(vm_start);
                        for k in 0..nr_vcpus {
                            let a = VcpuAddr::new(vm, VcpuId::new(k));
                            self.prev_usage.remove(&a);
                            self.prev_throttled.remove(&a);
                            self.last_good.remove(&a);
                        }
                        self.vanished.push(vm);
                        continue 'vms;
                    }
                    Err(_) => {
                        self.read_errors += 1;
                        match reuse_stale(self.last_good.get_mut(&addr), stale_ttl) {
                            Some(obs) => {
                                self.stale_reused.push(addr);
                                self.observations.push(obs);
                            }
                            None => self.skipped.push(addr),
                        }
                    }
                }
            }
        }
    }

    /// Number of vCPUs currently tracked.
    pub fn tracked(&self) -> usize {
        self.prev_usage.len()
    }

    /// Forget everything about a VM (used when other stages learn that a
    /// VM vanished, e.g. from a failed write).
    pub fn forget_vm(&mut self, vm: VmId) {
        self.prev_usage.retain(|a, _| a.vm != vm);
        self.prev_throttled.retain(|a, _| a.vm != vm);
        self.last_good.retain(|a, _| a.vm != vm);
        if self.inventory.iter().any(|v| v.vm == vm) {
            self.inventory.retain(|v| v.vm != vm);
            // The backend may not bump its epoch for a vanish it never
            // saw; force a real re-list next period.
            self.inventory_epoch = None;
            self.listed_once = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashMap;
    use vfc_cgroupfs::error::{CgroupError, Result};
    use vfc_cgroupfs::model::CpuMax;
    use vfc_simcore::{Tid, VmId};

    /// Minimal scripted backend for stage-level tests.
    struct FakeBackend {
        vms: Vec<VmCgroupInfo>,
        usage: HashMap<VcpuAddr, Micros>,
        freqs: Vec<MHz>,
        placement: HashMap<Tid, CpuId>,
        /// Fail `vcpu_usage` for these addresses with this error kind.
        fail_usage: HashMap<VcpuAddr, std::io::ErrorKind>,
        /// Every per-vCPU read of this VM reports its cgroup as gone.
        vanished: Option<VmId>,
        usage_reads: Cell<u32>,
    }

    impl FakeBackend {
        fn new(nr_vms: u32, vcpus: u32) -> Self {
            let vms = (0..nr_vms)
                .map(|i| VmCgroupInfo {
                    vm: VmId::new(i),
                    name: format!("vm{i}"),
                    nr_vcpus: vcpus,
                    vfreq: Some(MHz(500)),
                })
                .collect();
            FakeBackend {
                vms,
                usage: HashMap::new(),
                freqs: vec![MHz(2400); 4],
                placement: HashMap::new(),
                fail_usage: HashMap::new(),
                vanished: None,
                usage_reads: Cell::new(0),
            }
        }

        fn bump(&mut self, vm: u32, vcpu: u32, by: Micros) {
            *self
                .usage
                .entry(VcpuAddr::new(VmId::new(vm), VcpuId::new(vcpu)))
                .or_insert(Micros::ZERO) += by;
        }
    }

    impl HostBackend for FakeBackend {
        fn topology(&self) -> vfc_cgroupfs::backend::TopologyInfo {
            vfc_cgroupfs::backend::TopologyInfo {
                nr_cpus: self.freqs.len() as u32,
                max_mhz: MHz(2400),
            }
        }
        fn vms(&self) -> Vec<VmCgroupInfo> {
            self.vms.clone()
        }
        fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
            self.usage_reads.set(self.usage_reads.get() + 1);
            if self.vanished == Some(vm) {
                return Err(CgroupError::NoSuchGroup(format!("{vm}.scope")));
            }
            let addr = VcpuAddr::new(vm, vcpu);
            if let Some(&kind) = self.fail_usage.get(&addr) {
                return Err(CgroupError::io("cpu.stat", std::io::Error::new(kind, "x")));
            }
            Ok(self.usage.get(&addr).copied().unwrap_or(Micros::ZERO))
        }
        fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> Result<Vec<Tid>> {
            if self.vanished == Some(vm) {
                return Err(CgroupError::NoSuchGroup(format!("{vm}.scope")));
            }
            Ok(vec![Tid::new(vm.as_u32() * 10 + vcpu.as_u32())])
        }
        fn thread_last_cpu(&self, tid: Tid) -> Result<CpuId> {
            Ok(self.placement.get(&tid).copied().unwrap_or(CpuId::new(0)))
        }
        fn cpu_cur_freq(&self, cpu: CpuId) -> Result<MHz> {
            Ok(self.freqs[cpu.as_usize()])
        }
        fn set_vcpu_max(&mut self, _: VmId, _: VcpuId, _: CpuMax) -> Result<()> {
            Ok(())
        }
        fn vcpu_max(&self, _: VmId, _: VcpuId) -> Result<CpuMax> {
            Ok(CpuMax::unlimited())
        }
        fn set_vm_weight(&mut self, _: VmId, _: u32) -> Result<()> {
            Ok(())
        }
        fn vm_weight(&self, _: VmId) -> Result<u32> {
            Ok(100)
        }
    }

    const TTL: u32 = 2;

    #[test]
    fn first_observation_is_zero_then_deltas() {
        let mut backend = FakeBackend::new(1, 1);
        backend.bump(0, 0, Micros(5_000_000)); // pre-existing usage
        let mut mon = Monitor::new();
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.observations[0].used, Micros::ZERO, "no baseline yet");

        backend.bump(0, 0, Micros(300_000));
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.observations[0].used, Micros(300_000));

        backend.bump(0, 0, Micros(700_000));
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.observations[0].used, Micros(700_000));
    }

    #[test]
    fn freq_estimate_combines_share_and_core_freq() {
        let mut backend = FakeBackend::new(1, 1);
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, TTL);
        // Half the period on a 2.4 GHz core → 1200 MHz.
        backend.bump(0, 0, Micros(500_000));
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.observations[0].freq_est, MHz(1200));
        assert_eq!(out.observations[0].last_cpu, CpuId::new(0));
    }

    #[test]
    fn freq_estimate_uses_the_thread_core() {
        let mut backend = FakeBackend::new(1, 1);
        backend.freqs = vec![MHz(2400), MHz(1200)];
        backend.placement.insert(Tid::new(0), CpuId::new(1));
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, TTL);
        backend.bump(0, 0, Micros(1_000_000));
        let out = mon.observe(&backend, Micros::SEC, TTL);
        // Full share of a 1.2 GHz core.
        assert_eq!(out.observations[0].freq_est, MHz(1200));
    }

    #[test]
    fn all_vcpus_of_all_vms_observed() {
        let backend = FakeBackend::new(3, 2);
        let mut mon = Monitor::new();
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.vms.len(), 3);
        assert_eq!(out.observations.len(), 6);
        assert_eq!(mon.tracked(), 6);
        assert_eq!(out.read_errors, 0);
        assert!(out.skipped.is_empty() && out.vanished.is_empty());
    }

    #[test]
    fn departed_vcpus_are_forgotten() {
        let mut backend = FakeBackend::new(2, 1);
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(mon.tracked(), 2);
        backend.vms.pop();
        mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(mon.tracked(), 1);
    }

    #[test]
    fn counter_reset_does_not_underflow() {
        // If a vCPU cgroup is recreated its counter restarts from 0;
        // saturating_sub yields 0 rather than a huge delta.
        let mut backend = FakeBackend::new(1, 1);
        backend.bump(0, 0, Micros(1_000_000));
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, TTL);
        backend.usage.clear(); // counter reset
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.observations[0].used, Micros::ZERO);
    }

    #[test]
    fn transient_read_error_reuses_stale_sample_up_to_ttl() {
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let mut backend = FakeBackend::new(1, 1);
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, TTL);
        backend.bump(0, 0, Micros(400_000));
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.observations[0].used, Micros(400_000));

        // The read starts failing: the 400 000 sample is replayed for
        // TTL periods, then the vCPU is skipped.
        backend
            .fail_usage
            .insert(addr, std::io::ErrorKind::Interrupted);
        for i in 0..TTL {
            let out = mon.observe(&backend, Micros::SEC, TTL);
            assert_eq!(out.read_errors, 1, "period {i}");
            assert_eq!(out.stale_reused, vec![addr]);
            assert_eq!(out.observations[0].used, Micros(400_000));
            assert!(out.skipped.is_empty());
        }
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert!(out.observations.is_empty(), "sample too old to reuse");
        assert_eq!(out.skipped, vec![addr]);

        // Recovery: the next real read differences against the last
        // *real* counter value, not against garbage.
        backend.fail_usage.clear();
        backend.bump(0, 0, Micros(250_000));
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.observations[0].used, Micros(250_000));
        assert!(out.skipped.is_empty() && out.stale_reused.is_empty());
    }

    #[test]
    fn ttl_zero_skips_immediately() {
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let mut backend = FakeBackend::new(1, 1);
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, 0);
        backend
            .fail_usage
            .insert(addr, std::io::ErrorKind::ResourceBusy);
        let out = mon.observe(&backend, Micros::SEC, 0);
        assert_eq!(out.skipped, vec![addr]);
        assert!(out.stale_reused.is_empty());
    }

    #[test]
    fn one_failing_vcpu_does_not_disturb_the_others() {
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(1));
        let mut backend = FakeBackend::new(2, 2);
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, 0);
        backend
            .fail_usage
            .insert(addr, std::io::ErrorKind::TimedOut);
        for (vm, vcpu) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            backend.bump(vm, vcpu, Micros(100_000));
        }
        let out = mon.observe(&backend, Micros::SEC, 0);
        assert_eq!(out.vms.len(), 2);
        assert_eq!(out.observations.len(), 3);
        assert_eq!(out.skipped, vec![addr]);
        assert!(out
            .observations
            .iter()
            .all(|o| o.used == Micros(100_000) && o.addr != addr));
    }

    #[test]
    fn vanished_vm_is_dropped_with_its_partial_observations() {
        let mut backend = FakeBackend::new(2, 2);
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(mon.tracked(), 4);
        backend.vanished = Some(VmId::new(0));
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(out.vanished, vec![VmId::new(0)]);
        assert_eq!(out.vms.len(), 1, "vanished VM removed from inventory");
        assert_eq!(out.vms[0].vm, VmId::new(1));
        assert_eq!(out.observations.len(), 2, "only the live VM's vCPUs");
        assert!(out.observations.iter().all(|o| o.addr.vm == VmId::new(1)));
        assert_eq!(mon.tracked(), 2);
        // No stale resurrection: the vanished VM left no reusable samples.
        backend.vanished = None;
        let out = mon.observe(&backend, Micros::SEC, TTL);
        assert!(out.vanished.is_empty());
        assert_eq!(out.observations.len(), 4, "VM re-observed from scratch");
    }

    #[test]
    fn forget_vm_clears_all_state() {
        let backend = FakeBackend::new(2, 2);
        let mut mon = Monitor::new();
        mon.observe(&backend, Micros::SEC, TTL);
        assert_eq!(mon.tracked(), 4);
        mon.forget_vm(VmId::new(0));
        assert_eq!(mon.tracked(), 2);
    }
}
