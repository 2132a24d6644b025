//! The host abstraction the virtual frequency controller runs against.
//!
//! The controller (crate `vfc-controller`) is written once against
//! [`HostBackend`]; two implementations exist:
//!
//! * [`crate::fs::FsBackend`] — a real cgroup-v2 mount + `/proc` +
//!   `/sys/devices/system/cpu` (or any directory tree with the same
//!   shape);
//! * `vfc_vmm::SimHost` — the full host simulator.
//!
//! All monitoring reads are cheap, and the controller batches them once
//! per period, matching the paper's ≈4 ms monitoring budget (§IV.A.2).

use crate::error::Result;
use crate::model::CpuMax;
use vfc_simcore::{CpuId, MHz, Micros, Tid, VcpuId, VmId};

/// Static description of the host the controller needs for Eq. 1/2:
/// the cycle capacity `C^MAX = p × nr_cpus` and the frequency ceiling
/// `F^MAX` used to translate virtual frequencies into cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyInfo {
    /// Number of schedulable hardware threads (`k_n^CPU`).
    pub nr_cpus: u32,
    /// Maximum all-core frequency (`F_n^MAX`).
    pub max_mhz: MHz,
}

impl TopologyInfo {
    /// Maximum cycles distributable per period `p` (Eq. 1).
    pub fn c_max(&self, period: Micros) -> Micros {
        period * self.nr_cpus as u64
    }
}

/// One hosted VM as seen through the cgroup hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmCgroupInfo {
    /// Stable identifier assigned by the backend.
    pub vm: VmId,
    /// Human-readable VM name (from the scope directory).
    pub name: String,
    /// Number of vCPU sub-groups found.
    pub nr_vcpus: u32,
    /// The customer-requested virtual frequency `F_v` for this VM, when
    /// known to the backend (templates in the simulator, a sidecar table
    /// for the FS backend). `None` means "no guarantee": the controller
    /// treats such VMs as best-effort with a zero base frequency.
    pub vfreq: Option<MHz>,
}

/// One vCPU's raw monitoring counters, gathered in a single batched
/// read (see [`HostBackend::read_vcpu_raw`]).
///
/// All values are *cumulative* kernel counters or instantaneous
/// hardware state — the monitor owns the differencing against the
/// previous period's baselines, the backend only collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcpuRawSample {
    /// Cumulative `usage_usec` since cgroup creation.
    pub usage: Micros,
    /// Cumulative `throttled_usec` since cgroup creation.
    pub throttled: Micros,
    /// CPU the vCPU thread last ran on (`CpuId(0)` when the thread id
    /// could not be determined — matching the monitor's historic
    /// fallback).
    pub last_cpu: CpuId,
    /// Current frequency of that CPU.
    pub core_freq: MHz,
}

/// Everything the six controller stages need from the host.
///
/// Implementations must be cheap for the read methods: they are called for
/// every vCPU on every iteration.
pub trait HostBackend {
    /// CPU count and frequency ceiling.
    fn topology(&self) -> TopologyInfo;

    /// Hosted VMs, in stable order.
    fn vms(&self) -> Vec<VmCgroupInfo>;

    /// Monotone epoch of the VM inventory: backends that know when their
    /// hosted-VM set (or any [`VmCgroupInfo`] field) changed may return a
    /// counter that is bumped on every such change, letting the monitor
    /// skip the allocating [`HostBackend::vms`] re-listing on unchanged
    /// periods. `None` (the default) means "unknown — always re-list",
    /// which is the only safe answer for a real cgroup mount where VMs
    /// appear and vanish behind the controller's back.
    fn vms_epoch(&self) -> Option<u64> {
        None
    }

    /// Inventory listings (or parts of one) that failed since the backend
    /// was built, for reasons other than the VM being gone. A backend
    /// that lists from memory has none. Surfaced in `vfcd`'s health line:
    /// while it grows the controller is running on its last good listing.
    fn listing_errors(&self) -> u64 {
        0
    }

    /// First thread id of a vCPU cgroup, without materialising the full
    /// thread list. KVM vCPU groups hold exactly one thread, and the
    /// monitor only samples the first, so backends should override this
    /// with an allocation-free fast path. The default delegates to
    /// [`HostBackend::vcpu_threads`] (preserving any error/fault
    /// semantics layered on it).
    fn vcpu_first_thread(&self, vm: VmId, vcpu: VcpuId) -> Result<Option<Tid>> {
        Ok(self.vcpu_threads(vm, vcpu)?.first().copied())
    }

    /// Cumulative `usage_usec` of a vCPU cgroup since creation
    /// (`cpu.stat`). Monotone non-decreasing.
    fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros>;

    /// Cumulative `throttled_usec` of a vCPU cgroup (`cpu.stat`): time
    /// the group wanted to run but was held back by its quota. Monotone
    /// non-decreasing. Backends without the counter (cgroup v1 exposes
    /// it in nanoseconds under a different key; very old kernels not at
    /// all) may return zero — the controller then simply cannot use
    /// throttle-aware estimation.
    fn vcpu_throttled(&self, _vm: VmId, _vcpu: VcpuId) -> Result<Micros> {
        Ok(Micros::ZERO)
    }

    /// Thread ids in the vCPU cgroup (`cgroup.threads`; exactly one for
    /// KVM vCPUs).
    fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> Result<Vec<Tid>>;

    /// CPU the thread last ran on (`/proc/{tid}/stat`, field 39).
    fn thread_last_cpu(&self, tid: Tid) -> Result<CpuId>;

    /// Current frequency of a CPU
    /// (`/sys/devices/system/cpu/cpu{i}/cpufreq/scaling_cur_freq`).
    fn cpu_cur_freq(&self, cpu: CpuId) -> Result<MHz>;

    /// Hook called once at the start of every monitoring read pass (one
    /// pass per controller period), *before* the first
    /// [`HostBackend::read_vcpu_raw`] of that pass. Backends that can
    /// amortise work across a pass — e.g. [`crate::fs::FsBackend`]
    /// memoising per-core `scaling_cur_freq` reads so `k` vCPUs packed
    /// on one core cost one sysfs read instead of `k` — reset their
    /// per-pass state here. The default does nothing.
    ///
    /// The contract of a pass: its reads see every removal or
    /// replacement of an interface file (or of a VM's groups) made
    /// before `begin_read_pass` returned. One made later, during the
    /// pass, may go unseen until the next pass — the way a
    /// `scaling_cur_freq` memoised at the pass's first read pins that
    /// core's frequency for the rest of it. [`crate::fs::FsBackend`]
    /// uses this to skip re-checking kept descriptors its change feed
    /// reports unchanged.
    fn begin_read_pass(&self) {}

    /// Batched per-vCPU monitoring read: everything stage 1 needs for
    /// one vCPU, in one call.
    ///
    /// The default composes the legacy call sequence **exactly** —
    /// `vcpu_usage` → `vcpu_throttled` → `vcpu_first_thread` →
    /// `thread_last_cpu` (a missing thread id falls back to `CpuId(0)`)
    /// → `cpu_cur_freq` — aborting on the first error, so fault
    /// injection layered on the fine-grained methods keeps its
    /// per-call, in-order semantics. Backends for which the fine-grained
    /// methods each pay a syscall (the filesystem backend parses
    /// `cpu.stat` twice per vCPU through the default) should override
    /// this with a fused read; the controller issues all stage-1 reads
    /// through here.
    fn read_vcpu_raw(&self, vm: VmId, vcpu: VcpuId) -> Result<VcpuRawSample> {
        let usage = self.vcpu_usage(vm, vcpu)?;
        let throttled = self.vcpu_throttled(vm, vcpu)?;
        let last_cpu = match self.vcpu_first_thread(vm, vcpu)? {
            Some(tid) => self.thread_last_cpu(tid)?,
            // No thread id (vCPU not yet running): attribute to CPU 0 so
            // the frequency estimate still has a source.
            None => CpuId::new(0),
        };
        let core_freq = self.cpu_cur_freq(last_cpu)?;
        Ok(VcpuRawSample {
            usage,
            throttled,
            last_cpu,
            core_freq,
        })
    }

    /// Write the vCPU cgroup's `cpu.max`.
    fn set_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId, max: CpuMax) -> Result<()>;

    /// Read back the vCPU cgroup's current `cpu.max`.
    fn vcpu_max(&self, vm: VmId, vcpu: VcpuId) -> Result<CpuMax>;

    /// Remove any limit (`echo "max" > cpu.max`). Default implementation
    /// writes [`CpuMax::unlimited`].
    fn clear_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId) -> Result<()> {
        self.set_vcpu_max(vm, vcpu, CpuMax::unlimited())
    }

    /// Write the VM scope's `cpu.weight` (CFS shares, 1–10000; kernel
    /// default 100). Used by the shares-based baseline policy, not by the
    /// paper's controller.
    fn set_vm_weight(&mut self, vm: VmId, weight: u32) -> Result<()>;

    /// Read back the VM scope's `cpu.weight`.
    fn vm_weight(&self, vm: VmId) -> Result<u32>;
}

/// Clamp a weight into the kernel's accepted `cpu.weight` range.
pub fn clamp_cpu_weight(weight: u32) -> u32 {
    weight.clamp(1, 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_max_follows_eq1() {
        let t = TopologyInfo {
            nr_cpus: 40,
            max_mhz: MHz(2400),
        };
        // p = 1 s, 40 hardware threads -> 40 s of CPU time per period.
        assert_eq!(t.c_max(Micros::SEC), Micros(40_000_000));
        assert_eq!(t.c_max(Micros(100_000)), Micros(4_000_000));
    }
}
