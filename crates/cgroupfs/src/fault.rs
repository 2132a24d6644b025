//! Deterministic fault injection for any [`HostBackend`].
//!
//! Real hosts misbehave: `cpu.stat` reads race with cgroup removal, a VM
//! shuts down between the `vms()` enumeration and the per-vCPU reads that
//! follow, `cpu.max` writes bounce with `EBUSY` while the kernel is
//! reconfiguring a subtree, and `/proc` files occasionally yield torn or
//! empty content. [`FaultInjectingBackend`] wraps any backend — the
//! simulator or the real filesystem backend — and injects exactly these
//! failure modes, reproducibly, so the controller's degradation behaviour
//! can be tested like any other feature.
//!
//! Faults come from two sources, both described by a [`FaultPlan`]:
//!
//! * **random faults** — each operation class carries an independent
//!   probability; when a fault fires, its [`FaultKind`] is drawn uniformly
//!   from the plan's kind list. All draws come from a seeded
//!   [`SplitMix64`], so a given plan + call sequence replays bit-identically;
//! * **scripted faults** — precise "fail the next N `cpu.max` writes of
//!   vm2/vcpu0 with `EBUSY`" entries, matched before any dice are rolled.
//!
//! Whole-VM disappearance is modelled separately (see
//! [`FaultInjectingBackend::vanish_vm`]) because it is a *sequence* of
//! observations, not a single failing call: the stale `vms()` listing
//! still contains the VM, every subsequent per-VM operation fails with a
//! [vanished](crate::error::CgroupError::is_vanished) error, and later
//! listings no longer include it.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::io;

use crate::backend::{HostBackend, TopologyInfo, VmCgroupInfo};
use crate::error::{CgroupError, Result};
use crate::model::CpuMax;
use vfc_simcore::{CpuId, MHz, Micros, SplitMix64, Tid, VcpuId, VmId};

/// The backend operation classes a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultOp {
    /// `vcpu_usage` — the `cpu.stat::usage_usec` read.
    VcpuUsage,
    /// `vcpu_throttled` — the `cpu.stat::throttled_usec` read.
    VcpuThrottled,
    /// `vcpu_threads` — the `cgroup.threads` read.
    VcpuThreads,
    /// `thread_last_cpu` — the `/proc/{tid}/stat` read.
    ThreadLastCpu,
    /// `cpu_cur_freq` — the `scaling_cur_freq` read.
    CpuCurFreq,
    /// `set_vcpu_max` — the `cpu.max` write (including `clear_vcpu_max`).
    SetVcpuMax,
    /// `vcpu_max` — the `cpu.max` read-back.
    VcpuMax,
    /// `set_vm_weight` — the `cpu.weight` write.
    SetVmWeight,
    /// `vm_weight` — the `cpu.weight` read-back.
    VmWeight,
}

impl FaultOp {
    /// Every operation class, in declaration order.
    pub const ALL: [FaultOp; 9] = [
        FaultOp::VcpuUsage,
        FaultOp::VcpuThrottled,
        FaultOp::VcpuThreads,
        FaultOp::ThreadLastCpu,
        FaultOp::CpuCurFreq,
        FaultOp::SetVcpuMax,
        FaultOp::VcpuMax,
        FaultOp::SetVmWeight,
        FaultOp::VmWeight,
    ];

    /// The monitoring reads the control loop performs every period.
    pub const READS: [FaultOp; 5] = [
        FaultOp::VcpuUsage,
        FaultOp::VcpuThrottled,
        FaultOp::VcpuThreads,
        FaultOp::ThreadLastCpu,
        FaultOp::CpuCurFreq,
    ];

    /// Is this a state-changing write?
    pub fn is_write(self) -> bool {
        matches!(self, FaultOp::SetVcpuMax | FaultOp::SetVmWeight)
    }
}

/// What goes wrong when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation returns [`CgroupError::Io`] with the given kind
    /// (e.g. `ResourceBusy` for `EBUSY`, `Interrupted` for `EINTR`).
    Io(io::ErrorKind),
    /// A torn read: the operation returns [`CgroupError::Parse`], as if
    /// the kernel file held garbage. Writes treat this as `EBUSY`.
    Torn,
    /// A stale read: the operation succeeds but returns the *previous*
    /// successful value (or zero/empty if there is none), as if the page
    /// cache served outdated content. Writes treat this as `EBUSY`.
    Stale,
    /// A zero read: the operation succeeds but returns zero/empty, as if
    /// the counter had been reset. Writes treat this as `EBUSY`.
    Zero,
}

impl FaultKind {
    /// The transient kinds a loaded production host actually exhibits;
    /// the default palette for [`FaultPlan::random`].
    pub const TRANSIENT: [FaultKind; 5] = [
        FaultKind::Io(io::ErrorKind::Interrupted),
        FaultKind::Io(io::ErrorKind::ResourceBusy),
        FaultKind::Torn,
        FaultKind::Stale,
        FaultKind::Zero,
    ];
}

/// A scripted fault: fail the next `remaining` matching operations.
#[derive(Debug, Clone)]
struct ScriptedFault {
    op: FaultOp,
    vm: Option<VmId>,
    vcpu: Option<VcpuId>,
    kind: FaultKind,
    remaining: u32,
}

/// Declarative description of which faults to inject.
///
/// A plan combines per-operation probabilities (for chaos testing) with a
/// scripted schedule (for precise degradation tests). Scripted entries
/// always win over the dice.
///
/// The knobs, all builder-style and all optional (the default plan is
/// [`FaultPlan::none`], a transparent pass-through):
///
/// | knob | default | effect |
/// |---|---|---|
/// | [`with_rate`](FaultPlan::with_rate) (or [`random`](FaultPlan::random) for all ops) | 0.0 | independent per-call fault probability for one [`FaultOp`] class, clamped to `[0, 1]` |
/// | [`with_kinds`](FaultPlan::with_kinds) | [`FaultKind::TRANSIENT`] | the palette random faults draw from, uniformly |
/// | [`with_vanish_rate`](FaultPlan::with_vanish_rate) | 0.0 | per-`vms()`-call probability that one listed VM disappears (stale-listing semantics) |
/// | [`with_target_vm`](FaultPlan::with_target_vm) | any VM | confine random faults + vanishes to one victim so bystanders stay provably clean |
/// | [`script`](FaultPlan::script) | empty | "fail the next N matching ops with kind K" entries, matched before any dice roll |
///
/// ```
/// use vfc_cgroupfs::fault::{FaultKind, FaultOp, FaultPlan};
/// use std::io;
///
/// // 1 % chaos on every monitoring read, plus exactly three EBUSY
/// // bounces on the first cpu.max writes — replayable under any seed.
/// let mut plan = FaultPlan::none().with_vanish_rate(0.001);
/// for op in FaultOp::READS {
///     plan = plan.with_rate(op, 0.01);
/// }
/// let plan = plan.script(
///     FaultOp::SetVcpuMax,
///     None,
///     None,
///     FaultKind::Io(io::ErrorKind::ResourceBusy),
///     3,
/// );
/// # let _ = plan;
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per-operation-class fault probability; absent class = never.
    rates: HashMap<FaultOp, f64>,
    /// Kind palette for random faults; empty = [`FaultKind::TRANSIENT`].
    kinds: Vec<FaultKind>,
    /// Scripted entries, consumed in insertion order before any dice.
    script: Vec<ScriptedFault>,
    /// Per-`vms()`-call probability of one whole-VM disappearance.
    vanish_rate: f64,
    /// When set, random faults and vanishes only hit this VM.
    target_vm: Option<VmId>,
}

impl FaultPlan {
    /// A plan that injects nothing; the decorator becomes a transparent
    /// pass-through.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fault every operation class with probability `rate`, drawing kinds
    /// uniformly from [`FaultKind::TRANSIENT`].
    pub fn random(rate: f64) -> Self {
        let mut plan = FaultPlan::default();
        for op in FaultOp::ALL {
            plan.rates.insert(op, rate);
        }
        plan
    }

    /// Override the fault probability of one operation class.
    pub fn with_rate(mut self, op: FaultOp, rate: f64) -> Self {
        self.rates.insert(op, rate.clamp(0.0, 1.0));
        self
    }

    /// Replace the palette of kinds random faults are drawn from.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Each `vms()` call makes a uniformly chosen listed VM vanish with
    /// this probability (see [`FaultInjectingBackend::vanish_vm`]).
    pub fn with_vanish_rate(mut self, rate: f64) -> Self {
        self.vanish_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Confine *random* faults to operations attributable to one VM:
    /// other VMs never fault, and the host-global reads that cannot be
    /// attributed to a VM (`thread_last_cpu`, `cpu_cur_freq`) are spared
    /// too. Random vanishes only ever claim the target. Scripted entries
    /// keep their own filters and are unaffected.
    ///
    /// This is what lets a chaos test assert invariants about the
    /// *fault-free* VMs: with a target, every other VM's samples are
    /// trustworthy by construction.
    pub fn with_target_vm(mut self, vm: VmId) -> Self {
        self.target_vm = Some(vm);
        self
    }

    /// Script a fault: the next `times` operations matching `op` (and the
    /// `vm`/`vcpu` filters, when given) fail with `kind`. Entries are
    /// consumed in insertion order.
    pub fn script(
        mut self,
        op: FaultOp,
        vm: Option<VmId>,
        vcpu: Option<VcpuId>,
        kind: FaultKind,
        times: u32,
    ) -> Self {
        self.script.push(ScriptedFault {
            op,
            vm,
            vcpu,
            kind,
            remaining: times,
        });
        self
    }

    fn rate(&self, op: FaultOp) -> f64 {
        self.rates.get(&op).copied().unwrap_or(0.0)
    }

    fn kinds(&self) -> &[FaultKind] {
        if self.kinds.is_empty() {
            &FaultKind::TRANSIENT
        } else {
            &self.kinds
        }
    }
}

/// Counters of injected faults, for assertions and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Monitoring reads that returned an injected `Err`.
    pub read_errors: u64,
    /// Writes that returned an injected `Err`.
    pub write_errors: u64,
    /// Reads answered with a stale (previous) value.
    pub stale_reads: u64,
    /// Reads answered with zero/empty content.
    pub zero_reads: u64,
    /// VMs made to vanish (scripted or random).
    pub vanished_vms: u64,
}

impl FaultStats {
    /// Total number of operations that were tampered with.
    pub fn total(&self) -> u64 {
        self.read_errors + self.write_errors + self.stale_reads + self.zero_reads
    }
}

/// Interior-mutable state: monitoring methods take `&self`, but fault
/// decisions consume RNG state and update caches/stats.
#[derive(Debug)]
struct FaultState {
    rng: SplitMix64,
    script: Vec<ScriptedFault>,
    /// VMs that will appear in one more `vms()` listing and then vanish.
    vanishing: BTreeSet<VmId>,
    /// VMs that are gone: absent from listings, per-VM operations fail.
    vanished: BTreeSet<VmId>,
    stats: FaultStats,
    last_usage: HashMap<(VmId, VcpuId), Micros>,
    last_throttled: HashMap<(VmId, VcpuId), Micros>,
    last_freq: HashMap<CpuId, MHz>,
    armed: bool,
}

/// A [`HostBackend`] decorator that injects deterministic faults per the
/// configured [`FaultPlan`]. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct FaultInjectingBackend<B: HostBackend> {
    inner: B,
    plan: FaultPlan,
    state: RefCell<FaultState>,
}

impl<B: HostBackend> FaultInjectingBackend<B> {
    /// Wrap `inner`, drawing all randomness from SplitMix64 seeded with
    /// `seed` — identical plans, seeds and call sequences replay
    /// identically.
    pub fn new(inner: B, plan: FaultPlan, seed: u64) -> Self {
        let script = plan.script.clone();
        FaultInjectingBackend {
            inner,
            plan,
            state: RefCell::new(FaultState {
                rng: SplitMix64::new(seed),
                script,
                vanishing: BTreeSet::new(),
                vanished: BTreeSet::new(),
                stats: FaultStats::default(),
                last_usage: HashMap::new(),
                last_throttled: HashMap::new(),
                last_freq: HashMap::new(),
                armed: true,
            }),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (e.g. to advance a simulator).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Stop injecting: every subsequent operation passes straight
    /// through. Vanished VMs stay vanished — a disappeared VM does not
    /// come back just because the fault storm ended.
    pub fn disarm(&self) {
        self.state.borrow_mut().armed = false;
    }

    /// Resume injecting after [`disarm`](Self::disarm).
    pub fn arm(&self) {
        self.state.borrow_mut().armed = true;
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.state.borrow().stats
    }

    /// Script the disappearance of `vm` with stale-listing semantics:
    /// the *next* `vms()` call still reports it (the enumeration raced
    /// the shutdown), every per-VM operation already fails with a
    /// [vanished](CgroupError::is_vanished) error, and listings after
    /// that omit it.
    pub fn vanish_vm(&self, vm: VmId) {
        let mut st = self.state.borrow_mut();
        st.vanishing.insert(vm);
        st.stats.vanished_vms += 1;
    }

    /// Append a scripted fault at runtime: the next `times` operations
    /// matching `op` (and the optional `vm`/`vcpu` filters) fail with
    /// `kind`. Same semantics as [`FaultPlan::script`], but usable
    /// mid-test to stage faults relative to the current state.
    pub fn script_fault(
        &self,
        op: FaultOp,
        vm: Option<VmId>,
        vcpu: Option<VcpuId>,
        kind: FaultKind,
        times: u32,
    ) {
        if times == 0 {
            return;
        }
        self.state.borrow_mut().script.push(ScriptedFault {
            op,
            vm,
            vcpu,
            kind,
            remaining: times,
        });
    }

    /// Is `vm` currently hidden by the fault layer?
    pub fn is_vanished(&self, vm: VmId) -> bool {
        let st = self.state.borrow();
        st.vanished.contains(&vm) || st.vanishing.contains(&vm)
    }

    /// Decide whether this call faults, and how. Scripted entries are
    /// consulted first; otherwise the plan's per-op probability rolls.
    fn decide(&self, op: FaultOp, vm: Option<VmId>, vcpu: Option<VcpuId>) -> Option<FaultKind> {
        let mut st = self.state.borrow_mut();
        if !st.armed {
            return None;
        }
        if let Some(idx) = st.script.iter().position(|s| {
            s.op == op
                && s.remaining > 0
                && (s.vm.is_none() || s.vm == vm)
                && (s.vcpu.is_none() || s.vcpu == vcpu)
        }) {
            st.script[idx].remaining -= 1;
            let kind = st.script[idx].kind;
            if st.script[idx].remaining == 0 {
                st.script.remove(idx);
            }
            return Some(kind);
        }
        if let Some(target) = self.plan.target_vm {
            // Targeted plan: random faults only hit the target VM, and
            // never the host-global reads (vm is None there).
            if vm != Some(target) {
                return None;
            }
        }
        let p = self.plan.rate(op);
        if p > 0.0 && st.rng.chance(p) {
            let kinds = self.plan.kinds();
            let i = st.rng.next_below(kinds.len() as u64) as usize;
            return Some(kinds[i]);
        }
        None
    }

    /// Error for a per-VM operation on a vanished VM: the cgroup subtree
    /// is gone.
    fn vanished_err(vm: VmId) -> CgroupError {
        CgroupError::NoSuchGroup(format!("{vm}.scope"))
    }

    fn err_for(op: FaultOp, kind: FaultKind) -> CgroupError {
        match kind {
            FaultKind::Io(k) => CgroupError::io(
                format!("<injected:{op:?}>"),
                io::Error::new(k, "injected fault"),
            ),
            // Torn on an errorful path (or any kind on a write) degrades
            // to the closest real-world failure.
            FaultKind::Torn => CgroupError::parse("injected torn read", "<injected garbage>"),
            FaultKind::Stale | FaultKind::Zero => CgroupError::io(
                format!("<injected:{op:?}>"),
                io::Error::new(io::ErrorKind::ResourceBusy, "injected fault"),
            ),
        }
    }

    fn check_vm(&self, vm: VmId) -> Result<()> {
        if self.is_vanished(vm) {
            Err(Self::vanished_err(vm))
        } else {
            Ok(())
        }
    }
}

impl<B: HostBackend> HostBackend for FaultInjectingBackend<B> {
    fn topology(&self) -> TopologyInfo {
        // Topology is static; nothing worth faulting.
        self.inner.topology()
    }

    fn vms(&self) -> Vec<VmCgroupInfo> {
        let all = self.inner.vms();
        let mut st = self.state.borrow_mut();
        // Random whole-VM disappearance: the chosen VM is still in this
        // listing (the race window) but unreachable from now on.
        if st.armed && self.plan.vanish_rate > 0.0 && st.rng.chance(self.plan.vanish_rate) {
            let alive: Vec<VmId> = all
                .iter()
                .map(|v| v.vm)
                .filter(|vm| !st.vanished.contains(vm) && !st.vanishing.contains(vm))
                .filter(|vm| self.plan.target_vm.is_none_or(|t| t == *vm))
                .collect();
            if !alive.is_empty() {
                let pick = alive[st.rng.next_below(alive.len() as u64) as usize];
                st.vanishing.insert(pick);
                st.stats.vanished_vms += 1;
            }
        }
        let listed: Vec<VmCgroupInfo> = all
            .into_iter()
            .filter(|v| !st.vanished.contains(&v.vm))
            .collect();
        // Stale-listing window consumed: next listing omits these too.
        let vanishing = std::mem::take(&mut st.vanishing);
        st.vanished.extend(vanishing);
        listed
    }

    fn listing_errors(&self) -> u64 {
        self.inner.listing_errors()
    }

    fn begin_read_pass(&self) {
        // Forwarded so the inner backend's per-pass amortisations still
        // reset. `read_vcpu_raw` is deliberately NOT overridden: the
        // trait default decomposes it into the fine-grained calls below,
        // so every fault draw happens per call, in the legacy order —
        // a fault plan replays identically whether the monitor reads
        // through the batched or the fine-grained surface.
        self.inner.begin_read_pass();
    }

    fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        self.check_vm(vm)?;
        match self.decide(FaultOp::VcpuUsage, Some(vm), Some(vcpu)) {
            None => {
                let v = self.inner.vcpu_usage(vm, vcpu)?;
                self.state.borrow_mut().last_usage.insert((vm, vcpu), v);
                Ok(v)
            }
            Some(FaultKind::Stale) => {
                let mut st = self.state.borrow_mut();
                st.stats.stale_reads += 1;
                Ok(st
                    .last_usage
                    .get(&(vm, vcpu))
                    .copied()
                    .unwrap_or(Micros::ZERO))
            }
            Some(FaultKind::Zero) => {
                self.state.borrow_mut().stats.zero_reads += 1;
                Ok(Micros::ZERO)
            }
            Some(kind) => {
                self.state.borrow_mut().stats.read_errors += 1;
                Err(Self::err_for(FaultOp::VcpuUsage, kind))
            }
        }
    }

    fn vcpu_throttled(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        self.check_vm(vm)?;
        match self.decide(FaultOp::VcpuThrottled, Some(vm), Some(vcpu)) {
            None => {
                let v = self.inner.vcpu_throttled(vm, vcpu)?;
                self.state.borrow_mut().last_throttled.insert((vm, vcpu), v);
                Ok(v)
            }
            Some(FaultKind::Stale) => {
                let mut st = self.state.borrow_mut();
                st.stats.stale_reads += 1;
                Ok(st
                    .last_throttled
                    .get(&(vm, vcpu))
                    .copied()
                    .unwrap_or(Micros::ZERO))
            }
            Some(FaultKind::Zero) => {
                self.state.borrow_mut().stats.zero_reads += 1;
                Ok(Micros::ZERO)
            }
            Some(kind) => {
                self.state.borrow_mut().stats.read_errors += 1;
                Err(Self::err_for(FaultOp::VcpuThrottled, kind))
            }
        }
    }

    fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> Result<Vec<Tid>> {
        self.check_vm(vm)?;
        match self.decide(FaultOp::VcpuThreads, Some(vm), Some(vcpu)) {
            None => self.inner.vcpu_threads(vm, vcpu),
            // The thread is mid-exit: `cgroup.threads` reads empty.
            Some(FaultKind::Stale) | Some(FaultKind::Zero) => {
                self.state.borrow_mut().stats.zero_reads += 1;
                Ok(Vec::new())
            }
            Some(kind) => {
                self.state.borrow_mut().stats.read_errors += 1;
                Err(Self::err_for(FaultOp::VcpuThreads, kind))
            }
        }
    }

    fn thread_last_cpu(&self, tid: Tid) -> Result<CpuId> {
        match self.decide(FaultOp::ThreadLastCpu, None, None) {
            None => self.inner.thread_last_cpu(tid),
            // `/proc/{tid}/stat` of a reaped thread: report core 0, the
            // same fallback the monitor uses for empty thread lists.
            Some(FaultKind::Stale) | Some(FaultKind::Zero) => {
                self.state.borrow_mut().stats.zero_reads += 1;
                Ok(CpuId::new(0))
            }
            Some(kind) => {
                self.state.borrow_mut().stats.read_errors += 1;
                Err(Self::err_for(FaultOp::ThreadLastCpu, kind))
            }
        }
    }

    fn cpu_cur_freq(&self, cpu: CpuId) -> Result<MHz> {
        match self.decide(FaultOp::CpuCurFreq, None, None) {
            None => {
                let v = self.inner.cpu_cur_freq(cpu)?;
                self.state.borrow_mut().last_freq.insert(cpu, v);
                Ok(v)
            }
            Some(FaultKind::Stale) => {
                let mut st = self.state.borrow_mut();
                st.stats.stale_reads += 1;
                match st.last_freq.get(&cpu).copied() {
                    Some(v) => Ok(v),
                    None => {
                        drop(st);
                        self.inner.cpu_cur_freq(cpu)
                    }
                }
            }
            Some(FaultKind::Zero) => {
                self.state.borrow_mut().stats.zero_reads += 1;
                Ok(MHz(0))
            }
            Some(kind) => {
                self.state.borrow_mut().stats.read_errors += 1;
                Err(Self::err_for(FaultOp::CpuCurFreq, kind))
            }
        }
    }

    fn set_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId, max: CpuMax) -> Result<()> {
        self.check_vm(vm)?;
        match self.decide(FaultOp::SetVcpuMax, Some(vm), Some(vcpu)) {
            None => self.inner.set_vcpu_max(vm, vcpu, max),
            Some(kind) => {
                self.state.borrow_mut().stats.write_errors += 1;
                Err(Self::err_for(FaultOp::SetVcpuMax, kind))
            }
        }
    }

    fn vcpu_max(&self, vm: VmId, vcpu: VcpuId) -> Result<CpuMax> {
        self.check_vm(vm)?;
        match self.decide(FaultOp::VcpuMax, Some(vm), Some(vcpu)) {
            None | Some(FaultKind::Stale) | Some(FaultKind::Zero) => self.inner.vcpu_max(vm, vcpu),
            Some(kind) => {
                self.state.borrow_mut().stats.read_errors += 1;
                Err(Self::err_for(FaultOp::VcpuMax, kind))
            }
        }
    }

    fn set_vm_weight(&mut self, vm: VmId, weight: u32) -> Result<()> {
        self.check_vm(vm)?;
        match self.decide(FaultOp::SetVmWeight, Some(vm), None) {
            None => self.inner.set_vm_weight(vm, weight),
            Some(kind) => {
                self.state.borrow_mut().stats.write_errors += 1;
                Err(Self::err_for(FaultOp::SetVmWeight, kind))
            }
        }
    }

    fn vm_weight(&self, vm: VmId) -> Result<u32> {
        self.check_vm(vm)?;
        match self.decide(FaultOp::VmWeight, Some(vm), None) {
            None | Some(FaultKind::Stale) | Some(FaultKind::Zero) => self.inner.vm_weight(vm),
            Some(kind) => {
                self.state.borrow_mut().stats.read_errors += 1;
                Err(Self::err_for(FaultOp::VmWeight, kind))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::FixtureTree;
    use crate::fs::FsBackend;

    /// A three-VM on-disk fixture; keep the tree alive while the backend
    /// is in use.
    fn fixture() -> (FixtureTree, FsBackend) {
        let fx = FixtureTree::builder()
            .cpus(4, MHz(2400))
            .vm("alpha", 2, &[100, 101])
            .vm("beta", 1, &[200])
            .vm("gamma", 1, &[300])
            .build();
        let backend = fx.backend();
        (fx, backend)
    }

    #[test]
    fn no_plan_is_transparent() {
        let (_fx, inner) = fixture();
        let want_vms = inner.vms();
        let faulty = FaultInjectingBackend::new(inner, FaultPlan::none(), 1);
        assert_eq!(faulty.vms(), want_vms);
        let vm = want_vms[0].vm;
        for _ in 0..100 {
            assert!(faulty.vcpu_usage(vm, VcpuId::new(0)).is_ok());
        }
        assert_eq!(faulty.stats().total(), 0);
    }

    #[test]
    fn seeded_runs_replay_identically() {
        let plan = FaultPlan::random(0.3);
        let run = |seed: u64| {
            let (_fx, inner) = fixture();
            let faulty = FaultInjectingBackend::new(inner, plan.clone(), seed);
            let vm = faulty.vms()[0].vm;
            (0..200)
                .map(|_| faulty.vcpu_usage(vm, VcpuId::new(0)).is_ok())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
    }

    #[test]
    fn rate_one_always_faults_other_ops_untouched() {
        let (_fx, inner) = fixture();
        let always = FaultInjectingBackend::new(
            inner,
            FaultPlan::none()
                .with_rate(FaultOp::VcpuUsage, 1.0)
                .with_kinds(&[FaultKind::Io(io::ErrorKind::Interrupted)]),
            3,
        );
        let vm = always.vms()[0].vm;
        for _ in 0..50 {
            let err = always.vcpu_usage(vm, VcpuId::new(0)).unwrap_err();
            assert!(err.is_transient());
        }
        assert_eq!(always.stats().read_errors, 50);
        // Other ops are untouched.
        assert!(always.vcpu_threads(vm, VcpuId::new(0)).is_ok());
    }

    #[test]
    fn scripted_faults_fire_first_then_expire() {
        let plan = FaultPlan::none().script(
            FaultOp::SetVcpuMax,
            None,
            Some(VcpuId::new(0)),
            FaultKind::Io(io::ErrorKind::ResourceBusy),
            2,
        );
        let (_fx, inner) = fixture();
        let mut faulty = FaultInjectingBackend::new(inner, plan, 4);
        let vm = faulty.vms()[0].vm;
        let cap = CpuMax::with_period(Micros(50_000), Micros(100_000));
        // vcpu1 does not match the filter.
        assert!(faulty.set_vcpu_max(vm, VcpuId::new(1), cap).is_ok());
        assert!(faulty.set_vcpu_max(vm, VcpuId::new(0), cap).is_err());
        assert!(faulty.set_vcpu_max(vm, VcpuId::new(0), cap).is_err());
        // Script exhausted.
        assert!(faulty.set_vcpu_max(vm, VcpuId::new(0), cap).is_ok());
        assert_eq!(faulty.stats().write_errors, 2);
    }

    #[test]
    fn stale_and_zero_reads_succeed_with_wrong_data() {
        let (fx, inner) = fixture();
        let plan = FaultPlan::none()
            .script(FaultOp::VcpuUsage, None, None, FaultKind::Zero, 1)
            .script(FaultOp::VcpuUsage, None, None, FaultKind::Stale, 1);
        let faulty = FaultInjectingBackend::new(inner, plan, 5);
        let vm = faulty.vms()[0].vm;
        // First call: zero read (the counter "reset").
        assert_eq!(faulty.vcpu_usage(vm, VcpuId::new(0)).unwrap(), Micros::ZERO);
        assert_eq!(faulty.stats().zero_reads, 1);
        // Second call: stale — no successful read yet, so still zero.
        fx.add_vcpu_usage("alpha", 0, Micros(500_000));
        assert_eq!(faulty.vcpu_usage(vm, VcpuId::new(0)).unwrap(), Micros::ZERO);
        assert_eq!(faulty.stats().stale_reads, 1);
        // Script exhausted: real value now visible.
        assert_eq!(
            faulty.vcpu_usage(vm, VcpuId::new(0)).unwrap(),
            Micros(500_000)
        );
    }

    #[test]
    fn stale_read_replays_last_successful_value() {
        let (fx, inner) = fixture();
        let faulty = FaultInjectingBackend::new(inner, FaultPlan::none(), 5);
        let vm = faulty.vms()[0].vm;
        fx.add_vcpu_usage("alpha", 0, Micros(250_000));
        assert_eq!(
            faulty.vcpu_usage(vm, VcpuId::new(0)).unwrap(),
            Micros(250_000)
        );
        // Stage a stale fault *after* a successful read was cached, then
        // advance the real counter: the stale read replays the old value.
        faulty.script_fault(FaultOp::VcpuUsage, Some(vm), None, FaultKind::Stale, 1);
        fx.add_vcpu_usage("alpha", 0, Micros(100_000));
        assert_eq!(
            faulty.vcpu_usage(vm, VcpuId::new(0)).unwrap(),
            Micros(250_000),
            "stale read replays the cached value"
        );
        assert_eq!(
            faulty.vcpu_usage(vm, VcpuId::new(0)).unwrap(),
            Micros(350_000),
            "script exhausted, real value visible again"
        );
    }

    #[test]
    fn vanish_vm_has_stale_listing_semantics() {
        let (_fx, inner) = fixture();
        let faulty = FaultInjectingBackend::new(inner, FaultPlan::none(), 6);
        let before = faulty.vms();
        let victim = before[0].vm;
        faulty.vanish_vm(victim);
        // The next listing still contains the victim (stale enumeration)…
        let stale = faulty.vms();
        assert!(stale.iter().any(|v| v.vm == victim));
        // …but per-VM reads already fail with a vanished error…
        let err = faulty.vcpu_usage(victim, VcpuId::new(0)).unwrap_err();
        assert!(err.is_vanished());
        // …and the listing after that omits it.
        let fresh = faulty.vms();
        assert!(!fresh.iter().any(|v| v.vm == victim));
        assert_eq!(fresh.len(), before.len() - 1);
        // Other VMs are untouched.
        let other = fresh[0].vm;
        assert!(faulty.vcpu_usage(other, VcpuId::new(0)).is_ok());
    }

    #[test]
    fn disarm_stops_random_faults_but_not_vanishes() {
        let (_fx, inner) = fixture();
        let faulty = FaultInjectingBackend::new(inner, FaultPlan::random(1.0), 9);
        let vm = faulty.vms()[0].vm;
        faulty.disarm();
        for _ in 0..50 {
            assert!(faulty.vcpu_usage(vm, VcpuId::new(0)).is_ok());
        }
        faulty.vanish_vm(vm);
        faulty.vms();
        faulty.vms();
        assert!(faulty.vcpu_usage(vm, VcpuId::new(0)).is_err());
        faulty.arm();
        assert!(faulty.vcpu_usage(vm, VcpuId::new(0)).is_err());
    }

    #[test]
    fn target_vm_confines_random_faults() {
        let (_fx, inner) = fixture();
        let vms = inner.vms();
        let (victim, bystander) = (vms[0].vm, vms[1].vm);
        let faulty = FaultInjectingBackend::new(
            inner,
            FaultPlan::random(1.0)
                .with_kinds(&[FaultKind::Io(io::ErrorKind::Interrupted)])
                .with_target_vm(victim),
            13,
        );
        for _ in 0..50 {
            assert!(faulty.vcpu_usage(victim, VcpuId::new(0)).is_err());
            assert!(faulty.vcpu_usage(bystander, VcpuId::new(0)).is_ok());
            // Host-global reads cannot be attributed to a VM, so a
            // targeted plan never faults them.
            assert!(faulty.thread_last_cpu(Tid(100)).is_ok());
            assert!(faulty.cpu_cur_freq(CpuId::new(0)).is_ok());
        }
        assert_eq!(faulty.stats().read_errors, 50);
    }

    #[test]
    fn target_vm_confines_random_vanishes() {
        let (_fx, inner) = fixture();
        let target = inner.vms()[1].vm;
        let faulty = FaultInjectingBackend::new(
            inner,
            FaultPlan::none()
                .with_vanish_rate(1.0)
                .with_target_vm(target),
            17,
        );
        let total = faulty.inner().vms().len();
        // First listing: the target is picked but still listed (race
        // window); afterwards only the target is ever gone.
        assert_eq!(faulty.vms().len(), total);
        for _ in 0..5 {
            let listed = faulty.vms();
            assert_eq!(listed.len(), total - 1);
            assert!(!listed.iter().any(|v| v.vm == target));
        }
        assert_eq!(faulty.stats().vanished_vms, 1);
    }

    #[test]
    fn random_vanish_keeps_victim_in_current_listing() {
        let (_fx, inner) = fixture();
        let faulty = FaultInjectingBackend::new(inner, FaultPlan::none().with_vanish_rate(1.0), 11);
        let total = faulty.inner().vms().len();
        assert!(total >= 2, "fixture should host several VMs");
        // Every listing loses at most one VM relative to the previous one
        // (vanish fires each call until nobody is left).
        let mut prev = total + 1;
        loop {
            let now = faulty.vms().len();
            assert!(now == prev || now + 1 == prev, "{now} after {prev}");
            if now == 0 {
                break;
            }
            prev = now;
        }
        assert_eq!(faulty.stats().vanished_vms as usize, total);
    }
}
