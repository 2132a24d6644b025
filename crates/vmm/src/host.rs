//! `SimHost` — a complete simulated IaaS node.
//!
//! Combines a [`NodeSpec`] topology, a cgroup tree with the KVM layout, the
//! scheduling [`Engine`] and a set of [`VmInstance`]s. Each
//! [`SimHost::tick`] (100 ms):
//!
//! 1. asks every VM's workload for per-vCPU demand;
//! 2. runs the scheduler engine (fair share + quotas + placement + DVFS);
//! 3. delivers the performed hardware cycles back to the workloads and
//!    collects their benchmark events;
//! 4. maintains per-vCPU ground-truth frequency windows and node
//!    telemetry (utilization, power).
//!
//! `SimHost` implements [`HostBackend`], so the controller drives it with
//! the same code that drives a physical machine through
//! [`vfc_cgroupfs::fs::FsBackend`].

use crate::instance::VmInstance;
use crate::template::VmTemplate;
use crate::workload::{Workload, WorkloadEvent};
use std::collections::HashMap;
use vfc_cgroupfs::backend::{HostBackend, TopologyInfo, VmCgroupInfo};
use vfc_cgroupfs::error::{CgroupError, Result};
use vfc_cgroupfs::model::CpuMax;
use vfc_cgroupfs::tree::{kvm_layout, CgroupTree};
use vfc_cpusched::dvfs::{Governor, GovernorKind};
use vfc_cpusched::engine::Engine;
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{CpuId, Cycles, MHz, Micros, Tid, VcpuId, VmId};

/// A workload event, stamped with time and emitting VM.
#[derive(Debug, Clone, PartialEq)]
pub struct HostEvent {
    /// Simulated time the event fired.
    pub at: Micros,
    /// Emitting VM.
    pub vm: VmId,
    /// Emitting VM's instance name.
    pub vm_name: String,
    /// The workload's event.
    pub event: WorkloadEvent,
}

/// Per-tick node telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickTelemetry {
    /// End of the tick this sample describes.
    pub at: Micros,
    /// Node utilization in [0, 1].
    pub utilization: f64,
    /// Node power draw, Watts.
    pub power_w: f64,
    /// Mean frequency across all cores.
    pub mean_core_freq: MHz,
}

#[derive(Debug, Clone, Copy, Default)]
struct WindowAcc {
    ran: Micros,
    work: Cycles,
    demanded: Micros,
}

/// Ground-truth frequency windows of one VM, one slot per vCPU: the
/// window being filled and the last completed one.
#[derive(Debug, Clone)]
pub(crate) struct VmWindows {
    cur: Vec<WindowAcc>,
    last: Vec<WindowAcc>,
}

impl VmWindows {
    pub(crate) fn new(vcpus: usize) -> Self {
        VmWindows {
            cur: vec![WindowAcc::default(); vcpus],
            last: vec![WindowAcc::default(); vcpus],
        }
    }
}

/// [`SimHost`]'s position entry of a departed VM.
const GONE: u32 = u32::MAX;

/// Ticks of telemetry history kept per host. Consumers only ever read
/// the tail (the cluster's energy accounting averages the last window's
/// 10 ticks); keeping the full history made every host grow without
/// bound over a 1,200-node trace replay.
const TELEMETRY_CAP: usize = 64;

/// See module documentation.
pub struct SimHost {
    spec: NodeSpec,
    engine: Engine,
    tree: CgroupTree,
    /// The live instances, in provision order, each with its frequency
    /// windows — what every per-tick and per-listing walk iterates, so a
    /// host's cost and memory follow what it hosts now, not what it ever
    /// hosted.
    vms: Vec<VmInstance>,
    /// Position in `vms` of every `VmId` this host issued, [`GONE`] once
    /// the VM departed. `VmId`s are never reused, so this is the one
    /// thing that grows per VM ever provisioned (4 B each).
    position: Vec<u32>,
    next_tid: u32,
    next_machine: u32,
    per_template_count: HashMap<String, u32>,
    now: Micros,
    tick_count: u64,
    period_ticks: u32,
    events: Vec<HostEvent>,
    telemetry: Vec<TickTelemetry>,
    pending_deprovision: Vec<VmId>,
    /// Bumped whenever the `vms()` listing would change (provision,
    /// deprovision, vfreq resize) — the [`HostBackend::vms_epoch`]
    /// inventory cookie.
    inventory_epoch: u64,
    // Reusable per-tick buffers (see `tick`).
    /// Demand per engine slot (each instance knows its vCPUs' slots).
    demands: Vec<Micros>,
    frac_buf: Vec<f64>,
    delivered: Vec<Cycles>,
}

impl SimHost {
    /// Host with the default 100 ms tick, 1 s window, schedutil governor
    /// (cores follow load, readings carry the governor's default noise):
    /// the cluster's nodes.
    ///
    /// Use [`SimHost::fixed_freq`] when every core must sit at `F^MAX`
    /// with exact readings, and [`SimHost::with_engine`] only for an
    /// engine neither gives (another governor, noise level or tick).
    pub fn new(spec: NodeSpec, seed: u64) -> Self {
        let engine = Engine::new(spec.clone(), seed);
        SimHost {
            spec,
            engine,
            tree: CgroupTree::new(),
            vms: Vec::new(),
            position: Vec::new(),
            next_tid: 1000,
            next_machine: 1,
            per_template_count: HashMap::new(),
            now: Micros::ZERO,
            tick_count: 0,
            period_ticks: 10,
            events: Vec::new(),
            telemetry: Vec::new(),
            pending_deprovision: Vec::new(),
            inventory_epoch: 0,
            demands: Vec::new(),
            frac_buf: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Host whose cores all run at `F^MAX` with exact frequency readings
    /// (performance governor, zero reading noise) on the default 100 ms
    /// tick — the core the paper states every guarantee against (Eq. 1–2),
    /// so a shortfall on it is the controller's, not DVFS jitter. `seed`
    /// seeds the engine; with no noise the governor never draws.
    pub fn fixed_freq(spec: NodeSpec, seed: u64) -> Self {
        let governor = Governor::new(GovernorKind::Performance, spec.min_mhz, spec.max_mhz, seed)
            .with_noise_std(0.0);
        let engine = Engine::with_parts(spec.clone(), Micros(100_000), governor, seed);
        SimHost::new(spec, seed).with_engine(engine)
    }

    /// Replace the scheduling engine (governor, tick length, …). Must be
    /// called before the first tick.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        assert_eq!(self.tick_count, 0, "engine swap after ticks started");
        self.engine = engine;
        self
    }

    /// Node description.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Simulated wall-clock time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Engine tick length.
    pub fn tick_len(&self) -> Micros {
        self.engine.tick_len()
    }

    /// Ticks per ground-truth frequency window (= controller period).
    pub fn period_ticks(&self) -> u32 {
        self.period_ticks
    }

    /// Topology summary (convenience; also available via `HostBackend`).
    pub fn topology_info(&self) -> TopologyInfo {
        self.spec.topology_info()
    }

    /// Provisioned memory across live VMs, GB.
    pub fn mem_used_gb(&self) -> u64 {
        self.vms.iter().map(|i| i.template.mem_gb as u64).sum()
    }

    /// Free memory on the node, GB.
    pub fn mem_free_gb(&self) -> u64 {
        (self.spec.mem_gb as u64).saturating_sub(self.mem_used_gb())
    }

    /// Like [`SimHost::provision`], but refuses when the node's DRAM would
    /// be over-committed — the §V assumption ("enough memory on the host
    /// nodes for all the VMs"), made checkable.
    pub fn try_provision(&mut self, template: &VmTemplate) -> Option<VmId> {
        if template.mem_gb as u64 > self.mem_free_gb() {
            return None;
        }
        Some(self.provision(template))
    }

    /// Create a VM from a template; its cgroup scope and one thread per
    /// vCPU appear immediately. Instances of the same template get
    /// sequential names (`small0`, `small1`, …). Memory is *not* checked
    /// (KVM happily overcommits); use [`SimHost::try_provision`] to
    /// enforce the node's DRAM capacity.
    pub fn provision(&mut self, template: &VmTemplate) -> VmId {
        let count = self
            .per_template_count
            .entry(template.name.clone())
            .or_insert(0);
        let name = format!("{}{}", template.name, *count);
        *count += 1;

        let machine_nr = self.next_machine;
        self.next_machine += 1;
        let (scope, vcpu_groups) =
            kvm_layout::provision(&mut self.tree, machine_nr, &name, template.vcpus)
                .expect("fresh scope name cannot collide");
        let mut tids = Vec::with_capacity(template.vcpus as usize);
        for &g in &vcpu_groups {
            let tid = Tid::new(self.next_tid);
            self.next_tid += 1;
            self.tree.attach_thread(g, tid);
            tids.push(tid);
        }
        let id = VmId::new(self.position.len() as u32);
        self.position.push(self.vms.len() as u32);
        self.vms.push(VmInstance::new(
            id,
            template.clone(),
            name,
            scope,
            vcpu_groups,
            tids,
        ));
        self.inventory_epoch += 1;
        id
    }

    /// Attach (replace) the guest workload of a live VM.
    pub fn attach_workload(&mut self, vm: VmId, workload: Box<dyn Workload>) {
        let p = self.hosted(vm);
        self.vms[p].workload = workload;
    }

    /// Change a live VM's guaranteed virtual frequency at runtime (the
    /// customer upgrades/downgrades the template). The controller picks
    /// the new `F_v` up at its next iteration — no restart, no migration;
    /// this is precisely the agility the paper's template knob enables.
    pub fn set_vfreq(&mut self, vm: VmId, vfreq: MHz) {
        let p = self.hosted(vm);
        self.vms[p].template.vfreq = vfreq;
        // The vfreq is part of the `vms()` listing.
        self.inventory_epoch += 1;
    }

    /// Tear a VM down (KVM shutdown or migration source side): its
    /// threads disappear, its cgroups are removed, its instance is
    /// dropped, and its workload — with all progress state — is handed
    /// back so a migration can resume it elsewhere. The `VmId` is never
    /// reused; every later read of it answers as for an unknown VM.
    ///
    /// # Panics
    /// Panics if the VM is already dead.
    pub fn deprovision(&mut self, vm: VmId) -> Box<dyn Workload> {
        let pos = self
            .position_of(vm)
            .unwrap_or_else(|| panic!("deprovision of a dead VM {vm}"));
        let inst = self.vms.remove(pos);
        self.position[vm.as_usize()] = GONE;
        for (p, later) in self.vms.iter().enumerate().skip(pos) {
            self.position[later.id.as_usize()] = p as u32;
        }
        // Empty and remove the vCPU leaves, then the scope subtree.
        for &g in &inst.vcpu_groups {
            self.tree.detach_threads(g);
            self.tree.rmdir(g).expect("vcpu leaf is empty");
        }
        // libvirt/{emulator} then libvirt then the scope.
        let children: Vec<_> = self.tree.children(inst.scope).collect();
        for libvirt in children {
            let grandchildren: Vec<_> = self.tree.children(libvirt).collect();
            for c in grandchildren {
                self.tree.rmdir(c).expect("emulator group is empty");
            }
            self.tree.rmdir(libvirt).expect("libvirt group is empty");
        }
        self.tree.rmdir(inst.scope).expect("scope is empty");
        self.inventory_epoch += 1;
        inst.workload
    }

    /// Ask for a VM to be torn down at the start of the next tick rather
    /// than immediately. This models the real-world race the controller
    /// must survive: a VM that is present when `vms()` is listed can be
    /// gone by the time its per-vCPU files are read. The workload state
    /// is dropped (use [`SimHost::deprovision`] directly to keep it).
    ///
    /// Scheduling an already-dead or already-scheduled VM is a no-op.
    pub fn schedule_deprovision(&mut self, vm: VmId) {
        if self.is_alive(vm) && !self.pending_deprovision.contains(&vm) {
            self.pending_deprovision.push(vm);
        }
    }

    /// Is the VM still provisioned?
    pub fn is_alive(&self, vm: VmId) -> bool {
        self.position_of(vm).is_some()
    }

    /// The live instances, in provision order.
    pub fn instances(&self) -> &[VmInstance] {
        &self.vms
    }

    fn position_of(&self, vm: VmId) -> Option<usize> {
        match self.position.get(vm.as_usize()) {
            Some(&p) if p != GONE => Some(p as usize),
            _ => None,
        }
    }

    fn live(&self, vm: VmId) -> Option<&VmInstance> {
        self.position_of(vm).map(|p| &self.vms[p])
    }

    /// [`SimHost::position_of`] a VM that must be live.
    fn hosted(&self, vm: VmId) -> usize {
        self.position_of(vm)
            .unwrap_or_else(|| panic!("{vm} is not live on this host"))
    }

    /// Instance lookup.
    ///
    /// # Panics
    /// Panics if the VM is not live on this host.
    pub fn instance(&self, vm: VmId) -> &VmInstance {
        &self.vms[self.hosted(vm)]
    }

    /// Has the live VM's workload completed?
    pub fn workload_done(&self, vm: VmId) -> bool {
        self.instance(vm).workload.is_done()
    }

    /// Advance the host by one engine tick.
    ///
    /// The steady-state tick performs no heap allocation and no lookup by
    /// thread id: demands go into, and outcomes come out of, vectors
    /// indexed by the engine's thread slots, which every live instance
    /// knows for its vCPUs.
    pub fn tick(&mut self) {
        for vm in std::mem::take(&mut self.pending_deprovision) {
            if self.is_alive(vm) {
                drop(self.deprovision(vm));
            }
        }
        let tick = self.engine.tick_len();
        // Slots are renumbered when, and only when, the tree changed shape.
        if self.engine.sync(&self.tree) {
            for inst in &mut self.vms {
                inst.slots.clear();
                for tid in &inst.tids {
                    let slot = self.engine.slot_of(*tid);
                    inst.slots
                        .push(slot.expect("a live vCPU thread is in the tree") as u32);
                }
            }
        }

        // 1. demands; a vCPU its workload does not mention is idle.
        self.demands.clear();
        self.demands.resize(self.engine.slots().len(), Micros::ZERO);
        for inst in &mut self.vms {
            inst.workload
                .demand_into(self.now, inst.nr_vcpus(), &mut self.frac_buf);
            assert!(
                self.frac_buf.len() <= inst.slots.len(),
                "workload {} demands more vCPUs than {} has",
                inst.workload.name(),
                inst.name
            );
            for (slot, frac) in inst.slots.iter().zip(&self.frac_buf) {
                self.demands[*slot as usize] = tick.scale(frac.clamp(0.0, 1.0));
            }
        }

        // 2. schedule
        let out = self.engine.tick_slots(&mut self.tree, &self.demands);
        let end = self.now + tick;

        // 3. deliver + events
        for inst in &mut self.vms {
            self.delivered.clear();
            self.delivered
                .extend(inst.slots.iter().map(|s| out.threads[*s as usize].work));
            inst.workload.deliver(end, &self.delivered);
            for event in inst.workload.poll_events() {
                self.events.push(HostEvent {
                    at: end,
                    vm: inst.id,
                    vm_name: inst.name.clone(),
                    event,
                });
            }
            // 4. ground-truth windows
            for (acc, slot) in inst.windows.cur.iter_mut().zip(&inst.slots) {
                let slice = &out.threads[*slot as usize];
                acc.ran += slice.ran;
                acc.work += slice.work;
                acc.demanded += self.demands[*slot as usize];
            }
        }

        self.telemetry.push(TickTelemetry {
            at: end,
            utilization: out.utilization,
            power_w: out.power_w,
            mean_core_freq: out.mean_core_freq(),
        });
        // Amortized tail-keep: drain in bulk so the per-tick cost stays O(1).
        if self.telemetry.len() >= 2 * TELEMETRY_CAP {
            let drop = self.telemetry.len() - TELEMETRY_CAP;
            self.telemetry.drain(..drop);
        }

        self.now = end;
        self.tick_count += 1;
        if self.tick_count.is_multiple_of(self.period_ticks as u64) {
            for inst in &mut self.vms {
                let w = &mut inst.windows;
                std::mem::swap(&mut w.cur, &mut w.last);
                w.cur.fill(WindowAcc::default());
            }
        }
    }

    /// Advance by one full frequency window (= controller period, 1 s).
    pub fn advance_period(&mut self) {
        for _ in 0..self.period_ticks {
            self.tick();
        }
    }

    /// Advance by (at least) the given wall time.
    pub fn advance(&mut self, wall: Micros) {
        let target = self.now + wall;
        while self.now < target {
            self.tick();
        }
    }

    /// Ground-truth average frequency of a vCPU over the last completed
    /// window: placement-weighted hardware cycles / wall time.
    pub fn vcpu_freq_exact(&self, vm: VmId, vcpu: VcpuId) -> MHz {
        let window = self.engine.tick_len() * self.period_ticks as u64;
        self.last_window(vm, vcpu)
            .map(|acc| acc.work.avg_freq_over(window))
            .unwrap_or(MHz::ZERO)
    }

    /// The vCPU's last completed window; `None` for a departed or unknown
    /// VM or vCPU.
    fn last_window(&self, vm: VmId, vcpu: VcpuId) -> Option<&WindowAcc> {
        self.live(vm)?.windows.last.get(vcpu.as_usize())
    }

    /// CPU time the vCPU *asked for* over the last completed window —
    /// what an omniscient observer knows and a real host does not; used
    /// by the cluster SLO accounting to distinguish "did not want" from
    /// "could not get".
    pub fn vcpu_demand_last_window(&self, vm: VmId, vcpu: VcpuId) -> Micros {
        self.last_window(vm, vcpu)
            .map(|acc| acc.demanded)
            .unwrap_or(Micros::ZERO)
    }

    /// The paper's estimation (§III.B.1): CPU-time share over the last
    /// window × current frequency of the core the vCPU last ran on.
    pub fn vcpu_freq_estimate(&self, vm: VmId, vcpu: VcpuId) -> MHz {
        let window = self.engine.tick_len() * self.period_ticks as u64;
        let Some(inst) = self.live(vm) else {
            return MHz::ZERO;
        };
        let Some(acc) = inst.windows.last.get(vcpu.as_usize()) else {
            return MHz::ZERO;
        };
        let tid = inst.tids[vcpu.as_usize()];
        let core = self.engine.thread_last_cpu(tid).unwrap_or(CpuId::new(0));
        let f = self.engine.core_freq(core);
        MHz((acc.ran.ratio_of(window) * f.as_f64()).round() as u32)
    }

    /// Drain workload events collected so far.
    pub fn drain_events(&mut self) -> Vec<HostEvent> {
        std::mem::take(&mut self.events)
    }

    /// Per-tick telemetry history.
    pub fn telemetry(&self) -> &[TickTelemetry] {
        &self.telemetry
    }

    /// Most recent node utilization, 0 before the first tick.
    pub fn utilization(&self) -> f64 {
        self.telemetry.last().map(|t| t.utilization).unwrap_or(0.0)
    }

    /// Direct read access to the cgroup tree (tests, inspection).
    pub fn tree(&self) -> &CgroupTree {
        &self.tree
    }

    /// Direct read access to the scheduling engine (tests, inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn vcpu_group(&self, vm: VmId, vcpu: VcpuId) -> Result<vfc_cgroupfs::tree::NodeIdx> {
        self.live_vcpu(vm, vcpu).map(|(_, g)| g)
    }

    /// A live vCPU's instance and leaf group.
    fn live_vcpu(
        &self,
        vm: VmId,
        vcpu: VcpuId,
    ) -> Result<(&VmInstance, vfc_cgroupfs::tree::NodeIdx)> {
        self.live(vm)
            .and_then(|i| Some((i, *i.vcpu_groups.get(vcpu.as_usize())?)))
            .ok_or_else(|| CgroupError::NoSuchVcpu {
                vm: vm.as_u32(),
                vcpu: vcpu.as_u32(),
            })
    }

    /// A live VM's scope group, as the backend's per-VM calls answer it.
    fn scope_of(&self, vm: VmId) -> Result<vfc_cgroupfs::tree::NodeIdx> {
        self.live(vm)
            .map(|i| i.scope)
            .ok_or_else(|| CgroupError::NoSuchVcpu {
                vm: vm.as_u32(),
                vcpu: 0,
            })
    }
}

impl HostBackend for SimHost {
    fn topology(&self) -> TopologyInfo {
        self.spec.topology_info()
    }

    fn vms(&self) -> Vec<VmCgroupInfo> {
        self.vms
            .iter()
            .map(|i| VmCgroupInfo {
                vm: i.id,
                name: i.name.clone(),
                nr_vcpus: i.nr_vcpus(),
                vfreq: Some(i.template.vfreq),
            })
            .collect()
    }

    fn vms_epoch(&self) -> Option<u64> {
        Some(self.inventory_epoch)
    }

    fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        let g = self.vcpu_group(vm, vcpu)?;
        Ok(self.tree.node(g).cpu_stat.usage_usec)
    }

    fn vcpu_throttled(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        let g = self.vcpu_group(vm, vcpu)?;
        Ok(self.tree.node(g).cpu_stat.throttled_usec)
    }

    fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> Result<Vec<Tid>> {
        let g = self.vcpu_group(vm, vcpu)?;
        Ok(self.tree.node(g).threads().to_vec())
    }

    fn vcpu_first_thread(&self, vm: VmId, vcpu: VcpuId) -> Result<Option<Tid>> {
        let g = self.vcpu_group(vm, vcpu)?;
        Ok(self.tree.node(g).threads().first().copied())
    }

    fn thread_last_cpu(&self, tid: Tid) -> Result<CpuId> {
        Ok(self.engine.thread_last_cpu(tid).unwrap_or(CpuId::new(0)))
    }

    /// Fused monitoring read: one vCPU-group lookup serves all four
    /// counters instead of the default's four lookups (usage, throttled,
    /// thread, cap). Semantically identical to the default composition —
    /// the simulator's reads are infallible once the group resolves.
    fn read_vcpu_raw(
        &self,
        vm: VmId,
        vcpu: VcpuId,
    ) -> Result<vfc_cgroupfs::backend::VcpuRawSample> {
        let (inst, g) = self.live_vcpu(vm, vcpu)?;
        let node = self.tree.node(g);
        // The vCPU's thread is found by its engine slot. `tick` renumbers
        // the slots exactly when the engine rebuilds its plan, so between
        // ticks the slot is what a search by thread id finds. A VM with
        // no slot yet (provisioned since the last tick) has fresh tids
        // that no plan holds: CPU 0.
        let last_cpu = inst
            .slots
            .get(vcpu.as_usize())
            .and_then(|&s| self.engine.slot_last_cpu(s as usize))
            .unwrap_or(CpuId::new(0));
        Ok(vfc_cgroupfs::backend::VcpuRawSample {
            usage: node.cpu_stat.usage_usec,
            throttled: node.cpu_stat.throttled_usec,
            last_cpu,
            core_freq: self.engine.core_freq(last_cpu),
        })
    }

    fn cpu_cur_freq(&self, cpu: CpuId) -> Result<MHz> {
        Ok(self.engine.core_freq(cpu))
    }

    fn set_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId, max: CpuMax) -> Result<()> {
        let g = self.vcpu_group(vm, vcpu)?;
        self.tree.node_mut(g).cpu_max = max;
        Ok(())
    }

    fn vcpu_max(&self, vm: VmId, vcpu: VcpuId) -> Result<CpuMax> {
        let g = self.vcpu_group(vm, vcpu)?;
        Ok(self.tree.node(g).cpu_max)
    }

    fn set_vm_weight(&mut self, vm: VmId, weight: u32) -> Result<()> {
        let scope = self.scope_of(vm)?;
        self.tree.node_mut(scope).weight = vfc_cgroupfs::backend::clamp_cpu_weight(weight);
        Ok(())
    }

    fn vm_weight(&self, vm: VmId) -> Result<u32> {
        Ok(self.tree.node(self.scope_of(vm)?).weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{BurstyWeb, Compress7zip, IdleWorkload, OpensslBench, SteadyDemand};

    fn quiet_host(threads: u32, mhz: u32) -> SimHost {
        SimHost::fixed_freq(NodeSpec::custom("t", 1, threads, 1, MHz(mhz)), 42)
    }

    #[test]
    fn provision_creates_kvm_layout_and_names() {
        let mut h = quiet_host(4, 2400);
        let a = h.provision(&VmTemplate::small());
        let b = h.provision(&VmTemplate::small());
        let c = h.provision(&VmTemplate::large());
        assert_eq!(h.instance(a).name, "small0");
        assert_eq!(h.instance(b).name, "small1");
        assert_eq!(h.instance(c).name, "large0");
        assert_eq!(h.instance(c).nr_vcpus(), 4);
        // cgroup paths exist
        let path = h.tree().path_of(h.instance(a).vcpu_groups[0]);
        assert!(path.contains("machine.slice"));
        assert!(path.ends_with("libvirt/vcpu0"));
        // backend view
        let vms = HostBackend::vms(&h);
        assert_eq!(vms.len(), 3);
        assert_eq!(vms[2].vfreq, Some(MHz(1800)));
    }

    #[test]
    fn idle_vms_consume_nothing() {
        let mut h = quiet_host(2, 2400);
        let vm = h.provision(&VmTemplate::small());
        h.attach_workload(vm, Box::new(IdleWorkload));
        h.advance_period();
        assert_eq!(h.vcpu_usage(vm, VcpuId::new(0)).unwrap(), Micros::ZERO);
        assert_eq!(h.utilization(), 0.0);
    }

    #[test]
    fn saturating_vm_uses_whole_window() {
        let mut h = quiet_host(4, 2400);
        let vm = h.provision(&VmTemplate::small());
        h.attach_workload(vm, Box::new(SteadyDemand::full()));
        h.advance_period();
        // 2 vCPUs × 1 s each.
        let u0 = h.vcpu_usage(vm, VcpuId::new(0)).unwrap();
        assert_eq!(u0, Micros::SEC);
        assert_eq!(h.vcpu_freq_exact(vm, VcpuId::new(0)), MHz(2400));
        let est = h.vcpu_freq_estimate(vm, VcpuId::new(0));
        assert_eq!(est, MHz(2400));
    }

    #[test]
    fn quota_shows_up_in_exact_frequency() {
        let mut h = quiet_host(4, 2400);
        let vm = h.provision(&VmTemplate::small());
        h.attach_workload(vm, Box::new(SteadyDemand::full()));
        // Cap both vCPUs to 25 % of a core → 600 MHz at 2.4 GHz.
        for j in 0..2 {
            h.set_vcpu_max(vm, VcpuId::new(j), CpuMax::limited(Micros(25_000)))
                .unwrap();
        }
        h.advance_period();
        assert_eq!(h.vcpu_freq_exact(vm, VcpuId::new(0)), MHz(600));
        // cpu.max round-trips.
        assert_eq!(
            h.vcpu_max(vm, VcpuId::new(1)).unwrap(),
            CpuMax::limited(Micros(25_000))
        );
    }

    #[test]
    fn compress_workload_emits_events_through_host() {
        let mut h = quiet_host(2, 2400);
        let vm = h.provision(&VmTemplate::small());
        h.attach_workload(
            vm,
            Box::new(Compress7zip::with_params(
                Micros::ZERO,
                2,
                Cycles(240_000_000),
                Micros::from_millis(500),
            )),
        );
        h.advance(Micros::from_secs(30));
        let events = h.drain_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, WorkloadEvent::Finished { .. })),
            "benchmark should finish within 30 s: {events:?}"
        );
        assert!(events.iter().all(|e| e.vm == vm));
        assert!(h.workload_done(vm));
    }

    #[test]
    fn openssl_finishes_and_frees_cpu() {
        let mut h = quiet_host(4, 2400);
        let vm = h.provision(&VmTemplate::medium());
        h.attach_workload(
            vm,
            Box::new(OpensslBench::with_work(Micros::ZERO, Cycles(2_400_000_000))),
        );
        // 2.4 G cycles per vCPU at 2.4 GHz = 1 s each.
        h.advance(Micros::from_secs(2));
        assert!(h.workload_done(vm));
        let before = h.vcpu_usage(vm, VcpuId::new(0)).unwrap();
        h.advance_period();
        let after = h.vcpu_usage(vm, VcpuId::new(0)).unwrap();
        assert_eq!(before, after, "no more CPU after completion");
    }

    #[test]
    fn contended_host_shares_per_vm() {
        // 2 threads, two VMs with 1 and 3 vCPUs, all saturating: VM-level
        // fair share gives each VM one thread's worth.
        let mut h = quiet_host(2, 2400);
        let a = h.provision(&VmTemplate::new("one", 1, MHz(1000)));
        let b = h.provision(&VmTemplate::new("three", 3, MHz(1000)));
        h.attach_workload(a, Box::new(SteadyDemand::full()));
        h.attach_workload(b, Box::new(SteadyDemand::full()));
        h.advance_period();
        let ua = h.vcpu_usage(a, VcpuId::new(0)).unwrap();
        let ub: Micros = (0..3)
            .map(|j| h.vcpu_usage(b, VcpuId::new(j)).unwrap())
            .sum();
        assert_eq!(ua, Micros::SEC);
        assert_eq!(ub, Micros::SEC);
    }

    #[test]
    fn telemetry_accumulates() {
        let mut h = quiet_host(1, 2400);
        let vm = h.provision(&VmTemplate::new("x", 1, MHz(500)));
        h.attach_workload(vm, Box::new(SteadyDemand::new(0.5)));
        h.advance_period();
        assert_eq!(h.telemetry().len(), 10);
        let t = h.telemetry().last().unwrap();
        assert!((t.utilization - 0.5).abs() < 1e-9);
        assert!(t.power_w > 0.0);
        assert_eq!(h.now(), Micros::SEC);
    }

    #[test]
    fn unknown_vcpu_is_an_error() {
        let h = quiet_host(1, 2400);
        assert!(h.vcpu_usage(VmId::new(0), VcpuId::new(0)).is_err());
    }

    #[test]
    fn memory_accounting_and_try_provision() {
        let mut h = quiet_host(4, 2400);
        assert_eq!(h.mem_used_gb(), 0);
        let total = h.spec().mem_gb as u64;
        // Default templates carry 4 GB each.
        let a = h.try_provision(&VmTemplate::small()).expect("fits");
        assert_eq!(h.mem_used_gb(), 4);
        assert_eq!(h.mem_free_gb(), total - 4);
        // A VM bigger than the node is refused.
        let fat = VmTemplate::new("fat", 1, MHz(100)).with_mem_gb(total as u32 + 1);
        assert!(h.try_provision(&fat).is_none());
        // Departure releases the memory.
        h.deprovision(a);
        assert_eq!(h.mem_used_gb(), 0);
    }

    #[test]
    fn deprovision_removes_vm_and_returns_workload() {
        let mut h = quiet_host(4, 2400);
        let a = h.provision(&VmTemplate::small());
        let b = h.provision(&VmTemplate::large());
        h.attach_workload(a, Box::new(SteadyDemand::full()));
        h.attach_workload(b, Box::new(SteadyDemand::full()));
        h.advance_period();
        let groups_before = h.tree().len();

        let workload = h.deprovision(a);
        assert_eq!(workload.name(), "steady");
        assert!(!h.is_alive(a));
        assert!(h.is_alive(b));
        // Backend no longer lists it; accesses error.
        assert_eq!(HostBackend::vms(&h).len(), 1);
        assert!(h.vcpu_usage(a, VcpuId::new(0)).is_err());
        // cgroups gone: scope (1) + libvirt (1) + emulator (1) + 2 vcpus.
        assert_eq!(h.tree().len(), groups_before - 5);

        // The host keeps running; the survivor gets the freed capacity.
        h.advance_period();
        assert!(h.vcpu_usage(b, VcpuId::new(0)).unwrap().as_u64() > 0);
    }

    #[test]
    fn a_departure_in_the_middle_keeps_order_ids_and_answers() {
        let mut h = quiet_host(4, 2400);
        let [a, b, c] = [0, 1, 2].map(|_| h.provision(&VmTemplate::small()));
        for vm in [a, b, c] {
            h.attach_workload(vm, Box::new(SteadyDemand::new(0.5)));
        }
        h.advance_period();
        assert!(h.vcpu_freq_exact(b, VcpuId::new(0)) > MHz::ZERO);
        drop(h.deprovision(b));

        // The later instance moved down a place and is still found by id.
        let listed =
            |h: &SimHost| -> Vec<VmId> { HostBackend::vms(h).iter().map(|v| v.vm).collect() };
        assert_eq!(listed(&h), [a, c]);
        assert_eq!(h.instances().len(), 2);
        assert_eq!(h.instance(c).name, "small2");
        h.set_vfreq(c, MHz(700));
        assert_eq!(HostBackend::vms(&h)[1].vfreq, Some(MHz(700)));
        assert!(h.vcpu_usage(c, VcpuId::new(1)).is_ok());

        // A departed id is never reissued, and reads as unknown.
        let d = h.provision(&VmTemplate::small());
        assert_eq!(d, VmId::new(3));
        assert_eq!(listed(&h), [a, c, d]);
        assert_eq!(h.vcpu_freq_exact(b, VcpuId::new(0)), MHz::ZERO);
        assert_eq!(h.vcpu_freq_estimate(b, VcpuId::new(0)), MHz::ZERO);
        assert_eq!(h.vcpu_demand_last_window(b, VcpuId::new(0)), Micros::ZERO);
        assert!(matches!(
            h.vcpu_usage(b, VcpuId::new(0)),
            Err(CgroupError::NoSuchVcpu { vm: 1, vcpu: 0 })
        ));
        assert!(h.vm_weight(b).is_err());
        assert!(h.set_vm_weight(VmId::new(99), 100).is_err());
        h.advance_period();
        assert!(h.vcpu_freq_exact(c, VcpuId::new(0)) > MHz::ZERO);
    }

    #[test]
    fn deprovisioned_vm_consumes_nothing() {
        let mut h = quiet_host(2, 2400);
        let a = h.provision(&VmTemplate::new("x", 2, MHz(500)));
        h.attach_workload(a, Box::new(SteadyDemand::full()));
        h.advance_period();
        h.deprovision(a);
        let util_before = h.utilization();
        assert!(util_before > 0.0);
        h.advance_period();
        assert_eq!(h.utilization(), 0.0);
    }

    #[test]
    fn scheduled_deprovision_happens_at_next_tick() {
        let mut h = quiet_host(4, 2400);
        let a = h.provision(&VmTemplate::small());
        let b = h.provision(&VmTemplate::large());
        h.attach_workload(a, Box::new(SteadyDemand::full()));
        h.attach_workload(b, Box::new(SteadyDemand::full()));
        h.advance_period();

        h.schedule_deprovision(a);
        // Nothing happened yet: the VM is still listed and readable.
        assert!(h.is_alive(a));
        assert_eq!(HostBackend::vms(&h).len(), 2);
        assert!(h.vcpu_usage(a, VcpuId::new(0)).is_ok());

        // Idempotent while pending, and the teardown lands on the tick.
        h.schedule_deprovision(a);
        h.tick();
        assert!(!h.is_alive(a));
        assert!(h.is_alive(b));
        assert_eq!(HostBackend::vms(&h).len(), 1);
        assert!(h.vcpu_usage(a, VcpuId::new(0)).is_err());

        // Scheduling a dead VM is a no-op, not a panic.
        h.schedule_deprovision(a);
        h.tick();
        assert!(h.is_alive(b));
    }

    #[test]
    #[should_panic(expected = "deprovision of a dead VM")]
    fn double_deprovision_panics() {
        let mut h = quiet_host(1, 2400);
        let a = h.provision(&VmTemplate::new("x", 1, MHz(500)));
        h.deprovision(a);
        h.deprovision(a);
    }

    #[test]
    fn fixed_freq_host_ignores_the_governor_seed() {
        // The constructor's premise: at zero noise the governor never
        // draws, so a hand-built host whose governor has another seed runs
        // the same life, period by period.
        let spec = NodeSpec::custom("pin", 1, 2, 2, MHz(2400));
        let seed = 17;
        let governor = Governor::new(
            GovernorKind::Performance,
            spec.min_mhz,
            spec.max_mhz,
            seed ^ 0xA5A5,
        )
        .with_noise_std(0.0);
        let engine = Engine::with_parts(spec.clone(), Micros(100_000), governor, seed);
        let mut hosts = [
            SimHost::fixed_freq(spec.clone(), seed),
            SimHost::new(spec.clone(), seed).with_engine(engine),
        ];
        let mut vms = Vec::new();
        for h in &mut hosts {
            let web = h.provision(&VmTemplate::small());
            h.attach_workload(web, Box::new(BurstyWeb::new(seed)));
            let capped = h.provision(&VmTemplate::medium());
            h.attach_workload(capped, Box::new(SteadyDemand::full()));
            h.set_vcpu_max(capped, VcpuId::new(0), CpuMax::limited(Micros(40_000)))
                .unwrap();
            let hog = h.provision(&VmTemplate::large());
            h.attach_workload(hog, Box::new(SteadyDemand::new(0.7)));
            vms = vec![web, capped, hog];
        }
        for _ in 0..20 {
            for h in &mut hosts {
                h.advance_period();
            }
            let [a, b] = &hosts;
            for &vm in &vms {
                for j in 0..a.instance(vm).nr_vcpus() {
                    let vcpu = VcpuId::new(j);
                    assert_eq!(
                        a.vcpu_usage(vm, vcpu).unwrap(),
                        b.vcpu_usage(vm, vcpu).unwrap()
                    );
                    assert_eq!(a.vcpu_freq_exact(vm, vcpu), b.vcpu_freq_exact(vm, vcpu));
                }
            }
            for cpu in 0..spec.nr_threads() {
                let cpu = CpuId::new(cpu);
                assert_eq!(a.engine().core_freq(cpu), spec.max_mhz);
                assert_eq!(a.engine().core_freq(cpu), b.engine().core_freq(cpu));
            }
        }
    }

    #[test]
    fn freq_estimate_tracks_exact_under_uniform_freq() {
        // With the performance governor all cores run at max, so the
        // paper's estimate equals ground truth regardless of placement.
        let mut h = quiet_host(8, 2400);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let vm = h.provision(&VmTemplate::small());
            h.attach_workload(vm, Box::new(SteadyDemand::new(0.6)));
            ids.push(vm);
        }
        for _ in 0..3 {
            h.advance_period();
        }
        for &vm in &ids {
            for j in 0..2 {
                let exact = h.vcpu_freq_exact(vm, VcpuId::new(j));
                let est = h.vcpu_freq_estimate(vm, VcpuId::new(j));
                let diff = (exact.as_u32() as i64 - est.as_u32() as i64).abs();
                assert!(diff <= 24, "estimate {est} vs exact {exact}");
            }
        }
    }
}
