//! Control-plane system tests: the ISSUE's two end-to-end guarantees.
//!
//! * **Invariants under churn + faults** (proptest): random-but-seeded
//!   streams of tenant mutations (create / live-resize / delete) mixed
//!   with scripted node crashes must never produce an Eq. 7 violation on
//!   any node and never let a tenant's desired footprint exceed its
//!   quota on any axis, at any period.
//! * **Kill-and-restart**: the control plane persists only the spec log.
//!   Dropping the plane, the reconciler *and* the whole cluster — then
//!   rebuilding all three from the persisted log — must re-converge to
//!   the exact desired state (same specs, same generations, same
//!   enforced `F_v`).
//!
//! Plus the controller-layer half of the live-resize path over
//! [`TickingHost`] (the daemon-style backend from `tests/common`): a
//! mid-run `set_vfreq` must move the enforced frequency of a saturating
//! vCPU to the new guarantee within a few periods, with the credit
//! wallet clamped to the new ceiling at the moment of the resize.

mod common;

use common::TickingHost;
use proptest::prelude::*;
use vfc::cluster::{ClusterManager, FaultModel, Strategy as ClusterStrategy};
use vfc::controller::ControlMode;
use vfc::controlplane::{ControlPlane, RateLimit, Reconciler, SpecId, TenantQuota};
use vfc::prelude::*;
use vfc::simcore::Micros;

// ---------------------------------------------------------------------
// Churn + node faults (proptest)
// ---------------------------------------------------------------------

/// One admission call, drawn by proptest.
#[derive(Debug, Clone, Copy)]
struct Op {
    tenant: usize,
    /// 0–4 create, 5–7 resize, 8–9 delete (resize/delete fall back to
    /// create when the tenant owns nothing).
    action: u8,
    vcpus: u32,
    vfreq_mhz: u32,
}

fn arb_op(tenants: usize) -> impl Strategy<Value = Op> {
    (0..tenants, 0u8..10, 1u32..=2, 1u32..=6).prop_map(|(tenant, action, vcpus, f)| Op {
        tenant,
        action,
        vcpus,
        vfreq_mhz: 400 * f, // 400..=2400, always within the node's F_MAX
    })
}

/// Scripted node crashes: (period, node index) pairs within the run.
fn arb_crashes(periods: u64, nodes: usize) -> impl Strategy<Value = Vec<(u64, usize)>> {
    proptest::collection::vec((1..periods, 0..nodes), 0..4)
}

const TENANTS: usize = 3;
const NODES: usize = 5;
const PERIODS: u64 = 30;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn churn_with_node_faults_never_violates_eq7_or_quota(
        ops in proptest::collection::vec(arb_op(TENANTS), 10..60),
        crashes in arb_crashes(PERIODS, NODES),
    ) {
        let faults = FaultModel {
            seed: 11,
            scripted_node_crashes: crashes,
            repair_periods: 4,
            ..FaultModel::none()
        };
        let mut cluster = ClusterManager::with_faults(
            vec![NodeSpec::custom("prop", 1, 2, 2, MHz(2400)); NODES],
            ClusterStrategy::FrequencyControl,
            13,
            faults,
        );

        let mut plane = ControlPlane::new();
        plane.set_rate_limit(RateLimit { burst: 6, per_tick: 3 });
        let quota = TenantQuota { max_vms: 6, max_vcpus: 10, max_mhz: 12_000 };
        let tenants: Vec<String> = (0..TENANTS).map(|i| format!("t{i}")).collect();
        for t in &tenants {
            plane.add_tenant(t, quota);
        }
        let mut rec = Reconciler::default();

        let mut live: Vec<(SpecId, usize)> = Vec::new();
        let mut ops = ops.into_iter();
        for _ in 0..PERIODS {
            let loads = cluster.node_loads();
            for op in ops.by_ref().take(2) {
                let owned: Vec<SpecId> = live
                    .iter()
                    .filter(|(_, t)| *t == op.tenant)
                    .map(|(id, _)| *id)
                    .collect();
                if op.action < 5 || owned.is_empty() {
                    let template = VmTemplate::new("p", op.vcpus, MHz(op.vfreq_mhz));
                    if let Ok(id) = plane.create_vm(&tenants[op.tenant], template, &loads) {
                        live.push((id, op.tenant));
                    }
                } else if op.action < 8 {
                    let _ = plane.resize_vm(owned[0], MHz(op.vfreq_mhz), &loads);
                } else if plane.delete_vm(owned[0]).is_ok() {
                    live.retain(|(id, _)| *id != owned[0]);
                }
            }

            rec.reconcile(&mut plane, &mut cluster);
            cluster.run_period();

            // Invariant 1: no node ever exceeds its Eq. 7 budget.
            prop_assert_eq!(cluster.eq7_violations(), 0);
            // Invariant 2: no tenant's desired footprint exceeds quota.
            for t in &tenants {
                let u = plane.usage(t);
                prop_assert!(u.vms <= quota.max_vms, "{t}: {} VMs", u.vms);
                prop_assert!(u.vcpus <= quota.max_vcpus, "{t}: {} vCPUs", u.vcpus);
                prop_assert!(u.mhz <= quota.max_mhz, "{t}: {} MHz", u.mhz);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Kill-and-restart: re-convergence from the persisted spec log
// ---------------------------------------------------------------------

#[test]
fn reconciler_reconverges_from_persisted_spec_log_after_restart() {
    let dir = std::env::temp_dir().join(format!("vfc-cp-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("specs.json");
    let _ = std::fs::remove_file(&log);

    let quota = TenantQuota {
        max_vms: 8,
        max_vcpus: 16,
        max_mhz: 20_000,
    };
    let nodes = || vec![NodeSpec::custom("kr", 1, 2, 2, MHz(2400)); 3];

    // Life before the crash: three VMs, one live-resized (generation 2).
    let mut plane = ControlPlane::with_persistence(log.clone()).unwrap();
    plane.add_tenant("acme", quota);
    let mut cluster = ClusterManager::new(nodes(), ClusterStrategy::FrequencyControl, 3);
    let mut rec = Reconciler::default();
    let loads = cluster.node_loads();
    let a = plane
        .create_vm("acme", VmTemplate::new("a", 2, MHz(900)), &loads)
        .unwrap();
    let b = plane
        .create_vm("acme", VmTemplate::new("b", 1, MHz(1200)), &loads)
        .unwrap();
    let c = plane
        .create_vm("acme", VmTemplate::new("c", 1, MHz(600)), &loads)
        .unwrap();
    assert!(rec.reconcile(&mut plane, &mut cluster).converged);
    cluster.run_period();
    plane
        .resize_vm(a, MHz(1500), &cluster.node_loads())
        .unwrap();
    assert!(rec.reconcile(&mut plane, &mut cluster).converged);
    let usage_before = plane.usage("acme");

    // Crash: plane, reconciler AND cluster all vanish. Only the spec
    // log survives.
    drop((plane, cluster, rec));

    // Restart: replay the log, rebuild an empty cluster, re-converge.
    let mut plane = ControlPlane::with_persistence(log.clone()).unwrap();
    plane.add_tenant("acme", quota);
    let mut cluster = ClusterManager::new(nodes(), ClusterStrategy::FrequencyControl, 99);
    let mut rec = Reconciler::default();

    // The replayed desired state is intact before any reconciling.
    assert_eq!(plane.store().len(), 3);
    let sa = plane.store().get(a).unwrap();
    assert_eq!((sa.generation, sa.template.vfreq), (2, MHz(1500)));
    assert_eq!(plane.store().get(b).unwrap().generation, 1);
    assert_eq!(plane.usage("acme"), usage_before);

    // A fresh reconciler with empty bindings redeploys everything.
    assert!(!rec.is_converged(&plane));
    let mut converged = false;
    for _ in 0..6 {
        if rec.reconcile(&mut plane, &mut cluster).converged {
            converged = true;
            break;
        }
        cluster.run_period();
    }
    assert!(converged, "restarted reconciler never converged");
    for id in [a, b, c] {
        let spec = plane.store().get(id).unwrap();
        let vm = rec.binding(id).unwrap().vm;
        assert!(cluster.is_deployed(vm));
        assert_eq!(cluster.vm_template(vm).unwrap().vfreq, spec.template.vfreq);
        assert_eq!(rec.binding(id).unwrap().applied_generation, spec.generation);
    }
    assert_eq!(cluster.eq7_violations(), 0);

    // The log keeps appending after the restart.
    plane.delete_vm(c).unwrap();
    assert!(rec.reconcile(&mut plane, &mut cluster).converged);
    assert_eq!(plane.store().len(), 2);

    // Third life: the append made *after* recovery survives the next one.
    let seq = plane.store().seq();
    drop(plane);
    let plane = ControlPlane::with_persistence(log.clone()).unwrap();
    assert_eq!((plane.store().seq(), plane.store().len()), (seq, 2));
    assert!(plane.store().get(c).is_none());
    assert_eq!(plane.store().get(a).unwrap().generation, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Controller-layer live resize over TickingHost
// ---------------------------------------------------------------------

#[test]
fn live_resize_moves_enforced_frequency_on_a_ticking_host() {
    // Two hardware threads (4800 MHz), exactly filled: a (2×1200) and
    // b (2×1200), all vCPUs saturating — each is pinned at its
    // guarantee, so the enforced frequency is observable directly.
    let mut host = SimHost::fixed_freq(NodeSpec::custom("live", 1, 1, 2, MHz(2400)), 5);
    let a = host.provision(&VmTemplate::new("a", 2, MHz(1200)));
    let b = host.provision(&VmTemplate::new("b", 2, MHz(1200)));
    host.attach_workload(a, Box::new(SteadyDemand::full()));
    host.attach_workload(b, Box::new(SteadyDemand::full()));

    let mut th = TickingHost::new(host).watch(a, VcpuId::new(0));
    let mut ctl = Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        th.host().topology_info(),
    );
    for _ in 0..15 {
        ctl.iterate(&mut th).unwrap();
    }
    let before = th.freqs_of(a, VcpuId::new(0));
    let settled: f64 = before[before.len() - 5..]
        .iter()
        .map(|f| f.as_f64())
        .sum::<f64>()
        / 5.0;
    assert!(
        settled >= 1100.0,
        "pre-resize enforced {settled} MHz, want ≈1200"
    );

    // Live resize a → 600 MHz: host first (source of truth), then the
    // controller hook; then a new VM fills the freed 1200 MHz so the
    // node stays exactly full and a cannot burst past its new cap.
    th.host_mut().set_vfreq(a, MHz(600));
    let c_new = ctl.set_vfreq(a, MHz(600));
    assert_eq!(c_new, Micros(250_000), "C_i = p·F_v/F_max (Eq. 2)");
    // Wallet clamped to the new ceiling: C_i^new × vCPUs × history_len.
    assert!(
        ctl.credit_of(a) <= 250_000 * 2 * 5,
        "wallet {} above the post-resize ceiling",
        ctl.credit_of(a)
    );
    let c = th.host_mut().provision(&VmTemplate::new("c", 1, MHz(1200)));
    th.host_mut()
        .attach_workload(c, Box::new(SteadyDemand::full()));

    for _ in 0..12 {
        ctl.iterate(&mut th).unwrap();
    }
    let all = th.freqs_of(a, VcpuId::new(0));
    let after: f64 = all[all.len() - 5..].iter().map(|f| f.as_f64()).sum::<f64>() / 5.0;
    assert!(
        (480.0..=760.0).contains(&after),
        "post-resize enforced {after} MHz, want ≈600"
    );
}
