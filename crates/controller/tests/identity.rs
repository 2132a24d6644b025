//! What an operator reads off a controller — the Prometheus page, the
//! trace ring dump (its entries built from each report by
//! `iteration_trace`, as `vfcd` builds them) and the crash journal —
//! pinned byte-for-byte across two scripted lives. In the first, a
//! 3-VM host runs, one VM vanishes under the monitoring reads, a new VM
//! arrives, a `cpu.max` write bounces, and the controller is
//! replaced by a successor warm-started from its journal. In the
//! second, the deadline ladder walks down to the watchdog's uncap and
//! climbs back, the cap lease expires to guarantee-only, then to
//! uncapped, and is renewed, and a monitor-only controller watches the
//! same host.
//!
//! None of this is timing: wall-clock fields (stage latencies, the
//! deadline gauge, trace and journal timestamps) are scrubbed, and the
//! host runs a noise-free governor. How many times each stage ran is
//! kept: the pipeline each period ran decides it, not a clock. What
//! remains is decided by which VMs have a wallet entry, which names the
//! trace aggregates and which vCPUs still have an Eq. 3 history —
//! exactly what a change to how the controller *addresses* its state
//! must not move. The first life's sections were produced by the
//! map-keyed controller (commit `509a5e5`) running this same script;
//! its credit families were re-blessed once, when the per-VM series
//! left the page for node totals. The second life and the stage counts
//! were blessed while the stages still fed the page themselves, so the
//! page folded from the report reproduces them. Regenerate deliberately
//! with:
//!
//! ```text
//! VFC_BLESS=1 cargo test -p vfc-controller --test identity
//! ```

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use vfc_cgroupfs::{FaultInjectingBackend, FaultKind, FaultOp, FaultPlan, HostBackend};
use vfc_controller::telemetry::iteration_trace;
use vfc_controller::{
    ControlMode, Controller, ControllerConfig, IterationReport, LadderRung, LeaseState,
};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, VcpuId};
use vfc_telemetry::TraceRing;
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

type Backend = FaultInjectingBackend<SimHost>;

/// Run `periods` periods, pushing each one's trace entry with every
/// clock reading zeroed.
fn run(
    ctl: &mut Controller,
    backend: &mut Backend,
    report: &mut IterationReport,
    ring: &mut TraceRing,
    periods: u32,
) {
    for _ in 0..periods {
        backend.inner_mut().advance_period();
        ctl.iterate_into(backend, report).unwrap();
        let mut trace = iteration_trace(ctl.iterations(), report);
        trace.unix_ms = 0;
        trace.total_us = 0;
        trace.stages_us.fill(0);
        ring.push(trace);
    }
}

/// The exposition without its wall-clock samples.
fn page(ctl: &Controller) -> String {
    ctl.telemetry()
        .render_prometheus()
        .lines()
        .filter(|l| {
            l.starts_with('#')
                || l.starts_with("vfc_stage_duration_seconds_count")
                || !(l.contains("_duration_seconds") || l.starts_with("vfc_deadline_spent_us"))
        })
        .fold(String::new(), |mut page, l| {
            page.push_str(l);
            page.push('\n');
            page
        })
}

fn journal(ctl: &Controller) -> String {
    let mut journal = ctl.export_state();
    journal.saved_unix_ms = 0;
    serde_json::to_string_pretty(&journal).unwrap()
}

fn section(out: &mut String, title: &str, body: &str) {
    writeln!(out, "==== {title} ====\n{body}").unwrap();
}

/// A 4-thread host on a noise-free governor.
fn quiet_host() -> SimHost {
    SimHost::fixed_freq(NodeSpec::custom("identity", 1, 4, 2, MHz(2400)), 5)
}

/// The second life: every pipeline a degraded period can run. The budget
/// is half the period, so wall time alone never overruns it; only the
/// injected stage time does.
fn second_life(out: &mut String) {
    let mut host = quiet_host();
    let web = host.provision(&VmTemplate::new("web", 2, MHz(900)));
    let batch = host.provision(&VmTemplate::new("batch", 1, MHz(1500)));
    host.attach_workload(web, Box::new(SteadyDemand::new(0.7)));
    host.attach_workload(batch, Box::new(SteadyDemand::full()));
    let mut backend = FaultInjectingBackend::new(host, FaultPlan::none(), 9);
    let cfg = ControllerConfig {
        deadline_budget_frac: 0.5,
        ladder_recovery_periods: 2,
        cap_lease_ttl: 3,
        cap_lease_grace: 2,
        ..ControllerConfig::paper_defaults()
    };
    let mut ctl = Controller::new(cfg, backend.topology());
    let mut ring = TraceRing::new(64);
    let mut report = IterationReport::default();
    let mut renewed = |ctl: &mut Controller, backend: &mut Backend, periods| {
        for _ in 0..periods {
            ctl.renew_lease();
            run(ctl, backend, &mut report, &mut ring, 1);
        }
        report.health.ladder_rung
    };

    assert_eq!(renewed(&mut ctl, &mut backend, 3), LadderRung::Full);
    // Every period overruns: one rung down per period, to the uncap
    // watchdog, which clears once and then watches.
    ctl.inject_stage_delay_us(1_000_000);
    assert_eq!(renewed(&mut ctl, &mut backend, 5), LadderRung::UncapAll);
    // Back in budget: one rung up per two periods, to the market.
    ctl.inject_stage_delay_us(0);
    assert_eq!(renewed(&mut ctl, &mut backend, 8), LadderRung::Full);

    // The control plane stops renewing: the lease runs out, the expiring
    // period and two periods of grace hold the guarantee only, then the
    // watchdog uncaps.
    let mut report = IterationReport::default();
    run(&mut ctl, &mut backend, &mut report, &mut ring, 4);
    assert_eq!(report.health.lease_state, LeaseState::GuaranteeOnly);
    run(&mut ctl, &mut backend, &mut report, &mut ring, 4);
    assert_eq!(report.health.lease_state, LeaseState::Uncapped);
    ctl.renew_lease();
    run(&mut ctl, &mut backend, &mut report, &mut ring, 2);
    assert_eq!(report.health.lease_state, LeaseState::Leased);
    assert!(!report.flows.is_empty(), "the market runs again");

    section(out, "second life: page", &page(&ctl));
    section(out, "second life: trace ring", &ring.dump_json("identity"));

    // A monitor-only controller on the same host: stages 1–2, nothing
    // written, no market.
    let cfg = ControllerConfig::paper_defaults().with_mode(ControlMode::MonitorOnly);
    let mut ctl = Controller::new(cfg, backend.topology());
    run(&mut ctl, &mut backend, &mut report, &mut ring, 3);
    section(out, "monitor-only: page", &page(&ctl));
}

#[test]
fn exposition_trace_and_journal_match_the_map_keyed_controller() {
    let mut host = quiet_host();
    let alpha = host.provision(&VmTemplate::new("alpha", 2, MHz(600)));
    let beta = host.provision(&VmTemplate::new("beta", 2, MHz(800)));
    let gamma = host.provision(&VmTemplate::new("gamma", 1, MHz(1200)));
    host.attach_workload(alpha, Box::new(SteadyDemand::full()));
    host.attach_workload(beta, Box::new(SteadyDemand::new(0.3)));
    host.attach_workload(gamma, Box::new(SteadyDemand::new(0.6)));

    let mut backend = FaultInjectingBackend::new(host, FaultPlan::none(), 5);
    let cfg = ControllerConfig::paper_defaults().with_mode(ControlMode::Full);
    let mut ctl = Controller::new(cfg.clone(), backend.topology());
    let mut ring = TraceRing::new(32);
    let mut report = IterationReport::default();
    let mut out = String::new();

    run(&mut ctl, &mut backend, &mut report, &mut ring, 6);

    // beta's cgroups go while the listing still carries it.
    backend.vanish_vm(beta);
    run(&mut ctl, &mut backend, &mut report, &mut ring, 1);
    assert_eq!(report.health.vanished_vms, [beta]);

    // A new VM arrives, under a name the host has not seen.
    let delta = backend
        .inner_mut()
        .provision(&VmTemplate::new("delta", 2, MHz(700)));
    backend
        .inner_mut()
        .attach_workload(delta, Box::new(SteadyDemand::new(0.9)));
    run(&mut ctl, &mut backend, &mut report, &mut ring, 2);

    // gamma's demand moves, so its cap is rewritten — and that write
    // bounces once with EBUSY.
    backend
        .inner_mut()
        .attach_workload(gamma, Box::new(SteadyDemand::full()));
    backend.script_fault(
        FaultOp::SetVcpuMax,
        Some(gamma),
        Some(VcpuId::new(0)),
        FaultKind::Io(io::ErrorKind::ResourceBusy),
        1,
    );
    run(&mut ctl, &mut backend, &mut report, &mut ring, 1);
    assert_eq!(report.health.write_errors, 1);
    run(&mut ctl, &mut backend, &mut report, &mut ring, 2);

    section(&mut out, "page before the restart", &page(&ctl));
    section(&mut out, "trace ring", &ring.dump_json("identity"));
    section(&mut out, "journal at the handoff", &journal(&ctl));

    // Warm restart: a successor resumes from the journal.
    let handoff = ctl.export_state();
    let mut ctl = Controller::new(cfg, backend.topology());
    let mut ring = TraceRing::new(32);
    let resumed = ctl.restore_state(&handoff, &backend.vms());
    section(&mut out, "resumed", &resumed.join("\n"));
    section(&mut out, "journal as restored", &journal(&ctl));
    run(&mut ctl, &mut backend, &mut report, &mut ring, 3);
    section(&mut out, "page after the restart", &page(&ctl));
    section(
        &mut out,
        "trace ring after the restart",
        &ring.dump_json("identity"),
    );
    section(&mut out, "journal after the restart", &journal(&ctl));

    second_life(&mut out);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/identity.txt");
    if std::env::var_os("VFC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        out == want,
        "operator-visible output drifted from {}\n--- got ---\n{out}",
        path.display()
    );
}
