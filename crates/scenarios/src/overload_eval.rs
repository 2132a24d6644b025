//! Overload-resilience evaluation: what does the deadline-aware
//! degradation ladder buy when the control loop itself is the thing
//! under attack?
//!
//! Two event-core cluster runs share the same trace (a steady base
//! population plus a burst of arrivals), the same control-plane
//! partition window and the same fail-safe cap-lease policy; the only
//! difference is whether the controllers run the deadline ladder
//! ([`vfc_controller::ControllerConfig::deadline_budget_frac`]) or not.
//! During a *stress window* every controller's per-period loop time is
//! inflated via [`ClusterManager::inject_stage_delay_us`] — the
//! simulation stand-in for a node whose CPU is starved by the very VMs
//! the controller is metering. The per-period curves show the ladder
//! descending (full → reuse-previous → monitor-only → uncap-all),
//! holding the loop's charged time at the budget, then climbing back
//! after the hysteresis once the stress clears; the no-ladder run keeps
//! charging whatever the inflated loop costs.
//!
//! Independently, [`api_stress`] points real sockets at a real
//! [`ApiServer`]: slow-loris writers and oversized bodies against a
//! hardened front end, concurrent with well-behaved health probes. The
//! acceptance bar is typed shedding (408/413) for the attackers and a
//! <1 % failure rate for the well-behaved clients.

use crate::cluster_eval::class_workload;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vfc_cluster::{
    ClusterManager, ClusterReport, EventDrivenCluster, FaultModel, FaultReport, Strategy,
    TraceVmSpec,
};
use vfc_controller::LadderRung;
use vfc_controlplane::{
    ApiServer, ApiServerConfig, ControlPlane, ControlPlaneRuntime, Reconciler, ReconcilerConfig,
    ShedReason, TenantQuota,
};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::MHz;
use vfc_telemetry::http::Limits;
use vfc_vmm::VmTemplate;

/// Shape of one overload run (cluster side).
#[derive(Debug, Clone, Copy)]
pub struct OverloadScenario {
    /// Nodes (1 socket × 4 cores × 2 threads @ 2400 MHz each).
    pub nodes: usize,
    /// VMs arriving at t = 0 and staying for the whole run.
    pub base_vms: usize,
    /// Extra VMs all arriving at [`OverloadScenario::burst_at`].
    pub burst_vms: usize,
    /// Arrival second of the burst.
    pub burst_at: u64,
    /// Periods each burst VM stays before departing.
    pub burst_stay: u64,
    /// Total periods to run.
    pub periods: u64,
    /// Half-open period window during which every controller's loop
    /// time is inflated by [`OverloadScenario::stage_delay_us`].
    pub stress: (u64, u64),
    /// Synthetic loop-time inflation, µs per period.
    pub stage_delay_us: u64,
    /// Control-plane partition window `(start, end, node)`, half-open.
    pub partition: (u64, u64, usize),
    /// Cap-lease TTL in periods.
    pub lease_ttl: u64,
    /// Grace periods between guarantee-only and uncap.
    pub lease_grace: u64,
    /// Deadline budget for the with-ladder run, fraction of the period.
    pub deadline_budget_frac: f64,
    /// In-budget periods required to climb one rung back.
    pub ladder_recovery_periods: u32,
    /// Workload / fault seed.
    pub seed: u64,
}

impl Default for OverloadScenario {
    fn default() -> Self {
        OverloadScenario {
            nodes: 4,
            base_vms: 12,
            burst_vms: 10,
            burst_at: 20,
            burst_stay: 25,
            periods: 100,
            stress: (30, 60),
            stage_delay_us: 200_000,
            partition: (70, 85, 0),
            lease_ttl: 2,
            lease_grace: 4,
            deadline_budget_frac: 0.05, // 50 ms of a 1 s period
            ladder_recovery_periods: 3,
            seed: 0x0BAD_10AD,
        }
    }
}

impl OverloadScenario {
    /// A shrunk variant for debug-mode tests.
    pub fn quick() -> Self {
        OverloadScenario {
            nodes: 3,
            base_vms: 6,
            burst_vms: 4,
            burst_at: 8,
            burst_stay: 10,
            periods: 40,
            stress: (12, 24),
            partition: (28, 34, 0),
            ..OverloadScenario::default()
        }
    }

    fn fleet(&self) -> Vec<NodeSpec> {
        vec![NodeSpec::custom("ovl", 1, 4, 2, MHz(2400)); self.nodes]
    }

    /// The trace both runs replay: base VMs at t = 0 (small/medium/large
    /// round-robin, never departing) plus the burst.
    pub fn trace(&self) -> Vec<TraceVmSpec> {
        let template = |i: usize| match i % 3 {
            0 => VmTemplate::small(),
            1 => VmTemplate::medium(),
            _ => VmTemplate::large(),
        };
        let mut specs: Vec<TraceVmSpec> = (0..self.base_vms)
            .map(|i| TraceVmSpec {
                trace_id: format!("base-{i}"),
                arrival: 0,
                departure: None,
                template: template(i),
            })
            .collect();
        specs.extend((0..self.burst_vms).map(|i| TraceVmSpec {
            trace_id: format!("burst-{i}"),
            arrival: self.burst_at,
            departure: Some(self.burst_at + self.burst_stay),
            template: template(i),
        }));
        specs
    }

    fn fault_model(&self) -> FaultModel {
        let mut f = FaultModel::none();
        f.seed = self.seed ^ 0xFA11;
        f.scripted_partitions.push(self.partition);
        f
    }
}

/// One period's sample of an overload run.
#[derive(Debug, Clone, Copy)]
pub struct PeriodPoint {
    /// Period index (1-based).
    pub period: u64,
    /// Worst degradation-ladder rung across nodes (0 = full pipeline).
    pub rung: u8,
    /// Deadline overruns charged this period (all nodes).
    pub overruns: u64,
    /// SLO-violated VM-periods this period (all classes).
    pub violations: u64,
    /// Nodes whose cap lease is currently expired (guarantee-only or
    /// uncapped).
    pub leases_degraded: u32,
}

/// One configuration's full run.
#[derive(Debug, Clone)]
pub struct OverloadRun {
    /// Ladder enabled?
    pub ladder: bool,
    /// Per-period curve.
    pub points: Vec<PeriodPoint>,
    /// Final cluster accounting.
    pub report: ClusterReport,
    /// Fault counters (partition node-periods live here).
    pub faults: FaultReport,
    /// Total deadline overruns over the run.
    pub total_overruns: u64,
    /// Worst rung ever reached.
    pub max_rung: u8,
    /// First period at or after the stress window's end where every
    /// node was back on the full pipeline (`None` = never recovered).
    pub recovered_at: Option<u64>,
}

/// Run the scenario once, with or without the deadline ladder. The
/// harness plays the reconciler's part between periods: a lease-renewal
/// heartbeat every period (which the partition window blocks for the
/// partitioned node) and the stage-delay injection inside the stress
/// window.
pub fn run(s: &OverloadScenario, ladder: bool) -> OverloadRun {
    let mgr = ClusterManager::with_faults(
        s.fleet(),
        Strategy::FrequencyControl,
        s.seed,
        s.fault_model(),
    );
    let mut cluster = EventDrivenCluster::new(mgr).with_workloads(
        s.seed,
        Box::new(|_slot, template, rng| class_workload(&template.name, rng)),
    );
    cluster
        .manager_mut()
        .enable_cap_leases(s.lease_ttl, s.lease_grace);
    if ladder {
        cluster
            .manager_mut()
            .enable_deadline_ladder(s.deadline_budget_frac, s.ladder_recovery_periods);
    }
    cluster.load_trace(s.trace());

    let mut points = Vec::with_capacity(s.periods as usize);
    let (mut prev_overruns, mut prev_viol) = (0u64, 0u64);
    let (mut total_overruns, mut max_rung) = (0u64, 0u8);
    let mut recovered_at = None;
    for p in 1..=s.periods {
        let delay = if (s.stress.0..s.stress.1).contains(&p) {
            s.stage_delay_us
        } else {
            0
        };
        for n in 0..s.nodes {
            cluster.manager_mut().inject_stage_delay_us(n, delay);
        }
        cluster.manager_mut().renew_leases();
        cluster.run_until(p);

        let mgr = cluster.manager();
        let overruns: u64 = mgr
            .health_totals()
            .iter()
            .map(|(_, t)| t.deadline_overruns)
            .sum();
        let viol: u64 = mgr
            .report()
            .slo_by_class
            .iter()
            .map(|(_, slo)| slo.violated_periods)
            .sum();
        // Only nodes hosting VMs run controller periods; an empty
        // node's controller is parked and its rung frozen, so the curve
        // reflects the nodes actually working.
        let loads = mgr.node_loads();
        let busy = |n: &usize| loads[*n].used_vcpus > 0;
        let rung = (0..s.nodes)
            .filter(busy)
            .filter_map(|n| mgr.ladder_rung(n))
            .map(LadderRung::as_u8)
            .max()
            .unwrap_or(0);
        let leases_degraded = (0..s.nodes)
            .filter(busy)
            .filter_map(|n| mgr.lease_state(n))
            .filter(|l| l.as_u8() > 0)
            .count() as u32;
        points.push(PeriodPoint {
            period: p,
            rung,
            overruns: overruns - prev_overruns,
            violations: viol - prev_viol,
            leases_degraded,
        });
        total_overruns = overruns;
        max_rung = max_rung.max(rung);
        if recovered_at.is_none() && p >= s.stress.1 && rung == 0 {
            recovered_at = Some(p);
        }
        prev_overruns = overruns;
        prev_viol = viol;
    }
    OverloadRun {
        ladder,
        points,
        report: cluster.report(),
        faults: cluster.manager().fault_report(),
        total_overruns,
        max_rung,
        recovered_at,
    }
}

/// With-ladder vs without-ladder over the identical trace, stress and
/// partition schedule.
#[derive(Debug, Clone)]
pub struct OverloadComparison {
    /// The scenario both runs executed.
    pub scenario: OverloadScenario,
    /// Deadline ladder active.
    pub with_ladder: OverloadRun,
    /// Deadline accounting off — the loop charges whatever it costs.
    pub without_ladder: OverloadRun,
}

/// Run both configurations. Validates the lease TTL against the
/// reconciler heartbeat first (the same footgun check the control
/// plane applies), so a scenario that could never renew in time is
/// rejected instead of silently degrading every node.
pub fn compare(s: OverloadScenario) -> Result<OverloadComparison, String> {
    ReconcilerConfig::default().validate_lease_ttl(s.lease_ttl)?;
    Ok(OverloadComparison {
        with_ladder: run(&s, true),
        without_ladder: run(&s, false),
        scenario: s,
    })
}

// ------------------------------------------------------------------ API --

/// Shape of the socket-level front-end stress run.
#[derive(Debug, Clone, Copy)]
pub struct ApiStressScenario {
    /// Well-behaved `GET /healthz` probes.
    pub good_requests: usize,
    /// Slow-loris clients: open a connection, dribble a byte, stall.
    pub loris_clients: usize,
    /// Clients announcing a body far beyond the configured cap.
    pub oversized_clients: usize,
    /// Server read/write timeout.
    pub timeout: Duration,
}

impl Default for ApiStressScenario {
    fn default() -> Self {
        ApiStressScenario {
            good_requests: 60,
            loris_clients: 4,
            oversized_clients: 4,
            timeout: Duration::from_millis(150),
        }
    }
}

/// What the front-end stress run observed.
#[derive(Debug, Clone, Copy)]
pub struct ApiStressOutcome {
    /// Well-behaved probes answered 200.
    pub good_ok: u64,
    /// Well-behaved probes that failed (any non-200 or I/O error).
    pub good_failed: u64,
    /// `good_failed / (good_ok + good_failed)`.
    pub good_failure_rate: f64,
    /// Slow-loris connections shed with 408.
    pub shed_read_timeout: u64,
    /// Oversized bodies shed with 413.
    pub shed_body_too_large: u64,
}

fn read_status(stream: &mut TcpStream) -> Option<u16> {
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).ok()?;
    let line = String::from_utf8_lossy(&buf);
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Slow-loris writers and oversized bodies against a real, hardened
/// [`ApiServer`], interleaved with well-behaved health probes. Wall
/// clock, not deterministic — assertions should bound rates, not
/// counts.
pub fn api_stress(s: ApiStressScenario) -> Result<ApiStressOutcome, String> {
    let mut plane = ControlPlane::new();
    plane.add_tenant(
        "acme",
        TenantQuota {
            max_vms: 8,
            max_vcpus: 32,
            max_mhz: 40_000,
        },
    );
    let cluster = ClusterManager::new(
        vec![NodeSpec::custom("api", 1, 2, 2, MHz(2400)); 2],
        Strategy::FrequencyControl,
        7,
    );
    let runtime = Arc::new(Mutex::new(ControlPlaneRuntime::new(
        plane,
        cluster,
        Reconciler::new(ReconcilerConfig::default()),
    )));
    let server = ApiServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&runtime),
        ApiServerConfig {
            limits: Limits {
                read_timeout: s.timeout,
                write_timeout: s.timeout,
                max_body_bytes: 1024,
                ..Limits::default()
            },
            ..ApiServerConfig::default()
        },
    )?;
    let addr = server.local_addr();

    // Attackers first: they hold server workers for `timeout`, so the
    // well-behaved probes below run concurrently with the stalls.
    let mut attackers = Vec::new();
    for i in 0..(s.loris_clients + s.oversized_clients) {
        let loris = i < s.loris_clients;
        attackers.push(std::thread::spawn(move || {
            let Ok(mut c) = TcpStream::connect(addr) else {
                return;
            };
            if loris {
                // One byte, then stall: the read deadline must fire.
                let _ = c.write_all(b"P");
                std::thread::sleep(s.timeout + Duration::from_millis(50));
            } else {
                let _ = c.write_all(
                    b"POST /v1/tenants/acme/vms HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
                );
            }
            let _ = read_status(&mut c);
        }));
    }

    let (mut good_ok, mut good_failed) = (0u64, 0u64);
    for _ in 0..s.good_requests {
        let ok = TcpStream::connect(addr).ok().and_then(|mut c| {
            c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").ok()?;
            read_status(&mut c)
        });
        if ok == Some(200) {
            good_ok += 1;
        } else {
            good_failed += 1;
        }
    }
    for a in attackers {
        let _ = a.join();
    }

    let rt = runtime.lock().map_err(|_| "runtime poisoned".to_owned())?;
    let total = (good_ok + good_failed).max(1);
    Ok(ApiStressOutcome {
        good_ok,
        good_failed,
        good_failure_rate: good_failed as f64 / total as f64,
        shed_read_timeout: rt.plane.metrics.sheds(ShedReason::ReadTimeout),
        shed_body_too_large: rt.plane.metrics.sheds(ShedReason::BodyTooLarge),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_degrades_and_recovers_under_stress() {
        let cmp = compare(OverloadScenario::quick()).expect("valid scenario");
        let w = &cmp.with_ladder;
        assert!(w.max_rung > 0, "ladder never descended");
        assert!(
            w.recovered_at.is_some(),
            "ladder never climbed back to the full pipeline"
        );
        // Outside the ladder, deadline accounting is off entirely.
        assert_eq!(cmp.without_ladder.total_overruns, 0);
        assert!(w.total_overruns > 0);
        // The partition degraded at least one lease in both runs.
        assert!(w.points.iter().any(|p| p.leases_degraded > 0));
        assert!(w.faults.partitioned_node_periods > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let s = OverloadScenario::quick();
        let (a, b) = (run(&s, true), run(&s, true));
        assert_eq!(a.points.len(), b.points.len());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(
                (x.period, x.rung, x.violations, x.leases_degraded),
                (y.period, y.rung, y.violations, y.leases_degraded)
            );
        }
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn front_end_sheds_attackers_not_probes() {
        let o = api_stress(ApiStressScenario {
            good_requests: 30,
            loris_clients: 2,
            oversized_clients: 2,
            ..ApiStressScenario::default()
        })
        .expect("bind");
        assert!(o.shed_read_timeout >= 1, "{o:?}");
        assert!(o.shed_body_too_large >= 1, "{o:?}");
        assert!(o.good_failure_rate < 0.01, "{o:?}");
    }
}
