//! Controller telemetry: every stage, counter and market signal of the
//! loop, behind one [`ControllerMetrics`] registry.
//!
//! The page is a fold of the [`IterationReport`]: the stages fill the
//! report, and [`Controller`](crate::Controller) hands the finished
//! report to [`ControllerMetrics::observe`] once per iteration, after
//! the timed window. No stage writes to the registry, so whatever the
//! page says about a period is in that period's report too, which
//! `vfcd --log-json` writes out whole. The daemon renders the registry
//! to Prometheus text (`--metrics` / `--metrics-addr`); a simulated
//! cluster serves no page of its own, each node controller renders its
//! own. Every family is node-level: the per-VM record is the report
//! (`vcpus`, `flows` and `credits`), and the page carries its node
//! totals. The controller keeps no trace: the daemon builds each
//! period's trace entry from the iteration's report with
//! [`iteration_trace`] and keeps the ring itself.
//!
//! Cost per iteration: at most seven histogram observes (one per stage
//! that ran, one for the iteration), 33 integer counter and gauge
//! updates (27 when the market did not run), and one pass over the
//! report's vCPU rows to count the Eq. 3 cases — see
//! `scenarios::overhead` for the measured share of the control period
//! (< 5 % in release builds). The full metric reference, with units, the
//! report field each family folds and the paper equation each measures,
//! is `docs/OBSERVABILITY.md`.

use crate::controller::{IterationReport, Plan};
use std::collections::BTreeMap;
use vfc_telemetry::hist::LATENCY_BUCKETS_US;
use vfc_telemetry::{HistSnapshot, IterationTrace, MetricId, Registry};

/// The six pipeline stages, used to index the per-stage histogram
/// family. Matches [`vfc_telemetry::STAGE_NAMES`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1 — reading usage, placement and core frequencies.
    Monitor = 0,
    /// Stage 2 — trends and estimates.
    Estimate = 1,
    /// Stage 3 — credits and base capping.
    Enforce = 2,
    /// Stage 4 — the cycles auction.
    Auction = 3,
    /// Stage 5 — free distribution of leftovers.
    Distribute = 4,
    /// Stage 6 — writing `cpu.max`.
    Apply = 5,
}

/// Market outcome labels of `vfc_market_cycles_usec_total`, in index
/// order: sold (auction), distributed (stage 5), wasted (left over).
const MARKET_OUTCOMES: [&str; 3] = ["sold", "distributed", "wasted"];

/// Estimator case labels of `vfc_estimate_cases_total`, in index order.
const ESTIMATE_CASES: [&str; 3] = ["increase", "decrease", "stable"];

/// The controller's metric registry plus pre-registered handles for
/// every series [`ControllerMetrics::observe`] folds a report into.
#[derive(Debug)]
pub struct ControllerMetrics {
    registry: Registry,
    // Loop shape.
    iterations: MetricId,
    stage_hist: MetricId,
    iter_hist: MetricId,
    vms: MetricId,
    vcpus: MetricId,
    // Stage 1 — monitor.
    read_errors: MetricId,
    stale_reused: MetricId,
    skipped: MetricId,
    vanished: MetricId,
    // Stage 2 — estimate.
    estimate_cases: MetricId,
    // Stage 3 — credits.
    credits_minted: MetricId,
    credit_balance: MetricId,
    // Stages 4/5 — the market.
    market: MetricId,
    market_initial: MetricId,
    market_left: MetricId,
    auction_rounds: MetricId,
    // Stage 6 — apply.
    cap_writes: MetricId,
    cap_write_usec: MetricId,
    cap_write_errors: MetricId,
    cap_write_retries: MetricId,
    cap_writes_elided: MetricId,
    // Health roll-up.
    degraded_iterations: MetricId,
    // Deadline ladder.
    deadline_budget: MetricId,
    deadline_spent: MetricId,
    deadline_overruns: MetricId,
    deadline_rung: MetricId,
    deadline_transitions: MetricId,
    // Cap lease.
    lease_state: MetricId,
    lease_remaining: MetricId,
    lease_expiries: MetricId,
}

/// Direction labels of `vfc_deadline_transitions_total`, in index order.
const LADDER_DIRECTIONS: [&str; 2] = ["descend", "climb"];

impl Default for ControllerMetrics {
    fn default() -> Self {
        ControllerMetrics::new()
    }
}

impl ControllerMetrics {
    /// Build the registry with every controller metric pre-registered
    /// (registration order is exposition order: loop shape, then the six
    /// stages in pipeline order, then health).
    pub fn new() -> Self {
        let mut r = Registry::new();
        let iterations = r.counter(
            "vfc_iterations_total",
            "Controller iterations executed since boot",
        );
        let stage_hist = r.histogram_vec(
            "vfc_stage_duration_seconds",
            "Wall time of each control-loop stage (Fig. 2 pipeline)",
            "stage",
            &vfc_telemetry::STAGE_NAMES,
            &LATENCY_BUCKETS_US,
        );
        let iter_hist = r.histogram(
            "vfc_iteration_duration_seconds",
            "Whole-iteration wall time, bookkeeping included",
            &LATENCY_BUCKETS_US,
        );
        let vms = r.gauge("vfc_vms", "VMs in the latest inventory");
        let vcpus = r.gauge("vfc_vcpus", "vCPUs in the latest inventory");
        let read_errors = r.counter(
            "vfc_monitor_read_errors_total",
            "Per-vCPU monitoring reads that failed (stage 1)",
        );
        let stale_reused = r.counter(
            "vfc_monitor_stale_reused_total",
            "vCPU observations answered from the stale-sample cache",
        );
        let skipped = r.counter(
            "vfc_monitor_skipped_vcpus_total",
            "vCPU-periods skipped for lack of a usable sample",
        );
        let vanished = r.counter(
            "vfc_vanished_vms_total",
            "VMs that disappeared mid-iteration (wallets purged)",
        );
        let estimate_cases = r.counter_vec(
            "vfc_estimate_cases_total",
            "Estimator case fired per vCPU-period (Eq. 3 trichotomy)",
            "case",
            &ESTIMATE_CASES,
        );
        let credits_minted = r.counter(
            "vfc_credits_minted_usec_total",
            "Credits earned by under-consuming VMs on this node (Eq. 4)",
        );
        let credit_balance = r.gauge(
            "vfc_credit_balance_usec",
            "Sum of the node's wallet balances (Eq. 4)",
        );
        let market = r.counter_vec(
            "vfc_market_cycles_usec_total",
            "Market cycles (Eq. 6) by fate: sold, distributed or wasted",
            "outcome",
            &MARKET_OUTCOMES,
        );
        let market_initial = r.gauge(
            "vfc_market_initial_usec",
            "Market size after base capping, latest iteration (Eq. 6)",
        );
        let market_left = r.gauge(
            "vfc_market_left_usec",
            "Cycles still unallocated at iteration end (genuine slack)",
        );
        let auction_rounds = r.counter(
            "vfc_auction_rounds_total",
            "Auction window rounds executed (Alg. 1)",
        );
        let cap_writes = r.counter(
            "vfc_cap_writes_total",
            "cpu.max writes issued (stage 6), successful or not",
        );
        let cap_write_usec = r.counter(
            "vfc_cap_write_usec_total",
            "Allocation volume carried by successful cpu.max writes",
        );
        let cap_write_errors = r.counter(
            "vfc_cap_write_errors_total",
            "cpu.max writes that failed (retriable + vanished)",
        );
        let cap_write_retries = r.counter(
            "vfc_cap_write_retries_total",
            "Failed writes re-issued a period later",
        );
        let cap_writes_elided = r.counter(
            "vfc_cap_writes_elided_total",
            "cpu.max writes skipped: the in-force value already matched",
        );
        let degraded_iterations = r.counter(
            "vfc_degraded_iterations_total",
            "Iterations with any degradation (see HealthReport)",
        );
        let deadline_budget = r.gauge(
            "vfc_deadline_budget_us",
            "Per-period deadline budget in µs (0 = deadline disabled)",
        );
        let deadline_spent = r.gauge(
            "vfc_deadline_spent_us",
            "Time charged against the deadline budget last period (µs)",
        );
        let deadline_overruns = r.counter(
            "vfc_deadline_overruns_total",
            "Periods whose charged time exceeded the deadline budget",
        );
        let deadline_rung = r.gauge(
            "vfc_deadline_ladder_rung",
            "Deadline-ladder rung in effect (0=full 1=reuse 2=monitor 3=uncap)",
        );
        let deadline_transitions = r.counter_vec(
            "vfc_deadline_transitions_total",
            "Deadline-ladder rung changes, by direction",
            "direction",
            &LADDER_DIRECTIONS,
        );
        let lease_state = r.gauge(
            "vfc_lease_state",
            "Cap-lease state (0=leased/disabled 1=guarantee-only 2=uncapped)",
        );
        let lease_remaining = r.gauge(
            "vfc_lease_remaining_periods",
            "Periods left on the cap lease before expiry",
        );
        let lease_expiries = r.counter(
            "vfc_lease_expiries_total",
            "Cap-lease expiries (transitions into guarantee-only)",
        );
        ControllerMetrics {
            registry: r,
            iterations,
            stage_hist,
            iter_hist,
            vms,
            vcpus,
            read_errors,
            stale_reused,
            skipped,
            vanished,
            estimate_cases,
            credits_minted,
            credit_balance,
            market,
            market_initial,
            market_left,
            auction_rounds,
            cap_writes,
            cap_write_usec,
            cap_write_errors,
            cap_write_retries,
            cap_writes_elided,
            degraded_iterations,
            deadline_budget,
            deadline_spent,
            deadline_overruns,
            deadline_rung,
            deadline_transitions,
            lease_state,
            lease_remaining,
            lease_expiries,
        }
    }

    // ---- the fold ------------------------------------------------------

    /// Fold one iteration's report into the registry — the only write
    /// to it. Counters move by the report's values, gauges take them,
    /// and each stage histogram gains an observation when its stage ran
    /// (monitor and estimate always; the rest as `pipeline` says). The
    /// market gauges keep their last value through periods the market
    /// did not run.
    pub fn observe(&mut self, report: &IterationReport) {
        let (r, h, t) = (&mut self.registry, &report.health, &report.timings);
        // Monitor and estimate run every period; the plan decides the rest.
        let (market, apply) = match report.pipeline {
            Plan::Market => (true, true),
            Plan::Guarantee | Plan::Retry | Plan::Uncap => (false, true),
            Plan::Monitor => (false, false),
        };
        let ran = [true, true, market, market, market, apply];
        for (stage, elapsed) in t.stages().into_iter().enumerate() {
            if ran[stage] {
                r.observe(self.stage_hist, stage, elapsed);
            }
        }
        r.observe(self.iter_hist, 0, t.total);
        r.inc(self.iterations, 0, 1);
        r.set(self.vms, 0, report.inventory_vms.into());
        r.set(self.vcpus, 0, report.inventory_vcpus.into());

        r.inc(self.read_errors, 0, h.read_errors.into());
        r.inc(self.stale_reused, 0, h.stale_reused.into());
        r.inc(self.skipped, 0, h.skipped_vcpus.len() as u64);
        r.inc(self.vanished, 0, h.vanished_vms.len() as u64);
        let mut cases = [0u64; 3];
        for v in &report.vcpus {
            // `EstimateCase` is declared in label order.
            cases[v.case as usize] += 1;
        }
        for (case, n) in cases.into_iter().enumerate() {
            r.inc(self.estimate_cases, case, n);
        }

        r.inc(
            self.credits_minted,
            0,
            report.flows.iter().map(|f| f.minted).sum(),
        );
        r.set(
            self.credit_balance,
            0,
            report.credits.iter().map(|(_, b)| b).sum(),
        );
        if report.pipeline == Plan::Market {
            r.set(self.market_initial, 0, report.market_initial.as_u64());
            r.set(self.market_left, 0, report.market_left.as_u64());
            r.inc(self.market, 0, report.auction.sold.as_u64());
            r.inc(self.market, 1, report.distributed.as_u64());
            r.inc(self.market, 2, report.market_left.as_u64());
            r.inc(self.auction_rounds, 0, report.auction.rounds as u64);
        }

        r.inc(self.cap_writes, 0, report.cap_writes.into());
        r.inc(self.cap_write_usec, 0, report.cap_write_volume.as_u64());
        r.inc(self.cap_write_errors, 0, h.write_errors.into());
        r.inc(self.cap_write_retries, 0, h.write_retries.into());
        r.inc(self.cap_writes_elided, 0, report.cap_writes_elided.into());

        r.inc(self.degraded_iterations, 0, h.degraded.into());
        r.set(self.deadline_budget, 0, h.deadline_budget_us);
        r.set(self.deadline_spent, 0, h.deadline_spent_us);
        r.set(self.deadline_rung, 0, h.ladder_rung.as_u8().into());
        r.inc(self.deadline_overruns, 0, h.deadline_overrun.into());
        // Descend, climb: the ladder moves at most one rung a period.
        r.inc(
            self.deadline_transitions,
            0,
            (h.ladder_next > h.ladder_rung).into(),
        );
        r.inc(
            self.deadline_transitions,
            1,
            (h.ladder_next < h.ladder_rung).into(),
        );
        r.set(self.lease_state, 0, h.lease_state.as_u8().into());
        r.set(self.lease_remaining, 0, h.lease_remaining);
        r.inc(self.lease_expiries, 0, h.lease_expired.into());
    }

    // ---- read side -----------------------------------------------------

    /// Render this controller's registry as a Prometheus text page.
    pub fn render_prometheus(&self) -> String {
        vfc_telemetry::render(&self.registry)
    }

    /// Latency summary of one stage (p50/p95/p99/max, µs).
    pub fn stage_snapshot(&self, stage: Stage) -> HistSnapshot {
        self.registry
            .histogram_at(self.stage_hist, stage as usize)
            .expect("stage histogram is always registered")
            .snapshot()
    }

    /// Latency summary of the whole iteration.
    pub fn iteration_snapshot(&self) -> HistSnapshot {
        self.registry
            .histogram_at(self.iter_hist, 0)
            .expect("iteration histogram is always registered")
            .snapshot()
    }
}

/// The trace entry of the `iteration`th period, read off its report:
/// stage and total wall times, the degraded flag, and each VM's
/// allocation summed over its report rows — and over VMs sharing a
/// name — sorted by name. A VM whose every vCPU was skipped this period
/// has no row, so it is not listed.
pub fn iteration_trace(iteration: u64, report: &IterationReport) -> IterationTrace {
    let t = &report.timings;
    let mut by_name = BTreeMap::<&str, u64>::new();
    for v in &report.vcpus {
        *by_name.entry(&v.vm_name).or_default() += v.alloc.as_u64();
    }
    IterationTrace {
        iteration,
        unix_ms: vfc_telemetry::trace::unix_now_ms(),
        stages_us: t.stages().iter().map(|d| d.as_micros() as u64).collect(),
        total_us: t.total.as_micros() as u64,
        degraded: report.health.degraded,
        vm_alloc_us: by_name
            .into_iter()
            .map(|(name, us)| (name.to_owned(), us))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::AuctionOutcome;
    use crate::controller::{Controller, StageTimings, VcpuReport};
    use crate::estimate::EstimateCase;
    use crate::{ControlMode, ControllerConfig};
    use std::time::Duration;
    use vfc_cgroupfs::{CgroupError, CpuMax, Result as CgResult, TopologyInfo, VmCgroupInfo};
    use vfc_cgroupfs::{FaultInjectingBackend, FaultKind, FaultOp, FaultPlan, HostBackend};
    use vfc_cpusched::topology::NodeSpec;
    use vfc_simcore::{CpuId, MHz, Micros, Tid, VcpuAddr, VcpuId, VmId};
    use vfc_vmm::workload::{BurstyWeb, SteadyDemand};
    use vfc_vmm::{SimHost, VmTemplate};

    /// A report of a period that ran `pipeline`, every stage taking
    /// `stage_us`.
    fn ran(pipeline: Plan, stage_us: [u64; 6]) -> IterationReport {
        let [monitor, estimate, enforce, auction, distribute, apply] =
            stage_us.map(Duration::from_micros);
        IterationReport {
            pipeline,
            timings: StageTimings {
                monitor,
                estimate,
                enforce,
                auction,
                distribute,
                apply,
                total: Duration::from_micros(stage_us.iter().sum()),
            },
            ..IterationReport::default()
        }
    }

    #[test]
    fn stage_histograms_accumulate_under_their_label() {
        let mut m = ControllerMetrics::new();
        m.observe(&ran(Plan::Monitor, [4_000, 10, 0, 0, 0, 0]));
        m.observe(&ran(Plan::Retry, [4_200, 10, 0, 0, 0, 90]));
        let s = m.stage_snapshot(Stage::Monitor);
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_us, 8_200);
        assert_eq!(m.stage_snapshot(Stage::Apply).max_us, 90);
        assert_eq!(m.stage_snapshot(Stage::Apply).count, 1);
        assert_eq!(m.stage_snapshot(Stage::Auction).count, 0);
    }

    #[test]
    fn market_accounting_splits_by_outcome() {
        let market = |initial, sold, rounds, distributed, left| IterationReport {
            market_initial: Micros(initial),
            auction: AuctionOutcome {
                sold: Micros(sold),
                rounds,
            },
            distributed: Micros(distributed),
            market_left: Micros(left),
            ..IterationReport::default()
        };
        let mut m = ControllerMetrics::new();
        m.observe(&market(1_000, 600, 3, 300, 100));
        m.observe(&market(500, 500, 1, 0, 0));
        // A period without a market leaves the gauges where they were.
        m.observe(&ran(Plan::Guarantee, [0; 6]));
        let page = m.render_prometheus();
        assert!(page.contains("vfc_market_cycles_usec_total{outcome=\"sold\"} 1100"));
        assert!(page.contains("vfc_market_cycles_usec_total{outcome=\"distributed\"} 300"));
        assert!(page.contains("vfc_market_cycles_usec_total{outcome=\"wasted\"} 100"));
        assert!(page.contains("vfc_market_initial_usec 500"));
        assert!(page.contains("vfc_auction_rounds_total 4"));
    }

    // ---- iteration_trace -------------------------------------------------

    fn row(vm: u32, vcpu: u32, name: &str, alloc: u64) -> VcpuReport {
        VcpuReport {
            addr: VcpuAddr::new(VmId::new(vm), VcpuId::new(vcpu)),
            vm_name: name.into(),
            vfreq: None,
            used: Micros::ZERO,
            freq_est: MHz::ZERO,
            estimate: Micros::ZERO,
            case: EstimateCase::Stable,
            guaranteed: Micros::ZERO,
            alloc: Micros(alloc),
        }
    }

    fn listed(report: &IterationReport) -> Vec<(String, u64)> {
        iteration_trace(1, report).vm_alloc_us
    }

    #[test]
    fn trace_sums_vms_sharing_a_name_in_name_order() {
        let report = IterationReport {
            vcpus: vec![
                row(1, 0, "web", 100),
                row(1, 1, "web", 200),
                row(2, 0, "db", 50),
                row(3, 0, "web", 300),
            ],
            ..IterationReport::default()
        };
        let trace = iteration_trace(7, &report);
        assert_eq!(trace.iteration, 7);
        assert_eq!(trace.stages_us.len(), vfc_telemetry::STAGE_NAMES.len());
        assert_eq!(
            trace.vm_alloc_us,
            [("db".to_owned(), 50), ("web".to_owned(), 600)]
        );
    }

    /// A host running `web0` (1 vCPU) and `db0` (2 vCPUs) behind a fault
    /// layer, with `db0`'s id.
    fn two_vms() -> (FaultInjectingBackend<SimHost>, VmId) {
        let mut host = SimHost::new(NodeSpec::custom("t", 1, 4, 1, MHz(2400)), 3);
        let web = host.provision(&VmTemplate::new("web", 1, MHz(800)));
        let db = host.provision(&VmTemplate::new("db", 2, MHz(600)));
        host.attach_workload(web, Box::new(SteadyDemand::full()));
        host.attach_workload(db, Box::new(SteadyDemand::new(0.5)));
        (FaultInjectingBackend::new(host, FaultPlan::none(), 3), db)
    }

    fn period(
        backend: &mut FaultInjectingBackend<SimHost>,
        ctl: &mut Controller,
    ) -> IterationReport {
        backend.inner_mut().advance_period();
        ctl.iterate(backend).unwrap()
    }

    #[test]
    fn a_vm_with_every_vcpu_skipped_is_not_listed() {
        let (mut backend, db) = two_vms();
        let cfg = ControllerConfig {
            stale_sample_ttl: 0,
            ..ControllerConfig::paper_defaults()
        };
        let mut ctl = Controller::new(cfg, backend.topology());
        let report = period(&mut backend, &mut ctl);
        let names: Vec<String> = listed(&report).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["db0", "web0"]);

        let busy = FaultKind::Io(std::io::ErrorKind::ResourceBusy);
        backend.script_fault(FaultOp::VcpuUsage, Some(db), None, busy, 2);
        let report = period(&mut backend, &mut ctl);
        assert_eq!(report.health.skipped_vcpus.len(), 2);
        let names: Vec<String> = listed(&report).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["web0"]);
    }

    #[test]
    fn a_monitor_only_period_lists_every_vm_at_zero() {
        let (mut backend, _) = two_vms();
        let cfg = ControllerConfig::paper_defaults().with_mode(ControlMode::MonitorOnly);
        let mut ctl = Controller::new(cfg, backend.topology());
        for _ in 0..3 {
            let report = period(&mut backend, &mut ctl);
            assert_eq!(
                listed(&report),
                [("db0".to_owned(), 0), ("web0".to_owned(), 0)]
            );
        }
    }

    /// The value of the sample `series` (name and labels) on `page`.
    fn sample(page: &str, series: &str) -> u64 {
        page.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{series} missing from\n{page}"))
            .parse()
            .unwrap()
    }

    /// How one period's report moves a fixed series of the page.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Move {
        /// A counter, by this much.
        By(u64),
        /// A gauge, to this value.
        To(u64),
        /// Left as it was.
        Keeps,
    }

    /// Every fixed series of the page, and how `r` moves it.
    fn moves(r: &IterationReport) -> Vec<(&'static str, Move)> {
        use Move::{By, Keeps, To};
        let h = &r.health;
        let cases = |case| By(r.vcpus.iter().filter(|v| v.case == case).count() as u64);
        let market = |v: Micros| {
            if r.pipeline == Plan::Market {
                To(v.as_u64())
            } else {
                Keeps
            }
        };
        vec![
            ("vfc_iterations_total", By(1)),
            ("vfc_vms", To(r.inventory_vms.into())),
            ("vfc_vcpus", To(r.inventory_vcpus.into())),
            ("vfc_monitor_read_errors_total", By(h.read_errors.into())),
            ("vfc_monitor_stale_reused_total", By(h.stale_reused.into())),
            (
                "vfc_monitor_skipped_vcpus_total",
                By(h.skipped_vcpus.len() as u64),
            ),
            ("vfc_vanished_vms_total", By(h.vanished_vms.len() as u64)),
            (
                "vfc_estimate_cases_total{case=\"increase\"}",
                cases(EstimateCase::Increase),
            ),
            (
                "vfc_estimate_cases_total{case=\"decrease\"}",
                cases(EstimateCase::Decrease),
            ),
            (
                "vfc_estimate_cases_total{case=\"stable\"}",
                cases(EstimateCase::Stable),
            ),
            (
                "vfc_credits_minted_usec_total",
                By(r.flows.iter().map(|f| f.minted).sum()),
            ),
            (
                "vfc_credit_balance_usec",
                To(r.credits.iter().map(|(_, b)| b).sum()),
            ),
            (
                "vfc_market_cycles_usec_total{outcome=\"sold\"}",
                By(r.auction.sold.as_u64()),
            ),
            (
                "vfc_market_cycles_usec_total{outcome=\"distributed\"}",
                By(r.distributed.as_u64()),
            ),
            (
                "vfc_market_cycles_usec_total{outcome=\"wasted\"}",
                By(r.market_left.as_u64()),
            ),
            ("vfc_market_initial_usec", market(r.market_initial)),
            ("vfc_market_left_usec", market(r.market_left)),
            ("vfc_auction_rounds_total", By(r.auction.rounds.into())),
            ("vfc_cap_writes_total", By(r.cap_writes.into())),
            ("vfc_cap_write_usec_total", By(r.cap_write_volume.as_u64())),
            ("vfc_cap_write_errors_total", By(h.write_errors.into())),
            ("vfc_cap_write_retries_total", By(h.write_retries.into())),
            (
                "vfc_cap_writes_elided_total",
                By(r.cap_writes_elided.into()),
            ),
            ("vfc_degraded_iterations_total", By(h.degraded.into())),
            ("vfc_deadline_budget_us", To(h.deadline_budget_us)),
            ("vfc_deadline_spent_us", To(h.deadline_spent_us)),
            ("vfc_deadline_overruns_total", By(h.deadline_overrun.into())),
            ("vfc_deadline_ladder_rung", To(h.ladder_rung.as_u8().into())),
            (
                "vfc_deadline_transitions_total{direction=\"descend\"}",
                By((h.ladder_next > h.ladder_rung).into()),
            ),
            (
                "vfc_deadline_transitions_total{direction=\"climb\"}",
                By((h.ladder_next < h.ladder_rung).into()),
            ),
            ("vfc_lease_state", To(h.lease_state.as_u8().into())),
            ("vfc_lease_remaining_periods", To(h.lease_remaining)),
            ("vfc_lease_expiries_total", By(h.lease_expired.into())),
        ]
    }

    /// The page's fixed series (every sample but the histograms'), by
    /// name and labels.
    fn fixed(m: &ControllerMetrics) -> BTreeMap<String, u64> {
        m.render_prometheus()
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains("_duration_seconds"))
            .map(|l| {
                let (series, value) = l.rsplit_once(' ').unwrap();
                (series.to_owned(), value.parse().unwrap())
            })
            .collect()
    }

    /// One row per pipeline a period can run, on one controller's life
    /// (its ladder and lease driven from outside) and on a monitor-only
    /// one. After each period, exactly the stages that ran gained an
    /// observation, and every fixed series moved as the report says.
    #[test]
    fn each_pipeline_folds_its_report_into_the_page() {
        use Stage::{Apply, Auction, Distribute, Enforce, Estimate, Monitor};
        const ALL: [Stage; 6] = [Monitor, Estimate, Enforce, Auction, Distribute, Apply];
        const WRITES: &[Stage] = &[Monitor, Estimate, Apply];
        const READS: &[Stage] = &[Monitor, Estimate];
        const SLOW: u64 = 1_000_000;
        let (mut backend, _) = two_vms();
        let cfg = ControllerConfig {
            deadline_budget_frac: 0.5,
            ladder_recovery_periods: 1,
            cap_lease_ttl: 2,
            cap_lease_grace: 1,
            ..ControllerConfig::paper_defaults()
        };
        let mut ctl = Controller::new(cfg, backend.topology());
        let cfg = ControllerConfig::paper_defaults().with_mode(ControlMode::MonitorOnly);
        let mut watcher = Controller::new(cfg, backend.topology());
        // (row, lease renewed, injected stage time, pipeline, stages run)
        let rows: [(&str, bool, u64, Plan, &[Stage]); 14] = [
            ("market", true, 0, Plan::Market, &ALL),
            ("market, overrunning", true, SLOW, Plan::Market, &ALL),
            ("retry: ReusePrev rung", true, SLOW, Plan::Retry, WRITES),
            ("monitor: MonitorOnly", true, SLOW, Plan::Monitor, READS),
            ("uncap: clearing", true, SLOW, Plan::Uncap, WRITES),
            ("uncap: a later period", true, 0, Plan::Monitor, READS),
            ("monitor: climbing", true, 0, Plan::Monitor, READS),
            ("retry: climbing", true, 0, Plan::Retry, WRITES),
            ("market again", true, 0, Plan::Market, &ALL),
            ("market, last leased", false, 0, Plan::Market, &ALL),
            ("guarantee: expiry", false, 0, Plan::Guarantee, WRITES),
            ("guarantee: grace", false, 0, Plan::Guarantee, WRITES),
            ("uncap: lease ran out", false, 0, Plan::Uncap, WRITES),
            ("monitor: the mode", false, 0, Plan::Monitor, READS),
        ];
        for (row, renew, delay, pipeline, stages) in rows {
            let ctl = if row == "monitor: the mode" {
                &mut watcher
            } else {
                &mut ctl
            };
            if renew {
                ctl.renew_lease();
            }
            ctl.inject_stage_delay_us(delay);
            let counts = |ctl: &Controller| ALL.map(|s| ctl.telemetry().stage_snapshot(s).count);
            let (stages_before, mut page) = (counts(ctl), fixed(ctl.telemetry()));
            let report = period(&mut backend, ctl);
            assert_eq!(report.pipeline, pipeline, "{row}");
            let ran: Vec<Stage> = (0..ALL.len())
                .filter(|&s| counts(ctl)[s] > stages_before[s])
                .map(|s| ALL[s])
                .collect();
            assert_eq!(ran, stages, "{row}: stages observed");
            let after = fixed(ctl.telemetry());
            for (series, by) in moves(&report) {
                let value = page.remove(series).unwrap_or_else(|| panic!("{series}?"));
                let want = match by {
                    Move::By(n) => value + n,
                    Move::To(v) => v,
                    Move::Keeps => value,
                };
                assert_eq!(after[series], want, "{row}: {series}");
            }
            assert!(
                page.is_empty(),
                "{row}: series no report field moves: {page:?}"
            );
        }
        assert_eq!(ctl.health_totals().lease_expired_periods, 3);
        assert_eq!(ctl.health_totals().deadline_overruns, 4);
    }

    /// What the reports have added up to since boot.
    #[derive(Default)]
    struct Sums {
        minted: u64,
        spent: u64,
        periods_without_market: u32,
    }

    /// Run `n` periods; after each, the page's credit families must be
    /// the report's node totals.
    fn periods_match_the_report(
        backend: &mut FaultInjectingBackend<SimHost>,
        ctl: &mut Controller,
        sums: &mut Sums,
        n: usize,
    ) -> IterationReport {
        let mut report = IterationReport::default();
        for _ in 0..n {
            report = period(backend, ctl);
            sums.minted += report.flows.iter().map(|f| f.minted).sum::<u64>();
            sums.spent += report.flows.iter().map(|f| f.spent).sum::<u64>();
            sums.periods_without_market += u32::from(report.flows.is_empty());
            let page = ctl.telemetry().render_prometheus();
            let at = ctl.iterations();
            assert_eq!(
                sample(&page, "vfc_credits_minted_usec_total"),
                sums.minted,
                "period {at}: minted"
            );
            assert_eq!(
                sample(&page, "vfc_market_cycles_usec_total{outcome=\"sold\"}"),
                sums.spent,
                "period {at}: sold"
            );
            assert_eq!(
                sample(&page, "vfc_credit_balance_usec"),
                report.credits.iter().map(|(_, b)| b).sum::<u64>(),
                "period {at}: balance"
            );
        }
        report
    }

    /// A host whose cgroups for `doomed` are gone by the time stage 6
    /// writes to them: the listing and the reads still see the VM.
    struct DoomedWrites {
        inner: SimHost,
        doomed: VmId,
    }

    impl HostBackend for DoomedWrites {
        fn topology(&self) -> TopologyInfo {
            self.inner.topology()
        }
        fn vms(&self) -> Vec<VmCgroupInfo> {
            self.inner.vms()
        }
        fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> CgResult<Micros> {
            self.inner.vcpu_usage(vm, vcpu)
        }
        fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> CgResult<Vec<Tid>> {
            self.inner.vcpu_threads(vm, vcpu)
        }
        fn thread_last_cpu(&self, tid: Tid) -> CgResult<CpuId> {
            self.inner.thread_last_cpu(tid)
        }
        fn cpu_cur_freq(&self, cpu: CpuId) -> CgResult<MHz> {
            self.inner.cpu_cur_freq(cpu)
        }
        fn set_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId, max: CpuMax) -> CgResult<()> {
            if vm == self.doomed {
                return Err(CgroupError::NoSuchGroup(format!("{vm}.scope")));
            }
            self.inner.set_vcpu_max(vm, vcpu, max)
        }
        fn vcpu_max(&self, vm: VmId, vcpu: VcpuId) -> CgResult<CpuMax> {
            self.inner.vcpu_max(vm, vcpu)
        }
        fn set_vm_weight(&mut self, vm: VmId, weight: u32) -> CgResult<()> {
            self.inner.set_vm_weight(vm, weight)
        }
        fn vm_weight(&self, vm: VmId) -> CgResult<u32> {
            self.inner.vm_weight(vm)
        }
    }

    /// A VM whose cgroups vanish under the cap writes counts on the page
    /// as it does in the health totals and the `--log-json` line.
    #[test]
    fn a_vm_vanishing_under_the_writes_is_counted_on_the_page() {
        let mut inner = SimHost::new(NodeSpec::custom("t", 1, 4, 1, MHz(2400)), 3);
        let web = inner.provision(&VmTemplate::new("web", 1, MHz(800)));
        let db = inner.provision(&VmTemplate::new("db", 2, MHz(600)));
        inner.attach_workload(web, Box::new(SteadyDemand::full()));
        inner.attach_workload(db, Box::new(SteadyDemand::full()));
        inner.advance_period();
        let mut backend = DoomedWrites { inner, doomed: db };
        let mut ctl = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
        let report = ctl.iterate(&mut backend).unwrap();
        assert_eq!(report.health.vanished_vms, [db]);
        let page = ctl.telemetry().render_prometheus();
        assert_eq!(sample(&page, "vfc_vanished_vms_total"), 1);
        assert_eq!(ctl.health_totals().vanished_vms, 1);
    }

    /// The page's three credit numbers are sums of the report, the one
    /// per-VM record, through a life that leaves wallets behind every way
    /// one can: a clean departure, a VM vanishing under the reads, a
    /// bounced write and a degraded ladder rung on which the market does
    /// not run. The balance being this period's `credits` sum is what
    /// keeps a departed VM's wallet off the page.
    #[test]
    fn the_pages_credit_totals_are_the_reports_sums() {
        let mut host = SimHost::new(NodeSpec::custom("t", 1, 4, 2, MHz(2400)), 7);
        let vms = [0, 1, 2].map(|seed| {
            let vm = host.provision(&VmTemplate::small());
            host.attach_workload(vm, Box::new(BurstyWeb::new(seed)));
            vm
        });
        // Stays frugal throughout, so every market period mints.
        let saver = host.provision(&VmTemplate::small());
        host.attach_workload(saver, Box::new(SteadyDemand::new(0.05)));
        let mut backend = FaultInjectingBackend::new(host, FaultPlan::none(), 7);
        let cfg = ControllerConfig {
            deadline_budget_frac: 0.5,
            ..ControllerConfig::paper_defaults()
        };
        let mut ctl = Controller::new(cfg, backend.topology());
        let mut sums = Sums::default();
        let mut run =
            |backend: &mut _, ctl: &mut _, n| periods_match_the_report(backend, ctl, &mut sums, n);
        let report = run(&mut backend, &mut ctl, 8);
        assert_eq!(report.credits.len(), 4);

        // A clean departure: gone from one listing to the next.
        drop(backend.inner_mut().deprovision(vms[2]));
        let report = run(&mut backend, &mut ctl, 3);
        assert!(report.credits.iter().all(|(vm, _)| *vm != vms[2]));

        // A VM vanishes under the reads while the listing still has it.
        backend.vanish_vm(vms[1]);
        let report = run(&mut backend, &mut ctl, 1);
        assert_eq!(report.health.vanished_vms, [vms[1]]);

        // A write bounces: a bursty survivor's demand moves, so its cap
        // is rewritten, and that write fails once.
        backend
            .inner_mut()
            .attach_workload(vms[0], Box::new(SteadyDemand::full()));
        let busy = FaultKind::Io(std::io::ErrorKind::ResourceBusy);
        backend.script_fault(FaultOp::SetVcpuMax, Some(vms[0]), None, busy, 1);
        let report = run(&mut backend, &mut ctl, 1);
        assert_eq!(report.health.write_errors, 1);
        run(&mut backend, &mut ctl, 2);

        // The loop overruns its budget and walks down the ladder; the
        // market stops until it climbs back.
        ctl.inject_stage_delay_us(1_000_000);
        run(&mut backend, &mut ctl, 3);
        ctl.inject_stage_delay_us(0);
        let report = run(&mut backend, &mut ctl, 12);
        assert_eq!(report.health.ladder_rung, crate::LadderRung::Full);
        assert!(!report.flows.is_empty());

        assert!(sums.periods_without_market >= 3);
        assert!(sums.minted > 0 && sums.spent > 0, "the market traded");
    }
}
