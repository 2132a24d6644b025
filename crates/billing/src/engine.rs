//! The billing engine: metering intake, the persistent ledger, and the
//! `vfc_bill_*` telemetry families, behind one object the control plane
//! (or an experiment driver) owns.
//!
//! Per period the owner aggregates cluster usage into
//! [`TenantPeriodUsage`] rows and calls [`BillingEngine::meter_period`];
//! the engine appends ledger records, prices them incrementally and
//! bumps the revenue/penalty counters. [`BillingEngine::checkpoint`]
//! appends what the file does not hold yet as one sealed, fsynced batch;
//! [`BillingEngine::with_ledger`] replays the file after a restart —
//! counters and invoices come back exactly as of the last checkpoint
//! that returned.

use crate::invoice::{Invoice, Running, SpecAudit};
use crate::ledger::{record_line, LedgerError, UsageLedger, UsageRecord};
use crate::pricing::{price_record, PricingConfig, SlaClass};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use vfc_simcore::durable::AppendLog;
use vfc_telemetry::{MetricId, Registry};

/// Class labels of `vfc_bill_class_revenue_microcents_total`, in index
/// order.
const CLASS_LABELS: [&str; 2] = ["guaranteed", "burstable"];

/// One tenant's aggregated usage for one period at one frequency tier —
/// the metering intake row (a [`UsageRecord`] minus the positions the
/// engine assigns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPeriodUsage {
    /// Tenant billed.
    pub tenant: String,
    /// Frequency tier (`F_v`), MHz.
    pub vfreq_mhz: u32,
    /// VM-periods aggregated.
    pub vm_periods: u64,
    /// Reserved work, MHz·s.
    pub guaranteed_mhz_s: u64,
    /// Delivered work, MHz·s.
    pub delivered_mhz_s: u64,
    /// Auction-won cycles, µs of `F^MAX`.
    pub auction_usec: u64,
    /// Credits minted, µs.
    pub minted_usec: u64,
    /// Share of cluster-wasted market cycles, µs.
    pub wasted_share_usec: u64,
    /// Demanding VM-periods.
    pub demanding_vm_periods: u64,
    /// Violated VM-periods.
    pub violated_vm_periods: u64,
}

/// See module docs.
#[derive(Debug)]
pub struct BillingEngine {
    cfg: PricingConfig,
    ledger: UsageLedger,
    /// The ledger file; `log.records()` of `ledger` are durable.
    log: Option<AppendLog>,
    /// Each tenant's invoice over `ledger` under `cfg`, kept by
    /// [`account`](BillingEngine::account) so a bill scans no ledger.
    running: BTreeMap<String, Running>,
    registry: Registry,
    revenue: MetricId,
    penalties: MetricId,
    class_revenue: MetricId,
    spot_price: MetricId,
    periods_metered: MetricId,
    records_total: MetricId,
}

impl BillingEngine {
    /// A fresh engine with an empty, unpersisted ledger.
    pub fn new(cfg: PricingConfig) -> Self {
        let mut r = Registry::new();
        let revenue = r.counter_dyn(
            "vfc_bill_revenue_microcents_total",
            "Gross revenue billed per tenant (µ¢)",
            "tenant",
        );
        let penalties = r.counter_dyn(
            "vfc_bill_penalty_microcents_total",
            "SLO penalty credits owed back per tenant (µ¢)",
            "tenant",
        );
        let class_revenue = r.counter_vec(
            "vfc_bill_class_revenue_microcents_total",
            "Gross revenue billed per SLA class (µ¢)",
            "class",
            &CLASS_LABELS,
        );
        let spot_price = r.gauge(
            "vfc_bill_spot_price_microcents_per_ghz_s",
            "Spot rate for auction-won cycles at F_MAX (µ¢ per GHz·s; 0 = no burstable tenants)",
        );
        let periods_metered = r.counter(
            "vfc_bill_periods_metered_total",
            "Periods the metering pipeline processed",
        );
        let records_total = r.counter(
            "vfc_bill_usage_records_total",
            "Usage records appended to the ledger",
        );
        let mut engine = BillingEngine {
            cfg,
            ledger: UsageLedger::new(),
            log: None,
            running: BTreeMap::new(),
            registry: r,
            revenue,
            penalties,
            class_revenue,
            spot_price,
            periods_metered,
            records_total,
        };
        engine.refresh_spot_gauge();
        engine
    }

    /// An engine persisted at `path`: loads and replays an existing
    /// ledger (telemetry counters come back as if uninterrupted), or
    /// creates the file when it does not exist yet. A batch whose
    /// checkpoint never returned is ignored; any other defect in an
    /// existing file is a hard error — billing never guesses.
    pub fn with_ledger(cfg: PricingConfig, path: PathBuf) -> Result<Self, LedgerError> {
        let mut engine = BillingEngine::new(cfg);
        let (ledger, log) = UsageLedger::open(&path)?;
        let mut last = None;
        for r in ledger.records() {
            if last != Some(r.period) {
                engine.registry.inc(engine.periods_metered, 0, 1);
                last = Some(r.period);
            }
            engine.account(r);
        }
        engine.ledger = ledger;
        engine.log = Some(log);
        Ok(engine)
    }

    /// The pricing configuration in force.
    pub fn config(&self) -> &PricingConfig {
        &self.cfg
    }

    /// The in-memory ledger (append order).
    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// Meter one period: append one ledger record per intake row (rows
    /// are sorted by tenant then tier, so ledgers are deterministic for
    /// a given usage set) and bill them incrementally.
    pub fn meter_period(&mut self, period: u64, mut usage: Vec<TenantPeriodUsage>) {
        usage.sort_by(|a, b| (&a.tenant, a.vfreq_mhz).cmp(&(&b.tenant, b.vfreq_mhz)));
        self.registry.inc(self.periods_metered, 0, 1);
        for u in usage {
            let record = UsageRecord {
                seq: 0, // assigned by the ledger
                period,
                tenant: u.tenant,
                vfreq_mhz: u.vfreq_mhz,
                vm_periods: u.vm_periods,
                guaranteed_mhz_s: u.guaranteed_mhz_s,
                delivered_mhz_s: u.delivered_mhz_s,
                auction_usec: u.auction_usec,
                minted_usec: u.minted_usec,
                wasted_share_usec: u.wasted_share_usec,
                demanding_vm_periods: u.demanding_vm_periods,
                violated_vm_periods: u.violated_vm_periods,
            };
            // Billed, then appended: nothing `account` reads is a position.
            self.account(&record);
            self.ledger.push(record);
        }
    }

    /// Bill one record onto the telemetry counters and its tenant's
    /// running invoice — the one place a record is billed, metered or
    /// replayed.
    fn account(&mut self, r: &UsageRecord) {
        let charge = price_record(&self.cfg, r);
        let class_idx = match self.cfg.class_of(&r.tenant) {
            SlaClass::Guaranteed { .. } => 0,
            SlaClass::Burstable { .. } => 1,
        };
        self.registry
            .inc_dyn(self.revenue, &r.tenant, charge.gross());
        self.registry
            .inc_dyn(self.penalties, &r.tenant, charge.penalty_microcents);
        self.registry
            .inc(self.class_revenue, class_idx, charge.gross());
        self.registry.inc(self.records_total, 0, 1);
        let running = self.running.entry(r.tenant.clone()).or_default();
        running.add(&self.cfg, r);
    }

    /// Make every record metered since the last checkpoint that returned
    /// `Ok` durable, as one sealed batch (a no-op without a path or
    /// without such records). After an `Err` nothing counts as written:
    /// the next checkpoint carries these records again.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let pending = &self.ledger.records()[log.records() as usize..];
        log.append(pending.iter().map(record_line))
    }

    /// `tenant`'s invoice over everything metered so far — equal to
    /// [`generate`](crate::invoice::generate) over the ledger, read from
    /// the tenant's running state.
    pub fn invoice(&self, tenant: &str, audit: SpecAudit) -> Invoice {
        let unmetered = Running::default();
        let running = self.running.get(tenant).unwrap_or(&unmetered);
        running.finish(tenant, audit, &self.cfg)
    }

    /// `tenant`'s raw usage records, append order.
    pub fn history(&self, tenant: &str) -> Vec<&UsageRecord> {
        self.ledger
            .records()
            .iter()
            .filter(|r| r.tenant == tenant)
            .collect()
    }

    /// Render the `vfc_bill_*` families as a Prometheus text page.
    pub fn render_telemetry(&self) -> String {
        vfc_telemetry::render(&self.registry)
    }

    /// Recompute the spot-price gauge: the curve rate at `F^MAX` times
    /// the highest spot multiplier any burstable tenant pays (0 when no
    /// tenant is burstable).
    fn refresh_spot_gauge(&mut self) {
        let rate = self
            .cfg
            .curve
            .rate_microcents_per_ghz_s(self.cfg.fmax_mhz, self.cfg.fmax_mhz);
        let max_mult = self
            .cfg
            .classes
            .values()
            .filter_map(|c| match c {
                SlaClass::Burstable {
                    spot_multiplier_pct,
                    ..
                } => Some(*spot_multiplier_pct as u64),
                SlaClass::Guaranteed { .. } => None,
            })
            .max()
            .unwrap_or(0);
        let spot = rate as u128 * max_mult as u128 / 100;
        self.registry.set(self.spot_price, 0, spot as u64);
    }

    /// Replace a tenant's SLA class (affects pricing of future records
    /// and of invoices generated from now on) and refresh the spot
    /// gauge. An invoice re-prices history under the class in force, so
    /// a class that actually changes refolds that tenant's records.
    pub fn set_class(&mut self, tenant: &str, class: SlaClass) {
        let changed = self.cfg.class_of(tenant) != class;
        self.cfg.classes.insert(tenant.to_owned(), class);
        self.refresh_spot_gauge();
        if let (true, Some(running)) = (changed, self.running.get_mut(tenant)) {
            *running = Running::default();
            for r in self.ledger.records().iter().filter(|r| r.tenant == tenant) {
                running.add(&self.cfg, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::PriceCurve;

    fn usage(tenant: &str, violated: u64) -> TenantPeriodUsage {
        TenantPeriodUsage {
            tenant: tenant.to_owned(),
            vfreq_mhz: 500,
            vm_periods: 2,
            guaranteed_mhz_s: 2_000,
            delivered_mhz_s: 1_800,
            auction_usec: 100_000,
            minted_usec: 40,
            wasted_share_usec: 7,
            demanding_vm_periods: 2,
            violated_vm_periods: violated,
        }
    }

    fn config() -> PricingConfig {
        let mut cfg = PricingConfig::linear(1_000, 2_400);
        cfg.classes.insert(
            "burst".to_owned(),
            SlaClass::Burstable {
                base_discount_pct: 50,
                spot_multiplier_pct: 150,
            },
        );
        cfg
    }

    #[test]
    fn metering_bills_to_telemetry() {
        let mut e = BillingEngine::new(config());
        e.meter_period(1, vec![usage("acme", 1), usage("burst", 0)]);
        let page = e.render_telemetry();
        // acme (guaranteed, default penalty 10000): 2 GHz·s → 2000 µ¢.
        assert!(page.contains("vfc_bill_revenue_microcents_total{tenant=\"acme\"} 2000"));
        assert!(page.contains("vfc_bill_penalty_microcents_total{tenant=\"acme\"} 10000"));
        assert!(page.contains("vfc_bill_class_revenue_microcents_total{class=\"guaranteed\"} 2000"));
        // spot gauge: 1000 µ¢ × 150 %.
        assert!(page.contains("vfc_bill_spot_price_microcents_per_ghz_s 1500"));
        assert!(page.contains("vfc_bill_periods_metered_total 1"));
        assert!(page.contains("vfc_bill_usage_records_total 2"));
    }

    #[test]
    fn restart_replays_ledger_and_telemetry() {
        let dir = std::env::temp_dir().join(format!("vfc-engine-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.ledger");
        std::fs::remove_file(&path).ok();

        // Uninterrupted reference run.
        let mut reference = BillingEngine::new(config());
        for p in 1..=6u64 {
            reference.meter_period(p, vec![usage("acme", p % 2), usage("burst", 0)]);
        }

        // Killed-and-restarted run: checkpoint after period 3, rebuild,
        // continue.
        let mut first = BillingEngine::with_ledger(config(), path.clone()).unwrap();
        for p in 1..=3u64 {
            first.meter_period(p, vec![usage("acme", p % 2), usage("burst", 0)]);
        }
        first.checkpoint().unwrap();
        drop(first); // the crash

        let mut second = BillingEngine::with_ledger(config(), path.clone()).unwrap();
        for p in 4..=6u64 {
            second.meter_period(p, vec![usage("acme", p % 2), usage("burst", 0)]);
        }

        assert_eq!(second.ledger().records(), reference.ledger().records());
        assert_eq!(second.render_telemetry(), reference.render_telemetry());
        let audit = SpecAudit::default();
        assert_eq!(
            second.invoice("acme", audit).render_json(),
            reference.invoice("acme", audit).render_json()
        );
        std::fs::remove_file(&path).ok();
    }

    // Restated for the append log. A seal that disagrees with its records
    // is `Truncated` as before; but a file whose last seal is chopped off
    // is now exactly what a crash mid-checkpoint leaves, and the one thing
    // recovery may ignore: the unsealed batch is dropped, the next
    // checkpoint cuts it, and the file reloads.
    #[test]
    fn corrupt_ledger_fails_closed() {
        let dir = std::env::temp_dir().join(format!("vfc-engine-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.ledger");
        std::fs::remove_file(&path).ok();
        let mut e = BillingEngine::with_ledger(config(), path.clone()).unwrap();
        for p in 1..=2 {
            e.meter_period(p, vec![usage("acme", 0)]);
            e.checkpoint().unwrap();
        }
        drop(e);
        let text = std::fs::read_to_string(&path).unwrap();

        std::fs::write(&path, text.replace("{\"seal\":2}", "{\"seal\":3}")).unwrap();
        match BillingEngine::with_ledger(config(), path.clone()) {
            Err(LedgerError::Truncated {
                sealed: Some(3),
                found: 2,
            }) => {}
            other => panic!("want truncation rejection, got {other:?}"),
        }

        let cut = text.rsplit_once("{\"seal\"").unwrap().0;
        std::fs::write(&path, cut).unwrap();
        let mut e = BillingEngine::with_ledger(config(), path.clone()).unwrap();
        assert_eq!(e.ledger().len(), 1, "the unsealed period is not billed");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            cut,
            "loading never writes"
        );
        e.meter_period(2, vec![usage("acme", 1)]);
        e.checkpoint().unwrap();
        let strict = UsageLedger::load(&path).unwrap();
        assert_eq!(strict.records(), e.ledger().records());
        std::fs::remove_file(&path).ok();
    }

    // A real error from a real syscall: every `write` to `/dev/full` is
    // `ENOSPC`.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_checkpoint_self_heals_and_a_lost_one_is_absent() {
        let dir = std::env::temp_dir().join(format!("vfc-engine-enospc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.ledger");
        std::fs::remove_file(&path).ok();
        let invoices = |e: &BillingEngine| {
            ["acme", "burst"].map(|t| e.invoice(t, SpecAudit::default()).render_json())
        };
        let meter = |e: &mut BillingEngine, p: u64| {
            e.meter_period(p, vec![usage("acme", p % 2), usage("burst", 0)]);
        };

        let mut twin = BillingEngine::new(config());
        let mut e = BillingEngine::with_ledger(config(), path.clone()).unwrap();
        for p in 1..=2 {
            meter(&mut twin, p);
            meter(&mut e, p);
            e.checkpoint().unwrap();
        }
        let as_of_two = invoices(&twin);
        let len_two = std::fs::metadata(&path).unwrap().len();

        let good = e.log.take().unwrap();
        let full = std::path::Path::new("/dev/full");
        e.log = Some(AppendLog::resume(full, good.records(), 0).unwrap());
        for p in 3..=6 {
            meter(&mut twin, p);
            meter(&mut e, p);
            assert!(e.checkpoint().is_err());
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_two);

        // Fail, then crash: the file is the twin as of the last `Ok`.
        let crashed = BillingEngine::with_ledger(config(), path.clone()).unwrap();
        assert_eq!(invoices(&crashed), as_of_two);
        drop(crashed);

        // Fail, then heal: one sealed batch carries all four periods.
        e.log = Some(good);
        e.checkpoint().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("{\"seal\":").count(), 3);
        let healed = BillingEngine::with_ledger(config(), path.clone()).unwrap();
        assert_eq!(invoices(&healed), invoices(&twin));
        assert_eq!(healed.render_telemetry(), twin.render_telemetry());

        // Nothing new metered: nothing written.
        e.checkpoint().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spot_gauge_tracks_class_changes() {
        let mut e = BillingEngine::new(PricingConfig {
            curve: PriceCurve::Linear {
                microcents_per_ghz_s: 800,
            },
            classes: Default::default(),
            fmax_mhz: 2_400,
        });
        assert!(e
            .render_telemetry()
            .contains("vfc_bill_spot_price_microcents_per_ghz_s 0"));
        e.set_class(
            "t",
            SlaClass::Burstable {
                base_discount_pct: 0,
                spot_multiplier_pct: 200,
            },
        );
        assert!(e
            .render_telemetry()
            .contains("vfc_bill_spot_price_microcents_per_ghz_s 1600"));
    }
}
