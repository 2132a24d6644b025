//! Deterministic invoice generation: fold a tenant's usage ledger and
//! spec-store audit trail into line items under a pricing config.
//!
//! Determinism contract (pinned by a proptest): the same audit counts,
//! ledger contents and pricing config produce a **byte-identical**
//! rendered invoice, regardless of how the ledger was loaded or how
//! many times generation runs. Everything is integer arithmetic over
//! `BTreeMap`-ordered groups; no floats, no hash iteration, no clocks.

use crate::ledger::{UsageLedger, UsageRecord};
use crate::pricing::{price_record, PricingConfig, SlaClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counts replayed from the control plane's spec-store event log — the
/// audit trail tying the bill to declared intent. The billing crate
/// stays below the control plane in the dependency order, so the caller
/// folds its `SpecEvent` log into these counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecAudit {
    /// VM specs the tenant created.
    pub creates: u64,
    /// Resize events on the tenant's specs.
    pub resizes: u64,
    /// Specs the tenant deleted.
    pub deletes: u64,
}

/// One invoice line: a charge or credit over one frequency tier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvoiceLine {
    /// Human-readable description.
    pub description: String,
    /// Frequency tier (`F_v`, MHz) the line bills; 0 for tier-less
    /// lines (penalty credits).
    pub vfreq_mhz: u32,
    /// Billed quantity: MHz·s for usage lines, VM-periods for penalty
    /// lines.
    pub quantity: u64,
    /// Signed amount, µ¢ (credits are negative).
    pub amount_microcents: i64,
}

/// Roll-up totals of an invoice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvoiceTotals {
    /// Gross charges (base + spot), µ¢.
    pub charges_microcents: u64,
    /// Penalty credits owed back, µ¢.
    pub penalty_microcents: u64,
    /// Net amount due, µ¢ (charges − credits; may be negative).
    pub net_microcents: i64,
    /// Total reserved work, MHz·s.
    pub guaranteed_mhz_s: u64,
    /// Total delivered work, MHz·s.
    pub delivered_mhz_s: u64,
    /// Total auction-won cycles, µs of `F^MAX`.
    pub auction_usec: u64,
    /// VM-periods that demanded the guarantee.
    pub demanding_vm_periods: u64,
    /// Of those, violated VM-periods.
    pub violated_vm_periods: u64,
}

/// A tenant's line-itemed bill over the metered span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invoice {
    /// Invoice format version (bumped with the schema).
    pub version: u32,
    /// The billed tenant.
    pub tenant: String,
    /// SLA class in force (`guaranteed` / `burstable`).
    pub class: String,
    /// Price curve kind (`linear` / `tiered` / `convex`).
    pub curve: String,
    /// First metered period covered, 0 when nothing was metered.
    pub first_period: u64,
    /// Last metered period covered, 0 when nothing was metered.
    pub last_period: u64,
    /// Distinct periods with metered usage.
    pub periods: u64,
    /// Spec-store audit counts (creates / resizes / deletes).
    pub audit: SpecAudit,
    /// Charge and credit lines, frequency tiers ascending, credits last.
    pub lines: Vec<InvoiceLine>,
    /// Roll-up totals.
    pub totals: InvoiceTotals,
}

/// Invoice schema version rendered into every invoice.
pub const INVOICE_VERSION: u32 = 1;

impl Invoice {
    /// Render as pretty JSON plus a trailing newline — the byte-stable
    /// form served by `GET /tenants/{id}/bill` and pinned by the golden
    /// test.
    pub fn render_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("invoice serializes");
        s.push('\n');
        s
    }
}

/// Per-tier accumulation of a [`Running`] invoice.
#[derive(Debug, Clone, Default)]
struct Tier {
    base: u64,
    spot: u64,
    base_qty_mhz_s: u64,
    spot_qty_mhz_s: u64,
}

/// One tenant's invoice as a fold over that tenant's usage records, in
/// ledger order, under one pricing config: [`add`](Running::add) per
/// record, [`finish`](Running::finish) for the bill. [`generate`] is
/// this fold from nothing; the engine keeps one per tenant so a bill
/// costs no ledger scan.
#[derive(Debug, Clone, Default)]
pub struct Running {
    /// Tiers ascending (`BTreeMap` order).
    tiers: BTreeMap<u32, Tier>,
    totals: InvoiceTotals,
    penalty_vm_periods: u64,
    first_period: u64,
    last_period: u64,
    periods: u64,
}

impl Running {
    /// Fold in `r`, one of the tenant's records, priced under `cfg`.
    pub fn add(&mut self, cfg: &PricingConfig, r: &UsageRecord) {
        if self.periods == 0 || r.period < self.first_period {
            self.first_period = r.period;
        }
        if r.period != self.last_period {
            self.periods += 1; // records are appended in period order
            self.last_period = r.period;
        }
        let charge = price_record(cfg, r);
        let t = self.tiers.entry(r.vfreq_mhz).or_default();
        t.base += charge.base_microcents;
        t.spot += charge.spot_microcents;
        match cfg.class_of(&r.tenant) {
            SlaClass::Guaranteed { .. } => t.base_qty_mhz_s += r.guaranteed_mhz_s,
            SlaClass::Burstable { .. } => {
                t.base_qty_mhz_s += r.delivered_mhz_s.min(r.guaranteed_mhz_s);
                t.spot_qty_mhz_s += cfg.auction_usec_to_mhz_s(r.auction_usec);
            }
        }
        let totals = &mut self.totals;
        totals.charges_microcents += charge.gross();
        totals.penalty_microcents += charge.penalty_microcents;
        totals.guaranteed_mhz_s += r.guaranteed_mhz_s;
        totals.delivered_mhz_s += r.delivered_mhz_s;
        totals.auction_usec += r.auction_usec;
        totals.demanding_vm_periods += r.demanding_vm_periods;
        totals.violated_vm_periods += r.violated_vm_periods;
        if charge.penalty_microcents > 0 {
            self.penalty_vm_periods += r.violated_vm_periods;
        }
    }

    /// `tenant`'s invoice over the records folded so far; `cfg` is the
    /// config every [`add`](Running::add) priced under.
    pub fn finish(&self, tenant: &str, audit: SpecAudit, cfg: &PricingConfig) -> Invoice {
        let class = cfg.class_of(tenant);
        let mut totals = self.totals;
        totals.net_microcents = totals.charges_microcents as i64 - totals.penalty_microcents as i64;

        let mut lines = Vec::new();
        for (vfreq, t) in &self.tiers {
            if t.base > 0 || t.base_qty_mhz_s > 0 {
                let what = match class {
                    SlaClass::Guaranteed { .. } => "reserved",
                    SlaClass::Burstable { .. } => "delivered",
                };
                lines.push(InvoiceLine {
                    description: format!("{what} capacity @ {vfreq} MHz"),
                    vfreq_mhz: *vfreq,
                    quantity: t.base_qty_mhz_s,
                    amount_microcents: t.base as i64,
                });
            }
            if t.spot > 0 || t.spot_qty_mhz_s > 0 {
                lines.push(InvoiceLine {
                    description: format!("auction-won burst cycles @ {vfreq} MHz (spot)"),
                    vfreq_mhz: *vfreq,
                    quantity: t.spot_qty_mhz_s,
                    amount_microcents: t.spot as i64,
                });
            }
        }
        if totals.penalty_microcents > 0 {
            lines.push(InvoiceLine {
                description: "SLO penalty credit (violated VM-periods)".to_owned(),
                vfreq_mhz: 0,
                quantity: self.penalty_vm_periods,
                amount_microcents: -(totals.penalty_microcents as i64),
            });
        }

        Invoice {
            version: INVOICE_VERSION,
            tenant: tenant.to_owned(),
            class: class.name().to_owned(),
            curve: cfg.curve.kind().to_owned(),
            first_period: self.first_period,
            last_period: self.last_period,
            periods: self.periods,
            audit,
            lines,
            totals,
        }
    }
}

/// Generate `tenant`'s invoice from the ledger under `cfg`. Pure: see
/// the module-level determinism contract. This is the definition of a
/// bill, and the oracle the engine's kept [`Running`] states are tested
/// against.
pub fn generate(
    tenant: &str,
    audit: SpecAudit,
    ledger: &UsageLedger,
    cfg: &PricingConfig,
) -> Invoice {
    let mut running = Running::default();
    for r in ledger.records().iter().filter(|r| r.tenant == tenant) {
        running.add(cfg, r);
    }
    running.finish(tenant, audit, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> UsageLedger {
        let mut l = UsageLedger::new();
        for period in 1..=3u64 {
            for (tenant, vfreq) in [("acme", 500u32), ("acme", 1_200), ("bob", 500)] {
                l.push(UsageRecord {
                    seq: 0,
                    period,
                    tenant: tenant.to_owned(),
                    vfreq_mhz: vfreq,
                    vm_periods: 2,
                    guaranteed_mhz_s: vfreq as u64 * 4,
                    delivered_mhz_s: vfreq as u64 * 4 - 100,
                    auction_usec: 50_000,
                    minted_usec: 10,
                    wasted_share_usec: 5,
                    demanding_vm_periods: 2,
                    violated_vm_periods: u64::from(period == 2),
                });
            }
        }
        l
    }

    #[test]
    fn invoice_groups_by_tier_and_sums() {
        let cfg = PricingConfig::linear(1_000, 2_400);
        let inv = generate("acme", SpecAudit::default(), &ledger(), &cfg);
        assert_eq!(inv.class, "guaranteed");
        assert_eq!(inv.periods, 3);
        assert_eq!((inv.first_period, inv.last_period), (1, 3));
        // Two tiers (500, 1200) plus one penalty credit line.
        assert_eq!(inv.lines.len(), 3);
        assert_eq!(inv.lines[0].vfreq_mhz, 500);
        assert_eq!(inv.lines[1].vfreq_mhz, 1_200);
        assert!(inv.lines[2].amount_microcents < 0);
        assert_eq!(
            inv.totals.net_microcents,
            inv.totals.charges_microcents as i64 - inv.totals.penalty_microcents as i64
        );
        // Reserved: 3 periods × (2000 + 4800) MHz·s = 20.4 GHz·s → 20400 µ¢.
        assert_eq!(inv.totals.charges_microcents, 20_400);
    }

    #[test]
    fn burstable_invoice_has_spot_lines_and_no_penalty() {
        let mut cfg = PricingConfig::linear(1_000, 2_400);
        cfg.classes.insert(
            "acme".to_owned(),
            SlaClass::Burstable {
                base_discount_pct: 50,
                spot_multiplier_pct: 200,
            },
        );
        let inv = generate("acme", SpecAudit::default(), &ledger(), &cfg);
        assert_eq!(inv.class, "burstable");
        assert!(inv
            .lines
            .iter()
            .any(|l| l.description.contains("spot") && l.amount_microcents > 0));
        assert_eq!(inv.totals.penalty_microcents, 0);
    }

    #[test]
    fn rendering_is_stable_across_regeneration() {
        let cfg = PricingConfig::linear(1_000, 2_400);
        let a = generate("acme", SpecAudit::default(), &ledger(), &cfg).render_json();
        let b = generate("acme", SpecAudit::default(), &ledger(), &cfg).render_json();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_tenant_gets_an_empty_bill() {
        let cfg = PricingConfig::linear(1_000, 2_400);
        let inv = generate("ghost", SpecAudit::default(), &ledger(), &cfg);
        assert_eq!(inv.periods, 0);
        assert!(inv.lines.is_empty());
        assert_eq!(inv.totals, InvoiceTotals::default());
    }
}
