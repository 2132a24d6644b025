//! Property tests pinning the billing determinism contract:
//!
//! * **replay is deterministic and lossless** — the same usage rows
//!   produce the same sealed ledger bytes, survive a save/load round
//!   trip record-for-record, and render the **byte-identical** invoice
//!   whether generated from the in-memory ledger or the reloaded one;
//! * **a damaged ledger fails closed** — truncating the tail or
//!   corrupting a line yields a typed [`LedgerError`], never a panic
//!   and never an `Ok` with a silently shorter (cheaper) bill;
//! * **`bill == f(ledger)`** — whatever an engine has been through, the
//!   invoice it serves from its running states is `generate_invoice`
//!   over its ledger and config, as a value and as bytes.

use proptest::prelude::*;
use vfc_billing::{
    generate_invoice, BillingEngine, LedgerError, PriceCurve, PriceTier, PricingConfig, SlaClass,
    SpecAudit, TenantPeriodUsage, UsageLedger, UsageRecord,
};
use vfc_simcore::SplitMix64;

const TENANTS: [&str; 3] = ["acme", "bob", "carol"];
const TIERS: [u32; 3] = [500, 1_200, 1_800];

/// Deterministically expand compact proptest draws into usage records.
fn build_ledger(rows: &[(u8, u8, u64, u64, u64, u8)]) -> UsageLedger {
    let mut ledger = UsageLedger::new();
    for (i, (tenant, tier, delivered, auction, minted, dv)) in rows.iter().enumerate() {
        let vfreq = TIERS[*tier as usize % TIERS.len()];
        // One draw packs both SLO counts: low bits demanding, high bits
        // violated (the vendored proptest stops at 6-tuples).
        let demanding = u64::from(*dv % 4) + 1;
        let violated = u64::from(*dv / 4 % 4);
        ledger.push(UsageRecord {
            seq: 0, // assigned by push
            period: 1 + i as u64 / 3,
            tenant: TENANTS[*tenant as usize % TENANTS.len()].to_owned(),
            vfreq_mhz: vfreq,
            vm_periods: demanding,
            guaranteed_mhz_s: vfreq as u64 * 2 * demanding,
            delivered_mhz_s: *delivered,
            auction_usec: *auction,
            minted_usec: *minted,
            wasted_share_usec: minted / 2,
            demanding_vm_periods: demanding,
            violated_vm_periods: violated.min(demanding),
        });
    }
    ledger
}

fn configs() -> Vec<PricingConfig> {
    let mut linear = PricingConfig::linear(1_000, 2_400);
    linear.classes.insert(
        "bob".to_owned(),
        SlaClass::Burstable {
            base_discount_pct: 40,
            spot_multiplier_pct: 250,
        },
    );
    let mut tiered = linear.clone();
    tiered.curve = PriceCurve::TieredStep {
        tiers: vec![
            PriceTier {
                up_to_mhz: 800,
                microcents_per_ghz_s: 700,
            },
            PriceTier {
                up_to_mhz: 2_400,
                microcents_per_ghz_s: 1_400,
            },
        ],
    };
    let mut convex = linear.clone();
    convex.curve = PriceCurve::Convex {
        base_microcents_per_ghz_s: 600,
        premium_microcents_per_ghz_s: 900,
    };
    vec![linear, tiered, convex]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_replay_is_deterministic_and_lossless(
        rows in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u64..20_000, 0u64..2_000_000, 0u64..50_000, 0u8..16),
            1..24,
        ),
    ) {
        let ledger = build_ledger(&rows);

        // Same rows → same sealed bytes.
        prop_assert_eq!(ledger.render(), build_ledger(&rows).render());

        // Save/load round trip loses nothing.
        let dir = std::env::temp_dir().join(format!(
            "vfc-prop-invoice-{}-{}", std::process::id(), rows.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.ledger");
        ledger.save(&path).unwrap();
        let reloaded = UsageLedger::load(&path).unwrap();
        prop_assert_eq!(reloaded.records(), ledger.records());
        std::fs::remove_dir_all(&dir).ok();

        // Byte-identical invoices from either copy, under every curve.
        for cfg in configs() {
            for tenant in TENANTS {
                let a = generate_invoice(tenant, SpecAudit::default(), &ledger, &cfg)
                    .render_json();
                let b = generate_invoice(tenant, SpecAudit::default(), &reloaded, &cfg)
                    .render_json();
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn prop_damaged_ledgers_fail_closed(
        rows in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u64..20_000, 0u64..2_000_000, 0u64..50_000, 0u8..16),
            1..16,
        ),
        chop in 2usize..64,
        corrupt_line in 0usize..16,
    ) {
        let text = build_ledger(&rows).render();

        // Truncated tail: the seal is damaged or gone → typed error.
        let cut = text.len().saturating_sub(chop.min(text.len() - 1));
        let truncated = &text[..cut];
        match UsageLedger::parse(truncated) {
            Err(
                LedgerError::Truncated { .. }
                | LedgerError::Corrupt { .. }
                | LedgerError::Version(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
            Ok(l) => prop_assert!(
                false,
                "truncated ledger parsed as Ok with {} records",
                l.records().len()
            ),
        }

        // A corrupted record line is rejected, never a shorter bill.
        let mut lines: Vec<&str> = text.lines().collect();
        let idx = 1 + corrupt_line % (lines.len() - 2).max(1);
        lines[idx] = "{\"not\":\"a record\"}";
        let garbled = lines.join("\n");
        prop_assert!(UsageLedger::parse(&garbled).is_err());
    }

    #[test]
    fn prop_engine_invoice_is_generate_over_its_ledger(
        steps in proptest::collection::vec((0u8..6, 0u64..=u64::MAX), 1..40),
        curve in 0usize..3,
    ) {
        // "dave" is absent from the config; "ghost" is never metered.
        const METERED: [&str; 4] = ["acme", "bob", "carol", "dave"];
        let classes = [
            SlaClass::default(), // what an absent tenant already has
            SlaClass::Burstable { base_discount_pct: 40, spot_multiplier_pct: 250 },
            SlaClass::Guaranteed { penalty_microcents_per_violation: 2_500 },
        ];
        let dir = std::env::temp_dir().join(format!("vfc-prop-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.ledger");
        let mut engine =
            BillingEngine::with_ledger(configs().swap_remove(curve), path.clone()).unwrap();
        let mut period = 0;
        for (i, (op, seed)) in steps.into_iter().enumerate() {
            let mut rng = SplitMix64::new(seed);
            match op {
                // 1–4 tenants × 1–3 tiers, handed over in any order.
                0..=2 => {
                    let (mut tenants, mut rows) = (METERED, Vec::new());
                    rng.shuffle(&mut tenants);
                    for tenant in &tenants[..1 + rng.next_below(4) as usize] {
                        let mut tiers = TIERS;
                        rng.shuffle(&mut tiers);
                        for vfreq_mhz in &tiers[..1 + rng.next_below(3) as usize] {
                            rows.push(TenantPeriodUsage {
                                tenant: (*tenant).to_owned(),
                                vfreq_mhz: *vfreq_mhz,
                                vm_periods: 3,
                                guaranteed_mhz_s: *vfreq_mhz as u64 * 6,
                                delivered_mhz_s: rng.next_below(20_000),
                                auction_usec: rng.next_below(2_000_000),
                                minted_usec: rng.next_below(50_000),
                                wasted_share_usec: rng.next_below(500),
                                demanding_vm_periods: 3,
                                violated_vm_periods: rng.next_below(4),
                            });
                        }
                    }
                    rng.shuffle(&mut rows);
                    period += 1;
                    engine.meter_period(period, rows);
                }
                // A different class, the same class, a tenant with no records.
                3 | 4 => {
                    let tenant = METERED[rng.next_below(4) as usize];
                    engine.set_class(tenant, classes[rng.next_below(3) as usize].clone());
                }
                // Restart: what no checkpoint sealed is not billed.
                _ => {
                    if rng.next_below(4) > 0 {
                        engine.checkpoint().unwrap();
                    }
                    let cfg = engine.config().clone();
                    drop(engine);
                    engine = BillingEngine::with_ledger(cfg, path.clone()).unwrap();
                    period = engine.ledger().records().last().map_or(0, |r| r.period);
                }
            }
            let audit = SpecAudit { creates: i as u64, resizes: 1, deletes: 0 };
            for tenant in METERED.into_iter().chain(["ghost"]) {
                let served = engine.invoice(tenant, audit);
                let oracle = generate_invoice(tenant, audit, engine.ledger(), engine.config());
                prop_assert_eq!(served.render_json(), oracle.render_json());
                prop_assert_eq!(served, oracle);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
