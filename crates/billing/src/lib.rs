#![warn(missing_docs)]

//! Performance-based pricing for virtual frequency scaling.
//!
//! The controller's credit/market machinery (Eqs. 4–6 of the paper) is
//! already a micro-economy; this crate turns it into revenue, following
//! the performance-based pricing model of Lučanin et al. ("A Cloud
//! Controller for Performance-Based Pricing"): tenants are charged as a
//! function of the CPU frequency actually provisioned — exactly the
//! virtual frequency `F_v` the rest of this workspace monitors, resizes
//! and journals.
//!
//! * [`ledger`] — the crash-safe usage ledger: per-tenant, per-period
//!   [`ledger::UsageRecord`]s appended, one sealed and fsynced batch
//!   per checkpoint, to a JSON-lines file on `vfc_simcore::durable`;
//!   loading validates every seal and the seq chain and ignores only a
//!   batch whose checkpoint never returned — a bill never silently
//!   shrinks;
//! * [`pricing`] — frequency-tiered price curves
//!   ([`pricing::PriceCurve`]: linear / tiered-step / convex) and SLA
//!   classes ([`pricing::SlaClass`]: *Guaranteed* bills the reservation
//!   and credits violations, *Burstable* bills delivery plus
//!   auction-won cycles at a spot multiplier), all integer µ¢
//!   arithmetic;
//! * [`invoice`] — deterministic line-itemed invoices
//!   ([`invoice::generate`]): same spec audit + ledger + config ⇒
//!   byte-identical JSON;
//! * [`engine`] — [`engine::BillingEngine`]: metering intake, the
//!   persistent ledger and the `vfc_bill_*` telemetry families behind
//!   one object; restart replays the ledger so counters and invoices
//!   survive crashes.
//!
//! The crate sits *below* the control plane: it never sees specs or
//! clusters, only aggregated usage rows and audit counts. See
//! `docs/BILLING.md` for the schemas and the revenue-vs-SLO experiment.

pub mod engine;
pub mod invoice;
pub mod ledger;
pub mod pricing;

pub use engine::{BillingEngine, TenantPeriodUsage};
pub use invoice::{generate as generate_invoice, Invoice, InvoiceLine, InvoiceTotals, SpecAudit};
pub use ledger::{LedgerError, UsageLedger, UsageRecord, LEDGER_VERSION};
pub use pricing::{price_record, PriceCurve, PriceTier, PricingConfig, RecordCharge, SlaClass};
