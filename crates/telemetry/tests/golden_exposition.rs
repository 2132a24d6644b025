//! Golden-file test: the Prometheus exposition is pinned byte-for-byte.
//!
//! The rendered page is an interface — scrape configs, recording rules
//! and dashboards are written against its exact names, label order and
//! number formatting — so the test compares against a committed `.prom`
//! file instead of spot-checking substrings. Regenerate deliberately
//! with:
//!
//! ```text
//! VFC_BLESS=1 cargo test -p vfc-telemetry --test golden_exposition
//! ```
//!
//! and review the diff like any other interface change.

use std::path::PathBuf;
use vfc_telemetry::{render, Registry};

/// Small static bucket layout so the golden file stays readable; the
/// formatting path is identical to [`vfc_telemetry::LATENCY_BUCKETS_US`].
static BOUNDS_US: [u64; 5] = [10, 100, 1_000, 208_333, 1_000_000];

/// A registry exercising every metric kind, both label flavours, label
/// sorting, escaping, and fractional-second formatting — with fixed
/// values, so the same bytes render every time.
fn golden_registry() -> Registry {
    let mut r = Registry::new();
    let iters = r.counter("vfc_iterations_total", "Control-loop iterations executed");
    r.inc(iters, 0, 42);

    let market = r.counter_vec(
        "vfc_market_cycles_usec_total",
        "Market cycles by outcome",
        "outcome",
        &["sold", "distributed", "wasted"],
    );
    r.inc(market, 0, 1_200_000);
    r.inc(market, 1, 300_000);
    // "wasted" stays zero: zero-valued fixed series must still render.

    let vms = r.gauge("vfc_vms", "VMs under control");
    r.set(vms, 0, 3);

    // Dynamic series inserted out of order; the page must sort them.
    let minted = r.counter_dyn(
        "vfc_credits_minted_usec_total",
        "Credits minted per VM",
        "vm",
    );
    r.inc_dyn(minted, "web", 5_000);
    r.inc_dyn(minted, "db", 7_500);
    r.inc_dyn(minted, "a\"quoted\\vm\nname", 1);

    let balance = r.gauge_dyn("vfc_credit_balance_usec", "Wallet balance per VM", "vm");
    r.set_dyn(balance, "web", 900);
    r.set_dyn(balance, "db", 0);

    let stages = r.histogram_vec(
        "vfc_stage_duration_seconds",
        "Stage wall time",
        "stage",
        &["monitor", "apply"],
        &BOUNDS_US,
    );
    r.observe_us(stages, 0, 4_000); // monitor: 4 ms, the paper's figure
    r.observe_us(stages, 0, 208_333); // exactly on a fractional bound
    r.observe_us(stages, 1, 90);
    r.observe_us(stages, 1, 2_000_000); // overflow: only the +Inf bucket

    let iter_h = r.histogram(
        "vfc_iteration_duration_seconds",
        "Iteration wall time\nincluding all six stages", // help escaping
        &BOUNDS_US,
    );
    r.observe_us(iter_h, 0, 46);
    r.observe_us(iter_h, 0, 1_500_000);
    r
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn compare_or_bless(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("VFC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with VFC_BLESS=1 to create)",
            path.display()
        )
    });
    assert!(
        got == want,
        "exposition drifted from {} — if intentional, re-bless with VFC_BLESS=1\n--- got ---\n{got}\n--- want ---\n{want}",
        path.display()
    );
}

#[test]
fn single_registry_page_matches_golden_file() {
    compare_or_bless("exposition.prom", &render(&golden_registry()));
}

#[test]
fn page_never_leaks_nan_inf_or_exponents() {
    let page = render(&golden_registry());
    for line in page.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().map(f64::is_finite).unwrap_or(false),
            "non-finite or unparsable sample value in line: {line}"
        );
        assert!(
            !value.contains(['e', 'E', 'N', 'n', 'i']),
            "exponent/NaN/inf notation in sample value: {line}"
        );
    }
    // "+Inf" may appear only as the conventional histogram bucket label.
    assert_eq!(
        page.matches("Inf").count(),
        page.matches("le=\"+Inf\"").count()
    );
}
