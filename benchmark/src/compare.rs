//! `compare A.json B.json`: is B worse than A by more than the bounds?
//!
//! Both files are result sets written by `suite` (one or many runs per
//! workload). For every workload × end-to-end metric the medians are
//! compared against the metric's bound in `BENCHMARK.json`; when either side's own spread
//! (inter-quartile distance over median) exceeds the bound the pairing is
//! reported as *unresolved*, never as unchanged. Per-layer metrics are
//! listed with their change, without a verdict.

use crate::manifest;
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The runs of a result file.
pub fn load_runs(path: &Path) -> Result<Vec<Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("runs") {
        Some(Value::Array(runs)) => Ok(runs.clone()),
        _ => Err(format!("{}: no \"runs\" array", path.display())),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// One side's runs of one workload: end-to-end and traced runs together
/// (their metric names are disjoint).
#[derive(Default)]
struct Side {
    /// metric → one value per run.
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    /// seed → digest.
    digests: BTreeMap<u64, String>,
}

impl Side {
    fn failed_share(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            0.0
        }
    }
}

fn collect(runs: &[Value], workload: &str) -> Side {
    let mut side = Side::default();
    for run in runs {
        if run.get("workload") != Some(&Value::Str(workload.to_owned())) {
            continue;
        }
        if let Some(Value::Object(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(number) {
                    side.values.entry(name.clone()).or_default().push(v);
                }
            }
        }
        side.attempted += run.get("attempted").and_then(number).unwrap_or(0.0);
        side.failed += run.get("failed").and_then(number).unwrap_or(0.0);
        if let (Some(Value::UInt(seed)), Some(Value::Str(d))) = (run.get("seed"), run.get("digest"))
        {
            side.digests.insert(*seed, d.clone());
        }
    }
    side
}

/// How one pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    Unresolved,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// `worse` is B's change for the worse as a share of A's median (negative
/// = better); `spread` the larger of the two sides' own spreads, when
/// either side has enough runs to have one.
pub fn verdict(worse: f64, spread: Option<f64>, bound: f64) -> Verdict {
    match spread {
        Some(s) if s > bound => Verdict::Unresolved,
        _ if worse > bound => Verdict::Regression,
        Some(s) if worse < -s => Verdict::Improved,
        _ => Verdict::Ok,
    }
}

/// B's change for the worse relative to A.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

fn fmt_spread(s: Option<f64>) -> String {
    s.map_or_else(|| "   n/a".to_owned(), |s| format!("{:5.1}%", s * 100.0))
}

/// Print the comparison; `Ok(false)` when B regressed or failed more.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_runs, b_runs) = (load_runs(a_path)?, load_runs(b_path)?);
    let mut bad = false;
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    let manifest = manifest::get();
    for w in &manifest.workloads {
        let (a, b) = (collect(&a_runs, w), collect(&b_runs, w));
        if a.values.is_empty() && b.values.is_empty() {
            continue;
        }
        println!("\n== {w} ==");
        println!(
            "{:<38} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
            "end-to-end metric", "A median", "B median", "worse", "A iqr", "B iqr", "bound"
        );
        for m in &manifest.end_to_end {
            let (Some(av), Some(bv)) = (a.values.get(&m.name), b.values.get(&m.name)) else {
                println!("{:<38} {}", m.name, Verdict::Missing.label());
                continue;
            };
            let (am, bm) = (stats::median(av), stats::median(bv));
            let (sa, sb) = (stats::spread(av), stats::spread(bv));
            let spread = match (sa, sb) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let worse = worse_by(am, bm, &m.better);
            let v = verdict(worse, spread, m.bound);
            bad |= v == Verdict::Regression;
            println!(
                "{:<38} {am:>14.4} {bm:>14.4} {:>7.1}% {} {} {:>5.0}%  {}{}",
                format!("{} [{}]", m.name, m.unit),
                worse * 100.0,
                fmt_spread(sa),
                fmt_spread(sb),
                m.bound * 100.0,
                v.label(),
                if spread.is_none() {
                    " (one run a side: no spread)"
                } else {
                    ""
                },
            );
        }
        let (fa, fb) = (a.failed_share(), b.failed_share());
        let more = fb > fa;
        bad |= more;
        println!(
            "{:<38} {fa:>14.6} {fb:>14.6} {}",
            "failed_share [failed/attempted]",
            if more { "MORE FAILURES" } else { "ok" }
        );
        for (seed, da) in &a.digests {
            if let Some(db) = b.digests.get(seed) {
                let same = if da == db {
                    "same"
                } else {
                    "DIFFERENT outputs"
                };
                println!("digest seed={seed}: A {da}  B {db}  {same}");
            }
        }
        println!(
            "{:<38} {:>14} {:>14} {:>8}",
            "per-layer metric", "A median", "B median", "change"
        );
        for m in &manifest.per_layer {
            let (Some(av), Some(bv)) = (a.values.get(&m.name), b.values.get(&m.name)) else {
                continue;
            };
            let (am, bm) = (stats::median(av), stats::median(bv));
            if am == 0.0 && bm == 0.0 {
                continue; // layer not exercised by this workload
            }
            println!(
                "{:<38} {am:>14.4} {bm:>14.4} {:>7.1}%",
                format!("{} [{}]", m.name, m.unit),
                if am != 0.0 {
                    (bm - am) / am.abs() * 100.0
                } else {
                    0.0
                }
            );
        }
    }
    println!(
        "\ncompare: {}",
        if bad {
            "B is worse than A beyond a bound, or fails more"
        } else {
            "no regression beyond the bounds"
        }
    );
    Ok(!bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_signed_by_direction() {
        assert!((worse_by(100.0, 112.0, "lower") - 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 112.0, "higher") + 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 88.0, "higher") - 0.12).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, "lower"), 0.0);
    }

    #[test]
    fn verdict_prefers_unresolved_over_any_claim() {
        assert_eq!(verdict(0.30, Some(0.15), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(-0.30, Some(0.15), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.12, Some(0.02), 0.10), Verdict::Regression);
        assert_eq!(verdict(0.12, None, 0.10), Verdict::Regression);
        assert_eq!(verdict(0.05, Some(0.02), 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.05, Some(0.02), 0.10), Verdict::Improved);
        assert_eq!(verdict(-0.01, Some(0.02), 0.10), Verdict::Ok);
        assert_eq!(
            verdict(-0.50, None, 0.10),
            Verdict::Ok,
            "one run a side claims nothing"
        );
    }

    #[test]
    fn runs_are_grouped_by_workload() {
        let text = r#"{"runs":[
            {"workload":"node_sim","seed":1,"digest":"aa","attempted":10,"failed":0,
             "metrics":{"op_p50_us":{"value":40.0,"unit":"us"}}},
            {"workload":"node_sim","seed":2,"digest":"bb","attempted":10,"failed":1,
             "metrics":{"op_p50_us":{"value":44.0,"unit":"us"}}},
            {"workload":"node_fs","seed":1,"digest":"cc","attempted":5,"failed":0,
             "metrics":{"op_p50_us":{"value":900.0,"unit":"us"}}}]}"#;
        let doc: Value = serde_json::from_str(text).unwrap();
        let Some(Value::Array(runs)) = doc.get("runs") else {
            panic!()
        };
        let sim = collect(runs, "node_sim");
        assert_eq!(sim.values["op_p50_us"], vec![40.0, 44.0]);
        assert!((sim.failed_share() - 0.05).abs() < 1e-12);
        assert_eq!(sim.digests[&2], "bb");
        assert!(collect(runs, "api_mixed").values.is_empty());
    }
}
