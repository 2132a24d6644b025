//! The names this benchmark is cited by — workloads, end-to-end metrics
//! with their bounds, per-layer metrics — read from `BENCHMARK.json` at
//! the repository root, which is compiled in: the file the driver reads is
//! the only place they are written down.

use serde_json::Value;
use std::sync::OnceLock;

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// A metric of `end_to_end` or `per_layer`.
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for a per-layer metric, which has none.
    pub bound: f64,
}

pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// A workload reports 0 for a layer it does not exercise.
    pub per_layer: Vec<Metric>,
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: an entry has no string {key:?}"))
}

fn list<T>(
    doc: &Value,
    key: &str,
    item: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no array {key:?}"))?
        .iter()
        .map(item)
        .collect()
}

fn metric(v: &Value) -> Result<Metric, String> {
    Ok(Metric {
        name: text(v, "name")?,
        unit: text(v, "unit")?,
        better: text(v, "better")?,
        bound: v.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

fn parse(json: &str) -> Result<Manifest, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(Manifest {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json: no whole number \"run_seconds\"")?,
        workloads: list(&doc, "workloads", |w| text(w, "name"))?,
        end_to_end: list(&doc, "end_to_end", metric)?,
        per_layer: list(&doc, "per_layer", metric)?,
    })
}

/// The compiled-in `BENCHMARK.json`.
///
/// # Panics
/// If the file does not parse: the build is broken, not the input.
pub fn get() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| parse(TEXT).unwrap_or_else(|e| panic!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_harness_measures_what_the_manifest_names() {
        let m = get();
        for w in &m.workloads {
            assert!(crate::Kind::of(w).is_some(), "no implementation of {w}");
        }
        assert!(m
            .end_to_end
            .iter()
            .all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(m
            .end_to_end
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower"));
        assert!(m.run_seconds >= 1 && !m.per_layer.is_empty());
    }

    #[test]
    fn a_manifest_without_its_keys_is_refused() {
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"run_seconds": 1, "workloads": [{"why": "x"}]}"#).is_err());
    }
}
