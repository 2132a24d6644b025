//! Metric registry: counters, gauges and histograms behind stable
//! handles.
//!
//! Metrics are registered once at startup and mutated through copyable
//! handles ([`MetricId`]), so the steady-state cost of an update is an
//! index into a `Vec` plus an integer add — no hashing, no allocation.
//! Labelled series come in two flavours:
//!
//! * **fixed** label sets ([`Registry::counter_vec`],
//!   [`Registry::histogram_vec`]) — every label value is declared at
//!   registration (e.g. the six controller stages) and addressed by
//!   index;
//! * **dynamic** label sets ([`Registry::counter_dyn`],
//!   [`Registry::gauge_dyn`]) — series appear as their label values are
//!   first seen (e.g. one series per tenant). Creating a new series
//!   allocates; updating an existing one by label is a linear scan over
//!   the series list, which is why the controller's per-period families
//!   are all fixed.
//!
//! All values are unsigned integers (µs for cycle quantities, counts for
//! events); rendering therefore cannot produce `NaN` or exponent
//! notation. The exposition lives in [`crate::expose`].

use crate::hist::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metric kind, mirroring the Prometheus `# TYPE` keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing event/quantity count.
    Counter,
    /// A value that can go up and down (set, not incremented).
    Gauge,
    /// A fixed-bucket duration histogram (µs stored, seconds exposed).
    Histogram,
}

impl Kind {
    /// The lowercase `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// The payload of one labelled series.
#[derive(Debug, Clone)]
pub(crate) enum SeriesData {
    /// Counter or gauge value.
    Value(u64),
    /// A counter other threads bump without the registry's owner (see
    /// [`Registry::share`]).
    Shared(Arc<AtomicU64>),
    /// Histogram state.
    Hist(Histogram),
}

impl SeriesData {
    /// The counter or gauge value; `None` for a histogram.
    pub(crate) fn scalar(&self) -> Option<u64> {
        match self {
            SeriesData::Value(v) => Some(*v),
            SeriesData::Shared(cell) => Some(cell.load(Ordering::Relaxed)),
            SeriesData::Hist(_) => None,
        }
    }
}

/// One series of a metric: a label value (empty for unlabelled metrics)
/// plus its data.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    pub(crate) label: String,
    pub(crate) data: SeriesData,
}

/// One registered metric: name, help, kind and its series.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) kind: Kind,
    /// Label key for the series dimension (`None` = single unlabelled
    /// series).
    pub(crate) label_key: Option<&'static str>,
    /// True when series appear at runtime (per-tenant families): the
    /// exposition sorts those by label; fixed families keep registration
    /// order.
    pub(crate) dynamic: bool,
    pub(crate) series: Vec<Series>,
}

/// Handle to a registered metric; index it with the series position
/// (always 0 for unlabelled metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(pub(crate) usize);

/// The metric registry. Registration order is exposition order, which
/// keeps the rendered text stable across runs (the golden-file test
/// depends on it).
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) metrics: Vec<Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&mut self, m: Metric) -> MetricId {
        debug_assert!(
            self.metrics.iter().all(|e| e.name != m.name),
            "duplicate metric name {}",
            m.name
        );
        self.metrics.push(m);
        MetricId(self.metrics.len() - 1)
    }

    /// Register an unlabelled counter.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> MetricId {
        self.register(Metric {
            name,
            help,
            kind: Kind::Counter,
            label_key: None,
            dynamic: false,
            series: vec![Series {
                label: String::new(),
                data: SeriesData::Value(0),
            }],
        })
    }

    /// Register an unlabelled gauge.
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> MetricId {
        self.register(Metric {
            name,
            help,
            kind: Kind::Gauge,
            label_key: None,
            dynamic: false,
            series: vec![Series {
                label: String::new(),
                data: SeriesData::Value(0),
            }],
        })
    }

    /// Register a counter family with a fixed set of label values,
    /// addressed by index in `values` order.
    pub fn counter_vec(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        values: &[&str],
    ) -> MetricId {
        self.register(Metric {
            name,
            help,
            kind: Kind::Counter,
            label_key: Some(label_key),
            dynamic: false,
            series: values
                .iter()
                .map(|v| Series {
                    label: (*v).to_string(),
                    data: SeriesData::Value(0),
                })
                .collect(),
        })
    }

    /// Register a counter family whose label values appear dynamically
    /// (e.g. one series per tenant). Starts empty.
    pub fn counter_dyn(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
    ) -> MetricId {
        self.register(Metric {
            name,
            help,
            kind: Kind::Counter,
            label_key: Some(label_key),
            dynamic: true,
            series: Vec::new(),
        })
    }

    /// Register a gauge family whose label values appear dynamically.
    pub fn gauge_dyn(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
    ) -> MetricId {
        self.register(Metric {
            name,
            help,
            kind: Kind::Gauge,
            label_key: Some(label_key),
            dynamic: true,
            series: Vec::new(),
        })
    }

    /// Register a histogram family with a fixed set of label values over
    /// the given bucket bounds (µs).
    pub fn histogram_vec(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        values: &[&str],
        bounds: &'static [u64],
    ) -> MetricId {
        self.register(Metric {
            name,
            help,
            kind: Kind::Histogram,
            label_key: Some(label_key),
            dynamic: false,
            series: values
                .iter()
                .map(|v| Series {
                    label: (*v).to_string(),
                    data: SeriesData::Hist(Histogram::new(bounds)),
                })
                .collect(),
        })
    }

    /// Register an unlabelled histogram over the given bucket bounds (µs).
    pub fn histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        bounds: &'static [u64],
    ) -> MetricId {
        self.register(Metric {
            name,
            help,
            kind: Kind::Histogram,
            label_key: None,
            dynamic: false,
            series: vec![Series {
                label: String::new(),
                data: SeriesData::Hist(Histogram::new(bounds)),
            }],
        })
    }

    /// Increment a counter series by `by` (`idx` = label position; 0 for
    /// unlabelled).
    pub fn inc(&mut self, id: MetricId, idx: usize, by: u64) {
        match &mut self.metrics[id.0].series[idx].data {
            SeriesData::Value(v) => *v += by,
            SeriesData::Shared(cell) => {
                cell.fetch_add(by, Ordering::Relaxed);
            }
            SeriesData::Hist(_) => {}
        }
    }

    /// Back counter series `idx` by `cell`, which other threads bump
    /// without this registry's owner — a listener counting its own
    /// refusals. Reads and renders load it from then on; the count the
    /// series held so far is carried into `cell`.
    pub fn share(&mut self, id: MetricId, idx: usize, cell: Arc<AtomicU64>) {
        let data = &mut self.metrics[id.0].series[idx].data;
        cell.fetch_add(data.scalar().unwrap_or(0), Ordering::Relaxed);
        *data = SeriesData::Shared(cell);
    }

    /// Set a gauge series to `value`.
    pub fn set(&mut self, id: MetricId, idx: usize, value: u64) {
        if let SeriesData::Value(v) = &mut self.metrics[id.0].series[idx].data {
            *v = value;
        }
    }

    /// Increment a dynamic-label counter, creating the series on first
    /// sight of `label`.
    pub fn inc_dyn(&mut self, id: MetricId, label: &str, by: u64) {
        if let SeriesData::Value(v) = self.dyn_series(id, label) {
            *v += by;
        }
    }

    /// Set a dynamic-label gauge, creating the series on first sight of
    /// `label`.
    pub fn set_dyn(&mut self, id: MetricId, label: &str, value: u64) {
        if let SeriesData::Value(v) = self.dyn_series(id, label) {
            *v = value;
        }
    }

    /// The series labelled `label`, pushed at zero if it is new.
    fn dyn_series(&mut self, id: MetricId, label: &str) -> &mut SeriesData {
        let series = &mut self.metrics[id.0].series;
        let at = match series.iter().position(|s| s.label == label) {
            Some(at) => at,
            None => {
                series.push(Series {
                    label: label.to_string(),
                    data: SeriesData::Value(0),
                });
                series.len() - 1
            }
        };
        &mut series[at].data
    }

    /// Record a duration into a histogram series.
    pub fn observe(&mut self, id: MetricId, idx: usize, duration: std::time::Duration) {
        if let SeriesData::Hist(h) = &mut self.metrics[id.0].series[idx].data {
            h.observe(duration);
        }
    }

    /// Record a µs value into a histogram series.
    pub fn observe_us(&mut self, id: MetricId, idx: usize, us: u64) {
        if let SeriesData::Hist(h) = &mut self.metrics[id.0].series[idx].data {
            h.observe_us(us);
        }
    }

    /// Read a counter/gauge series value (0 if the series does not
    /// exist or the id is a histogram).
    pub fn value(&self, id: MetricId, idx: usize) -> u64 {
        self.metrics[id.0]
            .series
            .get(idx)
            .and_then(|s| s.data.scalar())
            .unwrap_or(0)
    }

    /// Read a dynamic-label series value (0 if the label was never seen).
    pub fn value_dyn(&self, id: MetricId, label: &str) -> u64 {
        self.metrics[id.0]
            .series
            .iter()
            .find(|s| s.label == label)
            .and_then(|s| s.data.scalar())
            .unwrap_or(0)
    }

    /// Borrow a histogram series (None for value series / missing idx).
    pub fn histogram_at(&self, id: MetricId, idx: usize) -> Option<&Histogram> {
        match self.metrics[id.0].series.get(idx).map(|s| &s.data) {
            Some(SeriesData::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LATENCY_BUCKETS_US;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut r = Registry::new();
        let c = r.counter("c_total", "a counter");
        let g = r.gauge("g", "a gauge");
        r.inc(c, 0, 3);
        r.inc(c, 0, 4);
        r.set(g, 0, 9);
        r.set(g, 0, 2);
        assert_eq!(r.value(c, 0), 7);
        assert_eq!(r.value(g, 0), 2);
    }

    #[test]
    fn fixed_vec_is_addressed_by_index() {
        let mut r = Registry::new();
        let c = r.counter_vec("m_total", "by outcome", "outcome", &["sold", "wasted"]);
        r.inc(c, 1, 5);
        assert_eq!(r.value(c, 0), 0);
        assert_eq!(r.value(c, 1), 5);
    }

    #[test]
    fn dynamic_series_appear_and_update() {
        let mut r = Registry::new();
        let c = r.counter_dyn("tenant_total", "per tenant", "tenant");
        let g = r.gauge_dyn("tenant_vms", "per tenant", "tenant");
        r.inc_dyn(c, "web", 2);
        r.inc_dyn(c, "db", 1);
        r.inc_dyn(c, "web", 3);
        r.set_dyn(g, "db", 9);
        r.set_dyn(g, "db", 4);
        assert_eq!(r.value_dyn(c, "web"), 5);
        assert_eq!(r.value_dyn(c, "db"), 1);
        assert_eq!(r.value_dyn(c, "ghost"), 0);
        assert_eq!(r.value_dyn(g, "db"), 4);
    }

    #[test]
    fn histograms_observe_through_the_registry() {
        let mut r = Registry::new();
        let h = r.histogram_vec(
            "d_seconds",
            "stage latency",
            "stage",
            &["monitor", "apply"],
            &LATENCY_BUCKETS_US,
        );
        r.observe_us(h, 0, 4_000);
        r.observe_us(h, 0, 4_200);
        r.observe_us(h, 1, 90);
        let m = r.histogram_at(h, 0).unwrap();
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum_us(), 8_200);
        assert_eq!(r.histogram_at(h, 1).unwrap().max_us(), 90);
        assert!(r.histogram_at(h, 2).is_none());
    }
}
