//! Prometheus text-format exposition (version 0.0.4).
//!
//! [`render`] serializes a [`Registry`] to the standard
//! `# HELP`/`# TYPE` text format. The page is a `String`: an embedder
//! writes it to a textfile however it writes its other files, or hands
//! it to [`MetricsServer`], which binds the shared [`Listener`] and
//! serves the most recently [published](MetricsServer::publish) page to
//! any request. The listener runs on its own threads; the control loop
//! only ever pays one mutex lock + one `String` clone per publish.
//!
//! Determinism: metrics render in registration order; series of a
//! dynamic family render sorted by label value. The same registry state
//! always renders to the same bytes (the golden-file test pins this).

use crate::hist::fmt_us_as_secs;
use crate::http::{Limits, Listener, Response};
use crate::registry::{Kind, Registry, SeriesData};
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex};

/// Escape a `# HELP` text: `\` → `\\`, newline → `\n`.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Format a label set `{k="v",extra...}`; empty string when there are no
/// labels at all.
fn labels(pairs: &[(&str, &str)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Render one registry to Prometheus text format. `extra_label`, when
/// given, is prepended to every series' label set — this is how a
/// cluster manager stamps each node's registry with `node="…"`.
pub fn render(registry: &Registry, extra_label: Option<(&str, &str)>) -> String {
    let mut out = String::new();
    let groups: Vec<&Registry> = vec![registry];
    render_grouped_inner(
        &mut out,
        &groups,
        &[extra_label.map(|(k, v)| (k, v.to_string()))],
    );
    out
}

/// Render several registries with **identical metric layouts** (same
/// metrics registered in the same order) as one page: each metric's
/// `# HELP`/`# TYPE` header appears once, followed by every registry's
/// series tagged with its `label_key`/`label_value` pair. This is the
/// cluster-manager rollup: one registry per node, one page for the
/// scraper.
///
/// Registries whose metric list differs from the first one's are
/// skipped (a half-upgraded cluster must not corrupt the page).
pub fn render_merged(label_key: &'static str, registries: &[(&str, &Registry)]) -> String {
    let Some((_, first)) = registries.first() else {
        return String::new();
    };
    let compatible: Vec<(&str, &Registry)> = registries
        .iter()
        .filter(|(_, r)| {
            r.metrics.len() == first.metrics.len()
                && r.metrics
                    .iter()
                    .zip(first.metrics.iter())
                    .all(|(a, b)| a.name == b.name)
        })
        .copied()
        .collect();
    let regs: Vec<&Registry> = compatible.iter().map(|(_, r)| *r).collect();
    let extras: Vec<Option<(&str, String)>> = compatible
        .iter()
        .map(|(name, _)| Some((label_key, (*name).to_string())))
        .collect();
    let mut out = String::new();
    render_grouped_inner(&mut out, &regs, &extras);
    out
}

fn render_grouped_inner(
    out: &mut String,
    registries: &[&Registry],
    extras: &[Option<(&str, String)>],
) {
    let Some(first) = registries.first() else {
        return;
    };
    for mi in 0..first.metrics.len() {
        let meta = &first.metrics[mi];
        out.push_str(&format!(
            "# HELP {} {}\n",
            meta.name,
            escape_help(meta.help)
        ));
        out.push_str(&format!("# TYPE {} {}\n", meta.name, meta.kind.as_str()));
        for (reg, extra) in registries.iter().zip(extras.iter()) {
            let metric = &reg.metrics[mi];
            // Dynamic families render sorted by label value for a stable
            // page; fixed families keep their registration order (the
            // caller chose it deliberately, e.g. pipeline stage order).
            let mut order: Vec<usize> = (0..metric.series.len()).collect();
            if metric.dynamic {
                order.sort_by(|&a, &b| metric.series[a].label.cmp(&metric.series[b].label));
            }
            for si in order {
                let series = &metric.series[si];
                let mut pairs: Vec<(&str, &str)> = Vec::new();
                if let Some((k, v)) = extra {
                    pairs.push((k, v.as_str()));
                }
                if let Some(key) = metric.label_key {
                    pairs.push((key, series.label.as_str()));
                }
                match &series.data {
                    SeriesData::Value(_) | SeriesData::Shared(_) => {
                        let v = series.data.scalar().unwrap_or(0);
                        out.push_str(&format!("{}{} {v}\n", meta.name, labels(&pairs)));
                    }
                    SeriesData::Hist(h) => {
                        debug_assert_eq!(meta.kind, Kind::Histogram);
                        let mut cumulative = 0u64;
                        let counts = h.bucket_counts();
                        for (bi, bound) in h.bounds().iter().enumerate() {
                            cumulative += counts[bi];
                            let mut bp = pairs.clone();
                            let le = fmt_us_as_secs(*bound);
                            bp.push(("le", le.as_str()));
                            out.push_str(&format!(
                                "{}_bucket{} {cumulative}\n",
                                meta.name,
                                labels(&bp)
                            ));
                        }
                        cumulative += counts[counts.len() - 1];
                        let mut bp = pairs.clone();
                        bp.push(("le", "+Inf"));
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            meta.name,
                            labels(&bp)
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            meta.name,
                            labels(&pairs),
                            fmt_us_as_secs(h.sum_us())
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            meta.name,
                            labels(&pairs),
                            h.count()
                        ));
                    }
                }
            }
        }
    }
}

/// The HTTP exposition endpoint: the shared [`Listener`] at its default
/// [`Limits`], answering every well-formed request with the last
/// [published](MetricsServer::publish) page. There is deliberately no
/// routing — this is a scrape endpoint, not a web server. The
/// listener's threads exit with the process.
pub struct MetricsServer {
    page: Arc<Mutex<String>>,
    listener: Listener,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`) and start serving.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<MetricsServer, String> {
        let page = Arc::new(Mutex::new(String::new()));
        let served = Arc::clone(&page);
        let listener = Listener::bind(addr, Limits::default(), move |_, _, _| {
            Response::prometheus(served.lock().map(|p| p.clone()).unwrap_or_default())
        })?;
        Ok(MetricsServer { page, listener })
    }

    /// Replace the page served to the next scrape.
    pub fn publish(&self, page: String) {
        if let Ok(mut guard) = self.page.lock() {
            *guard = page;
        }
    }

    /// The actually bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LATENCY_BUCKETS_US;
    use std::io::{Read as _, Write as _};

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        let c = r.counter("vfc_iterations_total", "Iterations executed");
        r.inc(c, 0, 12);
        let g = r.gauge_dyn("vfc_credit_balance_usec", "Wallet balance", "vm");
        r.set_dyn(g, "web", 500);
        r.set_dyn(g, "db", 900);
        let h = r.histogram(
            "vfc_iteration_duration_seconds",
            "Iteration wall time",
            &LATENCY_BUCKETS_US,
        );
        r.observe_us(h, 0, 46);
        r
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let r = sample_registry();
        let a = render(&r, None);
        let b = render(&r, None);
        assert_eq!(a, b);
        // Dynamic labels sorted: db before web.
        let db = a.find("vm=\"db\"").unwrap();
        let web = a.find("vm=\"web\"").unwrap();
        assert!(db < web);
        assert!(a.contains("# TYPE vfc_iterations_total counter"));
        assert!(a.contains("vfc_iteration_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(a.contains("vfc_iteration_duration_seconds_sum 0.000046"));
    }

    #[test]
    fn extra_label_is_prepended() {
        let r = sample_registry();
        let page = render(&r, Some(("node", "n0")));
        assert!(page.contains("vfc_iterations_total{node=\"n0\"} 12"));
        assert!(page.contains("{node=\"n0\",vm=\"db\"}"));
    }

    #[test]
    fn merged_render_emits_headers_once() {
        let a = sample_registry();
        let b = sample_registry();
        let page = render_merged("node", &[("n0", &a), ("n1", &b)]);
        assert_eq!(
            page.matches("# TYPE vfc_iterations_total counter").count(),
            1
        );
        assert!(page.contains("vfc_iterations_total{node=\"n0\"} 12"));
        assert!(page.contains("vfc_iterations_total{node=\"n1\"} 12"));
        // Mismatched registries are skipped, not mixed in.
        let other = Registry::new();
        let page = render_merged("node", &[("n0", &a), ("weird", &other)]);
        assert!(!page.contains("weird"));
    }

    #[test]
    fn escaping_covers_help_and_labels() {
        let mut r = Registry::new();
        let c = r.counter_dyn("esc_total", "line\nbreak and back\\slash", "vm");
        r.inc_dyn(c, "we\"ird\\vm\n", 1);
        let page = render(&r, None);
        assert!(page.contains("# HELP esc_total line\\nbreak and back\\\\slash"));
        assert!(page.contains("esc_total{vm=\"we\\\"ird\\\\vm\\n\"} 1"));
    }

    #[test]
    fn http_listener_serves_the_published_page() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        server.publish("vfc_iterations_total 7\n".to_string());
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.ends_with("vfc_iterations_total 7\n"), "{response}");
    }

    #[test]
    fn an_idle_connection_does_not_wedge_the_listener() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        server.publish("up 1\n".to_string());
        // Connects first, sends nothing, stays open past the scrape.
        let idle = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Limits::default().read_timeout * 5))
            .unwrap();
        stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.ends_with("up 1\n"), "{response}");
        drop(idle);
    }
}
