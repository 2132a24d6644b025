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

/// Render one registry to Prometheus text format.
pub fn render(registry: &Registry) -> String {
    let mut out = String::new();
    for meta in &registry.metrics {
        out.push_str(&format!(
            "# HELP {} {}\n",
            meta.name,
            escape_help(meta.help)
        ));
        out.push_str(&format!("# TYPE {} {}\n", meta.name, meta.kind.as_str()));
        // Dynamic families render sorted by label value for a stable
        // page; fixed families keep their registration order (the caller
        // chose it deliberately, e.g. pipeline stage order).
        let mut order: Vec<usize> = (0..meta.series.len()).collect();
        if meta.dynamic {
            order.sort_by(|&a, &b| meta.series[a].label.cmp(&meta.series[b].label));
        }
        for si in order {
            let series = &meta.series[si];
            let mut pairs: Vec<(&str, &str)> = Vec::new();
            if let Some(key) = meta.label_key {
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
    out
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
        let a = render(&r);
        let b = render(&r);
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
    fn escaping_covers_help_and_labels() {
        let mut r = Registry::new();
        let c = r.counter_dyn("esc_total", "line\nbreak and back\\slash", "vm");
        r.inc_dyn(c, "we\"ird\\vm\n", 1);
        let page = render(&r);
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
