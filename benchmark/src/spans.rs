//! In-memory spans recorded by the harness around each call into a layer.
//!
//! The program under test is not instrumented (that is a later issue);
//! every span here brackets a public call made by a workload, or is
//! synthesised from timings the call returned (the controller's
//! `StageTimings`). Spans stay in memory and are written once, at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one period or one request share an identifier.
    pub trace_id: u64,
}

/// Span recorder. Disabled (the default for end-to-end runs) it records
/// nothing and every method is a branch on one bool.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name roll-up of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a closed interval; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        trace_id: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, start_ns, end_ns, parent, trace_id)
    }

    /// Start a span whose end is not known yet (it will parent spans
    /// recorded before it closes); finish it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, trace_id: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(start);
        self.push(name, start_ns, start_ns, None, trace_id)
    }

    /// Set the end of a span started with [`Tracer::open`].
    pub fn close(&mut self, id: Option<u32>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            let span = &mut self.spans[id as usize];
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    /// Lay `parts` (name, nanoseconds) end to end as children of `parent`,
    /// starting where the parent starts — how a call's returned stage
    /// timings become child spans.
    pub fn record_sequence(&mut self, parent: Option<u32>, parts: &[(&'static str, u64)]) {
        let Some(p) = parent else { return };
        let (mut at, trace_id) = {
            let s = &self.spans[p as usize];
            (s.start_ns, s.trace_id)
        };
        for &(name, dur) in parts {
            self.push(name, at, at + dur, Some(p), trace_id);
            at += dur;
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        trace_id: u64,
    ) -> Option<u32> {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            trace_id,
        });
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// The trace as one JSON document.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Roll spans up by name. A span's self time is its duration minus the
/// union of its children's intervals clipped to it, so overlapping or
/// overhanging children are never subtracted twice.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("period", 0, 100, None),
            span("advance", 0, 60, Some(0)),
            span("iterate", 60, 90, Some(0)),
            span("monitor", 60, 75, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["period"].self_ns, 10);
        assert_eq!(t["advance"].self_ns, 60);
        assert_eq!(t["iterate"].self_ns, 15);
        assert_eq!(t["iterate"].total_ns, 30);
        assert_eq!(t["monitor"].count, 1);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 10, 50, None),
            span("a", 0, 30, Some(0)),  // clipped to 10..30
            span("b", 20, 40, Some(0)), // overlaps a: adds 30..40
            span("c", 45, 90, Some(0)), // clipped to 45..50
        ];
        let t = totals(&spans);
        assert_eq!(t["parent"].self_ns, 40 - (20 + 10 + 5));
    }

    #[test]
    fn opened_span_parents_what_is_recorded_before_it_closes() {
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        let step = tr.open("step", t0, 3);
        let t1 = t0 + std::time::Duration::from_nanos(70);
        tr.record("reconcile", t0, t1, step, 3);
        tr.close(step, t0 + std::time::Duration::from_nanos(100));
        let t = tr.totals();
        assert_eq!(t["step"].total_ns, 100);
        assert_eq!(t["step"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tr.record("x", now, now, None, 0), None);
        let opened = tr.open("z", now, 0);
        tr.close(opened, now);
        tr.record_sequence(None, &[("y", 5)]);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn sequence_children_tile_the_parent_from_its_start() {
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        let p = tr.record(
            "iterate",
            t0,
            t0 + std::time::Duration::from_nanos(100),
            None,
            7,
        );
        tr.record_sequence(p, &[("monitor", 40), ("apply", 30)]);
        let s = tr.spans();
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[2].trace_id, 7);
        assert_eq!(tr.totals()["iterate"].self_ns, 30);
        assert!(tr.render_json().contains("\"name\":\"apply\""));
    }
}
