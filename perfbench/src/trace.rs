//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the id of the op
//! (one user request) it belongs to. Spans stay in memory while the run
//! measures and are written out once it ends. With tracing off every call
//! is a single branch, so the untraced run pays nothing measurable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle of an open span (`None` with tracing off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Starts the next op: spans opened from here on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        self.exit_as(id, None);
    }

    /// Closes a span, renaming it when its layer is only known afterwards
    /// (the engine the planner chose, the cache outcome of a request).
    pub fn exit_as(&mut self, id: SpanId, rename: Option<&'static str>) {
        let Some(idx) = id.0 else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap, as one client thread opens them).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    /// Inclusive durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans, one JSON object a line, followed by a per-name summary
    /// of counts, total and self time.
    pub fn render(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own[i];
        }
        for (name, (count, total, own)) in summary {
            let _ = writeln!(
                out,
                "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ms\": {:?}, \"self_ms\": {:?}}}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        let root = t.enter("op");
        let child = t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit_as(child, Some("renamed"));
        t.exit(root);
        let own = t.self_ns();
        assert_eq!(t.spans[1].name, "renamed");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(own[0] + own[1], t.spans[0].dur_ns());
        assert!(t
            .render()
            .contains("\"summary\": \"renamed\", \"count\": 1"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("op");
        t.exit(id);
        assert!(t.spans.is_empty());
    }
}
