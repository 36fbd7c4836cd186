//! Spans recorded from outside the product: one per call into a layer's
//! public function, kept in memory and written out when the run ends.
//!
//! The recorder is off during the timed loop — `span` then calls straight
//! through — so end-to-end numbers never pay for tracing; the traced pass
//! is a separate replay with the recorder on.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` since the recorder started,
/// the span that was open when it began, and the op it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    op: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::new(false)
    }

    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under, until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Times one call as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        self.enter(name);
        let out = call();
        self.exit();
        out
    }
}

/// Every span's duration in nanoseconds, grouped by name.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.ns() as f64);
    }
    by_name
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice).
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let me = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.ns() - covered
}

/// The trace file: one object per span, self time included.
pub fn render(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}\n",
            s.name,
            s.op,
            s.start_ns,
            s.end_ns,
            self_ns(spans, i),
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}
