//! In-memory span recorder for the traced benchmark run.
//!
//! Spans are recorded by the benchmark around the calls it makes into
//! each layer; the program itself is not instrumented. Every span has a
//! name (`<layer>.<operation>`), a start and end offset from the tracer's
//! epoch, the span that caused it, and a trace id shared by all spans of
//! one request or one replayed batch. Spans stay in memory until the run
//! ends and are then written out as JSON lines.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its children; overlapping children (parallel work) are
//! counted once.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span within its tracer.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request or batch.
    pub trace: u64,
    /// `<layer>.<operation>`.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (equal to the start while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span from explicit offsets.
    pub fn record_ns(
        &self,
        name: &str,
        parent: Option<SpanId>,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len();
        spans.push(Span { id, parent, trace, name: name.to_string(), start_ns, end_ns });
        id
    }

    /// Records a finished span from two instants.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.record_ns(name, parent, trace, self.offset(start), self.offset(end))
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>, trace: u64) -> SpanId {
        let now = self.offset(Instant::now());
        self.record_ns(name, parent, trace, now, now)
    }

    /// Closes an open span now and returns its duration.
    pub fn close(&self, id: SpanId) -> Duration {
        let now = self.offset(Instant::now());
        let mut spans = self.spans.lock().expect("span list lock");
        let span = &mut spans[id];
        span.end_ns = now;
        Duration::from_nanos(span.duration_ns())
    }

    /// Runs `f` inside a span; `f` receives the span id so it can parent
    /// child spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        trace: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent, trace);
        let out = f(id);
        let took = self.close(id);
        (out, took)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        std::fs::write(path, out)
    }
}

/// Self time of `spans[id]`: its duration minus the union of its direct
/// children's intervals, clipped to its own interval.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let children: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(id)).collect();
    uncovered_ns(&spans[id], &children)
}

fn uncovered_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = children
        .iter()
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut run: Option<(u64, u64)> = None;
    for (a, b) in children {
        match run {
            Some((ra, rb)) if a <= rb => run = Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                covered += rb - ra;
                run = Some((a, b));
            }
            None => run = Some((a, b)),
        }
    }
    if let Some((ra, rb)) = run {
        covered += rb - ra;
    }
    span.duration_ns().saturating_sub(covered)
}

/// Per-name totals: `(count, total duration ns, total self time ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += uncovered_ns(s, &children[s.id]);
    }
    out
}

/// Durations in milliseconds of every span called `name`, in record order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
}
