//! In-memory spans for the traced replay: name, start, end, parent and request id, recorded
//! by the benchmark around its calls into each layer and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer boundary (`wire.decode`, `frontend.tick`, …).
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (`0` while open).
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The replayed request that caused the span.
    pub request: u64,
}

/// A span recorder: spans nest by an explicit stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), in nanoseconds.
    pub self_ns: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span { name, start, end: 0, parent, request });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. Self time is a span's duration minus the
    /// durations of its direct children (children never overlap: the replay is sequential).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end - span.start;
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            let duration = span.end - span.start;
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// The share of span `root`'s duration covered by its direct children.
    pub fn coverage(&self, root: u32) -> f64 {
        let root_span = &self.spans[root as usize];
        let covered: u64 =
            self.spans.iter().filter(|s| s.parent == root).map(|s| s.end - s.start).sum();
        covered as f64 / (root_span.end - root_span.start).max(1) as f64
    }

    /// The spans as a chrome://tracing JSON array ("X" events in microseconds; `args` carry
    /// the span index, parent index and request id).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                span.name,
                span.start as f64 / 1e3,
                (span.end - span.start) as f64 / 1e3,
                span.request
            )
            .expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_sees_gaps() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("replay", 0);
        let outer = tracer.enter("frontend.tick", 1);
        tracer.time("wire.parse", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        tracer.exit(outer);
        std::thread::sleep(std::time::Duration::from_millis(4));
        tracer.exit(root);
        let totals = tracer.totals();
        let tick = totals["frontend.tick"];
        let parse = totals["wire.parse"];
        assert_eq!(tick.count, 1);
        assert_eq!(tick.self_ns, tick.total_ns - parse.total_ns);
        assert!(tracer.coverage(root) < 0.9, "the 4 ms gap is uncovered");
        let json = tracer.to_json();
        assert!(json.starts_with("[{\"name\":\"replay\"") && json.contains("\"parent\":1"));
    }
}
