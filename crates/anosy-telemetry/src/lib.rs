//! Deterministic telemetry for the serving stack: clocks, span rings, counters and
//! log-bucketed latency histograms.
//!
//! The serving crates are instrumented unconditionally — spans around wire decode, ticks,
//! batched downgrades, single-flight synthesis and solver entry points; counters and histograms
//! next to the hot-path bookkeeping — but **recording only exists when the `enabled` cargo
//! feature is on** (anosy-serve's default `telemetry` feature turns it on). Without the feature
//! every function in this crate is an inlined no-op, so builds that opt out carry zero cost at
//! the instrumented sites.
//!
//! # Model
//!
//! Recording is per-thread: a reactor installs a [`Collector`] with [`install`] before its
//! event loop and takes the finished [`Report`] back with [`uninstall`] after. Threads without
//! a collector (shard-pool workers, tests that never install one) skip every record cheaply —
//! one thread-local probe. This is deliberate: the reactor thread's execution order is a
//! deterministic function of its transport's event sequence, so everything a collector captures
//! replays exactly; worker-thread interleavings are not deterministic, so nothing is captured
//! there.
//!
//! # Determinism
//!
//! A [`Collector`] timestamps with the [`Clock`] it was built with. Real servers use
//! [`MonotonicClock`] (microseconds since reactor start); simulated and scripted transports use
//! [`VirtualClock`], a shared counter the transport sets to its own virtual time. Under a
//! virtual clock a trace is a pure function of the transport's event schedule — replaying the
//! same seed reproduces the trace **byte-identically**, which is what makes traces diffable
//! evidence rather than one-off samples.
//!
//! Aggregation is deterministic too: registries key on `BTreeMap`, per-shard reports merge in
//! shard order ([`merge_metrics`]), and histogram buckets are value-derived (log₂), never
//! timing-derived.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// A source of integer timestamps. Units are the clock's own: microseconds for
/// [`MonotonicClock`], whatever the driving transport counts in for [`VirtualClock`].
pub trait Clock {
    /// The current time in this clock's units. Must be monotonic (never decrease).
    fn now(&self) -> u64;
}

/// Real wall-progress time: microseconds elapsed since the clock was created.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose zero is now.
    pub fn new() -> MonotonicClock {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Deterministic time driven from outside: a shared counter the owning transport sets (or
/// advances) as its own notion of virtual time progresses. Clones share the counter, so the
/// transport keeps one handle and the [`Collector`] reads another.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock at time zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Sets the current virtual time (transports call this as their schedule advances).
    pub fn set(&self, now: u64) {
        self.now.store(now, Ordering::Relaxed);
    }

    /// Advances the current virtual time by `by` units.
    pub fn advance(&self, by: u64) {
        self.now.fetch_add(by, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// A clock a transport hands to the reactor: either flavor behind one cloneable value (no
/// boxing, no generics at the call sites).
#[derive(Debug, Clone)]
pub enum ClockHandle {
    /// Real time ([`MonotonicClock`] microseconds).
    Monotonic(MonotonicClock),
    /// Transport-driven virtual time.
    Virtual(VirtualClock),
}

impl ClockHandle {
    /// A fresh real-time clock (zero = now).
    pub fn monotonic() -> ClockHandle {
        ClockHandle::Monotonic(MonotonicClock::new())
    }
}

impl Clock for ClockHandle {
    fn now(&self) -> u64 {
        match self {
            ClockHandle::Monotonic(clock) => clock.now(),
            ClockHandle::Virtual(clock) => clock.now(),
        }
    }
}

// ---------------------------------------------------------------------------
// Histograms and the metrics registry
// ---------------------------------------------------------------------------

/// Bucket count of [`Histogram`]: bucket 0 holds the value 0, bucket `i ≥ 1` holds the values
/// with `i` significant bits (`2^(i-1) ..= 2^i - 1`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations with an exact maximum. Bucketing by bit
/// length keeps recording O(1) and allocation-free while preserving tail shape; percentiles
/// report a bucket's upper bound (clamped to the exact max), so they overestimate by at most
/// 2× — the right bias for latency budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

/// The bucket index a value lands in: its bit length.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `index` can hold.
fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << index) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` (in `0.0 ..= 1.0`) as the upper bound of the bucket holding the
    /// rank-`⌈q·count⌉` observation, clamped to the exact max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Adds every bucket of `other` into this histogram (max takes the max). Merging is
    /// commutative and associative — shard order only matters for presentation, never values.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Renders `{"count":…,"sum":…,"max":…,"p50":…,"p90":…,"p99":…}` (one line).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count,
            self.sum,
            self.max,
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

/// Counters and histograms keyed by static name. `BTreeMap` keys make every iteration (and
/// therefore every JSON rendering) deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The named counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &n)| (name, n))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&name, h)| (name, h))
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into this registry (counters add, histograms merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&name, &n) in &other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (&name, histogram) in &other.histograms {
            self.histograms.entry(name).or_default().merge(histogram);
        }
    }

    /// Renders the whole registry as one line of JSON:
    /// `{"counters":{…},"histograms":{…}}`, keys in name order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (index, (name, n)) in self.counters.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{n}");
        }
        out.push_str("},\"histograms\":{");
        for (index, (name, histogram)) in self.histograms.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&histogram.to_json());
        }
        out.push_str("}}");
        out
    }
}

/// Appends `text` as a JSON string literal (names are static identifiers, but quoting is
/// escaped anyway so the output is always well-formed JSON).
fn push_json_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// The hot-path sink
// ---------------------------------------------------------------------------

/// Flat metric storage for the record path: values live in slots, and a `&'static str` name
/// resolves to its slot by **pointer identity** after first touch — a short linear scan over
/// word-sized keys instead of a string-keyed map lookup per event. Distinct literal addresses
/// of the same name (one per instantiation site, potentially) each resolve once by string
/// equality and then share a slot, so aggregation is still by name. Converted to a
/// [`MetricsRegistry`] (deterministic `BTreeMap` order) at report time.
#[derive(Debug, Default)]
struct SlotTable<T> {
    /// `(name.as_ptr(), name.len()) → slot` — the pointer-identity cache.
    cache: Vec<(usize, usize, u32)>,
    names: Vec<&'static str>,
    values: Vec<T>,
}

impl<T: Default> SlotTable<T> {
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn slot(&mut self, name: &'static str) -> &mut T {
        let key = (name.as_ptr() as usize, name.len());
        if let Some(&(_, _, slot)) = self.cache.iter().find(|&&(ptr, len, _)| (ptr, len) == key) {
            return &mut self.values[slot as usize];
        }
        let slot = self.names.iter().position(|&known| known == name).unwrap_or_else(|| {
            self.names.push(name);
            self.values.push(T::default());
            self.names.len() - 1
        });
        self.cache.push((key.0, key.1, slot as u32));
        &mut self.values[slot]
    }
}

/// The [`Collector`]'s counters and histograms, in [`SlotTable`] form.
#[derive(Debug, Default)]
struct MetricsSink {
    counters: SlotTable<u64>,
    histograms: SlotTable<Histogram>,
}

impl MetricsSink {
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.slot(name) += n;
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.slot(name).record(value);
    }

    fn to_registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        for (&name, &n) in self.counters.names.iter().zip(&self.counters.values) {
            registry.add(name, n);
        }
        for (&name, histogram) in self.histograms.names.iter().zip(&self.histograms.values) {
            registry.histograms.entry(name).or_default().merge(histogram);
        }
        registry
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One completed span, as kept in the collector's ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The instrumentation-site name (e.g. `frontend.tick`).
    pub name: &'static str,
    /// Start timestamp, in the collector clock's units.
    pub start: u64,
    /// End timestamp (when the guard dropped).
    pub end: u64,
    /// The [`SpanRecord::seq`] of the enclosing span still open when this one ended.
    pub parent: Option<u64>,
    /// Start-order sequence number within the collector — stable across ring eviction, so
    /// parent links stay meaningful even when the parent itself aged out.
    pub seq: u64,
}

/// Default ring capacity of a [`Collector`]: the most recent spans kept per reactor. Eviction
/// is deterministic (strict start order), so a capped trace is still replayable evidence.
pub const DEFAULT_RING_CAP: usize = 4096;

// ---------------------------------------------------------------------------
// Collector and the thread-local recording surface
// ---------------------------------------------------------------------------

/// Per-thread recording state: the clock, the span ring, the open-span stack and the metrics
/// registry. Built by the reactor, installed with [`install`], harvested with [`uninstall`].
#[derive(Debug)]
pub struct Collector {
    clock: ClockHandle,
    shard: u64,
    ring_cap: usize,
    spans: VecDeque<SpanRecord>,
    stack: Vec<u64>,
    next_seq: u64,
    dropped: u64,
    metrics: MetricsSink,
}

impl Collector {
    /// A collector for reactor shard `shard` timestamping with `clock`, with the
    /// [`DEFAULT_RING_CAP`] span ring.
    pub fn new(clock: ClockHandle, shard: u64) -> Collector {
        Collector {
            clock,
            shard,
            ring_cap: DEFAULT_RING_CAP,
            spans: VecDeque::new(),
            stack: Vec::new(),
            next_seq: 0,
            dropped: 0,
            metrics: MetricsSink::default(),
        }
    }

    /// Overrides the span-ring capacity (clamped to at least one).
    pub fn with_ring_cap(mut self, cap: usize) -> Collector {
        self.ring_cap = cap.max(1);
        self
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn begin_span(&mut self) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stack.push(seq);
        (seq, self.clock.now())
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn end_span(&mut self, name: &'static str, seq: u64, start: u64) {
        // Guards drop in LIFO order on every sane path; tolerate the insane ones by removing
        // the seq wherever it sits so the stack never wedges.
        match self.stack.last() {
            Some(&top) if top == seq => {
                self.stack.pop();
            }
            _ => self.stack.retain(|&open| open != seq),
        }
        let parent = self.stack.last().copied();
        let end = self.clock.now();
        if self.spans.len() >= self.ring_cap {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(SpanRecord { name, start, end, parent, seq });
    }

    /// The collector clock's current time (the clock units of every span and latency here).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Adds `n` to the named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.metrics.observe(name, value);
    }

    /// The report of everything recorded so far (the ring in start order, the registry as-is).
    pub fn report(&self) -> Report {
        Report {
            shard: self.shard,
            spans: self.spans.iter().cloned().collect(),
            dropped_spans: self.dropped,
            metrics: self.metrics.to_registry(),
        }
    }
}

/// Everything one collector captured: the per-shard half of a deployment-wide trace or
/// metrics view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The reactor shard the collector recorded (0 for a standalone server).
    pub shard: u64,
    /// Completed spans in start order — the most recent [`DEFAULT_RING_CAP`] (or the
    /// configured cap); older spans aged out deterministically.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the ring.
    pub dropped_spans: u64,
    /// The counters and histograms.
    pub metrics: MetricsRegistry,
}

#[cfg(feature = "enabled")]
thread_local! {
    static COLLECTOR: std::cell::RefCell<Option<Collector>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs `collector` as this thread's recording sink, replacing any previous one. Reactors
/// call this at the top of their event loop.
pub fn install(collector: Collector) {
    #[cfg(feature = "enabled")]
    COLLECTOR.with(|slot| *slot.borrow_mut() = Some(collector));
    #[cfg(not(feature = "enabled"))]
    let _ = collector;
}

/// Removes this thread's collector and returns its finished [`Report`]. `None` when nothing
/// was installed (or recording is compiled out).
pub fn uninstall() -> Option<Report> {
    #[cfg(feature = "enabled")]
    {
        COLLECTOR.with(|slot| slot.borrow_mut().take()).map(|collector| collector.report())
    }
    #[cfg(not(feature = "enabled"))]
    None
}

/// A point-in-time copy of this thread's recording state, leaving the collector installed —
/// how a live `metrics`/`trace` wire request answers mid-serve.
pub fn snapshot() -> Option<Report> {
    #[cfg(feature = "enabled")]
    {
        COLLECTOR.with(|slot| slot.borrow().as_ref().map(Collector::report))
    }
    #[cfg(not(feature = "enabled"))]
    None
}

/// Whether this thread currently records (a collector is installed and recording is compiled
/// in). Call sites use this to skip clock reads feeding [`observe`] when nothing listens.
pub fn active() -> bool {
    #[cfg(feature = "enabled")]
    {
        COLLECTOR.with(|slot| slot.borrow().is_some())
    }
    #[cfg(not(feature = "enabled"))]
    false
}

/// Starts a span; the returned guard records `(name, start, end, parent)` into the thread's
/// collector when dropped. Without a collector (or with recording compiled out) the guard is
/// inert and free.
#[must_use = "a span is recorded when its guard drops; binding it to `_` drops immediately"]
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        let begun = COLLECTOR.with(|slot| slot.borrow_mut().as_mut().map(Collector::begin_span));
        SpanGuard { live: begun.map(|(seq, start)| (name, seq, start)) }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        SpanGuard { _inert: () }
    }
}

/// The drop guard of [`span()`](fn@span).
#[derive(Debug)]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    live: Option<(&'static str, u64, u64)>,
    #[cfg(not(feature = "enabled"))]
    _inert: (),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some((name, seq, start)) = self.live.take() {
            COLLECTOR.with(|slot| {
                if let Some(collector) = slot.borrow_mut().as_mut() {
                    collector.end_span(name, seq, start);
                }
            });
        }
    }
}

/// Opens a span for the rest of the enclosing scope: `span!("frontend.tick");` is
/// `let _guard = anosy_telemetry::span("frontend.tick");` without naming the guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _anosy_telemetry_span = $crate::span($name);
    };
}

/// Runs `f` against this thread's installed collector; `None` (without running `f`) when no
/// collector is installed or recording is compiled out. The batch form of [`count`] and
/// [`observe`]: a call site recording several metrics around one event pays the thread-local
/// round-trip once instead of per metric.
pub fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    #[cfg(feature = "enabled")]
    {
        COLLECTOR.with(|slot| slot.borrow_mut().as_mut().map(f))
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = f;
        None
    }
}

/// Adds `n` to the thread collector's named counter (no-op without a collector).
pub fn count(name: &'static str, n: u64) {
    with_collector(|collector| collector.count(name, n));
}

/// Records `value` into the thread collector's named histogram (no-op without a collector).
pub fn observe(name: &'static str, value: u64) {
    with_collector(|collector| collector.observe(name, value));
}

// ---------------------------------------------------------------------------
// Rendering and merging
// ---------------------------------------------------------------------------

/// Merges per-shard registries in shard order into one deployment-wide registry — the
/// metrics-side analogue of the reactor pool's `fold_stats`.
pub fn merge_metrics<'a>(reports: impl IntoIterator<Item = &'a Report>) -> MetricsRegistry {
    let mut merged = MetricsRegistry::new();
    for report in reports {
        merged.merge(&report.metrics);
    }
    merged
}

/// Renders per-shard reports as one line of chrome://tracing-compatible JSON (the "complete
/// event" array form: load the file at `chrome://tracing` or <https://ui.perfetto.dev>). Each
/// span is an `"X"` event with `ts`/`dur` in the recording clock's units, `tid` = reactor
/// shard, and `args.seq`/`args.parent` carrying the parent/child links. Shards render in the
/// given (shard) order, so the output is deterministic whenever the reports are.
pub fn trace_json(reports: &[Report]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for report in reports {
        for span in &report.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            push_json_str(&mut out, span.name);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"seq\":{}",
                span.start,
                span.end.saturating_sub(span.start),
                report.shard,
                span.seq,
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            out.push_str("}}");
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_quantiles_and_merge() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max(), 1000);
        // Ranks: p50 is the 3rd observation (value 2, bucket upper 3); p99 the 5th.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.99), 1000);
        // The max clamps the top bucket's upper bound (1023) to the exact observation.
        assert_eq!(h.quantile(1.0), 1000);

        let mut other = Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);

        // Merge in either order produces the same histogram.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5, 9] {
            a.record(v);
        }
        for v in [70, 0] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn bucket_edges_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn registry_json_is_deterministic_and_escaped() {
        let mut registry = MetricsRegistry::new();
        registry.add("b.two", 2);
        registry.add("a.one", 1);
        registry.observe("lat", 7);
        let json = registry.to_json();
        // BTreeMap order: a.one before b.two, regardless of insertion order.
        assert!(json.starts_with("{\"counters\":{\"a.one\":1,\"b.two\":2},"), "{json}");
        assert!(json.contains("\"lat\":{\"count\":1,\"sum\":7,\"max\":7"), "{json}");
        assert!(!json.contains('\n'));

        let mut escaped = String::new();
        push_json_str(&mut escaped, "a\"b\\c\nd");
        assert_eq!(escaped, "\"a\\\"b\\\\c\\nd\"");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_nest_metrics_count_and_reports_harvest() {
        install(Collector::new(ClockHandle::monotonic(), 3).with_ring_cap(2));
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                count("seen", 2);
            }
            observe("depth", 1);
        }
        {
            let _tail = span("tail");
        }
        assert!(active());
        let mid = snapshot().expect("collector installed");
        assert_eq!(mid.shard, 3);
        let report = uninstall().expect("collector installed");
        assert!(!active());
        assert_eq!(uninstall(), None, "already uninstalled");
        // Ring cap 2: "inner" (seq 1) and "outer" (seq 0) completed first, then "tail"
        // evicted the oldest completed record ("inner").
        assert_eq!(report.dropped_spans, 1);
        let names: Vec<&str> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["outer", "tail"]);
        assert_eq!(report.spans[1].parent, None);
        assert_eq!(report.metrics.counter("seen"), 2);
        assert_eq!(report.metrics.histogram("depth").unwrap().count(), 1);
        assert_eq!(mid.metrics, report.metrics);

        // The evicted "inner" span carried parent seq 0 while it was in the ring; what
        // remains still renders as valid chrome JSON.
        let json = trace_json(std::slice::from_ref(&report));
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"outer\"") && json.contains("\"tid\":3"), "{json}");
        assert!(!json.contains('\n'));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn virtual_clocks_make_spans_deterministic() {
        let clock = VirtualClock::new();
        install(Collector::new(ClockHandle::Virtual(clock.clone()), 0));
        clock.set(10);
        {
            let _a = span("a");
            clock.set(14);
        }
        clock.advance(1);
        {
            let _b = span("b");
        }
        let report = uninstall().unwrap();
        assert_eq!((report.spans[0].start, report.spans[0].end), (10, 14));
        assert_eq!((report.spans[1].start, report.spans[1].end), (15, 15));
        let json = trace_json(std::slice::from_ref(&report));
        assert!(json.contains("\"ts\":10,\"dur\":4"), "{json}");
    }

    #[test]
    fn sink_slots_deduplicate_by_name_across_addresses() {
        // Two copies of the same name at different addresses (as two instantiation sites of
        // one literal may be): both resolve to one slot, aggregation stays by name.
        let mut sink = MetricsSink::default();
        let a: &'static str = Box::leak(String::from("wire.requests").into_boxed_str());
        let b: &'static str = Box::leak(String::from("wire.requests").into_boxed_str());
        assert_ne!(a.as_ptr(), b.as_ptr());
        sink.add(a, 1);
        sink.add(b, 2);
        sink.observe(a, 5);
        sink.observe(b, 9);
        assert_eq!(sink.counters.names.len(), 1);
        assert_eq!(sink.counters.cache.len(), 2);
        let registry = sink.to_registry();
        assert_eq!(registry.counter("wire.requests"), 3);
        let histogram = registry.histogram("wire.requests").expect("observed");
        assert_eq!((histogram.count(), histogram.max()), (2, 9));
    }

    #[test]
    fn merge_metrics_folds_shard_reports() {
        let mut a = MetricsRegistry::new();
        a.add("requests", 3);
        a.observe("lat", 4);
        let mut b = MetricsRegistry::new();
        b.add("requests", 5);
        b.observe("lat", 100);
        let reports = [
            Report { shard: 0, spans: Vec::new(), dropped_spans: 0, metrics: a },
            Report { shard: 1, spans: Vec::new(), dropped_spans: 0, metrics: b },
        ];
        let merged = merge_metrics(&reports);
        assert_eq!(merged.counter("requests"), 8);
        let lat = merged.histogram("lat").unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.max(), 100);
    }

    #[test]
    fn without_a_collector_everything_is_inert() {
        // No install on this thread: guards and counters all no-op.
        assert!(!active());
        let _guard = span("nobody.listens");
        count("nobody", 1);
        observe("nobody", 1);
        assert_eq!(snapshot(), None);
    }
}
