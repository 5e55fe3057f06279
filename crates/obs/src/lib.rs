//! Unified tracing, metrics and profiling for the synthesis stack.
//!
//! Everything here is process-global and behind one runtime switch:
//!
//! * **Spans** — hierarchical enter/exit timing ([`span`]) aggregated by
//!   name-path into a tree; nesting gives the invariant that a node's
//!   children never sum to more than the node itself.
//! * **Metrics** — named atomic counters, gauges and log₂-bucketed
//!   histograms in a global registry ([`counter_add`], [`gauge_set`],
//!   [`histogram_record`]).
//! * **Renderers** — the same snapshot as a human tree profile
//!   ([`render_tree`]), a JSON object in the `--json` vocabulary
//!   ([`render_json`]) and Prometheus-style text exposition
//!   ([`render_prometheus`]).
//! * **Progress heartbeats** — an independently-armed periodic stderr
//!   line ([`arm_progress`] / [`progress_tick`]) driven from the
//!   explorers' existing amortized budget checkpoints.
//! * **A locked line sink** — [`log_line`] / [`log_lines`] serialize
//!   multi-threaded stderr logging so lines never shear.
//!
//! The switch is **off by default** and the off-path of every recording
//! helper is a single relaxed atomic load ([`enabled`]): instrumented
//! code pays one predictable branch at sites that already sit on
//! amortized checkpoints, and nothing else. The process-wide
//! [`record_count`] hook pins this in tests — a disabled run records
//! exactly zero observations.
//!
//! ```
//! si_obs::set_enabled(true);
//! {
//!     let _outer = si_obs::span("work");
//!     let _inner = si_obs::span("phase");
//!     si_obs::counter_add("work.items", 3);
//! }
//! let spans = si_obs::span_snapshot();
//! assert_eq!(spans[0].name, "work");
//! assert_eq!(spans[0].children[0].name, "phase");
//! si_obs::set_enabled(false);
//! si_obs::reset();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The switch

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is observation on? One relaxed atomic load — this is the entire
/// off-path cost of every instrumented site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns observation on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process-wide count of observations that actually landed (span exits,
/// counter/gauge/histogram records). A test hook in the spirit of
/// `ReachabilityGraph::build_count()`: a disabled run must leave it
/// unchanged, pinning the single-load off-path.
static RECORDS: AtomicU64 = AtomicU64::new(0);

/// Total observations recorded since process start (the `RECORDS` seal).
pub fn record_count() -> u64 {
    RECORDS.load(Ordering::Relaxed)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Metric registry

/// A log₂-bucketed histogram: bucket `k` counts values whose bit length
/// is `k`, i.e. `v == 0` lands in bucket 0 and `2^(k-1) <= v < 2^k`
/// lands in bucket `k`. 64 buckets cover the full `u64` range.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0u64; 65].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let k = (64 - v.leading_zeros()) as usize;
        self.buckets[k].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty `(bucket_ceiling, count)` pairs in ascending order,
    /// where a ceiling of `c` means "values ≤ c".
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (k, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let ceil = ((1u128 << k) - 1) as u64;
                out.push((ceil, n));
            }
        }
        out
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn counter_handle(name: &str) -> Arc<AtomicU64> {
    let mut reg = lock(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

fn gauge_handle(name: &str) -> Arc<AtomicI64> {
    let mut reg = lock(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(AtomicI64::new(0))))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

fn histogram_handle(name: &str) -> Arc<Histogram> {
    let mut reg = lock(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Adds `n` to the named counter. No-op (one relaxed load) when disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    RECORDS.fetch_add(1, Ordering::Relaxed);
    counter_handle(name).fetch_add(n, Ordering::Relaxed);
}

/// Increments the named counter by one. No-op when disabled.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Sets the named gauge. No-op (one relaxed load) when disabled.
#[inline]
pub fn gauge_set(name: &str, v: i64) {
    if !enabled() {
        return;
    }
    RECORDS.fetch_add(1, Ordering::Relaxed);
    gauge_handle(name).store(v, Ordering::Relaxed);
}

/// Raises the named gauge to `v` if `v` is larger (high-water mark).
/// No-op when disabled.
#[inline]
pub fn gauge_max(name: &str, v: i64) {
    if !enabled() {
        return;
    }
    RECORDS.fetch_add(1, Ordering::Relaxed);
    gauge_handle(name).fetch_max(v, Ordering::Relaxed);
}

/// Records a value into the named log₂ histogram. No-op when disabled.
#[inline]
pub fn histogram_record(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    RECORDS.fetch_add(1, Ordering::Relaxed);
    histogram_handle(name).record(v);
}

/// Reads the named counter's current value, if it exists.
pub fn counter_value(name: &str) -> Option<u64> {
    match lock(registry()).get(name) {
        Some(Metric::Counter(c)) => Some(c.load(Ordering::Relaxed)),
        _ => None,
    }
}

/// Reads the named gauge's current value, if it exists.
pub fn gauge_value(name: &str) -> Option<i64> {
    match lock(registry()).get(name) {
        Some(Metric::Gauge(g)) => Some(g.load(Ordering::Relaxed)),
        _ => None,
    }
}

/// Stores a gauge value bypassing the enabled switch. For snapshot-time
/// synchronization only (e.g. `si-serve` mirroring its queue/store
/// counters into the registry when a `metrics` snapshot is requested) —
/// never call this from instrumented hot paths.
pub fn gauge_sync(name: &str, v: i64) {
    gauge_handle(name).store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Spans

thread_local! {
    static SPAN_PATH: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Default)]
struct SpanNode {
    calls: u64,
    total_ns: u64,
    children: BTreeMap<&'static str, SpanNode>,
}

fn span_root() -> &'static Mutex<SpanNode> {
    static SPANS: OnceLock<Mutex<SpanNode>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(SpanNode::default()))
}

/// RAII guard of one span entry; records elapsed time on drop. Inert
/// (and free beyond the construction-time check) when tracing is off.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Enters a named span on this thread. Spans nest: a span opened while
/// another is alive on the same thread becomes its child in the
/// aggregated profile tree. When tracing is disabled this is one
/// relaxed load and the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    SPAN_PATH.with(|p| p.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let path: Vec<&'static str> = SPAN_PATH.with(|p| {
            let mut stack = p.borrow_mut();
            let path = stack.clone();
            stack.pop();
            path
        });
        if path.is_empty() {
            return; // reset() raced the guard; nothing to attribute.
        }
        RECORDS.fetch_add(1, Ordering::Relaxed);
        let mut node = lock(span_root());
        let mut cur = &mut *node;
        for name in path {
            cur = cur.children.entry(name).or_default();
        }
        cur.calls += 1;
        cur.total_ns += elapsed_ns;
    }
}

/// One node of the aggregated span tree, as returned by
/// [`span_snapshot`].
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Span name (the string passed to [`span`]).
    pub name: String,
    /// Number of enter/exit pairs aggregated into this node.
    pub calls: u64,
    /// Total nanoseconds across all calls.
    pub total_ns: u64,
    /// Child spans (those opened while this one was alive).
    pub children: Vec<SpanSnapshot>,
}

fn snapshot_node(name: &str, node: &SpanNode) -> SpanSnapshot {
    SpanSnapshot {
        name: name.to_string(),
        calls: node.calls,
        total_ns: node.total_ns,
        children: node
            .children
            .iter()
            .map(|(n, c)| snapshot_node(n, c))
            .collect(),
    }
}

/// The aggregated span forest (top-level spans and their subtrees).
pub fn span_snapshot() -> Vec<SpanSnapshot> {
    let root = lock(span_root());
    root.children
        .iter()
        .map(|(n, c)| snapshot_node(n, c))
        .collect()
}

// ---------------------------------------------------------------------------
// Progress heartbeats

static PROGRESS_NS: AtomicU64 = AtomicU64::new(0);
static PROGRESS_LAST: AtomicU64 = AtomicU64::new(0);

fn progress_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Arms periodic progress heartbeats at the given interval. Heartbeats
/// are independent of the profiling switch: [`progress_tick`] emits a
/// line through the locked sink whenever at least `interval` has passed
/// since the previous heartbeat.
pub fn arm_progress(interval: Duration) {
    progress_epoch();
    PROGRESS_NS.store(interval.as_nanos().max(1) as u64, Ordering::Relaxed);
}

/// Are progress heartbeats armed? One relaxed load — explorers read
/// this once per run to fold the tick into their existing checkpoints.
#[inline(always)]
pub fn progress_armed() -> bool {
    PROGRESS_NS.load(Ordering::Relaxed) != 0
}

/// Reports exploration progress; called from the explorers' amortized
/// checkpoints. Emits a heartbeat line (states explored, frontier size,
/// elapsed) if the armed interval has elapsed, else returns quickly.
pub fn progress_tick(states: usize, frontier: usize) {
    let every = PROGRESS_NS.load(Ordering::Relaxed);
    if every == 0 {
        return;
    }
    let now = progress_epoch().elapsed().as_nanos() as u64;
    let last = PROGRESS_LAST.load(Ordering::Relaxed);
    if now.saturating_sub(last) < every {
        return;
    }
    // One thread wins the tick; losers skip rather than double-report.
    if PROGRESS_LAST
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        log_line(&format!(
            "[progress] states={states} frontier={frontier} elapsed={:.1}s",
            now as f64 / 1e9
        ));
    }
}

// ---------------------------------------------------------------------------
// Locked stderr sink

fn sink() -> &'static Mutex<()> {
    static SINK: OnceLock<Mutex<()>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(()))
}

/// Writes one line to stderr under the process-wide sink lock, so lines
/// emitted from concurrent threads never shear.
pub fn log_line(line: &str) {
    let _guard = lock(sink());
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// Writes a multi-line block to stderr atomically (single sink lock, a
/// trailing newline is added if missing).
pub fn log_lines(text: &str) {
    let _guard = lock(sink());
    let mut err = std::io::stderr().lock();
    if text.ends_with('\n') {
        let _ = write!(err, "{text}");
    } else {
        let _ = writeln!(err, "{text}");
    }
}

// ---------------------------------------------------------------------------
// Renderers

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn render_tree_node(out: &mut String, name: &str, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{name}");
    let _ = writeln!(
        out,
        "{label:<40} {:>12}ms  x{}",
        fmt_ms(node.total_ns),
        node.calls
    );
    for (child_name, child) in &node.children {
        render_tree_node(out, child_name, child, depth + 1);
    }
}

/// Renders the profile as a human-readable tree (spans, then counters,
/// gauges and histograms), suitable for stderr.
pub fn render_tree() -> String {
    let mut out = String::from("── profile ──────────────────────────────\n");
    {
        let root = lock(span_root());
        if root.children.is_empty() {
            out.push_str("(no spans recorded)\n");
        }
        for (name, node) in &root.children {
            render_tree_node(&mut out, name, node, 0);
        }
    }
    let reg = lock(registry());
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => counters.push((name, c.load(Ordering::Relaxed))),
            Metric::Gauge(g) => gauges.push((name, g.load(Ordering::Relaxed))),
            Metric::Histogram(h) => histograms.push((name, h)),
        }
    }
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in counters {
            let _ = writeln!(out, "  {name:<38} {v:>14}");
        }
    }
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in gauges {
            let _ = writeln!(out, "  {name:<38} {v:>14}");
        }
    }
    if !histograms.is_empty() {
        out.push_str("histograms (log2 buckets as ≤ceiling:count):\n");
        for (name, h) in histograms {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(ceil, n)| format!("≤{ceil}:{n}"))
                .collect();
            let _ = writeln!(
                out,
                "  {name:<38} n={} sum={} [{}]",
                h.count(),
                h.sum(),
                buckets.join(" ")
            );
        }
    }
    out.push_str("─────────────────────────────────────────");
    out
}

/// A JSON string literal, quotes included: escapes quotes, backslashes
/// and control characters. The workspace's one JSON string escaper (the
/// serving layer re-exports it as `si_serve::json::escape`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_json_span(out: &mut String, name: &str, node: &SpanNode) {
    let _ = write!(
        out,
        "{{\"name\": {}, \"calls\": {}, \"total_ms\": {}, \"children\": [",
        json_escape(name),
        node.calls,
        fmt_ms(node.total_ns)
    );
    for (i, (child_name, child)) in node.children.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render_json_span(out, child_name, child);
    }
    out.push_str("]}");
}

/// Renders the profile snapshot as one JSON object in the CLI's
/// `--json` vocabulary: `{"spans": [...], "counters": {...},
/// "gauges": {...}, "histograms": {...}}`.
pub fn render_json() -> String {
    let mut out = String::from("{\"spans\": [");
    {
        let root = lock(span_root());
        for (i, (name, node)) in root.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_json_span(&mut out, name, node);
        }
    }
    let reg = lock(registry());
    out.push_str("], \"counters\": {");
    let mut first = true;
    for (name, metric) in reg.iter() {
        if let Metric::Counter(c) = metric {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "{}: {}", json_escape(name), c.load(Ordering::Relaxed));
        }
    }
    out.push_str("}, \"gauges\": {");
    let mut first = true;
    for (name, metric) in reg.iter() {
        if let Metric::Gauge(g) = metric {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "{}: {}", json_escape(name), g.load(Ordering::Relaxed));
        }
    }
    out.push_str("}, \"histograms\": {");
    let mut first = true;
    for (name, metric) in reg.iter() {
        if let Metric::Histogram(h) = metric {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(ceil, n)| format!("[{ceil}, {n}]"))
                .collect();
            let _ = write!(
                out,
                "{}: {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                json_escape(name),
                h.count(),
                h.sum(),
                buckets.join(", ")
            );
        }
    }
    out.push_str("}}");
    out
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn flatten_span_ms(out: &mut Vec<(String, u64, u64)>, prefix: &str, name: &str, node: &SpanNode) {
    let path = if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    };
    out.push((path.clone(), node.calls, node.total_ns));
    for (child_name, child) in &node.children {
        flatten_span_ms(out, &path, child_name, child);
    }
}

/// Renders the snapshot as Prometheus-style text exposition
/// (`# TYPE` lines, `_total` counters, `le`-labelled histogram
/// buckets; span times as `span_seconds_total` keyed by dotted path).
pub fn render_prometheus() -> String {
    let mut out = String::new();
    let mut spans = Vec::new();
    {
        let root = lock(span_root());
        for (name, node) in &root.children {
            flatten_span_ms(&mut spans, "", name, node);
        }
    }
    if !spans.is_empty() {
        out.push_str("# TYPE si_span_seconds_total counter\n");
        out.push_str("# TYPE si_span_calls_total counter\n");
        for (path, calls, total_ns) in &spans {
            let _ = writeln!(
                out,
                "si_span_seconds_total{{span=\"{path}\"}} {:.9}",
                *total_ns as f64 / 1e9
            );
            let _ = writeln!(out, "si_span_calls_total{{span=\"{path}\"}} {calls}");
        }
    }
    let reg = lock(registry());
    for (name, metric) in reg.iter() {
        let pname = prom_name(name);
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE si_{pname}_total counter");
                let _ = writeln!(out, "si_{pname}_total {}", c.load(Ordering::Relaxed));
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# TYPE si_{pname} gauge");
                let _ = writeln!(out, "si_{pname} {}", g.load(Ordering::Relaxed));
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE si_{pname} histogram");
                let mut cumulative = 0u64;
                for (ceil, n) in h.nonzero_buckets() {
                    cumulative += n;
                    let _ = writeln!(out, "si_{pname}_bucket{{le=\"{ceil}\"}} {cumulative}");
                }
                let _ = writeln!(out, "si_{pname}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "si_{pname}_sum {}", h.sum());
                let _ = writeln!(out, "si_{pname}_count {}", h.count());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reset (tests and long-lived services)

/// Clears all recorded spans and metrics and disarms progress
/// heartbeats. The enabled switch and [`record_count`] are left alone.
/// Meant for tests and for snapshot-per-scrape services.
pub fn reset() {
    lock(span_root()).children.clear();
    lock(registry()).clear();
    PROGRESS_NS.store(0, Ordering::Relaxed);
    PROGRESS_LAST.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global switch serializes tests that flip it.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        lock(GATE.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        set_enabled(false);
        reset();
        let before = record_count();
        {
            let _s = span("never");
            counter_add("never.counter", 7);
            gauge_set("never.gauge", 7);
            histogram_record("never.histogram", 7);
        }
        assert_eq!(record_count(), before);
        assert!(span_snapshot().is_empty());
        assert_eq!(counter_value("never.counter"), None);
    }

    #[test]
    fn spans_nest_and_children_bound_parent() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
            {
                let _inner = span("inner");
            }
        }
        let snap = span_snapshot();
        set_enabled(false);
        assert_eq!(snap.len(), 1);
        let outer = &snap[0];
        assert_eq!((outer.name.as_str(), outer.calls), ("outer", 1));
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!((inner.name.as_str(), inner.calls), ("inner", 2));
        assert!(inner.total_ns <= outer.total_ns);
    }

    #[test]
    fn metrics_register_and_render() {
        let _g = serial();
        set_enabled(true);
        reset();
        counter_add("test.counter", 41);
        counter_inc("test.counter");
        gauge_set("test.gauge", -3);
        gauge_max("test.gauge", 9);
        gauge_max("test.gauge", 5);
        histogram_record("test.hist", 0);
        histogram_record("test.hist", 1);
        histogram_record("test.hist", 5);
        histogram_record("test.hist", 5000);
        set_enabled(false);

        assert_eq!(counter_value("test.counter"), Some(42));
        assert_eq!(gauge_value("test.gauge"), Some(9));

        let tree = render_tree();
        assert!(tree.contains("test.counter"), "{tree}");
        assert!(tree.contains("42"), "{tree}");

        let json = render_json();
        assert!(json.contains("\"test.counter\": 42"), "{json}");
        assert!(json.contains("\"test.gauge\": 9"), "{json}");
        assert!(
            json.contains("\"test.hist\": {\"count\": 4, \"sum\": 5006"),
            "{json}"
        );

        let prom = render_prometheus();
        assert!(prom.contains("si_test_counter_total 42"), "{prom}");
        assert!(prom.contains("si_test_gauge 9"), "{prom}");
        assert!(
            prom.contains("si_test_hist_bucket{le=\"+Inf\"} 4"),
            "{prom}"
        );
        assert!(prom.contains("si_test_hist_sum 5006"), "{prom}");
        reset();
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(u64::MAX);
        // 0 → ≤0; 1 → ≤1; 2,3 → ≤3; 4 → ≤7; MAX → ≤MAX.
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (u64::MAX, 1)]
        );
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn threaded_spans_do_not_shear() {
        let _g = serial();
        set_enabled(true);
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        let _s = span("worker");
                        counter_inc("worker.iterations");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = span_snapshot();
        set_enabled(false);
        let worker = snap.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.calls, 200);
        assert_eq!(counter_value("worker.iterations"), Some(200));
        reset();
    }

    #[test]
    fn progress_tick_respects_interval() {
        let _g = serial();
        reset();
        assert!(!progress_armed());
        progress_tick(1, 1); // disarmed: no-op
        arm_progress(Duration::from_millis(1));
        assert!(progress_armed());
        std::thread::sleep(Duration::from_millis(2));
        progress_tick(10, 2);
        reset();
        assert!(!progress_armed());
    }
}
