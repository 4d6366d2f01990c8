//! Observability for the HotGauge co-simulation: timing spans with latency
//! percentiles and allocation attribution, domain counters, run manifests,
//! and progress reporting.
//!
//! # Spans and counters
//!
//! Instrumentation sites use [`span!`] and [`counter!`]:
//!
//! ```
//! # use hotgauge_telemetry::{span, counter};
//! {
//!     let _span = span!("thermal.step");
//!     // ... timed work ...
//!     counter!("thermal.cg_iterations", 42u64);
//! }
//! ```
//!
//! With the `telemetry` cargo feature enabled, each site pushes an event onto
//! a bounded channel drained by a background aggregator thread; the hot path
//! never blocks (a full channel increments a drop counter instead). The
//! aggregator keeps a fixed-size log-bucketed [`hist::LatencyHistogram`] per
//! span label, so [`snapshot`] reports p50/p90/p99 alongside the totals. A
//! counting global allocator (the `alloc_track` module) attributes heap
//! allocations to the enclosing span, thread-locally. Without the feature
//! both macros compile to no-ops: no timer reads, no thread, no allocator
//! override — simulation results are byte-identical.
//!
//! [`snapshot`] flushes the aggregator and returns per-label statistics
//! (calls, total, min, max, percentiles, allocation counts, and derived
//! average / share-of-total). If any events were dropped under backpressure
//! the snapshot says so **loudly**: a warning is printed to stderr and the
//! count lands in the `telemetry.dropped` manifest field.
//!
//! # Run manifests
//!
//! [`manifest::RunManifest`] is the schema-versioned JSON document the CLI
//! and experiment binaries emit under `--json <path>`; it is written
//! atomically (temp file + rename) by [`manifest::write_json_atomic`].
//! Field order is deterministic: struct fields serialize in declaration
//! order and config maps are sorted by key. Schema v2 adds per-stage
//! percentiles and allocation counts; v1 documents still deserialize (the
//! added fields default to `None`).
//!
//! # Progress
//!
//! [`progress::ProgressPrinter`] is a throttled stderr reporter used by the
//! long-running sweep binaries for liveness.

// The counting allocator (telemetry feature only) needs `unsafe impl
// GlobalAlloc`; everything else stays forbidden, and the default build
// carries no unsafe at all.
#![cfg_attr(not(feature = "telemetry"), forbid(unsafe_code))]
#![cfg_attr(feature = "telemetry", deny(unsafe_code))]
#![warn(missing_debug_implementations)]

#[cfg(feature = "telemetry")]
pub mod alloc_track;
pub mod hist;
pub mod manifest;
pub mod progress;

use std::collections::BTreeMap;

/// Aggregated timing statistics for one span label.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// The `span!` label.
    pub label: String,
    /// How many spans closed under this label.
    pub calls: u64,
    /// Summed wall time in nanoseconds.
    pub total_ns: u64,
    /// Shortest single span in nanoseconds.
    pub min_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
    /// Median single-span latency (log-bucketed, ~3% quantization).
    pub p50_ns: u64,
    /// 90th-percentile single-span latency.
    pub p90_ns: u64,
    /// 99th-percentile single-span latency.
    pub p99_ns: u64,
    /// Heap allocations performed on the recording thread while the span
    /// was open (0 without the counting allocator).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl SpanStats {
    /// Mean nanoseconds per call.
    pub fn avg_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Aggregated statistics for one counter label.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStats {
    /// The `counter!` label.
    pub label: String,
    /// How many values were recorded.
    pub calls: u64,
    /// Sum of recorded values.
    pub total: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
}

impl CounterStats {
    /// Mean recorded value.
    pub fn avg(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total / self.calls as f64
        }
    }
}

/// A consistent view of everything recorded so far (labels sorted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Per-label span timings.
    pub spans: Vec<SpanStats>,
    /// Per-label counter statistics.
    pub counters: Vec<CounterStats>,
    /// Events discarded because the channel was full.
    pub dropped_events: u64,
}

impl Snapshot {
    /// Sum of all span time, the denominator for [`Snapshot::span_share`].
    pub fn total_span_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.total_ns).sum()
    }

    /// Fraction of all recorded span time spent under `label` (0 when
    /// nothing has been recorded).
    pub fn span_share(&self, label: &str) -> f64 {
        let denom = self.total_span_ns();
        if denom == 0 {
            return 0.0;
        }
        self.spans
            .iter()
            .find(|s| s.label == label)
            .map_or(0.0, |s| s.total_ns as f64 / denom as f64)
    }

    /// The counter stats recorded under `label`, if any.
    pub fn counter(&self, label: &str) -> Option<&CounterStats> {
        self.counters.iter().find(|c| c.label == label)
    }

    /// The span stats recorded under `label`, if any.
    pub fn span(&self, label: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.label == label)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }
}

#[cfg(feature = "telemetry")]
mod recorder {
    use super::hist::LatencyHistogram;
    use super::{CounterStats, Snapshot, SpanStats};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
    use std::sync::OnceLock;
    use std::time::Duration;

    /// Default bounded queue depth between instrumentation sites and the
    /// aggregator. Overridable through `HOTGAUGE_TELEMETRY_CHANNEL_DEPTH`
    /// (the backpressure tests shrink it to saturate deterministically).
    const CHANNEL_DEPTH: usize = 65_536;

    pub(crate) enum Event {
        Span {
            label: &'static str,
            nanos: u64,
            allocs: u64,
            alloc_bytes: u64,
        },
        Counter {
            label: &'static str,
            value: f64,
        },
        /// Drain request: reply with the aggregate built so far.
        Flush(SyncSender<Snapshot>),
        /// Clear all aggregates (used between measurement phases).
        Reset,
        /// Test hook: park the aggregator so the channel can fill.
        Stall(Duration),
    }

    pub(crate) struct Recorder {
        tx: SyncSender<Event>,
        dropped: AtomicU64,
    }

    static RECORDER: OnceLock<Recorder> = OnceLock::new();

    pub(crate) fn global() -> &'static Recorder {
        RECORDER.get_or_init(|| {
            let depth = std::env::var("HOTGAUGE_TELEMETRY_CHANNEL_DEPTH")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(CHANNEL_DEPTH);
            let (tx, rx) = sync_channel(depth);
            #[expect(clippy::expect_used, reason = "spawn failure at process start means the OS is out of threads; there is no meaningful degraded mode for the aggregator")]
            std::thread::Builder::new()
                .name("hotgauge-telemetry".into())
                .spawn(move || aggregate(rx))
                .expect("failed to spawn telemetry aggregator thread");
            Recorder {
                tx,
                dropped: AtomicU64::new(0),
            }
        })
    }

    impl Recorder {
        /// Never blocks: a full channel drops the event and counts the drop.
        pub(crate) fn send(&self, event: Event) {
            if self.tx.try_send(event).is_err() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }

        pub(crate) fn snapshot(&self) -> Snapshot {
            let (reply_tx, reply_rx) = sync_channel(1);
            // Flush must not be droppable or the reply would never come;
            // block here (off the hot path) until there is room.
            if self.tx.send(Event::Flush(reply_tx)).is_err() {
                return Snapshot::default();
            }
            let mut snap = reply_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_default();
            snap.dropped_events = self.dropped.load(Ordering::Relaxed);
            if snap.dropped_events > 0 {
                eprintln!(
                    "warning: telemetry dropped {} event(s) under backpressure; \
                     span statistics are undercounted (raise \
                     HOTGAUGE_TELEMETRY_CHANNEL_DEPTH or instrument less)",
                    snap.dropped_events
                );
            }
            snap
        }

        pub(crate) fn reset(&self) {
            self.send(Event::Reset);
            self.dropped.store(0, Ordering::Relaxed);
        }

        /// Test hook behind [`crate::stall_aggregator_for_tests`].
        pub(crate) fn stall(&self, d: Duration) {
            // Blocking send: the stall must reach the aggregator.
            let _ = self.tx.send(Event::Stall(d));
        }
    }

    #[derive(Default)]
    struct SpanAgg {
        calls: u64,
        total_ns: u64,
        allocs: u64,
        alloc_bytes: u64,
        hist: LatencyHistogram,
    }

    impl SpanAgg {
        fn record(&mut self, nanos: u64, allocs: u64, alloc_bytes: u64) {
            self.calls += 1;
            self.total_ns += nanos;
            self.allocs += allocs;
            self.alloc_bytes += alloc_bytes;
            self.hist.record(nanos);
        }
    }

    #[derive(Default)]
    struct CounterAgg {
        calls: u64,
        total: f64,
        min: f64,
        max: f64,
    }

    impl CounterAgg {
        fn record(&mut self, v: f64) {
            if self.calls == 0 {
                self.min = v;
                self.max = v;
            } else {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            self.calls += 1;
            self.total += v;
        }
    }

    fn aggregate(rx: Receiver<Event>) {
        let mut spans: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
        let mut counters: BTreeMap<&'static str, CounterAgg> = BTreeMap::new();
        while let Ok(event) = rx.recv() {
            match event {
                Event::Span {
                    label,
                    nanos,
                    allocs,
                    alloc_bytes,
                } => spans
                    .entry(label)
                    .or_default()
                    .record(nanos, allocs, alloc_bytes),
                Event::Counter { label, value } => counters.entry(label).or_default().record(value),
                Event::Flush(reply) => {
                    let snap = Snapshot {
                        spans: spans
                            .iter()
                            .map(|(label, a)| SpanStats {
                                label: (*label).to_string(),
                                calls: a.calls,
                                total_ns: a.total_ns,
                                min_ns: a.hist.min(),
                                max_ns: a.hist.max(),
                                p50_ns: a.hist.quantile(0.50),
                                p90_ns: a.hist.quantile(0.90),
                                p99_ns: a.hist.quantile(0.99),
                                allocs: a.allocs,
                                alloc_bytes: a.alloc_bytes,
                            })
                            .collect(),
                        counters: counters
                            .iter()
                            .map(|(label, a)| CounterStats {
                                label: (*label).to_string(),
                                calls: a.calls,
                                total: a.total,
                                min: a.min,
                                max: a.max,
                            })
                            .collect(),
                        dropped_events: 0,
                    };
                    let _ = reply.send(snap);
                }
                Event::Reset => {
                    spans.clear();
                    counters.clear();
                }
                Event::Stall(d) => std::thread::sleep(d),
            }
        }
    }
}

/// RAII timer recording a span on drop. Construct through [`span!`].
#[cfg(feature = "telemetry")]
#[must_use = "a span measures the time until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    label: &'static str,
    start: std::time::Instant,
    allocs_at_enter: u64,
    bytes_at_enter: u64,
}

#[cfg(feature = "telemetry")]
impl SpanGuard {
    /// Starts a monotonic timer for `label` and notes the recording
    /// thread's allocation counters.
    #[inline]
    pub fn enter(label: &'static str) -> Self {
        let (allocs_at_enter, bytes_at_enter) = alloc_track::thread_alloc_counts();
        Self {
            label,
            start: std::time::Instant::now(),
            allocs_at_enter,
            bytes_at_enter,
        }
    }
}

#[cfg(feature = "telemetry")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let (allocs_now, bytes_now) = alloc_track::thread_alloc_counts();
        recorder::global().send(recorder::Event::Span {
            label: self.label,
            nanos,
            // Saturating: another span's event send may not have hit the
            // allocator yet when this thread read its baseline.
            allocs: allocs_now.saturating_sub(self.allocs_at_enter),
            alloc_bytes: bytes_now.saturating_sub(self.bytes_at_enter),
        });
    }
}

/// No-op stand-in when the `telemetry` feature is disabled.
#[cfg(not(feature = "telemetry"))]
#[must_use = "a span measures the time until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard;

#[cfg(not(feature = "telemetry"))]
impl SpanGuard {
    /// Does nothing; compiles away entirely.
    #[inline(always)]
    pub fn enter(_label: &'static str) -> Self {
        SpanGuard
    }
}

/// Records one counter observation. Prefer the [`counter!`] macro.
#[cfg(feature = "telemetry")]
#[inline]
pub fn record_counter(label: &'static str, value: f64) {
    recorder::global().send(recorder::Event::Counter { label, value });
}

/// No-op stand-in when the `telemetry` feature is disabled.
#[cfg(not(feature = "telemetry"))]
#[inline(always)]
pub fn record_counter(_label: &'static str, _value: f64) {}

/// Flushes the aggregator and returns everything recorded so far.
///
/// If events were dropped under backpressure a warning is printed to stderr
/// (the count is also in [`Snapshot::dropped_events`] and, via
/// [`manifest::RunManifest::capture_metrics`], the `telemetry.dropped`
/// manifest field). Without the `telemetry` feature this returns an empty
/// [`Snapshot`].
#[cfg(feature = "telemetry")]
pub fn snapshot() -> Snapshot {
    recorder::global().snapshot()
}

/// Flushes the aggregator and returns everything recorded so far.
///
/// Without the `telemetry` feature this returns an empty [`Snapshot`].
#[cfg(not(feature = "telemetry"))]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// Clears all aggregated spans, counters, and the dropped-event count
/// (measurement-phase boundary).
#[cfg(feature = "telemetry")]
pub fn reset() {
    recorder::global().reset();
}

/// Clears all aggregated spans, counters, and the dropped-event count
/// (measurement-phase boundary).
#[cfg(not(feature = "telemetry"))]
pub fn reset() {}

/// Parks the aggregator thread for `d`, letting tests fill the bounded
/// channel deterministically. Test-only plumbing, not part of the API.
#[cfg(feature = "telemetry")]
#[doc(hidden)]
pub fn stall_aggregator_for_tests(d: std::time::Duration) {
    recorder::global().stall(d);
}

/// Times the enclosing scope under a static label.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::SpanGuard::enter($label)
    };
}

/// Records a numeric observation under a static label.
#[macro_export]
macro_rules! counter {
    ($label:expr, $value:expr) => {
        $crate::record_counter($label, ($value) as f64)
    };
}

/// Runs the enclosed statements only when the `telemetry` feature is on.
///
/// This is the facade for telemetry-only *computation* (deriving a value
/// that only feeds a [`counter!`]): call sites never spell the cfg gate
/// themselves (hotgauge-lint rule L002), so the feature name and the
/// zero-cost-when-off guarantee stay centralized here.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! if_telemetry {
    ($($body:tt)*) => {
        { $($body)* }
    };
}

/// Runs the enclosed statements only when the `telemetry` feature is on.
///
/// Without the feature the body is dropped at token level: it is never
/// type-checked, so telemetry-only bindings compile away entirely.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! if_telemetry {
    ($($body:tt)*) => {};
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.3}s", ns / 1e9)
    }
}

fn fmt_count(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b < 1e3 {
        format!("{b:.0}B")
    } else if b < 1e6 {
        format!("{:.1}KB", b / 1e3)
    } else if b < 1e9 {
        format!("{:.1}MB", b / 1e6)
    } else {
        format!("{:.2}GB", b / 1e9)
    }
}

/// Renders a [`Snapshot`] as the human-readable timing/counter table.
pub fn render_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.spans.is_empty() {
        let denom = snap.total_span_ns().max(1) as f64;
        let has_allocs = snap.spans.iter().any(|s| s.allocs > 0);
        out.push_str(&format!(
            "{:<24} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "span", "calls", "total", "avg", "p50", "p99", "max", "share"
        ));
        if has_allocs {
            out.push_str(&format!(" {:>10} {:>9}", "allocs", "heap"));
        }
        out.push('\n');
        for s in &snap.spans {
            out.push_str(&format!(
                "{:<24} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6.1}%",
                s.label,
                s.calls,
                fmt_ns(s.total_ns as f64),
                fmt_ns(s.avg_ns()),
                fmt_ns(s.p50_ns as f64),
                fmt_ns(s.p99_ns as f64),
                fmt_ns(s.max_ns as f64),
                100.0 * s.total_ns as f64 / denom,
            ));
            if has_allocs {
                out.push_str(&format!(
                    " {:>10} {:>9}",
                    s.allocs,
                    fmt_bytes(s.alloc_bytes)
                ));
            }
            out.push('\n');
        }
    }
    if !snap.counters.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "{:<24} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            "counter", "calls", "total", "avg", "min", "max"
        ));
        for c in &snap.counters {
            out.push_str(&format!(
                "{:<24} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
                c.label,
                c.calls,
                fmt_count(c.total),
                fmt_count(c.avg()),
                fmt_count(c.min),
                fmt_count(c.max),
            ));
        }
    }
    if snap.dropped_events > 0 {
        out.push_str(&format!(
            "({} events dropped: channel was full)\n",
            snap.dropped_events
        ));
    }
    out
}

/// Prints the telemetry table to stderr when dropped (typically at the end
/// of `main`). Does nothing when nothing was recorded or when quieted.
#[derive(Debug)]
pub struct TelemetryReport {
    title: String,
    quiet: bool,
}

impl TelemetryReport {
    /// A report labelled `title`, printed at drop.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            quiet: false,
        }
    }

    /// Suppresses the printed table (the snapshot stays available).
    pub fn quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }
}

impl Drop for TelemetryReport {
    fn drop(&mut self) {
        if self.quiet {
            return;
        }
        let snap = snapshot();
        if snap.is_empty() {
            return;
        }
        eprintln!("\n== telemetry: {} ==", self.title);
        eprint!("{}", render_table(&snap));
    }
}

/// Key-sorted string map used for manifest config blocks.
pub type ConfigMap = BTreeMap<String, String>;

#[cfg(test)]
mod tests {
    use super::*;

    /// A `SpanStats` with plausible percentile fields derived from min/max.
    fn span_stats(label: &str, calls: u64, total_ns: u64, min_ns: u64, max_ns: u64) -> SpanStats {
        SpanStats {
            label: label.into(),
            calls,
            total_ns,
            min_ns,
            max_ns,
            p50_ns: (min_ns + max_ns) / 2,
            p90_ns: max_ns,
            p99_ns: max_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            spans: vec![
                span_stats("stage.perf", 10, 3_000, 100, 500),
                span_stats("stage.thermal", 10, 7_000, 400, 900),
            ],
            counters: vec![CounterStats {
                label: "thermal.cg_iterations".into(),
                calls: 4,
                total: 100.0,
                min: 10.0,
                max: 40.0,
            }],
            dropped_events: 0,
        }
    }

    #[test]
    fn share_of_total_partitions_unity() {
        let snap = sample_snapshot();
        assert!((snap.span_share("stage.perf") - 0.3).abs() < 1e-12);
        assert!((snap.span_share("stage.thermal") - 0.7).abs() < 1e-12);
        let sum: f64 = snap.spans.iter().map(|s| snap.span_share(&s.label)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(snap.span_share("missing"), 0.0);
        assert_eq!(Snapshot::default().span_share("stage.perf"), 0.0);
    }

    #[test]
    fn span_share_with_zero_denominator_is_zero() {
        // Spans exist but recorded zero time: the share must not divide by 0.
        let snap = Snapshot {
            spans: vec![span_stats("stage.idle", 3, 0, 0, 0)],
            counters: vec![],
            dropped_events: 0,
        };
        assert_eq!(snap.total_span_ns(), 0);
        assert_eq!(snap.span_share("stage.idle"), 0.0);
    }

    #[test]
    fn stats_derive_avg() {
        let snap = sample_snapshot();
        let perf = snap.span("stage.perf").expect("span present");
        assert!((perf.avg_ns() - 300.0).abs() < 1e-12);
        let c = snap.counter("thermal.cg_iterations").expect("counter");
        assert!((c.avg() - 25.0).abs() < 1e-12);
        // Zero-call stats must not divide by zero.
        assert_eq!(span_stats("stage.none", 0, 0, 0, 0).avg_ns(), 0.0);
        let empty_counter = CounterStats {
            label: "none".into(),
            calls: 0,
            total: 0.0,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(empty_counter.avg(), 0.0);
    }

    #[test]
    fn span_and_counter_lookups_miss_cleanly() {
        let snap = sample_snapshot();
        assert!(snap.span("stage.nope").is_none());
        assert!(snap.counter("stage.perf").is_none(), "namespaces disjoint");
        assert!(snap.span("thermal.cg_iterations").is_none());
        assert!(!snap.is_empty());
        assert!(Snapshot::default().is_empty());
    }

    #[test]
    fn table_renders_all_labels_and_percentiles() {
        let table = render_table(&sample_snapshot());
        assert!(table.contains("stage.perf"));
        assert!(table.contains("stage.thermal"));
        assert!(table.contains("thermal.cg_iterations"));
        assert!(table.contains("p50"));
        assert!(table.contains("p99"));
        assert!(table.contains("30.0%"));
        assert!(table.contains("70.0%"));
        // No allocation columns when nothing allocated.
        assert!(!table.contains("heap"));
        assert!(render_table(&Snapshot::default()).is_empty());
    }

    #[test]
    fn table_adds_alloc_columns_when_present() {
        let mut snap = sample_snapshot();
        snap.spans[0].allocs = 12;
        snap.spans[0].alloc_bytes = 4_096;
        let table = render_table(&snap);
        assert!(table.contains("allocs"));
        assert!(table.contains("heap"));
        assert!(table.contains("4.1KB"));
    }

    // Exercises the real channel + aggregator thread path.
    #[cfg(feature = "telemetry")]
    #[test]
    fn concurrent_spans_are_all_counted() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for i in 0..PER_THREAD {
                        let _g = span!("test.concurrent");
                        counter!("test.concurrent_counter", i);
                    }
                });
            }
        });
        let snap = snapshot();
        let span = snap.span("test.concurrent").expect("span recorded");
        assert_eq!(span.calls, THREADS * PER_THREAD);
        assert!(span.min_ns <= span.p50_ns);
        assert!(span.p50_ns <= span.p90_ns);
        assert!(span.p90_ns <= span.p99_ns);
        assert!(span.p99_ns <= span.max_ns);
        assert!(span.total_ns >= span.max_ns);
        let c = snap.counter("test.concurrent_counter").expect("counter");
        assert_eq!(c.calls, THREADS * PER_THREAD);
        assert_eq!(c.min, 0.0);
        assert_eq!(c.max, (PER_THREAD - 1) as f64);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn counter_aggregates_min_max_total() {
        counter!("test.minmax", 5u64);
        counter!("test.minmax", 1u64);
        counter!("test.minmax", 9u64);
        let c = snapshot();
        let c = c.counter("test.minmax").expect("counter");
        assert_eq!(c.calls, 3);
        assert_eq!(c.total, 15.0);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.max, 9.0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn spans_attribute_allocations() {
        let bytes = 1usize << 16;
        {
            let _g = span!("test.allocating");
            // A visible allocation: 64 KiB requested inside the span.
            let v = vec![0u8; bytes];
            std::hint::black_box(&v);
        }
        let snap = snapshot();
        let s = snap.span("test.allocating").expect("span recorded");
        assert!(s.allocs >= 1, "expected at least the vec allocation");
        assert!(
            s.alloc_bytes >= bytes as u64,
            "expected >= {bytes} bytes, saw {}",
            s.alloc_bytes
        );
    }

    // With the feature disabled the macros must still compile and record
    // nothing; this is the no-op path used by default builds.
    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_feature_is_a_noop() {
        {
            let _g = span!("test.noop");
            counter!("test.noop_counter", 123u64);
        }
        let snap = snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.dropped_events, 0);
        reset(); // also a no-op
    }
}
