//! Manifest-diff performance gate.
//!
//! Compares two [`RunManifest`]s — a *baseline* and a *candidate*, typically
//! produced by the `perf_rounds` harness on two builds — metric by metric,
//! and decides whether the candidate regressed. The comparison is
//! deliberately dumb and reproducible: no statistics beyond a per-metric
//! relative tolerance, with floors that skip metrics too small to measure
//! above scheduler noise.
//!
//! Gated metrics (lower is better):
//!
//! * stage timings — `<label>.total_s`, `.p50_s`, `.p90_s`, `.p99_s` from
//!   each [`hotgauge_telemetry::manifest::StageMetrics`] entry (v2 manifests; percentile fields absent in
//!   v1 documents are simply not compared);
//! * stage allocations — `<label>.allocs`, `<label>.alloc_bytes`;
//! * harness wall metrics — any numeric `gate_*` leaf directly under the
//!   manifest's `results` object, reported as `results.<key>`.
//!
//! Domain counters (`counter.<label>.total`) are compared too but are
//! *informational* by default — a change in CG iterations is a fidelity
//! question, not a performance regression — unless
//! [`GateConfig::gate_counters`] is set, or the counter's label matches one
//! of the [`GateConfig::gate_counter_prefixes`] (repeatable
//! `--gate-counter PREFIX`). The prefix form lets CI gate the counters that
//! *are* performance promises — e.g. `solver.` pins the batch shape (how
//! many runs share one construction) and `analysis.simd_rows` the
//! vectorized-row coverage — while CG iteration counts stay informational.
//!
//! Span tail latency can be made a hard promise with
//! `--gate-span-p99 SPAN=PCT` (repeatable): the span's `p99_s` is gated at
//! the given tolerance and the gate fails outright if the span is missing
//! from either manifest. Percentile metrics are histogram-derived, so
//! their noise threshold is the baseline's log-bucket width (a constant
//! relative fraction of the baseline value), not a fixed epsilon — see
//! [`compare`].
//!
//! The library is pure (no process exit, no printing); [`run_cli`] layers
//! argument parsing, file IO, and table rendering on top and returns the
//! process exit code: 0 pass, 1 regression, 2 usage or IO error.

#![forbid(unsafe_code)]

use hotgauge_telemetry::manifest::RunManifest;
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};

/// Tolerances and floors controlling the comparison.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Allowed relative increase for timing metrics (0.25 = +25%).
    pub time_rel: f64,
    /// Allowed relative increase for allocation metrics.
    pub alloc_rel: f64,
    /// Timing metrics whose baseline is below this many seconds are skipped
    /// (too small to measure above noise).
    pub time_floor_s: f64,
    /// Allocation-count metrics with a baseline below this are skipped.
    pub alloc_floor_count: f64,
    /// Allocation-byte metrics with a baseline below this are skipped.
    pub alloc_floor_bytes: f64,
    /// Gate domain counters instead of reporting them informationally.
    pub gate_counters: bool,
    /// Counter-label prefixes to gate even when [`Self::gate_counters`] is
    /// off: a counter id `counter.<label>.total` is gated when `<label>`
    /// starts with any listed prefix (`solver.` gates every solver counter;
    /// `analysis.simd_rows` gates exactly that one).
    pub gate_counter_prefixes: Vec<String>,
    /// Exact-id tolerance overrides, checked before the kind-level ones.
    pub overrides: Vec<(String, f64)>,
    /// Required span-p99 gates (repeatable `--gate-span-p99 SPAN=PCT`):
    /// `<span>.p99_s` is compared at the given relative tolerance, and the
    /// gate *fails* when the span is missing from either manifest — unlike
    /// ordinary metrics, which inform on one-sided presence. Use this to
    /// pin tail latency of a hot span (e.g. `stage.thermal`) in CI.
    pub gate_span_p99: Vec<(String, f64)>,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            // Wall-clock on shared CI runners is noisy; 25% on timings and
            // 10% on (deterministic-ish) allocation counts by default.
            time_rel: 0.25,
            alloc_rel: 0.10,
            time_floor_s: 1e-3,
            alloc_floor_count: 100.0,
            alloc_floor_bytes: 65_536.0,
            gate_counters: false,
            gate_counter_prefixes: Vec::new(),
            overrides: Vec::new(),
            gate_span_p99: Vec::new(),
        }
    }
}

impl GateConfig {
    /// The relative tolerance applied to `id` of `kind`.
    fn tolerance(&self, id: &str, kind: MetricKind) -> f64 {
        for (name, tol) in &self.overrides {
            if name == id {
                return *tol;
            }
        }
        if let Some(label) = id.strip_suffix(".p99_s") {
            for (span, tol) in &self.gate_span_p99 {
                if span == label {
                    return *tol;
                }
            }
        }
        match kind {
            MetricKind::Time | MetricKind::Result => self.time_rel,
            MetricKind::Allocs | MetricKind::AllocBytes => self.alloc_rel,
            MetricKind::Counter => self.time_rel,
        }
    }

    /// Whether a counter metric with this `id` is gated rather than
    /// informational: either all counters are ([`Self::gate_counters`]) or
    /// its label matches one of the [`Self::gate_counter_prefixes`].
    fn gates_counter(&self, id: &str) -> bool {
        if self.gate_counters {
            return true;
        }
        let label = id
            .strip_prefix("counter.")
            .and_then(|rest| rest.strip_suffix(".total"))
            .unwrap_or(id);
        self.gate_counter_prefixes
            .iter()
            .any(|p| label.starts_with(p.as_str()))
    }

    /// The skip floor for `kind` (baselines below it are not gated).
    fn floor(&self, kind: MetricKind) -> f64 {
        match kind {
            MetricKind::Time | MetricKind::Result => self.time_floor_s,
            MetricKind::Allocs => self.alloc_floor_count,
            MetricKind::AllocBytes => self.alloc_floor_bytes,
            MetricKind::Counter => 0.0,
        }
    }
}

/// What a metric measures; selects tolerance, floor, and gating policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MetricKind {
    /// Stage wall time in seconds (`total_s`, percentiles).
    Time,
    /// Stage heap allocation count.
    Allocs,
    /// Stage heap bytes requested.
    AllocBytes,
    /// Numeric `gate_*` leaf from the results tree (seconds by convention).
    Result,
    /// Domain counter total (informational unless `gate_counters`).
    Counter,
}

/// One comparable scalar extracted from a manifest.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable identifier, e.g. `stage.thermal.p99_s` or `results.gate_mean_s`.
    pub id: String,
    /// What the value measures.
    pub kind: MetricKind,
    /// The value (lower is better for every gated kind).
    pub value: f64,
}

/// Flattens the gateable metrics out of a manifest.
///
/// Order is deterministic: stages (manifest order) with their timing then
/// allocation fields, then counters, then `results.gate_*` leaves in the
/// results object's own order.
pub fn extract_metrics(m: &RunManifest) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(metrics) = &m.metrics {
        for s in &metrics.stages {
            let mut push = |suffix: &str, kind, value: f64| {
                out.push(Metric {
                    id: format!("{}.{suffix}", s.label),
                    kind,
                    value,
                })
            };
            push("total_s", MetricKind::Time, s.total_s);
            if let Some(v) = s.p50_s {
                push("p50_s", MetricKind::Time, v);
            }
            if let Some(v) = s.p90_s {
                push("p90_s", MetricKind::Time, v);
            }
            if let Some(v) = s.p99_s {
                push("p99_s", MetricKind::Time, v);
            }
            if let Some(v) = s.allocs {
                push("allocs", MetricKind::Allocs, v as f64);
            }
            if let Some(v) = s.alloc_bytes {
                push("alloc_bytes", MetricKind::AllocBytes, v as f64);
            }
        }
        for c in &metrics.counters {
            out.push(Metric {
                id: format!("counter.{}.total", c.label),
                kind: MetricKind::Counter,
                value: c.total,
            });
        }
    }
    if let Some(store) = &m.store {
        // Result-store health as diffable, lower-is-better counters: a
        // delta sweep that re-simulates more than before shows up as a
        // `store.misses` / `store.miss_rate` regression under
        // `--gate-counter store.`.
        out.push(Metric {
            id: "store.misses".to_owned(),
            kind: MetricKind::Counter,
            value: store.misses as f64,
        });
        out.push(Metric {
            id: "store.miss_rate".to_owned(),
            kind: MetricKind::Counter,
            value: 1.0 - store.hit_rate,
        });
    }
    if let Some(fields) = m.results.as_map() {
        for (key, value) in fields {
            if !key.starts_with("gate_") {
                continue;
            }
            if let Some(v) = value.as_f64() {
                out.push(Metric {
                    id: format!("results.{key}"),
                    kind: MetricKind::Result,
                    value: v,
                });
            }
        }
    }
    out
}

/// Multiplies every timing metric of `m` in place by `factor`: stage
/// `total_s`/`avg_s`/`min_s`/`max_s`/percentiles and numeric `gate_*`
/// results leaves. Used by the `--slowdown` test hook to synthesize a
/// regressed candidate from a real manifest, so CI can prove the gate
/// actually fails (allocation metrics are left untouched).
pub fn scale_timings(m: &mut RunManifest, factor: f64) {
    if let Some(metrics) = &mut m.metrics {
        for s in &mut metrics.stages {
            s.total_s *= factor;
            s.avg_s *= factor;
            s.min_s *= factor;
            s.max_s *= factor;
            s.p50_s = s.p50_s.map(|v| v * factor);
            s.p90_s = s.p90_s.map(|v| v * factor);
            s.p99_s = s.p99_s.map(|v| v * factor);
        }
    }
    if let Some(fields) = m.results.as_map() {
        let scaled: Vec<(String, serde_json::Value)> = fields
            .iter()
            .map(|(key, value)| {
                let v = match (key.starts_with("gate_"), value.as_f64()) {
                    (true, Some(x)) => serde_json::Value::F64(x * factor),
                    _ => value.clone(),
                };
                (key.clone(), v)
            })
            .collect();
        m.results = serde_json::Value::Map(scaled);
    }
}

/// Verdict for one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RowStatus {
    /// Within tolerance.
    Pass,
    /// Candidate exceeds baseline by more than the tolerance — fails the gate.
    Regression,
    /// Candidate is faster/leaner by more than the tolerance.
    Improvement,
    /// Baseline below the noise floor; not gated.
    Skipped,
    /// Reported but never gated (counters by default).
    Info,
    /// Present only in the baseline manifest.
    BaselineOnly,
    /// Present only in the candidate manifest.
    CandidateOnly,
}

/// One row of the comparison report.
#[derive(Debug, Clone, Serialize)]
pub struct GateRow {
    /// Metric identifier (see [`extract_metrics`]).
    pub id: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Baseline value (0 when [`RowStatus::CandidateOnly`]).
    pub baseline: f64,
    /// Candidate value (0 when [`RowStatus::BaselineOnly`]).
    pub candidate: f64,
    /// Relative change in percent, `(candidate - baseline) / baseline * 100`.
    pub delta_pct: f64,
    /// Applied tolerance in percent.
    pub tolerance_pct: f64,
    /// Verdict.
    pub status: RowStatus,
}

/// The full comparison result.
#[derive(Debug, Clone, Serialize)]
pub struct GateReport {
    /// Per-metric rows, in extraction order (baseline order first, then
    /// candidate-only metrics).
    pub rows: Vec<GateRow>,
    /// Number of rows with [`RowStatus::Regression`].
    pub regressions: u64,
    /// Number of rows with [`RowStatus::Improvement`].
    pub improvements: u64,
    /// Number of gated rows that passed.
    pub passed: u64,
}

impl GateReport {
    /// `true` when no gated metric regressed.
    pub fn ok(&self) -> bool {
        self.regressions == 0
    }
}

/// Whether a metric id is a histogram-derived percentile (`p50_s`/`p90_s`/
/// `p99_s`): its value is quantized to the recorder's log-bucket grid, so
/// deltas within one bucket width are noise regardless of tolerance.
fn is_percentile(id: &str) -> bool {
    id.ends_with(".p50_s") || id.ends_with(".p90_s") || id.ends_with(".p99_s")
}

/// Compares `candidate` against `baseline` under `cfg`.
///
/// Percentile metrics come out of a log-bucketed histogram, so their noise
/// threshold is the *baseline's bucket width* — a constant relative
/// fraction ([`hotgauge_telemetry::hist::RELATIVE_BUCKET_WIDTH`]) of the
/// baseline value, not a fixed epsilon: the effective tolerance for those
/// rows widens by one bucket so quantization jitter alone can never trip
/// (or fake) a verdict.
pub fn compare(baseline: &RunManifest, candidate: &RunManifest, cfg: &GateConfig) -> GateReport {
    let base = extract_metrics(baseline);
    let cand = extract_metrics(candidate);
    let mut rows = Vec::with_capacity(base.len());
    for b in &base {
        let row = match cand.iter().find(|c| c.id == b.id) {
            None => GateRow {
                id: b.id.clone(),
                kind: b.kind,
                baseline: b.value,
                candidate: 0.0,
                delta_pct: 0.0,
                tolerance_pct: 0.0,
                status: RowStatus::BaselineOnly,
            },
            Some(c) => {
                let mut tol = cfg.tolerance(&b.id, b.kind);
                if is_percentile(&b.id) {
                    tol += hotgauge_telemetry::hist::RELATIVE_BUCKET_WIDTH;
                }
                let delta = if b.value == 0.0 {
                    if c.value == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (c.value - b.value) / b.value
                };
                let gated = b.kind != MetricKind::Counter || cfg.gates_counter(&b.id);
                let status = if !gated {
                    RowStatus::Info
                } else if b.value < cfg.floor(b.kind) && c.value < cfg.floor(b.kind) {
                    RowStatus::Skipped
                } else if delta > tol {
                    RowStatus::Regression
                } else if delta < -tol {
                    RowStatus::Improvement
                } else {
                    RowStatus::Pass
                };
                GateRow {
                    id: b.id.clone(),
                    kind: b.kind,
                    baseline: b.value,
                    candidate: c.value,
                    delta_pct: if delta.is_finite() {
                        delta * 100.0
                    } else {
                        delta
                    },
                    tolerance_pct: tol * 100.0,
                    status,
                }
            }
        };
        rows.push(row);
    }
    for c in &cand {
        if !base.iter().any(|b| b.id == c.id) {
            rows.push(GateRow {
                id: c.id.clone(),
                kind: c.kind,
                baseline: 0.0,
                candidate: c.value,
                delta_pct: 0.0,
                tolerance_pct: 0.0,
                status: RowStatus::CandidateOnly,
            });
        }
    }
    // Required span-p99 gates: a span named on the command line must be
    // present (two-sided) — a build that silently drops the span would
    // otherwise pass vacuously.
    for (span, tol) in &cfg.gate_span_p99 {
        let id = format!("{span}.p99_s");
        let two_sided = rows.iter().any(|r| {
            r.id == id
                && matches!(
                    r.status,
                    RowStatus::Pass
                        | RowStatus::Regression
                        | RowStatus::Improvement
                        | RowStatus::Skipped
                )
        });
        if !two_sided {
            if let Some(r) = rows.iter_mut().find(|r| r.id == id) {
                r.status = RowStatus::Regression;
            } else {
                rows.push(GateRow {
                    id,
                    kind: MetricKind::Time,
                    baseline: 0.0,
                    candidate: 0.0,
                    delta_pct: 0.0,
                    tolerance_pct: tol * 100.0,
                    status: RowStatus::Regression,
                });
            }
        }
    }
    let count = |st: RowStatus| rows.iter().filter(|r| r.status == st).count() as u64;
    GateReport {
        regressions: count(RowStatus::Regression),
        improvements: count(RowStatus::Improvement),
        passed: count(RowStatus::Pass),
        rows,
    }
}

/// Renders the report as an aligned text table.
pub fn render_report(report: &GateReport) -> String {
    let mut out = String::new();
    let id_w = report
        .rows
        .iter()
        .map(|r| r.id.len())
        .chain(std::iter::once("metric".len()))
        .max()
        .unwrap_or(6);
    out.push_str(&format!(
        "{:<id_w$}  {:>12}  {:>12}  {:>8}  {:>6}  status\n",
        "metric", "baseline", "candidate", "delta", "tol"
    ));
    for r in &report.rows {
        let (delta, tol) = match r.status {
            RowStatus::BaselineOnly | RowStatus::CandidateOnly => {
                ("-".to_string(), "-".to_string())
            }
            _ => (
                format!("{:+.1}%", r.delta_pct),
                format!("{:.0}%", r.tolerance_pct),
            ),
        };
        out.push_str(&format!(
            "{:<id_w$}  {:>12}  {:>12}  {:>8}  {:>6}  {:?}\n",
            r.id,
            fmt_value(r.kind, r.baseline),
            fmt_value(r.kind, r.candidate),
            delta,
            tol,
            r.status,
        ));
    }
    out.push_str(&format!(
        "gate: {} regression(s), {} improvement(s), {} pass(es)\n",
        report.regressions, report.improvements, report.passed
    ));
    out
}

fn fmt_value(kind: MetricKind, v: f64) -> String {
    match kind {
        MetricKind::Time | MetricKind::Result => {
            if v >= 1.0 {
                format!("{v:.3}s")
            } else if v >= 1e-3 {
                format!("{:.3}ms", v * 1e3)
            } else {
                format!("{:.1}us", v * 1e6)
            }
        }
        MetricKind::Allocs | MetricKind::Counter => format!("{v:.0}"),
        MetricKind::AllocBytes => {
            if v >= 1024.0 * 1024.0 {
                format!("{:.1}MiB", v / (1024.0 * 1024.0))
            } else if v >= 1024.0 {
                format!("{:.1}KiB", v / 1024.0)
            } else {
                format!("{v:.0}B")
            }
        }
    }
}

/// Errors surfaced by [`run_cli`].
#[derive(Debug)]
pub enum GateError {
    /// Bad command line; the message explains which flag.
    Usage(String),
    /// A manifest could not be read.
    Io(PathBuf, std::io::Error),
    /// A manifest could not be parsed.
    Parse(PathBuf, String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Usage(msg) => write!(f, "usage error: {msg}"),
            GateError::Io(path, e) => write!(f, "cannot read {}: {e}", path.display()),
            GateError::Parse(path, msg) => write!(f, "cannot parse {}: {msg}", path.display()),
        }
    }
}

impl std::error::Error for GateError {}

/// Loads and parses one manifest file.
pub fn load_manifest(path: &Path) -> Result<RunManifest, GateError> {
    let text = std::fs::read_to_string(path).map_err(|e| GateError::Io(path.to_path_buf(), e))?;
    serde_json::from_str(&text).map_err(|e| GateError::Parse(path.to_path_buf(), e.to_string()))
}

/// Parsed command line for the gate.
#[derive(Debug)]
struct CliArgs {
    baseline: PathBuf,
    candidate: PathBuf,
    cfg: GateConfig,
    slowdown: f64,
    json: Option<PathBuf>,
    quiet: bool,
}

const USAGE: &str = "usage: hotgauge-perfgate <baseline.json> <candidate.json> \
[--time-tol-pct P] [--alloc-tol-pct P] [--time-floor-ms MS] [--gate-counters] \
[--gate-counter PREFIX]... [--gate-span-p99 SPAN=PCT]... \
[--override METRIC=PCT] [--slowdown FACTOR] [--json PATH] [--quiet]
       hotgauge-perfgate --check-store MIN_HIT_RATE <manifest.json>";

fn parse_args(args: &[String]) -> Result<CliArgs, GateError> {
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut cfg = GateConfig::default();
    let mut slowdown = 1.0f64;
    let mut json = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Result<&String, GateError> {
            it.next()
                .ok_or_else(|| GateError::Usage(format!("{flag} needs a value\n{USAGE}")))
        };
        match arg.as_str() {
            "--time-tol-pct" => {
                cfg.time_rel = parse_f64(take("--time-tol-pct")?, "--time-tol-pct")? / 100.0
            }
            "--alloc-tol-pct" => {
                cfg.alloc_rel = parse_f64(take("--alloc-tol-pct")?, "--alloc-tol-pct")? / 100.0
            }
            "--time-floor-ms" => {
                cfg.time_floor_s = parse_f64(take("--time-floor-ms")?, "--time-floor-ms")? * 1e-3
            }
            "--gate-counters" => cfg.gate_counters = true,
            "--gate-counter" => {
                let prefix = take("--gate-counter")?;
                if prefix.is_empty() {
                    return Err(GateError::Usage(
                        "--gate-counter expects a non-empty label prefix".to_string(),
                    ));
                }
                cfg.gate_counter_prefixes.push(prefix.clone());
            }
            "--gate-span-p99" => {
                let spec = take("--gate-span-p99")?;
                let (span, pct) = spec.split_once('=').ok_or_else(|| {
                    GateError::Usage(format!("--gate-span-p99 expects SPAN=PCT, got `{spec}`"))
                })?;
                if span.is_empty() {
                    return Err(GateError::Usage(
                        "--gate-span-p99 expects a non-empty span label".to_string(),
                    ));
                }
                cfg.gate_span_p99
                    .push((span.to_string(), parse_f64(pct, "--gate-span-p99")? / 100.0));
            }
            "--override" => {
                let spec = take("--override")?;
                let (name, pct) = spec.split_once('=').ok_or_else(|| {
                    GateError::Usage(format!("--override expects METRIC=PCT, got `{spec}`"))
                })?;
                cfg.overrides
                    .push((name.to_string(), parse_f64(pct, "--override")? / 100.0));
            }
            "--slowdown" => slowdown = parse_f64(take("--slowdown")?, "--slowdown")?,
            "--json" => json = Some(PathBuf::from(take("--json")?)),
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(GateError::Usage(USAGE.to_string())),
            other if other.starts_with('-') => {
                return Err(GateError::Usage(format!("unknown flag `{other}`\n{USAGE}")))
            }
            other => positional.push(PathBuf::from(other)),
        }
    }
    if positional.len() != 2 {
        return Err(GateError::Usage(format!(
            "expected exactly two manifest paths, got {}\n{USAGE}",
            positional.len()
        )));
    }
    let candidate = positional.pop().unwrap_or_default();
    let baseline = positional.pop().unwrap_or_default();
    Ok(CliArgs {
        baseline,
        candidate,
        cfg,
        slowdown,
        json,
        quiet,
    })
}

fn parse_f64(s: &str, flag: &str) -> Result<f64, GateError> {
    s.parse::<f64>()
        .map_err(|_| GateError::Usage(format!("{flag} expects a number, got `{s}`")))
}

/// Checks a manifest's result-store hit rate against a minimum.
///
/// Returns the achieved hit rate on pass, or a diagnostic on failure
/// (missing store block, or a rate below `min`). Used by the CLI's
/// `--check-store` mode; pure so CI assertions are testable in-process.
pub fn check_store(m: &RunManifest, min: f64) -> Result<f64, String> {
    let Some(store) = &m.store else {
        return Err("manifest has no store block (was the run started with --store?)".to_string());
    };
    if store.hit_rate + f64::EPSILON < min {
        return Err(format!(
            "store hit rate {:.4} below required {:.4} ({} hits / {} misses, {} quarantined)",
            store.hit_rate, min, store.hits, store.misses, store.quarantined
        ));
    }
    Ok(store.hit_rate)
}

/// The `--check-store MIN_HIT_RATE MANIFEST` mode: 0 = pass, 1 = hit rate
/// below the minimum, 2 = usage/IO error.
fn run_check_store(args: &[String]) -> i32 {
    let [min_text, path] = args else {
        eprintln!("--check-store expects MIN_HIT_RATE and one manifest path\n{USAGE}");
        return 2;
    };
    let min = match min_text.parse::<f64>() {
        Ok(v) if (0.0..=1.0).contains(&v) => v,
        _ => {
            eprintln!("--check-store expects a hit rate in 0.0..=1.0, got `{min_text}`");
            return 2;
        }
    };
    let manifest = match load_manifest(Path::new(path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match check_store(&manifest, min) {
        Ok(rate) => {
            println!("store check OK: hit rate {rate:.4} >= {min:.4}");
            0
        }
        Err(msg) => {
            eprintln!("store check FAILED: {msg}");
            1
        }
    }
}

/// Runs the gate end to end and returns the process exit code:
/// 0 = pass, 1 = regression, 2 = usage/IO error.
///
/// `args` excludes the binary name. Shared by the standalone
/// `hotgauge-perfgate` binary and the `hotgauge gate` subcommand.
pub fn run_cli(args: &[String]) -> i32 {
    // `--check-store` is its own mode, not a diff: intercept before the
    // two-manifest argument parser.
    if args.first().map(String::as_str) == Some("--check-store") {
        return run_check_store(&args[1..]);
    }
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let baseline = match load_manifest(&parsed.baseline) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut candidate = match load_manifest(&parsed.candidate) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if parsed.slowdown != 1.0 {
        scale_timings(&mut candidate, parsed.slowdown);
        if !parsed.quiet {
            eprintln!(
                "note: candidate timings synthetically scaled by {:.2}x (--slowdown)",
                parsed.slowdown
            );
        }
    }
    let report = compare(&baseline, &candidate, &parsed.cfg);
    if let Some(path) = &parsed.json {
        if let Err(e) = hotgauge_telemetry::manifest::write_json_atomic(path, &report) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
    }
    if !parsed.quiet {
        print!("{}", render_report(&report));
    } else if !report.ok() {
        // Even quiet runs say why they failed.
        for row in report
            .rows
            .iter()
            .filter(|r| r.status == RowStatus::Regression)
        {
            eprintln!(
                "regression: {} {:+.1}% (tolerance {:.0}%)",
                row.id, row.delta_pct, row.tolerance_pct
            );
        }
    }
    if report.ok() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_telemetry::manifest::{RunMetrics, StageMetrics};

    fn manifest_with(total_s: f64, p99_s: f64, allocs: u64) -> RunManifest {
        let mut m = RunManifest {
            schema_version: 2,
            tool: "perf_rounds".into(),
            args: vec![],
            config: Default::default(),
            results: serde_json::Value::Map(vec![
                ("rounds".to_string(), serde_json::Value::U64(4)),
                (
                    "gate_mean_s".to_string(),
                    serde_json::Value::F64(total_s / 4.0),
                ),
            ]),
            metrics: None,
            store: None,
        };
        m.metrics = Some(RunMetrics {
            stages: vec![StageMetrics {
                label: "stage.thermal".into(),
                calls: 100,
                total_s,
                avg_s: total_s / 100.0,
                min_s: total_s / 200.0,
                max_s: total_s / 50.0,
                p50_s: Some(total_s / 100.0),
                p90_s: Some(total_s / 80.0),
                p99_s: Some(p99_s),
                allocs: Some(allocs),
                alloc_bytes: Some(allocs * 1024),
                share: 1.0,
            }],
            counters: vec![hotgauge_telemetry::manifest::CounterMetrics {
                label: "thermal.cg_iterations".into(),
                calls: 100,
                total: 4000.0,
                avg: 40.0,
                min: 30.0,
                max: 50.0,
            }],
            dropped_events: 0,
        });
        m
    }

    #[test]
    fn identical_manifests_pass() {
        let m = manifest_with(2.0, 0.03, 10_000);
        let report = compare(&m, &m.clone(), &GateConfig::default());
        assert!(report.ok());
        assert_eq!(report.regressions, 0);
        assert!(report.passed > 0, "gated metrics must be compared");
        // Counters are informational by default.
        let counter = report
            .rows
            .iter()
            .find(|r| r.id == "counter.thermal.cg_iterations.total")
            .expect("counter row present");
        assert_eq!(counter.status, RowStatus::Info);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let cand = manifest_with(3.0, 0.05, 10_000); // +50% time
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(!report.ok());
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.total_s")
            .expect("total_s row");
        assert_eq!(row.status, RowStatus::Regression);
        assert!((row.delta_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn improvement_is_not_a_failure() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let cand = manifest_with(1.0, 0.015, 10_000);
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(report.ok());
        assert!(report.improvements > 0);
    }

    #[test]
    fn alloc_regression_fails_with_alloc_tolerance() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let cand = manifest_with(2.0, 0.03, 12_000); // +20% allocs > 10% tol
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(!report.ok());
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.allocs")
            .expect("allocs row");
        assert_eq!(row.status, RowStatus::Regression);
        assert!((row.tolerance_pct - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sub_floor_metrics_are_skipped() {
        // 10us of total time: even a 10x regression is noise.
        let base = manifest_with(1e-5, 1e-6, 10);
        let cand = manifest_with(1e-4, 1e-5, 20);
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(report.ok(), "sub-floor timings must not gate");
        assert!(report
            .rows
            .iter()
            .filter(|r| r.kind == MetricKind::Time)
            .all(|r| r.status == RowStatus::Skipped));
    }

    #[test]
    fn exact_override_beats_kind_tolerance() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let cand = manifest_with(2.2, 0.033, 10_000); // +10%
        let mut cfg = GateConfig::default();
        cfg.overrides
            .push(("stage.thermal.total_s".to_string(), 0.05));
        let report = compare(&base, &cand, &cfg);
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.total_s")
            .expect("total_s row");
        assert_eq!(
            row.status,
            RowStatus::Regression,
            "5% override must gate +10%"
        );
        assert!((row.tolerance_pct - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gate_results_leaves_are_extracted_and_gated() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let cand = manifest_with(4.0, 0.03, 10_000); // gate_mean_s doubles
        let metrics = extract_metrics(&base);
        assert!(metrics.iter().any(|m| m.id == "results.gate_mean_s"));
        assert!(
            !metrics.iter().any(|m| m.id == "results.rounds"),
            "non-gate_ results keys must not be compared"
        );
        let report = compare(&base, &cand, &GateConfig::default());
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "results.gate_mean_s")
            .expect("gate_mean_s row");
        assert_eq!(row.status, RowStatus::Regression);
    }

    #[test]
    fn scale_timings_drives_a_synthetic_regression() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let mut cand = base.clone();
        scale_timings(&mut cand, 1.5);
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(!report.ok(), "1.5x slowdown must fail a 25% gate");
        // Allocations are untouched by the slowdown hook.
        let allocs = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.allocs")
            .expect("allocs row");
        assert_eq!(allocs.status, RowStatus::Pass);
        // gate_* results leaves scale too.
        let gate = report
            .rows
            .iter()
            .find(|r| r.id == "results.gate_mean_s")
            .expect("gate row");
        assert_eq!(gate.status, RowStatus::Regression);
    }

    #[test]
    fn v1_manifest_without_percentiles_still_gates_totals() {
        let mut base = manifest_with(2.0, 0.03, 10_000);
        if let Some(metrics) = &mut base.metrics {
            for s in &mut metrics.stages {
                s.p50_s = None;
                s.p90_s = None;
                s.p99_s = None;
                s.allocs = None;
                s.alloc_bytes = None;
            }
        }
        let cand = base.clone();
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(report.ok());
        assert!(report.rows.iter().any(|r| r.id == "stage.thermal.total_s"));
        assert!(!report.rows.iter().any(|r| r.id == "stage.thermal.p50_s"));
    }

    #[test]
    fn missing_metrics_are_reported_not_gated() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let mut cand = manifest_with(2.0, 0.03, 10_000);
        if let Some(metrics) = &mut cand.metrics {
            metrics.stages[0].label = "stage.renamed".into();
        }
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(report.ok(), "renamed metrics inform, not fail");
        assert!(report
            .rows
            .iter()
            .any(|r| r.id == "stage.thermal.total_s" && r.status == RowStatus::BaselineOnly));
        assert!(report
            .rows
            .iter()
            .any(|r| r.id == "stage.renamed.total_s" && r.status == RowStatus::CandidateOnly));
    }

    fn with_counter(mut m: RunManifest, label: &str, total: f64) -> RunManifest {
        if let Some(metrics) = &mut m.metrics {
            metrics
                .counters
                .push(hotgauge_telemetry::manifest::CounterMetrics {
                    label: label.into(),
                    calls: 10,
                    total,
                    avg: total / 10.0,
                    min: 0.0,
                    max: total,
                });
        }
        m
    }

    #[test]
    fn counter_prefix_gates_matching_counters_only() {
        let base = with_counter(
            manifest_with(2.0, 0.03, 10_000),
            "solver.lockstep_runs",
            133.0,
        );
        // Both counters drift: CG iterations (+50%, a fidelity question)
        // and the batched run count (+50%, a batching promise).
        let mut cand = with_counter(
            manifest_with(2.0, 0.03, 10_000),
            "solver.lockstep_runs",
            200.0,
        );
        if let Some(metrics) = &mut cand.metrics {
            metrics.counters[0].total = 6000.0;
        }
        let cfg = GateConfig {
            gate_counter_prefixes: vec!["solver.".to_string()],
            ..GateConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert!(!report.ok(), "prefixed counter drift must fail the gate");
        let row = |id: &str| {
            report
                .rows
                .iter()
                .find(|r| r.id == id)
                .unwrap_or_else(|| panic!("{id} row present"))
        };
        assert_eq!(
            row("counter.solver.lockstep_runs.total").status,
            RowStatus::Regression
        );
        assert_eq!(
            row("counter.thermal.cg_iterations.total").status,
            RowStatus::Info,
            "unmatched counters stay informational"
        );
        // A prefix that matches nothing leaves every counter informational.
        let inert = GateConfig {
            gate_counter_prefixes: vec!["analysis.simd_rows".to_string()],
            ..GateConfig::default()
        };
        assert!(compare(&base, &cand, &inert).ok());
    }

    #[test]
    fn counter_prefix_passes_when_counters_are_stable() {
        let m = with_counter(manifest_with(2.0, 0.03, 10_000), "solver.batch_width", 17.0);
        let cfg = GateConfig {
            gate_counter_prefixes: vec!["solver.".to_string()],
            ..GateConfig::default()
        };
        let report = compare(&m, &m.clone(), &cfg);
        assert!(report.ok());
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "counter.solver.batch_width.total")
            .expect("batch_width row present");
        assert_eq!(row.status, RowStatus::Pass, "gated and equal means Pass");
    }

    #[test]
    fn percentile_deltas_within_bucket_width_are_noise() {
        // +2% on p99 with a 0% tolerance override: below the histogram's
        // ~3.1% bucket width, so it must read as quantization, not signal.
        let base = manifest_with(2.0, 0.0300, 10_000);
        let cand = manifest_with(2.0, 0.0306, 10_000);
        let mut cfg = GateConfig::default();
        cfg.overrides.push(("stage.thermal.p99_s".to_string(), 0.0));
        let report = compare(&base, &cand, &cfg);
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.p99_s")
            .expect("p99 row");
        assert_eq!(row.status, RowStatus::Pass, "sub-bucket delta must pass");
        // A delta clearly past tolerance + bucket width still regresses.
        let cand = manifest_with(2.0, 0.0320, 10_000); // +6.7%
        let report = compare(&base, &cand, &cfg);
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.p99_s")
            .expect("p99 row");
        assert_eq!(row.status, RowStatus::Regression);
        // Non-percentile timings keep the exact tolerance: +2% total_s
        // against a 0% override is a regression, no bucket allowance.
        let mut cfg = GateConfig::default();
        cfg.overrides
            .push(("stage.thermal.total_s".to_string(), 0.0));
        let cand = manifest_with(2.04, 0.03, 10_000);
        let report = compare(&base, &cand, &cfg);
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.total_s")
            .expect("total_s row");
        assert_eq!(row.status, RowStatus::Regression);
    }

    #[test]
    fn span_p99_gate_applies_and_requires_presence() {
        let base = manifest_with(2.0, 0.030, 10_000);
        let cand = manifest_with(2.0, 0.035, 10_000); // +16.7% p99
        let cfg = GateConfig {
            gate_span_p99: vec![("stage.thermal".to_string(), 0.05)],
            ..GateConfig::default()
        };
        // 5% tolerance + 3.1% bucket width < 16.7%: regression.
        let report = compare(&base, &cand, &cfg);
        assert!(!report.ok());
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "stage.thermal.p99_s")
            .expect("p99 row");
        assert_eq!(row.status, RowStatus::Regression);
        // The default 25% tolerance would have let that through.
        assert!(compare(&base, &cand, &GateConfig::default()).ok());
        // A gated span missing from the candidate fails instead of
        // informing as BaselineOnly.
        let mut dropped = base.clone();
        if let Some(metrics) = &mut dropped.metrics {
            metrics.stages.clear();
        }
        let report = compare(&base, &dropped, &cfg);
        assert!(!report.ok(), "missing gated span must fail");
        assert!(report
            .rows
            .iter()
            .any(|r| r.id == "stage.thermal.p99_s" && r.status == RowStatus::Regression));
        // A span absent from both manifests fails too.
        let report = compare(&dropped, &dropped.clone(), &cfg);
        assert!(!report.ok(), "span absent everywhere must fail");
    }

    #[test]
    fn cli_args_parse_and_reject() {
        let ok = parse_args(&[
            "a.json".to_string(),
            "b.json".to_string(),
            "--time-tol-pct".to_string(),
            "30".to_string(),
            "--override".to_string(),
            "stage.thermal.p99_s=50".to_string(),
            "--slowdown".to_string(),
            "1.5".to_string(),
            "--gate-counter".to_string(),
            "solver.".to_string(),
            "--gate-counter".to_string(),
            "analysis.simd_rows".to_string(),
            "--gate-span-p99".to_string(),
            "stage.thermal=10".to_string(),
            "--quiet".to_string(),
        ]);
        let parsed = match ok {
            Ok(p) => p,
            Err(e) => panic!("expected parse success, got {e}"),
        };
        assert!((parsed.cfg.time_rel - 0.30).abs() < 1e-12);
        assert_eq!(parsed.cfg.overrides.len(), 1);
        assert_eq!(
            parsed.cfg.gate_counter_prefixes,
            vec!["solver.".to_string(), "analysis.simd_rows".to_string()]
        );
        assert!(
            !parsed.cfg.gate_counters,
            "prefixes must not gate everything"
        );
        assert_eq!(parsed.cfg.gate_span_p99.len(), 1);
        assert_eq!(parsed.cfg.gate_span_p99[0].0, "stage.thermal");
        assert!((parsed.cfg.gate_span_p99[0].1 - 0.10).abs() < 1e-12);
        assert!((parsed.slowdown - 1.5).abs() < 1e-12);
        assert!(parsed.quiet);
        assert!(parse_args(&["one.json".to_string()]).is_err());
        assert!(parse_args(&[
            "a".to_string(),
            "b".to_string(),
            "--gate-counter".to_string(),
            String::new(),
        ])
        .is_err());
        assert!(parse_args(&["a".to_string(), "b".to_string(), "--bogus".to_string()]).is_err());
        assert!(parse_args(&[
            "a".to_string(),
            "b".to_string(),
            "--gate-span-p99".to_string(),
            "no-equals-sign".to_string(),
        ])
        .is_err());
        assert!(parse_args(&[
            "a".to_string(),
            "b".to_string(),
            "--gate-span-p99".to_string(),
            "=10".to_string(),
        ])
        .is_err());
        assert!(parse_args(&[
            "a".to_string(),
            "b".to_string(),
            "--time-tol-pct".to_string(),
            "abc".to_string()
        ])
        .is_err());
    }

    #[test]
    fn report_renders_and_serializes() {
        let base = manifest_with(2.0, 0.03, 10_000);
        let cand = manifest_with(3.0, 0.05, 12_000);
        let report = compare(&base, &cand, &GateConfig::default());
        let table = render_report(&report);
        assert!(table.contains("stage.thermal.total_s"));
        assert!(table.contains("Regression"));
        assert!(table.contains("regression(s)"));
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"regressions\""));
        assert!(json.contains("\"Regression\""));
    }

    fn manifest_with_store(hits: u64, misses: u64) -> RunManifest {
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        };
        let mut m = manifest_with(2.0, 0.03, 10_000);
        m.store = Some(hotgauge_telemetry::manifest::StoreManifest {
            hits,
            misses,
            writes: misses,
            quarantined: 0,
            hit_rate,
        });
        m
    }

    #[test]
    fn store_block_extracts_lower_is_better_metrics() {
        let m = manifest_with_store(6, 2);
        let metrics = extract_metrics(&m);
        let misses = metrics.iter().find(|x| x.id == "store.misses").unwrap();
        assert_eq!(misses.kind, MetricKind::Counter);
        assert_eq!(misses.value, 2.0);
        let miss_rate = metrics.iter().find(|x| x.id == "store.miss_rate").unwrap();
        assert!((miss_rate.value - 0.25).abs() < 1e-12);
        // No store block → no store metrics.
        let plain = manifest_with(2.0, 0.03, 10_000);
        assert!(!extract_metrics(&plain)
            .iter()
            .any(|x| x.id.starts_with("store.")));
    }

    #[test]
    fn store_miss_regression_gates_under_counter_prefix() {
        let base = manifest_with_store(8, 0);
        let cand = manifest_with_store(4, 4);
        let cfg = GateConfig {
            gate_counter_prefixes: vec!["store.".to_string()],
            ..GateConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert!(!report.ok(), "a hit-rate collapse must fail the gate");
        // Without the prefix the store metrics stay informational.
        let report = compare(&base, &cand, &GateConfig::default());
        assert!(report.ok());
    }

    #[test]
    fn check_store_thresholds() {
        let m = manifest_with_store(9, 1);
        assert!(check_store(&m, 0.9).is_ok());
        let rate = check_store(&m, 0.5).unwrap();
        assert!((rate - 0.9).abs() < 1e-12);
        assert!(check_store(&m, 0.95).is_err());
        let plain = manifest_with(2.0, 0.03, 10_000);
        assert!(check_store(&plain, 0.0).is_err(), "no store block fails");
        // A full-hit manifest passes the strictest check.
        let all_hits = manifest_with_store(5, 0);
        assert!(check_store(&all_hits, 1.0).is_ok());
    }

    #[test]
    fn check_store_cli_mode() {
        let dir = std::env::temp_dir().join(format!("hotgauge-checkstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        hotgauge_telemetry::manifest::write_json_atomic(&good, &manifest_with_store(5, 0)).unwrap();
        let bad = dir.join("bad.json");
        hotgauge_telemetry::manifest::write_json_atomic(&bad, &manifest_with_store(1, 3)).unwrap();
        let cli = |rate: &str, path: &std::path::Path| {
            run_cli(&[
                "--check-store".to_string(),
                rate.to_string(),
                path.display().to_string(),
            ])
        };
        assert_eq!(cli("1.0", &good), 0);
        assert_eq!(cli("0.5", &bad), 1);
        assert_eq!(cli("2.0", &good), 2, "rate above 1.0 is a usage error");
        assert_eq!(cli("1.0", &dir.join("missing.json")), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
