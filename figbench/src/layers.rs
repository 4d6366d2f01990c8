//! The metric catalogue and the per-layer numbers read from the program's
//! own spans and counters.
//!
//! The traced build reads what the program already records through
//! `hotgauge_telemetry::snapshot()`; no span is added inside the program.
//! Layers without a span today are timed from outside by the probe.

use std::collections::BTreeMap;

use hotgauge_telemetry::Snapshot;

/// End-to-end metrics: name and unit. Host time, not simulated time.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_ms_per_s", "ms/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("perf.core_warmup_ms", "ms"),
    ("perf.warmup_minstr_per_s", "Minstr/s"),
    ("perf.step_s", "s"),
    ("perf.roi_minstr", "Minstr"),
    ("pipeline.construct_ms", "ms"),
    ("pipeline.construct_residual_ms", "ms"),
    ("pipeline.construct_est_s", "s"),
    ("pipeline.substeps", "count"),
    ("pipeline.stepping_s", "s"),
    ("pipeline.outside_stages_s", "s"),
    ("thermal.idle_warmup_ms", "ms"),
    ("thermal.prepare_ms", "ms"),
    ("thermal.factor_s", "s"),
    ("thermal.direct_fallbacks", "count"),
    ("thermal.step_s", "s"),
    ("thermal.solve_s", "s"),
    ("thermal.cg_iters_per_solve", "iters"),
    ("floorplan.build_ms", "ms"),
    ("floorplan.rasterize_ms", "ms"),
    ("floorplan.power_map_s", "s"),
    ("power.model_new_ms", "ms"),
    ("power.step_s", "s"),
    ("analysis.detect_s", "s"),
    ("analysis.prefilter_skip_frac", "frac"),
    ("sweep.run_s", "s"),
    ("sweep.pool_busy_frac", "frac"),
    ("sweep.lockstep_frac", "frac"),
    ("sweep.arena_reuse_frac", "frac"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.object_kb", "KB"),
    ("store.hit_rate", "frac"),
    ("store.writes", "count"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_overhead_ms", "ms"),
    ("unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.dropped_events", "count"),
];

/// The per-substep stages of the run loop, disjoint siblings under a run.
const STAGES: [&str; 5] = [
    "stage.perf",
    "stage.power",
    "stage.rasterize",
    "stage.thermal",
    "stage.detect",
];

/// `a / b`, or 0 when nothing was recorded.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The layer metrics a traced pass reads from the snapshot, plus
/// `geometry_builds` (work items that built their geometry rather than
/// recycling it), an input of `pipeline.construct_est_s`. `workers` is the
/// pool width of each executor call.
pub fn from_snapshot(snap: &Snapshot, workers: usize) -> BTreeMap<String, f64> {
    let span_s = |label: &str| snap.span(label).map_or(0.0, |s| s.total_ns as f64 * 1e-9);
    let span_calls = |label: &str| snap.span(label).map_or(0.0, |s| s.calls as f64);
    let total = |label: &str| snap.counter(label).map_or(0.0, |c| c.total);
    let calls = |label: &str| snap.counter(label).map_or(0.0, |c| c.calls as f64);

    let stepping: f64 = STAGES.iter().map(|s| span_s(s)).sum();
    let run_s = span_s("sweep.run");
    let items = span_calls("sweep.run");
    let reuse = total("sweep.arena_reuse");
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_owned(), v);
    };
    put("perf.step_s", span_s("stage.perf"));
    put("perf.roi_minstr", total("perf.instructions") * 1e-6);
    put("power.step_s", span_s("stage.power"));
    put("floorplan.power_map_s", span_s("stage.rasterize"));
    put("thermal.step_s", span_s("stage.thermal"));
    // Every linear solve, including the idle warm-up's outside the stages.
    put(
        "thermal.solve_s",
        span_s("thermal.cg_solve") + span_s("thermal.direct_solve"),
    );
    put("thermal.factor_s", span_s("thermal.factor"));
    put(
        "thermal.direct_fallbacks",
        total("thermal.direct_fallbacks"),
    );
    put(
        "thermal.cg_iters_per_solve",
        ratio(
            total("thermal.cg_iterations"),
            calls("thermal.cg_iterations"),
        ),
    );
    put("analysis.detect_s", span_s("stage.detect"));
    put(
        "analysis.prefilter_skip_frac",
        ratio(
            total("analysis.prefilter_skips"),
            total("pipeline.substeps"),
        ),
    );
    put("pipeline.substeps", total("pipeline.substeps"));
    put("pipeline.stepping_s", stepping);
    // Self time of the run spans: everything a run does outside the stages
    // (construction, warm-ups, result assembly).
    put("pipeline.outside_stages_s", run_s - stepping);
    put("sweep.run_s", run_s);
    put(
        "sweep.pool_busy_frac",
        ratio(run_s, workers as f64 * span_s("sweep.executor")),
    );
    put(
        "sweep.lockstep_frac",
        ratio(total("solver.lockstep_runs"), total("sweep.jobs")),
    );
    put("sweep.arena_reuse_frac", ratio(reuse, items));
    put("trace.dropped_events", snap.dropped_events as f64);
    put("geometry_builds", items - reuse);
    m
}
