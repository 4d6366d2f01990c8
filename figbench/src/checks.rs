//! Output checks and the results digest.
//!
//! A run or request whose output fails a check counts as failed; the
//! benchmark then reports `correct: false` and exits non-zero.

use hotgauge_core::pipeline::{RunResult, SimConfig};
use hotgauge_store::{key_of_value, SweepRequest, SweepRow};
use serde::Value;

use crate::serve_loop::Reply;

/// Check failures are logged up to this many messages per pass.
const MAX_LOGGED: usize = 8;

/// Counts failed runs and keeps the first few messages.
#[derive(Debug, Default)]
pub struct Checker {
    /// Runs or requests that failed a check.
    pub failed: u64,
    /// The first [`MAX_LOGGED`] failure messages.
    pub errors: Vec<String>,
}

impl Checker {
    /// Records the outcome of one run's checks.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(msg) = outcome {
            self.fail(1, msg);
        }
    }

    /// Records `n` failed runs with one message.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.errors.len() < MAX_LOGGED {
            self.errors.push(msg);
        }
    }
}

/// The latest simulated time a run may report: it steps whole windows, so
/// its last window can end up to one window past `max_time_s`.
pub fn horizon_s(cfg: &SimConfig) -> f64 {
    cfg.max_time_s + cfg.window_seconds()
}

fn finite_all(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

fn check_tuh(tuh_s: Option<f64>, horizon_s: f64) -> Result<(), String> {
    match tuh_s {
        Some(t) if !(t.is_finite() && t > 0.0 && t <= horizon_s) => {
            Err(format!("TUH {t} s outside (0, {horizon_s}] s"))
        }
        _ => Ok(()),
    }
}

fn check_severity(peak: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&peak) {
        Ok(())
    } else {
        Err(format!("peak severity {peak} outside [0, 1]"))
    }
}

/// Checks one batch result against the config it was run for: same run,
/// every record finite, TUH within the horizon, peak severity in [0, 1].
pub fn run_result(cfg: &SimConfig, r: &RunResult) -> Result<(), String> {
    let who = format!(
        "{} core {} {:?}",
        cfg.benchmark, cfg.target_core, cfg.warmup
    );
    if r.config.benchmark != cfg.benchmark
        || r.config.target_core != cfg.target_core
        || r.config.seed != cfg.seed
        || r.config.node != cfg.node
    {
        return Err(format!("{who}: result belongs to another run"));
    }
    if r.records.is_empty() {
        return Err(format!("{who}: no records"));
    }
    for s in &r.records {
        let scalars = [
            s.time_s,
            s.max_temp_c,
            s.mean_temp_c,
            s.min_temp_c,
            s.max_mltd_c,
            s.peak_severity,
            s.power_w,
            s.ipc,
        ];
        if !finite_all(&scalars) || !finite_all(&s.unit_severity) {
            return Err(format!("{who}: non-finite record at {} s", s.time_s));
        }
    }
    check_tuh(r.tuh_s, horizon_s(cfg)).map_err(|e| format!("{who}: {e}"))?;
    check_severity(r.peak_severity()).map_err(|e| format!("{who}: {e}"))
}

/// Checks one serve reply: it is a row for the request, came from the
/// expected source (a first request misses, a re-send hits), is finite and
/// in range, and a hit equals its earlier miss apart from `seq`, `total`
/// and `source`.
pub fn serve_reply(
    req: &SweepRequest,
    reply: &Reply,
    first: Option<&Reply>,
    miss: bool,
    horizon_s: f64,
) -> Result<(), String> {
    let Some(row) = &reply.row else {
        return Err(format!("not a result row: {}", reply.line));
    };
    let who = format!("{} core {:?} seed {:?}", req.benchmark, req.core, req.seed);
    let want = if miss { "sim" } else { "store" };
    if row.source != want {
        return Err(format!("{who}: source {} (want {want})", row.source));
    }
    if row.benchmark != req.benchmark
        || Some(row.target_core) != req.core
        || Some(row.seed) != req.seed
    {
        return Err(format!("{who}: row belongs to another request"));
    }
    if !finite_all(&[row.peak_severity, row.rms_severity]) {
        return Err(format!("{who}: non-finite severity"));
    }
    check_tuh(row.tuh_s, horizon_s).map_err(|e| format!("{who}: {e}"))?;
    check_severity(row.peak_severity).map_err(|e| format!("{who}: {e}"))?;
    if !miss {
        let earlier = first.and_then(|f| f.row.as_ref());
        if earlier.map(row_identity) != Some(row_identity(row)) {
            return Err(format!("{who}: hit differs from its miss"));
        }
    }
    Ok(())
}

/// A row's value tree without the per-batch position and the provenance,
/// the fields a hit may legitimately change.
pub fn row_identity(row: &SweepRow) -> Value {
    match serde_json::to_value(row) {
        Value::Map(entries) => Value::Map(
            entries
                .into_iter()
                .filter(|(k, _)| !matches!(k.as_str(), "seq" | "total" | "source"))
                .collect(),
        ),
        other => other,
    }
}

/// [`row_identity`] of a reply, or its raw line when it was not a row.
pub fn reply_identity(reply: &Reply) -> Value {
    match &reply.row {
        Some(row) => row_identity(row),
        None => Value::Str(reply.line.clone()),
    }
}

/// The content key of a value tree, as hex.
pub fn digest(v: &Value) -> String {
    key_of_value(v).as_hex().to_owned()
}
