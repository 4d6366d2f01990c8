//! `compare A.jsonl B.jsonl`: one verdict per workload and end-to-end
//! metric between two commits' untraced runs (choosing-metrics §6 and §8).
//!
//! Run the two commits alternately with `--jsonl`, one file per commit, so
//! the i-th record of each file forms a pair. The metric list, directions
//! and bounds come from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt;

use serde::Value;

use crate::stats::{median, quartiles};

/// A claimed gain needs the change to win at least this share of pairs.
const WIN_SHARE: f64 = 0.9;

/// The outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins ≥ 90 % of pairs and the medians differ by more than A's
    /// interquartile range.
    Improved,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own spread is wider than the bound, and B does not beat every
    /// run of A.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges B against A. `lower_better` is the metric's direction and
/// `bound` the share of A's median it may worsen by. Returns the verdict
/// and the share of pairs `(a[i], b[i])` that B won (ties count for
/// neither side).
pub fn verdict(a: &[f64], b: &[f64], lower_better: bool, bound: f64) -> (Verdict, f64) {
    let better = |x: f64, than: f64| if lower_better { x < than } else { x > than };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let win_share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let iqr = q3 - q1;
    let worse_by = if lower_better { mb - ma } else { ma - mb } / ma.abs();
    let spread = iqr / ma.abs();
    let beats_all = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let v = if win_share >= WIN_SHARE && worse_by < 0.0 && (mb - ma).abs() > iqr {
        Verdict::Improved
    } else if spread > bound && !beats_all {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (v, win_share)
}

/// One end-to-end metric's definition from `BENCHMARK.json`.
struct MetricDef {
    name: String,
    lower_better: bool,
    bound: f64,
}

fn metric_defs(bench: &Value) -> Result<Vec<MetricDef>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok(MetricDef {
                    name: n.to_owned(),
                    lower_better: b == "lower",
                    bound: x,
                }),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_owned()),
            }
        })
        .collect()
}

/// workload → metric → values, in file order, from the untraced records.
type Series = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_series(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Series::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let metrics = rec.get("metrics").and_then(Value::as_map).unwrap_or(&[]);
        let slot = out.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// `compare A.jsonl B.jsonl [--bounds BENCHMARK.json]`. Succeeds unless
/// some metric is worse.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds = "BENCHMARK.json".to_owned();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare needs exactly two JSONL files".to_owned());
    };
    let bench: Value = serde_json::from_str(
        &std::fs::read_to_string(&bounds).map_err(|e| format!("cannot read {bounds}: {e}"))?,
    )
    .map_err(|e| format!("{bounds}: {e}"))?;
    let defs = metric_defs(&bench)?;
    let (a, b) = (read_series(a_path)?, read_series(b_path)?);

    println!(
        "{:<16} {:<14} {:>27} {:>27} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut ok = true;
    for (workload, a_metrics) in &a {
        for def in &defs {
            let (Some(av), Some(bv)) = (
                a_metrics.get(&def.name),
                b.get(workload).and_then(|m| m.get(&def.name)),
            ) else {
                continue;
            };
            let (v, wins) = verdict(av, bv, def.lower_better, def.bound);
            ok &= v != Verdict::Worse;
            let cell = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4} [{:.4}, {:.4}]", median(x), q1, q3)
            };
            println!(
                "{:<16} {:<14} {:>27} {:>27} {:>5.0}%  {v} (bound {:.0}%)",
                workload,
                def.name,
                cell(av),
                cell(bv),
                wins * 100.0,
                def.bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_protocol() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, true, 0.1).0, Verdict::Improved);
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&a, &same, true, 0.1).0, Verdict::WithinBound);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &slower, true, 0.1).0, Verdict::Worse);
        // Higher-is-better metrics flip the direction.
        assert_eq!(verdict(&a, &slower, false, 0.1).0, Verdict::Improved);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.1).0, Verdict::Unresolved);
    }
}
