//! Pinned performance-measurement harness behind the CI perf gate and
//! `BENCH_telemetry.json`.
//!
//! Runs one fig11-style sweep grid (every SPEC proxy × all 7 cores, one
//! geometry) through `run_many` for `--rounds` back-to-back rounds and
//! emits a run manifest whose schema-v2 metrics — per-stage latency
//! percentiles and allocation attribution under `--features telemetry` —
//! plus `gate_*` wall-clock leaves in `results` are what
//! `hotgauge gate` / `hotgauge-perfgate` compare between two builds.
//!
//! The telemetry recorder is *not* reset between rounds, so the stage
//! histograms accumulate samples from every round — percentiles come from
//! `rounds × runs` spans, not just the last round. For A/B comparisons run
//! the two binaries in alternating rounds externally (see BENCH_telemetry);
//! within one process this harness just measures itself honestly:
//! `gate_min_s` (best round) is the noise-robust headline, `gate_mean_s`
//! and `gate_total_s` ride along.
//!
//! Round `r` runs the grid at seed `r - 1`. A repeated seed would replay
//! every workload stream from the process's activity-trace table, and the
//! best round would stop measuring the core warm-ups a fresh process pays.
//!
//! ```text
//! perf_rounds [--rounds N] [--threads N] [--json PATH] [--quiet]
//! ```
//!
//! Fidelity comes from the environment (`HOTGAUGE_SMOKE=1` in CI).

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{run_many, SimConfig};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_telemetry::manifest::{write_json_atomic, RunManifest};
use hotgauge_telemetry::TelemetryReport;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::spec2006::ALL_BENCHMARKS;

const USAGE: &str = "usage: perf_rounds [--rounds N] [--threads N] [--json PATH] [--quiet]
  --rounds N   measurement rounds over the pinned sweep grid (default 3)
  --threads N  sweep executor width (default 1 for stable timings)
  --json PATH  write the run manifest to PATH (`-` for stdout)
  --quiet      suppress per-round progress lines";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

#[derive(serde::Serialize)]
struct RoundsSummary {
    rounds: u64,
    runs_per_round: u64,
    threads: u64,
    hotspots: u64,
    round_wall_s: Vec<f64>,
    /// Best (minimum) round wall time — the noise-robust gated headline.
    gate_min_s: f64,
    /// Mean round wall time.
    gate_mean_s: f64,
    /// Summed wall time across all rounds.
    gate_total_s: f64,
    peak_rss_kb: u64,
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds: u64 = 3;
    let mut threads: usize = 1;
    let mut json_path: Option<String> = None;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| fail(format!("{flag} needs a value")))
        };
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--rounds" => {
                let v = value(&mut i, "--rounds");
                rounds = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail(format!("invalid round count {v}")));
            }
            "--threads" => {
                let v = value(&mut i, "--threads");
                threads = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail(format!("invalid thread count {v}")));
            }
            "--json" => json_path = Some(value(&mut i, "--json")),
            "--quiet" => quiet = true,
            other => fail(format!("unknown argument {other}")),
        }
        i += 1;
    }

    let report = TelemetryReport::new("perf_rounds").quiet(quiet);
    let fid = Fidelity::from_env();
    let mut cfgs = Vec::new();
    for bench in ALL_BENCHMARKS {
        for core in 0..7 {
            let mut c = fid.apply(SimConfig::new(TechNode::N7, bench));
            c.warmup = Warmup::Cold;
            c.target_core = core;
            cfgs.push(c);
        }
    }
    let runs_per_round = cfgs.len() as u64;

    let mut round_wall_s = Vec::with_capacity(rounds as usize);
    let mut hotspots = 0u64;
    for round in 1..=rounds {
        for c in &mut cfgs {
            c.seed = round - 1;
        }
        let t0 = std::time::Instant::now();
        let rs = run_many(cfgs.clone(), threads);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(rs.len(), cfgs.len(), "sweep dropped runs");
        hotspots = rs.iter().filter(|r| r.tuh_s.is_some()).count() as u64;
        if !quiet {
            println!("round {round}/{rounds}: wall_s={wall:.3} runs={runs_per_round} hotspots={hotspots}");
        }
        round_wall_s.push(wall);
    }

    let gate_total_s: f64 = round_wall_s.iter().sum();
    let gate_min_s = round_wall_s.iter().copied().fold(f64::INFINITY, f64::min);
    let summary = RoundsSummary {
        rounds,
        runs_per_round,
        threads: threads as u64,
        hotspots,
        gate_min_s,
        gate_mean_s: gate_total_s / rounds as f64,
        gate_total_s,
        round_wall_s,
        peak_rss_kb: peak_rss_kb(),
    };
    if !quiet {
        println!(
            "rounds={} best_s={:.3} mean_s={:.3} total_s={:.3} peak_rss_kb={}",
            summary.rounds,
            summary.gate_min_s,
            summary.gate_mean_s,
            summary.gate_total_s,
            summary.peak_rss_kb
        );
    }

    if let Some(path) = &json_path {
        let mut manifest = RunManifest::new("perf_rounds")
            .with_config("node", TechNode::N7.label())
            .with_config("benchmarks", ALL_BENCHMARKS.len())
            .with_config("cores", 7)
            .with_config("rounds", rounds)
            .with_config("threads", threads)
            .with_config("cell_um", fid.cell_um)
            .with_config("max_time_s", fid.max_time_s)
            .with_config("sample_instrs", fid.sample_instrs)
            .with_config("lint_policy_version", hotgauge_lint::POLICY_VERSION)
            .with_config("lint_rule_count", hotgauge_lint::RULE_COUNT);
        manifest.set_results(&summary);
        manifest.capture_metrics();
        if path == "-" {
            println!(
                "{}",
                serde_json::to_string_pretty(&manifest).expect("manifest serializes")
            );
        } else if let Err(e) = write_json_atomic(std::path::Path::new(path), &manifest) {
            eprintln!("error: failed to write manifest to {path}: {e}");
            std::process::exit(1);
        }
    }
    drop(report);
}
