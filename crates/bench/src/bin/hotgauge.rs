//! `hotgauge` — command-line front end for one-off co-simulation runs.
//!
//! ```text
//! hotgauge [--benchmark] <benchmark> [--node 14|10|7|5[nm]] [--core N]
//!          [--cold] [--ms HORIZON] [--cell UM] [--scale UNIT FACTOR]
//!          [--ic-area FACTOR] [--json PATH] [--quiet] [--progress]
//! ```
//!
//! `--json PATH` writes a schema-versioned run manifest (results plus, when
//! built with `--features telemetry`, per-stage timing and solver counters)
//! atomically to PATH; `-` prints it to stdout. Bad benchmark, node, core
//! or unit names, and out-of-range horizons, cell sizes or factors, exit
//! with status 2 instead of panicking.
//!
//! `hotgauge gate <baseline.json> <candidate.json> [...]` runs the
//! manifest-diff performance gate instead (see `hotgauge-perfgate`).
//!
//! `hotgauge serve --store DIR` and `hotgauge sweep [--spec PATH]` run the
//! NDJSON sweep service over the content-addressed result store (see
//! `hotgauge-store` and DESIGN.md "Sweep service & result store").

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{CoSimulation, SimConfig, WindowProgress};
use hotgauge_core::report::{fmt_tuh, TextTable};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_floorplan::unit::UnitKind;
use hotgauge_telemetry::manifest::{write_json_atomic, RunManifest};
use hotgauge_telemetry::progress::ProgressPrinter;
use hotgauge_telemetry::TelemetryReport;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::spec2006::ALL_BENCHMARKS;

const USAGE: &str = "usage: hotgauge [--benchmark] <benchmark> [options]
options:
  --benchmark NAME   workload to run (may also be given positionally)
  --node NODE        technology node: 14|10|7|5, `nm` suffix accepted
  --core N           target core, 0..6
  --cold             start from ambient instead of the idle-warm state
  --ms HORIZON       simulated horizon in milliseconds (> 0)
  --cell UM          thermal grid cell size in micrometers (> 0)
  --scale UNIT F     scale one unit kind's area by F > 0 (repeatable)
  --ic-area F        uniform IC area factor (>= 1)
  --json PATH        write the run manifest to PATH (`-` for stdout)
  --quiet            suppress the human-readable report
  --progress         report per-window liveness on stderr
  --help             show this message";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_node(s: &str) -> Option<TechNode> {
    match s.strip_suffix("nm").unwrap_or(s) {
        "14" => Some(TechNode::N14),
        "10" => Some(TechNode::N10),
        "7" => Some(TechNode::N7),
        "5" => Some(TechNode::N5),
        _ => None,
    }
}

fn unit_by_label(label: &str) -> Option<UnitKind> {
    UnitKind::CORE_KINDS
        .iter()
        .copied()
        .find(|k| k.label() == label)
}

fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| fail(format!("{flag} needs a value")))
}

/// Everything the CLI decides before running.
struct Cli {
    cfg: SimConfig,
    json_path: Option<String>,
    quiet: bool,
    progress: bool,
}

fn parse_args(args: &[String]) -> Cli {
    let fid = Fidelity::from_env();
    let mut cfg = fid.apply(SimConfig::new(TechNode::N7, ""));
    let mut benchmark: Option<String> = None;
    let mut json_path = None;
    let mut quiet = false;
    let mut progress = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--benchmark" => {
                benchmark = Some(flag_value(args, &mut i, "--benchmark").to_owned());
            }
            "--node" => {
                let v = flag_value(args, &mut i, "--node");
                cfg.node = parse_node(v)
                    .unwrap_or_else(|| fail(format!("unknown node {v} (expected 14|10|7|5)")));
            }
            "--core" => {
                let v = flag_value(args, &mut i, "--core");
                let core: usize = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("invalid core {v}")));
                if core >= 7 {
                    fail(format!("core {core} out of range (0..6)"));
                }
                cfg.target_core = core;
            }
            "--cold" => cfg.warmup = Warmup::Cold,
            "--ms" => {
                let v = flag_value(args, &mut i, "--ms");
                let ms: f64 = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("invalid horizon {v}")));
                cfg.max_time_s = ms * 1e-3;
            }
            "--cell" => {
                let v = flag_value(args, &mut i, "--cell");
                cfg.cell_um = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("invalid cell size {v}")));
            }
            "--scale" => {
                let unit_label = flag_value(args, &mut i, "--scale").to_owned();
                let unit = unit_by_label(&unit_label)
                    .unwrap_or_else(|| fail(format!("unknown unit {unit_label}")));
                let v = flag_value(args, &mut i, "--scale");
                let factor: f64 = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("invalid scale factor {v}")));
                cfg.unit_scales.push((unit, factor));
            }
            "--ic-area" => {
                let v = flag_value(args, &mut i, "--ic-area");
                cfg.ic_area_factor = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("invalid IC area factor {v}")));
            }
            "--json" => {
                json_path = Some(flag_value(args, &mut i, "--json").to_owned());
            }
            "--quiet" => quiet = true,
            "--progress" => progress = true,
            other if !other.starts_with('-') && benchmark.is_none() => {
                benchmark = Some(other.to_owned());
            }
            other => fail(format!("unknown argument {other}")),
        }
        i += 1;
    }

    let benchmark = benchmark.unwrap_or_else(|| fail("no benchmark given"));
    if !ALL_BENCHMARKS.contains(&benchmark.as_str()) && benchmark != "idle" {
        fail(format!(
            "unknown benchmark {benchmark} (expected one of: {}, idle)",
            ALL_BENCHMARKS.join(", ")
        ));
    }
    cfg.benchmark = benchmark;

    Cli {
        cfg,
        json_path,
        quiet,
        progress,
    }
}

#[derive(serde::Serialize)]
struct RunSummary {
    benchmark: String,
    node: String,
    tuh_s: Option<f64>,
    peak_severity: f64,
    rms_severity: f64,
    max_temp_c: f64,
    max_mltd_c: f64,
    hotspot_census: Vec<(String, u64)>,
    instructions: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `hotgauge gate BASELINE CANDIDATE [...]` — the manifest-diff perf
    // gate, shared with the standalone `hotgauge-perfgate` binary.
    if args.first().map(String::as_str) == Some("gate") {
        std::process::exit(hotgauge_perfgate::run_cli(&args[1..]));
    }
    // `hotgauge serve` / `hotgauge sweep` — the NDJSON sweep service over
    // the content-addressed result store (see hotgauge-store).
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(hotgauge_bench::resident::run_serve(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("sweep") {
        std::process::exit(hotgauge_bench::resident::run_sweep(&args[1..]));
    }
    let cli = parse_args(&args);
    let report = TelemetryReport::new("hotgauge").quiet(cli.quiet);

    let horizon = cli.cfg.max_time_s;
    let window_s = cli.cfg.window_seconds();
    let sim = match CoSimulation::try_new(cli.cfg) {
        Ok(sim) => sim,
        Err(e) => fail(e),
    };
    let r = if cli.progress {
        let total = (horizon / window_s).ceil().max(1.0) as u64;
        let printer = ProgressPrinter::new("window", total);
        let on_window = |p: WindowProgress| {
            printer.tick(&format!(
                "t={:.2}ms instrs={:.1}M",
                p.time_s * 1e3,
                p.instructions as f64 / 1e6
            ));
        };
        sim.run_with_progress(Some(&on_window))
    } else {
        sim.run()
    };

    let summary = RunSummary {
        benchmark: r.config.benchmark.clone(),
        node: r.config.node.label().to_owned(),
        tuh_s: r.tuh_s,
        peak_severity: r.peak_severity(),
        rms_severity: r.rms_severity(),
        max_temp_c: r.records.iter().map(|x| x.max_temp_c).fold(0.0, f64::max),
        max_mltd_c: r.records.iter().map(|x| x.max_mltd_c).fold(0.0, f64::max),
        hotspot_census: r.census.ranked(),
        instructions: r.total_instructions,
    };

    if let Some(path) = &cli.json_path {
        let mut manifest = RunManifest::new("hotgauge")
            .with_config("benchmark", &r.config.benchmark)
            .with_config("node", r.config.node.label())
            .with_config("core", r.config.target_core)
            .with_config("warmup", r.config.warmup.label())
            .with_config("cell_um", r.config.cell_um)
            .with_config("max_time_s", r.config.max_time_s)
            .with_config("ic_area_factor", r.config.ic_area_factor)
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

    if cli.quiet {
        return;
    }

    println!(
        "{} @ {} on core {} ({}), {:.1} ms simulated",
        r.config.benchmark,
        r.config.node.label(),
        r.config.target_core,
        r.config.warmup.label(),
        horizon * 1e3
    );
    let last = r.records.last().expect("steps");
    let mut table = TextTable::new(vec!["metric", "value"]);
    table.row(vec!["TUH".to_owned(), fmt_tuh(r.tuh_s, horizon)]);
    table.row(vec![
        "peak severity".to_owned(),
        format!("{:.2}", summary.peak_severity),
    ]);
    table.row(vec![
        "RMS severity".to_owned(),
        format!("{:.3}", summary.rms_severity),
    ]);
    table.row(vec![
        "max temperature".to_owned(),
        format!("{:.1} C", summary.max_temp_c),
    ]);
    table.row(vec![
        "max MLTD (1mm)".to_owned(),
        format!("{:.1} C", summary.max_mltd_c),
    ]);
    table.row(vec![
        "chip power (last window)".to_owned(),
        format!("{:.1} W", last.power_w),
    ]);
    table.row(vec![
        "IPC (last window)".to_owned(),
        format!("{:.2}", last.ipc),
    ]);
    table.row(vec![
        "instructions".to_owned(),
        format!("{:.1} M", summary.instructions as f64 / 1e6),
    ]);
    println!("{}", table.render());
    if r.census.total() > 0 {
        println!("hotspot locations:");
        for (unit, count) in summary.hotspot_census.iter().take(6) {
            println!("  {unit:<12} {count}");
        }
    }
    drop(report);
}
