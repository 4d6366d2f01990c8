//! `hotgauge-benchmark`: the figure-grid benchmark of HotGauge-rs.
//!
//! ```text
//! hotgauge-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//!                    [--scale full|tiny] [--traced-bin PATH] [--tmp DIR] [--jsonl PATH]
//! hotgauge-benchmark pass|setup|probe --workload NAME --seed N [--scale full|tiny] [--tmp DIR]
//! hotgauge-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! The first form measures one workload. Untraced (`--trace 0`), it runs
//! timed passes, each in a fresh child process, until `--seconds` have
//! passed (at least three), checks every output, and prints the end-to-end
//! metrics as medians over the passes (`peak_rss_mb` as their largest);
//! `setup_s` also takes the set-up of extra children that stop where the
//! timed pass would begin. Traced (`--trace 1`), it runs one
//! untraced pass, one pass of the `telemetry` build (`--traced-bin`), and
//! the probe, and prints the per-layer metrics. Either way the last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is non-zero when an output check failed.
//!
//! `pass`, `setup` and `probe` are the child processes. `compare` reads the
//! `--jsonl` records of two commits and prints one verdict per workload and
//! end-to-end metric.

mod checks;
mod clock;
mod compare;
mod layers;
mod probe;
mod serve_loop;
mod stats;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::{Deserialize, Serialize, Value};

use crate::clock::Stopwatch;
use crate::stats::{median, p90};
use crate::workload::{Jobs, Scale, Workload};

/// Untraced runs measure at least this many passes, however short
/// `--seconds` is, so every reported number is a median.
const MIN_PASSES: usize = 3;
/// And at most this many, however long.
const MAX_PASSES: usize = 15;
/// Extra set-ups measured per untraced run, on top of one per pass: a
/// set-up takes about a millisecond, so its median needs many samples.
const SETUP_SAMPLES: usize = 20;

/// What one `pass` child prints: its measurements, checks and (traced
/// build only) the layer numbers read from the program's telemetry.
#[derive(Debug, Serialize, Deserialize)]
struct PassReport {
    workload: String,
    seed: u64,
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    sim_ms: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    results_digest: String,
    checked_digest: String,
    workers: u64,
    simulated: u64,
    idle_geometries: u64,
    /// Serve only: closed-loop request latency percentiles, ms.
    latency_ms: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
}

/// Parsed command line of the measuring form and the children.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    traced_bin: Option<PathBuf>,
    tmp: PathBuf,
    jsonl: Option<PathBuf>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("pass") => parse(&argv[1..]).and_then(|a| pass(&a)),
        Some("setup") => parse(&argv[1..]).and_then(|a| setup(&a)),
        Some("probe") => parse(&argv[1..]).and_then(|a| run_probe(&a)),
        Some("compare") => compare::main(&argv[1..]),
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => parse(&argv).and_then(|a| measure(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "usage: hotgauge-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] \
     [--scale full|tiny] [--traced-bin PATH] [--tmp DIR] [--jsonl PATH]\n       \
     hotgauge-benchmark pass|setup|probe --workload NAME --seed N [--scale full|tiny] [--tmp DIR]\n       \
     hotgauge-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json]\n\
     workloads: fig11_grid sec5b_ladder transient_long serve_mixed"
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut args = Args {
        workload: Workload::Fig11Grid,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        traced_bin: None,
        tmp: default_tmp(),
        jsonl: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--scale" => {
                let v = value("--scale")?;
                args.scale = Scale::parse(&v).ok_or(format!("unknown scale `{v}`"))?;
            }
            "--traced-bin" => args.traced_bin = Some(PathBuf::from(value("--traced-bin")?)),
            "--tmp" => args.tmp = PathBuf::from(value("--tmp")?),
            "--jsonl" => args.jsonl = Some(PathBuf::from(value("--jsonl")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// Scratch space for stores: under the build directory, inside the checkout.
fn default_tmp() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("figbench-tmp")
}

fn child_args(a: &Args, mode: &str) -> Vec<String> {
    vec![
        mode.to_owned(),
        "--workload".to_owned(),
        a.workload.name().to_owned(),
        "--seed".to_owned(),
        a.seed.to_string(),
        "--scale".to_owned(),
        a.scale.name().to_owned(),
        "--tmp".to_owned(),
        a.tmp.display().to_string(),
    ]
}

/// `setup`: everything a pass does before its timed section, then exit.
/// Prints the CPU time that set-up took.
fn setup(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&a.tmp)
        .map_err(|e| format!("cannot create {}: {e}", a.tmp.display()))?;
    let jobs = Jobs::new(a.workload, a.seed, a.scale);
    let out = workload::run_pass(jobs, &a.tmp, true)?;
    println!("{{\"setup_s\":{}}}", out.setup_s);
    Ok(true)
}

/// `pass`: one timed pass in this fresh process.
fn pass(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&a.tmp)
        .map_err(|e| format!("cannot create {}: {e}", a.tmp.display()))?;
    let jobs = Jobs::new(a.workload, a.seed, a.scale);
    let out = workload::run_pass(jobs, &a.tmp, false)?;
    let peak_rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    // Without the telemetry feature the snapshot is empty and every
    // span-derived layer reads 0.
    let layers = layers::from_snapshot(&hotgauge_telemetry::snapshot(), out.workers);
    let mut latency_ms = BTreeMap::new();
    for (name, v) in [("hit", &out.hit_ms), ("miss", &out.miss_ms)] {
        if !v.is_empty() {
            latency_ms.insert(format!("{name}_p50"), median(v));
            latency_ms.insert(format!("{name}_p90"), p90(v));
        }
    }
    let report = PassReport {
        workload: a.workload.name().to_owned(),
        seed: a.seed,
        traced: clock::TRACED,
        setup_s: out.setup_s,
        wall_s: out.wall_s,
        sim_ms: out.sim_ms,
        peak_rss_mb,
        attempted: out.attempted,
        failed: out.failed,
        errors: out.errors,
        results_digest: out.digest,
        checked_digest: out.checked_digest,
        workers: out.workers as u64,
        simulated: out.simulated,
        idle_geometries: out.idle_geometries,
        latency_ms,
        layers,
    };
    let line = serde_json::to_string(&report).map_err(|e| format!("cannot encode: {e}"))?;
    println!("{line}");
    Ok(report.failed == 0)
}

/// `probe`: the outside-in layer timings, in this fresh process.
fn run_probe(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&a.tmp)
        .map_err(|e| format!("cannot create {}: {e}", a.tmp.display()))?;
    let jobs = Jobs::new(a.workload, a.seed, a.scale);
    let m = probe::run(&jobs, &a.tmp)?;
    let line = serde_json::to_string(&m).map_err(|e| format!("cannot encode: {e}"))?;
    println!("{line}");
    Ok(true)
}

/// Peak resident set size of this process (VmHWM), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Spawns `bin` with `args`, waits for it, and parses the last stdout line
/// as `T`.
fn spawn_json<T: Deserialize>(bin: &Path, args: &[String]) -> Result<T, String> {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    serde_json::from_str::<T>(last).map_err(|e| {
        format!(
            "{} {} ({}): bad output: {e}",
            bin.display(),
            args[0],
            out.status
        )
    })
}

/// Everything a measuring run reports.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Every pass's `results_digest`: reported.
    digests: Vec<String>,
    /// Every pass's `checked_digest`: must all agree.
    checked: Vec<String>,
}

impl Tally {
    fn add(&mut self, r: &PassReport) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.errors.extend(r.errors.iter().cloned());
        self.digests.push(r.results_digest.clone());
        self.checked.push(r.checked_digest.clone());
    }

    fn crash(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(msg);
    }
}

/// The measuring form: runs the passes (and probe), checks, prints the
/// result line.
fn measure(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&a.tmp)
        .map_err(|e| format!("cannot create {}: {e}", a.tmp.display()))?;
    let me = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut tally = Tally::default();
    let metrics = if a.trace {
        measure_traced(a, &me, &mut tally)
    } else {
        measure_untraced(a, &me, &mut tally)
    };
    if tally.checked.windows(2).any(|w| w[0] != w[1]) {
        tally.failed += 1;
        tally.errors.push(format!(
            "checked digests differ between passes: {:?}",
            tally.checked
        ));
    }
    let variants: BTreeSet<&String> = tally.digests.iter().collect();
    eprintln!(
        "results digests: {} distinct over {} passes {:?}",
        variants.len(),
        tally.digests.len(),
        variants
    );
    let wanted: &[(&str, &str)] = if a.trace {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };
    let mut out = Vec::new();
    for &(name, unit) in wanted {
        match metrics.get(name).copied() {
            Some(v) if v.is_finite() => out.push((
                name.to_owned(),
                Value::Map(vec![
                    ("value".to_owned(), Value::F64(v)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ]),
            )),
            other => {
                tally.failed += 1;
                tally
                    .errors
                    .push(format!("metric {name} unavailable ({other:?})"));
            }
        }
    }
    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    let correct = tally.failed == 0;
    let result = Value::Map(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::U64(tally.attempted.max(1))),
        ("failed".to_owned(), Value::U64(tally.failed)),
        ("metrics".to_owned(), Value::Map(out)),
    ]);
    let line = serde_json::to_string(&result).map_err(|e| format!("cannot encode: {e}"))?;
    if let Some(path) = &a.jsonl {
        append_record(path, a, &result)?;
    }
    println!("{line}");
    Ok(correct)
}

fn measure_untraced(a: &Args, me: &Path, tally: &mut Tally) -> BTreeMap<String, f64> {
    let args = child_args(a, "pass");
    let timer = Stopwatch::start();
    let (mut setup, mut wall, mut rate, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut runs = 0;
    while runs < MIN_PASSES || (timer.elapsed_s() < a.seconds && runs < MAX_PASSES) {
        runs += 1;
        match spawn_json::<PassReport>(me, &args) {
            Ok(r) => {
                setup.push(r.setup_s);
                wall.push(r.wall_s);
                rate.push(r.sim_ms / r.wall_s);
                rss.push(r.peak_rss_mb);
                tally.add(&r);
            }
            Err(e) => tally.crash(e),
        }
    }
    let setup_args = child_args(a, "setup");
    for _ in 0..SETUP_SAMPLES {
        match spawn_json::<Value>(me, &setup_args) {
            Ok(v) => setup.extend(v.get("setup_s").and_then(Value::as_f64)),
            Err(e) => tally.crash(e),
        }
    }
    let mut m = BTreeMap::new();
    if !wall.is_empty() {
        m.insert("setup_s".to_owned(), median(&setup));
        m.insert("wall_s".to_owned(), median(&wall));
        m.insert("sim_ms_per_s".to_owned(), median(&rate));
        // The largest, not the median: passes of the same input can differ
        // by up to a megabyte with the allocator's heap layout, and the
        // largest is what a user provisions.
        m.insert(
            "peak_rss_mb".to_owned(),
            rss.iter().copied().fold(f64::NAN, f64::max),
        );
    }
    m
}

fn measure_traced(a: &Args, me: &Path, tally: &mut Tally) -> BTreeMap<String, f64> {
    let traced_bin = a.traced_bin.clone().unwrap_or_else(|| me.to_path_buf());
    let args = child_args(a, "pass");
    let plain = spawn_json::<PassReport>(me, &args);
    let traced = spawn_json::<PassReport>(&traced_bin, &args);
    let probe = spawn_json::<BTreeMap<String, f64>>(me, &child_args(a, "probe"));
    let (plain, traced, probe) = match (plain, traced, probe) {
        (Ok(p), Ok(t), Ok(pr)) => (p, t, pr),
        (p, t, pr) => {
            for e in [p.err(), t.err(), pr.err()].into_iter().flatten() {
                tally.crash(e);
            }
            return BTreeMap::new();
        }
    };
    tally.add(&plain);
    tally.add(&traced);
    if !traced.traced {
        eprintln!(
            "warning: {} is not a telemetry build; span-derived layers read 0",
            traced_bin.display()
        );
    }
    let mut m = traced.layers.clone();
    m.extend(probe);
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let construct_est_s = (traced.simulated as f64 * get("construct_per_run_ms")
        + get("geometry_builds") * get("construct_per_geometry_ms")
        + traced.idle_geometries as f64 * get("thermal.idle_warmup_ms"))
        * 1e-3;
    let attributed = get("pipeline.stepping_s") + construct_est_s;
    let capacity = traced.workers.max(1) as f64 * traced.wall_s;
    m.insert("pipeline.construct_est_s".to_owned(), construct_est_s);
    m.insert("unattributed_frac".to_owned(), 1.0 - attributed / capacity);
    m.insert(
        "trace.overhead_frac".to_owned(),
        traced.wall_s / plain.wall_s - 1.0,
    );
    m
}

/// Appends the run's result, tagged with what was run, to a JSONL file
/// for `compare`.
fn append_record(path: &Path, a: &Args, result: &Value) -> Result<(), String> {
    let mut fields = vec![
        (
            "workload".to_owned(),
            Value::Str(a.workload.name().to_owned()),
        ),
        ("seed".to_owned(), Value::U64(a.seed)),
        ("trace".to_owned(), Value::Bool(a.trace)),
    ];
    if let Value::Map(entries) = result {
        fields.extend(entries.iter().cloned());
    }
    let line =
        serde_json::to_string(&Value::Map(fields)).map_err(|e| format!("cannot encode: {e}"))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}
