//! Shared command-line plumbing for the figure/table regeneration binaries.
//!
//! Every bin accepts the same observability flags:
//!
//! * `--json PATH` — write a schema-versioned [`RunManifest`] (results plus,
//!   under `--features telemetry`, per-stage timing and solver counters)
//!   atomically to PATH; `-` prints it to stdout.
//! * `--threads N` — the sweep executor's worker-pool width for multi-run
//!   bins (default: one per hardware thread; results are bit-identical
//!   either way). Sweep bins record the realized pool shape in their
//!   manifests.
//! * `--batch K` — batch width for sweep bins: up to `K` same-geometry
//!   runs share one construction, at most [`hotgauge_core::MAX_BATCH_WIDTH`]
//!   (default: [`hotgauge_core::DEFAULT_BATCH_WIDTH`]; `1` disables
//!   batching; results are bit-identical at every width).
//! * `--store DIR` — route sweeps through the content-addressed result
//!   store at DIR: unchanged runs are served from disk bit-identically,
//!   fresh runs are persisted, and the manifest gains a `store` block with
//!   the hit/miss counters.
//! * `--delta PREV` — with `--store`: serve only runs whose key appears in
//!   the previous sweep's index (PREV is an `index.json` or a store
//!   directory); everything else re-simulates.
//! * `--quiet` — suppress the human-readable tables (useful with `--json`).
//! * `--help` — print the shared usage text.
//!
//! Unknown arguments exit with status 2 instead of panicking.

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::SweepProgress;
use hotgauge_store::{DeltaBasis, ResultStore, StoreStats};
use hotgauge_telemetry::manifest::{write_json_atomic, RunManifest};
use hotgauge_telemetry::progress::ProgressPrinter;
use hotgauge_telemetry::TelemetryReport;
use serde::Serialize;

/// Observability flags shared by all figure/table bins.
///
/// Holds the [`TelemetryReport`] guard, so keep the value alive until the end
/// of `main`: the per-label timing table (telemetry builds only) prints when
/// it drops.
pub struct BinArgs {
    tool: &'static str,
    json_path: Option<String>,
    quiet: bool,
    threads: Option<usize>,
    batch: Option<usize>,
    /// `(jobs, realized pool width)` of the bin's sweep, when noted.
    sweep_shape: std::cell::Cell<Option<(usize, usize)>>,
    store_dir: Option<String>,
    delta_path: Option<String>,
    /// Store counters accumulated across this bin's sweeps, when noted.
    store_stats: std::cell::Cell<Option<StoreStats>>,
    _report: TelemetryReport,
}

impl BinArgs {
    /// Parses the shared flags from the process arguments.
    ///
    /// `tool` names the bin in `--help` output and in the manifest.
    pub fn parse(tool: &'static str) -> Self {
        let mut json_path = None;
        let mut quiet = false;
        let mut threads = None;
        let mut batch = None;
        let mut store_dir = None;
        let mut delta_path = None;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--help" | "-h" => {
                    println!(
                        "usage: {tool} [--json PATH] [--threads N] [--batch K] [--store DIR [--delta PREV]] [--quiet]\n\
                         \x20 --json PATH        write the run manifest to PATH (`-` for stdout)\n\
                         \x20 --threads N        sweep worker-pool width (default: all hardware threads)\n\
                         \x20 --batch K          runs sharing one construction in sweeps (default: {}; 1 disables)\n\
                         \x20 --store DIR        serve unchanged runs from the result store at DIR\n\
                         \x20 --delta PREV       with --store: only serve keys from PREV's index.json\n\
                         \x20 --quiet            suppress the human-readable tables",
                        hotgauge_core::DEFAULT_BATCH_WIDTH
                    );
                    std::process::exit(0);
                }
                "--json" => {
                    i += 1;
                    match args.get(i) {
                        Some(p) => json_path = Some(p.clone()),
                        None => {
                            eprintln!("error: --json needs a value");
                            std::process::exit(2);
                        }
                    }
                }
                "--threads" => {
                    i += 1;
                    let Some(v) = args.get(i) else {
                        eprintln!("error: --threads needs a value");
                        std::process::exit(2);
                    };
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => threads = Some(n),
                        _ => {
                            eprintln!("error: invalid thread count {v} (expected an integer >= 1)");
                            std::process::exit(2);
                        }
                    }
                }
                "--batch" => {
                    i += 1;
                    let Some(v) = args.get(i) else {
                        eprintln!("error: --batch needs a value");
                        std::process::exit(2);
                    };
                    match v.parse::<usize>() {
                        Ok(k) if (1..=hotgauge_core::MAX_BATCH_WIDTH).contains(&k) => {
                            batch = Some(k)
                        }
                        _ => {
                            eprintln!(
                                "error: invalid batch width {v} (expected 1..={})",
                                hotgauge_core::MAX_BATCH_WIDTH
                            );
                            std::process::exit(2);
                        }
                    }
                }
                "--store" => {
                    i += 1;
                    match args.get(i) {
                        Some(d) => store_dir = Some(d.clone()),
                        None => {
                            eprintln!("error: --store needs a directory");
                            std::process::exit(2);
                        }
                    }
                }
                "--delta" => {
                    i += 1;
                    match args.get(i) {
                        Some(p) => delta_path = Some(p.clone()),
                        None => {
                            eprintln!("error: --delta needs a previous index.json or store dir");
                            std::process::exit(2);
                        }
                    }
                }
                "--quiet" => quiet = true,
                other => {
                    eprintln!("error: unknown argument {other} (see {tool} --help)");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        if delta_path.is_some() && store_dir.is_none() {
            eprintln!("error: --delta requires --store (see {tool} --help)");
            std::process::exit(2);
        }
        let _report = TelemetryReport::new(tool).quiet(quiet);
        Self {
            tool,
            json_path,
            quiet,
            threads,
            batch,
            sweep_shape: std::cell::Cell::new(None),
            store_dir,
            delta_path,
            store_stats: std::cell::Cell::new(None),
            _report,
        }
    }

    /// The `--batch` width for sweep bins, defaulting to
    /// [`hotgauge_core::DEFAULT_BATCH_WIDTH`] when the flag was not given.
    pub fn batch(&self) -> usize {
        self.batch.unwrap_or(hotgauge_core::DEFAULT_BATCH_WIDTH)
    }

    /// Notes the sweep size this bin is about to run with `threads` (the
    /// value handed to `run_many`), so [`Self::emit_manifest`] can record
    /// the realized executor pool shape.
    pub fn note_sweep(&self, jobs: usize, threads: usize) {
        self.sweep_shape
            .set(Some((jobs, hotgauge_core::pool_workers(threads, jobs))));
    }

    /// Whether stdout tables should be suppressed.
    pub fn quiet(&self) -> bool {
        self.quiet
    }

    /// The `--store` directory, if the flag was given.
    pub fn store_dir(&self) -> Option<&str> {
        self.store_dir.as_deref()
    }

    /// Opens the `--store` result store, exiting with status 2 if the
    /// directory cannot be created/used; `None` when the flag was absent.
    pub fn open_store(&self) -> Option<ResultStore> {
        let dir = self.store_dir.as_deref()?;
        match ResultStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("error: cannot open result store at {dir}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Loads the `--delta` basis, exiting with status 2 on a missing or
    /// corrupt index; `None` when the flag was absent.
    pub fn delta_basis(&self) -> Option<DeltaBasis> {
        let path = self.delta_path.as_deref()?;
        match DeltaBasis::from_index_file(path) {
            Ok(basis) => Some(basis),
            Err(e) => {
                eprintln!("error: cannot load delta basis from {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Accumulates the store counters of one sweep, so
    /// [`Self::emit_manifest`] can record the session totals in the
    /// manifest's `store` block.
    pub fn note_store(&self, stats: StoreStats) {
        let mut total = self.store_stats.get().unwrap_or_default();
        total.merge(stats);
        self.store_stats.set(Some(total));
    }

    /// The environment-selected fidelity preset with the `--threads` and
    /// `--batch` overrides applied (0 = auto when `--threads` was not
    /// given; the default batch width when `--batch` was not given).
    pub fn fidelity(&self) -> Fidelity {
        let mut fid = Fidelity::from_env();
        if let Some(n) = self.threads {
            fid.threads = n;
        }
        if let Some(k) = self.batch {
            fid.batch = k;
        }
        fid
    }

    /// A throttled stderr reporter for a sweep of `total` runs, pre-labelled
    /// with the bin name. Quiet runs get a silent printer.
    pub fn sweep_progress(&self, total: u64) -> ProgressPrinter {
        ProgressPrinter::new("run", total).quiet(self.quiet)
    }

    /// Builds the manifest for this bin and honours `--json`.
    ///
    /// `config` pairs describe the sweep parameters, `results` is the bin's
    /// natural row data. Metrics are captured from the telemetry recorder
    /// (empty unless built with `--features telemetry`). Exits with status 1
    /// if the manifest cannot be written.
    pub fn emit_manifest<T: Serialize>(&self, config: &[(&str, String)], results: &T) {
        let Some(path) = &self.json_path else {
            return;
        };
        let mut manifest = RunManifest::new(self.tool);
        for (key, value) in config {
            manifest = manifest.with_config(key, value);
        }
        if let Some(n) = self.threads {
            manifest = manifest.with_config("threads", n);
        }
        if let Some(k) = self.batch {
            manifest = manifest.with_config("batch", k);
        }
        if let Some((jobs, workers)) = self.sweep_shape.get() {
            manifest = manifest
                .with_config("sweep_jobs", jobs)
                .with_config("sweep_workers", workers);
        }
        // Record the static-analysis policy the binary was built under, so
        // sweep artifacts are auditable against the rule set of their day.
        manifest = manifest
            .with_config("lint_policy_version", hotgauge_lint::POLICY_VERSION)
            .with_config("lint_rule_count", hotgauge_lint::RULE_COUNT);
        if let Some(dir) = &self.store_dir {
            manifest = manifest.with_config("store", dir);
            if let Some(prev) = &self.delta_path {
                manifest = manifest.with_config("store_delta", prev);
            }
        }
        manifest.set_results(results);
        manifest.capture_metrics();
        if let Some(stats) = self.store_stats.get() {
            manifest.store = Some(stats.to_manifest());
        }
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
}

/// Adapts a [`ProgressPrinter`] into the `SweepProgress` callback shape used
/// by `run_many_with` / the `*_with` experiment drivers.
pub fn sweep_ticker(printer: &ProgressPrinter) -> impl Fn(SweepProgress) + Sync + '_ {
    move |p: SweepProgress| {
        printer.tick(&format!(
            "{} @core{} ({})",
            p.benchmark,
            p.target_core,
            p.node.label()
        ));
    }
}
