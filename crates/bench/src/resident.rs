//! The `hotgauge serve` and `hotgauge sweep` subcommands: NDJSON
//! front-ends for the content-addressed result store.
//!
//! * `hotgauge serve --store DIR [--delta PREV] [--threads N] [--batch K]
//!   [--quiet]` — resident mode. Reads [`hotgauge_store::SweepRequest`]
//!   lines from stdin; a blank line (or EOF) flushes the accumulated
//!   requests as one job batch through the store-aware executor, and each
//!   completed run is streamed back as one [`hotgauge_store::SweepRow`]
//!   JSON line on stdout. The process stays resident across batches, so
//!   the store index and executor state are reused.
//! * `hotgauge sweep [--spec PATH|-] [--store DIR [--delta PREV]]
//!   [--json PATH|-] [--threads N] [--batch K] [--quiet]` — one-shot mode.
//!   Reads all request lines (from PATH or stdin), runs them as a single
//!   batch, streams one row line per run on stdout, and optionally writes
//!   a schema-versioned run manifest. With `--json -` the manifest is
//!   printed *compact on one line*, so every stdout line of the session
//!   stays independently parseable.
//!
//! Exit codes: 0 on success, 1 on store/runtime failures, 2 on usage
//! errors (including malformed spec lines in one-shot mode).

use std::fs::File;
use std::io::{BufRead, BufReader, Write};

use hotgauge_core::experiments::Fidelity;
use hotgauge_store::{
    rows_for_outcome, run_requests, serve, write_row_line, DeltaBasis, ResultStore, ServeOptions,
    StoreError, SweepRequest, SweepRow,
};
use hotgauge_telemetry::manifest::{write_json_atomic, RunManifest};

const SERVE_USAGE: &str = "usage: hotgauge serve --store DIR [options]
options:
  --store DIR    result store directory (required; created if missing)
  --delta PREV   serve only keys present in PREV's index.json
                 (PREV is an index.json path or a store directory)
  --threads N    sweep thread budget (default: all hardware threads)
  --batch K      lockstep batch width for the executor
  --quiet        suppress the end-of-session summary on stderr
  --help         show this message

protocol: one JSON request object per stdin line; a blank line flushes the
pending requests as one batch; one JSON row per completed run on stdout.";

const SWEEP_USAGE: &str = "usage: hotgauge sweep [--spec PATH|-] [options]
options:
  --spec PATH    request lines (JSON objects, one per line); `-` = stdin
  --store DIR    serve unchanged runs from the result store at DIR
  --delta PREV   with --store: only serve keys from PREV's index.json
  --json PATH    write the run manifest to PATH (`-` prints it compact on
                 one line after the rows, keeping stdout line-parseable)
  --threads N    sweep thread budget (default: all hardware threads)
  --batch K      lockstep batch width for the executor
  --quiet        suppress progress/summary output on stderr
  --help         show this message";

struct ResidentArgs {
    store: Option<String>,
    delta: Option<String>,
    spec: Option<String>,
    json: Option<String>,
    threads: Option<usize>,
    batch: Option<usize>,
    quiet: bool,
}

/// Parses the shared serve/sweep flags; `Err` carries the message for a
/// usage failure (exit 2), `Ok(None)` means `--help` was printed.
fn parse_resident(args: &[String], usage: &str) -> Result<Option<ResidentArgs>, String> {
    let mut out = ResidentArgs {
        store: None,
        delta: None,
        spec: None,
        json: None,
        threads: None,
        batch: None,
        quiet: false,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{usage}");
                return Ok(None);
            }
            "--store" => out.store = Some(take(&mut i)?),
            "--delta" => out.delta = Some(take(&mut i)?),
            "--spec" => out.spec = Some(take(&mut i)?),
            "--json" => out.json = Some(take(&mut i)?),
            "--threads" => {
                let v = take(&mut i)?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => out.threads = Some(n),
                    _ => return Err(format!("invalid thread count {v}")),
                }
            }
            "--batch" => {
                let v = take(&mut i)?;
                match v.parse::<usize>() {
                    Ok(k) if (1..=hotgauge_core::MAX_LOCKSTEP_WIDTH).contains(&k) => {
                        out.batch = Some(k)
                    }
                    _ => return Err(format!("invalid batch width {v}")),
                }
            }
            "--quiet" => out.quiet = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if out.delta.is_some() && out.store.is_none() {
        return Err("--delta requires --store".to_owned());
    }
    Ok(Some(out))
}

fn options_for(args: &ResidentArgs) -> ServeOptions {
    let mut fid = Fidelity::from_env();
    if let Some(n) = args.threads {
        fid.threads = n;
    }
    if let Some(k) = args.batch {
        fid.batch = k;
    }
    ServeOptions::from_fidelity(fid)
}

fn load_delta(args: &ResidentArgs) -> Result<Option<DeltaBasis>, StoreError> {
    args.delta
        .as_deref()
        .map(DeltaBasis::from_index_file)
        .transpose()
}

/// `hotgauge serve`: the resident NDJSON service loop over stdin/stdout.
pub fn run_serve(args: &[String]) -> i32 {
    let parsed = match parse_resident(args, SERVE_USAGE) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{SERVE_USAGE}");
            return 2;
        }
    };
    let Some(store_dir) = parsed.store.as_deref() else {
        eprintln!("error: serve requires --store DIR");
        eprintln!("{SERVE_USAGE}");
        return 2;
    };
    let mut store = match ResultStore::open(store_dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: cannot open result store at {store_dir}: {e}");
            return 2;
        }
    };
    let delta = match load_delta(&parsed) {
        Ok(delta) => delta,
        Err(e) => {
            eprintln!("error: cannot load delta basis: {e}");
            return 2;
        }
    };
    let opts = options_for(&parsed);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve(
        stdin.lock(),
        stdout.lock(),
        &mut store,
        &opts,
        delta.as_ref(),
    ) {
        Ok(summary) => {
            if !parsed.quiet {
                let stats = summary.stats;
                eprintln!(
                    "serve: {} batches, {} rows ({} rejected); store {} hits / {} misses ({} quarantined), hit rate {:.1}%",
                    summary.batches,
                    summary.rows,
                    summary.rejected,
                    stats.hits,
                    stats.misses,
                    stats.quarantined,
                    stats.hit_rate() * 100.0
                );
            }
            0
        }
        Err(e) => {
            eprintln!("error: serve session failed: {e}");
            1
        }
    }
}

/// `hotgauge sweep`: one-shot request batch with optional store/manifest.
pub fn run_sweep(args: &[String]) -> i32 {
    let parsed = match parse_resident(args, SWEEP_USAGE) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{SWEEP_USAGE}");
            return 2;
        }
    };
    let requests = match read_spec(parsed.spec.as_deref().unwrap_or("-")) {
        Ok(requests) => requests,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    let mut store = match parsed.store.as_deref().map(ResultStore::open).transpose() {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: cannot open result store: {e}");
            return 2;
        }
    };
    let delta = match load_delta(&parsed) {
        Ok(delta) => delta,
        Err(e) => {
            eprintln!("error: cannot load delta basis: {e}");
            return 2;
        }
    };
    let opts = options_for(&parsed);
    let outcome = match run_requests(&requests, &opts, store.as_mut(), delta.as_ref()) {
        Ok(outcome) => outcome,
        Err(StoreError::InvalidRequest(msg)) => {
            eprintln!("error: {msg}");
            return 2;
        }
        Err(e) => {
            eprintln!("error: sweep failed: {e}");
            return 1;
        }
    };
    let rows = rows_for_outcome(&outcome);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for row in &rows {
        if let Err(e) = write_row_line(&mut out, row) {
            eprintln!("error: cannot write row: {e}");
            return 1;
        }
    }
    if let Err(e) = out.flush() {
        eprintln!("error: cannot flush stdout: {e}");
        return 1;
    }
    drop(out);
    if let Some(json) = parsed.json.as_deref() {
        if let Err(msg) = emit_sweep_manifest(json, &parsed, &requests, &rows, &outcome) {
            eprintln!("error: {msg}");
            return 1;
        }
    }
    if !parsed.quiet {
        let stats = outcome.stats;
        eprintln!(
            "sweep: {} rows; store {} hits / {} misses ({} quarantined)",
            rows.len(),
            stats.hits,
            stats.misses,
            stats.quarantined
        );
    }
    0
}

/// Reads the request lines of a sweep spec (`-` = stdin). Blank lines are
/// skipped — one-shot mode runs everything as a single batch.
fn read_spec(path: &str) -> Result<Vec<SweepRequest>, String> {
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        Box::new(BufReader::new(
            File::open(path).map_err(|e| format!("cannot open spec {path}: {e}"))?,
        ))
    };
    let mut requests = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("cannot read spec {path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let req: SweepRequest = serde_json::from_str(&line)
            .map_err(|e| format!("bad request on line {} of {path}: {e}", lineno + 1))?;
        requests.push(req);
    }
    if requests.is_empty() {
        return Err(format!("spec {path} contains no requests"));
    }
    Ok(requests)
}

fn emit_sweep_manifest(
    json: &str,
    parsed: &ResidentArgs,
    requests: &[SweepRequest],
    rows: &[SweepRow],
    outcome: &hotgauge_store::SweepOutcome,
) -> Result<(), String> {
    let mut manifest = RunManifest::new("hotgauge-sweep")
        .with_config("requests", requests.len())
        .with_config("row_schema_version", hotgauge_store::ROW_SCHEMA_VERSION)
        .with_config("lint_policy_version", hotgauge_lint::POLICY_VERSION)
        .with_config("lint_rule_count", hotgauge_lint::RULE_COUNT);
    if let Some(dir) = parsed.store.as_deref() {
        manifest = manifest.with_config("store", dir);
    }
    if let Some(prev) = parsed.delta.as_deref() {
        manifest = manifest.with_config("store_delta", prev);
    }
    manifest.set_results(&rows);
    manifest.capture_metrics();
    if parsed.store.is_some() {
        manifest.store = Some(outcome.stats.to_manifest());
    }
    if json == "-" {
        // Compact single line: stdout stays NDJSON end to end.
        let text = serde_json::to_string(&manifest)
            .map_err(|e| format!("manifest serialization failed: {e}"))?;
        println!("{text}");
        Ok(())
    } else {
        write_json_atomic(std::path::Path::new(json), &manifest)
            .map_err(|e| format!("failed to write manifest to {json}: {e}"))
    }
}
