//! CLI entry point: `cargo run -p hotgauge-lint -- [--root PATH]
//! [--format text|json|sarif] [--baseline FILE] [--write-baseline FILE]`.
//!
//! Exit codes: 0 clean (or all findings grandfathered by the baseline),
//! 1 non-baseline violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use hotgauge_lint::report::{diff_against_baseline, json_report, sarif_report, Baseline};
use hotgauge_lint::{find_workspace_root, run_lint, POLICY_VERSION, RULES, RULE_COUNT};

const USAGE: &str = "usage: hotgauge-lint [--root PATH] [--format text|json|sarif] [--json]
                     [--baseline FILE] [--write-baseline FILE] [--list-rules]

Scans the HotGauge workspace sources and enforces policy v5 (L002..L012).
  --format sarif        emit a SARIF 2.1.0 log on stdout
  --format json         emit a JSON report (--json is an alias)
  --baseline FILE       grandfather the findings recorded in FILE; only
                        findings beyond the recorded (file, rule) counts fail
  --write-baseline FILE capture current findings as a new baseline and exit 0
Exit codes: 0 = clean/no non-baseline findings, 1 = violations, 2 = usage/I/O error.";

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    return usage_error(&format!(
                        "unknown format `{other}` (expected text, json, or sarif)"
                    ))
                }
                None => return usage_error("--format requires an argument"),
            },
            "--list-rules" => list_rules = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root requires a path argument"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_error("--baseline requires a path argument"),
            },
            "--write-baseline" => match args.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => return usage_error("--write-baseline requires a path argument"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        println!("hotgauge-lint policy v{POLICY_VERSION} ({RULE_COUNT} rules)");
        for rule in RULES {
            println!(
                "  {} [{}]: {}",
                rule.id,
                rule.severity.as_str(),
                rule.summary
            );
        }
        return ExitCode::SUCCESS;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("hotgauge-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "hotgauge-lint: no workspace root (Cargo.toml + crates/) found above \
                         {}; pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let scanned = match hotgauge_lint::discover_files(&root) {
        Ok(files) => files.len(),
        Err(e) => {
            eprintln!("hotgauge-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let diagnostics = match run_lint(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("hotgauge-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = write_baseline {
        let base = Baseline::from_diagnostics(&diagnostics);
        let text = match serde_json::to_string_pretty(&base.to_json()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hotgauge-lint: failed to serialize baseline: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("hotgauge-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "hotgauge-lint: wrote baseline with {} grandfathered finding(s) to {}",
            diagnostics.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    // With a baseline, only the excess over grandfathered counts gates.
    let (gating, burned_down) = match &baseline_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("hotgauge-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let base = match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("hotgauge-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            if base.policy_version != POLICY_VERSION {
                eprintln!(
                    "hotgauge-lint: baseline {} was written under policy v{}, tool enforces \
                     v{POLICY_VERSION}; regenerate with --write-baseline",
                    path.display(),
                    base.policy_version
                );
                return ExitCode::from(2);
            }
            let diff = diff_against_baseline(&diagnostics, &base);
            (diff.new, diff.burned_down)
        }
        None => (diagnostics.clone(), Vec::new()),
    };

    match format {
        Format::Json => {
            let report = json_report(&gating);
            match serde_json::to_string_pretty(&report) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("hotgauge-lint: failed to serialize report: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Format::Sarif => {
            let report = sarif_report(&gating);
            match serde_json::to_string_pretty(&report) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("hotgauge-lint: failed to serialize SARIF: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Format::Text => {
            for d in &gating {
                println!("{d}");
            }
            for (file, rule, grandfathered, current) in &burned_down {
                println!(
                    "hotgauge-lint: burn-down: {file} {rule} down to {current} from \
                     {grandfathered} grandfathered — ratchet the baseline"
                );
            }
            let files: std::collections::BTreeSet<&str> =
                gating.iter().map(|d| d.file.as_str()).collect();
            let suffix = if baseline_path.is_some() {
                " beyond baseline"
            } else {
                ""
            };
            println!(
                "hotgauge-lint: {} violation(s){suffix} in {} of {scanned} file(s) scanned; \
                 policy v{POLICY_VERSION} ({RULE_COUNT} rules)",
                gating.len(),
                files.len()
            );
        }
    }

    if gating.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("hotgauge-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
