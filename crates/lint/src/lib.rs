//! `hotgauge-lint`: registry-free static analysis for the HotGauge workspace.
//!
//! Policy v5 reads each source file once, into a token stream with a
//! brace-tree scope layer ([`lex`], no `syn`), and every rule works on that
//! one view. The rules are the domain rules nothing else can check
//! (L002–L006, L008–L012): they get tokens with spans and enclosing-scope
//! kinds, emit `file:line` diagnostics with severities, and support
//! text/JSON/SARIF output plus baseline diffing ([`report`]). The checks
//! the compiler can make (the panic policy, SAFETY comments on unsafe
//! blocks, atomic orderings) are left to rustc and clippy through the
//! workspace's `[workspace.lints]` table. The
//! `// hotgauge-lint: allow(RULE, "justification")` pragma escape hatch
//! ([`pragma`]) is itself policed: a grant that suppresses nothing is an
//! L012 finding. See DESIGN.md "Static analysis & code policy" for the rule
//! catalogue.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

pub mod lex;
pub mod pragma;
pub mod report;
pub mod rules;

pub use rules::{severity_of, LabelUse, RuleInfo, Severity, RULES};

/// Version of the policy the tool enforces; recorded in run manifests so
/// sweep artifacts state what code policy they were built under. Bump on any
/// rule addition, removal, or scope change.
pub const POLICY_VERSION: &str = "5";

/// Number of policy rules (excludes the L000 malformed-pragma diagnostic).
pub const RULE_COUNT: usize = RULES.len();

/// One violation, addressed `file:line`.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// One-based line number.
    pub line: usize,
    /// Rule id (`L002`..`L012`, or `L000` for a malformed pragma).
    pub rule: String,
    /// Severity as a SARIF level string: `error`, `warning`, or `note`.
    pub severity: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(file: &str, line: usize, rule: &str, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            severity: rules::severity_of(rule).as_str().to_string(),
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Under a library crate's `src/` (L004 applies).
    pub lib_crate: bool,
    /// Inside `crates/telemetry` (exempt from L002 — it *is* the facade).
    pub telemetry_crate: bool,
    /// Inside `crates/bench` (bench bins may time and cfg-gate freely).
    pub bench_crate: bool,
    /// Numeric kernel scope: `crates/core/src` or `crates/thermal/src`
    /// (L003/L005 apply).
    pub numeric: bool,
    /// Preset/units modules where raw unit literals are the point.
    pub units_exempt: bool,
    /// Thermal solver kernel modules where per-iteration heap allocation is
    /// forbidden (L011 applies).
    pub thermal_kernel: bool,
    /// Kernel modules in the hot numeric path (thermal solver plus the core
    /// analysis/detection kernels); L010's lock-in-loop check applies.
    pub kernel: bool,
    /// The `lib.rs` of a library crate (L008's forbid(unsafe_code) check).
    pub lib_crate_root: bool,
    /// Whole file is test/bench/example context (L003, L005, L009–L011 skip).
    pub test_context: bool,
}

/// Library crates whose `src/` trees get the L004 treatment. The same ten
/// crates opt into the workspace's clippy lints (`[lints] workspace = true`).
const LIB_CRATES: &[&str] = &[
    "floorplan",
    "telemetry",
    "workloads",
    "power",
    "perf",
    "thermal",
    "core",
    "store",
    "perfgate",
    "lint",
];

/// Modules allowed to spell raw unit literals: the units/constants source of
/// truth and the physical preset tables they parameterize.
const L005_EXEMPT_FILES: &[&str] = &[
    "crates/core/src/units.rs",
    "crates/thermal/src/stack.rs",
    "crates/thermal/src/materials.rs",
];

/// Core modules that sit on the hot analysis path; together with the thermal
/// solver they form the "kernel" scope for L010's lock-in-loop check.
const CORE_KERNEL_FILES: &[&str] = &[
    "crates/core/src/analysis.rs",
    "crates/core/src/mltd.rs",
    "crates/core/src/detect.rs",
    "crates/core/src/severity.rs",
];

/// Classify a workspace-relative, `/`-separated path.
pub fn classify(rel: &str) -> FileClass {
    let lib_crate = LIB_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    let thermal_kernel = rel.starts_with("crates/thermal/src/");
    FileClass {
        test_context: rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.starts_with("tests/")
            || rel.starts_with("examples/"),
        bench_crate: rel.starts_with("crates/bench/"),
        telemetry_crate: rel.starts_with("crates/telemetry/"),
        lib_crate,
        numeric: rel.starts_with("crates/core/src/") || rel.starts_with("crates/thermal/src/"),
        units_exempt: L005_EXEMPT_FILES.contains(&rel),
        thermal_kernel,
        kernel: thermal_kernel || CORE_KERNEL_FILES.contains(&rel),
        lib_crate_root: lib_crate && rel.ends_with("/src/lib.rs"),
    }
}

/// Lint a single source text under a synthetic workspace-relative path.
/// This is the seam the fixture tests use. Runs the full per-file pipeline
/// including the L012 unused-pragma pass (cross-crate label duplication is
/// the one check that cannot fire here).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let class = classify(rel_path);
    let model = lex::FileModel::build(src);
    let mut diagnostics = rules::check_file(rel_path, &class, &model);
    diagnostics.extend(rules::check_unused_pragmas(rel_path, &model));
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    diagnostics
}

/// An I/O failure while walking or reading the workspace.
#[derive(Debug)]
pub struct LintError {
    /// Path that failed.
    pub path: PathBuf,
    /// Underlying error rendered.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for LintError {}

/// Directories scanned relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path prefixes excluded from the walk (vendored deps are not ours to lint;
/// the fixture corpus violates rules on purpose; build output is generated).
const EXCLUDED_PREFIXES: &[&str] = &["crates/lint/fixtures/"];

/// Collect every `.rs` file under the scan roots, workspace-relative and
/// sorted for deterministic output.
pub fn discover_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let path = entry.path();
        let rel = relative_slash(root, &path);
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            if EXCLUDED_PREFIXES
                .iter()
                .any(|p| rel.as_deref() == Some(p.trim_end_matches('/')))
            {
                continue;
            }
            walk(root, &path, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            if let Some(rel) = rel {
                if !EXCLUDED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                    files.push(rel);
                }
            }
        }
    }
    Ok(())
}

fn relative_slash(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let parts: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    Some(parts.join("/"))
}

/// Lint the whole workspace rooted at `root`. Three passes: per-file rules
/// (which mark the pragmas they consume), the cross-crate label-duplicate
/// check, and finally the L012 unused-pragma sweep — which must run last so
/// every legitimate suppression has had its chance to mark its grant.
/// Diagnostics come back sorted by (file, line, rule).
pub fn run_lint(root: &Path) -> Result<Vec<Diagnostic>, LintError> {
    let mut diagnostics = Vec::new();
    let mut models: Vec<(String, lex::FileModel)> = Vec::new();
    for rel in discover_files(root)? {
        let full = root.join(&rel);
        let src = fs::read_to_string(&full).map_err(|e| LintError {
            path: full.clone(),
            message: e.to_string(),
        })?;
        let model = lex::FileModel::build(&src);
        diagnostics.extend(rules::check_file(&rel, &classify(&rel), &model));
        models.push((rel, model));
    }
    // L006's duplicate half needs the whole workspace's labels at once.
    let label_uses: Vec<(String, Vec<rules::LabelUse>)> = models
        .iter()
        .map(|(rel, model)| (rel.clone(), rules::extract_labels(model)))
        .collect();
    diagnostics.extend(rules::check_label_duplicates(&label_uses));
    // An allow(L006) grant on a label that *would* be a cross-crate
    // duplicate has done real work: mark it used so L012 leaves it alone.
    let dups = rules::duplicate_labels_including_allowed(&label_uses);
    for ((_, model), (_, uses)) in models.iter().zip(&label_uses) {
        for u in uses {
            if u.allowed && !u.in_test && dups.iter().any(|d| d == &u.label) {
                model.grants.allow(u.line, "L006");
            }
        }
    }
    for (rel, model) in &models {
        diagnostics.extend(rules::check_unused_pragmas(rel, model));
    }
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Ok(diagnostics)
}

/// Locate the workspace root: the nearest ancestor of `start` containing
/// both a `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}
