//! The rule catalogue (policy v5: L002–L006, L008–L012) and the per-file
//! rule driver.
//!
//! Every rule reads one [`crate::lex::FileModel`] (token stream,
//! brace-tree scopes, `#[cfg(test)]` lines, and pragma grants) and a
//! [`FileClass`] describing where the file sits in the workspace. Rules
//! match token sequences, never raw text, and ask the scope tree what
//! encloses a token. Every rule checks for a violation *first* and only
//! then consults [`Grants::allow`](crate::pragma::Grants::allow), so pragma
//! usage is tracked exactly and L012 can flag grants that suppress nothing.

use crate::lex::{FileModel, TokenKind};
use crate::{Diagnostic, FileClass};

/// Diagnostic severity, mapped straight onto SARIF `level`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Violates a correctness-bearing invariant (determinism, unsafe
    /// hygiene, bitwise parity).
    Error,
    /// Violates a maintainability/performance policy.
    Warning,
    /// Housekeeping: the finding asks for a cleanup, not a behavior fix.
    Note,
}

impl Severity {
    /// The SARIF `level` string for this severity.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Static description of one rule, surfaced by `--list-rules`, the SARIF
/// `tool.driver.rules` array, and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Identifier, e.g. `L002`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Default severity.
    pub severity: Severity,
}

/// The rule catalogue. `L000` (malformed pragma) is a meta-diagnostic, not a
/// policy rule, so it is not listed here. Retired ids are unknown rules, and
/// granting one is an L000 error, so a stale grant is re-justified rather
/// than silently carried over: `L007` was the masked-text predecessor of
/// L011, and `L001` (the panic policy) is clippy's since v5 (DESIGN.md §8).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "L002",
        summary: "telemetry only via hotgauge-telemetry facade macros: no raw \
                  #[cfg(feature = \"telemetry\")] blocks or Instant::now() outside \
                  crates/telemetry and the bench crate",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L003",
        summary: "no f32 in crates/thermal and crates/core numeric kernels (f64-only parity)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L004",
        summary: "concurrency policy: no std::thread::spawn in library crates, no channel \
                  endpoint behind Arc (Arc<Sender>)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L005",
        summary: "raw temperature/length literals (80.0, 25.0, 100e-6, ...) outside preset \
                  modules must use named constants or units newtypes",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L006",
        summary: "span!/counter! labels must be lowercase dotted namespaces \
                  (`thermal.cg_iterations`), and each label outside test code must be \
                  emitted by exactly one crate",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L008",
        summary: "unsafe hygiene: every lib crate root forbids unsafe_code (a deny downgrade \
                  needs a justified pragma)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L009",
        summary: "determinism: no HashMap/HashSet iteration (.iter()/.keys()/for ... in) in \
                  numeric kernel crates where order can feed results; use BTreeMap or an \
                  explicitly sorted sequence",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L010",
        summary: "scoped concurrency: Ordering::SeqCst only under pragma, counter atomics use \
                  Relaxed, and no Mutex lock acquisition inside loop bodies of kernel modules",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L011",
        summary: "no per-iteration heap allocation (Vec::new()/vec![]/.collect()) inside \
                  for/while/loop/closure bodies in thermal kernel modules (token-aware \
                  successor of L007)",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L012",
        summary: "pragma hygiene: an allow(RULE, ...) grant that suppresses zero diagnostics is \
                  itself a finding; remove stale grants",
        severity: Severity::Note,
    },
];

/// Severity of a rule id; the L000 meta-diagnostic is always an error.
pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Error)
}

/// L005 quarantined literal spellings. Matched as whole number tokens, so
/// `125.0`, `80.05`, `25e-3`, and `1e-30` do not fire.
const L005_LITERALS: &[&str] = &["80.0", "25.0", "115.0", "60.0", "100e-6", "1e-3"];

/// Hash-container iteration methods L009 refuses in kernel crates. `get`,
/// `insert`, `entry`, `contains_key` are keyed and deterministic, so they
/// are deliberately absent.
const L009_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
];

/// Receiver-name suffixes L010 treats as telemetry counters: monotone tallies
/// whose only consumer is a snapshot, so anything stronger than `Relaxed` is
/// paying fence costs for ordering nobody observes.
const L010_COUNTER_SUFFIXES: &[&str] = &[
    "count",
    "counts",
    "counter",
    "counters",
    "total",
    "hits",
    "dropped",
    "completed",
    "donated",
];

/// Run every applicable rule over one lexed file. The L012 unused-grant
/// pass runs separately (after the cross-file label pass) via
/// [`check_unused_pragmas`].
pub fn check_file(path: &str, class: &FileClass, model: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Malformed pragmas are always reported: a typo'd grant silently
    // reverting to "violation" would be confusing, and a typo'd rule name
    // silently granting nothing is worse.
    for err in &model.grants.errors {
        out.push(Diagnostic::new(
            path,
            err.line + 1,
            "L000",
            err.message.clone(),
        ));
    }
    for pragma in &model.grants.pragmas {
        if pragma.rule != "L000" && !RULES.iter().any(|r| r.id == pragma.rule) {
            out.push(Diagnostic::new(
                path,
                pragma.line + 1,
                "L000",
                format!("pragma grants unknown rule `{}`", pragma.rule),
            ));
        }
    }

    if class.lib_crate {
        check_l004(path, model, &mut out);
    }
    if !class.telemetry_crate && !class.bench_crate {
        check_l002(path, model, &mut out);
    }
    if class.numeric {
        check_l003(path, class, model, &mut out);
        check_l005(path, class, model, &mut out);
        check_l009(path, class, model, &mut out);
    }
    if class.lib_crate_root {
        check_l008(path, model, &mut out);
    }
    check_l010(path, class, model, &mut out);
    if class.thermal_kernel && !class.test_context {
        check_l011(path, model, &mut out);
    }

    // L006 label format. The companion cross-crate duplicate check needs
    // every file's labels at once, so it runs in the workspace driver
    // (`run_lint`) via [`check_label_duplicates`].
    for u in extract_labels(model) {
        if !valid_label(&u.label) && !model.grants.allow(u.line, "L006") {
            out.push(Diagnostic::new(
                path,
                u.line + 1,
                "L006",
                format!(
                    "{}! label `{}` must be a lowercase dotted namespace like \
                     `thermal.cg_iterations` ([a-z0-9_] segments joined by `.`)",
                    u.kind, u.label
                ),
            ));
        }
    }

    out
}

/// L012: every grant of a known rule must have suppressed at least one
/// diagnostic by the time all rules (including the cross-file label pass)
/// have run. Unknown-rule grants are already L000 errors and are skipped.
pub fn check_unused_pragmas(path: &str, model: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for pragma in &model.grants.pragmas {
        if !RULES.iter().any(|r| r.id == pragma.rule) {
            continue;
        }
        if !pragma.used.get() && !model.grants.allow(pragma.line, "L012") {
            out.push(Diagnostic::new(
                path,
                pragma.line + 1,
                "L012",
                format!(
                    "allow({}, ...) suppresses no diagnostics: remove the stale grant (or fix \
                     the code it was meant to cover)",
                    pragma.rule
                ),
            ));
        }
    }
    out
}

/// One `span!`/`counter!` call site found in a file.
#[derive(Debug, Clone)]
pub struct LabelUse {
    /// Zero-based line of the macro invocation.
    pub line: usize,
    /// `"span"` or `"counter"`.
    pub kind: &'static str,
    /// The label literal's contents.
    pub label: String,
    /// Whether the call sits inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// Whether an `allow(L006, ...)` pragma covers the line.
    pub allowed: bool,
}

/// Extracts every `span!("...")` / `counter!("...", ...)` label of a file:
/// a `span` or `counter` identifier, `!`, `(`, and a string literal as the
/// first argument, wherever rustfmt wrapped it. Invocations whose first
/// argument is not a string literal are skipped: the facade macros only
/// accept literals, so such code would not compile anyway.
pub fn extract_labels(model: &FileModel) -> Vec<LabelUse> {
    let mut out = Vec::new();
    for (i, tok) in model.tokens.iter().enumerate() {
        let kind = match tok.text.as_str() {
            "span" => "span",
            "counter" => "counter",
            _ => continue,
        };
        if tok.kind != TokenKind::Ident || !model.matches_seq(i + 1, &["!", "("]) {
            continue;
        }
        let Some(open) = model.next_code(i + 1).and_then(|b| model.next_code(b + 1)) else {
            continue;
        };
        let Some(lit) = model.next_code(open + 1).map(|l| &model.tokens[l]) else {
            continue;
        };
        let Some(label) = lit
            .text
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .filter(|_| lit.kind == TokenKind::Str)
        else {
            continue;
        };
        out.push(LabelUse {
            line: tok.line,
            kind,
            label: label.to_string(),
            in_test: model.line_in_test(tok.line),
            allowed: model.grants.is_allowed(tok.line, "L006"),
        });
    }
    out
}

/// L006 label shape: two or more `.`-joined segments, each starting with a
/// lowercase ASCII letter and continuing with `[a-z0-9_]`.
pub fn valid_label(label: &str) -> bool {
    let mut segments = 0usize;
    for part in label.split('.') {
        segments += 1;
        let mut chars = part.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
    }
    segments >= 2
}

/// The owning crate of a workspace-relative path: `crates/foo/... -> foo`,
/// anything else (root `src/`, `tests/`, `examples/`) -> `suite`.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("suite")
}

/// L006 cross-crate duplicate check over the whole workspace's label uses
/// (`(workspace-relative path, labels found there)` pairs, as produced by
/// [`extract_labels`]). A label emitted from production code in more than
/// one crate is flagged at every such call site: labels are namespaced per
/// owning crate, so two crates sharing one would merge unrelated statistics
/// in snapshots and manifests. Test-context and pragma-granted uses are
/// ignored.
pub fn check_label_duplicates(files: &[(String, Vec<LabelUse>)]) -> Vec<Diagnostic> {
    // label -> list of (file index, use index); small workspace, linear scan.
    let mut by_label: Vec<(&str, Vec<(usize, usize)>)> = Vec::new();
    for (fx, (_, uses)) in files.iter().enumerate() {
        for (ux, u) in uses.iter().enumerate() {
            if u.in_test || u.allowed {
                continue;
            }
            match by_label.iter_mut().find(|(l, _)| *l == u.label) {
                Some((_, sites)) => sites.push((fx, ux)),
                None => by_label.push((&u.label, vec![(fx, ux)])),
            }
        }
    }
    let mut out = Vec::new();
    for (label, sites) in &by_label {
        let mut crates: Vec<&str> = sites
            .iter()
            .map(|&(fx, _)| crate_of(&files[fx].0))
            .collect();
        crates.sort_unstable();
        crates.dedup();
        if crates.len() < 2 {
            continue;
        }
        for &(fx, ux) in sites {
            let (path, uses) = &files[fx];
            let u = &uses[ux];
            out.push(Diagnostic::new(
                path,
                u.line + 1,
                "L006",
                format!(
                    "{}! label `{label}` is emitted by multiple crates ({}): telemetry \
                     labels are owned by exactly one crate",
                    u.kind,
                    crates.join(", ")
                ),
            ));
        }
    }
    out
}

/// Labels that appear in production code of two or more crates when
/// pragma-granted uses are *included*. The workspace driver uses this to
/// mark `allow(L006)` grants on genuine duplicates as used — a grant that
/// hides a real cross-crate collision is doing work; one on a unique label
/// is stale and should fall to L012.
pub fn duplicate_labels_including_allowed(files: &[(String, Vec<LabelUse>)]) -> Vec<String> {
    let mut by_label: Vec<(&str, Vec<&str>)> = Vec::new();
    for (path, uses) in files {
        for u in uses {
            if u.in_test {
                continue;
            }
            let krate = crate_of(path);
            match by_label.iter_mut().find(|(l, _)| *l == u.label) {
                Some((_, crates)) => {
                    if !crates.contains(&krate) {
                        crates.push(krate);
                    }
                }
                None => by_label.push((&u.label, vec![krate])),
            }
        }
    }
    by_label
        .iter()
        .filter(|(_, crates)| crates.len() >= 2)
        .map(|(l, _)| l.to_string())
        .collect()
}

/// True when `line` sits in `#[cfg(test)]`-gated or test-context code.
fn tok_in_test(class: &FileClass, model: &FileModel, line: usize) -> bool {
    class.test_context || model.line_in_test(line)
}

/// Is the token before `i` a `.`, i.e. is `tokens[i]` a method name?
fn after_dot(model: &FileModel, i: usize) -> bool {
    model
        .prev_code(i)
        .is_some_and(|p| model.tokens[p].text == ".")
}

/// L002: `Instant::now` and a `cfg` on a line naming
/// `feature = "telemetry"`, at most one finding of each per line.
fn check_l002(path: &str, model: &FileModel, out: &mut Vec<Diagnostic>) {
    let mut instant_line = None;
    let mut cfg_line = None;
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let line = tok.line;
        if tok.text == "Instant"
            && instant_line != Some(line)
            && model.matches_seq(i + 1, &["::", "now"])
        {
            instant_line = Some(line);
            if !model.grants.allow(line, "L002") {
                out.push(Diagnostic::new(
                    path,
                    line + 1,
                    "L002",
                    "Instant::now() outside crates/telemetry: use the hotgauge-telemetry span!/\
                     counter! facade"
                        .to_string(),
                ));
            }
        }
        // `feature = "telemetry"` with a `cfg`/`cfg_attr` on the same line.
        if tok.text == "feature"
            && cfg_line != Some(line)
            && model.matches_seq(i + 1, &["=", "\"telemetry\""])
            && model
                .tokens
                .iter()
                .any(|t| t.line == line && t.kind == TokenKind::Ident && t.text.contains("cfg"))
        {
            cfg_line = Some(line);
            if !model.grants.allow(line, "L002") {
                out.push(Diagnostic::new(
                    path,
                    line + 1,
                    "L002",
                    "raw #[cfg(feature = \"telemetry\")] outside crates/telemetry: use the \
                     if_telemetry!/span!/counter! facade macros"
                        .to_string(),
                ));
            }
        }
    }
}

/// L003: every `f32` identifier outside test code.
fn check_l003(path: &str, class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    for tok in &model.tokens {
        if tok.kind != TokenKind::Ident || tok.text != "f32" || tok_in_test(class, model, tok.line)
        {
            continue;
        }
        if !model.grants.allow(tok.line, "L003") {
            out.push(Diagnostic::new(
                path,
                tok.line + 1,
                "L003",
                "f32 in a numeric kernel crate: thermal/analysis kernels are f64-only to \
                 keep the fused/naive parity proptests bitwise"
                    .to_string(),
            ));
        }
    }
}

/// L004: `thread::spawn` and a channel endpoint behind `Arc`, at most one
/// finding of each per line.
fn check_l004(path: &str, model: &FileModel, out: &mut Vec<Diagnostic>) {
    let mut spawn_line = None;
    let mut arc_line = None;
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let line = tok.line;
        if tok.text == "thread"
            && spawn_line != Some(line)
            && model.matches_seq(i + 1, &["::", "spawn"])
        {
            spawn_line = Some(line);
            if !model.grants.allow(line, "L004") {
                out.push(Diagnostic::new(
                    path,
                    line + 1,
                    "L004",
                    "std::thread::spawn in a library crate: use std::thread::scope or the \
                     pipeline channel so joins are structural"
                        .to_string(),
                ));
            }
        }
        if tok.text == "Arc"
            && arc_line != Some(line)
            && (model.matches_seq(i + 1, &["<", "Sender"])
                || model.matches_seq(i + 1, &["<", "SyncSender"])
                || model.matches_seq(i + 1, &["<", "mpsc", "::"]))
        {
            arc_line = Some(line);
            if !model.grants.allow(line, "L004") {
                out.push(Diagnostic::new(
                    path,
                    line + 1,
                    "L004",
                    "channel endpoint behind Arc: senders must be moved/cloned into scopes, \
                     never shared through Arc"
                        .to_string(),
                ));
            }
        }
    }
}

/// Count `Ordering::<Variant>` paths among the tokens of `range`.
fn count_orderings(model: &FileModel, range: std::ops::Range<usize>) -> usize {
    let mut n = 0usize;
    for i in range {
        if model.tokens[i].text == "Ordering" && model.matches_seq(i + 1, &["::"]) {
            n += 1;
        }
    }
    n
}

/// The token range strictly inside the paren pair opening at `open`
/// (exclusive of both parens), or `None` if unbalanced.
fn paren_token_span(model: &FileModel, open: usize) -> Option<std::ops::Range<usize>> {
    let mut depth = 0usize;
    for (i, tok) in model.tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + 1..i);
                }
            }
            _ => {}
        }
    }
    None
}

/// L005: every quarantined number token outside test code and outside
/// lines that declare a `const`.
fn check_l005(path: &str, class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    if class.units_exempt {
        return;
    }
    // `const` declarations are exactly where these literals belong.
    let const_line = |line: usize| {
        model
            .tokens
            .iter()
            .any(|t| t.line == line && t.kind == TokenKind::Ident && t.text == "const")
    };
    // A `.` touching the number makes it a range bound (`2.0..60.0`) or a
    // receiver (`80.0.max(t)`), which the rule has never policed.
    let dot_touches = |i: usize| {
        let tok = &model.tokens[i];
        i.checked_sub(1)
            .map(|p| &model.tokens[p])
            .is_some_and(|p| p.end == tok.start && p.text.ends_with('.'))
            || model
                .tokens
                .get(i + 1)
                .is_some_and(|n| n.start == tok.end && n.text.starts_with('.'))
    };
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Number || !L005_LITERALS.contains(&tok.text.as_str()) {
            continue;
        }
        if dot_touches(i) || tok_in_test(class, model, tok.line) || const_line(tok.line) {
            continue;
        }
        if !model.grants.allow(tok.line, "L005") {
            out.push(Diagnostic::new(
                path,
                tok.line + 1,
                "L005",
                format!(
                    "raw temperature/length literal `{}`: use a named constant or the \
                     hotgauge_core::units newtypes (Celsius/Microns)",
                    tok.text
                ),
            ));
        }
    }
}

/// L008: a lib crate's `lib.rs` must carry `#![forbid(unsafe_code)]`; a
/// `deny(unsafe_code)` downgrade is accepted only under a justified
/// `allow(L008, ...)` pragma on the attribute line. (Whether each unsafe
/// block states its invariant is clippy's `undocumented_unsafe_blocks`.)
fn check_l008(path: &str, model: &FileModel, out: &mut Vec<Diagnostic>) {
    if find_unsafe_attr(model, "forbid").is_some() {
        return;
    }
    match find_unsafe_attr(model, "deny").map(|i| model.tokens[i].line) {
        Some(line) => {
            if !model.grants.allow(line, "L008") {
                out.push(Diagnostic::new(
                    path,
                    line + 1,
                    "L008",
                    "deny(unsafe_code) downgrade in a lib crate root: add \
                     `// hotgauge-lint: allow(L008, \"<which block and why>\")` \
                     naming the sanctioned unsafe site"
                        .to_string(),
                ));
            }
        }
        None => {
            if !model.grants.allow(0, "L008") {
                out.push(Diagnostic::new(
                    path,
                    1,
                    "L008",
                    "lib crate root missing #![forbid(unsafe_code)] (or a justified \
                     deny(unsafe_code) downgrade)"
                        .to_string(),
                ));
            }
        }
    }
}

/// Find `level ( unsafe_code )` in the token stream (inside any attribute
/// form, including `cfg_attr`), returning the token index.
fn find_unsafe_attr(model: &FileModel, level: &str) -> Option<usize> {
    (0..model.tokens.len()).find(|&i| {
        model.tokens[i].kind == TokenKind::Ident
            && model.tokens[i].text == level
            && model.matches_seq(i + 1, &["(", "unsafe_code", ")"])
    })
}

/// L009: hash-container iteration in numeric kernel crates. Identifiers
/// bound or typed as `HashMap`/`HashSet` in this file are tracked; calling
/// an iteration-order method on one, or iterating one in a `for` header,
/// injects nondeterministic order into code whose outputs are pinned
/// bitwise. Keyed access (`get`/`insert`/`entry`) is fine.
fn check_l009(path: &str, class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    let names = hash_bound_names(model);
    if names.is_empty() {
        return;
    }
    let flag = |line: usize, msg: String, out: &mut Vec<Diagnostic>| {
        if tok_in_test(class, model, line) {
            return;
        }
        if !model.grants.allow(line, "L009") {
            out.push(Diagnostic::new(path, line + 1, "L009", msg));
        }
    };
    for (i, tok) in model.tokens.iter().enumerate() {
        // `name.iter()` / `name.keys()` / ...
        if tok.kind == TokenKind::Ident
            && L009_ITER_METHODS.contains(&tok.text.as_str())
            && model.matches_seq(i + 1, &["("])
        {
            if let Some(dot) = model.prev_code(i).filter(|&p| model.tokens[p].text == ".") {
                if let Some(recv) = model.prev_code(dot) {
                    let r = &model.tokens[recv];
                    if r.kind == TokenKind::Ident && names.contains(&r.text) {
                        flag(
                            tok.line,
                            format!(
                                "`.{}()` on hash container `{}` in a numeric kernel crate: \
                                 hash iteration order is nondeterministic; use \
                                 BTreeMap/BTreeSet or sort an extracted Vec first",
                                tok.text, r.text
                            ),
                            out,
                        );
                    }
                }
            }
        }
        // `for x in [&[mut]] name ... {`
        if tok.kind == TokenKind::Ident && tok.text == "in" {
            let in_for_header = model
                .prev_code(i)
                .is_some_and(|_| for_header_contains(model, i));
            if in_for_header {
                if let Some(next) = model.next_code(i + 1) {
                    let mut j = next;
                    while model.tokens[j].text == "&" || model.tokens[j].text == "mut" {
                        match model.next_code(j + 1) {
                            Some(n) => j = n,
                            None => break,
                        }
                    }
                    let t = &model.tokens[j];
                    if t.kind == TokenKind::Ident && names.contains(&t.text) {
                        flag(
                            t.line,
                            format!(
                                "`for ... in {}` iterates a hash container in a numeric \
                                 kernel crate: hash iteration order is nondeterministic; \
                                 use BTreeMap/BTreeSet or sort an extracted Vec first",
                                t.text
                            ),
                            out,
                        );
                    }
                }
            }
        }
    }
}

/// Is token `i` (an `in` ident) part of a `for` loop header? Walk backward
/// to the nearest `for`/`;`/`{`/`}` at the same nesting.
fn for_header_contains(model: &FileModel, i: usize) -> bool {
    let mut j = i;
    while let Some(p) = model.prev_code(j) {
        match model.tokens[p].text.as_str() {
            "for" => return true,
            ";" | "{" | "}" => return false,
            _ => j = p,
        }
    }
    false
}

/// Identifiers bound or typed as `HashMap`/`HashSet` anywhere in the file:
/// `let [mut] NAME = HashMap::new()`, `NAME: HashMap<...>` (bindings,
/// fields, statics). Local, name-based — deliberately so: the lint runs
/// with no type inference, and a false negative on an aliased map is caught
/// by the differential proptests, not silently wrong results.
fn hash_bound_names(model: &FileModel) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || (tok.text != "HashMap" && tok.text != "HashSet") {
            continue;
        }
        // Walk backward over type-path tokens to the binding site.
        let mut j = i;
        let mut via_assign = false;
        while let Some(p) = model.prev_code(j) {
            match model.tokens[p].text.as_str() {
                "::" | "<" | ">" | "," | "&" | "mut" | "'" => j = p,
                "=" => {
                    via_assign = true;
                    j = p;
                }
                ":" => {
                    // `NAME : [type path ...] HashMap`.
                    if let Some(n) = model.prev_code(p) {
                        let t = &model.tokens[n];
                        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                            push_unique(&mut names, t.text.clone());
                        }
                    }
                    break;
                }
                text if !via_assign
                    && model.tokens[p].kind == TokenKind::Ident
                    && !is_keyword(text) =>
                {
                    // Path segments like `std`, `collections`, `parking_lot`.
                    j = p;
                }
                "let" | "static" if via_assign => break,
                text if via_assign && model.tokens[p].kind == TokenKind::Ident => {
                    // `let [mut] NAME = ... HashMap...`: only the ident
                    // directly after let/static/mut is the binding — other
                    // idents on the walk back (generic args of a type
                    // annotation, path segments) are not names.
                    let after_binder = model.prev_code(p).is_some_and(|b| {
                        matches!(model.tokens[b].text.as_str(), "let" | "static" | "mut")
                    });
                    if after_binder && text != "mut" && !is_keyword(text) {
                        push_unique(&mut names, text.to_string());
                        break;
                    }
                    j = p;
                }
                _ => break,
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !names.contains(&name) {
        names.push(name);
    }
}

fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "let"
            | "static"
            | "const"
            | "mut"
            | "pub"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "for"
            | "in"
            | "if"
            | "else"
            | "while"
            | "loop"
            | "match"
            | "return"
            | "use"
            | "mod"
            | "ref"
            | "move"
            | "where"
            | "type"
            | "trait"
            | "dyn"
    )
}

/// L010: scoped-concurrency hygiene. `Ordering::SeqCst` anywhere outside
/// tests needs a pragma (nothing in this workspace needs sequential
/// consistency; name the weaker ordering you mean). Counter-named atomics
/// (`*_count`, `dropped`, `completed`, ...) must use `Relaxed` — they are
/// telemetry tallies, not synchronization. And in kernel modules, no
/// `.lock()` acquisition inside a loop body: hoist the guard or restructure.
fn check_l010(path: &str, class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let in_test = tok_in_test(class, model, tok.line);
        match tok.text.as_str() {
            "SeqCst"
                if model
                    .prev_code(i)
                    .is_some_and(|p| model.tokens[p].text == "::")
                    && !in_test
                    && !model.grants.allow(tok.line, "L010") =>
            {
                out.push(Diagnostic::new(
                    path,
                    tok.line + 1,
                    "L010",
                    "Ordering::SeqCst: nothing here needs sequential consistency; name \
                     the weaker ordering you mean (or add a pragma explaining why SeqCst)"
                        .to_string(),
                ));
            }
            "fetch_add" | "fetch_sub" if !in_test => {
                let Some(dot) = model.prev_code(i).filter(|&p| model.tokens[p].text == ".") else {
                    continue;
                };
                let Some(recv) = model.prev_code(dot) else {
                    continue;
                };
                let recv = &model.tokens[recv];
                if recv.kind != TokenKind::Ident || !counterish(&recv.text) {
                    continue;
                }
                let Some(open) = model
                    .next_code(i + 1)
                    .filter(|&p| model.tokens[p].text == "(")
                else {
                    continue;
                };
                let Some(args) = paren_token_span(model, open) else {
                    continue;
                };
                let relaxed = args.clone().any(|k| model.tokens[k].text == "Relaxed");
                let names_ordering = count_orderings(model, args) > 0 || relaxed;
                if relaxed || !names_ordering {
                    // rustc rejects an atomic call without its Ordering.
                    continue;
                }
                if !model.grants.allow(tok.line, "L010") {
                    out.push(Diagnostic::new(
                        path,
                        tok.line + 1,
                        "L010",
                        format!(
                            "counter atomic `{}` uses a non-Relaxed ordering: telemetry \
                             tallies synchronize nothing; use Ordering::Relaxed",
                            recv.text
                        ),
                    ));
                }
            }
            "lock"
                if class.kernel
                    && !in_test
                    && after_dot(model, i)
                    && model.matches_seq(i + 1, &["(", ")"])
                    && model.in_loop(i)
                    && !model.grants.allow(tok.line, "L010") =>
            {
                out.push(Diagnostic::new(
                    path,
                    tok.line + 1,
                    "L010",
                    "lock acquisition inside a loop body of a kernel module: hoist the \
                     guard outside the loop or restructure to message passing"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

fn counterish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    L010_COUNTER_SUFFIXES.iter().any(|s| lower.ends_with(s))
}

/// L011: per-iteration heap allocation in thermal kernel modules,
/// token-aware. Fires on `Vec::new()`, `vec![...]`, and `.collect()` whose
/// enclosing scope chain contains a `for`/`while`/`loop` body or a braced
/// closure (per-row callbacks price like loop bodies). The old masked-text
/// L007 only saw `for` bodies and could mis-scope matches inside strings a
/// line-based tracker had already lost; the scope tree sees neither.
fn check_l011(path: &str, model: &FileModel, out: &mut Vec<Diagnostic>) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let label = match tok.text.as_str() {
            "Vec" if model.matches_seq(i + 1, &["::", "new", "("]) => "Vec::new()",
            "vec" if model.matches_seq(i + 1, &["!", "["]) => "vec![...]",
            "collect" if after_dot(model, i) && model.matches_seq(i + 1, &["("]) => ".collect()",
            _ => continue,
        };
        if !model.in_loop_or_closure(i) {
            continue;
        }
        if model.line_in_test(tok.line) {
            continue;
        }
        if !model.grants.allow(tok.line, "L011") {
            out.push(Diagnostic::new(
                path,
                tok.line + 1,
                "L011",
                format!(
                    "{label} inside a loop or closure body of a thermal kernel module: \
                     allocate scratch once in the caller (or add \
                     `// hotgauge-lint: allow(L011, \"<why this is not per-solve>\")`)"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::ScopeKind;

    #[test]
    fn scope_kinds_loop_set() {
        assert!(ScopeKind::ForLoop.is_loop());
        assert!(ScopeKind::WhileLoop.is_loop());
        assert!(ScopeKind::Loop.is_loop());
        assert!(!ScopeKind::Closure.is_loop());
        assert!(!ScopeKind::Fn.is_loop());
    }

    #[test]
    fn severity_strings() {
        assert_eq!(severity_of("L003").as_str(), "error");
        assert_eq!(severity_of("L012").as_str(), "note");
        // Unknown ids (incl. the L000 meta-diagnostic) are errors.
        assert_eq!(severity_of("L000").as_str(), "error");
    }
}
