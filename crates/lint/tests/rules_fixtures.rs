//! Each fixture in `fixtures/` must fire exactly the diagnostics it
//! advertises when linted under a synthetic workspace path, and fall silent
//! where its rule does not apply.

use hotgauge_lint::lint_source;

fn fires(path: &str, src: &str) -> Vec<(String, usize)> {
    let mut v: Vec<(String, usize)> = lint_source(path, src)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect();
    v.sort();
    v
}

fn expected(rule: &str, lines: &[usize]) -> Vec<(String, usize)> {
    lines.iter().map(|&l| (rule.to_string(), l)).collect()
}

#[test]
fn l002_telemetry_facade() {
    let src = include_str!("../fixtures/l002.rs");
    assert_eq!(
        fires("crates/core/src/fixture_l002.rs", src),
        expected("L002", &[5, 8])
    );
    // The telemetry crate is the facade and bench bins may time freely.
    assert!(fires("crates/telemetry/src/fixture_l002.rs", src).is_empty());
    assert!(fires("crates/bench/src/fixture_l002.rs", src).is_empty());
}

#[test]
fn l003_f32_in_kernels() {
    let src = include_str!("../fixtures/l003.rs");
    assert_eq!(
        fires("crates/thermal/src/fixture_l003.rs", src),
        expected("L003", &[4, 5])
    );
    // Outside the numeric kernel crates f32 is not policed — which strands
    // the fixture's L003 grant, so L012 flags it.
    assert_eq!(
        fires("crates/perf/src/fixture_l003.rs", src),
        expected("L012", &[18])
    );
}

#[test]
fn l004_concurrency_policy() {
    let src = include_str!("../fixtures/l004.rs");
    assert_eq!(
        fires("crates/power/src/fixture_l004.rs", src),
        expected("L004", &[9, 13])
    );
}

#[test]
fn l005_raw_unit_literals() {
    let src = include_str!("../fixtures/l005.rs");
    assert_eq!(
        fires("crates/thermal/src/fixture_l005.rs", src),
        expected("L005", &[5, 9])
    );
    // The preset modules are exactly where raw literals belong — and the
    // stranded L005 grant falls to L012 there.
    assert_eq!(
        fires("crates/thermal/src/stack.rs", src),
        expected("L012", &[24])
    );
}

#[test]
fn l006_label_format() {
    let src = include_str!("../fixtures/l006.rs");
    // Format violations fire in any crate — including tests: a misspelled
    // label namespace is wrong wherever it appears.
    assert_eq!(
        fires("crates/core/src/fixture_l006.rs", src),
        expected("L006", &[5, 6, 7, 8, 9])
    );
    assert_eq!(
        fires("crates/bench/src/fixture_l006.rs", src),
        expected("L006", &[5, 6, 7, 8, 9])
    );
}

#[test]
fn l006_cross_crate_duplicates() {
    use hotgauge_lint::lex::FileModel;
    use hotgauge_lint::rules::{check_label_duplicates, extract_labels};

    let core = FileModel::build("fn f() {\n    let _s = span!(\"shared.stage\");\n}\n");
    let thermal = FileModel::build("fn g() {\n    counter!(\"shared.stage\", 1u64);\n}\n");
    let uses = vec![
        ("crates/core/src/a.rs".to_string(), extract_labels(&core)),
        (
            "crates/thermal/src/b.rs".to_string(),
            extract_labels(&thermal),
        ),
    ];
    let diags = check_label_duplicates(&uses);
    assert_eq!(diags.len(), 2, "both call sites flagged: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == "L006"));
    assert!(diags[0].message.contains("core, thermal"));

    // The same label reused inside one crate is fine (repeated call sites).
    let twice = FileModel::build(
        "fn f() {\n    let _s = span!(\"shared.stage\");\n    let _t = span!(\"shared.stage\");\n}\n",
    );
    let same_crate = vec![("crates/core/src/a.rs".to_string(), extract_labels(&twice))];
    assert!(check_label_duplicates(&same_crate).is_empty());

    // Test-context uses never count toward duplication.
    let in_test = FileModel::build(
        "#[cfg(test)]\nmod tests {\n    fn t() {\n        let _s = span!(\"shared.stage\");\n    }\n}\n",
    );
    let mixed = vec![
        ("crates/core/src/a.rs".to_string(), extract_labels(&core)),
        (
            "crates/telemetry/src/lib.rs".to_string(),
            extract_labels(&in_test),
        ),
    ];
    assert!(check_label_duplicates(&mixed).is_empty());
}

#[test]
fn l006_extracts_wrapped_calls() {
    use hotgauge_lint::lex::FileModel;
    use hotgauge_lint::rules::extract_labels;

    // rustfmt puts a long label on its own line; extraction follows it.
    let wrapped = FileModel::build(
        "fn f() {\n    counter!(\n        \"analysis.prefilter_skips\",\n        n,\n    );\n}\n",
    );
    let uses = extract_labels(&wrapped);
    assert_eq!(uses.len(), 1);
    assert_eq!(uses[0].label, "analysis.prefilter_skips");
    assert_eq!(uses[0].line, 1, "attributed to the invocation line");

    // Mentions inside comments and strings never match.
    let in_literals = FileModel::build(
        "// span!(\"docs.example\")\nfn f() {\n    let _s = \"span!(\\\"not.code\\\")\";\n}\n",
    );
    assert!(extract_labels(&in_literals).is_empty());

    // Multi-byte prose (em dashes, ‖·‖, Δ) before the calls must not shift
    // extraction off the right labels.
    let shifted = FileModel::build(
        "// prose — with — em dashes — and ‖Δ‖ before the call\nfn f() {\n    \
         let _s = span!(\"thermal.cg_solve\");\n    counter!(\"thermal.cg_iterations\", 1u64);\n}\n",
    );
    let uses = extract_labels(&shifted);
    assert_eq!(uses.len(), 2);
    assert_eq!(uses[0].label, "thermal.cg_solve");
    assert_eq!(uses[1].label, "thermal.cg_iterations");
}

#[test]
fn l008_lib_crate_root_attr() {
    // A lib crate root without forbid(unsafe_code) fires at line 1.
    let bare = "//! A crate.\n\npub fn f() {}\n";
    assert_eq!(
        fires("crates/power/src/lib.rs", bare),
        expected("L008", &[1])
    );
    // forbid satisfies the rule; so does cfg_attr-wrapped forbid.
    let forbid = "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(fires("crates/power/src/lib.rs", forbid).is_empty());
    // A deny downgrade fires on its own line unless pragma-justified.
    let deny = "//! A crate.\n#![deny(unsafe_code)]\npub fn f() {}\n";
    assert_eq!(
        fires("crates/power/src/lib.rs", deny),
        expected("L008", &[2])
    );
    let deny_justified = "//! A crate.\n\
         // hotgauge-lint: allow(L008, \"one sanctioned block in m::f\")\n\
         #![deny(unsafe_code)]\npub fn f() {}\n";
    assert!(fires("crates/power/src/lib.rs", deny_justified).is_empty());
    // Only lib crate roots are held to the attribute; other modules and
    // binaries are not.
    assert!(fires("crates/power/src/other.rs", bare).is_empty());
    assert!(fires("src/bin/hotgauge.rs", bare).is_empty());
    // An unsafe block without a `// SAFETY:` comment is clippy's
    // `undocumented_unsafe_blocks` finding, not L008's.
    let undocumented = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert!(fires("crates/power/src/other.rs", undocumented).is_empty());
}

#[test]
fn l009_hash_iteration() {
    let src = include_str!("../fixtures/l009.rs");
    assert_eq!(
        fires("crates/core/src/fixture_l009.rs", src),
        expected("L009", &[7])
    );
    // Outside the numeric kernel crates hash iteration is not policed, and
    // test context is exempt.
    assert!(fires("crates/perf/src/fixture_l009.rs", src).is_empty());
    assert!(fires("crates/core/tests/fixture_l009.rs", src).is_empty());
    // `for ... in` over a hash container fires too.
    let for_iter = "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0;\n    \
         for (_, v) in m {\n        acc += v;\n    }\n    acc\n}\n";
    assert_eq!(
        fires("crates/thermal/src/fixture_l009b.rs", for_iter),
        expected("L009", &[4])
    );
}

#[test]
fn l010_scoped_concurrency() {
    let src = include_str!("../fixtures/l010.rs");
    assert_eq!(
        fires("crates/thermal/src/fixture_l010.rs", src),
        expected("L010", &[8])
    );
    // A counter atomic on a non-Relaxed ordering fires the counter arm.
    let acquire_counter = "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn f(iter_count: &AtomicU64) {\n    \
         iter_count.fetch_add(1, Ordering::AcqRel);\n}\n";
    assert_eq!(
        fires("crates/core/src/fixture_l010b.rs", acquire_counter),
        expected("L010", &[3])
    );
    // Lock acquisition inside a loop body fires in kernel modules only.
    let lock_in_loop = "use std::sync::Mutex;\n\
         pub fn f(m: &Mutex<f64>, n: usize) -> f64 {\n    let mut acc = 0.0;\n    \
         for _ in 0..n {\n        acc += *m.lock().unwrap_or_else(|e| e.into_inner());\n    }\n    \
         acc\n}\n";
    assert_eq!(
        fires("crates/thermal/src/fixture_l010c.rs", lock_in_loop),
        expected("L010", &[5])
    );
    assert!(fires("crates/workloads/src/fixture_l010c.rs", lock_in_loop).is_empty());
}

#[test]
fn l011_per_iteration_allocation() {
    let src = include_str!("../fixtures/l011.rs");
    assert_eq!(
        fires("crates/thermal/src/fixture_l011.rs", src),
        expected("L011", &[10])
    );
    // Only the thermal kernel modules are policed; the same allocations in
    // another crate (or thermal's own tests) don't fire L011 — the
    // stranded L011 grant falls to L012 instead.
    assert_eq!(
        fires("crates/core/src/fixture_l011.rs", src),
        expected("L012", &[30])
    );
    assert_eq!(
        fires("crates/thermal/tests/fixture_l011.rs", src),
        expected("L012", &[30])
    );
    // Closure bodies count as per-iteration context (the old L007 was
    // blind to them).
    let in_closure = "pub fn f(rows: &[f64]) -> f64 {\n    rows.iter().map(|&r| {\n        \
         let v = vec![r];\n        v[0]\n    }).sum()\n}\n";
    assert_eq!(
        fires("crates/thermal/src/fixture_l011b.rs", in_closure),
        expected("L011", &[3])
    );
}

#[test]
fn l012_unused_pragma() {
    let src = include_str!("../fixtures/l012.rs");
    assert_eq!(
        fires("crates/core/src/fixture_l012.rs", src),
        expected("L012", &[4])
    );
}

#[test]
fn stale_l007_grant_is_an_unknown_rule() {
    // L007 was retired in v4; a leftover grant must surface as L000, not
    // silently grant nothing. The same holds for L001, retired in v5.
    let src = "pub fn f(n: usize) -> usize {\n    let mut t = 0;\n    for i in 0..n {\n        \
         // hotgauge-lint: allow(L007, \"stale\")\n        \
         let v: Vec<usize> = (0..i).collect();\n        t += v.len();\n    }\n    t\n}\n";
    assert_eq!(
        fires("crates/thermal/src/fixture_stale.rs", src),
        vec![("L000".to_string(), 4), ("L011".to_string(), 5),]
    );
    assert_eq!(
        fires(
            "crates/thermal/src/fixture_stale.rs",
            &src.replace("L007", "L001")
        ),
        vec![("L000".to_string(), 4), ("L011".to_string(), 5),]
    );
}

#[test]
fn malformed_pragmas_surface_as_l000() {
    let src = include_str!("../fixtures/pragma.rs");
    assert_eq!(
        fires("crates/core/src/fixture_pragma.rs", src),
        expected("L000", &[4, 7, 10, 13])
    );
}
