//! Self-test: the workspace must be clean under its own policy. The lint
//! reads source text and has no cfg-dependent code, so one run covers the
//! default and `--features telemetry` source trees alike.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = hotgauge_lint::run_lint(&root).expect("workspace walk failed");
    for d in &diags {
        eprintln!("{d}");
    }
    assert!(
        diags.is_empty(),
        "workspace has {} hotgauge-lint violation(s); see stderr",
        diags.len()
    );
}
