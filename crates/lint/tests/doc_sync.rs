//! The DESIGN.md §8 rule catalogue and the compiled-in `RULES` table must
//! list exactly the same rules — `--list-rules` is generated from `RULES`,
//! so this holds the docs and the tool to each other.

#![expect(
    clippy::expect_used,
    reason = "a test helper: a missing DESIGN.md fails the test that reads it"
)]

use hotgauge_lint::{find_workspace_root, Severity, POLICY_VERSION, RULES};

fn design_md() -> String {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md at workspace root")
}

/// `(id, level)` rows of the §8 catalogue table, in order.
fn catalogue_rows(doc: &str) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for line in doc.lines() {
        let mut cols = line.split('|').map(str::trim);
        let Some("") = cols.next() else { continue };
        let Some(id) = cols.next() else { continue };
        if id.len() == 4 && id.starts_with('L') && id[1..].chars().all(|c| c.is_ascii_digit()) {
            let level = cols.next().unwrap_or("").to_string();
            rows.push((id.to_string(), level));
        }
    }
    rows
}

#[test]
fn design_catalogue_matches_compiled_rules() {
    let doc = design_md();
    let rows = catalogue_rows(&doc);
    assert_eq!(
        rows.iter().map(|(id, _)| id.as_str()).collect::<Vec<_>>(),
        RULES.iter().map(|r| r.id).collect::<Vec<_>>(),
        "DESIGN.md §8 table rows must list exactly the rules in RULES, in order"
    );
    for ((id, level), rule) in rows.iter().zip(RULES) {
        assert_eq!(
            level,
            rule.severity.as_str(),
            "DESIGN.md level for {id} disagrees with the compiled severity"
        );
    }
}

#[test]
fn design_mentions_current_policy_version() {
    let doc = design_md();
    assert!(
        doc.contains(&format!("policy v{POLICY_VERSION}")),
        "DESIGN.md §8 must name the enforced policy version"
    );
}

#[test]
fn severities_cover_all_rules() {
    // Every catalogued rule resolves to a real severity (the `severity_of`
    // fallback to Error is for unknown ids only).
    for rule in RULES {
        let _: Severity = rule.severity;
        assert!(matches!(
            rule.severity.as_str(),
            "error" | "warning" | "note"
        ));
    }
}
