//! Pragma grants and `#[cfg(test)]` regions, as the token-stream
//! [`FileModel`] reads them.

use hotgauge_lint::lex::FileModel;

#[test]
fn preceding_line_pragma_covers_next_code_line_across_blanks() {
    let src = "// hotgauge-lint: allow(L003, \"why\")\n\nlet v = x as f32;\n";
    let m = FileModel::build(src);
    assert_eq!(m.grants.pragmas.len(), 1);
    assert_eq!(m.grants.pragmas[0].rule, "L003");
    assert_eq!(m.grants.pragmas[0].justification, "why");
    assert!(m.grants.is_allowed(2, "L003"));
    assert!(!m.grants.is_allowed(2, "L002"));
}

#[test]
fn same_line_pragma_covers_only_its_line() {
    let src = "x as f32; // hotgauge-lint: allow(L003, \"why\")\ny as f32;\n";
    let m = FileModel::build(src);
    assert!(m.grants.is_allowed(0, "L003"));
    assert!(!m.grants.is_allowed(1, "L003"));
}

#[test]
fn one_comment_may_carry_multiple_grants() {
    let src = "// hotgauge-lint: allow(L003, \"a\") allow(L005, \"b\")\nx as f32;\n";
    let m = FileModel::build(src);
    assert!(m.grants.is_allowed(1, "L003"));
    assert!(m.grants.is_allowed(1, "L005"));
}

#[test]
fn doc_mentions_of_the_pragma_syntax_are_not_grants() {
    let src = "/// Use `// hotgauge-lint: allow(RULE, \"why\")` to grant.\nx as f32;\n";
    let m = FileModel::build(src);
    assert!(m.grants.pragmas.is_empty());
    assert!(m.grants.errors.is_empty());
}

#[test]
fn malformed_pragmas_are_reported_not_dropped() {
    let src = "// hotgauge-lint: allow(L003)\n";
    let m = FileModel::build(src);
    assert!(m.grants.pragmas.is_empty());
    assert_eq!(m.grants.errors.len(), 1);
    assert_eq!(m.grants.errors[0].line, 0);
}

#[test]
fn cfg_test_regions_are_marked() {
    let src =
        "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn b() {}\n";
    let m = FileModel::build(src);
    assert_eq!(
        m.in_test,
        vec![false, true, true, true, true, false],
        "only the gated mod (attribute through closing brace) is marked"
    );
}
