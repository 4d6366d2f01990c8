//! Unit tests for the token-stream lexer and brace-tree scope layer.

#![expect(
    clippy::panic,
    reason = "a test helper: a missing token fails the test that asked for it"
)]

use hotgauge_lint::lex::{lex, FileModel, ScopeKind, TokenKind};

fn kinds(src: &str) -> Vec<(TokenKind, String)> {
    lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
}

fn code_texts(src: &str) -> Vec<String> {
    lex(src)
        .into_iter()
        .filter(|t| {
            matches!(
                t.kind,
                TokenKind::Ident | TokenKind::Lifetime | TokenKind::Number | TokenKind::Punct
            )
        })
        .map(|t| t.text)
        .collect()
}

/// The scope kind enclosing the first token whose text is `needle`.
fn scope_kind_at(src: &str, needle: &str) -> ScopeKind {
    let model = FileModel::build(src);
    let at = model
        .tokens
        .iter()
        .position(|t| t.text == needle)
        .unwrap_or_else(|| panic!("token `{needle}` not found"));
    model.scope_of(at).kind
}

#[test]
fn joined_punct_and_generics() {
    assert_eq!(
        code_texts("a::b -> c => d..=e && f || g"),
        ["a", "::", "b", "->", "c", "=>", "d", "..=", "e", "&&", "f", "||", "g"]
    );
    // The shift family is NOT joined: nested generics close token by token.
    assert_eq!(
        code_texts("Vec<Vec<f64>>"),
        ["Vec", "<", "Vec", "<", "f64", ">", ">"]
    );
}

#[test]
fn lifetime_vs_char() {
    // 'a in a generic position is a lifetime; 'a' is a char literal.
    let toks = kinds("fn f<'a>(x: &'a u8) -> char { 'a' }");
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::Char && t == "'a'"));
    // Escaped chars and loop labels.
    let toks = kinds("'outer: loop { break 'outer; }; let c = '\\n';");
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::Lifetime && t == "'outer"));
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::Char && t == "'\\n'"));
}

#[test]
fn numbers_stay_whole() {
    assert_eq!(code_texts("1e-3 + 100e-6"), ["1e-3", "+", "100e-6"]);
    // A range between integers is three tokens, not a malformed float.
    assert_eq!(code_texts("0..n"), ["0", "..", "n"]);
    // Hex digits include `e`; a trailing sign is NOT an exponent there.
    assert_eq!(code_texts("0x1e-3"), ["0x1e", "-", "3"]);
    // Suffixes and separators stick to the literal.
    assert_eq!(code_texts("1_000u64 2.5f64"), ["1_000u64", "2.5f64"]);
}

#[test]
fn strings_and_comments_are_single_tokens() {
    let toks =
        kinds("let s = \"a { b } c\"; // trailing { comment }\nlet r = r#\"raw \"quote\" {\"#;");
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::Str && t == "\"a { b } c\""));
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::LineComment && t.contains("trailing")));
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::RawStr && t.contains("raw \"quote\"")));
    // Braces inside literals/comments never open scopes.
    let model = FileModel::build("fn f() { let s = \"}}}{{{\"; }");
    assert_eq!(model.scopes.len(), 2, "root + fn body only");
}

#[test]
fn nested_block_comments() {
    let toks = kinds("/* outer /* inner */ still outer */ fn f() {}");
    assert_eq!(toks[0].0, TokenKind::BlockComment);
    assert!(toks[0].1.ends_with("still outer */"));
}

#[test]
fn scope_classification() {
    let src = "fn top(n: usize) -> usize {\n    let mut in_fn = 0;\n    for i in 0..n {\n        \
               in_for();\n    }\n    while in_fn > 0 {\n        in_while();\n    }\n    \
               loop {\n        in_loop();\n        break;\n    }\n    \
               let f = |x: usize| {\n        in_closure()\n    };\n    \
               unsafe {\n        danger();\n    }\n    in_fn\n}\n\
               impl Foo for Bar {\n    fn method(&self) {\n        in_method();\n    }\n}\n";
    assert_eq!(scope_kind_at(src, "in_fn"), ScopeKind::Fn);
    // The loop variable sits in the *header* (fn scope); body tokens are
    // what the loop scopes own.
    assert_eq!(scope_kind_at(src, "i"), ScopeKind::Fn);
    assert_eq!(scope_kind_at(src, "in_for"), ScopeKind::ForLoop);
    assert_eq!(scope_kind_at(src, "in_while"), ScopeKind::WhileLoop);
    assert_eq!(scope_kind_at(src, "in_loop"), ScopeKind::Loop);
    assert_eq!(scope_kind_at(src, "in_closure"), ScopeKind::Closure);
    assert_eq!(scope_kind_at(src, "danger"), ScopeKind::Unsafe);
    assert_eq!(scope_kind_at(src, "method"), ScopeKind::Impl);
    assert_eq!(scope_kind_at(src, "in_method"), ScopeKind::Fn);
}

#[test]
fn impl_for_is_not_a_for_loop() {
    // `impl Trait for Type` contains `for` but is an impl, not a loop.
    let src = "impl Iterator for Holder {\n    fn next(&mut self) -> Option<u8> {\n        \
               not_in_loop()\n    }\n}\n";
    assert_eq!(scope_kind_at(src, "not_in_loop"), ScopeKind::Fn);
    let model = FileModel::build(src);
    let at = model
        .tokens
        .iter()
        .position(|t| t.text == "not_in_loop")
        .unwrap();
    assert!(!model.in_loop(at));
    assert!(!model.in_loop_or_closure(at));
}

#[test]
fn loop_chain_sees_through_nested_blocks() {
    let src = "fn f(n: usize) {\n    while n > 0 {\n        if n > 1 {\n            \
               { deep_alloc(); }\n        }\n    }\n}\n";
    let model = FileModel::build(src);
    let at = model
        .tokens
        .iter()
        .position(|t| t.text == "deep_alloc")
        .unwrap();
    assert!(model.in_loop(at), "nested blocks inherit the while body");
    assert_eq!(model.scope_of(at).kind, ScopeKind::Block);
}

#[test]
fn spans_are_char_offsets() {
    // Multi-byte prose before a token must not skew its span.
    let src = "// Δ‖·‖ prose\nlet x = 1;";
    let toks = lex(src);
    let x = toks.iter().find(|t| t.text == "x").unwrap();
    let chars: Vec<char> = src.chars().collect();
    assert_eq!(chars[x.start], 'x');
    assert_eq!(x.line, 1);
    // Spans tile the file: strictly increasing, non-overlapping.
    for w in toks.windows(2) {
        assert!(w[0].end <= w[1].start);
        assert!(w[0].start < w[0].end);
    }
}

#[test]
fn byte_and_raw_byte_strings_are_single_tokens() {
    let src = "let a = b\"panic!(x)\"; let b2 = br#\"todo!()\"#;\n";
    let toks = kinds(src);
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::Str && t == "b\"panic!(x)\""));
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::RawStr && t == "br#\"todo!()\"#"));
    assert_eq!(
        code_texts(src),
        ["let", "a", "=", ";", "let", "b2", "=", ";"]
    );
}

#[test]
fn multiline_strings_keep_later_line_numbers() {
    let src = "let s = \"line one\n  panic!(\\\"no\\\")\n\";\nx.unwrap();\n";
    assert!(!code_texts(src).iter().any(|t| t == "panic"));
    let toks = lex(src);
    let x = toks.iter().find(|t| t.text == "x").unwrap();
    assert_eq!(x.line, 3);
}

#[test]
fn escaped_newline_in_char_position_keeps_line_numbers() {
    // `'\` at the end of a line is not a char literal; eating the newline
    // into it would shift every later token's line.
    let src = "let a = '\\\nx';\nb.unwrap();\n";
    let toks = lex(src);
    let b = toks.iter().find(|t| t.text == "b").unwrap();
    assert_eq!(b.line, 2, "line 3 keeps its number");
}
