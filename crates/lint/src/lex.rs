//! Token-stream lexer and brace-tree scope layer: the one view of a source
//! file that every rule reads.
//!
//! [`FileModel::build`] lexes a source file into a flat token stream
//! (identifiers, numbers, lifetimes, joined punctuation, and literal and
//! comment tokens, each with char-offset spans and line numbers) and then
//! brace-matches the stream into a scope tree, classifying every `{...}`
//! body as a function, loop, closure, `unsafe` block, `impl`, and so on.
//! Rules ask "what encloses this token?" instead of guessing from line text,
//! and code inside a string or comment can never match a rule pattern. The
//! same pass marks the lines of `#[cfg(test)]` items and parses the
//! `hotgauge-lint: allow(...)` pragmas from the line comments
//! ([`pragma`](crate::pragma)).

use crate::pragma::Grants;

/// What a token is. Literal and comment kinds carry no interior structure —
/// rules never look inside them, which is the point: code that lives in a
/// string or comment can never match a rule pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`for`, `unsafe`, `Vec`, ...).
    Ident,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Numeric literal (`1.0`, `100e-6`, `0x1f`, including suffixes).
    Number,
    /// Punctuation; common two/three-char operators are joined (`::`, `->`,
    /// `=>`, `..`, `&&`, `||`, ...), except the shift family (so nested
    /// generics `Vec<Vec<f64>>` close with two `>` tokens).
    Punct,
    /// String or byte-string literal, prefix and quotes included.
    Str,
    /// Raw or raw-byte string literal, prefix, hashes, and quotes included.
    RawStr,
    /// Char or byte-char literal, prefix and quotes included.
    Char,
    /// `//`-to-end-of-line comment (includes doc comments).
    LineComment,
    /// `/* ... */` comment, nesting-aware.
    BlockComment,
}

impl TokenKind {
    /// Trivia never participates in scope structure or rule token patterns.
    pub fn is_trivia(self) -> bool {
        matches!(self, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// One token with its span. Offsets are char indices into the source, `end`
/// exclusive.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Char offset of the first char.
    pub start: usize,
    /// Char offset one past the last char.
    pub end: usize,
    /// Zero-based line of `start`.
    pub line: usize,
    /// The token's text. For literals and comments this is the whole
    /// literal or comment, delimiters included.
    pub text: String,
}

/// What kind of code body a brace scope is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The file itself (scope 0, never closed).
    Root,
    /// `fn name(...) { ... }` (incl. `unsafe fn`).
    Fn,
    /// `for pat in expr { ... }`.
    ForLoop,
    /// `while cond { ... }` / `while let ... { ... }`.
    WhileLoop,
    /// `loop { ... }`.
    Loop,
    /// A braced closure body (`|x| { ... }`, `move || { ... }`).
    Closure,
    /// `unsafe { ... }`.
    Unsafe,
    /// `impl ... { ... }` (incl. `unsafe impl ... for ...`).
    Impl,
    /// `trait ... { ... }`.
    Trait,
    /// `mod name { ... }`.
    Mod,
    /// `match expr { ... }`.
    Match,
    /// `struct`/`enum`/`union` body.
    Struct,
    /// Anything else: `if`/`else` arms, bare blocks, struct literals, match
    /// arm bodies.
    Block,
}

impl ScopeKind {
    /// Loop bodies proper: code here runs once per iteration.
    pub fn is_loop(self) -> bool {
        matches!(
            self,
            ScopeKind::ForLoop | ScopeKind::WhileLoop | ScopeKind::Loop
        )
    }
}

/// One brace scope: `tokens[open_tok]` is the `{`, `tokens[close_tok]` the
/// matching `}` (or one past the last token when unclosed at EOF).
#[derive(Debug, Clone)]
pub struct Scope {
    /// Body classification.
    pub kind: ScopeKind,
    /// Index of the enclosing scope in [`FileModel::scopes`] (self for root).
    pub parent: usize,
    /// Token index of the opening `{` (0 for root).
    pub open_tok: usize,
    /// Token index of the closing `}`, or `tokens.len()` when unclosed.
    pub close_tok: usize,
}

/// The lexed and scope-resolved view of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// The token stream, trivia included, in source order.
    pub tokens: Vec<Token>,
    /// The scope tree; `scopes[0]` is the file root.
    pub scopes: Vec<Scope>,
    /// Per line: true inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
    /// The file's `hotgauge-lint: allow(...)` pragmas.
    pub grants: Grants,
    /// Innermost scope index per token.
    scope_of: Vec<u32>,
}

impl FileModel {
    /// Lex `src`, build its scope tree, mark its test regions, and parse
    /// its pragmas.
    pub fn build(src: &str) -> FileModel {
        let n_lines = src.lines().count();
        let tokens = lex(src);
        let (scopes, scope_of) = build_scopes(&tokens);
        let grants = Grants::parse(&tokens, n_lines);
        let mut model = FileModel {
            tokens,
            scopes,
            in_test: vec![false; n_lines],
            grants,
            scope_of,
        };
        model.mark_test_regions();
        model
    }

    /// Marks the lines of every `#[cfg(test)]`-gated item, from the
    /// attribute through the item's closing brace. When a `;` comes before
    /// any `{`, the item is brace-less (`mod tests;`, a `use`) and only the
    /// attribute's line is marked.
    fn mark_test_regions(&mut self) {
        const ATTR: &[&str] = &["#", "[", "cfg", "(", "test", ")", "]"];
        let last_line = self.in_test.len().saturating_sub(1);
        let mut t = 0;
        while t < self.tokens.len() {
            if self.tokens[t].text != "#" || !self.matches_seq(t, ATTR) {
                t += 1;
                continue;
            }
            let first_line = self.tokens[t].line;
            let mut after = t;
            for _ in ATTR {
                after = self.next_code(after).map_or(self.tokens.len(), |i| i + 1);
            }
            let open = (after..self.tokens.len())
                .filter(|&i| !self.tokens[i].kind.is_trivia())
                .find(|&i| matches!(self.tokens[i].text.as_str(), "{" | ";"))
                .filter(|&i| self.tokens[i].text == "{");
            let (end_line, next) = match open {
                Some(open) => {
                    let close = self.scopes[self.scope_of[open] as usize].close_tok;
                    let end = self.tokens.get(close).map_or(last_line, |c| c.line);
                    (end, close + 1)
                }
                None => (first_line, after),
            };
            for mark in self
                .in_test
                .iter_mut()
                .take(end_line.min(last_line) + 1)
                .skip(first_line)
            {
                *mark = true;
            }
            t = next;
        }
    }

    /// Is zero-based `line` inside a `#[cfg(test)]`-gated item?
    pub(crate) fn line_in_test(&self, line: usize) -> bool {
        self.in_test.get(line).copied().unwrap_or(false)
    }

    /// Innermost scope containing token `tok`.
    pub fn scope_of(&self, tok: usize) -> &Scope {
        &self.scopes[self.scope_of[tok] as usize]
    }

    /// Walks the scope chain of `tok` from innermost to root.
    pub fn scope_chain(&self, tok: usize) -> ScopeChain<'_> {
        ScopeChain {
            model: self,
            next: Some(self.scope_of[tok] as usize),
        }
    }

    /// Is `tok` inside a `for`/`while`/`loop` body (at any nesting depth)?
    pub fn in_loop(&self, tok: usize) -> bool {
        self.scope_chain(tok).any(|s| s.kind.is_loop())
    }

    /// Is `tok` inside a loop body or a braced closure body? This is the
    /// "hot context" L011 polices: closure bodies in kernel modules are
    /// per-row/per-shard callbacks, so they price like loop bodies.
    pub fn in_loop_or_closure(&self, tok: usize) -> bool {
        self.scope_chain(tok)
            .any(|s| s.kind.is_loop() || s.kind == ScopeKind::Closure)
    }

    /// The next non-trivia token at or after `from`.
    pub fn next_code(&self, from: usize) -> Option<usize> {
        (from..self.tokens.len()).find(|&i| !self.tokens[i].kind.is_trivia())
    }

    /// The previous non-trivia token strictly before `at`.
    pub fn prev_code(&self, at: usize) -> Option<usize> {
        (0..at).rev().find(|&i| !self.tokens[i].kind.is_trivia())
    }

    /// Does the non-trivia token sequence starting at `from` spell exactly
    /// `texts`? Trivia between code tokens is skipped.
    pub fn matches_seq(&self, from: usize, texts: &[&str]) -> bool {
        let mut at = from;
        for want in texts {
            match self.next_code(at) {
                Some(i) if self.tokens[i].text == *want => at = i + 1,
                _ => return false,
            }
        }
        true
    }
}

/// Iterator over a token's enclosing scopes, innermost first, root last.
#[derive(Debug)]
pub struct ScopeChain<'a> {
    model: &'a FileModel,
    next: Option<usize>,
}

impl<'a> Iterator for ScopeChain<'a> {
    type Item = &'a Scope;
    fn next(&mut self) -> Option<&'a Scope> {
        let ix = self.next?;
        let scope = &self.model.scopes[ix];
        self.next = if scope.parent == ix {
            None
        } else {
            Some(scope.parent)
        };
        Some(scope)
    }
}

/// Multi-char punctuation joined into one token, longest first. The shift
/// family (`<<`, `>>`, and their assign forms) is deliberately absent so
/// `Vec<Vec<f64>>` closes with two `>` tokens.
const JOINED_PUNCT: &[&str] = &[
    "..=", "...", "::", "->", "=>", "..", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=",
    "/=", "%=", "^=", "|=", "&=",
];

/// Lex `src` into tokens.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<Token> = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            push(&mut out, TokenKind::LineComment, start, i, line, &chars);
            continue;
        }
        // Block comment, nesting-aware; may span lines.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            push(
                &mut out,
                TokenKind::BlockComment,
                start,
                i,
                start_line,
                &chars,
            );
            continue;
        }
        // Raw / byte string prefixes, only off an identifier boundary
        // (`her#"x"#`-style identifiers must not start a literal).
        let prev_is_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if !prev_is_ident && (c == 'r' || c == 'b') {
            let mut j = i;
            if chars[j] == 'b' {
                j += 1;
            }
            if chars.get(j) == Some(&'r') {
                j += 1;
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    let start = i;
                    let start_line = line;
                    i = j + 1;
                    while i < chars.len() {
                        if chars[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break;
                            }
                        }
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    push(&mut out, TokenKind::RawStr, start, i, start_line, &chars);
                    continue;
                }
                // `r`/`br` without a quote: fall through to identifier.
            } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                let start = i;
                let start_line = line;
                i += 1;
                lex_string(&chars, &mut i, &mut line);
                push(&mut out, TokenKind::Str, start, i, start_line, &chars);
                continue;
            } else if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                let start = i;
                i += 1;
                lex_char(&chars, &mut i);
                push(&mut out, TokenKind::Char, start, i, line, &chars);
                continue;
            }
        }
        if c == '"' {
            let start = i;
            let start_line = line;
            lex_string(&chars, &mut i, &mut line);
            push(&mut out, TokenKind::Str, start, i, start_line, &chars);
            continue;
        }
        if c == '\'' {
            // Lifetime vs char literal: `'\...'` and `'x'` are literals;
            // anything else (`'static`, `'a>`) is a lifetime or label.
            let is_escape = chars.get(i + 1) == Some(&'\\');
            let is_simple = chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'');
            if is_escape || is_simple {
                let start = i;
                lex_char(&chars, &mut i);
                push(&mut out, TokenKind::Char, start, i, line, &chars);
            } else {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                push(&mut out, TokenKind::Lifetime, start, i, line, &chars);
            }
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            push(&mut out, TokenKind::Ident, start, i, line, &chars);
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let radix_prefixed =
                c == '0' && matches!(chars.get(i + 1), Some('x') | Some('b') | Some('o'));
            i += 1;
            loop {
                match chars.get(i) {
                    Some(&d) if d.is_alphanumeric() || d == '_' => {
                        // `1e-3`: a sign directly after a decimal exponent
                        // marker continues the literal (`0x1e-3` is `0x1e`
                        // minus `3`, so radix-prefixed literals never do).
                        i += 1;
                        if !radix_prefixed
                            && (d == 'e' || d == 'E')
                            && matches!(chars.get(i), Some('+') | Some('-'))
                            && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        {
                            i += 1;
                        }
                    }
                    // A `.` continues the number only when a digit follows
                    // (so `0..n` stays a range and `1.max(2)` a method call).
                    Some('.') if chars.get(i + 1).is_some_and(|n| n.is_ascii_digit()) => {
                        i += 1;
                    }
                    _ => break,
                }
            }
            push(&mut out, TokenKind::Number, start, i, line, &chars);
            continue;
        }
        // Punctuation: try the joined spellings longest-first.
        let joined = JOINED_PUNCT.iter().find(|op| {
            op.chars()
                .enumerate()
                .all(|(k, oc)| chars.get(i + k) == Some(&oc))
        });
        let len = joined.map_or(1, |op| op.chars().count());
        push(&mut out, TokenKind::Punct, i, i + len, line, &chars);
        i += len;
    }
    out
}

fn push(
    out: &mut Vec<Token>,
    kind: TokenKind,
    start: usize,
    end: usize,
    line: usize,
    chars: &[char],
) {
    out.push(Token {
        kind,
        start,
        end,
        line,
        text: chars[start..end.min(chars.len())].iter().collect(),
    });
}

/// Advance past a `"..."` string starting at the opening quote.
fn lex_string(chars: &[char], i: &mut usize, line: &mut usize) {
    *i += 1; // opening quote
    while *i < chars.len() {
        match chars[*i] {
            '\\' => {
                *i += 1;
                if *i < chars.len() {
                    if chars[*i] == '\n' {
                        *line += 1;
                    }
                    *i += 1;
                }
            }
            '"' => {
                *i += 1;
                return;
            }
            '\n' => {
                *line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

/// Advance past a `'...'` char literal starting at the opening quote. A bare
/// newline, or one right after a backslash, ends the token without being
/// consumed (malformed literal), so later tokens keep their line numbers.
fn lex_char(chars: &[char], i: &mut usize) {
    *i += 1; // opening quote
    while *i < chars.len() {
        match chars[*i] {
            '\\' => {
                *i += 1;
                if *i < chars.len() {
                    if chars[*i] == '\n' {
                        return;
                    }
                    *i += 1;
                }
            }
            '\'' => {
                *i += 1;
                return;
            }
            '\n' => return,
            _ => *i += 1,
        }
    }
}

/// Build the scope tree by brace-matching the token stream. Each `{` is
/// classified from its *header* — the non-trivia tokens since the last
/// statement boundary (`;`, `}`, `{`, depth-0 `,`, or `=>`) — which is how
/// `for x in xs {` and `impl Trait for Type {` are told apart without a
/// parser.
fn build_scopes(tokens: &[Token]) -> (Vec<Scope>, Vec<u32>) {
    let root = Scope {
        kind: ScopeKind::Root,
        parent: 0,
        open_tok: 0,
        close_tok: tokens.len(),
    };
    let mut scopes = vec![root];
    let mut scope_of = vec![0u32; tokens.len()];
    let mut stack: Vec<usize> = vec![0];
    // Header token indices since the last boundary, trivia excluded.
    let mut header: Vec<usize> = Vec::new();
    // Paren/bracket depth: commas inside `(...)`/`[...]` (tuple patterns,
    // call arguments) do not end a statement header.
    let mut group_depth = 0usize;

    for (t, tok) in tokens.iter().enumerate() {
        scope_of[t] = *stack.last().unwrap_or(&0) as u32;
        if tok.kind.is_trivia() {
            continue;
        }
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Punct, "{") => {
                let kind = classify_header(tokens, &header);
                let parent = *stack.last().unwrap_or(&0);
                scopes.push(Scope {
                    kind,
                    parent,
                    open_tok: t,
                    close_tok: tokens.len(),
                });
                let ix = scopes.len() - 1;
                stack.push(ix);
                scope_of[t] = ix as u32;
                header.clear();
                group_depth = 0;
            }
            (TokenKind::Punct, "}") => {
                if stack.len() > 1 {
                    let ix = stack.pop().unwrap_or(0);
                    scopes[ix].close_tok = t;
                    scope_of[t] = ix as u32;
                }
                header.clear();
                group_depth = 0;
            }
            (TokenKind::Punct, ";") | (TokenKind::Punct, "=>") => {
                header.clear();
                group_depth = 0;
            }
            (TokenKind::Punct, ",") if group_depth == 0 => header.clear(),
            (TokenKind::Punct, "(") | (TokenKind::Punct, "[") => {
                group_depth += 1;
                header.push(t);
            }
            (TokenKind::Punct, ")") | (TokenKind::Punct, "]") => {
                group_depth = group_depth.saturating_sub(1);
                header.push(t);
            }
            _ => header.push(t),
        }
    }
    (scopes, scope_of)
}

/// Decide what body a `{` opens from its header tokens. Documented
/// heuristics, checked in priority order; `Block` is the safe default (a
/// mis-bucketed bare block only makes loop-scoped rules more conservative).
fn classify_header(tokens: &[Token], header: &[usize]) -> ScopeKind {
    let text = |ix: usize| tokens[header[ix]].text.as_str();
    let n = header.len();
    if n == 0 {
        return ScopeKind::Block;
    }
    let last = text(n - 1);
    if last == "unsafe" {
        return ScopeKind::Unsafe;
    }
    // `|x| {`, `move || {`: the closure's parameter list closes right
    // before the body. `|x| -> T {` is caught by the depth-0 `|` plus `->`
    // pair (a bitor in an `if` header has no `->`).
    if last == "|" || last == "||" {
        return ScopeKind::Closure;
    }
    let has = |want: &str| header.iter().any(|&h| tokens[h].text == want);
    if has("|") || has("||") {
        let mut depth = 0usize;
        let mut top_level_bar = false;
        for &h in header {
            match tokens[h].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "|" | "||" if depth == 0 => top_level_bar = true,
                _ => {}
            }
        }
        if top_level_bar && has("->") {
            return ScopeKind::Closure;
        }
    }
    if has("fn") {
        return ScopeKind::Fn;
    }
    if has("impl") {
        return ScopeKind::Impl;
    }
    if has("trait") {
        return ScopeKind::Trait;
    }
    if has("mod") {
        return ScopeKind::Mod;
    }
    if has("struct") || has("enum") || has("union") {
        return ScopeKind::Struct;
    }
    if has("for") && has("in") {
        return ScopeKind::ForLoop;
    }
    if has("while") {
        return ScopeKind::WhileLoop;
    }
    if has("loop") {
        return ScopeKind::Loop;
    }
    if has("match") {
        return ScopeKind::Match;
    }
    ScopeKind::Block
}
