//! `// hotgauge-lint: allow(RULE, "why")` grants, parsed from the
//! `LineComment` tokens of a file's token stream.
//!
//! A grant covers the line its comment sits on. When that line holds no
//! code, it also covers the next line that does (the usual "pragma on the
//! preceding line" style, across blank and comment-only lines). One comment
//! may carry several `allow(...)` clauses; a comment that starts with the
//! key but does not parse is reported as an L000 error.

use std::cell::Cell;

use crate::lex::{Token, TokenKind};

/// A parsed `hotgauge-lint: allow(...)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rule identifier, e.g. `L005`.
    pub rule: String,
    /// Mandatory human justification.
    pub justification: String,
    /// Zero-based line the pragma comment appears on.
    pub line: usize,
    /// Set when the grant actually suppressed a diagnostic; L012 flags
    /// grants that never fire so the suppression set stays tight.
    pub used: Cell<bool>,
}

/// A malformed pragma (reported as an L000 diagnostic).
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// Zero-based line of the offending comment.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

/// Every pragma of one file, indexed by the lines each one covers.
#[derive(Debug, Default)]
pub struct Grants {
    /// Parsed pragmas, in source order.
    pub pragmas: Vec<Pragma>,
    /// Malformed pragmas.
    pub errors: Vec<PragmaError>,
    /// Per line, the indices of the pragmas covering it.
    by_line: Vec<Vec<usize>>,
}

impl Grants {
    /// Parses the pragmas among `tokens` of a file with `n_lines` lines.
    pub(crate) fn parse(tokens: &[Token], n_lines: usize) -> Grants {
        let mut has_code = vec![false; n_lines];
        for t in tokens {
            let code = matches!(
                t.kind,
                TokenKind::Ident | TokenKind::Lifetime | TokenKind::Number | TokenKind::Punct
            );
            if code && t.line < n_lines {
                has_code[t.line] = true;
            }
        }
        let mut grants = Grants {
            by_line: vec![Vec::new(); n_lines],
            ..Grants::default()
        };
        for t in tokens.iter().filter(|t| t.kind == TokenKind::LineComment) {
            grants.parse_comment(t.line, &t.text);
        }
        for (ix, p) in grants.pragmas.iter().enumerate() {
            if p.line >= n_lines {
                continue;
            }
            grants.by_line[p.line].push(ix);
            if !has_code[p.line] {
                if let Some(next) = (p.line + 1..n_lines).find(|&l| has_code[l]) {
                    grants.by_line[next].push(ix);
                }
            }
        }
        grants
    }

    /// Is `rule` granted on zero-based `line`?
    pub fn is_allowed(&self, line: usize, rule: &str) -> bool {
        self.by_line
            .get(line)
            .is_some_and(|ixs| ixs.iter().any(|&i| self.pragmas[i].rule == rule))
    }

    /// Like [`is_allowed`](Self::is_allowed), but records that the grant
    /// suppressed a real diagnostic. Rules call this *after* detecting a
    /// violation, so an unfired grant stays unused and L012 can flag it.
    pub fn allow(&self, line: usize, rule: &str) -> bool {
        let mut hit = false;
        for &i in self.by_line.get(line).into_iter().flatten() {
            if self.pragmas[i].rule == rule {
                self.pragmas[i].used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Parses one `//` comment. A pragma must be the comment's entire
    /// content, `hotgauge-lint:` right after the slashes (or doc sigils): a
    /// mid-prose mention of the key in docs is not a grant.
    fn parse_comment(&mut self, line: usize, text: &str) {
        let head = text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim_start();
        let Some(mut rest) = head.strip_prefix(PRAGMA_KEY) else {
            return;
        };
        let mut found_any = false;
        let mut failed = false;
        while let Some(open) = rest.find("allow(") {
            let body = &rest[open + "allow(".len()..];
            match parse_allow_body(body) {
                Ok((rule, justification, consumed)) => {
                    found_any = true;
                    self.pragmas.push(Pragma {
                        rule,
                        justification,
                        line,
                        used: Cell::new(false),
                    });
                    rest = &body[consumed..];
                }
                Err(message) => {
                    self.errors.push(PragmaError { line, message });
                    failed = true;
                    break;
                }
            }
        }
        if !found_any && !failed {
            self.errors.push(PragmaError {
                line,
                message: format!(
                    "pragma comment has no parsable allow(RULE, \"justification\") clause: `{}`",
                    text.trim()
                ),
            });
        }
    }
}

const PRAGMA_KEY: &str = "hotgauge-lint:";

/// Parses `RULE, "justification")`, returning the rule, the justification,
/// and how many bytes of `body` were consumed.
fn parse_allow_body(body: &str) -> Result<(String, String, usize), String> {
    let comma = body
        .find(',')
        .ok_or_else(|| "allow(...) pragma is missing the , \"justification\" part".to_string())?;
    let rule = body[..comma].trim().to_string();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric()) {
        return Err(format!(
            "allow(...) pragma has malformed rule name `{rule}`"
        ));
    }
    let after = &body[comma + 1..];
    let q1 = after
        .find('"')
        .ok_or_else(|| "allow(...) justification must be a quoted string".to_string())?;
    let after_q1 = &after[q1 + 1..];
    let q2 = after_q1
        .find('"')
        .ok_or_else(|| "allow(...) justification string is unterminated".to_string())?;
    let justification = after_q1[..q2].trim().to_string();
    if justification.is_empty() {
        return Err(format!("allow({rule}, ...) has an empty justification"));
    }
    let close = after_q1[q2 + 1..]
        .find(')')
        .ok_or_else(|| "allow(...) pragma is missing the closing parenthesis".to_string())?;
    let consumed = comma + 1 + q1 + 1 + q2 + 1 + close + 1;
    Ok((rule, justification, consumed))
}
