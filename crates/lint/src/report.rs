//! Output formats and baseline diffing for the lint driver.
//!
//! Three renderings of the same diagnostic list: plain text (the default),
//! a JSON report (`--format json`), and SARIF 2.1.0 (`--format sarif`) for
//! CI annotation upload. All JSON is built as explicit ordered
//! [`Value`](serde::Value) trees so field order is deterministic and keys
//! like `$schema` (not expressible as a derive field name) come out right.
//!
//! The baseline machinery grandfathers known findings: a checked-in file
//! records per-`(file, rule)` counts, `--baseline` subtracts them, and only
//! the excess fails CI. Counts (not line numbers) are the key so unrelated
//! edits that shift lines don't churn the baseline; shrinking a count below
//! its grandfathered level is surfaced as burn-down so the file can be
//! ratcheted tight.

use serde::Value;

use crate::{Diagnostic, POLICY_VERSION, RULES};

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// The JSON report: policy metadata plus the full diagnostic list.
pub fn json_report(diags: &[Diagnostic]) -> Value {
    map(vec![
        ("policy_version", s(POLICY_VERSION)),
        ("rule_count", Value::U64(RULES.len() as u64)),
        ("violations", Value::U64(diags.len() as u64)),
        (
            "diagnostics",
            Value::Seq(
                diags
                    .iter()
                    .map(|d| {
                        map(vec![
                            ("file", s(&d.file)),
                            ("line", Value::U64(d.line as u64)),
                            ("rule", s(&d.rule)),
                            ("severity", s(&d.severity)),
                            ("message", s(&d.message)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A minimal-but-valid SARIF 2.1.0 log: one run, the full rule catalogue
/// under `tool.driver.rules`, one `result` per diagnostic with rule id,
/// level, message, and a physical location (workspace-relative URI plus
/// start line).
pub fn sarif_report(diags: &[Diagnostic]) -> Value {
    let rules = RULES
        .iter()
        .map(|r| {
            map(vec![
                ("id", s(r.id)),
                ("shortDescription", map(vec![("text", s(r.summary))])),
                (
                    "defaultConfiguration",
                    map(vec![("level", s(r.severity.as_str()))]),
                ),
            ])
        })
        .collect();
    let results = diags
        .iter()
        .map(|d| {
            map(vec![
                ("ruleId", s(&d.rule)),
                ("level", s(&d.severity)),
                ("message", map(vec![("text", s(&d.message))])),
                (
                    "locations",
                    Value::Seq(vec![map(vec![(
                        "physicalLocation",
                        map(vec![
                            ("artifactLocation", map(vec![("uri", s(&d.file))])),
                            (
                                "region",
                                map(vec![("startLine", Value::U64(d.line as u64))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    map(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            Value::Seq(vec![map(vec![
                (
                    "tool",
                    map(vec![(
                        "driver",
                        map(vec![
                            ("name", s("hotgauge-lint")),
                            ("semanticVersion", s(POLICY_VERSION)),
                            ("informationUri", s("DESIGN.md")),
                            ("rules", Value::Seq(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Seq(results)),
            ])]),
        ),
    ])
}

/// One grandfathered finding group: `count` findings of `rule` in `file`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative path.
    pub file: String,
    /// Rule id.
    pub rule: String,
    /// How many findings of this rule in this file are grandfathered.
    pub count: usize,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Policy version the baseline was written under.
    pub policy_version: String,
    /// Grandfathered finding groups, sorted (file, rule).
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Capture the current diagnostic list as a baseline.
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Baseline {
        let mut entries: Vec<BaselineEntry> = Vec::new();
        for d in diags {
            match entries
                .iter_mut()
                .find(|e| e.file == d.file && e.rule == d.rule)
            {
                Some(e) => e.count += 1,
                None => entries.push(BaselineEntry {
                    file: d.file.clone(),
                    rule: d.rule.clone(),
                    count: 1,
                }),
            }
        }
        entries.sort_by(|a, b| (&a.file, &a.rule).cmp(&(&b.file, &b.rule)));
        Baseline {
            policy_version: POLICY_VERSION.to_string(),
            entries,
        }
    }

    /// Parse a baseline from its JSON text.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let policy_version = value
            .get("policy_version")
            .and_then(Value::as_str)
            .ok_or("baseline missing string field `policy_version`")?
            .to_string();
        let mut entries = Vec::new();
        for entry in value
            .get("entries")
            .and_then(Value::as_seq)
            .ok_or("baseline missing array field `entries`")?
        {
            let file = entry
                .get("file")
                .and_then(Value::as_str)
                .ok_or("baseline entry missing `file`")?;
            let rule = entry
                .get("rule")
                .and_then(Value::as_str)
                .ok_or("baseline entry missing `rule`")?;
            let count = entry
                .get("count")
                .and_then(Value::as_u64)
                .ok_or("baseline entry missing `count`")? as usize;
            entries.push(BaselineEntry {
                file: file.to_string(),
                rule: rule.to_string(),
                count,
            });
        }
        entries.sort_by(|a, b| (&a.file, &a.rule).cmp(&(&b.file, &b.rule)));
        Ok(Baseline {
            policy_version,
            entries,
        })
    }

    /// Render the baseline as an ordered JSON tree.
    pub fn to_json(&self) -> Value {
        map(vec![
            ("schema_version", Value::U64(1)),
            ("policy_version", s(&self.policy_version)),
            (
                "entries",
                Value::Seq(
                    self.entries
                        .iter()
                        .map(|e| {
                            map(vec![
                                ("file", s(&e.file)),
                                ("rule", s(&e.rule)),
                                ("count", Value::U64(e.count as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Grandfathered count for a `(file, rule)` group.
    fn grandfathered(&self, file: &str, rule: &str) -> usize {
        self.entries
            .iter()
            .find(|e| e.file == file && e.rule == rule)
            .map(|e| e.count)
            .unwrap_or(0)
    }
}

/// The result of diffing current diagnostics against a baseline.
#[derive(Debug, Clone, Default)]
pub struct BaselineDiff {
    /// Findings beyond the grandfathered counts — these fail CI.
    pub new: Vec<Diagnostic>,
    /// `(file, rule, grandfathered, current)` groups whose current count
    /// dropped below the baseline: candidates for ratcheting the baseline.
    pub burned_down: Vec<(String, String, usize, usize)>,
}

/// Diff `diags` (sorted by the driver) against `base`. Within a
/// `(file, rule)` group the first `grandfathered` findings in line order
/// are absorbed; the rest are new.
pub fn diff_against_baseline(diags: &[Diagnostic], base: &Baseline) -> BaselineDiff {
    let mut diff = BaselineDiff::default();
    let mut counts: Vec<(String, String, usize)> = Vec::new();
    for d in diags {
        let seen = match counts
            .iter_mut()
            .find(|(f, r, _)| f == &d.file && r == &d.rule)
        {
            Some((_, _, n)) => {
                *n += 1;
                *n
            }
            None => {
                counts.push((d.file.clone(), d.rule.clone(), 1));
                1
            }
        };
        if seen > base.grandfathered(&d.file, &d.rule) {
            diff.new.push(d.clone());
        }
    }
    for e in &base.entries {
        let current = counts
            .iter()
            .find(|(f, r, _)| f == &e.file && r == &e.rule)
            .map(|&(_, _, n)| n)
            .unwrap_or(0);
        if current < e.count {
            diff.burned_down
                .push((e.file.clone(), e.rule.clone(), e.count, current));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: usize, rule: &str) -> Diagnostic {
        Diagnostic::new(file, line, rule, format!("{rule} at {file}:{line}"))
    }

    #[test]
    fn baseline_roundtrip_and_diff() {
        let diags = vec![
            diag("a.rs", 3, "L003"),
            diag("a.rs", 9, "L003"),
            diag("b.rs", 1, "L005"),
        ];
        let base = Baseline::from_diagnostics(&diags);
        let text = serde_json::to_string_pretty(&base.to_json()).unwrap();
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.entries, base.entries);
        assert_eq!(parsed.policy_version, POLICY_VERSION);

        // Same findings: nothing new, nothing burned down.
        let diff = diff_against_baseline(&diags, &parsed);
        assert!(diff.new.is_empty());
        assert!(diff.burned_down.is_empty());

        // One extra L003 in a.rs: exactly the excess is new.
        let mut more = diags.clone();
        more.insert(2, diag("a.rs", 20, "L003"));
        let diff = diff_against_baseline(&more, &parsed);
        assert_eq!(diff.new.len(), 1);
        assert_eq!(diff.new[0].line, 20);

        // One fewer L003: burn-down is reported, nothing is new.
        let fewer = vec![diag("a.rs", 3, "L003"), diag("b.rs", 1, "L005")];
        let diff = diff_against_baseline(&fewer, &parsed);
        assert!(diff.new.is_empty());
        assert_eq!(
            diff.burned_down,
            vec![("a.rs".to_string(), "L003".to_string(), 2, 1)]
        );
    }

    #[test]
    fn sarif_shape() {
        let diags = vec![diag("crates/x/src/lib.rs", 7, "L008")];
        let sarif = sarif_report(&diags);
        assert_eq!(sarif.get("version").and_then(Value::as_str), Some("2.1.0"));
        let run = &sarif.get("runs").and_then(Value::as_seq).unwrap()[0];
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(
            driver.get("name").and_then(Value::as_str),
            Some("hotgauge-lint")
        );
        assert_eq!(
            driver.get("rules").and_then(Value::as_seq).unwrap().len(),
            RULES.len()
        );
        let result = &run.get("results").and_then(Value::as_seq).unwrap()[0];
        assert_eq!(result.get("ruleId").and_then(Value::as_str), Some("L008"));
        assert_eq!(result.get("level").and_then(Value::as_str), Some("error"));
        let loc = &result.get("locations").and_then(Value::as_seq).unwrap()[0];
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(
            phys.get("artifactLocation")
                .unwrap()
                .get("uri")
                .and_then(Value::as_str),
            Some("crates/x/src/lib.rs")
        );
        assert_eq!(
            phys.get("region")
                .unwrap()
                .get("startLine")
                .and_then(Value::as_u64),
            Some(7)
        );
    }
}
