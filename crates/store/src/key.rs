//! Stable content keys over canonical JSON.
//!
//! A [`ContentKey`] addresses one simulation run: it is the 128-bit FNV-1a
//! hash of the *canonical string* of a JSON value tree built from the key
//! domain tag, the [`SimConfig`], and the resolved workload profile. Canonicalization makes the key a pure function of the value —
//! not of field order, serialization style, or process:
//!
//! * object keys are sorted lexicographically (the vendored `serde` `Value`
//!   preserves insertion order, so two trees describing the same object can
//!   differ in entry order);
//! * numbers are written in a normalized form: integers as integer text,
//!   finite floats via Rust's shortest-roundtrip `Display` with `-0.0`
//!   folded to `0`, non-finite floats as `null`. This makes the canonical
//!   text *idempotent under re-parse*: the vendored JSON parser reads `"5"`
//!   back as an integer and `"-0"` as `0`, and both re-render to the same
//!   canonical text that produced them;
//! * strings are escaped deterministically.
//!
//! The [`KEY_DOMAIN`] tag is hashed into every key. Bump it whenever the
//! key derivation itself changes meaning (new fields sourced from outside
//! the config, a different profile fingerprint, a change to the serialized
//! `SimConfig`); every old key then misses and the store re-simulates
//! rather than serving stale rows.

use std::fmt;
use std::fmt::Write as _;

use hotgauge_core::pipeline::SimConfig;
use serde::{Deserialize, Serialize, Value};

/// Domain/version tag mixed into every key. Bumping it invalidates every
/// previously stored key (forcing re-simulation, never wrong results).
pub const KEY_DOMAIN: &str = "hotgauge.store.key.v4";

/// Hex width of a key: 128 FNV-1a bits.
pub const KEY_HEX_LEN: usize = 32;

/// A 128-bit content address, stored as 32 lowercase hex characters.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentKey(String);

impl ContentKey {
    /// The lowercase hex form.
    pub fn as_hex(&self) -> &str {
        &self.0
    }

    /// Parses a hex key, validating shape (32 lowercase hex chars).
    pub fn from_hex(s: &str) -> Result<Self, crate::StoreError> {
        let ok = s.len() == KEY_HEX_LEN
            && s.bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
        if ok {
            Ok(ContentKey(s.to_owned()))
        } else {
            Err(crate::StoreError::InvalidRequest(format!(
                "malformed content key `{s}` (expected {KEY_HEX_LEN} lowercase hex chars)"
            )))
        }
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for ContentKey {
    fn to_value(&self) -> Value {
        Value::Str(self.0.clone())
    }
}

impl Deserialize for ContentKey {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected content-key string"))?;
        ContentKey::from_hex(s).map_err(serde::Error::custom)
    }
}

/// The content key of a run: hashes the key domain, the config (which
/// carries the seed), and the resolved workload profile. The sweep executor
/// records each submitted config unchanged in its result, so the key of the
/// submitted config addresses exactly what a fresh sweep produces.
pub fn run_key(cfg: &SimConfig) -> ContentKey {
    let payload = Value::Map(vec![
        ("domain".to_owned(), Value::Str(KEY_DOMAIN.to_owned())),
        ("config".to_owned(), serde_json::to_value(cfg)),
        ("profile".to_owned(), profile_value(&cfg.benchmark)),
    ]);
    key_of_value(&payload)
}

/// The resolved workload profile of `benchmark` as a value tree, or `null`
/// for names the workload layer cannot resolve (such runs fail validation
/// long before reaching the store, but the key stays total).
pub fn profile_value(benchmark: &str) -> Value {
    match hotgauge_workloads::benchmark_profile(benchmark) {
        Some(profile) => serde_json::to_value(&profile),
        None => Value::Null,
    }
}

/// Hashes any value tree into a [`ContentKey`] via its canonical string.
pub fn key_of_value(v: &Value) -> ContentKey {
    ContentKey(format!(
        "{:032x}",
        fnv1a_128(canonical_string(v).as_bytes())
    ))
}

/// The canonical (compact, key-sorted, number-normalized) JSON text of a
/// value tree; see the module docs for the normalization rules.
pub fn canonical_string(v: &Value) -> String {
    let mut out = String::new();
    write_canonical(v, &mut out);
    out
}

fn write_canonical(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(i) => {
            let _ = write!(out, "{i}");
        }
        Value::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Value::F64(x) => write_canonical_f64(*x, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.push('{');
            for (i, (k, val)) in sorted.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_canonical(val, out);
            }
            out.push('}');
        }
    }
}

/// Normalized float text: non-finite folds to `null` (matching the JSON
/// writer, which cannot represent it), `-0.0` folds to `0`, and everything
/// else uses Rust's shortest-roundtrip `Display` — which prints integral
/// floats as integer text, exactly what the parser hands back for them.
fn write_canonical_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == 0.0 {
        out.push('0');
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// 128-bit FNV-1a. Dependency-free, byte-order independent, and identical
/// on every platform/process — the properties a content address needs; the
/// store is not a security boundary, so a non-cryptographic hash is fine.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_floorplan::tech::TechNode;

    #[test]
    fn canonical_sorts_keys_and_recurses() {
        let v = Value::Map(vec![
            ("z".to_owned(), Value::U64(1)),
            (
                "a".to_owned(),
                Value::Map(vec![
                    ("y".to_owned(), Value::Bool(true)),
                    ("x".to_owned(), Value::Null),
                ]),
            ),
        ]);
        assert_eq!(canonical_string(&v), r#"{"a":{"x":null,"y":true},"z":1}"#);
    }

    #[test]
    fn canonical_number_normalization() {
        assert_eq!(canonical_string(&Value::F64(-0.0)), "0");
        assert_eq!(canonical_string(&Value::F64(5.0)), "5");
        assert_eq!(canonical_string(&Value::F64(f64::NAN)), "null");
        assert_eq!(canonical_string(&Value::F64(0.001)), "0.001");
        assert_eq!(canonical_string(&Value::I64(-3)), "-3");
        assert_eq!(canonical_string(&Value::U64(3)), "3");
    }

    #[test]
    fn canonical_text_is_idempotent_under_reparse() {
        let v = Value::Map(vec![
            ("f".to_owned(), Value::F64(5.0)),
            ("z".to_owned(), Value::F64(-0.0)),
            ("s".to_owned(), Value::Str("a\"b\\c\n".to_owned())),
            ("small".to_owned(), Value::F64(1.25e-4)),
        ]);
        let text = canonical_string(&v);
        let reparsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(canonical_string(&reparsed), text);
        assert_eq!(key_of_value(&reparsed), key_of_value(&v));
    }

    #[test]
    fn map_order_never_changes_the_key() {
        let fwd = Value::Map(vec![
            ("a".to_owned(), Value::U64(1)),
            ("b".to_owned(), Value::Str("x".to_owned())),
        ]);
        let rev = Value::Map(vec![
            ("b".to_owned(), Value::Str("x".to_owned())),
            ("a".to_owned(), Value::U64(1)),
        ]);
        assert_eq!(key_of_value(&fwd), key_of_value(&rev));
    }

    #[test]
    fn run_key_separates_config_and_seed_mutations() {
        let base = SimConfig::new(TechNode::N7, "hmmer");
        let k0 = run_key(&base);
        let mut seeded = base.clone();
        seeded.seed = 17;
        let mut other_bench = base.clone();
        other_bench.benchmark = "povray".to_owned();
        let mut other_node = base.clone();
        other_node.node = TechNode::N10;
        let keys = [
            k0.clone(),
            run_key(&seeded),
            run_key(&other_bench),
            run_key(&other_node),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(run_key(&base), k0, "keys are deterministic");
    }

    #[test]
    fn content_key_hex_round_trips() {
        let k = key_of_value(&Value::Null);
        assert_eq!(k.as_hex().len(), KEY_HEX_LEN);
        let back = ContentKey::from_hex(k.as_hex()).unwrap();
        assert_eq!(back, k);
        assert!(ContentKey::from_hex("nope").is_err());
        assert!(ContentKey::from_hex(&k.as_hex().to_uppercase()).is_err());
    }
}
