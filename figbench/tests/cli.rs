//! Drives the benchmark binary at `--scale tiny` (a few runs or requests
//! per workload) and checks it against `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(bench: &'a Value, key: &str) -> &'a [Value] {
    bench.get(key).and_then(Value::as_seq).expect(key)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

fn workloads() -> Vec<String> {
    list(&benchmark_json(), "workloads")
        .iter()
        .map(|w| field(w, "name").to_owned())
        .collect()
}

fn tmp() -> String {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("figbench-tests")
        .display()
        .to_string()
}

/// Runs the binary and parses its last stdout line.
fn run(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_hotgauge-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let v = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "{args:?}: last line is not JSON ({e}): {last}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), v)
}

/// Checks a result line: correct, attempted, no failures, and exactly the
/// metrics of `BENCHMARK.json`'s `group`, each with its unit and a finite
/// value.
fn check_result(workload: &str, result: &Value, group: &str) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {result:?}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_map)
        .expect("metrics");
    let bench = benchmark_json();
    let wanted = list(&bench, group);
    assert_eq!(metrics.len(), wanted.len(), "{workload}: {group} count");
    for m in wanted {
        let name = field(m, "name");
        let got = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            got.get("unit").and_then(Value::as_str),
            Some(field(m, "unit")),
            "{name}"
        );
        let value = got
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    let tmp = tmp();
    for w in workloads() {
        let (ok, result) = run(&[
            "--workload",
            &w,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--scale",
            "tiny",
            "--tmp",
            &tmp,
        ]);
        assert!(ok, "{w}: non-zero exit");
        check_result(&w, &result, "end_to_end");
        let metrics = result.get("metrics").expect("metrics");
        for name in ["setup_s", "wall_s", "sim_ms_per_s", "peak_rss_mb"] {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(v.unwrap_or(0.0) > 0.0, "{w}: {name} must never read 0");
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let tmp = tmp();
    for w in workloads() {
        let (ok, result) = run(&[
            "--workload",
            &w,
            "--seed",
            "3",
            "--trace",
            "1",
            "--scale",
            "tiny",
            "--tmp",
            &tmp,
        ]);
        assert!(ok, "{w}: non-zero exit");
        check_result(&w, &result, "per_layer");
    }
}

#[test]
fn the_same_seed_gives_the_same_digest() {
    let tmp = tmp();
    for w in workloads() {
        let pass = |seed: &str| {
            let (ok, report) = run(&[
                "pass",
                "--workload",
                &w,
                "--seed",
                seed,
                "--scale",
                "tiny",
                "--tmp",
                &tmp,
            ]);
            assert!(ok, "{w}: pass failed: {report:?}");
            field(&report, "checked_digest").to_owned()
        };
        let first = pass("11");
        assert_eq!(first, pass("11"), "{w}: same seed, different results");
        assert_ne!(
            first,
            pass("12"),
            "{w}: the seed does not reach the program"
        );
    }
}

#[test]
fn names_and_units_are_well_formed() {
    let bench = benchmark_json();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for group in ["workloads", "end_to_end", "per_layer"] {
        for entry in list(&bench, group) {
            let name = field(entry, "name");
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name.to_owned()), "{name} used twice");
            if group != "workloads" {
                let unit = field(entry, "unit");
                assert!(
                    unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "bad unit {unit}"
                );
                assert!(matches!(field(entry, "better"), "lower" | "higher"));
            }
        }
    }
    let setup = list(&bench, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(field(setup, "unit"), "s");
    assert_eq!(field(setup, "better"), "lower");
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "fig11_grid"][..],
        &["--seed", "x", "--workload", "fig11_grid"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hotgauge-benchmark"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a result");
    }
}
