//! Differential snapshot suite for the content-addressed result store.
//!
//! The contract under test (`hotgauge-store`): a persisted run reads back
//! **bit-identically** through a freshly opened store; content keys are a
//! pure function of the value tree (invariant under field reordering and
//! re-serialization, stable across processes — pinned by golden literals);
//! any single-field mutation of the simulation input changes the key (no
//! collisions over the mutation corpus); and a tampered snapshot is never
//! served — it is quarantined and counted as a miss.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use hotgauge_core::analysis::AnalysisConfig;
use hotgauge_core::pipeline::{run_sim, RunResult, SimConfig};
use hotgauge_core::ThrottlePolicy;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_store::{canonical_string, key_of_value, run_key, ResultStore};
use hotgauge_thermal::warmup::Warmup;
use serde::Value;

/// A scratch store root unique to this test process and tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotgauge-rt-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Full bit-level equality of two runs, config included (`SimConfig` has no
/// `PartialEq`; its canonical JSON form is compared instead).
fn assert_same_run(a: &RunResult, b: &RunResult) {
    assert_eq!(
        serde_json::to_string(&a.config).unwrap(),
        serde_json::to_string(&b.config).unwrap()
    );
    assert_eq!(a.records, b.records);
    assert_eq!(a.tuh_s, b.tuh_s);
    assert_eq!(a.census, b.census);
    assert_eq!(a.delta_hist, b.delta_hist);
    assert_eq!(a.total_instructions, b.total_instructions);
    assert_eq!(a.throttled_windows, b.throttled_windows);
    assert_eq!(a.final_frame, b.final_frame);
    assert_eq!(a.sev_series, b.sev_series);
}

/// The fully pinned config behind the golden key literal: every field the
/// mutation corpus touches is set explicitly, so the corpus mutates known
/// base values.
fn pinned_cfg() -> SimConfig {
    let mut c = SimConfig::new(TechNode::N7, "hmmer");
    c.cell_um = 300.0;
    c.border_mm = 1.0;
    c.substeps = 1;
    c.sample_instrs = 8_000;
    c.max_time_s = 5e-4;
    c.warmup = Warmup::Cold;
    c.seed = 7;
    c.target_core = 2;
    c
}

fn with(base: &SimConfig, f: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut c = base.clone();
    f(&mut c);
    c
}

/// Cheap config variety for the proptest cases (all at the fast fidelity
/// the sweep-equivalence suite uses).
fn cfg_from_entropy(bits: u64) -> SimConfig {
    let benches = ["hmmer", "povray", "gcc"];
    let mut c = pinned_cfg();
    c.benchmark = benches[(bits % 3) as usize].to_owned();
    c.seed = (bits >> 2) % 8;
    c.target_core = ((bits >> 5) % 3) as usize;
    c.cell_um = [300.0, 360.0][((bits >> 7) % 2) as usize];
    c.node = if (bits >> 8) & 1 == 0 {
        TechNode::N7
    } else {
        TechNode::N10
    };
    c
}

/// Recursively reverses the entry order of every JSON object in the tree —
/// the adversarial re-serialization canonicalization must undo.
fn reverse_maps(v: &Value) -> Value {
    match v {
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .rev()
                .map(|(k, val)| (k.clone(), reverse_maps(val)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.iter().map(reverse_maps).collect()),
        other => other.clone(),
    }
}

proptest! {
    // Each case simulates one run; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    // The headline roundtrip: persist a real simulation result, reopen the
    // store (a fresh process, as far as the on-disk state can tell), and
    // read the run back bit-for-bit under full verification.
    #[test]
    fn store_roundtrip_is_bit_identical(bits in 0u64..u64::MAX) {
        let cfg = cfg_from_entropy(bits);
        let want = run_sim(cfg.clone());
        let key = run_key(&cfg);
        // The recorded config must key identically to the submitted one,
        // or verification on read-back would quarantine our own writes.
        prop_assert_eq!(run_key(&want.config), key.clone());

        let root = scratch(&format!("roundtrip-{bits:x}"));
        let mut store = ResultStore::open(&root).unwrap();
        store.put(&key, &want).unwrap();
        store.flush().unwrap();
        prop_assert_eq!(store.stats().writes, 1);
        drop(store);

        let mut reopened = ResultStore::open(&root).unwrap();
        prop_assert!(reopened.contains(&key), "flushed index must list the key");
        let got = reopened.get(&key).expect("a verified snapshot must be served");
        assert_same_run(&got, &want);
        let stats = reopened.stats();
        prop_assert_eq!((stats.hits, stats.misses, stats.quarantined), (1, 0, 0));
        let _ = fs::remove_dir_all(&root);
    }

    // Keys are a pure function of the value: re-serializing through text
    // and reversing every object's field order never changes them.
    #[test]
    fn key_is_invariant_under_reserialization_and_field_order(bits in 0u64..u64::MAX) {
        let cfg = cfg_from_entropy(bits);
        let v = serde_json::to_value(&cfg);
        let k = key_of_value(&v);
        let text = serde_json::to_string(&cfg).unwrap();
        let reparsed: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(key_of_value(&reparsed), k.clone());
        let reversed = reverse_maps(&v);
        prop_assert_eq!(key_of_value(&reversed), k.clone());
        // And the full run key (domain + config + profile) is deterministic.
        prop_assert_eq!(run_key(&cfg), run_key(&cfg.clone()));
    }
}

/// Every single-field mutation of the simulation input must move the key,
/// and no two mutations may collide — a stale snapshot served after any of
/// these edits would be a wrong result, not a slow one.
#[test]
fn single_field_mutations_all_change_the_key() {
    let base = pinned_cfg();
    let mutations: Vec<(&str, SimConfig)> = vec![
        (
            "benchmark",
            with(&base, |c| c.benchmark = "povray".to_owned()),
        ),
        ("node", with(&base, |c| c.node = TechNode::N10)),
        ("target_core", with(&base, |c| c.target_core = 3)),
        ("warmup", with(&base, |c| c.warmup = Warmup::Idle)),
        ("cell_um", with(&base, |c| c.cell_um = 320.0)),
        ("border_mm", with(&base, |c| c.border_mm = 1.5)),
        ("substeps", with(&base, |c| c.substeps = 2)),
        ("sample_instrs", with(&base, |c| c.sample_instrs = 9_000)),
        (
            "max_instructions",
            with(&base, |c| c.max_instructions = 1_000_000),
        ),
        ("max_time_s", with(&base, |c| c.max_time_s = 6e-4)),
        ("seed", with(&base, |c| c.seed = 8)),
        ("ic_area_factor", with(&base, |c| c.ic_area_factor = 1.5)),
        (
            "stop_at_first_hotspot",
            with(&base, |c| c.stop_at_first_hotspot = true),
        ),
        (
            "background_idle",
            with(&base, |c| c.background_idle = !c.background_idle),
        ),
        (
            "detect.t_threshold_c",
            with(&base, |c| c.detect.t_threshold_c = 75.0),
        ),
        (
            "detect.mltd_threshold_c",
            with(&base, |c| c.detect.mltd_threshold_c = 9.0),
        ),
        (
            "analysis.prefilter",
            with(&base, |c| c.analysis.prefilter = false),
        ),
        ("solver_threads", with(&base, |c| c.solver_threads = 3)),
        (
            "throttle",
            with(&base, |c| {
                c.throttle = Some(ThrottlePolicy::mitigation_default())
            }),
        ),
        (
            "throttle.sensor_latency_windows",
            with(&base, |c| {
                c.throttle = Some(ThrottlePolicy {
                    sensor_latency_windows: 4,
                    ..ThrottlePolicy::mitigation_default()
                })
            }),
        ),
        (
            "track_units",
            with(&base, |c| c.track_units.push("L2".to_owned())),
        ),
    ];
    let base_key = run_key(&base);
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(base_key.as_hex().to_owned());
    for (name, mutated) in &mutations {
        let key = run_key(mutated);
        assert_ne!(key, base_key, "mutating {name} did not change the key");
        assert!(
            seen.insert(key.as_hex().to_owned()),
            "key collision on mutation {name}"
        );
    }
    assert_eq!(seen.len(), mutations.len() + 1);
}

/// Golden canonical-text and key literals for a fixed value tree: the key
/// derivation (canonicalization + 128-bit FNV-1a) must produce these exact
/// strings in every process on every platform. A mismatch means the
/// derivation changed — bump [`hotgauge_store::KEY_DOMAIN`] and re-pin.
#[test]
fn golden_value_key_is_pinned() {
    let v = Value::Map(vec![
        ("zeta".to_owned(), Value::F64(5.0)),
        (
            "alpha".to_owned(),
            Value::Seq(vec![Value::I64(-1), Value::Null]),
        ),
        ("mid".to_owned(), Value::Str("a\"b".to_owned())),
        ("tiny".to_owned(), Value::F64(1.25e-4)),
        ("neg".to_owned(), Value::F64(-0.0)),
    ]);
    assert_eq!(
        canonical_string(&v),
        r#"{"alpha":[-1,null],"mid":"a\"b","neg":0,"tiny":0.000125,"zeta":5}"#
    );
    assert_eq!(
        key_of_value(&v).as_hex(),
        "49545647d618fd3d7d03c2cb3b4dcf64"
    );
}

/// Golden run-key literal for the fully pinned config: cross-process key
/// stability is the property that lets one machine's store serve another
/// machine's sweep. A mismatch here means either the key derivation or the
/// config/profile schema changed; both legitimately invalidate old stores,
/// so re-pin after bumping [`hotgauge_store::KEY_DOMAIN`].
#[test]
fn golden_run_key_is_pinned() {
    assert_eq!(
        run_key(&pinned_cfg()).as_hex(),
        "1ee3382b28b2c1afe79f9145e3832ebd"
    );
}

/// Every `SimConfig` embeds the default `AnalysisConfig`, so the default
/// must serialize the same on every host, or one machine's run keys would
/// miss another machine's store.
#[test]
fn default_analysis_config_is_host_independent() {
    assert_eq!(
        serde_json::to_string(&AnalysisConfig::default()).unwrap(),
        r#"{"prefilter":true}"#
    );
}

/// A snapshot whose embedded config was tampered with on disk fails the
/// recomputed-key check: it is quarantined, never served, and the lookup
/// counts as a miss — corruption costs a re-simulation, never correctness.
#[test]
fn tampered_snapshot_is_quarantined_not_served() {
    let cfg = pinned_cfg();
    let want = run_sim(cfg.clone());
    let key = run_key(&cfg);
    let root = scratch("tamper");
    let mut store = ResultStore::open(&root).unwrap();
    store.put(&key, &want).unwrap();
    store.flush().unwrap();
    let path = store.object_path(&key);
    drop(store);

    // Flip the stored seed: the object still parses and still sits at its
    // addressed path, so only the recomputed content key can catch it.
    let text = fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("\"seed\": 7", "\"seed\": 8", 1);
    assert_ne!(tampered, text, "tamper target not found in snapshot text");
    fs::write(&path, tampered).unwrap();

    let mut reopened = ResultStore::open(&root).unwrap();
    assert!(
        reopened.get(&key).is_none(),
        "a tampered snapshot was served"
    );
    let stats = reopened.stats();
    assert_eq!((stats.hits, stats.misses, stats.quarantined), (0, 1, 1));
    assert!(
        !path.exists(),
        "tampered object must leave the objects tree"
    );
    assert!(
        root.join("quarantine").join(format!("{key}.json")).exists(),
        "tampered object must land in quarantine/"
    );
    let _ = fs::remove_dir_all(&root);
}
