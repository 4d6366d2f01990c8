//! Differential sweep-equivalence suite for the sweep executor.
//!
//! The contract under test (`hotgauge_core::sweep`): running a batch of
//! configurations through the pooled executor — at any pool width and any
//! batch width — produces **bit-identical, order-preserving** results to
//! running each configuration through the serial `run_sim` path. Proptest
//! generates heterogeneous batches (mixed benchmarks, nodes, grid
//! geometries, seeds) so the batch grouper sees full batches, stragglers,
//! and singleton geometries that run as one-lane batches.
//!
//! All tests share one process-wide gate: the telemetry recorder is global,
//! so the counter-invariant checks must not interleave with other sweeps in
//! this binary.

use std::fs;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{run_many, run_sim, RunResult, SimConfig};
use hotgauge_core::{run_batch, run_many_batched_with, ThrottlePolicy};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_store::{
    run_many_keyed_with, run_many_stored_with, serve, DeltaBasis, ResultStore, RunSource,
    ServeOptions, SweepRow, ROW_SCHEMA_VERSION,
};
use hotgauge_thermal::warmup::Warmup;
use serde::Value;

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
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

fn base_cfg(benchmark: &str) -> SimConfig {
    let mut c = SimConfig::new(TechNode::N7, benchmark);
    c.cell_um = 300.0;
    c.border_mm = 1.0;
    c.substeps = 1;
    c.sample_instrs = 8_000;
    c.max_time_s = 5e-4;
    c.warmup = Warmup::Cold;
    c
}

/// A zero-latency DVFS policy with a trigger low enough that a cold 7 nm
/// run engages it within its first windows.
fn low_trigger() -> ThrottlePolicy {
    ThrottlePolicy {
        trigger_severity: 0.1,
        release_severity: 0.08,
        sensor_latency_windows: 0,
        ..ThrottlePolicy::mitigation_default()
    }
}

/// Heterogeneous sweep entries: SPEC proxies and server traces over several
/// geometries (so batch groups form and split), varying seeds, target cores,
/// substep counts and throttle policies (a policy never splits a batch
/// group, so throttled and unthrottled lanes share batches).
/// Every dimension is sliced deterministically out of one entropy word.
fn cfg_from_entropy(bits: u64) -> SimConfig {
    let benches = ["hmmer", "povray", "gcc", "server_web", "server_kv"];
    let mut c = base_cfg(benches[(bits % 5) as usize]);
    c.cell_um = [300.0, 360.0, 420.0][((bits >> 3) % 3) as usize];
    c.node = if (bits >> 5) & 1 == 0 {
        TechNode::N7
    } else {
        TechNode::N10
    };
    c.seed = (bits >> 8) % 8;
    c.target_core = ((bits >> 11) % 3) as usize;
    c.substeps = 1 + ((bits >> 13) % 2) as usize;
    c.throttle = [
        None,
        Some(ThrottlePolicy::mitigation_default()),
        Some(low_trigger()),
    ][((bits >> 19) % 3) as usize];
    c
}

proptest! {
    // Each case runs every config five times (two references + three pool
    // widths); keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    // The headline differential: the solo `run_sim` reference vs the pool at
    // widths 1, 2, and 8, on proptest-generated heterogeneous batches.
    #[test]
    fn pool_matches_serial_reference_at_all_widths(
        entropy in prop::collection::vec(0u64..u64::MAX, 2..5),
    ) {
        let _g = lock();
        let cfgs: Vec<SimConfig> = entropy.into_iter().map(cfg_from_entropy).collect();
        // The reference comes from the serial `run_sim` path.
        let ref_plain: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
        for width in [1usize, 2, 8] {
            let got = run_many(cfgs.clone(), width);
            prop_assert_eq!(got.len(), cfgs.len());
            for (g, w) in got.iter().zip(&ref_plain) {
                assert_same_run(g, w);
            }
        }
    }

    // The batch differential: explicit batch widths (full batches,
    // stragglers, singleton-geometry fallbacks — whatever the generated
    // geometry mix produces) against the same serial `run_sim` reference,
    // on a one-worker pool.
    #[test]
    fn lockstep_batches_match_serial_reference_at_all_widths(
        entropy in prop::collection::vec(0u64..u64::MAX, 2..5),
    ) {
        let _g = lock();
        let cfgs: Vec<SimConfig> = entropy.into_iter().map(cfg_from_entropy).collect();
        let ref_plain: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
        for batch in [2usize, 3, 8] {
            let got = run_many_batched_with(cfgs.clone(), 1, batch, None);
            prop_assert_eq!(got.len(), cfgs.len());
            for (g, w) in got.iter().zip(&ref_plain) {
                assert_same_run(g, w);
            }
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotgauge-eq-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

proptest! {
    // Each case runs up to five sweeps over the same batch; keep it low.
    #![proptest_config(ProptestConfig::with_cases(2))]

    // The store dimension of the equivalence contract: keyed-storeless,
    // fresh-store, warm-store, delta-with-full-basis, and
    // delta-with-empty-basis sweeps are all bit-identical to the plain
    // pooled executor on proptest-generated heterogeneous batches.
    #[test]
    fn store_and_delta_dimensions_never_change_results(
        entropy in prop::collection::vec(0u64..u64::MAX, 2..4),
    ) {
        let _g = lock();
        let cfgs: Vec<SimConfig> = entropy.iter().copied().map(cfg_from_entropy).collect();
        let n = cfgs.len();
        let want = run_many_batched_with(cfgs.clone(), 2, 8, None);
        let root = scratch(&format!("dims-{:x}", entropy[0]));
        let mut store = ResultStore::open(&root).unwrap();

        // Storeless-but-keyed (the `hotgauge sweep` path without --store).
        let keyed = run_many_keyed_with(cfgs.clone(), 2, 8, None);
        prop_assert_eq!(keyed.stats.lookups(), 0);
        for (g, w) in keyed.results.iter().zip(&want) {
            assert_same_run(g, w);
        }

        // Fresh store: everything simulates, then persists.
        let pass1 = run_many_stored_with(cfgs.clone(), 2, 8, &mut store, None, None).unwrap();
        prop_assert!(pass1.sources.iter().all(|&s| s == RunSource::Simulated));
        prop_assert_eq!(&pass1.keys, &keyed.keys);
        for (g, w) in pass1.results.iter().zip(&want) {
            assert_same_run(g, w);
        }

        // Warm store: everything serves from disk.
        let pass2 = run_many_stored_with(cfgs.clone(), 2, 8, &mut store, None, None).unwrap();
        prop_assert!(pass2.sources.iter().all(|&s| s == RunSource::Store));
        for (g, w) in pass2.results.iter().zip(&want) {
            assert_same_run(g, w);
        }

        // Delta, full basis from the flushed index: still all served.
        let basis = DeltaBasis::from_index_file(&root).unwrap();
        let pass3 =
            run_many_stored_with(cfgs.clone(), 2, 8, &mut store, Some(&basis), None).unwrap();
        prop_assert!(pass3.sources.iter().all(|&s| s == RunSource::Store));
        for (g, w) in pass3.results.iter().zip(&want) {
            assert_same_run(g, w);
        }

        // Delta, empty basis: everything re-simulates, still identical.
        let empty = DeltaBasis::from_keys(std::iter::empty());
        let pass4 =
            run_many_stored_with(cfgs.clone(), 2, 8, &mut store, Some(&empty), None).unwrap();
        prop_assert!(pass4.sources.iter().all(|&s| s == RunSource::Simulated));
        prop_assert_eq!(pass4.stats.misses, n as u64);
        for (g, w) in pass4.results.iter().zip(&want) {
            assert_same_run(g, w);
        }
        let _ = fs::remove_dir_all(&root);
    }
}

/// The NDJSON serve loop: every output line — row or error — is
/// independently parseable and schema-tagged, batches flush on blank
/// lines, malformed lines reject without killing the session, and a warm
/// replay returns rows identical to the fresh pass except for provenance.
#[test]
fn serve_streams_schema_tagged_ndjson_rows() {
    let _g = lock();
    let fid = Fidelity {
        cell_um: 350.0,
        border_mm: 1.0,
        substeps: 1,
        sample_instrs: 5_000,
        max_time_s: 5e-4,
        threads: 2,
        batch: 8,
    };
    let opts = ServeOptions::from_fidelity(fid);
    let root = scratch("serve");
    let mut store = ResultStore::open(&root).unwrap();

    let input = concat!(
        "{\"benchmark\":\"hmmer\"}\n",
        "{\"benchmark\":\"gcc\",\"seed\":3}\n",
        "\n",
        "not json\n",
        "{\"benchmark\":\"povray\",\"core\":1}\n",
    );
    let mut out = Vec::new();
    let summary = serve(Cursor::new(input), &mut out, &mut store, &opts, None).unwrap();
    assert_eq!((summary.batches, summary.rows, summary.rejected), (2, 3, 1));

    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "2 rows + 1 error line + 1 row");
    for line in &lines {
        let v: Value = serde_json::from_str(line).expect("every line parses on its own");
        let Value::Map(entries) = v else {
            panic!("every line is a JSON object");
        };
        let tag = entries
            .iter()
            .find(|(k, _)| k == "schema_version")
            .map(|(_, v)| v.clone());
        assert_eq!(tag, Some(Value::U64(u64::from(ROW_SCHEMA_VERSION))));
    }
    // Lines 0-1: the first batch, in request order. Line 2: the rejected
    // raw line's error. Line 3: the second batch.
    let rows: Vec<SweepRow> = [lines[0], lines[1], lines[3]]
        .iter()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(rows[0].benchmark, "hmmer");
    assert_eq!((rows[0].seq, rows[0].total), (1, 2));
    assert_eq!(rows[1].benchmark, "gcc");
    assert_eq!((rows[1].seq, rows[1].seed), (2, 3));
    assert_eq!(rows[2].benchmark, "povray");
    assert_eq!((rows[2].seq, rows[2].total, rows[2].target_core), (1, 1, 1));
    assert!(rows.iter().all(|r| r.source == "sim"));
    assert!(lines[2].contains("\"error\""));

    // Warm replay of the first batch: identical rows, store provenance.
    let mut out2 = Vec::new();
    let replay = "{\"benchmark\":\"hmmer\"}\n{\"benchmark\":\"gcc\",\"seed\":3}\n";
    let summary2 = serve(Cursor::new(replay), &mut out2, &mut store, &opts, None).unwrap();
    assert_eq!((summary2.rows, summary2.stats.hits), (2, 2));
    let replayed: Vec<SweepRow> = std::str::from_utf8(&out2)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(replayed.len(), 2);
    for (fresh, warm) in rows[..2].iter().zip(&replayed) {
        assert_eq!(warm.source, "store");
        let mut warm_as_sim = warm.clone();
        warm_as_sim.source = "sim".to_owned();
        assert_eq!(&warm_as_sim, fresh, "served row differs from fresh row");
    }
    let _ = fs::remove_dir_all(&root);
}

/// Results come back in input order regardless of which worker ran what,
/// so downstream manifests keep their deterministic row order.
#[test]
fn results_keep_input_order_on_a_wide_pool() {
    let _g = lock();
    let benches = [
        "hmmer",
        "povray",
        "gcc",
        "server_web",
        "server_kv",
        "server_analytics",
    ];
    let cfgs: Vec<SimConfig> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut c = base_cfg(b);
            c.seed = i as u64;
            c.cell_um = if i % 2 == 0 { 300.0 } else { 400.0 };
            c
        })
        .collect();
    let rs = run_many(cfgs.clone(), 8);
    assert_eq!(rs.len(), cfgs.len());
    for (r, c) in rs.iter().zip(&cfgs) {
        assert_eq!(r.config.benchmark, c.benchmark);
        assert_eq!(r.config.seed, c.seed);
        assert_eq!(r.config.cell_um, c.cell_um);
    }
}

/// The batch-shape edge cases: empty batches return cleanly for any
/// `--threads` value (including auto), and pools wider than the job count
/// behave like exactly-sized ones.
#[test]
fn degenerate_batch_shapes() {
    let _g = lock();
    for threads in [0usize, 1, 3, 64] {
        assert!(run_many(Vec::new(), threads).is_empty());
    }
    let single = run_many(vec![base_cfg("hmmer")], 64);
    assert_eq!(single.len(), 1);
    assert_eq!(single[0].config.benchmark, "hmmer");
    let two = run_many(vec![base_cfg("hmmer"), base_cfg("povray")], 64);
    assert_eq!(two.len(), 2);
    assert_eq!(two[0].config.benchmark, "hmmer");
    assert_eq!(two[1].config.benchmark, "povray");
}

/// Per-lane stop and prefilter behaviour inside a batch: a lane that trips
/// its hotspot threshold stops early (a straggler whose batch mates run
/// past it to the horizon), a prefiltered sub-threshold stop lane
/// skips its per-substep analysis, and a lane whose geometry matches no one
/// runs as a one-lane batch — all bit-identical to serial.
#[test]
fn lockstep_stop_prefilter_and_fallback_lanes_match_serial() {
    let _g = lock();
    // Lane 0: thresholds low enough to fire mid-run (early-stop straggler).
    let mut hot = base_cfg("hmmer");
    hot.stop_at_first_hotspot = true;
    hot.detect.t_threshold_c = 48.0;
    hot.detect.mltd_threshold_c = 0.05;
    hot.analysis.prefilter = true;
    // Lane 1: stop mode at the paper's 80 °C — never fires, so the
    // prefilter skips every substep's analysis for this lane alone.
    let mut cold_stop = base_cfg("povray");
    cold_stop.stop_at_first_hotspot = true;
    cold_stop.analysis.prefilter = true;
    // Lanes 2-3: plain full-horizon runs sharing the batch.
    let mut plain_a = base_cfg("gcc");
    plain_a.seed = 3;
    let plain_b = base_cfg("server_web");
    // Lane 4: unique geometry — a singleton group, a one-lane batch.
    let mut odd_geom = base_cfg("server_kv");
    odd_geom.cell_um = 420.0;
    let cfgs = vec![hot, cold_stop, plain_a, plain_b, odd_geom];
    let want: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
    assert!(
        want[0].tuh_s.is_some() && want[0].records.len() < want[2].records.len(),
        "premise: lane 0 must stop early while its batch mates run on"
    );
    assert!(
        want[1].tuh_s.is_none(),
        "premise: lane 1 must stay sub-threshold so its prefilter engages"
    );
    let got = run_many_batched_with(cfgs, 1, 8, None);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_same_run(g, w);
    }
}

/// Throttled lanes in one batch: lanes under different policies, an
/// unthrottled lane and a throttled lane that stops at its first hotspot
/// share one `run_batch` batch, and every lane equals its solo run bit for
/// bit.
#[test]
fn throttled_lanes_match_their_solo_runs_in_lockstep() {
    let _g = lock();
    let lane = |bench: &str, throttle: Option<ThrottlePolicy>| {
        let mut c = base_cfg(bench);
        c.max_time_s = 2e-3;
        c.throttle = throttle;
        c
    };
    let slow_sensor = ThrottlePolicy {
        sensor_latency_windows: 2,
        ..low_trigger()
    };
    let mut stop = lane("gcc", Some(low_trigger()));
    stop.stop_at_first_hotspot = true;
    stop.detect.t_threshold_c = 48.0;
    stop.detect.mltd_threshold_c = 0.05;
    stop.analysis.prefilter = true;
    let cfgs = vec![
        lane("hmmer", Some(low_trigger())),
        lane("povray", Some(slow_sensor)),
        lane("gcc", Some(ThrottlePolicy::mitigation_default())),
        lane("server_web", None),
        stop,
    ];
    let want: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
    assert!(
        want[0].throttled_windows > 0 && want[1].throttled_windows > 0,
        "premise: the low-trigger lanes must engage"
    );
    assert_eq!(want[3].throttled_windows, 0);
    assert!(
        want[4].tuh_s.is_some() && want[4].records.len() < want[3].records.len(),
        "premise: the stop lane must stop before its batch mates"
    );
    let got = run_batch(cfgs, None);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_same_run(g, w);
    }
}

/// Warm-up starts mixed in one batch: an idle-start lane 0 with a
/// cold-start mate, then the reverse order. A mate clones lane 0's parts,
/// thermal state included, and construction resets that state before the
/// mate's own warm-up, so every lane equals its solo run bit for bit. The
/// idle warm-up memo is keyed on geometry alone, not on the idle stream, so
/// the idle lane has a geometry that no other test here idle-warms.
#[test]
fn mixed_warmup_lanes_match_their_solo_runs_in_lockstep() {
    let _g = lock();
    let lane = |bench: &str, warmup: Warmup| {
        let mut c = base_cfg(bench);
        c.cell_um = 330.0;
        c.warmup = warmup;
        c
    };
    let idle = lane("hmmer", Warmup::Idle);
    let cold = lane("povray", Warmup::Cold);
    let want_idle = run_sim(idle.clone());
    let want_cold = run_sim(cold.clone());
    assert!(
        want_idle.records[0].mean_temp_c > want_cold.records[0].mean_temp_c + 0.5,
        "premise: the idle lane starts warmer"
    );
    let got = run_batch(vec![idle.clone(), cold.clone()], None);
    assert_same_run(&got[0], &want_idle);
    assert_same_run(&got[1], &want_cold);
    let got = run_batch(vec![cold, idle], None);
    assert_same_run(&got[0], &want_cold);
    assert_same_run(&got[1], &want_idle);
}

/// The fig11 shape from a cold start: 21 same-geometry runs at batch 8 on
/// a two-worker pool, which the partition splits into items of 6, 5, 5
/// and 5 lanes. Every run is bit-identical to its serial `run_sim`.
#[test]
fn fig11_shaped_grid_on_two_workers_matches_serial_reference() {
    let _g = lock();
    let benches = ["hmmer", "povray", "gcc"];
    let cfgs: Vec<SimConfig> = (0..21)
        .map(|i| {
            let mut c = base_cfg(benches[i % 3]);
            c.target_core = i / 3;
            c.stop_at_first_hotspot = true;
            c
        })
        .collect();
    let want: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
    let got = run_many_batched_with(cfgs, 2, 8, None);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_same_run(g, w);
    }
}

/// Executor telemetry is self-consistent: every scheduled job completes
/// exactly once, the partition's items carry every run, and batches wider
/// than one lane account for every run they carry.
// hotgauge-lint: allow(L002, "this test reads the recorder's snapshot API directly, which only exists under the feature; the facade macros cannot gate a whole #[test] fn")
#[cfg(feature = "telemetry")]
#[test]
fn executor_telemetry_counters_are_consistent() {
    let _g = lock();
    const JOBS: usize = 12;
    const WIDTH: usize = 3;
    const BATCH: usize = 2;
    // One geometry of twelve runs at batch 2: six width-2 items, which
    // already balance any pool of up to three workers, so the partition
    // keeps them.
    const ITEMS: usize = JOBS / BATCH;
    let cfgs: Vec<SimConfig> = (0..JOBS)
        .map(|i| {
            let mut c = base_cfg("hmmer");
            c.seed = i as u64;
            c
        })
        .collect();
    let before = hotgauge_telemetry::snapshot();
    let rs = run_many_batched_with(cfgs, WIDTH, BATCH, None);
    let after = hotgauge_telemetry::snapshot();
    assert_eq!(rs.len(), JOBS);

    let total = |snap: &hotgauge_telemetry::Snapshot, label: &str| {
        snap.counter(label).map_or(0.0, |c| c.total)
    };
    let delta = |label: &str| total(&after, label) - total(&before, label);
    assert_eq!(delta("sweep.jobs"), JOBS as f64);
    assert_eq!(delta("sweep.completions"), JOBS as f64);
    assert_eq!(delta("sweep.items"), ITEMS as f64);
    // Every run went through a batch of two, and batch widths sum to the
    // run count (six full width-2 batches).
    assert_eq!(delta("solver.lockstep_runs"), JOBS as f64);
    assert_eq!(delta("solver.batch_width"), JOBS as f64);
    let span_calls =
        |snap: &hotgauge_telemetry::Snapshot| snap.span("sweep.executor").map_or(0, |s| s.calls);
    assert_eq!(span_calls(&after) - span_calls(&before), 1);
}
