//! Differential test of the activity-trace table: a run's result must not
//! depend on what the process-wide table holds when the run is built.
//!
//! Each target config first runs alone, on a stream no earlier run in this
//! process used (a miss). Then, per target, permuted predecessors that
//! share its stream run: a shorter and a longer horizon, the other warm-up
//! start, another geometry, another substep count and a throttle policy.
//! They leave the entry truncated, extended or untouched. The target then
//! reruns solo, as lane 0 of a `run_batch` batch and on 1- and 2-worker
//! `run_many_batched_with` pools, and every field of every rerun must be
//! bit-identical to its first run.
//!
//! Near misses run among the predecessors too: longer runs that differ
//! from the target in exactly one input of its stream (seed, core, sample
//! size). A key that missed that input would hand them the target's trace,
//! and their extension's rebuild check would fail.
//!
//! Last, a fig8-shaped batch (a cold and an idle-start run of one stream)
//! shares its stream within the batch: lane 1 is built only after lane 0
//! has run and published, so it replays lane 0's windows, and both lanes
//! must equal their solo runs.
//!
//! The idle thermal warm-up memo is keyed on geometry alone (ROADMAP item
//! 1), so every idle-start run here has a geometry that no run with
//! another idle seed uses. The seeds are used by no other test, and the
//! file holds one test, so the table starts empty.

use hotgauge_core::activity_trace::TRACE_TABLE_BYTES;
use hotgauge_core::pipeline::{run_sim, HistSpec, RunResult, SimConfig};
use hotgauge_core::{run_batch, run_many_batched_with, trace_stats, ThrottlePolicy};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_thermal::warmup::Warmup;

/// Every field of two runs, the config by its canonical JSON form.
fn assert_same_run(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(
        serde_json::to_string(&a.config).unwrap(),
        serde_json::to_string(&b.config).unwrap(),
        "{what}"
    );
    assert_eq!(a.records, b.records, "{what}");
    assert_eq!(a.tuh_s, b.tuh_s, "{what}");
    assert_eq!(a.census, b.census, "{what}");
    assert_eq!(a.delta_hist, b.delta_hist, "{what}");
    assert_eq!(a.total_instructions, b.total_instructions, "{what}");
    assert_eq!(a.throttled_windows, b.throttled_windows, "{what}");
    assert_eq!(a.final_frame, b.final_frame, "{what}");
    assert_eq!(a.sev_series, b.sev_series, "{what}");
}

/// A short 7 nm run of 6 windows on its own geometry.
fn target(bench: &str, seed: u64, core: usize, cell_um: f64, warmup: Warmup) -> SimConfig {
    let mut c = SimConfig::new(TechNode::N7, bench);
    c.seed = seed;
    c.target_core = core;
    c.cell_um = cell_um;
    c.border_mm = 1.0;
    c.substeps = 1;
    c.sample_instrs = 8_000;
    c.max_time_s = 1.2e-3;
    c.warmup = warmup;
    c
}

/// Configs that share `t`'s stream and differ in everything else the
/// stream does not depend on, then the near misses. The geometries are
/// offsets of `t`'s, so an idle-start predecessor never shares an idle
/// memo entry with another target's stream; a near miss runs after its
/// target has set the memo entry of its geometry.
fn predecessors(t: &SimConfig) -> Vec<(&'static str, SimConfig)> {
    let vary = |label, f: &dyn Fn(&mut SimConfig)| {
        let mut c = t.clone();
        f(&mut c);
        (label, c)
    };
    vec![
        vary("shorter", &|c| c.max_time_s = 4e-4),
        vary("longer", &|c| c.max_time_s = 2.6e-3),
        vary("other warm-up", &|c| {
            c.warmup = match c.warmup {
                Warmup::Cold => Warmup::Idle,
                _ => Warmup::Cold,
            };
            c.cell_um += 1.0;
        }),
        vary("geometry", &|c| c.cell_um += 2.0),
        vary("substeps", &|c| c.substeps = 2),
        vary("throttle", &|c| {
            c.throttle = Some(ThrottlePolicy {
                trigger_severity: 0.1,
                release_severity: 0.08,
                sensor_latency_windows: 0,
                ..ThrottlePolicy::mitigation_default()
            })
        }),
        vary("other seed", &|c| {
            c.seed += 0x100;
            c.max_time_s = 2.6e-3;
        }),
        vary("other core", &|c| {
            c.target_core = (c.target_core + 1) % 7;
            c.max_time_s = 2.6e-3;
        }),
        vary("other sample size", &|c| {
            c.sample_instrs += 1_000;
            c.max_time_s = 2.6e-3;
        }),
    ]
}

#[test]
fn results_do_not_depend_on_the_trace_table() {
    let mut stop = target("hmmer", 0x7ace_0003, 0, 320.0, Warmup::Cold);
    stop.stop_at_first_hotspot = true;
    stop.detect.t_threshold_c = 60.0;
    stop.detect.mltd_threshold_c = 0.05;
    let targets = vec![
        target("gcc", 0x7ace_0001, 0, 300.0, Warmup::Cold),
        target("povray", 0x7ace_0002, 2, 310.0, Warmup::Idle),
        stop,
        target("mcf", 0x7ace_0004, 5, 330.0, Warmup::Idle),
    ];

    // Alone: every target's stream and idle stream are new to the table.
    let before = trace_stats();
    let alone: Vec<RunResult> = targets.iter().cloned().map(run_sim).collect();
    let after = trace_stats();
    assert_eq!(after.hits, before.hits, "premise: the first runs all miss");
    assert_eq!(after.misses - before.misses, 2 * targets.len() as u64);

    for (i, (t, want)) in targets.iter().zip(&alone).enumerate() {
        // A different order of the predecessors for every target.
        let mut preds = predecessors(t);
        preds.rotate_left(i);
        if i % 2 == 1 {
            preds.reverse();
        }
        for (label, p) in preds {
            let got = run_sim(p);
            if label == "longer" {
                // The longer run replays the recorded windows and then
                // extends them; its first records are the target's.
                let n = want.records.len();
                assert_eq!(got.records[..n], want.records[..], "target {i}: {label}");
            }
        }
        assert_same_run(&run_sim(t.clone()), want, &format!("target {i}: solo"));

        let mut mate = t.clone();
        mate.max_time_s = 2e-3;
        let got = run_batch(vec![t.clone(), mate], None);
        assert_same_run(&got[0], want, &format!("target {i}: batch lane 0"));
    }

    for threads in [1, 2] {
        let got = run_many_batched_with(targets.clone(), threads, 8, None);
        for (i, (g, want)) in got.iter().zip(&alone).enumerate() {
            assert_same_run(g, want, &format!("target {i}: {threads}-worker pool"));
        }
    }

    // Fig. 8's pair on a stream and a geometry of its own: the batch warms
    // the stream and the idle stream once, in lane 0, and lane 1 replays
    // both.
    let mut cold = target("gcc", 0x7ace_0005, 0, 340.0, Warmup::Cold);
    cold.temp_histogram = Some(HistSpec {
        lo: 30.0,
        hi: 140.0,
        bins: 110,
    });
    let idle = SimConfig {
        warmup: Warmup::Idle,
        ..cold.clone()
    };
    let before = trace_stats();
    let got = run_batch(vec![cold.clone(), idle.clone()], None);
    let after = trace_stats();
    assert_eq!(after.misses - before.misses, 2, "lane 0 warms both streams");
    assert_eq!(after.hits - before.hits, 2, "lane 1 replays both streams");
    assert_eq!(after.extensions, before.extensions);
    assert_same_run(&got[0], &run_sim(cold), "fig8 batch: cold lane");
    assert_same_run(&got[1], &run_sim(idle), "fig8 batch: idle lane");

    let s = trace_stats();
    assert!(s.hits >= 1, "premise: a rerun replays a trace: {s:?}");
    assert!(s.extensions >= 1, "premise: a run extends a trace: {s:?}");
    assert!(
        s.bytes <= TRACE_TABLE_BYTES,
        "the table outgrew its bound: {s:?}"
    );
}
