//! Integration tests for the bursty server-trace workloads — including the
//! prefilter regression on a trace crafted to straddle `T_th`.
//!
//! The server profiles exist to exercise the analysis prefilter's worst
//! case (ROADMAP): a die that hovers around the hotspot temperature
//! threshold, flipping the skip decision between windows. The regression
//! here pins that behavior structurally — which substeps get skipped is a
//! pure function of the trajectory and the threshold — and, under the
//! `telemetry` feature, pins the exact skip count against the
//! `analysis.prefilter_skips` counter.

use std::sync::{Mutex, MutexGuard};

use hotgauge_core::pipeline::{run_sim, SimConfig};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_perf::prelude::*;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::prelude::*;

// The telemetry recorder is process-global; keep the prefilter-counting
// tests from interleaving with other runs in this binary.
static GATE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn server_traces_resolve_through_the_combined_lookup() {
    let _g = lock();
    for name in server::SERVER_BENCHMARKS {
        let p = benchmark_profile(name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(p.name, name);
    }
    assert!(benchmark_profile("idle").is_some());
    assert!(benchmark_profile("gcc").is_some());
    assert!(benchmark_profile("server_nope").is_none());
}

#[test]
fn server_trace_runs_through_the_pipeline() {
    let _g = lock();
    let mut cfg = SimConfig::new(TechNode::N7, "server_kv");
    cfg.cell_um = 300.0;
    cfg.substeps = 1;
    cfg.sample_instrs = 8_000;
    cfg.max_time_s = 5e-4;
    cfg.warmup = Warmup::Cold;
    let r = run_sim(cfg);
    assert!(!r.records.is_empty());
    assert!(r.total_instructions > 0);
    assert!(r.records.iter().all(|s| s.max_temp_c.is_finite()));
}

/// The burst/lull phase alternation is visible in the performance model:
/// IPC sampled across at least one full phase cycle swings measurably.
#[test]
fn server_trace_ipc_is_bursty_across_phase_cycles() {
    let _g = lock();
    let profile = benchmark_profile("server_web").unwrap();
    let cycle = profile.phase_cycle_instrs();
    let mut gen = WorkloadGen::new(profile, 0);
    let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    core.warm_up(&mut gen, 500_000);
    // ~60 windows spanning > one full burst+lull cycle.
    let mut ipcs = Vec::new();
    let mut instrs = 0;
    while instrs < cycle + cycle / 2 {
        let w = core.run_cycles(&mut gen, 100_000);
        instrs += w.instructions;
        ipcs.push(w.ipc());
    }
    let lo = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ipcs.iter().cloned().fold(0.0f64, f64::max);
    assert!(lo > 0.0);
    assert!(
        hi > 1.1 * lo,
        "burst/lull cycle must swing IPC by >10% (got {lo:.3}..{hi:.3})"
    );
}

/// A TUH-mode config whose trajectory the test then straddles with a
/// threshold picked from the observed per-substep maxima. The MLTD
/// threshold is set unreachably high so Definition 1 never fires and both
/// runs cover the identical full horizon.
fn straddling_cfg() -> SimConfig {
    let mut c = SimConfig::new(TechNode::N7, "server_web");
    c.cell_um = 300.0;
    c.substeps = 1;
    c.sample_instrs = 8_000;
    c.max_time_s = 2e-3;
    c.warmup = Warmup::Cold;
    c.stop_at_first_hotspot = true;
    c.detect.mltd_threshold_c = 1e9;
    c
}

#[test]
fn prefilter_skip_pattern_is_pinned_on_a_straddling_trace() {
    let _g = lock();
    // Reference pass: prefilter off, full metrics on every substep.
    let mut off = straddling_cfg();
    off.analysis.prefilter = false;
    let r_off = run_sim(off);
    assert!(
        r_off.tuh_s.is_none(),
        "premise: MLTD bar must prevent stops"
    );

    // Pick T_th strictly inside the trajectory's [min, max] of per-substep
    // maxima, so the skip decision genuinely flips along the run.
    let maxes: Vec<f64> = r_off.records.iter().map(|s| s.max_temp_c).collect();
    let lo = maxes.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = maxes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(hi > lo, "premise: trajectory must not be flat");
    let t_th = 0.5 * (lo + hi);

    let mut off = straddling_cfg();
    off.detect.t_threshold_c = t_th;
    off.analysis.prefilter = false;
    let mut on = off.clone();
    on.analysis.prefilter = true;
    let r_off = run_sim(off);
    let r_on = run_sim(on);

    // The trajectory itself is untouched by the prefilter.
    assert_eq!(r_on.records.len(), r_off.records.len());
    assert_eq!(r_on.tuh_s, r_off.tuh_s);
    assert_eq!(r_on.census, r_off.census);
    assert_eq!(r_on.total_instructions, r_off.total_instructions);

    let mut skipped = 0usize;
    let mut analyzed = 0usize;
    for (a, b) in r_on.records.iter().zip(&r_off.records) {
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.max_temp_c, b.max_temp_c);
        assert_eq!(a.mean_temp_c, b.mean_temp_c);
        assert_eq!(a.power_w, b.power_w);
        assert_eq!(a.ipc, b.ipc);
        if a.max_temp_c <= t_th {
            // Provably hotspot-free: the prefilter records zeros.
            skipped += 1;
            assert_eq!(a.max_mltd_c, 0.0);
            assert_eq!(a.peak_severity, 0.0);
            assert_eq!(a.hotspot_count, 0);
        } else {
            // Above threshold the analysis ran in full: bit-identical.
            analyzed += 1;
            assert_eq!(a.max_mltd_c.to_bits(), b.max_mltd_c.to_bits());
            assert_eq!(a.peak_severity.to_bits(), b.peak_severity.to_bits());
            assert_eq!(a.hotspot_count, b.hotspot_count);
        }
    }
    assert!(
        skipped >= 2 && analyzed >= 2,
        "premise: trace must straddle T_th (skipped {skipped}, analyzed {analyzed})"
    );
    assert_eq!(skipped + analyzed, r_on.records.len());
}

/// Under telemetry the skip count is pinned exactly: the prefilter-on run
/// increments `analysis.prefilter_skips` once per sub-threshold substep and
/// the prefilter-off run not at all.
// hotgauge-lint: allow(L002, "this test reads the recorder's snapshot API directly, which only exists under the feature; the facade macros cannot gate a whole #[test] fn")
#[cfg(feature = "telemetry")]
#[test]
fn prefilter_skip_counter_matches_the_subthreshold_substep_count() {
    let _g = lock();
    let mut probe = straddling_cfg();
    probe.analysis.prefilter = false;
    let r_probe = run_sim(probe);
    let maxes: Vec<f64> = r_probe.records.iter().map(|s| s.max_temp_c).collect();
    let lo = maxes.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = maxes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let t_th = 0.5 * (lo + hi);

    let total = |snap: &hotgauge_telemetry::Snapshot| {
        snap.counter("analysis.prefilter_skips")
            .map_or(0.0, |c| c.total)
    };

    let mut off = straddling_cfg();
    off.detect.t_threshold_c = t_th;
    off.analysis.prefilter = false;
    let mut on = off.clone();
    on.analysis.prefilter = true;

    let s0 = hotgauge_telemetry::snapshot();
    let r_off = run_sim(off);
    let s1 = hotgauge_telemetry::snapshot();
    let r_on = run_sim(on);
    let s2 = hotgauge_telemetry::snapshot();

    assert_eq!(total(&s1) - total(&s0), 0.0, "prefilter off must not skip");
    let expected = r_on.records.iter().filter(|s| s.max_temp_c <= t_th).count();
    assert_eq!(total(&s2) - total(&s1), expected as f64);
    assert_eq!(r_off.records.len(), r_on.records.len());
    assert!(expected >= 2, "premise: trace must straddle T_th");
}
