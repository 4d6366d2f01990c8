//! Unit-scaled floorplans carry their exact scale factor in their name.
//!
//! The idle thermal warm-up is memoized process-wide under the floorplan
//! name, so two scales that format to the same name would share one warm
//! state: an idle-start run would then depend on which scale ran first in
//! the process. The reference below therefore comes from a fresh process
//! (this test binary re-run on the ignored helper test).

use std::process::Command;

use hotgauge_core::pipeline::{build_floorplan, run_sim, RunResult, SimConfig};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_floorplan::unit::UnitKind;
use hotgauge_thermal::warmup::Warmup;

const REFERENCE_TEST: &str = "idle_run_digest_in_a_fresh_process";

fn scaled_cfg(factor: f64) -> SimConfig {
    let mut c = SimConfig::new(TechNode::N7, "povray");
    c.cell_um = 300.0;
    c.border_mm = 1.0;
    c.substeps = 1;
    c.sample_instrs = 8_000;
    c.max_time_s = 5e-4;
    c.warmup = Warmup::Idle;
    c.unit_scales = vec![(UnitKind::FpRf, factor)];
    c
}

/// FNV-1a over the run's JSON form: equal digests mean equal runs.
fn digest(r: &RunResult) -> u64 {
    serde_json::to_string(r)
        .unwrap()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn distinct_scales_get_distinct_names_and_shipped_names_stay() {
    let name = |f: f64| build_floorplan(&scaled_cfg(f)).name;
    assert_ne!(name(1.5), name(2.0));
    assert!(name(1.5).ends_with("_fpRFx1.5"), "{}", name(1.5));
    for (f, suffix) in [(2.0, "x2"), (5.0, "x5"), (10.0, "x10")] {
        assert!(name(f).ends_with(suffix), "{}", name(f));
    }
}

/// Prints the digest of a 2.0x idle-start run. Spawned by the test below in
/// a fresh process, so no earlier run in that process shaped the result.
#[test]
#[ignore = "helper: run in a fresh process by the warm-up isolation test"]
fn idle_run_digest_in_a_fresh_process() {
    println!("digest={}", digest(&run_sim(scaled_cfg(2.0))));
}

#[test]
fn idle_start_run_is_unaffected_by_a_preceding_other_scale() {
    let out = Command::new(std::env::current_exe().unwrap())
        .args([REFERENCE_TEST, "--exact", "--ignored", "--nocapture"])
        .output()
        .unwrap();
    assert!(out.status.success(), "reference process failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let fresh: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest="))
        .expect("reference process printed its digest")
        .parse()
        .unwrap();
    run_sim(scaled_cfg(1.5));
    assert_eq!(
        digest(&run_sim(scaled_cfg(2.0))),
        fresh,
        "the 1.5x run changed the 2.0x run"
    );
}
