//! Golden fingerprints of the co-simulation run loop: solo cold, idle and
//! stop-at-first-hotspot runs, a 3-lane lockstep batch with an early-stopping
//! lane, and a pooled 5-job sweep on two geometries, each hashed by
//! `hotgauge_bench::fingerprint::run_hash` (the `stream_hash --run`
//! harness). The hashes were recorded before the solo, overlap and lockstep
//! loops were merged into one stepper; any change to what a run records
//! changes at least one.
//!
//! Every case runs inside this one test: the idle-warm-up memo is
//! process-global, and one test per binary keeps the goldens independent of
//! test order.

use hotgauge_bench::fingerprint::{run_cases, run_hash};

const GOLDEN: [(&str, u64); 11] = [
    ("cold", 0x9b3a_64eb_07e1_e45b),
    ("idle", 0x303a_2b05_2d9f_71b2),
    ("stop", 0x4862_fb87_230d_41dd),
    ("batch.0", 0x2954_63b2_9839_4536),
    ("batch.1", 0x3bfc_62e3_5737_e3c5),
    ("batch.2", 0xea9c_4133_149b_81b0),
    ("sweep.0", 0x3fb7_2137_27c5_02cb),
    ("sweep.1", 0x6bd3_c29b_b94d_dc6b),
    ("sweep.2", 0x84ee_27e4_d745_5b01),
    ("sweep.3", 0x004d_017a_6930_f1ff),
    ("sweep.4", 0xcc96_0212_87db_7a4e),
];

#[test]
fn run_fingerprints_match_golden() {
    let cases = run_cases();
    let labels: Vec<&str> = cases.iter().map(|(l, _)| l.as_str()).collect();
    let want: Vec<&str> = GOLDEN.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, want, "the case list changed");

    // Premises: the stop cases must stop mid-run, or they would not cover
    // the early exit of the run loop.
    let result = |label: &str| {
        cases
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| r)
            .expect("case exists")
    };
    let stop = result("stop");
    assert!(stop.tuh_s.is_some(), "the stop case must trip a hotspot");
    assert!(
        stop.records.len() < 20,
        "the stop case must end before its horizon"
    );
    assert_eq!(
        stop.records.len() % 2,
        1,
        "the stop case must stop inside a window, not at its end"
    );
    assert!(
        stop.records.iter().any(|r| r.peak_severity == 0.0),
        "the prefilter must skip at least one substep of the stop case"
    );
    assert!(stop.delta_hist.is_some());
    let hot = result("batch.1");
    assert!(hot.tuh_s.is_some());
    assert!(hot.records.len() < result("batch.0").records.len());
    assert!(result("batch.2").records.len() > result("batch.0").records.len());

    let mismatches: Vec<String> = cases
        .iter()
        .zip(GOLDEN)
        .filter_map(|((label, r), (_, want))| {
            let got = run_hash(r);
            (got != want).then(|| format!("{label}: got {got:016x}, want {want:016x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "co-simulation results changed:\n{}",
        mismatches.join("\n")
    );
}
