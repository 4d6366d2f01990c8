//! Golden fingerprints of the thermal stage: per pipeline geometry, an idle
//! warm-up, solo steps and the steps of K = 8 / K = 5 lane groups cloned
//! from one prepared simulation, hashed by
//! `hotgauge_bench::fingerprint::thermal_hash` (the `stream_hash --thermal`
//! harness). The hashes were recorded with the CSR-backed CG kernels and a
//! multi-RHS solve of each group; the groups now step lane by lane, with
//! the same bits. Any change to the RC-network assembly, the CG iteration
//! or a clone's sharing of the prepared system changes at least one.

use hotgauge_bench::fingerprint::{thermal_hash, THERMAL_CASES};

const GOLDEN: [u64; 4] = [
    0xa6e4_1d9a_fafa_fa20,
    0x7261_dba7_dc2e_8a62,
    0x85f1_83a0_adca_a3b3,
    0x388e_bf71_16de_57ed,
];

#[test]
fn thermal_fingerprints_match_golden() {
    let mismatches: Vec<String> = THERMAL_CASES
        .iter()
        .zip(GOLDEN)
        .filter_map(|(&(preset, node, factor), want)| {
            let got = thermal_hash(preset, node, factor).expect("known preset");
            (got != want)
                .then(|| format!("{preset} {node}@{factor}: got {got:016x}, want {want:016x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "thermal stage changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn unknown_preset_has_no_fingerprint() {
    assert_eq!(thermal_hash("paper-ish", THERMAL_CASES[0].1, 1.0), None);
}
