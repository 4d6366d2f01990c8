//! Golden fingerprints of the core model: a 200 k-instruction warm-up plus
//! one 1 M-cycle window per SPEC proxy, hashed by
//! `hotgauge_bench::fingerprint::core_hash` (the `stream_hash --core`
//! harness at a test-sized warm-up). The hashes were recorded with the
//! stamp-based LRU cache model; any change to cache replacement, branch
//! prediction, the interval timing or the generator changes at least one.

use hotgauge_bench::fingerprint::core_hash;
use hotgauge_workloads::spec2006;

const GOLDEN: [(&str, u64); 19] = [
    ("perlbench", 0x614e_ecd7_2351_cbb4),
    ("bzip2", 0xd13f_80f1_3bf5_5e79),
    ("gcc", 0xc034_dd8e_f280_5c5e),
    ("mcf", 0x2255_4ce8_fa06_1dee),
    ("gobmk", 0xac01_129c_8116_df5d),
    ("hmmer", 0x448d_bd12_5e3a_43aa),
    ("sjeng", 0x67fb_d8b2_03eb_d47c),
    ("libquantum", 0x8b2b_47db_e467_809d),
    ("h264ref", 0x02dc_885b_926e_cf8e),
    ("omnetpp", 0x30a1_cab7_7597_f020),
    ("astar", 0x2ec5_a7e9_9b66_da57),
    ("xalancbmk", 0xebfd_6644_d626_76fd),
    ("milc", 0xd518_7ec8_bf94_249f),
    ("namd", 0xa8d0_cad7_583e_cd83),
    ("dealII", 0x850d_9d08_211b_9979),
    ("soplex", 0x8247_40a6_42bc_09e3),
    ("povray", 0xadcd_6df8_6b21_da89),
    ("lbm", 0x2f4f_dad8_767f_134d),
    ("sphinx3", 0x9b32_55d0_e4ff_7e70),
];

#[test]
fn golden_table_covers_every_spec_proxy() {
    let names: Vec<&str> = GOLDEN.iter().map(|(b, _)| *b).collect();
    assert_eq!(names, spec2006::ALL_BENCHMARKS);
}

#[test]
fn core_model_fingerprints_match_golden() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(bench, want)| {
            let got = core_hash(bench, 200_000, 1_000_000).expect("known benchmark");
            (got != want).then(|| format!("{bench}: got {got:016x}, want {want:016x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "core model changed:\n{}",
        mismatches.join("\n")
    );
}
