//! SPEC CPU2006 proxy profiles.
//!
//! One calibrated [`WorkloadProfile`] per benchmark of the paper's evaluation
//! set (the non-Fortran SPEC2006 workloads, §III-D footnote 2). The profiles
//! encode each benchmark's published microarchitectural signature:
//! instruction mix, working-set and streaming behavior, branch
//! predictability, ILP, code footprint, and phase structure. They are what
//! stands in for tracing the real binaries with a Pin-based simulator.

#![expect(
    clippy::identity_op,
    reason = "the cache-size tables keep `1 * MIB`-style entries aligned with their neighbours"
)]

use crate::profile::{BranchBehavior, InstMix, MemoryBehavior, Phase, WorkloadProfile};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// Names of all modeled benchmarks (SPEC2006 integer first, then FP).
pub const ALL_BENCHMARKS: [&str; 19] = [
    "perlbench",
    "bzip2",
    "gcc",
    "mcf",
    "gobmk",
    "hmmer",
    "sjeng",
    "libquantum",
    "h264ref",
    "omnetpp",
    "astar",
    "xalancbmk",
    "milc",
    "namd",
    "dealII",
    "soplex",
    "povray",
    "lbm",
    "sphinx3",
];

/// The five benchmarks of the paper's `C_dyn` validation set (Table III).
pub const VALIDATION_BENCHMARKS: [&str; 5] = ["bzip2", "gcc", "omnetpp", "povray", "hmmer"];

#[expect(
    clippy::too_many_arguments,
    reason = "one positional argument per column keeps the profile table below one row per benchmark"
)]
fn mk(
    name: &str,
    mix: InstMix,
    ws: u64,
    big: u64,
    big_frac: f64,
    stream: f64,
    pred: f64,
    statics: u32,
    serial: f64,
    code: u64,
    phases: Vec<Phase>,
) -> WorkloadProfile {
    let p = WorkloadProfile {
        name: name.to_owned(),
        mix,
        mem: MemoryBehavior {
            working_set_bytes: ws,
            big_set_bytes: big,
            big_fraction: big_frac,
            stream_fraction: stream,
        },
        branch: BranchBehavior {
            predictability: pred,
            static_branches: statics,
        },
        serial_fraction: serial,
        code_footprint_bytes: code,
        phases,
    };
    #[expect(
        clippy::panic,
        reason = "the profile table is compile-time data; an invalid entry is caught by the all_profiles test, not reachable from user input"
    )]
    p.validate()
        .unwrap_or_else(|e| panic!("profile {name} invalid: {e}"));
    p
}

fn mix(
    loads: f64,
    stores: f64,
    branches: f64,
    int_simple: f64,
    int_complex: f64,
    fp: f64,
    avx: f64,
) -> InstMix {
    InstMix {
        loads,
        stores,
        branches,
        int_simple,
        int_complex,
        fp,
        avx,
    }
}

/// Builds the profile for a benchmark by name.
///
/// Returns `None` for unknown names; see [`ALL_BENCHMARKS`].
pub fn profile(name: &str) -> Option<WorkloadProfile> {
    let p = match name {
        // ---------------- SPEC2006 integer ----------------
        "perlbench" => mk(
            "perlbench",
            mix(0.24, 0.12, 0.21, 0.33, 0.04, 0.05, 0.01),
            512 * KIB,
            32 * MIB,
            0.02,
            0.3,
            0.93,
            2048,
            0.18,
            400 * KIB,
            vec![
                Phase::neutral(4_000_000),
                Phase {
                    length_instrs: 1_000_000,
                    serial_scale: 0.6,
                    mem_scale: 1.5,
                    fp_scale: 1.0,
                },
            ],
        ),
        "bzip2" => mk(
            "bzip2",
            // Dense integer compute — the paper's >8 W/mm² power-density
            // example (§II-A).
            mix(0.26, 0.11, 0.15, 0.38, 0.06, 0.03, 0.01),
            4 * MIB,
            64 * MIB,
            0.01,
            0.6,
            0.91,
            512,
            0.10,
            64 * KIB,
            vec![
                Phase::neutral(3_000_000),
                Phase {
                    length_instrs: 2_000_000,
                    serial_scale: 0.5,
                    mem_scale: 0.5,
                    fp_scale: 1.0,
                },
            ],
        ),
        "gcc" => mk(
            "gcc",
            // Large code footprint, heavy rename/ROB churn, bursty phases.
            mix(0.25, 0.13, 0.20, 0.33, 0.03, 0.05, 0.01),
            2 * MIB,
            128 * MIB,
            0.04,
            0.3,
            0.94,
            4096,
            0.15,
            2 * MIB,
            vec![
                Phase::neutral(2_000_000),
                // Compute burst: low serialization, compute-dense.
                Phase {
                    length_instrs: 1_500_000,
                    serial_scale: 0.35,
                    mem_scale: 0.4,
                    fp_scale: 2.0,
                },
                Phase {
                    length_instrs: 1_000_000,
                    serial_scale: 1.4,
                    mem_scale: 2.0,
                    fp_scale: 1.0,
                },
            ],
        ),
        "mcf" => mk(
            "mcf",
            // Pointer-chasing, hugely memory-bound.
            mix(0.35, 0.09, 0.17, 0.30, 0.02, 0.06, 0.01),
            1 * MIB,
            256 * MIB,
            0.35,
            0.05,
            0.90,
            512,
            0.30,
            64 * KIB,
            // Memory-bound crawl for most of the run, then a dense
            // optimization burst very late — one of the paper's long-TUH
            // tail workloads (TUH up to ~150 ms).
            vec![
                Phase {
                    length_instrs: 140_000_000,
                    serial_scale: 1.2,
                    mem_scale: 1.0,
                    fp_scale: 1.0,
                },
                Phase {
                    length_instrs: 10_000_000,
                    serial_scale: 0.25,
                    mem_scale: 0.15,
                    fp_scale: 2.0,
                },
            ],
        ),
        "gobmk" => mk(
            "gobmk",
            // Go AI: very branchy with hard-to-predict branches and
            // alternating search phases — the paper's MLTD case study and
            // warm-up-sensitive TUH example (Fig. 9, Fig. 11).
            mix(0.25, 0.12, 0.24, 0.30, 0.03, 0.05, 0.01),
            512 * KIB,
            32 * MIB,
            0.03,
            0.15,
            0.86,
            8192,
            0.18,
            512 * KIB,
            vec![
                Phase::neutral(1_500_000),
                Phase {
                    length_instrs: 1_500_000,
                    serial_scale: 0.4,
                    mem_scale: 0.6,
                    fp_scale: 1.2,
                },
            ],
        ),
        "hmmer" => mk(
            "hmmer",
            // Profile HMM dynamic programming: extremely high ILP, small
            // working set, near-perfect branches (highest validated C_dyn).
            mix(0.30, 0.10, 0.08, 0.45, 0.04, 0.02, 0.01),
            64 * KIB,
            8 * MIB,
            0.005,
            0.8,
            0.97,
            128,
            0.04,
            32 * KIB,
            vec![Phase::neutral(2_000_000)],
        ),
        "sjeng" => mk(
            "sjeng",
            mix(0.24, 0.10, 0.22, 0.34, 0.04, 0.05, 0.01),
            256 * KIB,
            16 * MIB,
            0.02,
            0.1,
            0.88,
            4096,
            0.20,
            256 * KIB,
            vec![Phase::neutral(2_500_000)],
        ),
        "libquantum" => mk(
            "libquantum",
            // Quantum register streaming: perfectly regular, memory bound —
            // TUH insensitive to core placement in the paper (Fig. 11).
            mix(0.25, 0.15, 0.12, 0.38, 0.02, 0.07, 0.01),
            32 * MIB,
            64 * MIB,
            0.20,
            0.95,
            0.99,
            64,
            0.12,
            16 * KIB,
            // Long uniform streaming, then a compute-dense gate-fusion
            // burst: a mid-range TUH benchmark insensitive to placement.
            vec![
                Phase::neutral(40_000_000),
                Phase {
                    length_instrs: 6_000_000,
                    serial_scale: 0.5,
                    mem_scale: 0.3,
                    fp_scale: 1.6,
                },
            ],
        ),
        "h264ref" => mk(
            "h264ref",
            // Video encode: SIMD-flavored integer with motion-search bursts.
            mix(0.28, 0.10, 0.12, 0.34, 0.04, 0.06, 0.06),
            1 * MIB,
            32 * MIB,
            0.02,
            0.6,
            0.93,
            1024,
            0.10,
            512 * KIB,
            vec![
                Phase::neutral(2_000_000),
                Phase {
                    length_instrs: 1_000_000,
                    serial_scale: 0.5,
                    mem_scale: 0.8,
                    fp_scale: 1.8,
                },
            ],
        ),
        "omnetpp" => mk(
            "omnetpp",
            // Discrete-event simulation: pointer-heavy, poor locality.
            mix(0.30, 0.13, 0.20, 0.27, 0.02, 0.07, 0.01),
            1 * MIB,
            64 * MIB,
            0.15,
            0.1,
            0.92,
            2048,
            0.25,
            512 * KIB,
            vec![
                Phase::neutral(50_000_000),
                Phase {
                    length_instrs: 5_000_000,
                    serial_scale: 0.45,
                    mem_scale: 0.4,
                    fp_scale: 1.5,
                },
            ],
        ),
        "astar" => mk(
            "astar",
            mix(0.30, 0.10, 0.17, 0.32, 0.03, 0.07, 0.01),
            2 * MIB,
            32 * MIB,
            0.10,
            0.2,
            0.88,
            1024,
            0.22,
            128 * KIB,
            vec![Phase::neutral(2_500_000)],
        ),
        "xalancbmk" => mk(
            "xalancbmk",
            mix(0.28, 0.11, 0.23, 0.28, 0.02, 0.07, 0.01),
            1 * MIB,
            64 * MIB,
            0.08,
            0.2,
            0.92,
            4096,
            0.20,
            1 * MIB,
            vec![Phase::neutral(3_000_000)],
        ),
        // ---------------- SPEC2006 floating point (non-Fortran) -----------
        "milc" => mk(
            "milc",
            // Lattice QCD: vector FP over large streamed arrays.
            mix(0.30, 0.12, 0.05, 0.16, 0.02, 0.22, 0.13),
            16 * MIB,
            128 * MIB,
            0.20,
            0.85,
            0.98,
            128,
            0.18,
            64 * KIB,
            vec![
                Phase::neutral(3_000_000),
                Phase {
                    length_instrs: 1_500_000,
                    serial_scale: 0.7,
                    mem_scale: 1.6,
                    fp_scale: 1.2,
                },
            ],
        ),
        "namd" => mk(
            "namd",
            // Molecular dynamics: compute-dense FP kernels, small WS,
            // the paper's cold-start-sensitive TUH example.
            mix(0.22, 0.08, 0.07, 0.15, 0.03, 0.30, 0.15),
            1 * MIB,
            16 * MIB,
            0.02,
            0.5,
            0.98,
            256,
            0.08,
            128 * KIB,
            vec![
                Phase {
                    length_instrs: 2_000_000,
                    serial_scale: 0.6,
                    mem_scale: 0.8,
                    fp_scale: 1.3,
                },
                Phase::neutral(1_000_000),
            ],
        ),
        "dealII" => mk(
            "dealII",
            mix(0.28, 0.10, 0.10, 0.19, 0.03, 0.24, 0.06),
            2 * MIB,
            64 * MIB,
            0.05,
            0.4,
            0.96,
            1024,
            0.14,
            1 * MIB,
            vec![Phase::neutral(2_500_000)],
        ),
        "soplex" => mk(
            "soplex",
            // Sparse LP solver: indirect accesses over large matrices.
            mix(0.32, 0.10, 0.12, 0.20, 0.02, 0.20, 0.04),
            2 * MIB,
            64 * MIB,
            0.15,
            0.3,
            0.94,
            1024,
            0.22,
            256 * KIB,
            vec![
                Phase::neutral(25_000_000),
                Phase {
                    length_instrs: 4_000_000,
                    serial_scale: 0.5,
                    mem_scale: 0.5,
                    fp_scale: 1.5,
                },
            ],
        ),
        "povray" => mk(
            "povray",
            // Ray tracing: FP compute-dense, tiny working set, highest
            // validated C_dyn (1.62 nF model @14 nm).
            mix(0.26, 0.09, 0.12, 0.14, 0.03, 0.31, 0.05),
            128 * KIB,
            4 * MIB,
            0.005,
            0.2,
            0.95,
            2048,
            0.06,
            256 * KIB,
            vec![Phase::neutral(3_000_000)],
        ),
        "lbm" => mk(
            "lbm",
            // Lattice-Boltzmann: pure streaming, memory-bandwidth bound.
            mix(0.28, 0.14, 0.03, 0.13, 0.01, 0.28, 0.13),
            32 * MIB,
            128 * MIB,
            0.40,
            0.98,
            0.995,
            32,
            0.15,
            16 * KIB,
            vec![
                Phase::neutral(60_000_000),
                Phase {
                    length_instrs: 8_000_000,
                    serial_scale: 0.55,
                    mem_scale: 0.35,
                    fp_scale: 1.4,
                },
            ],
        ),
        "sphinx3" => mk(
            "sphinx3",
            // Speech recognition: FP scoring over acoustic models.
            mix(0.30, 0.08, 0.10, 0.20, 0.02, 0.25, 0.05),
            512 * KIB,
            32 * MIB,
            0.10,
            0.5,
            0.94,
            512,
            0.12,
            256 * KIB,
            vec![
                Phase::neutral(2_500_000),
                Phase {
                    length_instrs: 1_000_000,
                    serial_scale: 0.7,
                    mem_scale: 1.4,
                    fp_scale: 1.3,
                },
            ],
        ),
        _ => return None,
    };
    Some(p)
}

/// Profiles for every modeled benchmark.
#[expect(
    clippy::expect_used,
    reason = "ALL_BENCHMARKS and the profile table are maintained together; a miss is a table bug"
)]
pub fn all_profiles() -> Vec<WorkloadProfile> {
    ALL_BENCHMARKS
        .iter()
        .map(|n| profile(n).expect("all named benchmarks exist"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_valid_profiles() {
        for name in ALL_BENCHMARKS {
            let p = profile(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(p.validate().is_ok(), "{name}");
            assert_eq!(p.name, name);
        }
        assert_eq!(all_profiles().len(), ALL_BENCHMARKS.len());
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(profile("doom").is_none());
    }

    #[test]
    fn validation_set_is_subset() {
        for v in VALIDATION_BENCHMARKS {
            assert!(ALL_BENCHMARKS.contains(&v));
        }
    }

    #[test]
    fn fp_benchmarks_have_fp_heavy_mix() {
        for name in ["milc", "namd", "povray", "lbm"] {
            let p = profile(name).unwrap();
            assert!(
                p.mix.fp + p.mix.avx > 0.25,
                "{name}: fp share {}",
                p.mix.fp + p.mix.avx
            );
        }
    }

    #[test]
    fn memory_bound_benchmarks_have_large_cold_sets() {
        for name in ["mcf", "lbm", "libquantum"] {
            let p = profile(name).unwrap();
            assert!(p.mem.big_fraction >= 0.2, "{name}");
            assert!(p.mem.big_set_bytes >= 64 * MIB, "{name}");
        }
    }

    #[test]
    fn gobmk_is_branchy_and_unpredictable() {
        let p = profile("gobmk").unwrap();
        assert!(p.mix.branches >= 0.2);
        assert!(p.branch.predictability <= 0.9);
    }

    #[test]
    fn distinct_benchmarks_have_distinct_profiles() {
        let all = all_profiles();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "{} == {}", all[i].name, all[j].name);
            }
        }
    }
}
