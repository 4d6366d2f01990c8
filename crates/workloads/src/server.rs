//! Bursty server-trace workload profiles.
//!
//! The SPEC2006 proxies ([`crate::spec2006`]) either climb steadily to a
//! hotspot or never get near one — friendly cases for the pipeline's
//! sub-threshold prefilter, which skips the per-substep analysis whenever a
//! frame provably cannot contain a hotspot. Latency-serving workloads
//! behave differently: request bursts alternate with idle polling at
//! millisecond scale, so the die **hovers around the hotspot temperature
//! threshold T_th**, crossing it every few windows in both directions. That
//! is the prefilter's worst case (every skip decision flips back and forth)
//! and the reason these profiles exist (see ROADMAP).
//!
//! Each profile encodes one bursty service archetype through the phase
//! mechanism the generator already cycles deterministically: a
//! compute-dense burst phase (low serialization, cache-resident, boosted
//! FP/SIMD issue) followed by a lull phase (serialized, memory-stalled).
//! Phase lengths are chosen so one burst+lull cycle spans a handful of
//! 1 M-cycle co-sim windows — fast enough to straddle T_th repeatedly
//! within a TUH-scale horizon, slow enough that the thermal state actually
//! swings.

#![expect(
    clippy::identity_op,
    reason = "the working-set tables keep `1 * MIB`-style entries aligned with their neighbours, matching spec2006.rs"
)]

use crate::profile::{BranchBehavior, InstMix, MemoryBehavior, Phase, WorkloadProfile};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// Names of the modeled server traces.
pub const SERVER_BENCHMARKS: [&str; 3] = ["server_web", "server_kv", "server_analytics"];

/// Builds the profile for a server trace by name.
///
/// Returns `None` for unknown names; see [`SERVER_BENCHMARKS`].
pub fn profile(name: &str) -> Option<WorkloadProfile> {
    let p = match name {
        // Web/RPC frontend: short request-handling bursts (dense integer
        // with template/JSON FP-ish massaging) against poll lulls. The
        // fastest oscillator of the set — bursts of ~2 windows.
        "server_web" => WorkloadProfile {
            name: "server_web".to_owned(),
            mix: InstMix {
                loads: 0.26,
                stores: 0.12,
                branches: 0.19,
                int_simple: 0.33,
                int_complex: 0.04,
                fp: 0.05,
                avx: 0.01,
            },
            mem: MemoryBehavior {
                working_set_bytes: 768 * KIB,
                big_set_bytes: 48 * MIB,
                big_fraction: 0.04,
                stream_fraction: 0.25,
            },
            branch: BranchBehavior {
                predictability: 0.92,
                static_branches: 3072,
            },
            serial_fraction: 0.16,
            code_footprint_bytes: 1 * MIB,
            phases: vec![
                // Request burst: connection handling + response rendering.
                Phase {
                    length_instrs: 2_000_000,
                    serial_scale: 0.35,
                    mem_scale: 0.45,
                    fp_scale: 1.6,
                },
                // Poll lull: epoll/park loop, pointer-chasing bookkeeping.
                Phase {
                    length_instrs: 2_500_000,
                    serial_scale: 1.9,
                    mem_scale: 2.4,
                    fp_scale: 0.5,
                },
            ],
        },
        // In-memory KV store: mostly memory-bound gets/puts over a large
        // heap, with periodic compaction/GC bursts that are compute-dense.
        "server_kv" => WorkloadProfile {
            name: "server_kv".to_owned(),
            mix: InstMix {
                loads: 0.33,
                stores: 0.13,
                branches: 0.17,
                int_simple: 0.29,
                int_complex: 0.02,
                fp: 0.05,
                avx: 0.01,
            },
            mem: MemoryBehavior {
                working_set_bytes: 2 * MIB,
                big_set_bytes: 192 * MIB,
                big_fraction: 0.22,
                stream_fraction: 0.15,
            },
            branch: BranchBehavior {
                predictability: 0.90,
                static_branches: 1536,
            },
            serial_fraction: 0.24,
            code_footprint_bytes: 512 * KIB,
            phases: vec![
                // Serving: random access over the heap, latency-bound.
                Phase {
                    length_instrs: 4_000_000,
                    serial_scale: 1.5,
                    mem_scale: 1.6,
                    fp_scale: 0.7,
                },
                // Compaction burst: sequential merge, cache-friendly.
                Phase {
                    length_instrs: 2_500_000,
                    serial_scale: 0.4,
                    mem_scale: 0.35,
                    fp_scale: 1.4,
                },
            ],
        },
        // Streaming analytics: long scan lulls (bandwidth-bound) broken by
        // vectorized aggregation bursts — the slowest oscillator.
        "server_analytics" => WorkloadProfile {
            name: "server_analytics".to_owned(),
            mix: InstMix {
                loads: 0.30,
                stores: 0.11,
                branches: 0.08,
                int_simple: 0.22,
                int_complex: 0.02,
                fp: 0.17,
                avx: 0.10,
            },
            mem: MemoryBehavior {
                working_set_bytes: 8 * MIB,
                big_set_bytes: 256 * MIB,
                big_fraction: 0.18,
                stream_fraction: 0.85,
            },
            branch: BranchBehavior {
                predictability: 0.97,
                static_branches: 256,
            },
            serial_fraction: 0.14,
            code_footprint_bytes: 256 * KIB,
            phases: vec![
                Phase {
                    length_instrs: 6_000_000,
                    serial_scale: 1.3,
                    mem_scale: 1.5,
                    fp_scale: 0.8,
                },
                Phase {
                    length_instrs: 3_000_000,
                    serial_scale: 0.45,
                    mem_scale: 0.3,
                    fp_scale: 1.7,
                },
            ],
        },
        _ => return None,
    };
    debug_assert!(p.validate().is_ok(), "server profile table invalid");
    Some(p)
}

/// Profiles for every modeled server trace.
#[expect(
    clippy::expect_used,
    reason = "SERVER_BENCHMARKS and the profile table are maintained together; a miss is a table bug"
)]
pub fn all_profiles() -> Vec<WorkloadProfile> {
    SERVER_BENCHMARKS
        .iter()
        .map(|n| profile(n).expect("all named server traces exist"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_server_traces_have_valid_profiles() {
        for name in SERVER_BENCHMARKS {
            let p = profile(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(p.validate().is_ok(), "{name}");
            assert_eq!(p.name, name);
        }
        assert_eq!(all_profiles().len(), SERVER_BENCHMARKS.len());
    }

    #[test]
    fn unknown_server_trace_is_none() {
        assert!(profile("server_doom").is_none());
    }

    #[test]
    fn server_names_do_not_collide_with_spec2006() {
        for name in SERVER_BENCHMARKS {
            assert!(
                crate::spec2006::profile(name).is_none(),
                "{name} shadows a SPEC proxy"
            );
        }
    }

    #[test]
    fn every_trace_alternates_burst_and_lull() {
        for p in all_profiles() {
            assert!(p.phases.len() >= 2, "{}: needs a burst/lull cycle", p.name);
            let burst = p
                .phases
                .iter()
                .map(|ph| ph.serial_scale)
                .fold(f64::INFINITY, f64::min);
            let lull = p
                .phases
                .iter()
                .map(|ph| ph.serial_scale)
                .fold(0.0, f64::max);
            assert!(
                burst < 0.5 && lull > 1.2,
                "{}: burst {burst} / lull {lull} must contrast strongly",
                p.name
            );
        }
    }
}
