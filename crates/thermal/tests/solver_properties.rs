//! Property tests for the two thermal solvers: the factor-once direct
//! Cholesky path and the preconditioned CG path must agree on random SPD
//! RC-network systems, and factoring once must be equivalent to
//! refactoring before every solve.
#![recursion_limit = "256"]

use proptest::prelude::*;

use hotgauge_thermal::chol::{CholOptions, CholeskyFactor};
use hotgauge_thermal::solver::{solve_cg, CgConfig};
use hotgauge_thermal::sparse::{CsrMatrix, TripletBuilder};

mod common;
use common::rc_system;

/// Builds a block-diagonal SPD RC system of `components` disconnected
/// grounded chains of `len` nodes each. Disconnected components are the
/// case where the triangular sweeps' dependency levels come out wide
/// (level `d` holds node `d` of every chain); a connected network's RCM
/// envelope degenerates to one row per level.
fn rc_chains(components: usize, len: usize, seed: u64) -> CsrMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    fn g_of(bits: u64) -> f64 {
        0.05 + (bits % 1000) as f64 / 100.0
    }

    let n = components * len;
    let mut b = TripletBuilder::new(n);
    for c in 0..components {
        let base = c * len;
        for i in 1..len {
            b.add_conductance(base + i - 1, base + i, g_of(next()));
        }
        for i in 0..len {
            b.add_grounded_conductance(base + i, g_of(next()));
            b.add_grounded_conductance(base + i, 0.2 + g_of(next()));
        }
    }
    b.build()
}

/// `level[i]` for every row, recovered from the schedule's row lists.
fn level_of(f: &CholeskyFactor) -> Vec<usize> {
    let s = f.schedule();
    let mut level = vec![usize::MAX; f.n()];
    for l in 0..s.levels() {
        for &r in s.level_rows(l) {
            level[r as usize] = l;
        }
    }
    level
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64 + 1)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x2545F4914F6CDD1D);
            -1.0 + (x % 2048) as f64 / 1024.0
        })
        .collect()
}

fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum::<f64>().max(1e-300);
    (num / den).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn direct_and_cg_agree_on_random_rc_networks(
        n in 4usize..60,
        seed in 0u64..10_000,
    ) {
        let a = rc_system(n, seed);
        let factor = CholeskyFactor::factor(&a, &CholOptions::unbounded())
            .expect("SPD RC system factors");
        let b = rhs(n, seed ^ 0xABCD);

        let direct = factor.solve_alloc(&b);

        let mut cg = vec![0.0; n];
        let stats = solve_cg(&a, &b, &mut cg, &CgConfig {
            tolerance: 1e-13,
            max_iterations: 10 * n + 100,
        });
        prop_assert!(stats.converged, "CG must converge on an SPD system");
        prop_assert!(
            rel_diff(&direct, &cg) < 1e-8,
            "solvers disagree: rel diff {} on n={n} seed={seed}",
            rel_diff(&direct, &cg)
        );
    }

    #[test]
    fn factor_once_matches_factor_per_solve(
        n in 4usize..50,
        seed in 0u64..10_000,
        steps in 2usize..6,
    ) {
        let a = rc_system(n, seed);
        let opts = CholOptions::unbounded();
        let once = CholeskyFactor::factor(&a, &opts).expect("factors");

        for k in 0..steps {
            let b = rhs(n, seed.wrapping_add(k as u64));
            let fresh = CholeskyFactor::factor(&a, &opts).expect("factors");
            // Same matrix, same deterministic algorithm: solutions are
            // bitwise identical, not merely close.
            prop_assert_eq!(once.solve_alloc(&b), fresh.solve_alloc(&b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Level-schedule dependency invariant on random SPD RC networks:
    // every row's in-envelope predecessors sit in strictly earlier
    // levels, every row is scheduled exactly once, and rows within a
    // level are ascending (the order the sharder relies on).
    #[test]
    fn level_schedule_predecessors_are_strictly_earlier(
        n in 4usize..80,
        seed in 0u64..10_000,
        components in 1usize..6,
    ) {
        let a = if components == 1 {
            rc_system(n, seed)
        } else {
            rc_chains(components, n.div_ceil(components).max(2), seed)
        };
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded())
            .expect("SPD RC system factors");
        let s = f.schedule();
        prop_assert_eq!(s.scheduled_rows(), f.n());
        let level = level_of(&f);
        prop_assert!(level.iter().all(|&l| l != usize::MAX));
        let first = f.envelope_first();
        for l in 0..s.levels() {
            let rows = s.level_rows(l);
            prop_assert!(rows.windows(2).all(|w| w[0] < w[1]));
            for &r in rows {
                let i = r as usize;
                for (j, &lj) in level.iter().enumerate().take(i).skip(first[i] as usize) {
                    prop_assert!(
                        lj < l,
                        "row {i} (level {l}) depends on row {j} (level {lj})"
                    );
                }
            }
        }
    }

    // The level-parallel forward/backward sweeps are bitwise equal to the
    // serial sweeps at every thread budget. Disconnected chains make the
    // levels wide enough that the parallel plan actually engages.
    #[test]
    fn parallel_sweeps_bitwise_equal_to_serial(
        components in 65usize..96,
        len in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let a = rc_chains(components, len, seed);
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded())
            .expect("factors");
        prop_assert!(f.schedule().parallel_worthwhile());
        let n = f.n();
        let b = rhs(n, seed ^ 0x5A5A);
        let serial = f.solve_alloc(&b);
        for threads in [1usize, 2, 4] {
            let mut x = vec![0.0; n];
            let mut work = vec![0.0; n];
            f.solve_with_threads(&b, &mut x, &mut work, threads);
            for (i, (&p, &s)) in x.iter().zip(&serial).enumerate() {
                prop_assert!(
                    p.to_bits() == s.to_bits(),
                    "threads={threads} node={i}: {p:e} != {s:e}"
                );
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The multi-RHS lockstep sweeps stay bitwise equal to per-lane solo
    // solves at every thread budget and lane width.
    #[test]
    fn parallel_multi_rhs_bitwise_equal_to_serial(
        components in 65usize..80,
        seed in 0u64..10_000,
    ) {
        let a = rc_chains(components, 3, seed);
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded())
            .expect("factors");
        let n = f.n();
        for k in [1usize, 2, 8] {
            // Node-major, lane-minor right-hand sides.
            let mut b = vec![0.0; n * k];
            for lane in 0..k {
                let lane_b = rhs(n, seed.wrapping_add(lane as u64));
                for node in 0..n {
                    b[node * k + lane] = lane_b[node];
                }
            }
            let mut x = vec![0.0; n * k];
            let mut work = vec![0.0; n * k];
            f.solve_multi(k, &b, &mut x, &mut work);
            for threads in [1usize, 2, 4] {
                let mut xt = vec![0.0; n * k];
                let mut wt = vec![0.0; n * k];
                f.solve_multi_with_threads(k, &b, &mut xt, &mut wt, threads);
                prop_assert!(
                    x.iter().zip(&xt).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "k={k} threads={threads} diverged from serial lockstep"
                );
            }
            // Each lane also matches a solo solve of that lane bitwise.
            for lane in 0..k {
                let lane_b: Vec<f64> = (0..n).map(|node| b[node * k + lane]).collect();
                let solo = f.solve_alloc(&lane_b);
                prop_assert!(
                    (0..n).all(|node| x[node * k + lane].to_bits() == solo[node].to_bits()),
                    "k={k} lane={lane} diverged from solo solve"
                );
            }
        }
    }
}
