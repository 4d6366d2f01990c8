//! Differential tests of the 7-point stencil storage against the CSR matrix
//! it is converted from: every kernel must be bitwise equal, on grids with
//! extents of 1 and 2 as well as wider ones, and on operands with negative
//! and (signed) zero entries. Conversion must round-trip and must refuse a
//! matrix that is not a symmetric 7-point stencil.

use proptest::prelude::*;

use hotgauge_thermal::solver::{solve_cg, CgConfig, SpdOperator};
use hotgauge_thermal::sparse::{CsrMatrix, TripletBuilder};
use hotgauge_thermal::stencil::{Stencil7, StencilError};

mod common;
use common::rc_system;

/// Deterministic xorshift stream for one test case.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A backward-Euler system on an `nx × ny × nz` grid, assembled like the
/// thermal model: random positive conductances on every in-grid edge, a
/// grounded film on the top level, and a `C/Δt` lump on every node.
fn grid_system(nx: usize, ny: usize, nz: usize, seed: u64) -> CsrMatrix {
    let mut next = stream(seed);
    let mut g = move || 0.01 + (next() % 10_000) as f64 / 997.0;
    let node = |z: usize, y: usize, x: usize| (z * ny + y) * nx + x;
    let mut b = TripletBuilder::new(nx * ny * nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = node(z, y, x);
                if x + 1 < nx {
                    b.add_conductance(i, node(z, y, x + 1), g());
                }
                if y + 1 < ny {
                    b.add_conductance(i, node(z, y + 1, x), g());
                }
                if z + 1 < nz {
                    b.add_conductance(i, node(z + 1, y, x), g());
                } else {
                    b.add_grounded_conductance(i, g());
                }
            }
        }
    }
    let mut a = b.build();
    let cdt: Vec<f64> = (0..a.n()).map(|_| g()).collect();
    a.add_to_diagonal(&cdt);
    a
}

/// An operand with negative entries, zeros of both signs, and ordinary
/// positive values.
fn operand(n: usize, seed: u64) -> Vec<f64> {
    let mut next = stream(seed ^ 0x0DD);
    (0..n)
        .map(|_| match next() % 8 {
            0 => 0.0,
            1 => -0.0,
            r => (r as f64 - 4.5) * (1.0 + (next() % 1000) as f64 / 37.0),
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stencil_kernels_are_bitwise_equal_to_csr(
        nx in 1usize..7,
        ny in 1usize..6,
        nz in 1usize..5,
        seed in 0u64..100_000,
    ) {
        let a = grid_system(nx, ny, nz, seed);
        let s = Stencil7::from_csr(&a, nx, ny, nz).expect("a grid system is a stencil");
        let n = a.n();
        prop_assert_eq!(bits(&s.diagonal()), bits(&a.diagonal()));

        let x = operand(n, seed);
        let (mut ya, mut ys) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        a.mul_vec(&x, &mut ya);
        s.mul_vec(&x, &mut ys);
        prop_assert!(bits(&ya) == bits(&ys), "mul_vec on {:?}", [nx, ny, nz]);
        let (da, ds) = (a.mul_vec_dot(&x, &mut ya), s.mul_vec_dot(&x, &mut ys));
        prop_assert_eq!(bits(&ya), bits(&ys));
        prop_assert!(da.to_bits() == ds.to_bits(), "mul_vec_dot on {:?}", [nx, ny, nz]);
    }

    #[test]
    fn to_csr_round_trips_exactly(
        nx in 1usize..7,
        ny in 1usize..6,
        nz in 1usize..5,
        seed in 0u64..100_000,
    ) {
        let a = grid_system(nx, ny, nz, seed);
        let back = Stencil7::from_csr(&a, nx, ny, nz).expect("stencil").to_csr();
        prop_assert_eq!(back.n(), a.n());
        prop_assert_eq!(back.nnz(), a.nnz());
        for i in 0..a.n() {
            let ((ca, va), (cb, vb)) = (a.row(i), back.row(i));
            prop_assert!(ca == cb, "row {}", i);
            prop_assert!(bits(va) == bits(vb), "row {}", i);
        }
    }

    #[test]
    fn cg_on_the_stencil_is_bitwise_equal_to_cg_on_csr(
        nx in 1usize..7,
        ny in 1usize..6,
        nz in 1usize..5,
        seed in 0u64..100_000,
    ) {
        let a = grid_system(nx, ny, nz, seed);
        let s = Stencil7::from_csr(&a, nx, ny, nz).expect("stencil");
        let n = a.n();
        let cfg = CgConfig { tolerance: 1e-10, max_iterations: 10 * n + 100 };
        let b = operand(n, seed ^ 0xB);
        let (mut xa, mut xs) = (vec![0.0; n], vec![0.0; n]);
        let (sa, ss) = (solve_cg(&a, &b, &mut xa, &cfg), solve_cg(&s, &b, &mut xs, &cfg));
        prop_assert_eq!(sa.iterations, ss.iterations);
        prop_assert_eq!(sa.relative_residual.to_bits(), ss.relative_residual.to_bits());
        prop_assert_eq!(bits(&xa), bits(&xs));
    }

    #[test]
    fn conversion_refuses_general_rc_networks(
        n in 8usize..60,
        seed in 0u64..10_000,
    ) {
        let a = rc_system(n, seed);
        prop_assert!(Stencil7::from_csr(&a, n, 1, 1).is_err());
        prop_assert!(Stencil7::from_csr(&a, 2, n / 2, 1).is_err());
        prop_assert!(matches!(
            Stencil7::from_csr(&a, n + 1, 1, 1),
            Err(StencilError::Shape { .. })
        ));
    }
}
