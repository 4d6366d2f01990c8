//! Tests of the thermal solver, preconditioned CG, against a dense
//! Cholesky reference: single solves on random SPD RC-network systems, and
//! a backward-Euler transient of a small pipeline stack.
#![recursion_limit = "256"]

use proptest::prelude::*;

use hotgauge_thermal::model::{ThermalModel, ThermalSim};
use hotgauge_thermal::solver::{solve_cg, CgConfig};
use hotgauge_thermal::stack::StackDescription;

mod common;
use common::rc_system;

#[path = "common/dense.rs"]
mod dense;
use dense::DenseCholesky;

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
    fn cg_matches_a_dense_solve_on_random_rc_networks(
        n in 4usize..60,
        seed in 0u64..10_000,
    ) {
        let a = rc_system(n, seed);
        let b = rhs(n, seed ^ 0xABCD);
        let want = DenseCholesky::factor(&a).solve(&b);

        let mut cg = vec![0.0; n];
        let stats = solve_cg(&a, &b, &mut cg, &CgConfig {
            tolerance: 1e-13,
            max_iterations: 10 * n + 100,
        });
        prop_assert!(stats.converged, "CG must converge on an SPD system");
        prop_assert!(
            rel_diff(&cg, &want) < 1e-8,
            "CG and the dense solve disagree: rel diff {} on n={n} seed={seed}",
            rel_diff(&cg, &want)
        );
    }
}

/// A warm-started CG transient of the pipeline's client stack (die, filler
/// border and all eleven levels) follows the backward-Euler recurrence
/// `(C/Δt + G)·u' = C/Δt·u + q` solved densely, where `u` is the rise over
/// ambient. The power map changes halfway, so the warm start's
/// extrapolation has to recover from a kink in the trajectory.
#[test]
fn cg_transient_matches_a_dense_backward_euler_reference() {
    let (nx, ny) = (6, 5);
    let stack = StackDescription::client_cpu_with_border(nx, ny, 500.0, 1e-3);
    let ambient = stack.ambient_c;
    let model = ThermalModel::new(stack);
    let n = model.node_count();
    let dt = 1e-3;

    let mut a = model.conductance().to_csr();
    let cdt: Vec<f64> = model.capacitance().iter().map(|c| c / dt).collect();
    a.add_to_diagonal(&cdt);
    let reference = DenseCholesky::factor(&a);

    let mut sim = ThermalSim::new(model, ambient);
    sim.cg.tolerance = 1e-12;
    let mut rise = vec![0.0; n];
    for step in 0..20 {
        let power: Vec<f64> = (0..nx * ny)
            .map(|i| 0.01 + 0.005 * ((i * (step / 10 + 2)) % 9) as f64)
            .collect();
        let stats = sim.step(&power, dt);
        assert!(stats.converged, "step {step} did not converge");

        let mut b = sim.model().inject_die_power(&power);
        for ((bi, ui), ci) in b.iter_mut().zip(&rise).zip(&cdt) {
            *bi += ci * ui;
        }
        rise = reference.solve(&b);
        for (i, (t, u)) in sim.state().iter().zip(&rise).enumerate() {
            assert!(
                (t - ambient - u).abs() < 1e-6,
                "step {step} node {i}: CG {} vs dense {}",
                t - ambient,
                u
            );
        }
    }
    assert!(rise.iter().any(|&u| u > 0.1), "the die should heat up");
}
