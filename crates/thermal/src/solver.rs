//! Jacobi-preconditioned conjugate-gradient solver for the SPD systems
//! produced by the RC-network discretization.
//!
//! The transient hot path calls this once per time step with the *same*
//! matrix, so everything reusable lives in a [`CgWorkspace`] that callers
//! cache across solves: the inverted diagonal of the preconditioner and the
//! three iteration vectors `r`, `p`, `Ap`. Only a workspace's first solve
//! through [`solve_cg_with`] allocates.
//!
//! Each iteration runs exactly three passes over memory: a fused
//! SpMV + `p·Ap` dot ([`SpdOperator::mul_vec_dot`]), one fused update of
//! `x` and `r` that also reduces `r·z`, and the `p` update. The
//! preconditioned residual `z = D⁻¹r` is never stored: both passes that
//! need it recompute `r[i] * inv_diag[i]` from their operands, the same
//! product every time, so the iterates equal those of a stored-`z` CG bit
//! for bit (Rust never contracts `a * b + c` into an FMA). Convergence is
//! checked on the preconditioned residual norm `√(r·z)` that the fused
//! pass already produces, so no separate `‖r‖` pass is needed inside the
//! loop; the true relative residual is computed once on exit.
//!
//! The solver is generic over [`SpdOperator`]: the thermal model runs it
//! on its [`crate::stencil::Stencil7`], and the property tests on
//! general [`crate::sparse::CsrMatrix`] RC networks. Both operators
//! accumulate every row in the same order, so a solve's bits do not
//! depend on which storage holds the matrix.

use std::sync::Arc;

/// A symmetric positive-definite operator conjugate gradients runs on.
///
/// `mul_vec` must accumulate each row from `0.0` in a fixed order: the
/// bit-identity of a solve across operators rests on it.
pub trait SpdOperator {
    /// Number of rows (== columns).
    fn n(&self) -> usize;

    /// The diagonal entries.
    fn diagonal(&self) -> Vec<f64>;

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the dimension.
    fn mul_vec(&self, x: &[f64], y: &mut [f64]);

    /// `y = A x`, returning `xᵀ A x` — the fused SpMV + dot the CG
    /// iteration needs (`p·Ap`). The dot is summed in ascending order from
    /// `-0.0`, as `Iterator::sum` does.
    fn mul_vec_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        self.mul_vec(x, y);
        x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
    }
}

/// Outcome of a CG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Configuration for the CG solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Relative residual tolerance (applied to the preconditioned residual
    /// norm `√(r·D⁻¹r) / √(b·D⁻¹b)` that the iteration tracks for free).
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: 20_000,
        }
    }
}

/// Reusable state for [`solve_cg_with`]: the Jacobi preconditioner and the
/// iteration vectors, sized for one matrix. Building it costs one pass over
/// the diagonal; reusing it across the thousands of solves of a transient
/// run eliminates every per-solve allocation.
///
/// The three iteration vectors (`r`, `p`, `Ap`) are allocated by the
/// first solve, and a clone shares the preconditioner but not the vectors
/// (they carry no state from one solve to the next). A workspace that has
/// not solved yet — a batch mate's clone of lane 0's prepared system,
/// before its first step — therefore costs one pointer, not four vectors,
/// and each workspace that solves holds exactly `3n` words of scratch.
#[derive(Debug)]
pub struct CgWorkspace {
    inv_diag: Arc<[f64]>,
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl Clone for CgWorkspace {
    fn clone(&self) -> Self {
        Self::with_preconditioner(Arc::clone(&self.inv_diag))
    }
}

impl CgWorkspace {
    /// Builds a workspace for `a`, hoisting the inverted-diagonal
    /// preconditioner out of the solve loop.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has a non-positive diagonal entry (not SPD).
    pub fn new<A: SpdOperator + ?Sized>(a: &A) -> Self {
        Self::with_preconditioner(inverted_diagonal(a).into())
    }

    fn with_preconditioner(inv_diag: Arc<[f64]>) -> Self {
        Self {
            inv_diag,
            r: Vec::new(),
            p: Vec::new(),
            ap: Vec::new(),
        }
    }

    /// Dimension this workspace was built for.
    pub fn n(&self) -> usize {
        self.inv_diag.len()
    }

    /// Whether the iteration vectors have been allocated, i.e. whether this
    /// workspace has run a solve since it was built or cloned.
    fn has_scratch(&self) -> bool {
        !self.r.is_empty()
    }

    /// Whether `self` and `other` share one preconditioner allocation.
    #[cfg(test)]
    pub(crate) fn shares_preconditioner(&self, other: &CgWorkspace) -> bool {
        Arc::ptr_eq(&self.inv_diag, &other.inv_diag)
    }

    /// `f64`s held by the iteration vectors.
    #[cfg(test)]
    pub(crate) fn iteration_words(&self) -> usize {
        self.r.len() + self.p.len() + self.ap.len()
    }
}

/// The Jacobi preconditioner `1 / diag(a)`.
///
/// # Panics
///
/// Panics if the matrix has a non-positive diagonal entry (not SPD).
fn inverted_diagonal<A: SpdOperator + ?Sized>(a: &A) -> Vec<f64> {
    a.diagonal()
        .into_iter()
        .map(|d| {
            assert!(d > 0.0, "matrix diagonal must be positive for CG");
            1.0 / d
        })
        .collect()
}

/// Solves `A x = b` by preconditioned conjugate gradients with a freshly
/// built workspace. Convenience wrapper over [`solve_cg_with`] for one-off
/// solves; hot paths should cache the [`CgWorkspace`].
///
/// # Panics
///
/// Panics if dimensions disagree or the matrix has a non-positive diagonal
/// entry (not SPD).
pub fn solve_cg<A: SpdOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
) -> SolveStats {
    let mut ws = CgWorkspace::new(a);
    solve_cg_with(a, b, x, cfg, &mut ws)
}

/// Solves `A x = b` for SPD `A`, starting from the initial guess already in
/// `x` (a warm start — the previous time step's solution — typically cuts
/// iterations several-fold) and reusing `ws` across calls.
///
/// # Panics
///
/// Panics if dimensions disagree or `ws` was built for a different size.
pub fn solve_cg_with<A: SpdOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
    ws: &mut CgWorkspace,
) -> SolveStats {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    assert_eq!(ws.n(), n, "workspace built for a different matrix size");
    let _span = hotgauge_telemetry::span!("thermal.cg_solve");
    if !ws.has_scratch() {
        // First solve on this workspace: every vector is fully written
        // before it is read, so fresh zeroed storage is all it needs.
        ws.r = vec![0.0; n];
        ws.p = vec![0.0; n];
        ws.ap = vec![0.0; n];
    }

    // ‖b‖² in both the reporting (2-)norm and the preconditioned norm.
    let (nb2, nb2_prec) = b
        .iter()
        .zip(ws.inv_diag.iter())
        .fold((0.0f64, 0.0f64), |(s2, sp), (&bi, &di)| {
            (s2 + bi * bi, sp + bi * bi * di)
        });
    if nb2 == 0.0 {
        x.fill(0.0);
        return SolveStats {
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        };
    }

    // r = b − A x, p = z = D⁻¹ r, rz = r·z — one SpMV plus one fused pass.
    a.mul_vec(x, &mut ws.r);
    let mut rz = 0.0f64;
    for ((&bi, &di), (r, p)) in b
        .iter()
        .zip(ws.inv_diag.iter())
        .zip(ws.r.iter_mut().zip(&mut ws.p))
    {
        let ri = bi - *r;
        let zi = ri * di;
        *r = ri;
        *p = zi;
        rz += ri * zi;
    }

    let finish = |r: &[f64], iterations: usize, converged: bool| SolveStats {
        iterations,
        relative_residual: norm2(r) / nb2.sqrt(),
        converged,
    };

    if rz <= cfg.tolerance * cfg.tolerance * nb2_prec {
        return finish(&ws.r, 0, true);
    }

    for it in 1..=cfg.max_iterations {
        let pap = a.mul_vec_dot(&ws.p, &mut ws.ap);
        if pap <= 0.0 {
            // Should not happen for SPD systems; bail out conservatively.
            return finish(&ws.r, it, false);
        }
        let alpha = rz / pap;
        let rz_new = fused_axpy_precond(x, &mut ws.r, &ws.p, &ws.ap, &ws.inv_diag, alpha);
        if rz_new <= cfg.tolerance * cfg.tolerance * nb2_prec {
            return finish(&ws.r, it, true);
        }
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + β p, with z = D⁻¹ r recomputed.
        for ((pi, &ri), &di) in ws.p.iter_mut().zip(&ws.r).zip(ws.inv_diag.iter()) {
            *pi = ri * di + beta * *pi;
        }
    }

    finish(&ws.r, cfg.max_iterations, false)
}

/// The fused CG update: `x += α p`, `r −= α ap`; returns the new `r·z`
/// with `z = D⁻¹ r`. One pass over five streams instead of three separate
/// loops.
fn fused_axpy_precond(
    x: &mut [f64],
    r: &mut [f64],
    p: &[f64],
    ap: &[f64],
    inv_diag: &[f64],
    alpha: f64,
) -> f64 {
    let mut rz = 0.0;
    for i in 0..x.len() {
        x[i] += alpha * p[i];
        let ri = r[i] - alpha * ap[i];
        r[i] = ri;
        rz += ri * (ri * inv_diag[i]);
    }
    rz
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{CsrMatrix, TripletBuilder};

    /// 1-D Poisson matrix with Dirichlet-like grounding at both ends.
    fn poisson(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n);
        for i in 0..n - 1 {
            b.add_conductance(i, i + 1, 1.0);
        }
        b.add_grounded_conductance(0, 1.0);
        b.add_grounded_conductance(n - 1, 1.0);
        b.build()
    }

    #[test]
    fn solves_small_system_exactly() {
        let a = poisson(4);
        let x_true = vec![1.0, -2.0, 3.0, 0.5];
        let b = a.mul_vec_alloc(&x_true);
        let mut x = vec![0.0; 4];
        let stats = solve_cg(&a, &b, &mut x, &CgConfig::default());
        assert!(stats.converged);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7, "{xi} vs {ti}");
        }
    }

    #[test]
    fn solves_larger_system() {
        let n = 2000;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 100) as f64) / 10.0 - 5.0)
            .collect();
        let b = a.mul_vec_alloc(&x_true);
        let mut x = vec![0.0; n];
        let stats = solve_cg(
            &a,
            &b,
            &mut x,
            &CgConfig {
                tolerance: 1e-10,
                max_iterations: 50_000,
            },
        );
        assert!(stats.converged, "res = {}", stats.relative_residual);
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 5e-3, "error {err}");
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 1000;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b = a.mul_vec_alloc(&x_true);

        let mut cold = vec![0.0; n];
        let cold_stats = solve_cg(&a, &b, &mut cold, &CgConfig::default());

        // Warm start from a slightly perturbed truth.
        let mut warm: Vec<f64> = x_true.iter().map(|v| v + 1e-6).collect();
        let warm_stats = solve_cg(&a, &b, &mut warm, &CgConfig::default());
        assert!(warm_stats.iterations < cold_stats.iterations);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = poisson(10);
        let mut x = vec![3.0; 10];
        let stats = solve_cg(&a, &[0.0; 10], &mut x, &CgConfig::default());
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reports_nonconvergence_when_capped() {
        let n = 500;
        let a = poisson(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = solve_cg(
            &a,
            &b,
            &mut x,
            &CgConfig {
                tolerance: 1e-14,
                max_iterations: 2,
            },
        );
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 2);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_diagonal() {
        let b = TripletBuilder::new(2);
        let a = b.build(); // all-zero diagonal
        let mut x = vec![0.0; 2];
        let _ = solve_cg(&a, &[1.0, 1.0], &mut x, &CgConfig::default());
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        let a = poisson(300);
        let mut ws = CgWorkspace::new(&a);
        for seed in 0..3u64 {
            let b: Vec<f64> = (0..300)
                .map(|i| (((i as u64 + 1) * (seed + 3)) % 17) as f64 - 8.0)
                .collect();
            let mut x_fresh = vec![0.0; 300];
            let fresh = solve_cg(&a, &b, &mut x_fresh, &CgConfig::default());
            let mut x_reused = vec![0.0; 300];
            let reused = solve_cg_with(&a, &b, &mut x_reused, &CgConfig::default(), &mut ws);
            assert_eq!(fresh.iterations, reused.iterations);
            assert_eq!(x_fresh, x_reused);
        }
    }

    #[test]
    fn final_residual_is_a_true_two_norm_residual() {
        let a = poisson(120);
        let b: Vec<f64> = (0..120).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; 120];
        let stats = solve_cg(
            &a,
            &b,
            &mut x,
            &CgConfig {
                tolerance: 1e-10,
                max_iterations: 10_000,
            },
        );
        assert!(stats.converged);
        let mut r = a.mul_vec_alloc(&x);
        for (ri, bi) in r.iter_mut().zip(&b) {
            *ri = bi - *ri;
        }
        let true_res = norm2(&r) / norm2(&b);
        assert!(
            (stats.relative_residual - true_res).abs() < 1e-12 + true_res,
            "reported {} vs recomputed {}",
            stats.relative_residual,
            true_res
        );
    }

    #[test]
    fn iteration_storage_is_three_vectors() {
        // r, p and Ap only: z = D⁻¹ r is recomputed, not stored.
        let n = 64;
        let a = poisson(n);
        let mut ws = CgWorkspace::new(&a);
        assert_eq!(ws.iteration_words(), 0, "allocated on first solve");
        let mut x = vec![0.0; n];
        let stats = solve_cg_with(&a, &vec![1.0; n], &mut x, &CgConfig::default(), &mut ws);
        assert!(stats.iterations > 0);
        assert_eq!(ws.iteration_words(), 3 * n);
    }
}
