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
//! The solvers are generic over [`SpdOperator`]: the thermal model runs
//! them on its [`crate::stencil::Stencil7`], and the property tests on
//! general [`crate::sparse::CsrMatrix`] RC networks. Both operators
//! accumulate every row in the same order, so a solve's bits do not
//! depend on which storage holds the matrix.

use std::sync::Arc;

/// A symmetric positive-definite operator conjugate gradients runs on.
///
/// `mul_vec` must accumulate each row from `0.0` in a fixed order, and
/// `mul_vec_multi` must give every lane exactly the `mul_vec` result: the
/// lockstep solver's bit-identity to solo solves rests on it.
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

    /// `y = A x` per lane over `[n × k]` node-major, lane-minor blocks
    /// (`x[node * k + lane]`); lane `l` of `y` is bitwise equal to
    /// [`Self::mul_vec`] on lane `l` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the block lengths are not `n * k`.
    fn mul_vec_multi(&self, k: usize, x: &[f64], y: &mut [f64]);

    /// [`Self::mul_vec_multi`] plus `pap[l] = xₗᵀ A xₗ` per lane, summed in
    /// ascending node order from `0.0`.
    fn mul_vec_dot_multi(&self, k: usize, x: &[f64], y: &mut [f64], pap: &mut [f64]) {
        assert_eq!(pap.len(), k);
        self.mul_vec_multi(k, x, y);
        pap.fill(0.0);
        for (xrow, yrow) in x.chunks_exact(k).zip(y.chunks_exact(k)) {
            for ((pl, &xl), &yl) in pap.iter_mut().zip(xrow).zip(yrow) {
                *pl += xl * yl;
            }
        }
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
/// (they carry no state from one solve to the next). A workspace that
/// never solves — a lockstep lane whose steps all go through the batch's
/// [`MultiCgWorkspace`] — therefore costs one pointer, not four vectors.
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
    pub(crate) fn has_scratch(&self) -> bool {
        !self.r.is_empty()
    }

    /// Whether `self` and `other` share one preconditioner allocation.
    #[cfg(test)]
    pub(crate) fn shares_preconditioner(&self, other: &CgWorkspace) -> bool {
        Arc::ptr_eq(&self.inv_diag, &other.inv_diag)
    }

    /// `f64`s held by the iteration vectors.
    #[cfg(test)]
    fn iteration_words(&self) -> usize {
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

/// Reusable state for [`solve_cg_multi`]: the shared Jacobi preconditioner
/// plus the three iteration blocks (`r`, `p`, `Ap`) and per-lane scalars
/// for `k` lockstep right-hand sides; like the solo solver, it recomputes
/// `z = D⁻¹r` instead of storing it. All `[n × k]` blocks are node-major,
/// lane-minor (`r[node * k + lane]`), so the per-node lane loops run over
/// contiguous memory and auto-vectorize.
#[derive(Debug, Clone)]
pub struct MultiCgWorkspace {
    k: usize,
    inv_diag: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    pap: Vec<f64>,
    alpha: Vec<f64>,
    rz: Vec<f64>,
    nb2: Vec<f64>,
    nb2_prec: Vec<f64>,
    active: Vec<bool>,
    stats: Vec<SolveStats>,
}

impl MultiCgWorkspace {
    /// Builds a workspace for `k` lockstep solves against `a`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the matrix has a non-positive diagonal entry.
    pub fn new<A: SpdOperator + ?Sized>(a: &A, k: usize) -> Self {
        assert!((1..=MAX_LOCKSTEP_WIDTH).contains(&k));
        let n = a.n();
        let inv_diag = inverted_diagonal(a);
        Self {
            k,
            inv_diag,
            r: vec![0.0; n * k],
            p: vec![0.0; n * k],
            ap: vec![0.0; n * k],
            pap: vec![0.0; k],
            alpha: vec![0.0; k],
            rz: vec![0.0; k],
            nb2: vec![0.0; k],
            nb2_prec: vec![0.0; k],
            active: vec![false; k],
            stats: vec![
                SolveStats {
                    iterations: 0,
                    relative_residual: 0.0,
                    converged: false,
                };
                k
            ],
        }
    }

    /// Dimension this workspace was built for.
    pub fn n(&self) -> usize {
        self.inv_diag.len()
    }

    /// Lane count this workspace was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-lane outcomes of the last [`solve_cg_multi`] call.
    pub fn stats(&self) -> &[SolveStats] {
        &self.stats
    }

    /// `f64`s held by the iteration blocks.
    #[cfg(test)]
    fn iteration_words(&self) -> usize {
        self.r.len() + self.p.len() + self.ap.len()
    }
}

/// Solves `k` systems `A xₗ = bₗ` in lockstep over `[n × k]` node-major,
/// lane-minor blocks, streaming each matrix row's index list once for all
/// lanes per iteration. Each lane starts from the warm-start guess already
/// in its column of `x` and iterates until *its own* preconditioned residual
/// meets `cfg.tolerance`; converged lanes are masked out (their columns are
/// never touched again) while the rest keep iterating.
///
/// **Bit-exactness:** every lane performs exactly the floating-point
/// operation sequence of a solo [`solve_cg_with`] call — same accumulation
/// orders in the norm folds, SpMV, fused update, and `p` update, same
/// per-lane `α`/`β`/convergence decisions — so each column of `x` and each
/// [`SolveStats`] is bitwise identical to its solo counterpart. Per-lane
/// outcomes land in [`MultiCgWorkspace::stats`].
///
/// # Panics
///
/// Panics if block lengths disagree with the workspace shape.
pub fn solve_cg_multi<A: SpdOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
    ws: &mut MultiCgWorkspace,
) {
    let n = a.n();
    let k = ws.k;
    assert_eq!(b.len(), n * k);
    assert_eq!(x.len(), n * k);
    assert_eq!(ws.n(), n, "workspace built for a different matrix size");
    let _span = hotgauge_telemetry::span!("thermal.cg_solve");
    let tol2 = cfg.tolerance * cfg.tolerance;

    // ‖b‖² per lane in the reporting and preconditioned norms, accumulated
    // ascending-node exactly like the solo fold.
    ws.nb2.fill(0.0);
    ws.nb2_prec.fill(0.0);
    for (brow, &di) in b.chunks_exact(k).zip(&ws.inv_diag) {
        for ((s2, sp), &bi) in ws.nb2.iter_mut().zip(&mut ws.nb2_prec).zip(brow) {
            *s2 += bi * bi;
            *sp += bi * bi * di;
        }
    }
    for l in 0..k {
        ws.active[l] = ws.nb2[l] != 0.0;
        if !ws.active[l] {
            for xrow in x.chunks_exact_mut(k) {
                xrow[l] = 0.0;
            }
            ws.stats[l] = SolveStats {
                iterations: 0,
                relative_residual: 0.0,
                converged: true,
            };
        }
    }

    // r = b − A x, p = z = D⁻¹ r, rz = r·z per lane. Zero-rhs lanes have
    // x zeroed above, so touching their (never again read) r/p is inert.
    a.mul_vec_multi(k, x, &mut ws.r);
    ws.rz.fill(0.0);
    for ((brow, &di), (rrow, prow)) in b
        .chunks_exact(k)
        .zip(&ws.inv_diag)
        .zip(ws.r.chunks_exact_mut(k).zip(ws.p.chunks_exact_mut(k)))
    {
        for l in 0..k {
            let ri = brow[l] - rrow[l];
            let zi = ri * di;
            rrow[l] = ri;
            prow[l] = zi;
            ws.rz[l] += ri * zi;
        }
    }

    let finish = |r: &[f64], nb2: f64, l: usize, iterations: usize, converged: bool| {
        let rr: f64 = r.chunks_exact(k).map(|row| row[l] * row[l]).sum();
        SolveStats {
            iterations,
            relative_residual: rr.sqrt() / nb2.sqrt(),
            converged,
        }
    };

    for l in 0..k {
        if ws.active[l] && ws.rz[l] <= tol2 * ws.nb2_prec[l] {
            ws.stats[l] = finish(&ws.r, ws.nb2[l], l, 0, true);
            ws.active[l] = false;
        }
    }

    for it in 1..=cfg.max_iterations {
        if !ws.active.iter().any(|&a| a) {
            return;
        }
        // One traversal of the row structure serves every lane.
        a.mul_vec_dot_multi(k, &ws.p, &mut ws.ap, &mut ws.pap);
        for l in 0..k {
            if ws.active[l] {
                if ws.pap[l] <= 0.0 {
                    // Should not happen for SPD systems; bail this lane out.
                    ws.stats[l] = finish(&ws.r, ws.nb2[l], l, it, false);
                    ws.active[l] = false;
                } else {
                    ws.alpha[l] = ws.rz[l] / ws.pap[l];
                }
            }
        }
        // Fused update: x += α p, r −= α ap, reducing r·z with z = D⁻¹ r,
        // with masked lanes frozen. The unguarded loop runs while all lanes
        // are live (the common case), keeping the lane loop branch-free.
        let all = ws.active.iter().all(|&a| a);
        let mut rz_new = [0.0f64; MAX_LOCKSTEP_WIDTH];
        let rz_new = &mut rz_new[..k];
        for (i, ((xrow, rrow), &di)) in x
            .chunks_exact_mut(k)
            .zip(ws.r.chunks_exact_mut(k))
            .zip(&ws.inv_diag)
            .enumerate()
        {
            let prow = &ws.p[i * k..i * k + k];
            let aprow = &ws.ap[i * k..i * k + k];
            if all {
                for l in 0..k {
                    xrow[l] += ws.alpha[l] * prow[l];
                    let ri = rrow[l] - ws.alpha[l] * aprow[l];
                    rrow[l] = ri;
                    rz_new[l] += ri * (ri * di);
                }
            } else {
                for l in 0..k {
                    if ws.active[l] {
                        xrow[l] += ws.alpha[l] * prow[l];
                        let ri = rrow[l] - ws.alpha[l] * aprow[l];
                        rrow[l] = ri;
                        rz_new[l] += ri * (ri * di);
                    }
                }
            }
        }
        for (l, &rz) in rz_new.iter().enumerate() {
            if ws.active[l] {
                if rz <= tol2 * ws.nb2_prec[l] {
                    ws.stats[l] = finish(&ws.r, ws.nb2[l], l, it, true);
                    ws.active[l] = false;
                } else {
                    // Reuse alpha as this iteration's per-lane β.
                    ws.alpha[l] = rz / ws.rz[l];
                    ws.rz[l] = rz;
                }
            }
        }
        // p = z + β p per lane, with z = D⁻¹ r recomputed.
        let all = ws.active.iter().all(|&a| a);
        for ((prow, rrow), &di) in
            ws.p.chunks_exact_mut(k)
                .zip(ws.r.chunks_exact(k))
                .zip(&ws.inv_diag)
        {
            if all {
                for l in 0..k {
                    prow[l] = rrow[l] * di + ws.alpha[l] * prow[l];
                }
            } else {
                for l in 0..k {
                    if ws.active[l] {
                        prow[l] = rrow[l] * di + ws.alpha[l] * prow[l];
                    }
                }
            }
        }
    }
    for l in 0..k {
        if ws.active[l] {
            ws.stats[l] = finish(&ws.r, ws.nb2[l], l, cfg.max_iterations, false);
            ws.active[l] = false;
        }
    }
}

/// Widest lockstep batch the stack-allocated per-iteration lane accumulators
/// support. The sweep executor batches at 4 or 8; 16 leaves headroom.
pub const MAX_LOCKSTEP_WIDTH: usize = 16;

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
        for k in [1, 8] {
            assert_eq!(MultiCgWorkspace::new(&a, k).iteration_words(), 3 * n * k);
        }
    }

    /// Pack per-lane vectors into a node-major lane-minor SoA block.
    fn pack(lanes: &[Vec<f64>]) -> Vec<f64> {
        let k = lanes.len();
        let n = lanes[0].len();
        let mut out = vec![0.0; n * k];
        for (l, lane) in lanes.iter().enumerate() {
            for (i, &v) in lane.iter().enumerate() {
                out[i * k + l] = v;
            }
        }
        out
    }

    #[test]
    fn lockstep_cg_is_bitwise_equal_to_solo_solves() {
        let n = 400;
        let a = poisson(n);
        let cfg = CgConfig {
            tolerance: 1e-8,
            max_iterations: 20_000,
        };
        for k in [1usize, 2, 4, 8] {
            // Distinct rhs and warm starts per lane so lanes converge at
            // different iterations and the masking path is exercised.
            let bs: Vec<Vec<f64>> = (0..k)
                .map(|l| {
                    (0..n)
                        .map(|i| (((i * 13 + l * 7) % 23) as f64) - 11.0 * (l as f64 + 1.0) / 4.0)
                        .collect()
                })
                .collect();
            let x0s: Vec<Vec<f64>> = (0..k)
                .map(|l| (0..n).map(|i| ((i + l) as f64 * 0.01).sin()).collect())
                .collect();
            let b = pack(&bs);
            let mut x = pack(&x0s);
            let mut ws = MultiCgWorkspace::new(&a, k);
            solve_cg_multi(&a, &b, &mut x, &cfg, &mut ws);
            for l in 0..k {
                let mut solo_x = x0s[l].clone();
                let solo = solve_cg(&a, &bs[l], &mut solo_x, &cfg);
                let stats = ws.stats()[l];
                assert_eq!(stats.iterations, solo.iterations, "k={k} lane={l}");
                assert_eq!(stats.converged, solo.converged);
                assert_eq!(
                    stats.relative_residual.to_bits(),
                    solo.relative_residual.to_bits()
                );
                for i in 0..n {
                    assert_eq!(
                        x[i * k + l].to_bits(),
                        solo_x[i].to_bits(),
                        "k={k} lane={l} node={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lockstep_cg_masks_zero_rhs_and_capped_lanes() {
        let n = 200;
        let a = poisson(n);
        // Lane 0: zero rhs (instant exact solution). Lane 1: real system.
        let bs = vec![
            vec![0.0; n],
            (0..n).map(|i| ((i % 5) as f64) - 2.0).collect(),
        ];
        let b = pack(&bs);
        let mut x = pack(&[vec![3.0; n], vec![0.0; n]]);
        let cfg = CgConfig {
            tolerance: 1e-10,
            max_iterations: 20_000,
        };
        let mut ws = MultiCgWorkspace::new(&a, 2);
        solve_cg_multi(&a, &b, &mut x, &cfg, &mut ws);
        assert!(ws.stats()[0].converged);
        assert_eq!(ws.stats()[0].iterations, 0);
        assert!((0..n).all(|i| x[i * 2] == 0.0));
        assert!(ws.stats()[1].converged);

        // An iteration cap hits every lane with the solo count.
        let capped = CgConfig {
            tolerance: 1e-14,
            max_iterations: 2,
        };
        let mut x2 = pack(&[bs[1].clone(), bs[1].clone()]);
        let b2 = pack(&[bs[1].clone(), bs[1].clone()]);
        let mut ws2 = MultiCgWorkspace::new(&a, 2);
        solve_cg_multi(&a, &b2, &mut x2, &capped, &mut ws2);
        for s in ws2.stats() {
            assert!(!s.converged);
            assert_eq!(s.iterations, 2);
        }
    }
}
