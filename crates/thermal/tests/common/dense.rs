//! A dense reference solver for the CG tests: the matrix is copied into a
//! row-major array and factored by textbook Cholesky, so the reference
//! shares no sparsity pattern, ordering or iteration with the solver under
//! test.

use hotgauge_thermal::solver::SpdOperator;
use hotgauge_thermal::sparse::CsrMatrix;

/// The lower Cholesky factor `L` of an SPD matrix `A = L·Lᵀ`, dense.
pub struct DenseCholesky {
    n: usize,
    /// Row-major `n × n`; only the lower triangle is meaningful.
    l: Vec<f64>,
}

impl DenseCholesky {
    /// Factors `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not positive definite.
    pub fn factor(a: &CsrMatrix) -> Self {
        let n = a.n();
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                l[i * n + j] = v;
            }
        }
        for j in 0..n {
            let d = l[j * n + j] - (0..j).map(|k| l[j * n + k] * l[j * n + k]).sum::<f64>();
            assert!(d > 0.0, "matrix is not positive definite (pivot {j})");
            let d = d.sqrt();
            l[j * n + j] = d;
            for i in j + 1..n {
                let s = l[i * n + j] - (0..j).map(|k| l[i * n + k] * l[j * n + k]).sum::<f64>();
                l[i * n + j] = s / d;
            }
        }
        Self { n, l }
    }

    /// Solves `A x = b` by forward and backward substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let (n, l) = (self.n, &self.l);
        assert_eq!(b.len(), n, "right-hand side length");
        let mut x = b.to_vec();
        for i in 0..n {
            let s = x[i] - (0..i).map(|k| l[i * n + k] * x[k]).sum::<f64>();
            x[i] = s / l[i * n + i];
        }
        for i in (0..n).rev() {
            let s = x[i] - (i + 1..n).map(|k| l[k * n + i] * x[k]).sum::<f64>();
            x[i] = s / l[i * n + i];
        }
        x
    }
}
