//! Minimal sparse linear algebra: CSR matrices built from triplets.
//!
//! The thermal RC network is assembled here as triplets and summed into a
//! CSR matrix, then copied into the structured [`crate::stencil::Stencil7`]
//! that conjugate gradients (see [`crate::solver`]) runs on. CSR remains
//! the general form: the solver property tests run CG on random RC
//! networks that are not grids, and the stencil tests use it as the
//! reference the stencil kernels must match bit for bit.

use crate::solver::SpdOperator;

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// A matrix from raw CSR arrays: `row_ptr` has `n + 1` ascending
    /// offsets into `col_idx`/`values`, columns ascending within a row.
    pub(crate) fn from_parts(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), n + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        Self {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `i` as `(column indices, values)`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Returns `A x` as a fresh vector.
    pub fn mul_vec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec(x, &mut y);
        y
    }

    /// Entry `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        for k in self.row_ptr[i]..self.row_ptr[i + 1] {
            if self.col_idx[k] == j {
                return self.values[k];
            }
        }
        0.0
    }

    /// Adds `v` to every stored diagonal entry; `v[i]` must exist as a stored
    /// entry (true for all matrices assembled by [`TripletBuilder`] with
    /// explicit diagonals).
    pub fn add_to_diagonal(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.n);
        for (i, &vi) in v.iter().enumerate() {
            let mut found = false;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    self.values[k] += vi;
                    found = true;
                    break;
                }
            }
            assert!(found, "row {i} has no stored diagonal entry");
        }
    }

    /// Checks symmetry up to `tol` (O(nnz·log) via lookups; test helper).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl SpdOperator for CsrMatrix {
    fn n(&self) -> usize {
        self.n
    }

    /// The diagonal entries (0 where a row has no stored diagonal).
    fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (i, di) in d.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    *di = self.values[k];
                }
            }
        }
        d
    }

    /// `y = A x`: each row accumulates its stored entries in ascending
    /// column order from `0.0`.
    fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
    }
}

/// Accumulates `(row, col, value)` triplets and assembles a [`CsrMatrix`],
/// summing duplicate coordinates.
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletBuilder {
    /// A builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// A builder for an `n × n` matrix with room for `entries` triplets
    /// (plus the diagonal [`Self::build`] adds), so an assembly that can
    /// bound its size allocates the list once instead of growing it by
    /// doubling.
    pub(crate) fn with_capacity(n: usize, entries: usize) -> Self {
        assert!(n < u32::MAX as usize, "matrix too large for u32 indices");
        Self {
            n,
            entries: Vec::with_capacity(entries + n),
        }
    }

    /// Adds `v` at `(i, j)`.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        self.entries.push((i as u32, j as u32, v));
    }

    /// Adds the symmetric conductance pattern for an edge `i — j` with
    /// conductance `g`: `+g` on both diagonals, `−g` off-diagonal.
    pub fn add_conductance(&mut self, i: usize, j: usize, g: f64) {
        debug_assert!(g >= 0.0, "conductance must be non-negative");
        self.add(i, i, g);
        self.add(j, j, g);
        self.add(i, j, -g);
        self.add(j, i, -g);
    }

    /// Adds `g` to the diagonal only (a conductance to an external fixed
    /// potential such as the ambient).
    pub fn add_grounded_conductance(&mut self, i: usize, g: f64) {
        debug_assert!(g >= 0.0);
        self.add(i, i, g);
    }

    /// Assembles the CSR matrix, summing duplicates. Every row is given an
    /// explicit diagonal entry (inserting 0.0 if never touched).
    pub fn build(mut self) -> CsrMatrix {
        for i in 0..self.n {
            self.entries.push((i as u32, i as u32, 0.0));
        }
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        // At most one stored entry per triplet: reserving that bound
        // allocates each array once.
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        let mut cur_row = 0u32;
        let mut iter = self.entries.into_iter().peekable();
        while let Some((r, c, v)) = iter.next() {
            while cur_row < r {
                row_ptr.push(col_idx.len());
                cur_row += 1;
            }
            let mut acc = v;
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    acc += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            col_idx.push(c as usize);
            values.push(acc);
        }
        while (row_ptr.len() as u32) <= cur_row {
            row_ptr.push(col_idx.len());
        }
        while row_ptr.len() < self.n + 1 {
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_multiply() {
        let mut b = TripletBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 2.0);
        b.add(1, 2, -1.0);
        b.add(2, 1, -1.0);
        b.add(2, 2, 2.0);
        let a = b.build();
        assert_eq!(a.n(), 3);
        let y = a.mul_vec_alloc(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 1), 0.0); // explicit zero diagonal inserted
    }

    #[test]
    fn conductance_pattern_is_symmetric_laplacian() {
        let mut b = TripletBuilder::new(3);
        b.add_conductance(0, 1, 2.0);
        b.add_conductance(1, 2, 3.0);
        let a = b.build();
        assert!(a.is_symmetric(1e-12));
        // Row sums are zero for a pure Laplacian.
        let ones = vec![1.0; 3];
        let y = a.mul_vec_alloc(&ones);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn grounded_conductance_breaks_row_sum() {
        let mut b = TripletBuilder::new(2);
        b.add_conductance(0, 1, 1.0);
        b.add_grounded_conductance(0, 5.0);
        let a = b.build();
        let y = a.mul_vec_alloc(&[1.0, 1.0]);
        assert!((y[0] - 5.0).abs() < 1e-12);
        assert!(y[1].abs() < 1e-12);
    }

    #[test]
    fn diagonal_extraction() {
        let mut b = TripletBuilder::new(2);
        b.add_conductance(0, 1, 4.0);
        let a = b.build();
        assert_eq!(a.diagonal(), vec![4.0, 4.0]);
    }

    #[test]
    fn add_to_diagonal_mutates() {
        let mut b = TripletBuilder::new(2);
        b.add_conductance(0, 1, 1.0);
        let mut a = b.build();
        a.add_to_diagonal(&[10.0, 20.0]);
        assert_eq!(a.get(0, 0), 11.0);
        assert_eq!(a.get(1, 1), 21.0);
    }

    #[test]
    fn empty_rows_get_zero_diagonal() {
        let b = TripletBuilder::new(4);
        let a = b.build();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.diagonal(), vec![0.0; 4]);
    }

    #[test]
    fn row_access_matches_get() {
        let mut b = TripletBuilder::new(3);
        b.add_conductance(0, 2, 2.0);
        b.add_conductance(1, 2, 1.0);
        let a = b.build();
        for i in 0..3 {
            let (cols, vals) = a.row(i);
            assert_eq!(cols.len(), vals.len());
            for (&j, &v) in cols.iter().zip(vals) {
                assert_eq!(a.get(i, j), v);
            }
        }
    }

    /// A pseudo-random sparse SPD-patterned matrix for kernel equivalence.
    fn random_matrix(n: usize, seed: u64) -> CsrMatrix {
        let mut b = TripletBuilder::new(n);
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..n - 1 {
            b.add_conductance(i, i + 1, (rnd() % 100) as f64 / 10.0);
            let j = (rnd() as usize) % n;
            if j != i {
                b.add_conductance(i, j, (rnd() % 50) as f64 / 25.0);
            }
        }
        b.add_grounded_conductance(0, 3.0);
        b.build()
    }

    #[test]
    fn mul_vec_dot_returns_quadratic_form() {
        let a = random_matrix(64, 99);
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; 64];
        let q = a.mul_vec_dot(&x, &mut y);
        let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((q - expect).abs() < 1e-12);
        assert_eq!(y, a.mul_vec_alloc(&x));
    }
}
