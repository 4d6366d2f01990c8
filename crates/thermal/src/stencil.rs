//! Structured storage for the thermal operator: a symmetric 7-point
//! stencil on a regular `nx × ny × nz` grid.
//!
//! Every matrix [`crate::model::ThermalModel`] assembles couples a node only
//! to its ±x, ±y and ±z neighbors, and writes the same `−g` on both sides
//! of each edge. So four `n`-long arrays hold it exactly: the diagonal and
//! the coupling to the `+x` (east), `+y` (north) and `+z` (up) neighbor.
//! A node reads its `−x`, `−y` and `−z` coupling from the mirrored entry of
//! that neighbor. That is `32 n` bytes against the `≈ 16 nnz + 8 n` of a
//! CSR copy with `usize` column indices, and no index stream to gather
//! through.
//!
//! The coefficients are not recomputed here: [`Stencil7::from_csr`] copies
//! them out of the assembled CSR, whose duplicate-summing order fixes every
//! diagonal's bits, after checking the 7-point shape and bitwise symmetry.
//!
//! **Bit-exactness.** Every kernel accumulates row `i` exactly as the CSR
//! row loop does: from `0.0`, one product per *stored* entry, in ascending
//! column order (`−z, −y, −x, self, +x, +y, +z`). Absent neighbors are
//! skipped rather than added as `0·x`, which could flip the sign of a zero.
//! So `y` and the fused dot are bitwise equal to the [`CsrMatrix`] kernels
//! on [`Stencil7::to_csr`].

use crate::solver::SpdOperator;
use crate::sparse::CsrMatrix;

/// Why a matrix is not a symmetric 7-point stencil on the requested grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilError {
    /// `nx · ny · nz` is zero or differs from the matrix dimension.
    Shape {
        /// Matrix dimension.
        n: usize,
        /// Grid extents requested.
        grid: [usize; 3],
    },
    /// Row `row` does not store exactly its diagonal and in-grid neighbors.
    Pattern {
        /// The first offending row.
        row: usize,
    },
    /// Entry `(row, col)` differs bitwise from `(col, row)`.
    Asymmetric {
        /// Row of the lower-triangle entry.
        row: usize,
        /// Its column.
        col: usize,
    },
}

impl std::fmt::Display for StencilError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StencilError::Shape { n, grid } => {
                write!(f, "a {n}-row matrix is not a {grid:?} grid")
            }
            StencilError::Pattern { row } => {
                write!(f, "row {row} is not a 7-point stencil row")
            }
            StencilError::Asymmetric { row, col } => {
                write!(f, "entries ({row}, {col}) and ({col}, {row}) differ")
            }
        }
    }
}

impl std::error::Error for StencilError {}

/// The position of a stored entry relative to its row's node.
#[derive(Debug, Clone, Copy)]
enum Dir {
    Below,
    South,
    West,
    Center,
    East,
    North,
    Up,
}

/// A symmetric 7-point operator on an `nx × ny × nz` grid, node index
/// `(z · ny + y) · nx + x`.
#[derive(Debug, Clone)]
pub struct Stencil7 {
    nx: usize,
    ny: usize,
    nz: usize,
    diag: Vec<f64>,
    /// Coupling of node `i` to `i + 1` (unused on the last x column).
    east: Vec<f64>,
    /// Coupling of node `i` to `i + nx` (unused on the last y row).
    north: Vec<f64>,
    /// Coupling of node `i` to `i + nx · ny` (unused on the top level).
    up: Vec<f64>,
}

/// The stored entries of row `i` on the grid, in ascending column order.
fn stencil_row(i: usize, [nx, ny, nz]: [usize; 3]) -> impl Iterator<Item = (usize, Dir)> {
    let plane = nx * ny;
    let (ix, iy, iz) = (i % nx, i / nx % ny, i / plane);
    [
        (iz > 0, i.wrapping_sub(plane), Dir::Below),
        (iy > 0, i.wrapping_sub(nx), Dir::South),
        (ix > 0, i.wrapping_sub(1), Dir::West),
        (true, i, Dir::Center),
        (ix + 1 < nx, i + 1, Dir::East),
        (iy + 1 < ny, i + nx, Dir::North),
        (iz + 1 < nz, i + plane, Dir::Up),
    ]
    .into_iter()
    .filter(|&(present, ..)| present)
    .map(|(_, j, dir)| (j, dir))
}

impl Stencil7 {
    /// Copies a CSR matrix into stencil storage.
    ///
    /// # Errors
    ///
    /// Fails unless every row stores exactly its diagonal and its in-grid
    /// neighbors and every off-diagonal entry equals its transpose bitwise.
    pub fn from_csr(a: &CsrMatrix, nx: usize, ny: usize, nz: usize) -> Result<Self, StencilError> {
        let n = a.n();
        if nx == 0 || ny == 0 || nz == 0 || nx * ny * nz != n {
            return Err(StencilError::Shape {
                n,
                grid: [nx, ny, nz],
            });
        }
        let mut s = Self {
            nx,
            ny,
            nz,
            diag: vec![0.0; n],
            east: vec![0.0; n],
            north: vec![0.0; n],
            up: vec![0.0; n],
        };
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut stored = cols.iter().zip(vals);
            for (j, dir) in stencil_row(i, [nx, ny, nz]) {
                let Some((&col, &v)) = stored.next().filter(|&(&col, _)| col == j) else {
                    return Err(StencilError::Pattern { row: i });
                };
                // Rows are visited in ascending order, so a lower entry's
                // mirror (set by the earlier row `col`) is already stored.
                let mirror = match dir {
                    Dir::Below => s.up[col],
                    Dir::South => s.north[col],
                    Dir::West => s.east[col],
                    Dir::Center => {
                        s.diag[i] = v;
                        continue;
                    }
                    Dir::East => {
                        s.east[i] = v;
                        continue;
                    }
                    Dir::North => {
                        s.north[i] = v;
                        continue;
                    }
                    Dir::Up => {
                        s.up[i] = v;
                        continue;
                    }
                };
                if mirror.to_bits() != v.to_bits() {
                    return Err(StencilError::Asymmetric { row: i, col });
                }
            }
            if stored.next().is_some() {
                return Err(StencilError::Pattern { row: i });
            }
        }
        Ok(s)
    }

    /// The same operator as a CSR matrix: the entries [`Self::from_csr`]
    /// read, in the same order, so a round trip is exact. Used by tests as
    /// the reference the stencil kernels are checked against.
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.n();
        let grid = [self.nx, self.ny, self.nz];
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(7 * n);
        let mut values = Vec::with_capacity(7 * n);
        row_ptr.push(0);
        for i in 0..n {
            for (j, dir) in stencil_row(i, grid) {
                col_idx.push(j);
                values.push(match dir {
                    Dir::Below => self.up[j],
                    Dir::South => self.north[j],
                    Dir::West => self.east[j],
                    Dir::Center => self.diag[i],
                    Dir::East => self.east[i],
                    Dir::North => self.north[i],
                    Dir::Up => self.up[i],
                });
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(n, row_ptr, col_idx, values)
    }

    /// Adds `v[i]` to every diagonal entry (e.g. `C/Δt` for the
    /// backward-Euler system).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != n`.
    pub(crate) fn add_to_diagonal(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.n());
        for (d, &vi) in self.diag.iter_mut().zip(v) {
            *d += vi;
        }
    }

    /// Runs `row` on every x-row of the grid, in ascending node order, with
    /// the row's neighbor presence as const parameters.
    #[inline(always)]
    fn for_each_row(&self, row: &mut SpmvRow<'_, '_>) {
        let plane = self.nx * self.ny;
        for iz in 0..self.nz {
            for iy in 0..self.ny {
                let base = iz * plane + iy * self.nx;
                let presence = (iz > 0, iy > 0, iy + 1 < self.ny, iz + 1 < self.nz);
                match presence {
                    (false, false, false, false) => {
                        row.run::<false, false, false, false>(self, base)
                    }
                    (false, false, false, true) => row.run::<false, false, false, true>(self, base),
                    (false, false, true, false) => row.run::<false, false, true, false>(self, base),
                    (false, false, true, true) => row.run::<false, false, true, true>(self, base),
                    (false, true, false, false) => row.run::<false, true, false, false>(self, base),
                    (false, true, false, true) => row.run::<false, true, false, true>(self, base),
                    (false, true, true, false) => row.run::<false, true, true, false>(self, base),
                    (false, true, true, true) => row.run::<false, true, true, true>(self, base),
                    (true, false, false, false) => row.run::<true, false, false, false>(self, base),
                    (true, false, false, true) => row.run::<true, false, false, true>(self, base),
                    (true, false, true, false) => row.run::<true, false, true, false>(self, base),
                    (true, false, true, true) => row.run::<true, false, true, true>(self, base),
                    (true, true, false, false) => row.run::<true, true, false, false>(self, base),
                    (true, true, false, true) => row.run::<true, true, false, true>(self, base),
                    (true, true, true, false) => row.run::<true, true, true, false>(self, base),
                    (true, true, true, true) => row.run::<true, true, true, true>(self, base),
                }
            }
        }
    }

    /// `y = A x`; returns `xᵀ A x`, folded row by row in ascending node
    /// order from `-0.0` (the order and neutral element of `Iterator::sum`).
    fn apply(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let n = self.n();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let mut row = SpmvRow { x, y, dot: -0.0 };
        self.for_each_row(&mut row);
        row.dot
    }
}

impl SpdOperator for Stencil7 {
    fn n(&self) -> usize {
        self.diag.len()
    }

    fn diagonal(&self) -> Vec<f64> {
        self.diag.clone()
    }

    fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        self.apply(x, y);
    }

    /// Fused SpMV + `xᵀ A x`: the dot folds in ascending node order from
    /// `-0.0`, the order and neutral element of `Iterator::sum`.
    fn mul_vec_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        self.apply(x, y)
    }
}

/// The coefficient and operand slices of one x-row's neighbor rows.
/// Absent neighbors get empty slices, never read.
struct Neighbors<'a> {
    below: (&'a [f64], &'a [f64]),
    south: (&'a [f64], &'a [f64]),
    north: (&'a [f64], &'a [f64]),
    above: (&'a [f64], &'a [f64]),
}

impl<'a> Neighbors<'a> {
    /// `(coefficients, operands)` of the neighbor rows of the x-row at
    /// `base`.
    #[inline(always)]
    fn of<const B: bool, const S: bool, const N: bool, const U: bool>(
        a: &'a Stencil7,
        x: &'a [f64],
        base: usize,
    ) -> Self {
        let nx = a.nx;
        let plane = nx * a.ny;
        let pick = |present: bool, coef: &'a [f64], c0: usize, x0: usize| {
            if present {
                (&coef[c0..c0 + nx], &x[x0..x0 + nx])
            } else {
                (&[][..], &[][..])
            }
        };
        Self {
            below: pick(B, &a.up, base.wrapping_sub(plane), base.wrapping_sub(plane)),
            south: pick(S, &a.north, base.wrapping_sub(nx), base.wrapping_sub(nx)),
            north: pick(N, &a.north, base, base + nx),
            above: pick(U, &a.up, base, base + plane),
        }
    }
}

/// The row kernel of [`Stencil7::apply`], folding `x·y` into `dot` after
/// each row.
struct SpmvRow<'a, 'b> {
    x: &'a [f64],
    y: &'b mut [f64],
    dot: f64,
}

/// `s` cut to the `m` interior cells of its x-row (empty stays empty).
#[inline(always)]
fn interior(s: &[f64], m: usize) -> &[f64] {
    if s.is_empty() {
        s
    } else {
        &s[1..][..m]
    }
}

impl SpmvRow<'_, '_> {
    /// One x-row of the SpMV, with the presence of the row below (`B`),
    /// south (`S`), north (`N`) and above (`U`) fixed at compile time.
    #[inline(always)]
    fn run<const B: bool, const S: bool, const N: bool, const U: bool>(
        &mut self,
        a: &Stencil7,
        base: usize,
    ) {
        let nx = a.nx;
        let nb = Neighbors::of::<B, S, N, U>(a, self.x, base);
        let xr = &self.x[base..base + nx];
        let dr = &a.diag[base..base + nx];
        let er = &a.east[base..base + nx];
        let yr = &mut self.y[base..base + nx];

        // A boundary cell: every term in ascending column order.
        let cell = |ix: usize, west: bool, east: bool| {
            let mut acc = 0.0;
            if B {
                acc += nb.below.0[ix] * nb.below.1[ix];
            }
            if S {
                acc += nb.south.0[ix] * nb.south.1[ix];
            }
            if west {
                acc += er[ix - 1] * xr[ix - 1];
            }
            acc += dr[ix] * xr[ix];
            if east {
                acc += er[ix] * xr[ix + 1];
            }
            if N {
                acc += nb.north.0[ix] * nb.north.1[ix];
            }
            if U {
                acc += nb.above.0[ix] * nb.above.1[ix];
            }
            acc
        };
        yr[0] = cell(0, false, nx > 1);
        if nx > 1 {
            yr[nx - 1] = cell(nx - 1, true, false);
        }
        if nx > 2 {
            // The interior: both x neighbors present, every slice cut to
            // the same length, so the loop runs branch-free and vectorizes.
            let m = nx - 2;
            let (bc, bx) = (interior(nb.below.0, m), interior(nb.below.1, m));
            let (sc, sx) = (interior(nb.south.0, m), interior(nb.south.1, m));
            let (nc, nxs) = (interior(nb.north.0, m), interior(nb.north.1, m));
            let (uc, ux) = (interior(nb.above.0, m), interior(nb.above.1, m));
            let (xw, xc, xe) = (&xr[..m], &xr[1..][..m], &xr[2..][..m]);
            let (ew, ec, dc) = (&er[..m], &er[1..][..m], &dr[1..][..m]);
            let yc = &mut yr[1..][..m];
            for j in 0..m {
                let mut acc = 0.0;
                if B {
                    acc += bc[j] * bx[j];
                }
                if S {
                    acc += sc[j] * sx[j];
                }
                acc += ew[j] * xw[j];
                acc += dc[j] * xc[j];
                acc += ec[j] * xe[j];
                if N {
                    acc += nc[j] * nxs[j];
                }
                if U {
                    acc += uc[j] * ux[j];
                }
                yc[j] = acc;
            }
        }
        for (&xi, &yi) in xr.iter().zip(yr.iter()) {
            self.dot += xi * yi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// A grid Laplacian with distinct positive conductances per edge and a
    /// grounded term on the top level, assembled like the thermal model.
    fn grid_csr(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let node = |z: usize, y: usize, x: usize| (z * ny + y) * nx + x;
        let mut b = TripletBuilder::new(nx * ny * nz);
        let mut g = 0.37;
        let mut next = || {
            g = (g * 7.13) % 3.0 + 0.05;
            g
        };
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = node(z, y, x);
                    if x + 1 < nx {
                        b.add_conductance(i, node(z, y, x + 1), next());
                    }
                    if y + 1 < ny {
                        b.add_conductance(i, node(z, y + 1, x), next());
                    }
                    if z + 1 < nz {
                        b.add_conductance(i, node(z + 1, y, x), next());
                    } else {
                        b.add_grounded_conductance(i, next());
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn refuses_wrong_shape_and_foreign_patterns() {
        let a = grid_csr(3, 2, 2);
        assert!(matches!(
            Stencil7::from_csr(&a, 3, 2, 3),
            Err(StencilError::Shape { .. })
        ));
        // The right size but the wrong grid: a 2 × 3 plane is not 3 × 2.
        assert!(matches!(
            Stencil7::from_csr(&a, 2, 3, 2),
            Err(StencilError::Pattern { .. })
        ));
        // A 2 × 2 plane whose (1, 0) entry is nudged off its mirror.
        let mut b = TripletBuilder::new(4);
        for (i, j) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_conductance(i, j, 1.5);
        }
        b.add(1, 0, 1e-3);
        let a = b.build();
        assert_eq!(
            Stencil7::from_csr(&a, 2, 2, 1).unwrap_err(),
            StencilError::Asymmetric { row: 1, col: 0 }
        );
    }

    #[test]
    fn add_to_diagonal_adds_in_place() {
        let a = grid_csr(4, 3, 2);
        let mut s = Stencil7::from_csr(&a, 4, 3, 2).unwrap();
        let v: Vec<f64> = (0..a.n()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        s.add_to_diagonal(&v);
        let want: Vec<f64> = a.diagonal().iter().zip(&v).map(|(d, vi)| d + vi).collect();
        assert_eq!(s.diagonal(), want);
    }
}
