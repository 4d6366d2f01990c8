//! Factor-once sparse Cholesky for the constant backward-Euler system.
//!
//! The transient thermal step solves `(C/Δt + G) T' = rhs` with a matrix
//! that never changes during a run (constant `Δt`, constant geometry), so
//! the expensive part — the factorization — can be paid once per
//! configuration and each time step reduces to two triangular sweeps.
//!
//! The factorization is a profile (skyline) Cholesky after a reverse
//! Cuthill–McKee reordering: RCM clusters the RC network's neighbors so the
//! lower-triangular factor fits in a contiguous envelope per row, which
//! makes both the factorization inner loops and the triangular sweeps
//! straight runs over contiguous memory. For the thin 3-D grids produced by
//! [`crate::model::ThermalModel`] the envelope is dense enough that a
//! skyline beats a general sparse factor with its index-chasing.
//!
//! The factor deliberately *rejects* matrices whose envelope would be too
//! wide ([`CholOptions::max_profile_per_node`]) or too large in absolute
//! terms ([`CholOptions::max_profile_entries`]): on big fine-resolution
//! grids the triangular sweeps stream more memory per solve than a handful
//! of warm-started CG iterations touch, so the caller
//! ([`crate::model::ThermalSim`]) falls back to CG above the budget. See
//! DESIGN.md ("Solver strategy") for the crossover measurements.

use crate::solver::SpdOperator;
use crate::sparse::CsrMatrix;

/// Hard cap on triangular-solve shards per dependency level. Matches
/// [`crate::solver::MAX_LOCKSTEP_WIDTH`] in spirit: enough for any machine
/// this targets while keeping the per-level partition table on the stack.
pub const MAX_SOLVE_SHARDS: usize = 16;

/// Minimum rows a dependency level must hand *each* shard before a scoped
/// spawn pays for itself: a worker spawn costs tens of microseconds while a
/// skyline row op costs tens of nanoseconds, so narrow levels run inline on
/// the calling thread even when the whole schedule is parallel-worthwhile.
const LEVEL_SHARD_MIN_ROWS: usize = 1024;

/// Average rows/level below which [`CholeskyFactor::solve_with_threads`]
/// stands down to the serial sweeps. Connected RCM envelopes degenerate to
/// near-singleton levels (each row's envelope reaches its immediate
/// predecessor), where level-by-level execution only adds scheduling
/// overhead; wide levels only arise from independent blocks — disconnected
/// components such as multi-die fleets, or envelope breaks. The crossover
/// was measured with the `tri_solve_levels` bench group (see DESIGN.md,
/// "Threading model").
pub const LEVEL_PARALLEL_MIN_AVG_ROWS: f64 = 64.0;

/// Dependency levels of the skyline triangular sweeps, derived from the RCM
/// envelope at factor time.
///
/// Row `i`'s forward dot reads `work[first[i] .. i]`, so it depends on every
/// row of that interval; its level is one past the deepest level among them
/// (`0` when the envelope row is empty). Rows sharing a level therefore have
/// pairwise disjoint `first[i] ..= i` intervals — if row `r` lay inside row
/// `r'`'s envelope they could not share a level — which is what lets the
/// executor hand each shard an exclusive, contiguous `work` slice with no
/// aliasing and no unsafe code. The backward sweep runs the same levels in
/// reverse: row `i`'s axpy targets `work[first[i] .. i]`, and every row
/// whose envelope covers `i` sits in a strictly deeper level, so
/// deeper-levels-first replays the serial descending-row update order for
/// every element exactly.
#[derive(Debug, Clone)]
pub struct LevelSchedule {
    /// Row indices grouped by level, ascending within each level.
    rows: Vec<u32>,
    /// Level `l` spans `rows[level_ptr[l] .. level_ptr[l + 1]]`.
    level_ptr: Vec<usize>,
    /// Widest level, in rows.
    max_width: usize,
}

impl LevelSchedule {
    /// Builds the schedule from the envelope extents (`first[i]` = leftmost
    /// stored column of row `i`). Cost is one pass over the envelope — the
    /// same order as a single triangular sweep.
    fn build(first: &[u32]) -> Self {
        let n = first.len();
        let mut level = vec![0u32; n];
        let mut n_levels = 1usize;
        for i in 0..n {
            let fi = first[i] as usize;
            let l = if fi == i {
                0
            } else {
                // Non-empty range: every in-envelope predecessor must sit in
                // a strictly earlier level.
                level[fi..i].iter().copied().fold(0, u32::max) + 1
            };
            level[i] = l;
            n_levels = n_levels.max(l as usize + 1);
        }
        // Counting sort, stable in row order, so rows ascend within a level
        // (ascending rows ⇒ ascending disjoint envelope intervals, which the
        // shard partitioner relies on).
        let mut level_ptr = vec![0usize; n_levels + 1];
        for &l in &level {
            level_ptr[l as usize + 1] += 1;
        }
        for l in 0..n_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut cursor: Vec<usize> = level_ptr[..n_levels].to_vec();
        let mut rows = vec![0u32; n];
        for (i, &l) in level.iter().enumerate() {
            rows[cursor[l as usize]] = i as u32;
            cursor[l as usize] += 1;
        }
        let max_width = (0..n_levels)
            .map(|l| level_ptr[l + 1] - level_ptr[l])
            .max()
            .unwrap_or(0);
        Self {
            rows,
            level_ptr,
            max_width,
        }
    }

    /// Number of dependency levels (`n` for a fully chained envelope, `1`
    /// for a diagonal matrix).
    pub fn levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Scheduled rows (= the matrix dimension).
    pub fn scheduled_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows of level `l`, ascending.
    pub fn level_rows(&self, l: usize) -> &[u32] {
        &self.rows[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Rows per level on average — the schedule's available parallelism.
    pub fn avg_rows_per_level(&self) -> f64 {
        self.rows.len() as f64 / self.levels() as f64
    }

    /// Widest level, in rows.
    pub fn max_level_width(&self) -> usize {
        self.max_width
    }

    /// Whether level-parallel execution can beat the serial sweeps on this
    /// schedule (see [`LEVEL_PARALLEL_MIN_AVG_ROWS`]).
    pub fn parallel_worthwhile(&self) -> bool {
        self.avg_rows_per_level() >= LEVEL_PARALLEL_MIN_AVG_ROWS
    }
}

/// Why a matrix could not be factorized.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// The RCM envelope would exceed [`CholOptions::max_profile_entries`].
    /// Direct solves beyond this size stream more memory per step than CG.
    ProfileTooLarge {
        /// Envelope entries the factor would need.
        required: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A pivot was not strictly positive: the matrix is not numerically
    /// positive definite (up to the `1e-12`-scaled tolerance used).
    NotPositiveDefinite {
        /// Row (in the reordered numbering) where factorization broke down.
        row: usize,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::ProfileTooLarge { required, budget } => write!(
                f,
                "factor envelope needs {required} entries, over the budget of {budget}"
            ),
            FactorError::NotPositiveDefinite { row } => {
                write!(f, "matrix is not positive definite (pivot at row {row})")
            }
        }
    }
}

/// Tunables for [`CholeskyFactor::factor`].
#[derive(Debug, Clone, Copy)]
pub struct CholOptions {
    /// Absolute envelope budget in stored entries (8 bytes each); bounds the
    /// factor's memory footprint. Default 4 M entries (32 MB).
    pub max_profile_entries: usize,
    /// Relative envelope budget: entries per matrix row. This is the
    /// direct-vs-CG *performance* crossover — each direct solve streams the
    /// whole envelope twice, while a warm-started CG step touches roughly
    /// `iterations × (nnz + 6n)` values, about 90 per row on the RC networks
    /// this crate builds (≈7 iterations × 13 entries — see DESIGN.md,
    /// "Solver strategy"). The default of 48 accepts the factorization only
    /// where two sweeps cost less than that; wide-envelope grids are
    /// rejected so the caller falls back to CG.
    pub max_profile_per_node: usize,
}

impl Default for CholOptions {
    fn default() -> Self {
        Self {
            max_profile_entries: 4_000_000,
            max_profile_per_node: 48,
        }
    }
}

impl CholOptions {
    /// Options with no profile limits: factor anything positive definite
    /// (validation and tests; production callers should keep the budgets).
    pub fn unbounded() -> Self {
        Self {
            max_profile_entries: usize::MAX,
            max_profile_per_node: usize::MAX,
        }
    }

    /// The effective entry budget for an `n`-row matrix.
    pub fn budget_for(&self, n: usize) -> usize {
        self.max_profile_entries
            .min(self.max_profile_per_node.saturating_mul(n))
    }
}

/// A Cholesky factorization `P A Pᵀ = L Lᵀ` in skyline storage.
///
/// Row `i` of `L` stores the contiguous run `first[i] ..= i`; solving
/// `A x = b` is a forward and a backward sweep over that envelope.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    n: usize,
    /// `perm[new] = old` — the RCM ordering.
    perm: Vec<u32>,
    /// First stored column of each skyline row.
    first: Vec<u32>,
    /// Offset of row `i`'s first entry in `vals`; the diagonal entry is at
    /// `row_start[i + 1] - 1`.
    row_start: Vec<usize>,
    /// Envelope values of `L`, row-major.
    vals: Vec<f64>,
    /// `1 / L[i][i]`, so the sweeps multiply instead of divide.
    inv_diag: Vec<f64>,
    /// Dependency levels of the triangular sweeps, derived once at factor
    /// time from the envelope extents.
    schedule: LevelSchedule,
}

impl CholeskyFactor {
    /// Factors a symmetric positive-definite CSR matrix.
    ///
    /// # Errors
    ///
    /// [`FactorError::ProfileTooLarge`] when the post-RCM envelope exceeds
    /// the budget, [`FactorError::NotPositiveDefinite`] when a pivot fails.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn factor(a: &CsrMatrix, opts: &CholOptions) -> Result<Self, FactorError> {
        let n = a.n();
        assert!(n > 0, "cannot factor an empty matrix");
        let _span = hotgauge_telemetry::span!("thermal.factor");
        let perm = rcm_order(a);
        let mut iperm = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old as usize] = new as u32;
        }

        // Envelope extents in the new ordering: row i spans from its
        // leftmost (reordered) neighbor to the diagonal.
        let mut first: Vec<u32> = (0..n as u32).collect();
        for old in 0..n {
            let ni = iperm[old] as usize;
            let (cols, _) = a.row(old);
            for &j in cols {
                let nj = iperm[j];
                if nj < first[ni] {
                    first[ni] = nj;
                }
                // Symmetry: the transposed entry widens row nj when ni < nj.
                let nj = nj as usize;
                if (ni as u32) < first[nj] {
                    first[nj] = ni as u32;
                }
            }
        }

        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0usize);
        for i in 0..n {
            let width = i + 1 - first[i] as usize;
            row_start.push(row_start[i] + width);
        }
        let required = row_start[n];
        let budget = opts.budget_for(n);
        if required > budget {
            return Err(FactorError::ProfileTooLarge { required, budget });
        }

        // Scatter the (permuted) lower triangle of A into the envelope.
        let mut vals = vec![0.0f64; required];
        for old in 0..n {
            let ni = iperm[old] as usize;
            let (cols, avals) = a.row(old);
            for (&j, &v) in cols.iter().zip(avals) {
                let nj = iperm[j] as usize;
                if nj <= ni {
                    vals[row_start[ni] + nj - first[ni] as usize] = v;
                } else {
                    vals[row_start[nj] + ni - first[nj] as usize] = v;
                }
            }
        }

        // In-place skyline factorization. For each row i and column j < i:
        //   L[i][j] = (A[i][j] − Σₖ L[i][k]·L[j][k]) / L[j][j]
        // with k ranging over the overlap of the two envelopes — a dot of
        // two contiguous slices, which the compiler vectorizes.
        let mut inv_diag = vec![0.0f64; n];
        let scale = max_diag(a);
        for i in 0..n {
            let fi = first[i] as usize;
            let (done, row_i) = vals.split_at_mut(row_start[i]);
            let row_i = &mut row_i[..i + 1 - fi];
            for j in fi..i {
                let fj = first[j] as usize;
                let lo = fi.max(fj);
                let row_j = &done[row_start[j]..row_start[j + 1]];
                let s: f64 = row_i[lo - fi..j - fi]
                    .iter()
                    .zip(&row_j[lo - fj..j - fj])
                    .map(|(a, b)| a * b)
                    .sum();
                row_i[j - fi] = (row_i[j - fi] - s) * inv_diag[j];
            }
            let sq: f64 = row_i[..i - fi].iter().map(|v| v * v).sum();
            let d = row_i[i - fi] - sq;
            // NaN-safe pivot guard: reject non-finite as well as tiny pivots.
            if d.is_nan() || d <= scale * 1e-12 {
                return Err(FactorError::NotPositiveDefinite { row: i });
            }
            let l = d.sqrt();
            row_i[i - fi] = l;
            inv_diag[i] = 1.0 / l;
        }

        let schedule = LevelSchedule::build(&first);
        hotgauge_telemetry::counter!("solver.levels", schedule.levels());
        hotgauge_telemetry::counter!("solver.level_rows", schedule.scheduled_rows());
        Ok(Self {
            n,
            perm,
            first,
            row_start,
            vals,
            inv_diag,
            schedule,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored envelope entries (the per-solve memory footprint in 8-byte
    /// units).
    pub fn profile_entries(&self) -> usize {
        self.vals.len()
    }

    /// The factor-time dependency-level schedule of the triangular sweeps.
    pub fn schedule(&self) -> &LevelSchedule {
        &self.schedule
    }

    /// First stored column of each skyline row (in the RCM ordering): row
    /// `i` of `L` covers `envelope_first()[i] ..= i`. Exposed so tests can
    /// check the level schedule's dependency invariant from outside.
    pub fn envelope_first(&self) -> &[u32] {
        &self.first
    }

    /// Solves `A x = b` via the two triangular sweeps. `work` is caller
    /// scratch of length `n` so repeated solves allocate nothing.
    /// Equivalent to [`CholeskyFactor::solve_with_threads`] at one thread.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn solve(&self, b: &[f64], x: &mut [f64], work: &mut [f64]) {
        self.solve_with_threads(b, x, work, 1);
    }

    /// [`CholeskyFactor::solve`] with a thread budget for the
    /// level-scheduled sweeps: rows within a dependency level are sharded
    /// across scoped threads, each row replaying its exact serial operation
    /// sequence on an exclusive `work` span, so the result is bitwise equal
    /// to the serial sweeps at every budget. Stands down to serial when
    /// `threads <= 1` or the schedule is too shallow
    /// ([`LevelSchedule::parallel_worthwhile`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn solve_with_threads(&self, b: &[f64], x: &mut [f64], work: &mut [f64], threads: usize) {
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        assert_eq!(work.len(), n);
        let _span = hotgauge_telemetry::span!("thermal.direct_solve");

        // Permute b into the RCM ordering.
        for (i, w) in work.iter_mut().enumerate() {
            *w = b[self.perm[i] as usize];
        }
        {
            let _sweep = hotgauge_telemetry::span!("solver.tri_sweep");
            if self.use_levels(threads) {
                let sched = &self.schedule;
                // Forward sweep, level by level.
                for l in 0..sched.levels() {
                    self.run_level(sched.level_rows(l), work, threads, 1, &|i, base, w| {
                        self.fwd_row(i, base, w)
                    });
                }
                // Backward sweep: deepest level first replays the serial
                // descending-row update order for every element.
                for l in (0..sched.levels()).rev() {
                    self.run_level(sched.level_rows(l), work, threads, 1, &|i, base, w| {
                        self.bwd_row(i, base, w)
                    });
                }
            } else {
                // Forward sweep: L y = Pb. Each row is a contiguous dot.
                for i in 0..n {
                    self.fwd_row(i, 0, work);
                }
                // Backward sweep: Lᵀ z = y, as per-row axpy updates.
                for i in (0..n).rev() {
                    self.bwd_row(i, 0, work);
                }
            }
        }
        // Un-permute into x.
        for (i, &w) in work.iter().enumerate() {
            x[self.perm[i] as usize] = w;
        }
    }

    /// Solves `k` systems `A xₗ = bₗ` in one pair of blocked triangular
    /// sweeps over node-major, lane-minor `[n × k]` blocks
    /// (`b[node * k + lane]`). The envelope — the factor's entire memory
    /// footprint — is streamed **once** for all `k` right-hand sides, and
    /// the inner lane loops run over contiguous slices, so the per-solve
    /// cost amortizes to `1/k` of the index/value traffic of `k` solo
    /// sweeps. Equivalent to [`CholeskyFactor::solve_multi_with_threads`]
    /// at one thread.
    ///
    /// Per lane, the floating-point operation sequence (permute, ascending
    /// forward dots, descending backward axpys, un-permute) is identical to
    /// [`CholeskyFactor::solve`], so each lane's column of `x` is bitwise
    /// equal to a solo solve of that lane.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > MAX_LOCKSTEP_WIDTH` (see
    /// [`crate::solver::MAX_LOCKSTEP_WIDTH`]), or on length mismatches
    /// (`b`, `x`, `work` must all be `n * k`).
    pub fn solve_multi(&self, k: usize, b: &[f64], x: &mut [f64], work: &mut [f64]) {
        self.solve_multi_with_threads(k, b, x, work, 1);
    }

    /// [`CholeskyFactor::solve_multi`] with a thread budget for the
    /// level-scheduled sweeps (same plan and bitwise guarantee as
    /// [`CholeskyFactor::solve_with_threads`], applied to the K-wide
    /// lockstep block).
    ///
    /// # Panics
    ///
    /// As [`CholeskyFactor::solve_multi`].
    pub fn solve_multi_with_threads(
        &self,
        k: usize,
        b: &[f64],
        x: &mut [f64],
        work: &mut [f64],
        threads: usize,
    ) {
        use crate::solver::MAX_LOCKSTEP_WIDTH;
        let n = self.n;
        assert!((1..=MAX_LOCKSTEP_WIDTH).contains(&k));
        assert_eq!(b.len(), n * k);
        assert_eq!(x.len(), n * k);
        assert_eq!(work.len(), n * k);
        let _span = hotgauge_telemetry::span!("thermal.direct_solve");

        // Permute b into the RCM ordering, all lanes at once.
        for (i, wrow) in work.chunks_exact_mut(k).enumerate() {
            let brow = &b[self.perm[i] as usize * k..self.perm[i] as usize * k + k];
            wrow.copy_from_slice(brow);
        }
        {
            let _sweep = hotgauge_telemetry::span!("solver.tri_sweep");
            // Monomorphized sweeps for the power-of-two widths the lockstep
            // batcher produces: a compile-time lane count turns the inner
            // lane loops into straight vector code. The per-lane operation
            // order is identical at every width, specialized or not.
            match k {
                1 => self.multi_sweeps_k::<1>(work, threads),
                2 => self.multi_sweeps_k::<2>(work, threads),
                4 => self.multi_sweeps_k::<4>(work, threads),
                8 => self.multi_sweeps_k::<8>(work, threads),
                16 => self.multi_sweeps_k::<16>(work, threads),
                _ => self.multi_sweeps_any(k, work, threads),
            }
        }
        // Un-permute into x.
        for (i, wrow) in work.chunks_exact(k).enumerate() {
            let xrow = &mut x[self.perm[i] as usize * k..self.perm[i] as usize * k + k];
            xrow.copy_from_slice(wrow);
        }
    }

    /// Whether the level-parallel sweeps should run for this thread budget.
    fn use_levels(&self, threads: usize) -> bool {
        threads > 1 && self.schedule.parallel_worthwhile()
    }

    /// Forward-substitution op of row `i` on a work slice whose element 0
    /// is node `base`: a contiguous dot over the envelope row. The
    /// operation sequence is independent of `base`.
    #[inline]
    fn fwd_row(&self, i: usize, base: usize, w: &mut [f64]) {
        let fi = self.first[i] as usize;
        let row = &self.vals[self.row_start[i]..self.row_start[i + 1]];
        let s: f64 = row[..i - fi]
            .iter()
            .zip(&w[fi - base..i - base])
            .map(|(l, wv)| l * wv)
            .sum();
        w[i - base] = (w[i - base] - s) * self.inv_diag[i];
    }

    /// Backward-substitution op of row `i`: scale the diagonal element,
    /// then axpy the envelope row into `w[first[i]..i]`.
    #[inline]
    fn bwd_row(&self, i: usize, base: usize, w: &mut [f64]) {
        let fi = self.first[i] as usize;
        let row = &self.vals[self.row_start[i]..self.row_start[i + 1]];
        let zi = w[i - base] * self.inv_diag[i];
        w[i - base] = zi;
        for (wv, &l) in w[fi - base..i - base].iter_mut().zip(row) {
            *wv -= l * zi;
        }
    }

    /// [`CholeskyFactor::fwd_row`] for `K` lockstep lanes over a node-major
    /// lane-minor slice (accumulators on the stack, lane loops unrolled at
    /// compile time).
    #[inline]
    fn fwd_row_k<const K: usize>(&self, i: usize, base: usize, w: &mut [f64]) {
        let fi = self.first[i] as usize;
        let row = &self.vals[self.row_start[i]..self.row_start[i + 1]];
        let mut s = [0.0f64; K];
        for (j, &l) in (fi..i).zip(row) {
            let wrow = &w[(j - base) * K..(j - base) * K + K];
            for (acc, &wv) in s.iter_mut().zip(wrow) {
                *acc += l * wv;
            }
        }
        let di = self.inv_diag[i];
        let wrow = &mut w[(i - base) * K..(i - base) * K + K];
        for (wv, &acc) in wrow.iter_mut().zip(s.iter()) {
            *wv = (*wv - acc) * di;
        }
    }

    /// [`CholeskyFactor::bwd_row`] for `K` lockstep lanes: per-row rank-1
    /// lane-block update.
    #[inline]
    fn bwd_row_k<const K: usize>(&self, i: usize, base: usize, w: &mut [f64]) {
        let fi = self.first[i] as usize;
        let row = &self.vals[self.row_start[i]..self.row_start[i + 1]];
        let di = self.inv_diag[i];
        let mut z = [0.0f64; K];
        {
            let wrow = &mut w[(i - base) * K..(i - base) * K + K];
            for (zi, wv) in z.iter_mut().zip(wrow.iter_mut()) {
                *zi = *wv * di;
                *wv = *zi;
            }
        }
        for (j, &l) in (fi..i).zip(row) {
            let wrow = &mut w[(j - base) * K..(j - base) * K + K];
            for (wv, &zi) in wrow.iter_mut().zip(z.iter()) {
                *wv -= l * zi;
            }
        }
    }

    /// Runtime-width variant of [`CholeskyFactor::fwd_row_k`] for the odd
    /// lane counts (straggler batches) the monomorphized dispatch skips.
    #[inline]
    fn fwd_row_any(&self, k: usize, i: usize, base: usize, w: &mut [f64]) {
        use crate::solver::MAX_LOCKSTEP_WIDTH;
        let fi = self.first[i] as usize;
        let row = &self.vals[self.row_start[i]..self.row_start[i + 1]];
        let mut s = [0.0f64; MAX_LOCKSTEP_WIDTH];
        let sl = &mut s[..k];
        for (j, &l) in (fi..i).zip(row) {
            let wrow = &w[(j - base) * k..(j - base) * k + k];
            for (acc, &wv) in sl.iter_mut().zip(wrow) {
                *acc += l * wv;
            }
        }
        let di = self.inv_diag[i];
        let wrow = &mut w[(i - base) * k..(i - base) * k + k];
        for (wv, &acc) in wrow.iter_mut().zip(sl.iter()) {
            *wv = (*wv - acc) * di;
        }
    }

    /// Runtime-width variant of [`CholeskyFactor::bwd_row_k`].
    #[inline]
    fn bwd_row_any(&self, k: usize, i: usize, base: usize, w: &mut [f64]) {
        use crate::solver::MAX_LOCKSTEP_WIDTH;
        let fi = self.first[i] as usize;
        let row = &self.vals[self.row_start[i]..self.row_start[i + 1]];
        let di = self.inv_diag[i];
        let mut z = [0.0f64; MAX_LOCKSTEP_WIDTH];
        let zl = &mut z[..k];
        {
            let wrow = &mut w[(i - base) * k..(i - base) * k + k];
            for (zi, wv) in zl.iter_mut().zip(wrow.iter_mut()) {
                *zi = *wv * di;
                *wv = *zi;
            }
        }
        for (j, &l) in (fi..i).zip(row) {
            let wrow = &mut w[(j - base) * k..(j - base) * k + k];
            for (wv, &zi) in wrow.iter_mut().zip(zl.iter()) {
                *wv -= l * zi;
            }
        }
    }

    /// Both multi-RHS sweeps at compile-time width `K`, level-scheduled
    /// when the budget and schedule allow.
    fn multi_sweeps_k<const K: usize>(&self, work: &mut [f64], threads: usize) {
        if self.use_levels(threads) {
            let sched = &self.schedule;
            for l in 0..sched.levels() {
                self.run_level(sched.level_rows(l), work, threads, K, &|i, base, w| {
                    self.fwd_row_k::<K>(i, base, w)
                });
            }
            for l in (0..sched.levels()).rev() {
                self.run_level(sched.level_rows(l), work, threads, K, &|i, base, w| {
                    self.bwd_row_k::<K>(i, base, w)
                });
            }
        } else {
            for i in 0..self.n {
                self.fwd_row_k::<K>(i, 0, work);
            }
            for i in (0..self.n).rev() {
                self.bwd_row_k::<K>(i, 0, work);
            }
        }
    }

    /// Both multi-RHS sweeps at runtime width `k`.
    fn multi_sweeps_any(&self, k: usize, work: &mut [f64], threads: usize) {
        if self.use_levels(threads) {
            let sched = &self.schedule;
            for l in 0..sched.levels() {
                self.run_level(sched.level_rows(l), work, threads, k, &|i, base, w| {
                    self.fwd_row_any(k, i, base, w)
                });
            }
            for l in (0..sched.levels()).rev() {
                self.run_level(sched.level_rows(l), work, threads, k, &|i, base, w| {
                    self.bwd_row_any(k, i, base, w)
                });
            }
        } else {
            for i in 0..self.n {
                self.fwd_row_any(k, i, 0, work);
            }
            for i in (0..self.n).rev() {
                self.bwd_row_any(k, i, 0, work);
            }
        }
    }

    /// Executes one dependency level: rows split into near-equal contiguous
    /// runs, each run owning the exclusive `work` span its rows touch
    /// (disjoint by the level invariant — see [`LevelSchedule`]), with
    /// narrow levels running inline on the calling thread. `stride` is the
    /// lane count (elements per node) of `work`.
    fn run_level<F>(
        &self,
        rows: &[u32],
        work: &mut [f64],
        threads: usize,
        stride: usize,
        row_op: &F,
    ) where
        F: Fn(usize, usize, &mut [f64]) + Sync,
    {
        let m = rows.len();
        let shards = threads
            .min(MAX_SOLVE_SHARDS)
            .min(m / LEVEL_SHARD_MIN_ROWS)
            .max(1);
        if shards <= 1 {
            for &i in rows {
                row_op(i as usize, 0, work);
            }
            return;
        }
        // Same-level rows have ascending, pairwise disjoint envelope
        // intervals `[first[i], i]`, so consecutive runs split `work` into
        // non-overlapping spans; the gaps between spans belong to rows of
        // other levels and are not touched here.
        let chunk = m.div_ceil(shards);
        std::thread::scope(|scope| {
            let mut rest: &mut [f64] = work;
            let mut consumed = 0usize; // node index where `rest` begins
            for run in rows.chunks(chunk) {
                let base = self.first[run[0] as usize] as usize;
                let end = run[run.len() - 1] as usize + 1;
                let (_, tail) = rest.split_at_mut((base - consumed) * stride);
                let (span, tail) = tail.split_at_mut((end - base) * stride);
                rest = tail;
                consumed = end;
                scope.spawn(move || {
                    for &i in run {
                        row_op(i as usize, base, span);
                    }
                });
            }
        });
    }

    /// [`CholeskyFactor::solve`] allocating its own scratch (convenience
    /// for one-off solves and tests).
    pub fn solve_alloc(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        let mut work = vec![0.0; self.n];
        self.solve(b, &mut x, &mut work);
        x
    }
}

/// Largest diagonal entry, used to scale the positive-pivot tolerance.
fn max_diag(a: &CsrMatrix) -> f64 {
    a.diagonal().into_iter().fold(0.0f64, f64::max)
}

/// Reverse Cuthill–McKee ordering: BFS from a pseudo-peripheral vertex,
/// visiting neighbors by increasing degree, then reversed. Returns
/// `perm[new] = old`.
fn rcm_order(a: &CsrMatrix) -> Vec<u32> {
    let n = a.n();
    let degree = |i: usize| a.row(i).0.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut neighbors: Vec<u32> = Vec::new();

    // The graph is connected for real thermal stacks, but handle multiple
    // components (e.g. test matrices) by restarting the BFS.
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let root = pseudo_peripheral(a, seed);
        let level_start = order.len();
        visited[root] = true;
        order.push(root as u32);
        let mut head = level_start;
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            neighbors.clear();
            for &j in a.row(v).0 {
                if j != v && !visited[j] {
                    visited[j] = true;
                    neighbors.push(j as u32);
                }
            }
            neighbors.sort_unstable_by_key(|&j| degree(j as usize));
            order.extend_from_slice(&neighbors);
        }
    }
    order.reverse();
    order
}

/// George–Liu pseudo-peripheral vertex: repeat BFS from the far end of the
/// previous sweep while the eccentricity keeps growing.
fn pseudo_peripheral(a: &CsrMatrix, seed: usize) -> usize {
    let n = a.n();
    let mut root = seed;
    let mut depth_prev = 0usize;
    let mut level = vec![u32::MAX; n];
    let mut queue: Vec<u32> = Vec::new();
    for _ in 0..8 {
        level.iter_mut().for_each(|l| *l = u32::MAX);
        queue.clear();
        queue.push(root as u32);
        level[root] = 0;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            for &j in a.row(v).0 {
                if j != v && level[j] == u32::MAX {
                    level[j] = level[v] + 1;
                    queue.push(j as u32);
                }
            }
        }
        #[expect(
            clippy::unwrap_used,
            reason = "the BFS queue is seeded with the root before the loop, so it is never empty here"
        )]
        let depth = level[*queue.last().unwrap() as usize] as usize;
        if depth <= depth_prev {
            break;
        }
        depth_prev = depth;
        // Smallest-degree vertex of the deepest level.
        root = queue
            .iter()
            .rev()
            .take_while(|&&v| level[v as usize] as usize == depth)
            .map(|&v| v as usize)
            .min_by_key(|&v| a.row(v).0.len())
            .unwrap_or(root);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn poisson(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n);
        for i in 0..n - 1 {
            b.add_conductance(i, i + 1, 1.0);
        }
        b.add_grounded_conductance(0, 1.0);
        b.add_grounded_conductance(n - 1, 1.0);
        b.build()
    }

    /// A 3-D grid Laplacian like the thermal model's, with a grounded top.
    fn grid3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let node = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut b = TripletBuilder::new(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = node(x, y, z);
                    if x + 1 < nx {
                        b.add_conductance(i, node(x + 1, y, z), 1.0 + (i % 5) as f64 * 0.1);
                    }
                    if y + 1 < ny {
                        b.add_conductance(i, node(x, y + 1, z), 1.5);
                    }
                    if z + 1 < nz {
                        b.add_conductance(i, node(x, y, z + 1), 4.0);
                    } else {
                        b.add_grounded_conductance(i, 2.0);
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn factors_and_solves_poisson_exactly() {
        let a = poisson(50);
        let f = CholeskyFactor::factor(&a, &CholOptions::default()).unwrap();
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).cos() * 3.0).collect();
        let b = a.mul_vec_alloc(&x_true);
        let x = f.solve_alloc(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn solves_grid_system_to_machine_precision() {
        let a = grid3d(9, 7, 4);
        let n = a.n();
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded()).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let b = a.mul_vec_alloc(&x_true);
        let x = f.solve_alloc(&b);
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-9, "error {err}");
    }

    #[test]
    fn solve_is_reusable_across_rhs() {
        let a = grid3d(6, 6, 3);
        let f = CholeskyFactor::factor(&a, &CholOptions::default()).unwrap();
        let mut work = vec![0.0; a.n()];
        let mut x = vec![0.0; a.n()];
        for seed in 0..4u64 {
            let b: Vec<f64> = (0..a.n())
                .map(|i| ((i as u64).wrapping_mul(seed + 1) % 13) as f64)
                .collect();
            f.solve(&b, &mut x, &mut work);
            let r = a.mul_vec_alloc(&x);
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        // A pure Laplacian without grounding is only semi-definite.
        let mut b = TripletBuilder::new(4);
        for i in 0..3 {
            b.add_conductance(i, i + 1, 1.0);
        }
        let a = b.build();
        match CholeskyFactor::factor(&a, &CholOptions::default()) {
            Err(FactorError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected indefinite rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_profile() {
        let a = grid3d(12, 12, 4);
        let opts = CholOptions {
            max_profile_entries: 100,
            max_profile_per_node: usize::MAX,
        };
        match CholeskyFactor::factor(&a, &opts) {
            Err(FactorError::ProfileTooLarge { required, budget }) => {
                assert!(required > budget);
                assert_eq!(budget, 100);
            }
            other => panic!("expected profile rejection, got {other:?}"),
        }
    }

    #[test]
    fn per_node_budget_rejects_wide_envelopes() {
        // A 3-D grid whose RCM envelope is far wider than 2 entries/row.
        let a = grid3d(12, 12, 4);
        let opts = CholOptions {
            max_profile_entries: usize::MAX,
            max_profile_per_node: 2,
        };
        match CholeskyFactor::factor(&a, &opts) {
            Err(FactorError::ProfileTooLarge { required, budget }) => {
                assert_eq!(budget, 2 * a.n());
                assert!(required > budget);
            }
            other => panic!("expected profile rejection, got {other:?}"),
        }
        // A tridiagonal chain fits in 2 entries/row even after RCM.
        let p = poisson(64);
        assert!(CholeskyFactor::factor(&p, &opts).is_ok());
    }

    #[test]
    fn rcm_is_a_permutation_and_shrinks_the_profile() {
        let a = grid3d(10, 8, 5);
        let perm = rcm_order(&a);
        let mut seen = vec![false; a.n()];
        for &p in &perm {
            assert!(!seen[p as usize], "duplicate {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // The RCM envelope must not exceed the worst natural-order
        // bandwidth times n (it is far smaller for this grid).
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded()).unwrap();
        assert!(f.profile_entries() < a.n() * 10 * 8);
    }

    #[test]
    fn handles_disconnected_components() {
        let mut b = TripletBuilder::new(6);
        b.add_conductance(0, 1, 1.0);
        b.add_grounded_conductance(0, 1.0);
        b.add_conductance(3, 4, 2.0);
        b.add_grounded_conductance(3, 1.0);
        b.add_grounded_conductance(2, 5.0);
        b.add_grounded_conductance(5, 5.0);
        b.add_grounded_conductance(1, 0.5);
        b.add_grounded_conductance(4, 0.5);
        let a = b.build();
        let f = CholeskyFactor::factor(&a, &CholOptions::default()).unwrap();
        let x_true = vec![1.0, -1.0, 2.0, 0.5, 3.0, -2.0];
        let b = a.mul_vec_alloc(&x_true);
        let x = f.solve_alloc(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_multi_is_bitwise_equal_per_lane() {
        let mut a = grid3d(7, 6, 4);
        let cdt: Vec<f64> = (0..a.n()).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        a.add_to_diagonal(&cdt);
        let n = a.n();
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded()).unwrap();
        // Odd widths take the runtime-k sweep, the rest the monomorphized
        // dispatch; both must match solo solves bitwise.
        for k in [1usize, 2, 3, 4, 5, 8, 16] {
            let lanes: Vec<Vec<f64>> = (0..k)
                .map(|l| {
                    (0..n)
                        .map(|i| (((i * 17 + l * 5) % 31) as f64) - 15.0)
                        .collect()
                })
                .collect();
            let mut b = vec![0.0; n * k];
            for (l, lane) in lanes.iter().enumerate() {
                for i in 0..n {
                    b[i * k + l] = lane[i];
                }
            }
            let mut x = vec![f64::NAN; n * k];
            let mut work = vec![0.0; n * k];
            f.solve_multi(k, &b, &mut x, &mut work);
            for (l, lane) in lanes.iter().enumerate() {
                let solo = f.solve_alloc(lane);
                for i in 0..n {
                    assert_eq!(
                        x[i * k + l].to_bits(),
                        solo[i].to_bits(),
                        "k={k} lane={l} node={i}"
                    );
                }
            }
        }
    }

    /// `count` disconnected grounded chains of `len` nodes each — a
    /// block-diagonal system whose level schedule is `len` levels of width
    /// `count`, wide enough to engage the sharded sweeps.
    fn chains(count: usize, len: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(count * len);
        for c in 0..count {
            let base = c * len;
            for i in 0..len - 1 {
                b.add_conductance(base + i, base + i + 1, 1.0 + (c % 3) as f64 * 0.25);
            }
            b.add_grounded_conductance(base, 1.0);
            b.add_grounded_conductance(base + len - 1, 0.5);
        }
        b.build()
    }

    #[test]
    fn level_schedule_invariant_holds() {
        for a in [grid3d(7, 6, 4), chains(40, 5), poisson(64)] {
            let f = CholeskyFactor::factor(&a, &CholOptions::unbounded()).unwrap();
            let s = f.schedule();
            assert_eq!(s.scheduled_rows(), a.n());
            let mut level = vec![usize::MAX; a.n()];
            for l in 0..s.levels() {
                let rows = s.level_rows(l);
                assert!(!rows.is_empty(), "empty level {l}");
                for w in rows.windows(2) {
                    assert!(w[0] < w[1], "rows not ascending within level");
                    // Same-level envelopes must be pairwise disjoint — this
                    // is what lets run_level split `work` into exclusive
                    // spans.
                    assert!(
                        f.first[w[1] as usize] > w[0],
                        "same-level envelopes overlap: rows {} and {}",
                        w[0],
                        w[1]
                    );
                }
                for &r in rows {
                    level[r as usize] = l;
                }
            }
            // Every in-envelope predecessor sits in a strictly earlier level.
            for i in 0..a.n() {
                for j in f.first[i] as usize..i {
                    assert!(
                        level[j] < level[i],
                        "row {i} (level {}) depends on row {j} (level {})",
                        level[i],
                        level[j]
                    );
                }
            }
        }
    }

    #[test]
    fn connected_grid_schedule_degenerates_to_a_chain() {
        // On a connected RCM-ordered grid every row's envelope reaches its
        // immediate predecessor, so the schedule is one row per level and
        // the parallel path must stand down.
        let a = grid3d(9, 7, 4);
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded()).unwrap();
        let s = f.schedule();
        assert_eq!(s.levels(), a.n());
        assert_eq!(s.max_level_width(), 1);
        assert!(!s.parallel_worthwhile());
    }

    #[test]
    fn threaded_solve_is_bitwise_equal_to_serial() {
        let mut a = chains(2500, 4);
        let cdt: Vec<f64> = (0..a.n()).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        a.add_to_diagonal(&cdt);
        let n = a.n();
        let f = CholeskyFactor::factor(&a, &CholOptions::default()).unwrap();
        let s = f.schedule();
        assert!(s.parallel_worthwhile(), "avg {}", s.avg_rows_per_level());
        assert!(
            s.max_level_width() >= 2 * LEVEL_SHARD_MIN_ROWS,
            "width {} too narrow to spawn shards",
            s.max_level_width()
        );
        let b: Vec<f64> = (0..n).map(|i| (((i * 13) % 37) as f64) - 18.0).collect();
        let serial = f.solve_alloc(&b);
        let mut x = vec![f64::NAN; n];
        let mut work = vec![0.0; n];
        for threads in [2usize, 4, 16] {
            f.solve_with_threads(&b, &mut x, &mut work, threads);
            for i in 0..n {
                assert_eq!(
                    x[i].to_bits(),
                    serial[i].to_bits(),
                    "threads={threads} node={i}"
                );
            }
        }
    }

    #[test]
    fn threaded_solve_multi_is_bitwise_equal_to_serial() {
        let mut a = chains(2500, 4);
        let cdt: Vec<f64> = (0..a.n()).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        a.add_to_diagonal(&cdt);
        let n = a.n();
        let f = CholeskyFactor::factor(&a, &CholOptions::default()).unwrap();
        for k in [1usize, 2, 3, 8] {
            let b: Vec<f64> = (0..n * k)
                .map(|i| (((i * 29) % 41) as f64) - 20.0)
                .collect();
            let mut serial = vec![f64::NAN; n * k];
            let mut work = vec![0.0; n * k];
            f.solve_multi(k, &b, &mut serial, &mut work);
            let mut x = vec![f64::NAN; n * k];
            for threads in [2usize, 4] {
                f.solve_multi_with_threads(k, &b, &mut x, &mut work, threads);
                for i in 0..n * k {
                    assert_eq!(
                        x[i].to_bits(),
                        serial[i].to_bits(),
                        "k={k} threads={threads} slot={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_cg_on_backward_euler_system() {
        use crate::solver::{solve_cg, CgConfig};
        let mut a = grid3d(8, 8, 4);
        let cdt: Vec<f64> = (0..a.n()).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        a.add_to_diagonal(&cdt);
        let b: Vec<f64> = (0..a.n()).map(|i| ((i % 11) as f64) - 5.0).collect();
        let f = CholeskyFactor::factor(&a, &CholOptions::unbounded()).unwrap();
        let direct = f.solve_alloc(&b);
        let mut cg = vec![0.0; a.n()];
        let stats = solve_cg(
            &a,
            &b,
            &mut cg,
            &CgConfig {
                tolerance: 1e-12,
                max_iterations: 50_000,
            },
        );
        assert!(stats.converged);
        for (d, c) in direct.iter().zip(&cg) {
            assert!((d - c).abs() < 1e-7, "{d} vs {c}");
        }
    }
}
