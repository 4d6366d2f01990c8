//! Finite-volume RC-network assembly and the transient/steady solvers —
//! the Rust equivalent of 3D-ICE's compact transient thermal model.
//!
//! Discretization: each layer is divided vertically into sublayers and
//! in-plane into square cells. Every cell is a node of a thermal RC network:
//!
//! * lateral conductance between in-plane neighbors uses the series
//!   (harmonic-mean) combination of the two half-cells,
//! * vertical conductance between stacked cells combines the two half
//!   thicknesses in series,
//! * the top of the last layer sees a convective film conductance
//!   `h · A_cell` to the ambient (the heatsink fins + fan),
//! * every other boundary is adiabatic (as in 3D-ICE's default).
//!
//! The transient problem `C dT/dt = −G T + q` is integrated with backward
//! Euler, giving the SPD system `(C/Δt + G) T' = C/Δt·T + q`. Because the
//! system matrix is constant for a fixed `Δt`, the solve is dispatched
//! through a [`SolverStrategy`]: a factor-once sparse Cholesky
//! ([`crate::chol`]) that reduces each step to two triangular sweeps, or
//! warm-started preconditioned CG ([`crate::solver`]). The direct path
//! automatically falls back to CG when the factorization rejects the matrix
//! (envelope over budget — see DESIGN.md, "Solver strategy").
//!
//! Both `G` and every `C/Δt + G` are held as a [`Stencil7`]: the network is
//! a 7-point stencil on the `nx × ny × levels` grid. The assembly still goes
//! through CSR triplets, which fixes the bits of every summed diagonal, and
//! is converted once; a CSR copy is rebuilt only as the Cholesky input.

use std::sync::Arc;

use crate::chol::{CholOptions, CholeskyFactor};
use crate::frame::ThermalFrame;
use crate::solver::{
    solve_cg, solve_cg_multi, solve_cg_with, CgConfig, CgWorkspace, MultiCgWorkspace, SolveStats,
    SpdOperator, MAX_LOCKSTEP_WIDTH,
};
use crate::sparse::TripletBuilder;
use crate::stack::StackDescription;
use crate::stencil::Stencil7;
use serde::{Deserialize, Serialize};

/// Which linear solver [`ThermalSim::step`] uses for the constant
/// backward-Euler system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverStrategy {
    /// Factor `C/Δt + G` once (RCM + skyline Cholesky), then two triangular
    /// sweeps per step. Falls back to [`SolverStrategy::Cg`] when the
    /// factorization rejects the matrix (profile over budget / not SPD).
    #[default]
    DirectCholesky,
    /// Warm-started Jacobi-preconditioned conjugate gradients.
    Cg,
}

impl SolverStrategy {
    /// The CLI spelling of this strategy (`direct` / `cg`).
    pub fn as_str(self) -> &'static str {
        match self {
            SolverStrategy::DirectCholesky => "direct",
            SolverStrategy::Cg => "cg",
        }
    }
}

impl std::fmt::Display for SolverStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SolverStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "direct" => Ok(SolverStrategy::DirectCholesky),
            "cg" => Ok(SolverStrategy::Cg),
            other => Err(format!("unknown solver '{other}' (expected direct|cg)")),
        }
    }
}

/// Assembled thermal RC network for a [`StackDescription`].
#[derive(Debug, Clone)]
pub struct ThermalModel {
    stack: StackDescription,
    nx: usize,
    ny: usize,
    /// Layer index of each level.
    level_layer: Vec<usize>,
    /// Conductance matrix G (includes the convective diagonal term).
    g: Stencil7,
    /// Heat capacity per node, J/K.
    cap: Vec<f64>,
    /// Grounded (ambient) conductance per node, W/K — nonzero on top level.
    conv: Vec<f64>,
    /// Level index of the active (heat-injection) layer = 0.
    active_level: usize,
}

impl ThermalModel {
    /// Assembles the RC network.
    ///
    /// # Panics
    ///
    /// Panics if the stack fails validation.
    pub fn new(stack: StackDescription) -> Self {
        #[expect(
            clippy::panic,
            reason = "stacks come from the StackDescription presets, validated by construction; a failure is a preset bug, not user input"
        )]
        stack
            .validate()
            .unwrap_or_else(|e| panic!("invalid stack: {e}"));
        let nx = stack.nx();
        let ny = stack.ny();
        let levels = stack.levels();
        let n = nx * ny * levels;

        // Map level -> (layer index, sublayer thickness).
        let mut level_layer = Vec::with_capacity(levels);
        for (li, layer) in stack.layers.iter().enumerate() {
            for _ in 0..layer.sublayers {
                level_layer.push(li);
            }
        }

        let cell = stack.cell;
        let area = cell * cell;
        let b = stack.border_cells;
        let in_die = |ix: usize, iy: usize| -> bool {
            ix >= b && ix < b + stack.nx_die && iy >= b && iy < b + stack.ny_die
        };
        // Conductivity of the cell at (level, iy, ix), honoring the filler
        // material in border cells of die-confined layers.
        let k_of = |l: usize, iy: usize, ix: usize| -> f64 {
            let layer = &stack.layers[level_layer[l]];
            if layer.full_extent || in_die(ix, iy) {
                layer.material.conductivity
            } else {
                stack.filler.conductivity
            }
        };
        let c_of = |l: usize, iy: usize, ix: usize| -> f64 {
            let layer = &stack.layers[level_layer[l]];
            if layer.full_extent || in_die(ix, iy) {
                layer.material.heat_capacity
            } else {
                stack.filler.heat_capacity
            }
        };
        let thick = |l: usize| -> f64 { stack.layers[level_layer[l]].sublayer_thickness() };
        let node = |l: usize, iy: usize, ix: usize| -> usize { (l * ny + iy) * nx + ix };

        let mut builder = TripletBuilder::new(n);
        let mut cap = vec![0.0f64; n];
        let mut conv = vec![0.0f64; n];

        for l in 0..levels {
            let tz = thick(l);
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = node(l, iy, ix);
                    cap[i] = area * tz * c_of(l, iy, ix);
                    let ki = k_of(l, iy, ix);
                    // Lateral neighbors (+x, +y) — add each edge once.
                    if ix + 1 < nx {
                        let kj = k_of(l, iy, ix + 1);
                        // A = tz*cell, distance = cell; harmonic mean of k.
                        let g = tz * 2.0 * ki * kj / (ki + kj);
                        builder.add_conductance(i, node(l, iy, ix + 1), g);
                    }
                    if iy + 1 < ny {
                        let kj = k_of(l, iy + 1, ix);
                        let g = tz * 2.0 * ki * kj / (ki + kj);
                        builder.add_conductance(i, node(l, iy + 1, ix), g);
                    }
                    // Vertical neighbor (+z).
                    if l + 1 < levels {
                        let kj = k_of(l + 1, iy, ix);
                        let tzj = thick(l + 1);
                        let g = area / (tz / (2.0 * ki) + tzj / (2.0 * kj));
                        builder.add_conductance(i, node(l + 1, iy, ix), g);
                    } else {
                        // Top boundary: convection to ambient.
                        let gc = stack.h_top * area;
                        builder.add_grounded_conductance(i, gc);
                        conv[i] = gc;
                    }
                }
            }
        }

        #[expect(
            clippy::panic,
            reason = "the loops above add exactly the in-grid 7-point edges, each symmetrically; a failure is an assembly bug, not user input"
        )]
        let g = Stencil7::from_csr(&builder.build(), nx, ny, levels)
            .unwrap_or_else(|e| panic!("thermal network is not a 7-point stencil: {e}"));
        Self {
            stack,
            nx,
            ny,
            level_layer,
            g,
            cap,
            conv,
            active_level: 0,
        }
    }

    /// The stack this model was assembled from.
    pub fn stack(&self) -> &StackDescription {
        &self.stack
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.g.n()
    }

    /// Layer index of a given vertical level.
    pub fn layer_of_level(&self, level: usize) -> usize {
        self.level_layer[level]
    }

    /// The conductance matrix (for inspection/testing).
    pub fn conductance(&self) -> &Stencil7 {
        &self.g
    }

    /// Per-node heat capacities, J/K.
    pub fn capacitance(&self) -> &[f64] {
        &self.cap
    }

    /// Node index for `(level, iy, ix)` in full-domain coordinates.
    pub fn node_index(&self, level: usize, iy: usize, ix: usize) -> usize {
        (level * self.ny + iy) * self.nx + ix
    }

    /// Expands a die-region active-layer power map (`nx_die × ny_die`, watts
    /// per cell) into a full-domain per-node heat vector.
    ///
    /// # Panics
    ///
    /// Panics if `die_power.len() != nx_die * ny_die`.
    pub fn inject_die_power(&self, die_power: &[f64]) -> Vec<f64> {
        let mut q = vec![0.0; self.node_count()];
        self.inject_die_power_into(die_power, &mut q);
        q
    }

    /// Allocation-free variant of [`ThermalModel::inject_die_power`]: fills
    /// a caller-owned full-domain buffer (used by the lockstep stepper,
    /// which rebuilds the heat vector once per lane per step).
    ///
    /// # Panics
    ///
    /// Panics if `die_power.len() != nx_die * ny_die` or `q` is not
    /// full-domain sized.
    pub fn inject_die_power_into(&self, die_power: &[f64], q: &mut [f64]) {
        let s = &self.stack;
        assert_eq!(
            die_power.len(),
            s.nx_die * s.ny_die,
            "power map must cover the die grid"
        );
        assert_eq!(q.len(), self.node_count(), "q must be full-domain sized");
        q.fill(0.0);
        let b = s.border_cells;
        for dy in 0..s.ny_die {
            for dx in 0..s.nx_die {
                let i = self.node_index(self.active_level, dy + b, dx + b);
                q[i] = die_power[dy * s.nx_die + dx];
            }
        }
    }

    /// Steady-state temperatures for the given die power map (°C, full
    /// domain). Uses the ambient from the stack description.
    pub fn steady_state(&self, die_power: &[f64], cg: &CgConfig) -> (Vec<f64>, SolveStats) {
        let mut rhs = self.inject_die_power(die_power);
        for (i, r) in rhs.iter_mut().enumerate() {
            *r += self.conv[i] * self.stack.ambient_c;
        }
        let mut t = vec![self.stack.ambient_c; self.node_count()];
        let stats = solve_cg(&self.g, &rhs, &mut t, cg);
        (t, stats)
    }

    /// Extracts the die-region temperatures of the active layer from a
    /// full-domain state vector.
    pub fn die_frame_of(&self, state: &[f64]) -> ThermalFrame {
        self.die_frame_of_with_max(state).0
    }

    /// [`ThermalModel::die_frame_of`] plus the frame's maximum temperature,
    /// folded during extraction (same `fold(NEG_INFINITY, f64::max)` as
    /// [`ThermalFrame::max`]) so callers that need the peak — e.g. the
    /// pipeline's sub-threshold analysis prefilter — avoid a second pass.
    pub fn die_frame_of_with_max(&self, state: &[f64]) -> (ThermalFrame, f64) {
        self.die_frame_of_with_max_into(state, Vec::new())
    }

    /// [`ThermalModel::die_frame_of_with_max`] recycling a retired frame's
    /// storage: `buf` is cleared and refilled in place, so steady-state
    /// extraction (e.g. the pipeline's per-substep frames) allocates
    /// nothing once the buffer pool is primed. The returned frame is
    /// bit-identical to a fresh extraction.
    pub fn die_frame_of_with_max_into(
        &self,
        state: &[f64],
        mut buf: Vec<f64>,
    ) -> (ThermalFrame, f64) {
        let s = &self.stack;
        let b = s.border_cells;
        buf.clear();
        buf.reserve(s.nx_die * s.ny_die);
        let mut max = f64::NEG_INFINITY;
        for dy in 0..s.ny_die {
            for dx in 0..s.nx_die {
                let t = state[self.node_index(self.active_level, dy + b, dx + b)];
                max = max.max(t);
                buf.push(t);
            }
        }
        (ThermalFrame::new(s.nx_die, s.ny_die, s.cell, buf), max)
    }
}

/// The solver state cached alongside the backward-Euler matrix: either a
/// Cholesky factor plus sweep scratch, or a CG workspace.
#[derive(Debug, Clone)]
enum SysSolver {
    Direct {
        factor: Arc<CholeskyFactor>,
        work: Vec<f64>,
    },
    Cg(CgWorkspace),
}

/// Per-`Δt` cache: the assembled system matrix and its prepared solver.
/// The matrix is `Arc`-shared so cloned lockstep lanes (and the lane-shared
/// multi-RHS solve) reference one copy instead of duplicating it per lane.
#[derive(Debug, Clone)]
struct SysCache {
    dt: f64,
    m: Arc<Stencil7>,
    solver: SysSolver,
}

/// A transient thermal simulation: a [`ThermalModel`] plus the evolving
/// temperature state and a cached backward-Euler system matrix with its
/// prepared solver (factorization or CG workspace).
///
/// Everything immutable is shared by a clone: the model, the system matrix
/// and the factor or CG preconditioner sit behind `Arc`s, so cloned
/// lockstep lanes and the idle warm-up hold one copy per geometry. A clone
/// owns only its state vectors and allocates solo CG scratch on its first
/// solo step.
#[derive(Debug, Clone)]
pub struct ThermalSim {
    model: Arc<ThermalModel>,
    /// Current temperatures, °C, full domain.
    t: Vec<f64>,
    /// State one step ago, for the CG path's linear-extrapolation warm
    /// start (valid only when `have_prev`).
    prev: Vec<f64>,
    have_prev: bool,
    /// Cached system for the last `Δt` seen.
    sys: Option<SysCache>,
    strategy: SolverStrategy,
    /// CG configuration used for the implicit solves (and steady states).
    pub cg: CgConfig,
    /// Factorization budget for the direct strategy.
    pub chol: CholOptions,
    /// Thread budget for the level-scheduled triangular sweeps of the
    /// direct solver (`0` = one per hardware thread, `1` = serial).
    /// Threading never changes results — the sweeps are bit-identical at
    /// every budget — so this is purely a performance knob.
    solver_threads: usize,
}

impl ThermalSim {
    /// Creates a simulation with all nodes at `init_c` °C. Pass an
    /// `Arc<ThermalModel>` to share one model between simulations.
    ///
    /// Uses [`SolverStrategy::Cg`] by default for backward compatibility;
    /// the co-sim pipeline opts into the direct solver through
    /// [`ThermalSim::set_strategy`].
    pub fn new(model: impl Into<Arc<ThermalModel>>, init_c: f64) -> Self {
        let model = model.into();
        let n = model.node_count();
        Self {
            model,
            t: vec![init_c; n],
            prev: vec![init_c; n],
            have_prev: false,
            sys: None,
            strategy: SolverStrategy::Cg,
            cg: CgConfig {
                tolerance: 1e-7,
                max_iterations: 20_000,
            },
            chol: CholOptions::default(),
            solver_threads: 1,
        }
    }

    /// The configured triangular-sweep thread budget (`0` = auto).
    pub fn solver_threads(&self) -> usize {
        self.solver_threads
    }

    /// Sets the triangular-sweep thread budget: `0` resolves to one thread
    /// per hardware thread, `1` forces the serial sweeps, `N` allows up to
    /// `N` scoped shards per dependency level. Results are bit-identical at
    /// every setting, so no prepared state is invalidated.
    pub fn set_solver_threads(&mut self, threads: usize) {
        self.solver_threads = threads;
    }

    /// The thread budget for the next triangular sweep: the configured
    /// budget, with `0` resolved to one thread per hardware thread.
    fn effective_solver_threads(&self) -> usize {
        match self.solver_threads {
            0 => crate::sparse::hardware_threads(),
            n => n,
        }
    }

    /// The configured solver strategy (what was requested, not necessarily
    /// what runs — see [`ThermalSim::active_solver`]).
    pub fn strategy(&self) -> SolverStrategy {
        self.strategy
    }

    /// Selects the solver strategy, invalidating any prepared system.
    /// Also useful after changing [`ThermalSim::chol`] budgets to force
    /// re-preparation with the new options.
    pub fn set_strategy(&mut self, strategy: SolverStrategy) {
        self.strategy = strategy;
        self.sys = None;
    }

    /// The solver actually in use for the prepared system, after any
    /// direct-to-CG fallback. `None` until [`ThermalSim::prepare`] or the
    /// first [`ThermalSim::step`].
    pub fn active_solver(&self) -> Option<SolverStrategy> {
        self.sys.as_ref().map(|c| match c.solver {
            SysSolver::Direct { .. } => SolverStrategy::DirectCholesky,
            SysSolver::Cg(_) => SolverStrategy::Cg,
        })
    }

    /// The underlying model, shared with this simulation's clones.
    pub fn model(&self) -> &Arc<ThermalModel> {
        &self.model
    }

    /// Current full-domain state (°C).
    pub fn state(&self) -> &[f64] {
        &self.t
    }

    /// Replaces the full-domain state (e.g. with a warmed-up initial
    /// condition — the paper's non-uniform temperature initialization).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_state(&mut self, state: Vec<f64>) {
        assert_eq!(state.len(), self.model.node_count());
        self.t = state;
        self.have_prev = false;
    }

    /// Sets every node to `t_c` °C.
    pub fn set_uniform(&mut self, t_c: f64) {
        self.t.fill(t_c);
        self.have_prev = false;
    }

    /// Ensures the backward-Euler system for `dt` is assembled and its
    /// solver prepared (Cholesky factorization or CG workspace). Called
    /// implicitly by [`ThermalSim::step`]; call it eagerly to move the
    /// one-time factorization cost out of the first step.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is finite and positive.
    pub fn prepare(&mut self, dt: f64) {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        if let Some(c) = &self.sys {
            if (c.dt - dt).abs() <= 1e-15 * dt {
                return;
            }
        }
        let mut m = self.model.g.clone();
        let cdt: Vec<f64> = self.model.cap.iter().map(|c| c / dt).collect();
        m.add_to_diagonal(&cdt);
        let m = Arc::new(m);
        let solver = match self.strategy {
            SolverStrategy::Cg => SysSolver::Cg(CgWorkspace::new(&*m)),
            // The factor takes CSR; the copy lives only for the attempt.
            SolverStrategy::DirectCholesky => match CholeskyFactor::factor(&m.to_csr(), &self.chol)
            {
                Ok(f) => SysSolver::Direct {
                    factor: Arc::new(f),
                    work: vec![0.0; m.n()],
                },
                Err(_) => {
                    // Envelope over budget (or numerically not SPD): the
                    // crossover where triangular sweeps stream more memory
                    // than warm-started CG touches. Fall back.
                    hotgauge_telemetry::counter!("thermal.direct_fallbacks", 1);
                    SysSolver::Cg(CgWorkspace::new(&*m))
                }
            },
        };
        self.sys = Some(SysCache { dt, m, solver });
    }

    /// Advances the simulation by `dt` seconds with the given die-region
    /// active-layer power map (watts per cell), using backward Euler.
    ///
    /// Direct solves are exact (to rounding) and report zero iterations and
    /// zero residual in the returned stats.
    pub fn step(&mut self, die_power: &[f64], dt: f64) -> SolveStats {
        // Backward-Euler is unconditionally stable but only for a real,
        // positive step; a zero/negative/NaN dt silently corrupts the
        // system matrix scaling.
        debug_assert!(
            dt.is_finite() && dt > 0.0,
            "thermal step requires a finite positive dt, got {dt}",
        );
        self.prepare(dt);

        let mut rhs = self.model.inject_die_power(die_power);
        let amb = self.model.stack.ambient_c;
        for (i, r) in rhs.iter_mut().enumerate() {
            *r += self.model.cap[i] / dt * self.t[i] + self.model.conv[i] * amb;
        }
        let solve_threads = self.effective_solver_threads();
        #[expect(
            clippy::expect_used,
            reason = "prepare(dt) on the line above always fills self.sys"
        )]
        let cache = self.sys.as_mut().expect("system prepared above");
        match &mut cache.solver {
            SysSolver::Direct { factor, work } => {
                self.have_prev = false;
                factor.solve_with_threads(&rhs, &mut self.t, work, solve_threads);
                hotgauge_telemetry::counter!("thermal.direct_solves", 1);
                SolveStats {
                    iterations: 0,
                    relative_residual: 0.0,
                    converged: true,
                }
            }
            SysSolver::Cg(ws) => {
                // Warm start by linear extrapolation: the guess 2·Tₙ − Tₙ₋₁
                // has O(Δt²) error against the smooth thermal trajectory
                // (vs O(Δt) for plain Tₙ), which saves CG iterations. The
                // previous state is saved in the same pass.
                for (ti, pi) in self.t.iter_mut().zip(self.prev.iter_mut()) {
                    let tn = *ti;
                    if self.have_prev {
                        *ti = 2.0 * tn - *pi;
                    }
                    *pi = tn;
                }
                self.have_prev = true;
                let stats = solve_cg_with(&*cache.m, &rhs, &mut self.t, &self.cg, ws);
                hotgauge_telemetry::counter!("thermal.cg_iterations", stats.iterations);
                hotgauge_telemetry::counter!("thermal.cg_residual", stats.relative_residual);
                stats
            }
        }
    }

    /// Advances by `dt` split into `substeps` equal backward-Euler steps
    /// (reduces the implicit method's damping of fast transients).
    pub fn step_sub(&mut self, die_power: &[f64], dt: f64, substeps: usize) -> SolveStats {
        assert!(substeps >= 1);
        debug_assert!(
            dt.is_finite() && dt > 0.0,
            "thermal step requires a finite positive dt, got {dt}",
        );
        let sub = dt / substeps as f64;
        let mut last = SolveStats {
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        };
        for _ in 0..substeps {
            last = self.step(die_power, sub);
        }
        last
    }

    /// Runs to steady state for the given power and adopts it as the current
    /// state. Returns the solve stats.
    pub fn settle_to_steady(&mut self, die_power: &[f64]) -> SolveStats {
        let (t, stats) = self.model.steady_state(die_power, &self.cg);
        self.t = t;
        self.have_prev = false;
        stats
    }

    /// The active-layer die-region temperature frame of the current state.
    pub fn die_frame(&self) -> ThermalFrame {
        self.model.die_frame_of(&self.t)
    }

    /// [`ThermalSim::die_frame`] plus the frame's maximum temperature,
    /// tracked during extraction (no second pass over the grid).
    pub fn die_frame_with_max(&self) -> (ThermalFrame, f64) {
        self.model.die_frame_of_with_max(&self.t)
    }

    /// [`ThermalSim::die_frame_with_max`] recycling a retired frame's
    /// storage (see [`ThermalModel::die_frame_of_with_max_into`]).
    pub fn die_frame_with_max_into(&self, buf: Vec<f64>) -> (ThermalFrame, f64) {
        self.model.die_frame_of_with_max_into(&self.t, buf)
    }

    /// Total thermal energy stored relative to a reference temperature, J.
    pub fn stored_energy(&self, ref_c: f64) -> f64 {
        self.t
            .iter()
            .zip(&self.model.cap)
            .map(|(t, c)| (t - ref_c) * c)
            .sum()
    }
}

/// Reusable scratch for [`step_lockstep`]: the node-major lane-minor SoA
/// right-hand-side and solution blocks, the triangular-sweep work buffer,
/// and the lane-shared multi-RHS CG workspace. Buffers are sized lazily on
/// first use and grown whenever the lane count or grid changes, so one
/// scratch serves a whole sweep of lockstep batches.
#[derive(Debug, Default)]
pub struct LockstepScratch {
    /// `[n × k]` SoA right-hand sides, `rhs[node*k + lane]`.
    rhs: Vec<f64>,
    /// `[n × k]` SoA solutions / warm-start guesses.
    x: Vec<f64>,
    /// `[n × k]` permuted scratch for the direct triangular sweeps.
    work: Vec<f64>,
    /// Full-domain heat-vector staging for one lane at a time.
    q: Vec<f64>,
    /// CG workspace keyed by the system matrix it was preconditioned for
    /// (rebuilt when the batch's `Δt` — and hence the matrix — changes).
    cg: Option<(Arc<Stencil7>, MultiCgWorkspace)>,
    /// Per-lane outcomes of the last step.
    stats: Vec<SolveStats>,
}

impl LockstepScratch {
    /// An empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Advances `k` same-system simulations by `dt` in lockstep: one multi-RHS
/// solve over a `[n × k]` SoA temperature block instead of `k` independent
/// solves, streaming the factor / matrix index lists once for all lanes.
///
/// Every lane replicates the exact floating-point operation sequence of a
/// solo [`ThermalSim::step`] — the rhs build, the CG warm-start
/// extrapolation, and the per-lane solve columns (see [`solve_cg_multi`] and
/// [`CholeskyFactor::solve_multi`]) — so each lane's state and stats are
/// bitwise identical to stepping that lane alone. Lanes whose prepared
/// systems turn out heterogeneous (a different stack, solver arm, or CG
/// config) fall back to per-lane solo steps, which is trivially exact.
///
/// The solve is shared through lane 0's cached system. Lanes built from an
/// equal stack under the same solver configuration have bitwise identical
/// matrices (and factors) by deterministic construction; equal node counts
/// alone do not suffice, since two cell sizes can round to the same grid.
///
/// Returns per-lane stats borrowed from `scratch`.
///
/// # Panics
///
/// Panics if `sims` is empty, lane counts mismatch, `k` exceeds
/// [`MAX_LOCKSTEP_WIDTH`], or `dt` is not finite and positive.
pub fn step_lockstep<'a>(
    sims: &mut [&mut ThermalSim],
    die_powers: &[&[f64]],
    dt: f64,
    scratch: &'a mut LockstepScratch,
) -> &'a [SolveStats] {
    let k = sims.len();
    assert!(k >= 1, "lockstep step needs at least one lane");
    assert!(
        k <= MAX_LOCKSTEP_WIDTH,
        "lane count over MAX_LOCKSTEP_WIDTH"
    );
    assert_eq!(k, die_powers.len(), "one power map per lane");
    scratch.stats.clear();
    if k == 1 {
        let stats = sims[0].step(die_powers[0], dt);
        scratch.stats.push(stats);
        return &scratch.stats;
    }
    for sim in sims.iter_mut() {
        sim.prepare(dt);
    }
    let model0 = Arc::clone(&sims[0].model);
    let solver0 = sims[0].active_solver();
    let cg0 = sims[0].cg;
    let homogeneous = sims.iter().all(|s| {
        (Arc::ptr_eq(&s.model, &model0) || s.model.stack == model0.stack)
            && s.active_solver() == solver0
            && s.cg == cg0
    });
    if !homogeneous {
        for (sim, power) in sims.iter_mut().zip(die_powers) {
            let stats = sim.step(power, dt);
            scratch.stats.push(stats);
        }
        return &scratch.stats;
    }

    let direct = solver0 == Some(SolverStrategy::DirectCholesky);
    let n = model0.node_count();
    let nk = n * k;
    scratch.rhs.resize(nk, 0.0);
    scratch.x.resize(nk, 0.0);
    scratch.q.resize(n, 0.0);
    for (l, (sim, power)) in sims.iter_mut().zip(die_powers).enumerate() {
        sim.model.inject_die_power_into(power, &mut scratch.q);
        let amb = sim.model.stack.ambient_c;
        // Same per-element arithmetic (and association) as the solo rhs
        // build: q[i] += cap[i]/dt·t[i] + conv[i]·ambient.
        for (i, &qi) in scratch.q.iter().enumerate() {
            scratch.rhs[i * k + l] =
                qi + (sim.model.cap[i] / dt * sim.t[i] + sim.model.conv[i] * amb);
        }
        if direct {
            sim.have_prev = false;
        } else {
            // The solo warm start, verbatim: extrapolate 2·Tₙ − Tₙ₋₁ and
            // save Tₙ in the same pass.
            for (ti, pi) in sim.t.iter_mut().zip(sim.prev.iter_mut()) {
                let tn = *ti;
                if sim.have_prev {
                    *ti = 2.0 * tn - *pi;
                }
                *pi = tn;
            }
            sim.have_prev = true;
            for (i, &ti) in sim.t.iter().enumerate() {
                scratch.x[i * k + l] = ti;
            }
        }
    }

    {
        let _span = hotgauge_telemetry::span!("solver.multi_rhs");
        if direct {
            #[expect(
                clippy::unreachable,
                reason = "prepare() above filled sys for every lane and the homogeneity check pinned the solver arm to Direct"
            )]
            let Some(SysCache {
                solver: SysSolver::Direct { factor, .. },
                ..
            }) = &sims[0].sys
            else {
                unreachable!("homogeneity check pinned the direct arm")
            };
            let factor = Arc::clone(factor);
            let solve_threads = sims[0].effective_solver_threads();
            scratch.work.resize(nk, 0.0);
            factor.solve_multi_with_threads(
                k,
                &scratch.rhs,
                &mut scratch.x,
                &mut scratch.work,
                solve_threads,
            );
            hotgauge_telemetry::counter!("thermal.direct_solves", k);
            for _ in 0..k {
                scratch.stats.push(SolveStats {
                    iterations: 0,
                    relative_residual: 0.0,
                    converged: true,
                });
            }
        } else {
            #[expect(
                clippy::unreachable,
                reason = "prepare() above filled sys for every lane"
            )]
            let Some(cache) = &sims[0].sys
            else {
                unreachable!("system prepared above")
            };
            let m = Arc::clone(&cache.m);
            let rebuild = match &scratch.cg {
                Some((prev_m, ws)) => !Arc::ptr_eq(prev_m, &m) || ws.k() != k,
                None => true,
            };
            if rebuild {
                scratch.cg = Some((Arc::clone(&m), MultiCgWorkspace::new(&*m, k)));
            }
            #[expect(
                clippy::expect_used,
                reason = "the rebuild branch above just filled scratch.cg"
            )]
            let (_, ws) = scratch.cg.as_mut().expect("workspace built above");
            solve_cg_multi(&*m, &scratch.rhs, &mut scratch.x, &cg0, ws);
            for stats in ws.stats() {
                hotgauge_telemetry::counter!("thermal.cg_iterations", stats.iterations);
                hotgauge_telemetry::counter!("thermal.cg_residual", stats.relative_residual);
            }
            scratch.stats.extend_from_slice(ws.stats());
        }
    }

    for (l, sim) in sims.iter_mut().enumerate() {
        for (i, ti) in sim.t.iter_mut().enumerate() {
            *ti = scratch.x[i * k + l];
        }
    }
    &scratch.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::Material;
    use crate::stack::{Layer, StackDescription};

    /// A small stack with no border for analytic 1-D comparisons.
    fn stack_1d(nx: usize, ny: usize) -> StackDescription {
        StackDescription {
            layers: vec![
                Layer::new("active", Material::SILICON, 20e-6, 1, false),
                Layer::new("bulk", Material::SILICON, 360e-6, 3, false),
                Layer::new("tim", Material::SOLDER_TIM, 200e-6, 1, false),
                Layer::new("cu", Material::COPPER, 3e-3, 3, false),
            ],
            nx_die: nx,
            ny_die: ny,
            cell: 100e-6,
            border_cells: 0,
            filler: Material::MOLD_FILLER,
            h_top: 2000.0,
            ambient_c: 40.0,
        }
    }

    #[test]
    fn die_frame_with_max_matches_two_pass_extraction() {
        let s = stack_1d(8, 6);
        let model = ThermalModel::new(s);
        // A non-uniform state: make the tracked max land mid-grid.
        let mut state = vec![40.0; model.node_count()];
        for (i, v) in state.iter_mut().enumerate() {
            *v += (i % 13) as f64 * 0.7;
        }
        let (frame, max) = model.die_frame_of_with_max(&state);
        assert_eq!(frame, model.die_frame_of(&state));
        assert_eq!(max, frame.max());
    }

    #[test]
    fn steady_uniform_power_matches_series_resistance() {
        // Uniform power on every die cell -> pure 1-D conduction; the active
        // layer temperature must equal ambient + P_total * R_series where
        // R = sum(t_i / (k_i A)) + 1/(h A), with the active layer counting
        // only half of its own sublayer (cell center to boundary... for the
        // finite-volume scheme the node sits at the sublayer center).
        let s = stack_1d(10, 10);
        let area_total = s.die_area();
        let model = ThermalModel::new(s.clone());
        let p_cell = 0.01; // W
        let p_total = p_cell * 100.0;
        let (t, stats) = model.steady_state(&vec![p_cell; 100], &CgConfig::default());
        assert!(stats.converged);
        let frame = model.die_frame_of(&t);

        // Node-center-to-node-center resistances from the active node up.
        let mut r = 0.0;
        let layers = &s.layers;
        let mut segs: Vec<(f64, f64)> = Vec::new(); // (sub thickness, k)
        for l in layers {
            for _ in 0..l.sublayers {
                segs.push((l.sublayer_thickness(), l.material.conductivity));
            }
        }
        for w in segs.windows(2) {
            let (t1, k1) = w[0];
            let (t2, k2) = w[1];
            r += t1 / (2.0 * k1 * area_total) + t2 / (2.0 * k2 * area_total);
        }
        // Top node center to surface, then film.
        let (tl, kl) = *segs.last().unwrap();
        let _ = tl;
        let _ = kl;
        r += segs.last().unwrap().0 / (2.0 * segs.last().unwrap().1 * area_total);
        r += 1.0 / (2000.0 * area_total);

        let expect = 40.0 + p_total * r;
        let got = frame.mean();
        assert!(
            (got - expect).abs() < 0.02 * (expect - 40.0),
            "got {got}, expected {expect}"
        );
        // Uniform power, no border -> perfectly flat frame.
        assert!((frame.max() - frame.min()).abs() < 1e-6);
    }

    #[test]
    fn energy_conservation_without_convection_loss() {
        // Over a very short step almost no heat escapes through the film;
        // with h made tiny the added energy must all appear as stored energy.
        let mut s = stack_1d(6, 6);
        s.h_top = 1e-9;
        let model = ThermalModel::new(s);
        let mut sim = ThermalSim::new(model, 40.0);
        let p = vec![0.5; 36]; // 18 W total
        let dt = 1e-3;
        sim.cg.tolerance = 1e-12;
        sim.step(&p, dt);
        let stored = sim.stored_energy(40.0);
        let injected = 18.0 * dt;
        assert!(
            (stored - injected).abs() < 1e-6 * injected,
            "stored {stored}, injected {injected}"
        );
    }

    #[test]
    fn transient_approaches_steady_state() {
        let s = stack_1d(8, 8);
        let model = ThermalModel::new(s);
        let p = vec![0.05; 64];
        let (steady, _) = model.steady_state(&p, &CgConfig::default());
        let steady_frame = model.die_frame_of(&steady);

        let mut sim = ThermalSim::new(model, 40.0);
        for _ in 0..4000 {
            sim.step(&p, 5e-3);
        }
        let frame = sim.die_frame();
        // The slowest time constant of this small stack is seconds; after
        // 20 s of simulated time the transient should be within a few
        // percent of the steady solution (relative to the rise above ambient).
        let rise_t = frame.mean() - 40.0;
        let rise_s = steady_frame.mean() - 40.0;
        assert!(
            ((rise_t - rise_s) / rise_s).abs() < 0.05,
            "transient {} vs steady {}",
            frame.mean(),
            steady_frame.mean()
        );
    }

    #[test]
    fn hot_cell_creates_local_gradient() {
        let s = stack_1d(21, 21);
        let model = ThermalModel::new(s);
        let mut p = vec![0.0; 21 * 21];
        p[10 * 21 + 10] = 0.5; // 0.5 W in the center cell
        let (t, stats) = model.steady_state(&p, &CgConfig::default());
        assert!(stats.converged);
        let f = model.die_frame_of(&t);
        let center = f.at(10, 10);
        let corner = f.at(0, 0);
        assert!(center > corner + 1.0, "center {center}, corner {corner}");
        // Monotone decay along a row from the center.
        assert!(f.at(10, 10) > f.at(13, 10));
        assert!(f.at(13, 10) > f.at(17, 10));
    }

    #[test]
    fn symmetric_power_gives_symmetric_field() {
        let s = stack_1d(12, 12);
        let model = ThermalModel::new(s);
        let mut p = vec![0.0; 144];
        for iy in 0..12 {
            for ix in 0..12 {
                // Symmetric under x-mirror.
                let d = (ix as f64 - 5.5).abs();
                p[iy * 12 + ix] = 0.02 * (6.0 - d);
            }
        }
        let (t, _) = model.steady_state(
            &p,
            &CgConfig {
                tolerance: 1e-11,
                max_iterations: 50_000,
            },
        );
        let f = model.die_frame_of(&t);
        for iy in 0..12 {
            for ix in 0..6 {
                let a = f.at(ix, iy);
                let b = f.at(11 - ix, iy);
                assert!((a - b).abs() < 1e-6, "asymmetry at ({ix},{iy}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn temperatures_never_below_ambient_with_nonneg_power() {
        let s = stack_1d(8, 8);
        let model = ThermalModel::new(s);
        let mut sim = ThermalSim::new(model, 40.0);
        let p = vec![0.02; 64];
        for _ in 0..50 {
            sim.step(&p, 1e-3);
        }
        assert!(sim.state().iter().all(|&t| t >= 40.0 - 1e-6));
    }

    #[test]
    fn warmup_state_roundtrip() {
        let s = stack_1d(4, 4);
        let model = ThermalModel::new(s);
        let n = model.node_count();
        let mut sim = ThermalSim::new(model, 40.0);
        let state: Vec<f64> = (0..n).map(|i| 40.0 + (i % 7) as f64).collect();
        sim.set_state(state.clone());
        assert_eq!(sim.state(), &state[..]);
    }

    #[test]
    fn border_cells_use_filler_and_stay_cooler() {
        let mut s = stack_1d(10, 10);
        s.border_cells = 5;
        let model = ThermalModel::new(s);
        let p = vec![0.05; 100];
        let (t, _) = model.steady_state(&p, &CgConfig::default());
        // Active-level border cell (0,0) in full-domain coordinates vs die
        // center: the border (mold filler) must be cooler than the die.
        let border_t = t[model.node_index(0, 0, 0)];
        let center_t = t[model.node_index(0, 10, 10)];
        assert!(border_t + 1.0 < center_t);
    }

    #[test]
    fn substeps_track_single_step_closely_for_slow_transients() {
        let s = stack_1d(6, 6);
        let p = vec![0.05; 36];
        let model = ThermalModel::new(s);
        let mut a = ThermalSim::new(model.clone(), 40.0);
        let mut b = ThermalSim::new(model, 40.0);
        for _ in 0..10 {
            a.step(&p, 1e-3);
            b.step_sub(&p, 1e-3, 4);
        }
        let fa = a.die_frame();
        let fb = b.die_frame();
        // Finer stepping heats slightly faster (less implicit damping), and
        // both should be within a few percent of each other.
        let da = fa.mean() - 40.0;
        let db = fb.mean() - 40.0;
        assert!(db >= da - 1e-9, "substeps should not heat slower");
        assert!((db - da) / da.max(1e-9) < 0.2);
    }

    #[test]
    fn client_stack_assembles() {
        let s = StackDescription::client_cpu(30, 24, 200.0);
        let model = ThermalModel::new(s);
        assert!(model.node_count() > 0);
        assert!(model.conductance().to_csr().is_symmetric(0.0));
    }

    #[test]
    fn direct_and_cg_transients_agree_to_microkelvin() {
        let s = stack_1d(10, 10);
        let model = ThermalModel::new(s);
        let mut direct = ThermalSim::new(model.clone(), 40.0);
        direct.chol = CholOptions::unbounded();
        direct.set_strategy(SolverStrategy::DirectCholesky);
        let mut cg = ThermalSim::new(model, 40.0);
        cg.cg.tolerance = 1e-10;

        let mut p = vec![0.0; 100];
        for (i, pi) in p.iter_mut().enumerate() {
            *pi = 0.01 + 0.005 * ((i % 9) as f64);
        }
        for _ in 0..50 {
            direct.step(&p, 1e-3);
            cg.step(&p, 1e-3);
        }
        assert_eq!(direct.active_solver(), Some(SolverStrategy::DirectCholesky));
        for (a, b) in direct.state().iter().zip(cg.state()) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs cg {b}");
        }
    }

    #[test]
    fn direct_strategy_falls_back_to_cg_over_budget() {
        let s = stack_1d(6, 6);
        let model = ThermalModel::new(s);
        let mut sim = ThermalSim::new(model, 40.0);
        sim.set_strategy(SolverStrategy::DirectCholesky);
        sim.chol.max_profile_entries = 1; // nothing fits
        let p = vec![0.1; 36];
        let stats = sim.step(&p, 1e-3);
        assert_eq!(sim.active_solver(), Some(SolverStrategy::Cg));
        assert!(stats.converged);
        assert!(stats.iterations > 0, "fallback must actually run CG");
    }

    #[test]
    fn set_strategy_invalidates_prepared_system() {
        let s = stack_1d(4, 4);
        let model = ThermalModel::new(s);
        let mut sim = ThermalSim::new(model, 40.0);
        sim.prepare(1e-3);
        assert_eq!(sim.active_solver(), Some(SolverStrategy::Cg));
        sim.chol = CholOptions::unbounded();
        sim.set_strategy(SolverStrategy::DirectCholesky);
        assert_eq!(sim.active_solver(), None);
        sim.prepare(1e-3);
        assert_eq!(sim.active_solver(), Some(SolverStrategy::DirectCholesky));
    }

    /// Distinct per-lane power maps so lanes diverge immediately.
    fn lane_powers(k: usize, cells: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|l| {
                (0..cells)
                    .map(|i| 0.01 + 0.004 * ((i * (l + 3) + l) % 11) as f64)
                    .collect()
            })
            .collect()
    }

    /// Steps `k` lockstep lanes and `k` solo twins through `steps` steps and
    /// asserts bitwise-equal states and equal stats after every step.
    fn assert_lockstep_matches_solo(strategy: SolverStrategy, k: usize, steps: usize) {
        let s = stack_1d(9, 8);
        let model = ThermalModel::new(s);
        let cells = 9 * 8;
        let powers = lane_powers(k, cells);
        let make = |init: f64| {
            let mut sim = ThermalSim::new(model.clone(), init);
            sim.chol = CholOptions::unbounded();
            sim.set_strategy(strategy);
            sim
        };
        let mut lock: Vec<ThermalSim> = (0..k).map(|l| make(40.0 + l as f64)).collect();
        let mut solo: Vec<ThermalSim> = (0..k).map(|l| make(40.0 + l as f64)).collect();
        let mut scratch = LockstepScratch::new();
        for step in 0..steps {
            let solo_stats: Vec<SolveStats> = solo
                .iter_mut()
                .zip(&powers)
                .map(|(sim, p)| sim.step(p, 1e-3))
                .collect();
            let mut lanes: Vec<&mut ThermalSim> = lock.iter_mut().collect();
            let maps: Vec<&[f64]> = powers.iter().map(|p| p.as_slice()).collect();
            let lock_stats = step_lockstep(&mut lanes, &maps, 1e-3, &mut scratch).to_vec();
            assert_eq!(lock_stats, solo_stats, "stats diverged at step {step}");
            for (l, (a, b)) in lock.iter().zip(&solo).enumerate() {
                assert_eq!(a.active_solver(), b.active_solver());
                for (i, (x, y)) in a.state().iter().zip(b.state()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "lane {l} node {i} diverged at step {step}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn lockstep_cg_steps_are_bitwise_equal_to_solo_steps() {
        for k in [1, 2, 4, 8] {
            assert_lockstep_matches_solo(SolverStrategy::Cg, k, 5);
        }
    }

    #[test]
    fn lockstep_direct_steps_are_bitwise_equal_to_solo_steps() {
        for k in [1, 2, 4, 8] {
            assert_lockstep_matches_solo(SolverStrategy::DirectCholesky, k, 5);
        }
    }

    #[test]
    fn lockstep_falls_back_to_solo_on_heterogeneous_lanes() {
        let model = ThermalModel::new(stack_1d(6, 6));
        let powers = lane_powers(2, 36);
        let mut a = ThermalSim::new(model.clone(), 40.0);
        a.chol = CholOptions::unbounded();
        a.set_strategy(SolverStrategy::DirectCholesky);
        let mut b = ThermalSim::new(model.clone(), 41.0);
        b.set_strategy(SolverStrategy::Cg);
        let mut solo_a = a.clone();
        let mut solo_b = b.clone();

        let mut scratch = LockstepScratch::new();
        for _ in 0..3 {
            let mut lanes: Vec<&mut ThermalSim> = vec![&mut a, &mut b];
            let maps: Vec<&[f64]> = powers.iter().map(|p| p.as_slice()).collect();
            step_lockstep(&mut lanes, &maps, 1e-3, &mut scratch);
            solo_a.step(&powers[0], 1e-3);
            solo_b.step(&powers[1], 1e-3);
        }
        assert_eq!(a.active_solver(), Some(SolverStrategy::DirectCholesky));
        assert_eq!(b.active_solver(), Some(SolverStrategy::Cg));
        for (x, y) in a.state().iter().zip(solo_a.state()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in b.state().iter().zip(solo_b.state()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn lockstep_steps_lanes_of_different_stacks_solo_even_at_equal_node_counts() {
        // Same grid, different cell size: equal node counts, different
        // matrices. Sharing lane 0's system would step lane 1 wrongly.
        let wide = StackDescription {
            cell: 120e-6,
            ..stack_1d(6, 6)
        };
        let mut a = ThermalSim::new(ThermalModel::new(stack_1d(6, 6)), 40.0);
        let mut b = ThermalSim::new(ThermalModel::new(wide), 40.0);
        assert_eq!(a.model().node_count(), b.model().node_count());
        let powers = lane_powers(2, 36);
        let mut solo_a = a.clone();
        let mut solo_b = b.clone();
        let mut scratch = LockstepScratch::new();
        for _ in 0..3 {
            let mut lanes: Vec<&mut ThermalSim> = vec![&mut a, &mut b];
            let maps: Vec<&[f64]> = powers.iter().map(|p| p.as_slice()).collect();
            step_lockstep(&mut lanes, &maps, 1e-3, &mut scratch);
            solo_a.step(&powers[0], 1e-3);
            solo_b.step(&powers[1], 1e-3);
        }
        assert_eq!(a.state(), solo_a.state());
        assert_eq!(b.state(), solo_b.state());
    }

    #[test]
    fn lockstep_scratch_survives_dt_and_width_changes() {
        let model = ThermalModel::new(stack_1d(6, 6));
        let powers = lane_powers(4, 36);
        let mut lock: Vec<ThermalSim> = (0..4)
            .map(|l| ThermalSim::new(model.clone(), 40.0 + l as f64))
            .collect();
        let mut solo: Vec<ThermalSim> = lock.clone();
        let mut scratch = LockstepScratch::new();
        // Width 4 at dt=1e-3, then width 3 at dt=2e-3 (forces workspace and
        // buffer rebuilds), then back: the scratch must re-key correctly.
        for (width, dt) in [(4usize, 1e-3), (3, 2e-3), (4, 1e-3)] {
            let maps: Vec<&[f64]> = powers[..width].iter().map(|p| p.as_slice()).collect();
            let mut lanes: Vec<&mut ThermalSim> = lock[..width].iter_mut().collect();
            step_lockstep(&mut lanes, &maps, dt, &mut scratch);
            for (sim, p) in solo[..width].iter_mut().zip(&powers) {
                sim.step(p, dt);
            }
        }
        for (a, b) in lock.iter().zip(&solo) {
            for (x, y) in a.state().iter().zip(b.state()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The CG workspace of a prepared CG-arm simulation.
    fn cg_workspace(sim: &ThermalSim) -> &CgWorkspace {
        match &sim.sys {
            Some(SysCache {
                solver: SysSolver::Cg(ws),
                ..
            }) => ws,
            _ => panic!("simulation has no prepared CG system"),
        }
    }

    /// Footprint regression: a lane cloned from a prepared simulation must
    /// share every immutable part instead of copying it, and must not
    /// allocate solo CG scratch while it only steps in lockstep.
    #[test]
    fn clones_share_immutable_parts_and_allocate_solo_scratch_on_first_solo_step() {
        let model = ThermalModel::new(stack_1d(6, 6));
        let mut proto = ThermalSim::new(model, 40.0);
        proto.prepare(1e-3);
        let mut lanes = vec![proto.clone(), proto.clone()];
        for lane in &lanes {
            assert!(Arc::ptr_eq(lane.model(), proto.model()));
            let (a, b) = (lane.sys.as_ref().unwrap(), proto.sys.as_ref().unwrap());
            assert!(Arc::ptr_eq(&a.m, &b.m));
            assert!(cg_workspace(lane).shares_preconditioner(cg_workspace(&proto)));
            assert!(!cg_workspace(lane).has_scratch());
        }

        let powers = lane_powers(2, 36);
        let maps: Vec<&[f64]> = powers.iter().map(|p| p.as_slice()).collect();
        let mut scratch = LockstepScratch::new();
        for _ in 0..3 {
            let mut refs: Vec<&mut ThermalSim> = lanes.iter_mut().collect();
            step_lockstep(&mut refs, &maps, 1e-3, &mut scratch);
        }
        assert!(lanes.iter().all(|l| !cg_workspace(l).has_scratch()));

        // A straggler finishing solo allocates its own scratch; a clone of
        // it still starts without any.
        lanes[0].step(&powers[0], 1e-3);
        assert!(cg_workspace(&lanes[0]).has_scratch());
        assert!(!cg_workspace(&lanes[1]).has_scratch());
        assert!(!cg_workspace(&proto).has_scratch());
        let again = lanes[0].clone();
        assert!(!cg_workspace(&again).has_scratch());
        assert!(cg_workspace(&again).shares_preconditioner(cg_workspace(&proto)));
    }

    #[test]
    fn solver_strategy_round_trips_through_strings() {
        for s in [SolverStrategy::DirectCholesky, SolverStrategy::Cg] {
            let parsed: SolverStrategy = s.as_str().parse().unwrap();
            assert_eq!(parsed, s);
        }
        assert!("chebyshev".parse::<SolverStrategy>().is_err());
        assert_eq!(SolverStrategy::default(), SolverStrategy::DirectCholesky);
    }
}
