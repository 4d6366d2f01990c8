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
//! Euler, giving the SPD system `(C/Δt + G) T' = C/Δt·T + q`. The system
//! matrix is constant for a fixed `Δt`, so it is assembled once per `Δt`
//! together with its Jacobi preconditioner, and every step solves it with
//! warm-started preconditioned CG ([`crate::solver`]), the only solver.
//!
//! Both `G` and every `C/Δt + G` are held as a [`Stencil7`]: the network is
//! a 7-point stencil on the `nx × ny × levels` grid. The assembly still goes
//! through CSR triplets, which fixes the bits of every summed diagonal, and
//! is converted once.

use std::sync::Arc;

use crate::frame::ThermalFrame;
use crate::solver::{solve_cg, solve_cg_with, CgConfig, CgWorkspace, SolveStats, SpdOperator};
use crate::sparse::TripletBuilder;
use crate::stack::StackDescription;
use crate::stencil::Stencil7;
use serde::{Deserialize, Serialize};

/// A retired solver choice. CG on the stencil is the only thermal solver,
/// so neither variant selects anything.
///
/// The type stays only because `SimConfig::solver` still serializes it
/// (keeping every run key's input unchanged) and `figbench`'s probe still
/// passes it to [`ThermalSim::set_strategy`]. It goes when the benchmark
/// stops calling the solver knobs (ROADMAP.md, item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverStrategy {
    /// The default, which every shipped config carries.
    #[default]
    DirectCholesky,
    /// The other serialized value.
    Cg,
}

/// Assembled thermal RC network for a [`StackDescription`].
#[derive(Debug, Clone)]
pub struct ThermalModel {
    stack: StackDescription,
    nx: usize,
    ny: usize,
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

        // A node adds at most three edges (+x, +y, +z) of four triplets
        // each; a top node's film adds one triplet in place of +z.
        let mut builder = TripletBuilder::with_capacity(n, 12 * n);
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
        let s = &self.stack;
        assert_eq!(
            die_power.len(),
            s.nx_die * s.ny_die,
            "power map must cover the die grid"
        );
        let mut q = vec![0.0; self.node_count()];
        let b = s.border_cells;
        for dy in 0..s.ny_die {
            for dx in 0..s.nx_die {
                let i = self.node_index(self.active_level, dy + b, dx + b);
                q[i] = die_power[dy * s.nx_die + dx];
            }
        }
        q
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

/// Per-`Δt` cache: the assembled system matrix and the CG workspace
/// prepared for it. The matrix is `Arc`-shared so the lanes of a batch,
/// cloned from lane 0, reference one copy instead of duplicating it per
/// lane.
#[derive(Debug, Clone)]
struct SysCache {
    dt: f64,
    m: Arc<Stencil7>,
    ws: CgWorkspace,
}

/// A transient thermal simulation: a [`ThermalModel`] plus the evolving
/// temperature state and a cached backward-Euler system matrix with its
/// CG workspace.
///
/// Everything immutable is shared by a clone: the model, the system matrix
/// and the CG preconditioner sit behind `Arc`s, so the cloned lanes of a
/// batch and the idle warm-up hold one copy per geometry. A clone owns only
/// its state vectors and allocates its CG scratch on its first step.
#[derive(Debug, Clone)]
pub struct ThermalSim {
    model: Arc<ThermalModel>,
    /// Current temperatures, °C, full domain.
    t: Vec<f64>,
    /// State one step ago, for the linear-extrapolation warm start (valid
    /// only when `have_prev`).
    prev: Vec<f64>,
    have_prev: bool,
    /// Cached system for the last `Δt` seen.
    sys: Option<SysCache>,
    /// CG configuration used for the implicit solves (and steady states).
    pub cg: CgConfig,
}

impl ThermalSim {
    /// Creates a simulation with all nodes at `init_c` °C. Pass an
    /// `Arc<ThermalModel>` to share one model between simulations.
    pub fn new(model: impl Into<Arc<ThermalModel>>, init_c: f64) -> Self {
        let model = model.into();
        let n = model.node_count();
        Self {
            model,
            t: vec![init_c; n],
            prev: vec![init_c; n],
            have_prev: false,
            sys: None,
            cg: CgConfig {
                tolerance: 1e-7,
                max_iterations: 20_000,
            },
        }
    }

    /// Does nothing: CG is the only solver. Kept only because `figbench`'s
    /// probe still calls it; it goes when the benchmark stops calling the
    /// solver knobs (ROADMAP.md, item 3).
    #[deprecated(note = "CG is the only thermal solver; this call does nothing")]
    pub fn set_strategy(&mut self, _strategy: SolverStrategy) {}

    /// Does nothing: no solver spawns threads. Kept only because
    /// `figbench`'s probe still calls it; it goes when the benchmark stops
    /// calling the solver knobs (ROADMAP.md, item 3).
    #[deprecated(note = "no thermal solver spawns threads; this call does nothing")]
    pub fn set_solver_threads(&mut self, _threads: usize) {}

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

    /// Ensures the backward-Euler system for `dt` is assembled and its CG
    /// workspace prepared. Called implicitly by [`ThermalSim::step`]; call
    /// it eagerly to move the one-time assembly out of the first step.
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
        let ws = CgWorkspace::new(&m);
        self.sys = Some(SysCache {
            dt,
            m: Arc::new(m),
            ws,
        });
    }

    /// Advances the simulation by `dt` seconds with the given die-region
    /// active-layer power map (watts per cell), using backward Euler.
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
        // Warm start by linear extrapolation: the guess 2·Tₙ − Tₙ₋₁ has
        // O(Δt²) error against the smooth thermal trajectory (vs O(Δt) for
        // plain Tₙ), which saves CG iterations. The previous state is saved
        // in the same pass.
        for (ti, pi) in self.t.iter_mut().zip(self.prev.iter_mut()) {
            let tn = *ti;
            if self.have_prev {
                *ti = 2.0 * tn - *pi;
            }
            *pi = tn;
        }
        self.have_prev = true;
        #[expect(
            clippy::expect_used,
            reason = "prepare(dt) above always fills self.sys"
        )]
        let cache = self.sys.as_mut().expect("system prepared above");
        let stats = solve_cg_with(&*cache.m, &rhs, &mut self.t, &self.cg, &mut cache.ws);
        hotgauge_telemetry::counter!("thermal.cg_iterations", stats.iterations);
        hotgauge_telemetry::counter!("thermal.cg_residual", stats.relative_residual);
        stats
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

    /// The CG workspace of a prepared simulation.
    fn cg_workspace(sim: &ThermalSim) -> &CgWorkspace {
        &sim.sys
            .as_ref()
            .expect("simulation has no prepared system")
            .ws
    }

    /// Footprint regression: a lane cloned from a prepared simulation must
    /// share every immutable part instead of copying it, and must hold no
    /// CG scratch until it steps; each lane that steps holds exactly its
    /// own `r`, `p` and `Ap`.
    #[test]
    fn clones_share_immutable_parts_and_allocate_scratch_on_first_step() {
        let model = ThermalModel::new(stack_1d(6, 6));
        let n = model.node_count();
        let mut proto = ThermalSim::new(model, 40.0);
        proto.prepare(1e-3);
        let mut lanes = vec![proto.clone(), proto.clone()];
        for lane in &lanes {
            assert!(Arc::ptr_eq(lane.model(), proto.model()));
            let (a, b) = (lane.sys.as_ref().unwrap(), proto.sys.as_ref().unwrap());
            assert!(Arc::ptr_eq(&a.m, &b.m));
            assert!(cg_workspace(lane).shares_preconditioner(cg_workspace(&proto)));
            assert_eq!(cg_workspace(lane).iteration_words(), 0);
        }

        // Each lane steps on its own power map and allocates only its own
        // scratch; the template it was cloned from still holds none.
        let powers: Vec<Vec<f64>> = (0..2)
            .map(|l| {
                (0..36)
                    .map(|i| 0.01 + 0.004 * ((i * (l + 3) + l) % 11) as f64)
                    .collect()
            })
            .collect();
        for _ in 0..3 {
            for (lane, p) in lanes.iter_mut().zip(&powers) {
                lane.step(p, 1e-3);
            }
        }
        for lane in &lanes {
            assert_eq!(cg_workspace(lane).iteration_words(), 3 * n);
            assert!(cg_workspace(lane).shares_preconditioner(cg_workspace(&proto)));
        }
        assert_ne!(lanes[0].state(), lanes[1].state());
        assert_eq!(cg_workspace(&proto).iteration_words(), 0);

        // A clone of a stepped simulation starts without scratch.
        let again = lanes[0].clone();
        assert_eq!(cg_workspace(&again).iteration_words(), 0);
        assert!(cg_workspace(&again).shares_preconditioner(cg_workspace(&proto)));
    }
}
