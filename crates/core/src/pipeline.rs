//! The perf-power-therm co-simulation orchestrator (Fig. 3 of the paper).
//!
//! Every thermal time step (1 M cycles = 200 µs at 5 GHz):
//!
//! 1. the interval core model runs a representative instruction sample of
//!    the target workload and reports per-unit activity **rates**;
//! 2. the power model converts activity + current unit temperatures into
//!    per-unit watts (leakage feeds back from the thermal state);
//! 3. the rasterizer spreads unit power over the active-layer grid;
//! 4. the thermal model advances by the step (optionally in substeps for
//!    finer TUH resolution), and the hotspot metrics (MLTD, detection,
//!    severity) are evaluated on each new frame.
//!
//! The simulation starts either cold (from ambient) or after an idle
//! warm-up, as in Figs. 8 and 11.

use serde::{Deserialize, Serialize};

use hotgauge_telemetry::{counter, if_telemetry, span};

use hotgauge_floorplan::floorplan::Floorplan;
use hotgauge_floorplan::grid::FloorplanGrid;
use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_floorplan::unit::UnitKind;
use hotgauge_perf::activity::ActivityCounters;
use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_power::model::{CoreWindow, PowerModel, PowerParams};
use hotgauge_thermal::frame::ThermalFrame;
use hotgauge_thermal::model::{
    step_lockstep, LockstepScratch, SolverStrategy, ThermalModel, ThermalSim,
};
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_thermal::MAX_LOCKSTEP_WIDTH;
use hotgauge_workloads::benchmark_profile;
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::idle::{idle_profile, IDLE_DUTY_CYCLE, IDLE_WARMUP_DURATION_S};

use crate::analysis::{AnalysisConfig, FrameAnalyzer};
use crate::detect::HotspotParams;
use crate::locations::HotspotCensus;
use crate::series::TimeSeries;
use crate::severity::SeverityParams;
use crate::units;

/// Intra-unit power concentration used by the pipeline: 80 % of a unit's
/// power dissipates in a centered sub-rectangle covering 15 % of its area
/// (≈5.7× density), standing in for the sub-unit granularity of a 50+-unit
/// floorplan.
pub const UNIT_POWER_CONCENTRATION: (f64, f64) = (0.15, 0.85);

/// Histogram request: `bins` equal bins over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistSpec {
    /// Lower edge.
    pub lo: f64,
    /// Upper edge.
    pub hi: f64,
    /// Number of bins.
    pub bins: usize,
}

/// Configuration of one co-simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Technology node.
    pub node: TechNode,
    /// Benchmark name (a SPEC2006 proxy, or `"idle"`).
    pub benchmark: String,
    /// Core the single-threaded workload is pinned to (0..7).
    pub target_core: usize,
    /// Initial thermal condition.
    pub warmup: Warmup,
    /// In-plane grid resolution, micrometers (paper: 100).
    pub cell_um: f64,
    /// Spreading border of the thermal domain around the die, millimeters.
    pub border_mm: f64,
    /// Thermal substeps per 1 M-cycle window (4 ⇒ 50 µs TUH resolution).
    pub substeps: usize,
    /// Linear solver for the backward-Euler steps. `DirectCholesky` factors
    /// once per run and falls back to CG when the matrix is too large for
    /// the factorization budget.
    pub solver: SolverStrategy,
    /// Instructions sampled by the interval core per window; the sampled
    /// rates represent the whole window (Sniper-style sampling).
    pub sample_instrs: u64,
    /// Instruction budget (paper: 200 M per region of interest).
    pub max_instructions: u64,
    /// Wall-clock simulation cap, seconds.
    pub max_time_s: f64,
    /// Hotspot definition thresholds.
    pub detect: HotspotParams,
    /// Severity metric parameters.
    pub severity: SeverityParams,
    /// Workload RNG seed (combined with core/node for decorrelation).
    pub seed: u64,
    /// Mitigation: per-kind area scaling (§V-A).
    pub unit_scales: Vec<(UnitKind, f64)>,
    /// Mitigation: uniform IC area factor (§V-B).
    pub ic_area_factor: f64,
    /// Stop as soon as the first hotspot is found (TUH studies).
    pub stop_at_first_hotspot: bool,
    /// Whether the other cores run the idle/OS background task (vs parked).
    pub background_idle: bool,
    /// Unit names whose peak severity is tracked per step (Fig. 13).
    pub track_units: Vec<String>,
    /// Record a temperature histogram per step (Fig. 8).
    pub temp_histogram: Option<HistSpec>,
    /// Accumulate the distribution of per-cell ΔT over each 200 µs window
    /// (Fig. 2).
    pub delta_histogram: Option<HistSpec>,
    /// Execution strategy of the per-substep analysis stage (row sharding,
    /// solve/analysis overlap, sub-threshold prefilter). Never changes any
    /// result — only how fast it is computed.
    pub analysis: AnalysisConfig,
    /// Thread budget for the direct solver's level-scheduled triangular
    /// sweeps (`0` = one per hardware thread, `1` = serial). Like
    /// `analysis`, this never changes any result — the sweeps are
    /// bit-identical at every budget (see DESIGN.md, "Threading model").
    pub solver_threads: usize,
}

impl SimConfig {
    /// A fast-fidelity configuration (200 µm grid, 2 substeps) suitable for
    /// tests and sweeps.
    pub fn new(node: TechNode, benchmark: impl Into<String>) -> Self {
        Self {
            node,
            benchmark: benchmark.into(),
            target_core: 0,
            warmup: Warmup::Idle,
            cell_um: 200.0,
            border_mm: 4.0,
            substeps: 2,
            solver: SolverStrategy::default(),
            sample_instrs: 30_000,
            max_instructions: 200_000_000,
            max_time_s: 0.05,
            detect: HotspotParams::paper_default(),
            severity: SeverityParams::cpu_default(),
            seed: 0,
            unit_scales: Vec::new(),
            ic_area_factor: 1.0,
            stop_at_first_hotspot: false,
            background_idle: true,
            track_units: Vec::new(),
            temp_histogram: None,
            delta_histogram: None,
            analysis: AnalysisConfig::default(),
            solver_threads: 1,
        }
    }

    /// Upgrades to the paper's fidelity: 100 µm grid and 50 µs substeps.
    pub fn paper_fidelity(mut self) -> Self {
        self.cell_um = 100.0;
        self.substeps = 4;
        self.sample_instrs = 50_000;
        self
    }

    /// Simulated seconds per window (1 M cycles at 5 GHz).
    pub fn window_seconds(&self) -> f64 {
        CoreConfig::TIME_STEP_CYCLES as f64 / 5e9
    }
}

/// Per-substep record of the co-simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Simulation time at the end of the substep, seconds.
    pub time_s: f64,
    /// Peak die temperature, °C.
    pub max_temp_c: f64,
    /// Mean die temperature, °C.
    pub mean_temp_c: f64,
    /// Minimum die temperature, °C.
    pub min_temp_c: f64,
    /// Maximum MLTD on the die, °C.
    pub max_mltd_c: f64,
    /// Peak severity over the die.
    pub peak_severity: f64,
    /// Number of hotspots detected this substep.
    pub hotspot_count: usize,
    /// Total chip power during the window, W.
    pub power_w: f64,
    /// IPC of the target core's window.
    pub ipc: f64,
    /// Peak severity within each tracked unit.
    pub unit_severity: Vec<f64>,
    /// Temperature histogram counts, if requested.
    pub temp_hist: Option<Vec<usize>>,
}

/// Result of one co-simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// The configuration that produced this run.
    pub config: SimConfig,
    /// Per-substep records.
    pub records: Vec<StepRecord>,
    /// Time until the first hotspot, if one occurred.
    pub tuh_s: Option<f64>,
    /// Hotspot location counts per unit label.
    pub census: HotspotCensus,
    /// ΔT histogram (edges, counts), if requested.
    pub delta_hist: Option<(Vec<f64>, Vec<usize>)>,
    /// Instructions represented by the run (sampled rates × windows).
    pub total_instructions: u64,
    /// The last active-layer frame.
    pub final_frame: ThermalFrame,
    /// Peak-severity time series (times mirror `records`).
    pub sev_series: TimeSeries,
}

impl RunResult {
    /// Peak severity over the whole run.
    pub fn peak_severity(&self) -> f64 {
        self.sev_series.max()
    }

    /// RMS of the peak-severity series (§V-B summary).
    pub fn rms_severity(&self) -> f64 {
        self.sev_series.rms()
    }
}

/// Builds the (possibly mitigation-scaled) floorplan of a config.
pub fn build_floorplan(cfg: &SimConfig) -> Floorplan {
    let mut b = SkylakeProxy::new(cfg.node);
    for &(kind, factor) in &cfg.unit_scales {
        b = b.scale_unit(kind, factor);
    }
    if cfg.ic_area_factor > 1.0 {
        b = b.ic_area_factor(cfg.ic_area_factor);
    }
    b.build()
}

/// Runs one co-simulation to completion.
pub fn run_sim(cfg: SimConfig) -> RunResult {
    CoSimulation::new(cfg).run()
}

/// Liveness report for one finished run of a sweep (`done` of `total`).
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// Runs finished so far (including this one).
    pub done: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// Benchmark of the finished run.
    pub benchmark: String,
    /// Technology node of the finished run.
    pub node: TechNode,
    /// Target core of the finished run.
    pub target_core: usize,
}

/// Per-window liveness report of one co-simulation.
#[derive(Debug, Clone, Copy)]
pub struct WindowProgress {
    /// Perf/power/thermal windows completed.
    pub windows: u64,
    /// Simulated time so far, seconds.
    pub time_s: f64,
    /// Instructions represented so far.
    pub instructions: u64,
    /// The run's instruction budget.
    pub max_instructions: u64,
    /// The run's simulated-time cap, seconds.
    pub max_time_s: f64,
}

/// Runs many configurations on the work-stealing sweep executor; results
/// keep input order. `threads = 0` sizes the pool to the hardware. See
/// [`crate::sweep`] for the executor and its per-worker scratch arenas.
pub fn run_many(cfgs: Vec<SimConfig>, threads: usize) -> Vec<RunResult> {
    crate::sweep::run_many_with(cfgs, threads, None)
}

/// [`run_many`] with an optional completion callback, invoked from worker
/// threads as each run finishes (sweep liveness for long experiments).
pub fn run_many_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<RunResult> {
    crate::sweep::run_many_with(cfgs, threads, on_done)
}

/// A rejected [`SimConfig`]. These are the user-input-reachable failure
/// modes (CLI flags, sweep manifests); bench bins map them to exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The benchmark name is not `idle`, a known SPEC2006 proxy, or a
    /// server-trace workload.
    UnknownBenchmark(String),
    /// `target_core` does not exist on the 7-core Skylake proxy.
    TargetCoreOutOfRange(usize),
    /// `substeps` must be at least 1.
    ZeroSubsteps,
    /// A `track_units` entry does not name a floorplan unit.
    UnknownTrackedUnit(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownBenchmark(name) => {
                write!(
                    f,
                    "unknown benchmark `{name}` (not `idle`, a SPEC2006 proxy, or a server trace)"
                )
            }
            ConfigError::TargetCoreOutOfRange(core) => {
                write!(
                    f,
                    "target core {core} out of range (the proxy has cores 0..7)"
                )
            }
            ConfigError::ZeroSubsteps => write!(f, "substeps must be >= 1"),
            ConfigError::UnknownTrackedUnit(name) => {
                write!(f, "tracked unit `{name}` is not a floorplan unit")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The assembled co-simulation state. `Clone` so construction (floorplan,
/// power model, warm-up, solver factorization) can be paid once and the
/// stepping loop repeated from the same initial state — benches and sweeps
/// over per-run knobs rely on this.
#[derive(Clone)]
pub struct CoSimulation {
    cfg: SimConfig,
    fp: Floorplan,
    grid: FloorplanGrid,
    grid_peaked: FloorplanGrid,
    power: PowerModel,
    thermal: ThermalSim,
    core: CoreSim,
    gen: WorkloadGen,
    idle_act: ActivityCounters,
}

impl std::fmt::Debug for CoSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoSimulation")
            .field("benchmark", &self.cfg.benchmark)
            .field("node", &self.cfg.node)
            .field("target_core", &self.cfg.target_core)
            .field("units", &self.fp.units.len())
            .field("grid", &(self.grid.nx, self.grid.ny))
            .finish_non_exhaustive()
    }
}

impl CoSimulation {
    /// Builds every model of the toolchain for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark name is unknown or the configuration is
    /// inconsistent (e.g. target core out of range). User-input paths
    /// (CLI, manifests) should call [`CoSimulation::try_new`] instead.
    pub fn new(cfg: SimConfig) -> Self {
        // hotgauge-lint: allow(L001, "programmatic constructor for configs built in code; the CLI/manifest path goes through try_new and exits 2 on bad input")
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid simulation config: {e}"))
    }

    /// Validates the configuration and builds every model of the toolchain,
    /// returning a typed [`ConfigError`] on user-reachable misconfiguration
    /// instead of panicking.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        Self::try_new_reusing(cfg, None)
    }

    /// [`CoSimulation::try_new`], optionally recycling the geometry-keyed
    /// model parts of a previous same-geometry run (see [`crate::sweep`]).
    ///
    /// With `geom: Some(..)` the floorplan, rasterized grids, power model,
    /// and prepared thermal solver are adopted instead of rebuilt; the
    /// thermal *state* is reset to exactly the fresh-construction initial
    /// condition, so the run is bit-identical to one built from scratch.
    /// The caller must only pass parts produced under the same
    /// [`crate::sweep::geom_key`].
    pub(crate) fn try_new_reusing(
        cfg: SimConfig,
        geom: Option<GeomParts>,
    ) -> Result<Self, ConfigError> {
        if cfg.target_core >= 7 {
            return Err(ConfigError::TargetCoreOutOfRange(cfg.target_core));
        }
        if cfg.substeps < 1 {
            return Err(ConfigError::ZeroSubsteps);
        }
        if benchmark_profile(&cfg.benchmark).is_none() {
            return Err(ConfigError::UnknownBenchmark(cfg.benchmark.clone()));
        }

        let (fp, grid, grid_peaked, power, recycled_thermal) = match geom {
            Some(parts) => (
                parts.fp,
                parts.grid,
                parts.grid_peaked,
                parts.power,
                Some(parts.thermal),
            ),
            None => {
                let fp = build_floorplan(&cfg);
                // Two rasterizations: leakage + clock power spreads uniformly
                // over each unit, while utilization-driven switching
                // concentrates in the unit's hot structures (see
                // `rasterize_with_concentration`).
                let grid = FloorplanGrid::rasterize(&fp, cfg.cell_um);
                let grid_peaked = FloorplanGrid::rasterize_with_concentration(
                    &fp,
                    cfg.cell_um,
                    Some(UNIT_POWER_CONCENTRATION),
                );

                // Power is built against the *baseline* floorplan of the node
                // so that mitigation floorplans redistribute the same watts
                // over more area (area scaling as a power-density proxy,
                // §V-A). Unit order is identical between baseline and scaled
                // floorplans by construction.
                let baseline = SkylakeProxy::new(cfg.node).build();
                assert_eq!(baseline.units.len(), fp.units.len());
                let power = PowerModel::new(&baseline, cfg.node, PowerParams::default());
                (fp, grid, grid_peaked, power, None)
            }
        };
        for name in &cfg.track_units {
            if fp.unit_index_by_name(name).is_none() {
                return Err(ConfigError::UnknownTrackedUnit(name.clone()));
            }
        }

        // Workload stream + core, warmed up before the ROI as in the paper.
        // Never recycled: the stream depends on benchmark and seed.
        let profile = benchmark_profile(&cfg.benchmark)
            // hotgauge-lint: allow(L001, "benchmark name validated at the top of try_new_reusing; a miss here is a bug, not user input")
            .unwrap_or_else(|| panic!("unknown benchmark {}", cfg.benchmark));
        let seed = cfg.seed
            ^ (cfg.target_core as u64) << 32
            ^ (cfg.node.generations_from_14() as u64) << 40;
        let mut gen = WorkloadGen::new(profile, seed);
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        core.warm_up(&mut gen, 2_000_000);

        // A representative idle window for the background cores.
        let idle_act = idle_activity_cached(seed ^ 0xDEAD_BEEF);

        // Thermal initial condition. A recycled solver keeps its prepared
        // system (the backward-Euler matrix and Cholesky factor / CG
        // workspace are functions of geometry + dt + strategy only, all part
        // of the arena key) but is reset to the uniform ambient state a
        // fresh `ThermalSim::new` starts from, so the warm-up below — and
        // everything after it — sees exactly the fresh-construction state.
        let mut thermal = match recycled_thermal {
            Some(mut t) => {
                t.set_uniform(t.model().stack().ambient_c);
                t
            }
            None => {
                let stack = StackDescription::client_cpu_with_border(
                    grid.nx,
                    grid.ny,
                    cfg.cell_um,
                    cfg.border_mm * units::M_PER_MM,
                );
                let model = ThermalModel::new(stack);
                let ambient = model.stack().ambient_c;
                let mut t = ThermalSim::new(model, ambient);
                t.set_strategy(cfg.solver);
                t
            }
        };
        // Backward-Euler steps are solved to a relative residual that is far
        // below per-step temperature changes; tighter tolerances cost CG
        // iterations without changing any metric.
        thermal.cg.tolerance = 1e-6;
        // Applied to recycled solvers too: the sweep thread budget is a
        // per-run knob, not part of the geometry key (it never changes
        // results, so recycling across budgets is sound).
        thermal.set_solver_threads(cfg.solver_threads);
        if cfg.warmup == Warmup::Idle {
            let state = warmup_state_cached(&cfg, &fp, &grid, &power, &thermal, &idle_act);
            thermal.set_state(state);
        }
        // Prepare the solver for the run's substep size now, so the one-time
        // factorization cost lands in construction rather than the first
        // step. A no-op on recycled solvers (same dt): the factor-once win
        // the sweep arenas exist for.
        thermal.prepare(cfg.window_seconds() / cfg.substeps as f64);

        Ok(Self {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            thermal,
            core,
            gen,
            idle_act,
        })
    }

    /// The floorplan being simulated.
    pub fn floorplan(&self) -> &Floorplan {
        &self.fp
    }

    /// The configuration this simulation was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Clones the geometry-keyed model parts of this simulation, so a
    /// lockstep batch mate with the same [`crate::sweep::geom_key`] can be
    /// constructed without rebuilding them ([`CoSimulation::try_new_reusing`]
    /// resets the cloned thermal state exactly as it does for arena-recycled
    /// parts). The clone shares the prepared backward-Euler matrix through
    /// its `Arc`, which is also what lets [`step_lockstep`] batch the lanes.
    pub(crate) fn clone_geom_parts(&self) -> GeomParts {
        GeomParts {
            fp: self.fp.clone(),
            grid: self.grid.clone(),
            grid_peaked: self.grid_peaked.clone(),
            power: self.power.clone(),
            thermal: self.thermal.clone(),
        }
    }

    /// The transient thermal simulation.
    pub fn thermal(&self) -> &ThermalSim {
        &self.thermal
    }

    /// Mutable access to the thermal simulation, e.g. to tighten the CG
    /// tolerance for solver cross-validation runs.
    pub fn thermal_mut(&mut self) -> &mut ThermalSim {
        &mut self.thermal
    }

    fn idle_power_map(
        cfg: &SimConfig,
        fp: &Floorplan,
        grid: &FloorplanGrid,
        power: &PowerModel,
        thermal: &ThermalSim,
        idle_act: &ActivityCounters,
    ) -> Vec<f64> {
        let frame = thermal.die_frame();
        let temps = unit_temperatures(fp, grid, &frame);
        let cores: Vec<CoreWindow<'_>> = (0..7)
            .map(|_| CoreWindow::Active {
                activity: idle_act,
                duty: IDLE_DUTY_CYCLE,
            })
            .collect();
        let breakdown = power.evaluate(&cores, &temps);
        let _ = cfg;
        // Idle power is dominated by clock + leakage; spread it uniformly.
        grid.power_map(&breakdown.unit_watts)
    }

    /// Runs the simulation to completion.
    pub fn run(self) -> RunResult {
        self.run_with_progress(None)
    }

    /// [`CoSimulation::run`] with a per-window liveness callback, so long
    /// runs can report progress while they execute.
    ///
    /// The per-substep analysis runs through [`FrameAnalyzer`] (fused MLTD +
    /// detection + severity with reusable buffers and optional row sharding).
    /// With `cfg.analysis.overlap` it moves to a dedicated worker thread fed
    /// by a bounded two-frame channel, so the analysis of substep *t*
    /// overlaps the thermal solve of substep *t + 1* — and, because retired
    /// frame buffers flow back to the producer for reuse, the solver can run
    /// ahead to *t + 2* while the analyzer is still consuming *t* without
    /// allocating fresh state (`pipeline.depth2_advances` counts those deep
    /// advances); frames are processed in send order, so every record,
    /// census entry, and series value is bit-identical to the serial
    /// schedule.
    pub fn run_with_progress(self, on_window: Option<&dyn Fn(WindowProgress)>) -> RunResult {
        let analyzer = FrameAnalyzer::new(
            self.cfg.detect,
            self.cfg.severity,
            self.cfg.analysis.threads,
        );
        self.run_with_analyzer(analyzer, on_window).0
    }

    /// [`CoSimulation::run_with_progress`] on a caller-supplied (possibly
    /// recycled) [`FrameAnalyzer`], handing the analyzer and the
    /// geometry-keyed model parts back for reuse by the next same-geometry
    /// run. The analyzer is re-targeted at this run's parameters first, so a
    /// dirty analyzer produces bit-identical results to a fresh one.
    pub(crate) fn run_with_analyzer(
        self,
        mut analyzer: FrameAnalyzer,
        on_window: Option<&dyn Fn(WindowProgress)>,
    ) -> (RunResult, FrameAnalyzer, GeomParts) {
        analyzer.reconfigure(
            self.cfg.detect,
            self.cfg.severity,
            self.cfg.analysis.threads,
        );
        let window_s = self.cfg.window_seconds();
        let dt_sub = window_s / self.cfg.substeps as f64;
        let track_idx: Vec<usize> = self
            .cfg
            .track_units
            .iter()
            .map(|n| {
                self.fp
                    .unit_index_by_name(n)
                    // hotgauge-lint: allow(L001, "track_units validated against the floorplan in try_new; a miss here is a bug, not user input")
                    .unwrap_or_else(|| panic!("unknown tracked unit {n}"))
            })
            .collect();

        // Split the state: the window producer mutates the models while the
        // analysis context only reads the configuration/floorplan side.
        let Self {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            mut thermal,
            mut core,
            mut gen,
            idle_act,
        } = self;

        // The prefilter records zeros for MLTD/severity on provably
        // hotspot-free substeps, so it only engages where those fields are
        // never consumed: stop-at-first-hotspot (TUH) runs without per-unit
        // severity tracking. The TUH itself is exact either way — a frame
        // whose max is at or below `T_th` cannot contain a hotspot.
        let prefilter = cfg.analysis.prefilter && cfg.stop_at_first_hotspot && track_idx.is_empty();
        // Overlap lets this thread run substeps past the stopping hotspot
        // before the worker reports it. That is invisible in the result
        // except through the Fig. 2 ΔT histogram (accumulated here per
        // window), so that one combination stays serial.
        let overlap =
            cfg.analysis.overlap && !(cfg.stop_at_first_hotspot && cfg.delta_histogram.is_some());

        // Frame-storage return path: the analysis side retires each frame's
        // buffer once it moves on, and the producer extracts the next
        // substep into it. Same-thread in the serial schedule, cross-thread
        // under overlap; either way the recycled values are overwritten in
        // full, so results are bit-identical to fresh allocation.
        let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<ThermalFrame>();
        let mut ctx = AnalysisCtx {
            analyzer,
            cfg: &cfg,
            fp: &fp,
            grid: &grid,
            track_idx: &track_idx,
            prefilter,
            records: Vec::new(),
            sev_series: TimeSeries::default(),
            census: HotspotCensus::new(),
            tuh: None,
            last_frame: None,
            last_instructions: 0,
            recycle: Some(recycle_tx),
        };

        let mut time_s = 0.0;
        let mut instructions: u64 = 0;
        // Carry the histogram spec alongside its accumulators so the window
        // loops never have to re-fetch it from the config (which would need
        // an unwrap of an Option already matched here).
        let mut delta_counts = cfg
            .delta_histogram
            .map(|h| (h, edges(&h), vec![0usize; h.bins]));
        let mut windows: u64 = 0;

        if !overlap {
            'outer: while instructions < cfg.max_instructions && time_s < cfg.max_time_s {
                let w = produce_window(
                    &cfg,
                    &fp,
                    &grid,
                    &grid_peaked,
                    &power,
                    &thermal,
                    &mut core,
                    &mut gen,
                    &idle_act,
                );
                instructions += w.instr_delta;
                counter!("pipeline.substeps", cfg.substeps);
                for _ in 0..cfg.substeps {
                    {
                        let _stage = span!("stage.thermal");
                        thermal.step(&w.power_map, dt_sub);
                    }
                    time_s += dt_sub;
                    let (frame, frame_max) = match recycle_rx.try_recv() {
                        Ok(retired) => thermal.die_frame_with_max_into(retired.temps),
                        Err(_) => thermal.die_frame_with_max(),
                    };
                    let proceed = {
                        let _stage = span!("stage.detect");
                        ctx.process(SubstepMsg {
                            frame,
                            frame_max,
                            time_s,
                            power_w: w.power_w,
                            ipc: w.ipc,
                            instructions,
                        })
                    };
                    if !proceed {
                        break 'outer;
                    }
                }
                if let Some((ref h, _, ref mut counts)) = delta_counts {
                    accumulate_deltas(h, counts, &w.frame_before, &thermal.die_frame());
                }
                windows += 1;
                if let Some(cb) = on_window {
                    cb(WindowProgress {
                        windows,
                        time_s,
                        instructions,
                        max_instructions: cfg.max_instructions,
                        max_time_s: cfg.max_time_s,
                    });
                }
            }
        } else {
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                // Two in-flight frames: the worker analyzes one while this
                // thread solves into the other (double buffering); a third
                // send blocks, bounding memory and keeping the stages in
                // lockstep.
                let (tx, rx) = std::sync::mpsc::sync_channel::<SubstepMsg>(2);
                let worker_ctx = &mut ctx;
                let stop_flag = &stop;
                let worker = scope.spawn(move || {
                    let _stage = span!("analysis.worker");
                    while let Ok(msg) = rx.recv() {
                        let _stage = span!("stage.detect");
                        if !worker_ctx.process(msg) {
                            stop_flag.store(true, std::sync::atomic::Ordering::Release);
                            break;
                        }
                    }
                });
                // Frames owned by the analysis side (in the channel, in
                // flight, or held as `last_frame`), i.e. sends minus
                // reclaims. Three outstanding frames at solve time means
                // the analyzer is still consuming substep t while this
                // thread solves t + 2: the worker holds t (plus the retired
                // t − 1 it has not released yet) and t + 1 waits in the
                // channel — the deep-overlap state the buffer pool exists
                // for.
                let mut outstanding = 0usize;
                let mut spares: Vec<ThermalFrame> = Vec::new();
                'outer: while instructions < cfg.max_instructions && time_s < cfg.max_time_s {
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        break;
                    }
                    let w = produce_window(
                        &cfg,
                        &fp,
                        &grid,
                        &grid_peaked,
                        &power,
                        &thermal,
                        &mut core,
                        &mut gen,
                        &idle_act,
                    );
                    instructions += w.instr_delta;
                    counter!("pipeline.substeps", cfg.substeps);
                    for _ in 0..cfg.substeps {
                        if stop.load(std::sync::atomic::Ordering::Acquire) {
                            break 'outer;
                        }
                        while let Ok(retired) = recycle_rx.try_recv() {
                            spares.push(retired);
                            outstanding -= 1;
                        }
                        if outstanding >= 3 {
                            counter!("pipeline.depth2_advances", 1);
                        }
                        {
                            let _stage = span!("stage.thermal");
                            thermal.step(&w.power_map, dt_sub);
                        }
                        time_s += dt_sub;
                        let (frame, frame_max) = match spares.pop() {
                            Some(retired) => thermal.die_frame_with_max_into(retired.temps),
                            None => thermal.die_frame_with_max(),
                        };
                        let msg = SubstepMsg {
                            frame,
                            frame_max,
                            time_s,
                            power_w: w.power_w,
                            ipc: w.ipc,
                            instructions,
                        };
                        match tx.try_send(msg) {
                            Ok(()) => outstanding += 1,
                            Err(std::sync::mpsc::TrySendError::Full(m)) => {
                                // The analysis is the bottleneck right now;
                                // block until it frees a slot.
                                counter!("analysis.overlap_stalls", 1);
                                if tx.send(m).is_err() {
                                    break 'outer;
                                }
                                outstanding += 1;
                            }
                            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => break 'outer,
                        }
                    }
                    if let Some((ref h, _, ref mut counts)) = delta_counts {
                        accumulate_deltas(h, counts, &w.frame_before, &thermal.die_frame());
                    }
                    windows += 1;
                    if let Some(cb) = on_window {
                        cb(WindowProgress {
                            windows,
                            time_s,
                            instructions,
                            max_instructions: cfg.max_instructions,
                            max_time_s: cfg.max_time_s,
                        });
                    }
                }
                drop(tx);
                // hotgauge-lint: allow(L001, "re-raises a worker panic on the producer thread; swallowing it would return a silently truncated RunResult")
                worker.join().expect("analysis worker panicked");
            });
        }

        let AnalysisCtx {
            analyzer,
            records,
            sev_series,
            census,
            tuh,
            mut last_frame,
            last_instructions,
            ..
        } = ctx;

        // In stop mode the producer may have solved past the stopping
        // substep under overlap; the recorded state of that substep — not
        // the thermal model's — is what the serial schedule reports.
        let stopped = cfg.stop_at_first_hotspot && tuh.is_some();
        let total_instructions = if stopped {
            last_instructions
        } else {
            instructions
        };
        let final_frame = if stopped {
            // hotgauge-lint: allow(L001, "tuh is only set by AnalysisCtx::process, which stores last_frame in the same match arm before returning false")
            last_frame.take().expect("stopping substep has a frame")
        } else {
            thermal.die_frame()
        };
        let result = RunResult {
            config: cfg,
            records,
            tuh_s: tuh,
            census,
            delta_hist: delta_counts.map(|(_, e, c)| (e, c)),
            total_instructions,
            final_frame,
            sev_series,
        };
        let parts = GeomParts {
            fp,
            grid,
            grid_peaked,
            power,
            thermal,
        };
        (result, analyzer, parts)
    }
}

/// The geometry-keyed model parts of one co-simulation — everything that
/// depends only on the floorplan/grid/solver shape of a [`SimConfig`], not
/// on its workload or seed. A sweep worker hands these from a finished run
/// to the next run with the same [`crate::sweep::geom_key`], skipping the
/// floorplan build, the two rasterizations, the power-model assembly, and —
/// the expensive part — the thermal-system preparation (Cholesky
/// factorization / CG workspace).
pub(crate) struct GeomParts {
    pub(crate) fp: Floorplan,
    pub(crate) grid: FloorplanGrid,
    pub(crate) grid_peaked: FloorplanGrid,
    pub(crate) power: PowerModel,
    pub(crate) thermal: ThermalSim,
}

/// A lockstep batch of up to [`MAX_LOCKSTEP_WIDTH`] co-simulations advanced
/// together: every lane produces its perf/power window, then one multi-RHS
/// thermal solve ([`step_lockstep`]) advances all still-running lanes at
/// once, streaming the shared backward-Euler matrix a single time per
/// substep instead of once per lane. Lanes deactivate independently — a
/// stop-at-first-hotspot lane that trips, or a lane whose instruction/time
/// budget runs out, simply drops out of subsequent solves while its batch
/// mates continue.
///
/// Results are **bit-identical** to running each lane through
/// [`CoSimulation::run`] on its own: the batch replays the serial analysis
/// schedule per lane (which the overlap schedule also reproduces exactly),
/// and the lockstep solver applies each lane's arithmetic in the same
/// element order as the single-RHS path. Lanes whose thermal systems turn
/// out not to be homogeneous (different grids or solver states) fall back
/// to per-lane solo steps inside [`step_lockstep`] — still exact, just
/// without the memory-bandwidth win. The sweep executor groups compatible
/// jobs by [`crate::sweep::geom_key`] so batches hit the fast path.
#[derive(Debug)]
pub struct BatchedCoSim {
    lanes: Vec<CoSimulation>,
}

impl BatchedCoSim {
    /// Assembles a batch from fully constructed lanes.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is empty, wider than [`MAX_LOCKSTEP_WIDTH`], or
    /// mixes substep counts (lanes must share the substep schedule to step
    /// in lockstep; geometry *may* differ, at the cost of the fallback).
    pub fn new(lanes: Vec<CoSimulation>) -> Self {
        assert!(!lanes.is_empty(), "a batch needs at least one lane");
        assert!(
            lanes.len() <= MAX_LOCKSTEP_WIDTH,
            "batch width {} exceeds MAX_LOCKSTEP_WIDTH ({MAX_LOCKSTEP_WIDTH})",
            lanes.len()
        );
        assert!(
            lanes
                .iter()
                .all(|l| l.cfg.substeps == lanes[0].cfg.substeps),
            "lockstep lanes must share a substep count"
        );
        Self { lanes }
    }

    /// Number of lanes in the batch.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Runs every lane to completion and returns their results in lane
    /// order. Each element is bit-identical to `run_sim` of that lane's
    /// configuration.
    pub fn run(self) -> Vec<RunResult> {
        let analyzers = self
            .lanes
            .iter()
            .map(|l| FrameAnalyzer::new(l.cfg.detect, l.cfg.severity, l.cfg.analysis.threads))
            .collect();
        run_batch_with_analyzers(self.lanes, analyzers, None)
            .into_iter()
            .map(|(result, _, _)| result)
            .collect()
    }
}

/// The batch engine behind [`BatchedCoSim`], on caller-supplied (possibly
/// recycled) analyzers, handing each lane's analyzer and geometry parts back
/// for arena reuse — the batched analogue of
/// [`CoSimulation::run_with_analyzer`]. `on_lane_done` fires with the lane
/// index as each lane finishes (sweep liveness).
pub(crate) fn run_batch_with_analyzers(
    sims: Vec<CoSimulation>,
    analyzers: Vec<FrameAnalyzer>,
    on_lane_done: Option<&dyn Fn(usize)>,
) -> Vec<(RunResult, FrameAnalyzer, GeomParts)> {
    // The per-lane model parts, split by mutability: the window producer and
    // thermal solver mutate `LaneMut`, while the analysis contexts hold
    // shared borrows of `LaneRo` for the whole run.
    struct LaneRo {
        cfg: SimConfig,
        fp: Floorplan,
        grid: FloorplanGrid,
        grid_peaked: FloorplanGrid,
        power: PowerModel,
        idle_act: ActivityCounters,
        track_idx: Vec<usize>,
    }
    struct LaneMut {
        thermal: ThermalSim,
        core: CoreSim,
        gen: WorkloadGen,
    }
    /// Per-lane loop state mirroring the locals of the serial schedule.
    struct LaneRun {
        time_s: f64,
        instructions: u64,
        delta_counts: Option<(HistSpec, Vec<f64>, Vec<usize>)>,
        window: Option<WindowOutput>,
        finished: bool,
    }
    /// The owned accumulators of one lane's `AnalysisCtx`, extracted so the
    /// borrows of `LaneRo` end before the model parts move into the results.
    struct CtxOut {
        analyzer: FrameAnalyzer,
        records: Vec<StepRecord>,
        sev_series: TimeSeries,
        census: HotspotCensus,
        tuh: Option<f64>,
        last_frame: Option<ThermalFrame>,
        last_instructions: u64,
    }

    let k = sims.len();
    assert!(k >= 1, "a batch needs at least one lane");
    assert!(
        k <= MAX_LOCKSTEP_WIDTH,
        "batch width {k} exceeds MAX_LOCKSTEP_WIDTH ({MAX_LOCKSTEP_WIDTH})"
    );
    assert_eq!(k, analyzers.len(), "one analyzer per lane");
    let substeps = sims[0].cfg.substeps;
    assert!(
        sims.iter().all(|s| s.cfg.substeps == substeps),
        "lockstep lanes must share a substep count"
    );
    let dt_sub = sims[0].cfg.window_seconds() / substeps as f64;

    let mut ro = Vec::with_capacity(k);
    let mut lanes = Vec::with_capacity(k);
    for sim in sims {
        let CoSimulation {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            thermal,
            core,
            gen,
            idle_act,
        } = sim;
        let track_idx: Vec<usize> = cfg
            .track_units
            .iter()
            .map(|n| {
                fp.unit_index_by_name(n)
                    // hotgauge-lint: allow(L001, "track_units validated against the floorplan in try_new; a miss here is a bug, not user input")
                    .unwrap_or_else(|| panic!("unknown tracked unit {n}"))
            })
            .collect();
        ro.push(LaneRo {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            idle_act,
            track_idx,
        });
        lanes.push(LaneMut { thermal, core, gen });
    }

    // Per-lane frame-storage return paths, the batched counterpart of the
    // serial schedule's buffer pool: each lane re-extracts into the buffer
    // its own analysis retired two substeps ago.
    let mut recycle_rxs = Vec::with_capacity(k);
    let mut ctxs: Vec<AnalysisCtx<'_>> = ro
        .iter()
        .zip(analyzers)
        .map(|(r, mut analyzer)| {
            analyzer.reconfigure(r.cfg.detect, r.cfg.severity, r.cfg.analysis.threads);
            // Same engagement rule as the serial schedule (see
            // `run_with_analyzer`): TUH runs without tracked units.
            let prefilter =
                r.cfg.analysis.prefilter && r.cfg.stop_at_first_hotspot && r.track_idx.is_empty();
            let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<ThermalFrame>();
            recycle_rxs.push(recycle_rx);
            AnalysisCtx {
                analyzer,
                cfg: &r.cfg,
                fp: &r.fp,
                grid: &r.grid,
                track_idx: &r.track_idx,
                prefilter,
                records: Vec::new(),
                sev_series: TimeSeries::default(),
                census: HotspotCensus::new(),
                tuh: None,
                last_frame: None,
                last_instructions: 0,
                recycle: Some(recycle_tx),
            }
        })
        .collect();

    let mut runs: Vec<LaneRun> = ro
        .iter()
        .map(|r| LaneRun {
            time_s: 0.0,
            instructions: 0,
            delta_counts: r
                .cfg
                .delta_histogram
                .map(|h| (h, edges(&h), vec![0usize; h.bins])),
            window: None,
            finished: false,
        })
        .collect();

    let mut scratch = LockstepScratch::new();
    let mut active_idx: Vec<usize> = Vec::with_capacity(k);
    loop {
        // Window start: every unfinished lane with budget left produces its
        // perf/power window; lanes whose budget ran out finish here, exactly
        // where the serial loop condition would have stopped them.
        let mut any = false;
        for i in 0..k {
            if runs[i].finished {
                continue;
            }
            if !(runs[i].instructions < ro[i].cfg.max_instructions
                && runs[i].time_s < ro[i].cfg.max_time_s)
            {
                runs[i].finished = true;
                if let Some(cb) = on_lane_done {
                    cb(i);
                }
                continue;
            }
            let lane = &mut lanes[i];
            let w = produce_window(
                &ro[i].cfg,
                &ro[i].fp,
                &ro[i].grid,
                &ro[i].grid_peaked,
                &ro[i].power,
                &lane.thermal,
                &mut lane.core,
                &mut lane.gen,
                &ro[i].idle_act,
            );
            runs[i].instructions += w.instr_delta;
            counter!("pipeline.substeps", substeps);
            runs[i].window = Some(w);
            any = true;
        }
        if !any {
            break;
        }

        for _ in 0..substeps {
            // The active set is re-evaluated every substep: a lane that
            // stopped at substep s takes no thermal step at s + 1, exactly
            // like the serial `break 'outer`.
            active_idx.clear();
            for (i, run) in runs.iter().enumerate() {
                if !run.finished && run.window.is_some() {
                    active_idx.push(i);
                }
            }
            if active_idx.is_empty() {
                break;
            }

            {
                let _stage = span!("stage.thermal");
                let mut therm: Vec<&mut ThermalSim> = Vec::with_capacity(active_idx.len());
                let mut want = active_idx.iter().peekable();
                for (j, lane) in lanes.iter_mut().enumerate() {
                    if want.peek() == Some(&&j) {
                        want.next();
                        therm.push(&mut lane.thermal);
                    }
                }
                let maps: Vec<&[f64]> = active_idx
                    .iter()
                    .filter_map(|&i| runs[i].window.as_ref().map(|w| w.power_map.as_slice()))
                    .collect();
                step_lockstep(&mut therm, &maps, dt_sub, &mut scratch);
            }

            for &i in active_idx.iter() {
                let Some((power_w, ipc)) = runs[i].window.as_ref().map(|w| (w.power_w, w.ipc))
                else {
                    continue;
                };
                runs[i].time_s += dt_sub;
                let (frame, frame_max) = match recycle_rxs[i].try_recv() {
                    Ok(retired) => lanes[i].thermal.die_frame_with_max_into(retired.temps),
                    Err(_) => lanes[i].thermal.die_frame_with_max(),
                };
                let proceed = {
                    let _stage = span!("stage.detect");
                    ctxs[i].process(SubstepMsg {
                        frame,
                        frame_max,
                        time_s: runs[i].time_s,
                        power_w,
                        ipc,
                        instructions: runs[i].instructions,
                    })
                };
                if !proceed {
                    // Stop-at-first-hotspot: the lane ends mid-window, so it
                    // must not take further steps nor accumulate this
                    // window's ΔT histogram (serial breaks before both).
                    runs[i].finished = true;
                    runs[i].window = None;
                    if let Some(cb) = on_lane_done {
                        cb(i);
                    }
                }
            }
        }

        // Window end for lanes that completed all substeps.
        for (run, lane) in runs.iter_mut().zip(lanes.iter()) {
            let Some(w) = run.window.take() else { continue };
            if let Some((ref h, _, ref mut counts)) = run.delta_counts {
                accumulate_deltas(h, counts, &w.frame_before, &lane.thermal.die_frame());
            }
        }
    }

    let outs: Vec<CtxOut> = ctxs
        .into_iter()
        .map(|c| {
            let AnalysisCtx {
                analyzer,
                records,
                sev_series,
                census,
                tuh,
                last_frame,
                last_instructions,
                ..
            } = c;
            CtxOut {
                analyzer,
                records,
                sev_series,
                census,
                tuh,
                last_frame,
                last_instructions,
            }
        })
        .collect();

    let mut results = Vec::with_capacity(k);
    for (((r, lane), mut out), run) in ro.into_iter().zip(lanes).zip(outs).zip(runs) {
        let stopped = r.cfg.stop_at_first_hotspot && out.tuh.is_some();
        let total_instructions = if stopped {
            out.last_instructions
        } else {
            run.instructions
        };
        let final_frame = if stopped {
            // hotgauge-lint: allow(L001, "tuh is only set by AnalysisCtx::process, which stores last_frame in the same match arm before returning false")
            out.last_frame.take().expect("stopping substep has a frame")
        } else {
            lane.thermal.die_frame()
        };
        let result = RunResult {
            config: r.cfg,
            records: out.records,
            tuh_s: out.tuh,
            census: out.census,
            delta_hist: run.delta_counts.map(|(_, e, c)| (e, c)),
            total_instructions,
            final_frame,
            sev_series: out.sev_series,
        };
        let parts = GeomParts {
            fp: r.fp,
            grid: r.grid,
            grid_peaked: r.grid_peaked,
            power: r.power,
            thermal: lane.thermal,
        };
        results.push((result, out.analyzer, parts));
    }
    results
}

/// One produced perf/power window, ready for thermal substepping.
struct WindowOutput {
    ipc: f64,
    power_w: f64,
    /// Instructions represented by the window (`ipc ×` window cycles).
    instr_delta: u64,
    power_map: Vec<f64>,
    /// Die frame before the window's substeps (Fig. 2 ΔT histogram).
    frame_before: ThermalFrame,
}

/// Runs one perf sample + power evaluation + rasterization — stages 1–3 of
/// the per-window loop. Only the core/workload models are mutated; the
/// thermal state is read for leakage feedback.
#[allow(clippy::too_many_arguments)]
fn produce_window(
    cfg: &SimConfig,
    fp: &Floorplan,
    grid: &FloorplanGrid,
    grid_peaked: &FloorplanGrid,
    power: &PowerModel,
    thermal: &ThermalSim,
    core: &mut CoreSim,
    gen: &mut WorkloadGen,
    idle_act: &ActivityCounters,
) -> WindowOutput {
    // 1. Performance window (sampled).
    let window = {
        let _stage = span!("stage.perf");
        core.run_instructions(gen, cfg.sample_instrs)
    };
    let ipc = window.ipc();
    let instr_delta = (ipc * CoreConfig::TIME_STEP_CYCLES as f64) as u64;

    // 2. Power from activity + temperature.
    let frame_before = thermal.die_frame();
    let breakdown = {
        let _stage = span!("stage.power");
        let temps = unit_temperatures(fp, grid, &frame_before);
        let mut cores: Vec<CoreWindow<'_>> = (0..7)
            .map(|_| {
                if cfg.background_idle {
                    CoreWindow::Active {
                        activity: idle_act,
                        duty: IDLE_DUTY_CYCLE,
                    }
                } else {
                    CoreWindow::Parked
                }
            })
            .collect();
        cores[cfg.target_core] = CoreWindow::Active {
            activity: &window,
            duty: 1.0,
        };
        power.evaluate(&cores, &temps)
    };
    // 3. Rasterize unit watts onto the active-layer grid.
    let power_map = {
        let _stage = span!("stage.rasterize");
        let mut map = grid.power_map(&breakdown.unit_watts_smooth);
        grid_peaked.accumulate_power_map(&breakdown.unit_watts_peaked, &mut map);
        map
    };
    WindowOutput {
        ipc,
        power_w: breakdown.total_w(),
        instr_delta,
        power_map,
        frame_before,
    }
}

/// One analyzed substep handed from the producer to the analysis stage.
struct SubstepMsg {
    frame: ThermalFrame,
    /// Frame max, tracked during extraction (drives the prefilter and the
    /// record's `max_temp_c`).
    frame_max: f64,
    time_s: f64,
    power_w: f64,
    ipc: f64,
    /// Producer instruction counter at this substep's window.
    instructions: u64,
}

/// The analysis side of the pipeline: everything the per-substep metrics
/// block reads and accumulates, so it can run inline or on the overlap
/// worker with identical results.
struct AnalysisCtx<'a> {
    analyzer: FrameAnalyzer,
    cfg: &'a SimConfig,
    fp: &'a Floorplan,
    grid: &'a FloorplanGrid,
    track_idx: &'a [usize],
    prefilter: bool,
    records: Vec<StepRecord>,
    sev_series: TimeSeries,
    census: HotspotCensus,
    tuh: Option<f64>,
    /// The last analyzed frame (the stopping frame in TUH mode).
    last_frame: Option<ThermalFrame>,
    /// Producer instruction counter at the last analyzed substep.
    last_instructions: u64,
    /// Hands analyzed frames back to the producer for storage reuse. With
    /// the depth-2 channel this gives the pipeline its second (and third)
    /// state buffer: the producer extracts substep `t + 2` into the buffer
    /// the analyzer retired at substep `t`, so steady-state overlap
    /// allocates no frames at all.
    recycle: Option<std::sync::mpsc::Sender<ThermalFrame>>,
}

impl AnalysisCtx<'_> {
    /// Analyzes one substep and appends its record. Returns `false` when a
    /// stop-at-first-hotspot run must end at this substep.
    fn process(&mut self, msg: SubstepMsg) -> bool {
        let SubstepMsg {
            frame,
            frame_max,
            time_s,
            power_w,
            ipc,
            instructions,
        } = msg;
        let analysis = self
            .analyzer
            .analyze_with_max(&frame, frame_max, self.prefilter);
        self.census.record(&analysis.hotspots, self.grid, self.fp);
        if self.tuh.is_none() && !analysis.hotspots.is_empty() {
            self.tuh = Some(time_s);
        }

        // Candidate cells clear the temperature threshold before the
        // MLTD/severity filters; only counted when telemetry is on.
        if_telemetry! {
            if !analysis.prefiltered {
                let candidates = frame
                    .temps
                    .iter()
                    .filter(|&&t| t >= self.cfg.detect.t_threshold_c)
                    .count();
                counter!("detect.candidates", candidates);
            }
        }
        counter!("detect.hotspots", analysis.hotspots.len());

        let unit_severity: Vec<f64> = self
            .track_idx
            .iter()
            .map(|&u| {
                let mltd = self.analyzer.mltd();
                self.grid.coverage[u]
                    .iter()
                    .map(|&(cell, _)| self.cfg.severity.severity(frame.temps[cell], mltd[cell]))
                    .fold(0.0, f64::max)
            })
            .collect();

        let temp_hist = self.cfg.temp_histogram.map(|h| {
            let (_, counts) = hotgauge_thermal::frame::histogram(&frame.temps, h.lo, h.hi, h.bins);
            counts
        });

        self.sev_series.push(time_s, analysis.peak_severity);
        self.records.push(StepRecord {
            time_s,
            max_temp_c: frame_max,
            mean_temp_c: frame.mean(),
            min_temp_c: frame.min(),
            max_mltd_c: analysis.max_mltd_c,
            peak_severity: analysis.peak_severity,
            hotspot_count: analysis.hotspots.len(),
            power_w,
            ipc,
            unit_severity,
            temp_hist,
        });
        self.last_instructions = instructions;
        // Retire the previously analyzed frame to the producer; the newest
        // frame is always kept (it is the stopping frame in TUH mode).
        if let Some(prev) = self.last_frame.replace(frame) {
            if let Some(tx) = &self.recycle {
                // A closed return channel only means the producer is done.
                let _ = tx.send(prev);
            }
        }
        !(self.cfg.stop_at_first_hotspot && self.tuh.is_some())
    }
}

/// Fig. 2: per-cell ΔT over one window, accumulated into clamped edge bins.
fn accumulate_deltas(
    h: &HistSpec,
    counts: &mut [usize],
    before: &ThermalFrame,
    after: &ThermalFrame,
) {
    let width = (h.hi - h.lo) / h.bins as f64;
    for (a, b) in after.temps.iter().zip(&before.temps) {
        let d = a - b;
        let mut bin = ((d - h.lo) / width).floor() as isize;
        bin = bin.clamp(0, h.bins as isize - 1);
        counts[bin as usize] += 1;
    }
}

/// Idle warm-up states are identical for every run that shares a floorplan,
/// grid resolution, and border — and a TUH sweep launches hundreds of such
/// runs. Cache them process-wide.
/// The background-core activity window for one idle stream, memoized
/// process-wide.
///
/// The idle stream is a pure function of its seed — the idle profile and
/// the default core/memory configs are compile-time constants — and every
/// run of a sweep grid derives its idle seed from the same `cfg.seed`, so
/// a fig11-style 133-run grid has only as many distinct idle streams as
/// target cores. Simulating the 250 k-instruction window once per *run*
/// rather than once per *stream* was a measurable slice of construction
/// time; memoizing a deterministic function returns bit-identical
/// counters by definition.
fn idle_activity_cached(seed: u64) -> ActivityCounters {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static CACHE: OnceLock<parking_lot::Mutex<HashMap<u64, ActivityCounters>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| parking_lot::Mutex::new(HashMap::new()));
    if let Some(act) = cache.lock().get(&seed) {
        return *act;
    }
    let mut idle_core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    let mut idle_gen = WorkloadGen::new(idle_profile(), seed);
    idle_core.warm_up(&mut idle_gen, 200_000);
    let act = idle_core.run_instructions(&mut idle_gen, 50_000);
    cache.lock().insert(seed, act);
    act
}

fn warmup_state_cached(
    cfg: &SimConfig,
    fp: &Floorplan,
    grid: &FloorplanGrid,
    power: &PowerModel,
    thermal: &ThermalSim,
    idle_act: &ActivityCounters,
) -> Vec<f64> {
    use std::collections::HashMap;
    use std::sync::{Arc, OnceLock};
    static CACHE: OnceLock<parking_lot::Mutex<HashMap<String, Arc<Vec<f64>>>>> = OnceLock::new();
    let key = format!("{}|{}|{}", fp.name, cfg.cell_um, cfg.border_mm);
    let cache = CACHE.get_or_init(|| parking_lot::Mutex::new(HashMap::new()));
    if let Some(state) = cache.lock().get(&key) {
        return state.as_ref().clone();
    }
    let idle_power = CoSimulation::idle_power_map(cfg, fp, grid, power, thermal, idle_act);
    let state = hotgauge_thermal::warmup::initial_state(
        thermal.model(),
        Warmup::Idle,
        &idle_power,
        IDLE_WARMUP_DURATION_S,
        25e-3,
    );
    cache.lock().insert(key, Arc::new(state.clone()));
    state
}

fn edges(h: &HistSpec) -> Vec<f64> {
    let width = (h.hi - h.lo) / h.bins as f64;
    (0..=h.bins).map(|i| h.lo + i as f64 * width).collect()
}

/// Mean temperature of each floorplan unit, °C, from an active-layer frame
/// aligned with the rasterized grid (coverage-weighted).
pub fn unit_temperatures(fp: &Floorplan, grid: &FloorplanGrid, frame: &ThermalFrame) -> Vec<f64> {
    assert_eq!(grid.nx, frame.nx, "grid/frame misalignment");
    assert_eq!(grid.ny, frame.ny, "grid/frame misalignment");
    fp.units
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let cells = &grid.coverage[i];
            if cells.is_empty() {
                return frame.mean();
            }
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for &(cell, frac) in cells {
                acc += frame.temps[cell] * frac;
                wsum += frac;
            }
            acc / wsum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        let mut c = SimConfig::new(TechNode::N7, "hmmer");
        c.cell_um = 300.0;
        c.substeps = 1;
        c.sample_instrs = 8_000;
        c.max_time_s = 2e-3; // 10 windows
        c.warmup = Warmup::Cold;
        c
    }

    #[test]
    fn cosim_runs_and_heats_the_die() {
        let r = run_sim(quick_cfg());
        assert!(!r.records.is_empty());
        let first = &r.records[0];
        let last = r.records.last().unwrap();
        assert!(
            last.max_temp_c > first.max_temp_c,
            "die should heat: {} -> {}",
            first.max_temp_c,
            last.max_temp_c
        );
        assert!(last.power_w > 1.0, "chip power {}", last.power_w);
        assert!(last.ipc > 0.1);
        assert!(r.total_instructions > 0);
    }

    #[test]
    fn idle_warmup_starts_warmer() {
        let mut cold = quick_cfg();
        cold.max_time_s = 4e-4;
        let mut warm = cold.clone();
        warm.warmup = Warmup::Idle;
        let rc = run_sim(cold);
        let rw = run_sim(warm);
        assert!(
            rw.records[0].mean_temp_c > rc.records[0].mean_temp_c + 0.5,
            "idle warmup should raise the initial temperature: {} vs {}",
            rw.records[0].mean_temp_c,
            rc.records[0].mean_temp_c
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_sim(quick_cfg());
        let b = run_sim(quick_cfg());
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.max_temp_c, rb.max_temp_c);
            assert_eq!(ra.ipc, rb.ipc);
        }
    }

    #[test]
    fn tracked_unit_severity_is_recorded() {
        let mut c = quick_cfg();
        c.track_units = vec!["core0.fpIWin".into(), "core0.intRF".into()];
        let r = run_sim(c);
        for rec in &r.records {
            assert_eq!(rec.unit_severity.len(), 2);
            for &s in &rec.unit_severity {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn histograms_are_collected() {
        let mut c = quick_cfg();
        c.temp_histogram = Some(HistSpec {
            lo: 30.0,
            hi: 130.0,
            bins: 50,
        });
        c.delta_histogram = Some(HistSpec {
            lo: -2.0,
            hi: 2.0,
            bins: 40,
        });
        let r = run_sim(c);
        let rec = r.records.last().unwrap();
        let h = rec.temp_hist.as_ref().expect("temp hist requested");
        let cells = r.final_frame.temps.len();
        assert_eq!(h.iter().sum::<usize>(), cells);
        let (e, counts) = r.delta_hist.expect("delta hist requested");
        assert_eq!(e.len(), 41);
        assert_eq!(counts.iter().sum::<usize>(), cells * r.records.len());
    }

    #[test]
    fn default_direct_solver_falls_back_at_production_resolution() {
        // The 300 µm test grid's RCM envelope is ~280 entries/row — far
        // past the ~48/row crossover where two triangular sweeps stop
        // beating warm-started CG — so the default DirectCholesky strategy
        // must transparently prepare CG instead.
        let cfg = quick_cfg();
        assert_eq!(cfg.solver, SolverStrategy::DirectCholesky);
        let sim = CoSimulation::new(cfg);
        assert_eq!(sim.thermal().active_solver(), Some(SolverStrategy::Cg));
    }

    #[test]
    fn direct_and_cg_cosim_fields_agree_to_microkelvin() {
        // A coarse grid small enough to factor quickly in debug builds.
        let mut cfg = quick_cfg();
        cfg.cell_um = 400.0;
        cfg.border_mm = 2.0;
        cfg.max_time_s = 1e-3; // 5 windows
        let dt = cfg.window_seconds() / cfg.substeps as f64;

        let mut direct = CoSimulation::new(cfg.clone());
        // Lift the profile budget so the direct path genuinely factors
        // (the default crossover would fall back to CG here).
        direct.thermal_mut().chol = hotgauge_thermal::chol::CholOptions::unbounded();
        direct
            .thermal_mut()
            .set_strategy(SolverStrategy::DirectCholesky);
        direct.thermal_mut().prepare(dt);
        assert_eq!(
            direct.thermal().active_solver(),
            Some(SolverStrategy::DirectCholesky)
        );
        let rd = direct.run();

        cfg.solver = SolverStrategy::Cg;
        let mut cg = CoSimulation::new(cfg);
        // The production CG tolerance (1e-6 relative residual) leaves
        // ~1e-4 °C of solver error; tighten it so this comparison measures
        // the direct solver against a near-exact reference.
        cg.thermal_mut().cg.tolerance = 1e-12;
        let rc = cg.run();

        assert_eq!(rd.records.len(), rc.records.len());
        for (a, b) in rd.final_frame.temps.iter().zip(&rc.final_frame.temps) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs cg {b}");
        }
        for (a, b) in rd.records.iter().zip(&rc.records) {
            assert!((a.max_temp_c - b.max_temp_c).abs() < 1e-6);
            assert!((a.mean_temp_c - b.mean_temp_c).abs() < 1e-6);
        }
    }

    #[test]
    fn cloned_cosim_replays_identically() {
        let mut cfg = quick_cfg();
        cfg.max_time_s = 6e-4;
        let sim = CoSimulation::new(cfg);
        let a = sim.clone().run();
        let b = sim.run();
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.max_temp_c, rb.max_temp_c);
            assert_eq!(ra.ipc, rb.ipc);
        }
    }

    #[test]
    fn batch_mates_share_the_thermal_model() {
        let sim = CoSimulation::new(quick_cfg());
        let mate = CoSimulation::try_new_reusing(quick_cfg(), Some(sim.clone_geom_parts()))
            .expect("valid config");
        assert!(std::sync::Arc::ptr_eq(
            sim.thermal().model(),
            mate.thermal().model()
        ));
    }

    /// Full bitwise equality of two runs (every field `PartialEq` offers).
    fn assert_same_result(a: &RunResult, b: &RunResult) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.tuh_s, b.tuh_s);
        assert_eq!(a.census, b.census);
        assert_eq!(a.sev_series, b.sev_series);
        assert_eq!(a.final_frame, b.final_frame);
        assert_eq!(a.total_instructions, b.total_instructions);
        assert_eq!(a.delta_hist, b.delta_hist);
    }

    #[test]
    fn overlapped_run_reproduces_serial_run_exactly() {
        let mut serial = quick_cfg();
        serial.track_units = vec!["core0.intRF".into()];
        serial.temp_histogram = Some(HistSpec {
            lo: 30.0,
            hi: 130.0,
            bins: 20,
        });
        serial.delta_histogram = Some(HistSpec {
            lo: -2.0,
            hi: 2.0,
            bins: 16,
        });
        let mut overlapped = serial.clone();
        serial.analysis = AnalysisConfig {
            threads: 1,
            overlap: false,
            prefilter: true,
        };
        overlapped.analysis = AnalysisConfig {
            threads: 2,
            overlap: true,
            prefilter: true,
        };
        assert_same_result(&run_sim(serial), &run_sim(overlapped));
    }

    #[test]
    fn overlapped_stop_mode_matches_serial_including_early_stop() {
        // Thresholds low enough that a hotspot fires mid-run, so the overlap
        // worker must stop the producer and the result must still match the
        // serial schedule bit for bit (frame, instruction count, records).
        let mut serial = quick_cfg();
        serial.stop_at_first_hotspot = true;
        serial.detect.t_threshold_c = 48.0;
        serial.detect.mltd_threshold_c = 0.05;
        let mut overlapped = serial.clone();
        serial.analysis = AnalysisConfig {
            threads: 1,
            overlap: false,
            prefilter: true,
        };
        overlapped.analysis = AnalysisConfig {
            threads: 2,
            overlap: true,
            prefilter: true,
        };
        let rs = run_sim(serial);
        let ro = run_sim(overlapped);
        assert!(
            rs.tuh_s.is_some(),
            "test premise: the lowered thresholds must trip a hotspot"
        );
        assert!(
            rs.records.len() < 10,
            "test premise: the stop must happen before the horizon"
        );
        assert_same_result(&rs, &ro);
    }

    #[test]
    fn prefilter_preserves_tuh_and_skips_subthreshold_metrics() {
        // At the paper's 80 °C threshold this short run never gets hot, so
        // the prefiltered TUH run skips every substep's analysis; TUH,
        // census, and the thermal trajectory are unaffected.
        let mut on = quick_cfg();
        on.stop_at_first_hotspot = true;
        let mut off = on.clone();
        on.analysis.prefilter = true;
        off.analysis.prefilter = false;
        off.analysis.overlap = false;
        on.analysis.overlap = false;
        let r_on = run_sim(on);
        let r_off = run_sim(off);
        assert_eq!(r_on.tuh_s, r_off.tuh_s);
        assert_eq!(r_on.census, r_off.census);
        assert_eq!(r_on.records.len(), r_off.records.len());
        assert_eq!(r_on.final_frame, r_off.final_frame);
        assert_eq!(r_on.total_instructions, r_off.total_instructions);
        for (a, b) in r_on.records.iter().zip(&r_off.records) {
            assert_eq!(a.max_temp_c, b.max_temp_c);
            assert_eq!(a.mean_temp_c, b.mean_temp_c);
            assert_eq!(a.power_w, b.power_w);
            assert_eq!(a.ipc, b.ipc);
            assert!(a.max_temp_c < 80.0, "premise: run stays sub-threshold");
            assert_eq!(a.max_mltd_c, 0.0, "prefiltered substeps record zeros");
            assert_eq!(a.peak_severity, 0.0);
            assert_eq!(a.hotspot_count, 0);
            assert_eq!(a.hotspot_count, b.hotspot_count);
        }
    }

    #[test]
    fn batched_lanes_reproduce_serial_runs_bitwise() {
        // Mixed workloads, seeds, horizons, and one ΔT histogram — the lane
        // with the longer horizon keeps stepping after its mates finish.
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.benchmark = "povray".into();
        b.seed = 7;
        let mut c = quick_cfg();
        c.benchmark = "gcc".into();
        c.max_time_s = 2.6e-3;
        c.delta_histogram = Some(HistSpec {
            lo: -2.0,
            hi: 2.0,
            bins: 16,
        });
        let cfgs = [a, b, c];
        let want: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
        let batch = BatchedCoSim::new(cfgs.into_iter().map(CoSimulation::new).collect());
        assert_eq!(batch.width(), 3);
        let got = batch.run();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_same_result(g, w);
        }
    }

    #[test]
    fn batched_stop_lane_stops_alone_and_matches_serial() {
        // One TUH lane (with the prefilter engaged) trips mid-run and must
        // drop out of the lockstep batch without perturbing its batch mate,
        // which runs to the horizon.
        let mut hot = quick_cfg();
        hot.stop_at_first_hotspot = true;
        hot.detect.t_threshold_c = 48.0;
        hot.detect.mltd_threshold_c = 0.05;
        hot.analysis.prefilter = true;
        let cold = quick_cfg();
        let want_hot = run_sim(hot.clone());
        let want_cold = run_sim(cold.clone());
        assert!(
            want_hot.tuh_s.is_some(),
            "test premise: the lowered thresholds must trip a hotspot"
        );
        assert!(
            want_hot.records.len() < want_cold.records.len(),
            "test premise: the stop lane must end before its mate"
        );
        let got = BatchedCoSim::new(vec![CoSimulation::new(hot), CoSimulation::new(cold)]).run();
        assert_same_result(&got[0], &want_hot);
        assert_same_result(&got[1], &want_cold);
    }

    #[test]
    fn batch_of_one_matches_run_sim() {
        let cfg = quick_cfg();
        let want = run_sim(cfg.clone());
        let got = BatchedCoSim::new(vec![CoSimulation::new(cfg)]).run();
        assert_same_result(&got[0], &want);
    }

    #[test]
    fn mixed_geometry_batch_falls_back_per_lane_and_stays_exact() {
        // Different cell sizes mean different node counts: the lockstep
        // solver cannot batch these, so it steps each lane solo — results
        // must still be bit-identical to independent runs.
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.cell_um = 360.0;
        let want_a = run_sim(a.clone());
        let want_b = run_sim(b.clone());
        let got = BatchedCoSim::new(vec![CoSimulation::new(a), CoSimulation::new(b)]).run();
        assert_same_result(&got[0], &want_a);
        assert_same_result(&got[1], &want_b);
    }

    #[test]
    fn run_many_preserves_order() {
        let mut a = quick_cfg();
        a.benchmark = "hmmer".into();
        let mut b = quick_cfg();
        b.benchmark = "povray".into();
        let rs = run_many(vec![a, b], 2);
        assert_eq!(rs[0].config.benchmark, "hmmer");
        assert_eq!(rs[1].config.benchmark, "povray");
    }

    #[test]
    fn unit_temperatures_align() {
        let cfg = quick_cfg();
        let fp = build_floorplan(&cfg);
        // Two rasterizations: leakage + clock power spreads uniformly over
        // each unit, while utilization-driven switching concentrates in the
        // unit's hot structures (see `rasterize_with_concentration`).
        let grid = FloorplanGrid::rasterize(&fp, cfg.cell_um);
        let _grid_peaked = FloorplanGrid::rasterize_with_concentration(
            &fp,
            cfg.cell_um,
            Some(UNIT_POWER_CONCENTRATION),
        );
        let frame = ThermalFrame::uniform(grid.nx, grid.ny, cfg.cell_um * 1e-6, 55.0);
        let temps = unit_temperatures(&fp, &grid, &frame);
        assert_eq!(temps.len(), fp.units.len());
        assert!(temps.iter().all(|&t| (t - 55.0).abs() < 1e-9));
    }
}
