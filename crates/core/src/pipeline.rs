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
use hotgauge_perf::config::CoreConfig;
use hotgauge_power::model::{CoreWindow, PowerModel, PowerParams};
use hotgauge_thermal::frame::ThermalFrame;
use hotgauge_thermal::model::{SolverStrategy, ThermalModel, ThermalSim};
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::benchmark_profile;
use hotgauge_workloads::idle::{idle_profile, IDLE_DUTY_CYCLE, IDLE_WARMUP_DURATION_S};

use crate::activity_trace::{first_window, trace_table, PerfSource, StreamSpec, ROI_WARMUP_INSTRS};
use crate::analysis::{AnalysisConfig, FrameAnalyzer};
use crate::detect::HotspotParams;
use crate::locations::HotspotCensus;
use crate::series::TimeSeries;
use crate::severity::SeverityParams;
use crate::throttle::{LaneThrottle, ThrottlePolicy};
use crate::units;

/// Intra-unit power concentration used by the pipeline: 80 % of a unit's
/// power dissipates in a centered sub-rectangle covering 15 % of its area
/// (≈5.7× density), standing in for the sub-unit granularity of a 50+-unit
/// floorplan.
pub const UNIT_POWER_CONCENTRATION: (f64, f64) = (0.15, 0.85);

/// Warm-up of the idle stream whose first window is the background cores'
/// activity.
const IDLE_ACTIVITY_WARMUP_INSTRS: u64 = 200_000;

/// Instructions of the background cores' idle activity window.
const IDLE_ACTIVITY_SAMPLE_INSTRS: u64 = 50_000;

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
    /// Inert: CG is the only thermal solver, so no value selects anything.
    /// Kept, with its default, so that every serialized config and run key
    /// is unchanged while `figbench`'s probe still reads it; it goes when
    /// the benchmark stops calling the solver knobs (ROADMAP.md, item 3).
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
    /// Severity-triggered DVFS throttling ([`ThrottlePolicy`]); `None` runs
    /// every window at the nominal operating point.
    pub throttle: Option<ThrottlePolicy>,
    /// Unit names whose peak severity is tracked per step (Fig. 13).
    pub track_units: Vec<String>,
    /// Record a temperature histogram per step (Fig. 8).
    pub temp_histogram: Option<HistSpec>,
    /// Accumulate the distribution of per-cell ΔT over each 200 µs window
    /// (Fig. 2).
    pub delta_histogram: Option<HistSpec>,
    /// The per-substep analysis stage's sub-threshold prefilter (see
    /// [`AnalysisConfig`]).
    pub analysis: AnalysisConfig,
    /// Inert: no thermal solver spawns threads. Kept, with its default, for
    /// the same reason as [`SimConfig::solver`].
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
            throttle: None,
            track_units: Vec::new(),
            temp_histogram: None,
            delta_histogram: None,
            analysis: AnalysisConfig::default(),
            solver_threads: 1,
        }
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
    /// Windows run at the throttled operating point of `config.throttle`
    /// (0 without a policy).
    pub throttled_windows: u64,
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

/// Runs many configurations on the sweep executor; results
/// keep input order. `threads = 0` sizes the pool to the hardware. See
/// [`crate::sweep`] for the executor and its batches.
pub fn run_many(cfgs: Vec<SimConfig>, threads: usize) -> Vec<RunResult> {
    crate::sweep::run_many_with(cfgs, threads, None)
}

/// A rejected [`SimConfig`]. These are the user-input-reachable failure
/// modes (CLI flags, sweep manifests); bench bins map them to exit code 2.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The benchmark name is not `idle`, a known SPEC2006 proxy, or a
    /// server-trace workload.
    UnknownBenchmark(String),
    /// `target_core` does not exist on the 7-core Skylake proxy.
    TargetCoreOutOfRange(usize),
    /// `substeps` must be at least 1.
    ZeroSubsteps,
    /// `cell_um` must be finite and positive.
    InvalidCellSize(f64),
    /// `max_time_s` must be finite and positive.
    InvalidHorizon(f64),
    /// `ic_area_factor` must be finite and at least 1 (white space is only
    /// ever added).
    InvalidIcAreaFactor(f64),
    /// Every `unit_scales` factor must be finite and positive.
    InvalidUnitScale(UnitKind, f64),
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
            ConfigError::InvalidCellSize(um) => {
                write!(f, "cell size {um} um must be a finite number > 0")
            }
            ConfigError::InvalidHorizon(s) => {
                write!(f, "horizon {s} s must be a finite number > 0")
            }
            ConfigError::InvalidIcAreaFactor(x) => {
                write!(f, "IC area factor {x} must be a finite number >= 1")
            }
            ConfigError::InvalidUnitScale(kind, x) => {
                write!(
                    f,
                    "scale factor {x} for unit {} must be a finite number > 0",
                    kind.label()
                )
            }
            ConfigError::UnknownTrackedUnit(name) => {
                write!(f, "tracked unit `{name}` is not a floorplan unit")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The assembled co-simulation state. `Clone` so construction (floorplan,
/// power model, warm-up, thermal system assembly) can be paid once and the
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
    perf: PerfSource,
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
    #[expect(
        clippy::panic,
        reason = "programmatic constructor for configs built in code; the CLI/manifest path goes through try_new and exits 2 on bad input"
    )]
    pub fn new(cfg: SimConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid simulation config: {e}"))
    }

    /// Validates the configuration and builds every model of the toolchain,
    /// returning a typed [`ConfigError`] on user-reachable misconfiguration
    /// instead of panicking.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        Self::try_new_reusing(cfg, None)
    }

    /// [`CoSimulation::try_new`], optionally adopting the geometry-keyed
    /// model parts of a batch mate (see [`crate::sweep::run_batch`]).
    ///
    /// With `geom: Some(..)` the floorplan, rasterized grids, power model,
    /// and prepared thermal system are adopted instead of rebuilt; the
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
        if !(cfg.cell_um.is_finite() && cfg.cell_um > 0.0) {
            return Err(ConfigError::InvalidCellSize(cfg.cell_um));
        }
        if !(cfg.max_time_s.is_finite() && cfg.max_time_s > 0.0) {
            return Err(ConfigError::InvalidHorizon(cfg.max_time_s));
        }
        if !(cfg.ic_area_factor.is_finite() && cfg.ic_area_factor >= 1.0) {
            return Err(ConfigError::InvalidIcAreaFactor(cfg.ic_area_factor));
        }
        if let Some(&(kind, factor)) = cfg
            .unit_scales
            .iter()
            .find(|(_, f)| !(f.is_finite() && *f > 0.0))
        {
            return Err(ConfigError::InvalidUnitScale(kind, factor));
        }
        if benchmark_profile(&cfg.benchmark).is_none() {
            return Err(ConfigError::UnknownBenchmark(cfg.benchmark.clone()));
        }

        let (fp, grid, grid_peaked, power, adopted_thermal) = match geom {
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

        // The workload stream and the idle stream. Never adopted from a
        // batch mate: both depend on benchmark and seed.
        #[expect(
            clippy::panic,
            reason = "benchmark name validated at the top of try_new_reusing; a miss here is a bug, not user input"
        )]
        let profile = benchmark_profile(&cfg.benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {}", cfg.benchmark));
        let seed = cfg.seed
            ^ (cfg.target_core as u64) << 32
            ^ (cfg.node.generations_from_14() as u64) << 40;
        // A representative idle window for the background cores: the first
        // window of the idle stream.
        let idle_act = first_window(StreamSpec::new(
            idle_profile(),
            seed ^ 0xDEAD_BEEF,
            IDLE_ACTIVITY_WARMUP_INSTRS,
            IDLE_ACTIVITY_SAMPLE_INSTRS,
        ));

        // Thermal initial condition. An adopted simulation keeps its
        // prepared system (the backward-Euler matrix and CG workspace are
        // functions of geometry + dt only, both part of the geometry key)
        // but is reset to the uniform ambient state a fresh
        // `ThermalSim::new` starts from, so the warm-up below — and
        // everything after it — sees exactly the fresh-construction state.
        // This reset is the only state one lane inherits from another.
        let mut thermal = match adopted_thermal {
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
                ThermalSim::new(model, ambient)
            }
        };
        // Backward-Euler steps are solved to a relative residual that is far
        // below per-step temperature changes; tighter tolerances cost CG
        // iterations without changing any metric.
        thermal.cg.tolerance = 1e-6;
        if cfg.warmup == Warmup::Idle {
            let state = warmup_state_cached(&cfg, &fp, &grid, &power, &thermal, &idle_act);
            thermal.set_state(state);
        }
        // Prepare the system for the run's substep size now, so the one-time
        // assembly lands in construction rather than the first step. A no-op
        // on adopted simulations (same dt): batch mates share lane 0's
        // prepared system.
        thermal.prepare(cfg.window_seconds() / cfg.substeps as f64);

        // The workload stream: replayed from the trace table when another
        // run recorded it, else a core warmed up before the ROI as in the
        // paper. Opened last, so that the idle core and the thermal warm-up's
        // scratch are gone before a live core is built: construction holds
        // one core model at a time, and never one next to the warm-up.
        let perf = PerfSource::open(
            StreamSpec::new(profile, seed, ROI_WARMUP_INSTRS, cfg.sample_instrs),
            trace_table(),
        );

        Ok(Self {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            thermal,
            perf,
            idle_act,
        })
    }

    /// The floorplan being simulated.
    pub fn floorplan(&self) -> &Floorplan {
        &self.fp
    }

    /// Clones the geometry-keyed model parts of this simulation, so a
    /// batch mate with the same geometry key (see [`crate::sweep`]) can be
    /// constructed without rebuilding them
    /// ([`CoSimulation::try_new_reusing`] resets the cloned thermal state).
    /// The clone shares the model, the prepared backward-Euler matrix and
    /// its preconditioner through their `Arc`s.
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

    fn idle_power_map(
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
        // Idle power is dominated by clock + leakage; spread it uniformly.
        grid.power_map(&breakdown.unit_watts)
    }

    /// Runs the simulation to completion.
    pub fn run(self) -> RunResult {
        self.run_with_progress(None)
    }

    /// [`CoSimulation::run`] with a per-window liveness callback, so long
    /// runs can report progress while they execute. This is the run loop of
    /// every co-simulation, solo or in a [`crate::sweep::run_batch`] batch:
    /// per window the perf/power window, then per substep one
    /// [`ThermalSim::step`] and the frame analysis. The run ends when its
    /// instruction or time budget runs out, or mid-window at the first
    /// hotspot of a stop-at-first-hotspot run.
    ///
    /// `on_window` fires after each completed window, not for the window a
    /// stop-at-first-hotspot run stops in.
    pub fn run_with_progress(self, on_window: Option<&dyn Fn(WindowProgress)>) -> RunResult {
        let substeps = self.cfg.substeps;
        let dt_sub = self.cfg.window_seconds() / substeps as f64;
        let mut lane = Lane::new(self);
        let mut windows = 0;
        'run: while lane.instructions < lane.sim.cfg.max_instructions
            && lane.time_s < lane.sim.cfg.max_time_s
        {
            let throttled = lane.throttle.as_mut().and_then(LaneThrottle::begin_window);
            let w = lane.sim.produce_window(throttled);
            lane.instructions += w.instr_delta;
            counter!("pipeline.substeps", substeps);
            for _ in 0..substeps {
                {
                    let _stage = span!("stage.thermal");
                    lane.sim.thermal.step(&w.power_map, dt_sub);
                }
                if !lane.analyze_substep(dt_sub, w.power_w, w.ipc) {
                    // Stop-at-first-hotspot: the run ends mid-window, so its
                    // ΔT histogram skips this window.
                    break 'run;
                }
            }
            if let Some((ref h, _, ref mut counts)) = lane.delta_counts {
                accumulate_deltas(h, counts, &w.frame_before, &lane.sim.thermal.die_frame());
            }
            if let (Some(t), Some(&sev)) = (&mut lane.throttle, lane.sev_series.values.last()) {
                t.end_window(sev);
            }
            windows += 1;
            if let Some(cb) = on_window {
                let cfg = &lane.sim.cfg;
                cb(WindowProgress {
                    windows,
                    time_s: lane.time_s,
                    instructions: lane.instructions,
                    max_instructions: cfg.max_instructions,
                    max_time_s: cfg.max_time_s,
                });
            }
        }
        lane.finish()
    }

    /// Stages 1–3 of the per-window loop: one perf sample, the power
    /// evaluation and the rasterization. Only the perf source is mutated;
    /// the thermal state is read for leakage feedback. `throttled`
    /// is the window's throttled power model and cycle count (see
    /// [`LaneThrottle::begin_window`]); `None` runs it at the nominal point.
    fn produce_window(&mut self, throttled: Option<(&PowerModel, u64)>) -> WindowOutput {
        let cfg = &self.cfg;
        let (power, cycles) = throttled.unwrap_or((&self.power, CoreConfig::TIME_STEP_CYCLES));
        // 1. Performance window (sampled). At a lower clock the same
        // wall-clock window spans proportionally fewer cycles.
        let window = {
            let _stage = span!("stage.perf");
            self.perf.next_window(trace_table())
        };
        let ipc = window.ipc();
        let instr_delta = (ipc * cycles as f64) as u64;

        // 2. Power from activity + temperature.
        let frame_before = self.thermal.die_frame();
        let breakdown = {
            let _stage = span!("stage.power");
            let temps = unit_temperatures(&self.fp, &self.grid, &frame_before);
            let mut cores: Vec<CoreWindow<'_>> = (0..7)
                .map(|_| {
                    if cfg.background_idle {
                        CoreWindow::Active {
                            activity: &self.idle_act,
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
            let mut map = self.grid.power_map(&breakdown.unit_watts_smooth);
            self.grid_peaked
                .accumulate_power_map(&breakdown.unit_watts_peaked, &mut map);
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
}

/// The geometry-keyed model parts of one co-simulation — everything that
/// depends only on the floorplan/grid shape of a [`SimConfig`], not
/// on its workload or seed. A batch mate with lane 0's
/// [`crate::sweep::geom_key`] adopts a clone of lane 0's parts, skipping the
/// floorplan build, the two rasterizations, the power-model assembly and the
/// thermal-system preparation, and sharing lane 0's prepared matrix.
#[derive(Clone)]
pub(crate) struct GeomParts {
    pub(crate) fp: Floorplan,
    pub(crate) grid: FloorplanGrid,
    pub(crate) grid_peaked: FloorplanGrid,
    pub(crate) power: PowerModel,
    pub(crate) thermal: ThermalSim,
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

/// One co-simulation inside [`CoSimulation::run_with_progress`]: its
/// models, its loop state and the per-substep analysis accumulators.
struct Lane {
    sim: CoSimulation,
    analyzer: FrameAnalyzer,
    /// Floorplan indices of `cfg.track_units`.
    track_idx: Vec<usize>,
    /// Whether the sub-threshold prefilter engages (see [`Lane::new`]).
    prefilter: bool,
    /// The DVFS controller of `cfg.throttle`.
    throttle: Option<LaneThrottle>,
    time_s: f64,
    instructions: u64,
    delta_counts: Option<(HistSpec, Vec<f64>, Vec<usize>)>,
    records: Vec<StepRecord>,
    sev_series: TimeSeries,
    census: HotspotCensus,
    tuh: Option<f64>,
    /// The last analyzed frame. Its buffer is refilled in full by the next
    /// substep's extraction, so steady-state stepping allocates no frames.
    frame: Option<ThermalFrame>,
}

impl Lane {
    /// Wraps a constructed co-simulation with a frame analyzer of its own.
    fn new(sim: CoSimulation) -> Self {
        let cfg = &sim.cfg;
        let analyzer = FrameAnalyzer::new(cfg.detect, cfg.severity);
        #[expect(
            clippy::panic,
            reason = "track_units validated against the floorplan in try_new; a miss here is a bug, not user input"
        )]
        let track_idx: Vec<usize> = cfg
            .track_units
            .iter()
            .map(|n| {
                sim.fp
                    .unit_index_by_name(n)
                    .unwrap_or_else(|| panic!("unknown tracked unit {n}"))
            })
            .collect();
        // The prefilter records zeros for MLTD/severity on provably
        // hotspot-free substeps, so it only engages where those fields are
        // never consumed: stop-at-first-hotspot (TUH) runs without per-unit
        // severity tracking or a throttle controller reading the severity.
        // The TUH itself is exact either way — a frame whose max is at or
        // below `T_th` cannot contain a hotspot.
        let prefilter = cfg.analysis.prefilter
            && cfg.stop_at_first_hotspot
            && track_idx.is_empty()
            && cfg.throttle.is_none();
        let delta_counts = cfg
            .delta_histogram
            .map(|h| (h, edges(&h), vec![0usize; h.bins]));
        let throttle = cfg.throttle.map(|p| LaneThrottle::new(p, &sim.power));
        Self {
            sim,
            analyzer,
            track_idx,
            prefilter,
            throttle,
            time_s: 0.0,
            instructions: 0,
            delta_counts,
            records: Vec::new(),
            sev_series: TimeSeries::default(),
            census: HotspotCensus::new(),
            tuh: None,
            frame: None,
        }
    }

    /// Extracts and analyzes the frame of the substep the thermal model
    /// just took, and appends its record. Returns `false` when a
    /// stop-at-first-hotspot run must end at this substep.
    fn analyze_substep(&mut self, dt_sub: f64, power_w: f64, ipc: f64) -> bool {
        self.time_s += dt_sub;
        let time_s = self.time_s;
        let (frame, frame_max) = match self.frame.take() {
            Some(retired) => self.sim.thermal.die_frame_with_max_into(retired.temps),
            None => self.sim.thermal.die_frame_with_max(),
        };
        let _stage = span!("stage.detect");
        let cfg = &self.sim.cfg;
        let analysis = self
            .analyzer
            .analyze_with_max(&frame, frame_max, self.prefilter);
        self.census
            .record(&analysis.hotspots, &self.sim.grid, &self.sim.fp);
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
                    .filter(|&&t| t >= cfg.detect.t_threshold_c)
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
                self.sim.grid.coverage[u]
                    .iter()
                    .map(|&(cell, _)| cfg.severity.severity(frame.temps[cell], mltd[cell]))
                    .fold(0.0, f64::max)
            })
            .collect();

        let temp_hist = cfg.temp_histogram.map(|h| {
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
        self.frame = Some(frame);
        !(cfg.stop_at_first_hotspot && self.tuh.is_some())
    }

    /// The lane's result. A stopped lane took no step past its stopping
    /// substep, so the last analyzed frame is the final state either way. A
    /// lane that ran its stream live publishes the windows to the trace
    /// table here.
    fn finish(self) -> RunResult {
        self.sim.perf.publish(trace_table());
        let final_frame = self.frame.unwrap_or_else(|| self.sim.thermal.die_frame());
        RunResult {
            config: self.sim.cfg,
            records: self.records,
            tuh_s: self.tuh,
            census: self.census,
            delta_hist: self.delta_counts.map(|(_, e, c)| (e, c)),
            total_instructions: self.instructions,
            throttled_windows: self.throttle.map_or(0, |t| t.windows),
            final_frame,
            sev_series: self.sev_series,
        }
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

/// The idle thermal warm-up state of a run, memoized process-wide under the
/// key `floorplan name | cell size | border`. The key omits the idle stream
/// seed (`cfg.seed ^ target_core ^ node`) that drives `idle_act`, so the
/// first run of a geometry fixes the state every later run of that geometry
/// reads, whatever its seed or core (see ROADMAP.md, "Make runs
/// hermetic").
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
    let idle_power = CoSimulation::idle_power_map(fp, grid, power, thermal, idle_act);
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
    use crate::sweep::run_batch;

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
        assert_eq!(a.throttled_windows, b.throttled_windows);
        assert_eq!(a.delta_hist, b.delta_hist);
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
        // with the longer horizon runs on after its mates have finished.
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
        let cfgs = vec![a, b, c];
        let want: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
        let got = run_batch(cfgs, None);
        assert_eq!(got.len(), 3);
        for (g, w) in got.iter().zip(&want) {
            assert_same_result(g, w);
        }
    }

    #[test]
    fn batched_stop_lane_stops_alone_and_matches_serial() {
        // One TUH lane (with the prefilter engaged) trips mid-run and
        // stops, and its batch mate, which shares its prepared thermal
        // system, runs on to the horizon unperturbed.
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
        let got = run_batch(vec![hot, cold], None);
        assert_same_result(&got[0], &want_hot);
        assert_same_result(&got[1], &want_cold);
    }

    #[test]
    fn batch_of_one_matches_run_sim() {
        let cfg = quick_cfg();
        let want = run_sim(cfg.clone());
        let got = run_batch(vec![cfg], None);
        assert_same_result(&got[0], &want);
    }

    #[test]
    fn mixed_geometry_batch_falls_back_per_lane_and_stays_exact() {
        // Different cell sizes mean different geometry keys: lane 1 builds
        // its own parts instead of adopting lane 0's, and runs on its own
        // grid; results must still be bit-identical to independent runs.
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.cell_um = 360.0;
        let want_a = run_sim(a.clone());
        let want_b = run_sim(b.clone());
        let got = run_batch(vec![a, b], None);
        assert_same_result(&got[0], &want_a);
        assert_same_result(&got[1], &want_b);
    }

    /// The window reports of one run through `run_with_progress`.
    fn window_reports(cfg: SimConfig) -> (RunResult, Vec<WindowProgress>) {
        let seen = std::cell::RefCell::new(Vec::new());
        let on_window = |p: WindowProgress| seen.borrow_mut().push(p);
        let r = CoSimulation::new(cfg).run_with_progress(Some(&on_window));
        (r, seen.into_inner())
    }

    #[test]
    fn run_with_progress_reports_each_completed_window() {
        let mut cfg = quick_cfg();
        cfg.substeps = 2;
        let (r, seen) = window_reports(cfg.clone());
        assert_eq!(seen.len() * 2, r.records.len(), "one report per window");
        for (w, p) in seen.iter().enumerate() {
            assert_eq!(p.windows, w as u64 + 1);
            assert_eq!(p.max_instructions, cfg.max_instructions);
            assert_eq!(p.max_time_s, cfg.max_time_s);
            assert_eq!(p.time_s, r.records[2 * w + 1].time_s);
        }
        assert!(seen
            .windows(2)
            .all(|p| p[0].time_s <= p[1].time_s && p[0].instructions <= p[1].instructions));
        let last = seen.last().expect("the run completes windows");
        assert_eq!(Some(last.time_s), r.records.last().map(|x| x.time_s));
        assert_eq!(last.instructions, r.total_instructions);
        assert_same_result(&r, &run_sim(cfg));
    }

    #[test]
    fn run_with_progress_reports_nothing_for_the_stopping_window() {
        let mut cfg = quick_cfg();
        cfg.substeps = 2;
        cfg.stop_at_first_hotspot = true;
        cfg.detect.t_threshold_c = 60.0;
        cfg.detect.mltd_threshold_c = 0.05;
        let (r, seen) = window_reports(cfg);
        let stop = r
            .tuh_s
            .expect("test premise: the lowered thresholds trip a hotspot");
        assert_eq!(r.records.last().map(|x| x.time_s), Some(stop));
        assert!(
            r.records.len() < 20,
            "test premise: the stop ends the run early"
        );
        // Every report is of a window completed before the stopping one.
        assert_eq!(seen.len(), (r.records.len() - 1) / 2);
        assert!(seen.iter().all(|p| p.time_s < stop));
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
