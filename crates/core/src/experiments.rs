//! Canned experiment runners: one function per table/figure of the paper's
//! evaluation. The benchmark binaries in `hotgauge-bench` call these at full
//! fidelity; the integration tests call them with reduced scope.

use serde::{Deserialize, Serialize};

use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_floorplan::unit::UnitKind;
use hotgauge_power::model::{CoreWindow, PowerModel, PowerParams};
use hotgauge_power::validation::{silicon_cdyn, CdynValidationRow};
use hotgauge_thermal::analysis::{psi_tdp, PsiTdp, PAPER_THERMAL_BUDGET_C};
use hotgauge_thermal::model::ThermalModel;
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::spec2006;

use crate::activity_trace::{first_window, StreamSpec, ROI_WARMUP_INSTRS};
use crate::pipeline::{HistSpec, RunResult, SimConfig, SweepProgress};
use crate::series::TimeSeries;
use crate::sweep::run_many_batched_with;

/// Global knobs controlling the cost of the experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fidelity {
    /// Grid resolution, µm.
    pub cell_um: f64,
    /// Thermal-domain spreading border, mm.
    pub border_mm: f64,
    /// Thermal substeps per window.
    pub substeps: usize,
    /// Sampled instructions per window.
    pub sample_instrs: u64,
    /// Simulated-time cap per run, seconds.
    pub max_time_s: f64,
    /// Thread budget: the [`crate::sweep`] executor's worker-pool width for
    /// the multi-run drivers (`0` = one per hardware thread).
    pub threads: usize,
    /// Lockstep batch width for the multi-run drivers: up to this many
    /// same-geometry runs share one construction and advance together
    /// (`1` disables batching; results are identical at every width).
    pub batch: usize,
}

impl Fidelity {
    /// Fast preset for tests and quick sweeps (250 µm grid).
    pub fn fast() -> Self {
        Self {
            cell_um: 250.0,
            border_mm: 2.0,
            substeps: 1,
            sample_instrs: 20_000,
            max_time_s: 0.03,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            batch: crate::sweep::DEFAULT_BATCH_WIDTH,
        }
    }

    /// Smoke preset: a deliberately tiny grid and a 1 ms horizon, for CI
    /// runs that exercise the bins' sweep plumbing (executor pool widths,
    /// manifests, progress) rather than the physics.
    pub fn smoke() -> Self {
        /// One millisecond: long enough for a handful of windows, cheap
        /// enough to sweep a whole figure grid in CI.
        const SMOKE_HORIZON_S: f64 = 1e-3;
        Self {
            cell_um: 400.0,
            border_mm: 1.0,
            substeps: 1,
            sample_instrs: 8_000,
            max_time_s: SMOKE_HORIZON_S,
            ..Self::fast()
        }
    }

    /// Medium fidelity: the 150 µm grid resolves the intra-unit power
    /// concentration well enough for 14 nm hotspots to fire (see
    /// EXPERIMENTS.md) while staying affordable for 250+-run sweeps on a
    /// single CPU. Used for the recorded distribution figures.
    pub fn medium() -> Self {
        Self {
            cell_um: 150.0,
            border_mm: 2.0,
            substeps: 1,
            sample_instrs: 20_000,
            max_time_s: 0.02,
            ..Self::fast()
        }
    }

    /// The paper's fidelity (100 µm grid, 50 µs substeps, 200 ms horizon).
    pub fn paper() -> Self {
        Self {
            cell_um: 100.0,
            border_mm: 4.0,
            substeps: 4,
            sample_instrs: 50_000,
            max_time_s: 0.2,
            ..Self::fast()
        }
    }

    /// Selects a preset from the environment: `HOTGAUGE_FULL=1` for the
    /// paper preset, `HOTGAUGE_MEDIUM=1` for medium, `HOTGAUGE_SMOKE=1`
    /// for the tiny CI smoke grid, otherwise fast.
    pub fn from_env() -> Self {
        let is = |k: &str| std::env::var(k).map(|v| v == "1").unwrap_or(false);
        if is("HOTGAUGE_FULL") {
            Self::paper()
        } else if is("HOTGAUGE_MEDIUM") {
            Self::medium()
        } else if is("HOTGAUGE_SMOKE") {
            Self::smoke()
        } else {
            Self::fast()
        }
    }

    /// Applies the fidelity to a config.
    pub fn apply(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.cell_um = self.cell_um;
        cfg.border_mm = self.border_mm;
        cfg.substeps = self.substeps;
        cfg.sample_instrs = self.sample_instrs;
        cfg.max_time_s = self.max_time_s;
        cfg
    }
}

// ---------------------------------------------------------------------------
// Table III — C_dyn validation
// ---------------------------------------------------------------------------

/// Instructions of the one window Table III and §II-A evaluate, after the
/// ROI warm-up.
const VALIDATION_SAMPLE_INSTRS: u64 = 400_000;

/// Effective single-core `C_dyn` (nF) of a benchmark at a node, computed the
/// way the paper validates it: run the workload, take core dynamic power,
/// divide by `V²f`.
pub fn benchmark_cdyn_nf(benchmark: &str, node: TechNode) -> f64 {
    #[expect(
        clippy::expect_used,
        reason = "callers iterate VALIDATION_BENCHMARKS, a compile-time list of known profiles"
    )]
    let profile = spec2006::profile(benchmark).expect("known benchmark");
    let act = first_window(StreamSpec::new(
        profile,
        1,
        ROI_WARMUP_INSTRS,
        VALIDATION_SAMPLE_INSTRS,
    ));

    let fp = SkylakeProxy::new(node).build();
    let model = PowerModel::new(&fp, node, PowerParams::default());
    let mut cores = vec![CoreWindow::Parked; 7];
    cores[0] = CoreWindow::Active {
        activity: &act,
        duty: 1.0,
    };
    let b = model.evaluate(
        &cores,
        &vec![crate::units::VALIDATION_UNIT_TEMP.deg_c(); fp.units.len()],
    );
    b.core_cdyn_eff_nf(0, model.params())
}

/// Reproduces Table III: model vs silicon `C_dyn` for the validation set at
/// 14 nm and 10 nm.
pub fn table3_rows() -> Vec<CdynValidationRow> {
    let mut rows = Vec::new();
    for node in [TechNode::N14, TechNode::N10] {
        for bench in spec2006::VALIDATION_BENCHMARKS {
            let model_nf = benchmark_cdyn_nf(bench, node);
            #[expect(
                clippy::expect_used,
                reason = "VALIDATION_BENCHMARKS and the silicon table are maintained together; a miss is a table bug"
            )]
            let silicon_nf = silicon_cdyn(bench, node).expect("validation benchmark");
            rows.push(CdynValidationRow {
                benchmark: bench.to_owned(),
                node,
                silicon_nf,
                model_nf,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Table IV — Ψ and TDP
// ---------------------------------------------------------------------------

/// Reproduces Table IV: Ψ_j,a and TDP for the case-study stack at each node.
pub fn table4_rows(cell_um: f64) -> Vec<(TechNode, PsiTdp)> {
    TechNode::PAPER_NODES
        .iter()
        .map(|&node| {
            let fp = SkylakeProxy::new(node).build();
            let grid = hotgauge_floorplan::grid::FloorplanGrid::rasterize(&fp, cell_um);
            let stack = StackDescription::client_cpu(grid.nx, grid.ny, cell_um);
            let model = ThermalModel::new(stack);
            (node, psi_tdp(&model, PAPER_THERMAL_BUDGET_C, 20.0))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §II-A — power density trend
// ---------------------------------------------------------------------------

/// One row of the power-density study: node, core power (W), core power
/// density (W/mm²), and peak unit density (W/mm²) for single-threaded bzip2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerDensityRow {
    /// Technology node.
    pub node: TechNode,
    /// Core dynamic power, W.
    pub core_power_w: f64,
    /// Core-average power density, W/mm².
    pub core_density_w_mm2: f64,
    /// Peak per-unit power density, W/mm².
    pub peak_unit_density_w_mm2: f64,
}

/// Reproduces the §II-A trend: power decreasing roughly linearly per node
/// while power density increases (bzip2, 1 thread, 5 GHz / 1.4 V).
pub fn sec2a_power_density() -> Vec<PowerDensityRow> {
    #[expect(
        clippy::expect_used,
        reason = "bzip2 is a compile-time member of the SPEC2006 proxy table"
    )]
    let profile = spec2006::profile("bzip2").expect("bzip2 exists");
    let act = first_window(StreamSpec::new(
        profile,
        2,
        ROI_WARMUP_INSTRS,
        VALIDATION_SAMPLE_INSTRS,
    ));

    TechNode::PAPER_NODES
        .iter()
        .map(|&node| {
            let fp = SkylakeProxy::new(node).build();
            let model = PowerModel::new(&fp, node, PowerParams::default());
            let mut cores = vec![CoreWindow::Parked; 7];
            cores[0] = CoreWindow::Active {
                activity: &act,
                duty: 1.0,
            };
            let b = model.evaluate(&cores, &vec![70.0; fp.units.len()]);
            let core_area: f64 = fp.units_of_core(0).map(|u| u.area()).sum();
            let peak = fp
                .units
                .iter()
                .zip(&b.unit_watts)
                .filter(|(u, _)| u.core == Some(0))
                .map(|(u, w)| w / u.area())
                .fold(0.0f64, f64::max);
            PowerDensityRow {
                node,
                core_power_w: b.core_dynamic_w[0],
                core_density_w_mm2: b.core_dynamic_w[0] / core_area,
                peak_unit_density_w_mm2: peak,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Shared sweep machinery for the TUH figures
// ---------------------------------------------------------------------------

/// Runs every benchmark on every core at one node/warm-up combination,
/// stopping each run at its first hotspot. Returns results in
/// benchmark-major, core-minor order.
pub fn tuh_sweep(
    fid: &Fidelity,
    node: TechNode,
    warmup: Warmup,
    benchmarks: &[&str],
    cores: &[usize],
) -> Vec<RunResult> {
    tuh_sweep_with(fid, node, warmup, benchmarks, cores, None)
}

/// The TUH sweep's job grid: every benchmark on every core at one
/// node/warm-up combination, stop-at-first-hotspot, in benchmark-major
/// core-minor order. Exposed separately from [`tuh_sweep_with`] so callers
/// can route the same grid through an alternative executor (e.g. the
/// result-store sweep) and still fold with [`fig11_fold`].
pub fn tuh_grid(
    fid: &Fidelity,
    node: TechNode,
    warmup: Warmup,
    benchmarks: &[&str],
    cores: &[usize],
) -> Vec<SimConfig> {
    benchmarks
        .iter()
        .flat_map(|&b| cores.iter().map(move |&c| (b, c)).collect::<Vec<_>>())
        .map(|(b, c)| {
            let mut cfg = fid.apply(SimConfig::new(node, b));
            cfg.target_core = c;
            cfg.warmup = warmup;
            cfg.stop_at_first_hotspot = true;
            cfg
        })
        .collect()
}

/// [`tuh_sweep`] with a per-run completion callback for sweep liveness.
pub fn tuh_sweep_with(
    fid: &Fidelity,
    node: TechNode,
    warmup: Warmup,
    benchmarks: &[&str],
    cores: &[usize],
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<RunResult> {
    let cfgs = tuh_grid(fid, node, warmup, benchmarks, cores);
    run_many_batched_with(cfgs, fid.threads, fid.batch, on_done)
}

/// Fig. 10: TUH samples (one per benchmark × core) for each node after idle
/// warm-up.
pub fn fig10_tuh_by_node(
    fid: &Fidelity,
    nodes: &[TechNode],
    benchmarks: &[&str],
    cores: &[usize],
) -> Vec<(TechNode, Vec<Option<f64>>)> {
    fig10_tuh_by_node_with(fid, nodes, benchmarks, cores, None)
}

/// [`fig10_tuh_by_node`] with a per-run completion callback, forwarded to
/// each node's sweep so the node × benchmark × core grid (dozens of runs)
/// reports liveness like the Fig. 11 sweep does. `done`/`total` restart per
/// node sweep.
pub fn fig10_tuh_by_node_with(
    fid: &Fidelity,
    nodes: &[TechNode],
    benchmarks: &[&str],
    cores: &[usize],
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<(TechNode, Vec<Option<f64>>)> {
    nodes
        .iter()
        .map(|&node| {
            let results = tuh_sweep_with(fid, node, Warmup::Idle, benchmarks, cores, on_done);
            (node, results.iter().map(|r| r.tuh_s).collect())
        })
        .collect()
}

/// Fig. 11 rows: per-benchmark TUH across cores for one warm-up at 7 nm.
pub fn fig11_tuh_per_benchmark(
    fid: &Fidelity,
    warmup: Warmup,
    benchmarks: &[&str],
    cores: &[usize],
) -> Vec<(String, Vec<Option<f64>>)> {
    fig11_tuh_per_benchmark_with(fid, warmup, benchmarks, cores, None)
}

/// [`fig11_tuh_per_benchmark`] with a per-run completion callback, so the
/// benchmark × core sweep (dozens of runs) reports liveness.
pub fn fig11_tuh_per_benchmark_with(
    fid: &Fidelity,
    warmup: Warmup,
    benchmarks: &[&str],
    cores: &[usize],
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<(String, Vec<Option<f64>>)> {
    let results = tuh_sweep_with(fid, TechNode::N7, warmup, benchmarks, cores, on_done);
    fig11_fold(&results, benchmarks, cores)
}

/// Folds the results of a [`tuh_grid`] sweep (benchmark-major, core-minor)
/// into Fig. 11 rows: per-benchmark TUH samples across cores.
pub fn fig11_fold(
    results: &[RunResult],
    benchmarks: &[&str],
    cores: &[usize],
) -> Vec<(String, Vec<Option<f64>>)> {
    benchmarks
        .iter()
        .enumerate()
        .map(|(bi, &b)| {
            let tuhs = results[bi * cores.len()..(bi + 1) * cores.len()]
                .iter()
                .map(|r| r.tuh_s)
                .collect();
            (b.to_owned(), tuhs)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 9 — MLTD over time per core
// ---------------------------------------------------------------------------

/// Fig. 9: max-MLTD(t) for gobmk on each core, per node, after idle warm-up.
pub fn fig9_mltd_series(
    fid: &Fidelity,
    nodes: &[TechNode],
    cores: &[usize],
    horizon_s: f64,
) -> Vec<(TechNode, usize, TimeSeries)> {
    let mut cfgs = Vec::new();
    let mut keys = Vec::new();
    for &node in nodes {
        for &core in cores {
            let mut cfg = fid.apply(SimConfig::new(node, "gobmk"));
            cfg.target_core = core;
            cfg.warmup = Warmup::Idle;
            cfg.max_time_s = horizon_s;
            cfgs.push(cfg);
            keys.push((node, core));
        }
    }
    let results = run_many_batched_with(cfgs, fid.threads, fid.batch, None);
    keys.into_iter()
        .zip(results)
        .map(|((node, core), r)| {
            let mut ts = TimeSeries::default();
            for rec in &r.records {
                ts.push(rec.time_s, rec.max_mltd_c);
            }
            (node, core, ts)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 12 — hotspot locations
// ---------------------------------------------------------------------------

/// Fig. 12: hotspot-location census aggregated over the given benchmarks at
/// 7 nm (idle warm-up, full horizon — not stopped at the first hotspot).
pub fn fig12_location_census(
    fid: &Fidelity,
    benchmarks: &[&str],
    cores: &[usize],
) -> crate::locations::HotspotCensus {
    let cfgs: Vec<SimConfig> = benchmarks
        .iter()
        .flat_map(|&b| cores.iter().map(move |&c| (b, c)).collect::<Vec<_>>())
        .map(|(b, c)| {
            let mut cfg = fid.apply(SimConfig::new(TechNode::N7, b));
            cfg.target_core = c;
            cfg.warmup = Warmup::Idle;
            cfg
        })
        .collect();
    let results = run_many_batched_with(cfgs, fid.threads, fid.batch, None);
    let mut census = crate::locations::HotspotCensus::new();
    for r in &results {
        census.merge(&r.census);
    }
    census
}

// ---------------------------------------------------------------------------
// Fig. 13 / Fig. 14 / §V-B — mitigation studies
// ---------------------------------------------------------------------------

/// One unit-scaling severity run (Fig. 13): node, scaled unit (or none), and
/// the tracked unit's severity series while running `benchmark`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitScalingSeries {
    /// Node of the run.
    pub node: TechNode,
    /// The scaling factor applied (1.0 = baseline).
    pub scale: f64,
    /// Peak severity inside the tracked unit over time.
    pub series: TimeSeries,
}

/// Fig. 13: severity inside `unit` (e.g. `FpIWin`) on the target core while
/// running `benchmark`, for the 14 nm baseline, the 7 nm baseline, and 7 nm
/// with the unit scaled by each factor in `scales`.
pub fn fig13_unit_scaling(
    fid: &Fidelity,
    benchmark: &str,
    unit: UnitKind,
    scales: &[f64],
    horizon_s: f64,
) -> Vec<UnitScalingSeries> {
    let tracked = format!("core0.{}", unit.label());
    let mut cfgs = Vec::new();
    let mut meta = Vec::new();
    // 14 nm baseline.
    let mut c14 = fid.apply(SimConfig::new(TechNode::N14, benchmark));
    c14.track_units = vec![tracked.clone()];
    c14.max_time_s = horizon_s;
    cfgs.push(c14);
    meta.push((TechNode::N14, 1.0));
    // 7 nm baseline + scaled variants.
    for &s in std::iter::once(&1.0).chain(scales.iter().filter(|&&s| s != 1.0)) {
        let mut c = fid.apply(SimConfig::new(TechNode::N7, benchmark));
        c.track_units = vec![tracked.clone()];
        c.max_time_s = horizon_s;
        if s != 1.0 {
            c.unit_scales = vec![(unit, s)];
        }
        cfgs.push(c);
        meta.push((TechNode::N7, s));
    }
    let results = run_many_batched_with(cfgs, fid.threads, fid.batch, None);
    meta.into_iter()
        .zip(results)
        .map(|((node, scale), r)| {
            let mut series = TimeSeries::default();
            for rec in &r.records {
                series.push(rec.time_s, rec.unit_severity[0]);
            }
            UnitScalingSeries {
                node,
                scale,
                series,
            }
        })
        .collect()
}

/// One Fig. 14 row: max hotspot severity per benchmark for the 14 nm
/// baseline, the 7 nm baseline, and 7 nm with the RATs scaled 10×.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatScalingRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Max severity at 14 nm (the target level).
    pub sev_14nm: f64,
    /// Max severity at 7 nm (the problem).
    pub sev_7nm: f64,
    /// Max severity at 7 nm with both RATs scaled 10×.
    pub sev_7nm_rat10x: f64,
}

/// Fig. 14: the RAT-scaling study over the given benchmarks.
pub fn fig14_rat_scaling(
    fid: &Fidelity,
    benchmarks: &[&str],
    horizon_s: f64,
) -> Vec<RatScalingRow> {
    let mut cfgs = Vec::new();
    for &b in benchmarks {
        let mut c = fid.apply(SimConfig::new(TechNode::N14, b));
        c.max_time_s = horizon_s;
        cfgs.push(c);
        let mut c = fid.apply(SimConfig::new(TechNode::N7, b));
        c.max_time_s = horizon_s;
        cfgs.push(c);
        let mut c = fid.apply(SimConfig::new(TechNode::N7, b));
        c.max_time_s = horizon_s;
        c.unit_scales = vec![(UnitKind::IntRat, 10.0), (UnitKind::FpRat, 10.0)];
        cfgs.push(c);
    }
    let results = run_many_batched_with(cfgs, fid.threads, fid.batch, None);
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| RatScalingRow {
            benchmark: b.to_owned(),
            sev_14nm: results[3 * i].peak_severity(),
            sev_7nm: results[3 * i + 1].peak_severity(),
            sev_7nm_rat10x: results[3 * i + 2].peak_severity(),
        })
        .collect()
}

/// §V-B: sweeps uniform IC area factors at 7 nm until RMS severity matches
/// the 14 nm baseline; returns `(benchmark, rms_14nm, Vec<(factor, rms_7nm)>,
/// required_factor)` where the factor is linearly interpolated (or `None` if
/// even the largest factor is insufficient).
pub type IcScalingRow = (String, f64, Vec<(f64, f64)>, Option<f64>);

/// Runs the §V-B IC-scaling limit study.
pub fn sec5b_ic_scaling(
    fid: &Fidelity,
    benchmarks: &[&str],
    factors: &[f64],
    horizon_s: f64,
) -> Vec<IcScalingRow> {
    sec5b_ic_scaling_with(fid, benchmarks, factors, horizon_s, None)
}

/// [`sec5b_ic_scaling`] with a per-run completion callback, so the
/// benchmark × IC-factor sweep reports liveness.
pub fn sec5b_ic_scaling_with(
    fid: &Fidelity,
    benchmarks: &[&str],
    factors: &[f64],
    horizon_s: f64,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<IcScalingRow> {
    let cfgs = sec5b_grid(fid, benchmarks, factors, horizon_s);
    let results = run_many_batched_with(cfgs, fid.threads, fid.batch, on_done);
    sec5b_fold(&results, benchmarks, factors)
}

/// The §V-B job grid: per benchmark, one 14 nm baseline run followed by one
/// 7 nm run per IC area factor (stride `1 + factors.len()`). Exposed so
/// callers can route the grid through an alternative executor and fold with
/// [`sec5b_fold`].
pub fn sec5b_grid(
    fid: &Fidelity,
    benchmarks: &[&str],
    factors: &[f64],
    horizon_s: f64,
) -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for &b in benchmarks {
        let mut c = fid.apply(SimConfig::new(TechNode::N14, b));
        c.max_time_s = horizon_s;
        cfgs.push(c);
        for &f in factors {
            let mut c = fid.apply(SimConfig::new(TechNode::N7, b));
            c.max_time_s = horizon_s;
            c.ic_area_factor = f;
            cfgs.push(c);
        }
    }
    cfgs
}

/// Folds the results of a [`sec5b_grid`] sweep into [`IcScalingRow`]s:
/// per benchmark, the 14 nm RMS target, the (factor, 7 nm RMS) sweep, and
/// the interpolated factor meeting the target.
pub fn sec5b_fold(
    results: &[RunResult],
    benchmarks: &[&str],
    factors: &[f64],
) -> Vec<IcScalingRow> {
    let stride = 1 + factors.len();
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let target = results[i * stride].rms_severity();
            let sweep: Vec<(f64, f64)> = factors
                .iter()
                .enumerate()
                .map(|(j, &f)| (f, results[i * stride + 1 + j].rms_severity()))
                .collect();
            // First factor whose RMS falls to or below the 14 nm target,
            // linearly interpolated between bracketing factors.
            let mut required = None;
            for w in sweep.windows(2) {
                let (f0, r0) = w[0];
                let (f1, r1) = w[1];
                if r0 > target && r1 <= target {
                    let t = (r0 - target) / (r0 - r1);
                    required = Some(f0 + t * (f1 - f0));
                    break;
                }
            }
            if required.is_none() && sweep.first().map(|&(_, r)| r <= target).unwrap_or(false) {
                required = Some(sweep[0].0);
            }
            (b.to_owned(), target, sweep, required)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 2 / Fig. 8 — distribution studies
// ---------------------------------------------------------------------------

/// Fig. 2: ΔT-over-200µs histograms for 14 nm vs 7 nm.
pub fn fig2_delta_distributions(
    fid: &Fidelity,
    benchmark: &str,
    horizon_s: f64,
) -> Vec<(TechNode, Vec<f64>, Vec<usize>)> {
    let cfgs: Vec<SimConfig> = [TechNode::N14, TechNode::N7]
        .iter()
        .map(|&node| {
            let mut c = fid.apply(SimConfig::new(node, benchmark));
            c.warmup = Warmup::Idle;
            c.max_time_s = horizon_s;
            c.delta_histogram = Some(HistSpec {
                lo: -3.0,
                hi: 3.0,
                bins: 120,
            });
            c
        })
        .collect();
    let results = run_many_batched_with(cfgs, fid.threads, fid.batch, None);
    results
        .into_iter()
        .map(|r| {
            let node = r.config.node;
            #[expect(clippy::expect_used, reason = "delta_histogram is set on every config built a few lines above, so every result carries the histogram")]
            let (e, c) = r.delta_hist.expect("requested");
            (node, e, c)
        })
        .collect()
}

/// Fig. 8: gcc at 7 nm from cold vs idle warm-up, with per-step temperature
/// histograms; returns the run results (records carry the histograms).
pub fn fig8_warmup_runs(fid: &Fidelity, horizon_s: f64) -> Vec<RunResult> {
    let cfgs: Vec<SimConfig> = [Warmup::Cold, Warmup::Idle]
        .iter()
        .map(|&w| {
            let mut c = fid.apply(SimConfig::new(TechNode::N7, "gcc"));
            c.warmup = w;
            c.max_time_s = horizon_s;
            c.temp_histogram = Some(HistSpec {
                lo: 30.0,
                hi: 140.0,
                bins: 110,
            });
            c
        })
        .collect();
    run_many_batched_with(cfgs, fid.threads, fid.batch, None)
}

/// First time the peak die temperature crosses `threshold_c` in a run.
pub fn first_crossing_time(r: &RunResult, threshold_c: f64) -> Option<f64> {
    r.records
        .iter()
        .find(|rec| rec.max_temp_c >= threshold_c)
        .map(|rec| rec.time_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fidelity {
        Fidelity {
            cell_um: 300.0,
            border_mm: 1.5,
            substeps: 1,
            sample_instrs: 6_000,
            max_time_s: 1.5e-3,
            threads: 4,
            batch: crate::sweep::DEFAULT_BATCH_WIDTH,
        }
    }

    #[test]
    fn table3_has_ten_rows_with_finite_errors() {
        let rows = table3_rows();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.model_nf > 0.3 && r.model_nf < 4.0, "{r:?}");
            assert!(r.percent_error().is_finite());
        }
    }

    #[test]
    fn table4_psi_monotone_and_tdp_decreasing() {
        let rows = table4_rows(400.0);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].1.psi_c_per_w < rows[1].1.psi_c_per_w);
        assert!(rows[1].1.psi_c_per_w < rows[2].1.psi_c_per_w);
        assert!(rows[0].1.tdp_w > rows[2].1.tdp_w);
    }

    #[test]
    fn sec2a_density_rises_while_power_falls() {
        let rows = sec2a_power_density();
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].core_power_w > rows[2].core_power_w,
            "power should fall"
        );
        assert!(
            rows[2].core_density_w_mm2 > 2.0 * rows[0].core_density_w_mm2,
            "density should grow: {} -> {}",
            rows[0].core_density_w_mm2,
            rows[2].core_density_w_mm2
        );
    }

    #[test]
    fn tuh_sweep_shapes() {
        let fid = tiny();
        let rows = fig10_tuh_by_node(&fid, &[TechNode::N7], &["hmmer"], &[0, 3]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.len(), 2);
    }

    #[test]
    fn fig13_emits_baselines_and_scaled_runs() {
        let fid = tiny();
        let out = fig13_unit_scaling(&fid, "hmmer", UnitKind::FpIWin, &[10.0], 1e-3);
        assert_eq!(out.len(), 3); // 14nm, 7nm, 7nm x10
        assert_eq!(out[0].node, TechNode::N14);
        assert!(out.iter().all(|s| !s.series.is_empty()));
    }
}
