//! The probe: times, from outside, the public calls behind the layers that
//! have no span in the program today.
//!
//! It runs in its own fresh process over a few evenly spaced configs of the
//! workload and reports per-call medians. Every config is first turned into
//! a serve request, so the same configs also drive the store and service
//! timings on every workload.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;

use hotgauge_core::pipeline::{build_floorplan, CoSimulation, SimConfig, UNIT_POWER_CONCENTRATION};
use hotgauge_core::units::M_PER_MM;
use hotgauge_floorplan::grid::FloorplanGrid;
use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_power::model::{PowerModel, PowerParams};
use hotgauge_store::{request_config, sweep_key, ResultStore, ServeOptions, SweepRequest};
use hotgauge_thermal::model::{ThermalModel, ThermalSim};
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::benchmark_profile;
use hotgauge_workloads::generator::WorkloadGen;

use crate::clock::Stopwatch;
use crate::serve_loop;
use crate::stats::median;
use crate::workload::{fresh_dir, geometry_key, Jobs};

/// Configs probed per workload: four keep a traced run of the slowest
/// workload well inside the run time limit.
const PROBE_CONFIGS: usize = 4;
/// The core warm-up probe's length: the `CoreSim::warm_up(2M)` of the
/// `perf.warmup_minstr_per_s` definition.
const WARMUP_INSTRS: u64 = 2_000_000;

/// Per-call timings of one probed config, ms.
#[derive(Debug, Default)]
struct Sample {
    core_warmup: f64,
    floorplan_build: f64,
    rasterize: f64,
    power_new: f64,
    prepare: f64,
    /// `CoSimulation::try_new` of the config with the process caches warm.
    construct: f64,
    /// The first idle-start `try_new` of a geometry in this process minus a
    /// cold-start `try_new` of the same config; `None` when an earlier
    /// config already idle-warmed the geometry.
    idle_warmup: Option<f64>,
}

/// Runs the probe and returns its metrics by name, plus the three
/// construction costs `pipeline.construct_est_s` is estimated from
/// (`construct_per_run_ms`, `construct_per_geometry_ms`,
/// `thermal.idle_warmup_ms`).
pub fn run(jobs: &Jobs, tmp: &Path) -> Result<BTreeMap<String, f64>, String> {
    let opts = match jobs {
        Jobs::Batch { fid, .. } => ServeOptions {
            fidelity: *fid,
            threads: 1,
            batch: fid.batch,
        },
        Jobs::Serve { opts, .. } => opts.clone(),
    };
    let requests: Vec<SweepRequest> = pick(&jobs.configs()).into_iter().map(request_of).collect();
    let cfgs: Vec<SimConfig> = requests
        .iter()
        .map(|r| request_config(r, &opts.fidelity))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe request rejected: {e}"))?;

    let mut idle_warmed = BTreeSet::new();
    let samples: Vec<Sample> = cfgs
        .iter()
        .map(|cfg| construct_sample(cfg, &mut idle_warmed))
        .collect::<Result<_, _>>()?;
    let med = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let idle_warmup: Vec<f64> = samples.iter().filter_map(|s| s.idle_warmup).collect();

    let mut m = BTreeMap::new();
    let core_warmup = med(|s| s.core_warmup);
    let per_geometry = med(|s| s.floorplan_build)
        + med(|s| s.rasterize)
        + med(|s| s.power_new)
        + med(|s| s.prepare);
    let construct = med(|s| s.construct);
    m.insert("perf.core_warmup_ms".to_owned(), core_warmup);
    m.insert(
        "perf.warmup_minstr_per_s".to_owned(),
        WARMUP_INSTRS as f64 * 1e-6 / (core_warmup * 1e-3),
    );
    m.insert("floorplan.build_ms".to_owned(), med(|s| s.floorplan_build));
    m.insert("floorplan.rasterize_ms".to_owned(), med(|s| s.rasterize));
    m.insert("power.model_new_ms".to_owned(), med(|s| s.power_new));
    m.insert("thermal.prepare_ms".to_owned(), med(|s| s.prepare));
    m.insert("thermal.idle_warmup_ms".to_owned(), median(&idle_warmup));
    m.insert("pipeline.construct_ms".to_owned(), construct);
    m.insert(
        "pipeline.construct_residual_ms".to_owned(),
        construct - core_warmup - per_geometry,
    );
    m.insert("construct_per_run_ms".to_owned(), construct - per_geometry);
    m.insert("construct_per_geometry_ms".to_owned(), per_geometry);
    store_and_serve(&opts, &requests, &cfgs, tmp, &mut m)?;
    Ok(m)
}

/// Up to [`PROBE_CONFIGS`] configs, taken round-robin across the
/// workload's geometries (in first-seen order), so a probe of a multi-geometry
/// grid samples every geometry before it repeats one.
fn pick(all: &[SimConfig]) -> Vec<&SimConfig> {
    let mut groups: Vec<(String, Vec<&SimConfig>)> = Vec::new();
    for c in all {
        let key = geometry_key(c);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(c),
            None => groups.push((key, vec![c])),
        }
    }
    let mut picked = Vec::new();
    for round in 0.. {
        let before = picked.len();
        for (_, g) in &groups {
            if picked.len() < PROBE_CONFIGS {
                picked.extend(g.get(round));
            }
        }
        if picked.len() == before {
            break;
        }
    }
    picked
}

/// The serve request that reproduces `cfg` under the workload's preset.
fn request_of(cfg: &SimConfig) -> SweepRequest {
    SweepRequest {
        benchmark: cfg.benchmark.clone(),
        node: Some(cfg.node.label().to_owned()),
        core: Some(cfg.target_core),
        seed: Some(cfg.seed),
        cold: Some(cfg.warmup == Warmup::Cold),
        ms: Some(cfg.max_time_s * 1e3),
        ic_area: Some(cfg.ic_area_factor),
        stop_at_first_hotspot: Some(cfg.stop_at_first_hotspot),
    }
}

/// Times the public calls behind one config's geometry and core warm-up,
/// then `CoSimulation::try_new` itself. The idle thermal warm-up has no
/// public call of its own, so it is taken from `try_new` as a difference;
/// `idle_warmed` holds the geometries this process has idle-warmed.
fn construct_sample(cfg: &SimConfig, idle_warmed: &mut BTreeSet<String>) -> Result<Sample, String> {
    let mut s = Sample::default();
    let profile = benchmark_profile(&cfg.benchmark)
        .ok_or_else(|| format!("unknown benchmark {}", cfg.benchmark))?;

    let t = Stopwatch::start();
    let mut gen = WorkloadGen::new(profile, cfg.seed);
    let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    core.warm_up(&mut gen, WARMUP_INSTRS);
    black_box((&core, &gen));
    s.core_warmup = t.elapsed_ms();

    let t = Stopwatch::start();
    let fp = black_box(build_floorplan(cfg));
    s.floorplan_build = t.elapsed_ms();

    let t = Stopwatch::start();
    let grid = FloorplanGrid::rasterize(&fp, cfg.cell_um);
    let peaked = FloorplanGrid::rasterize_with_concentration(
        &fp,
        cfg.cell_um,
        Some(UNIT_POWER_CONCENTRATION),
    );
    black_box(&peaked);
    s.rasterize = t.elapsed_ms();

    let t = Stopwatch::start();
    let baseline = SkylakeProxy::new(cfg.node).build();
    let power = PowerModel::new(&baseline, cfg.node, PowerParams::default());
    black_box(&power);
    s.power_new = t.elapsed_ms();

    let t = Stopwatch::start();
    let stack = StackDescription::client_cpu_with_border(
        grid.nx,
        grid.ny,
        cfg.cell_um,
        cfg.border_mm * M_PER_MM,
    );
    let model = ThermalModel::new(stack);
    let ambient = model.stack().ambient_c;
    let mut thermal = ThermalSim::new(model, ambient);
    thermal.set_strategy(cfg.solver);
    thermal.set_solver_threads(cfg.solver_threads);
    thermal.prepare(cfg.window_seconds() / cfg.substeps.max(1) as f64);
    black_box(&thermal);
    s.prepare = t.elapsed_ms();

    let cold = SimConfig {
        warmup: Warmup::Cold,
        ..cfg.clone()
    };
    let idle = SimConfig {
        warmup: Warmup::Idle,
        ..cfg.clone()
    };
    // The first call fills the process's memo of this config's idle
    // background stream, so the two calls after it differ only by the idle
    // thermal warm-up, which the first idle-start call of a geometry pays
    // and every later one reads from the program's cache.
    time_try_new(&cold)?;
    let cold_ms = time_try_new(&cold)?;
    if idle_warmed.insert(geometry_key(cfg)) {
        s.idle_warmup = Some(time_try_new(&idle)? - cold_ms);
    }
    s.construct = match cfg.warmup {
        Warmup::Cold => cold_ms,
        Warmup::Idle => time_try_new(&idle)?,
    };
    Ok(s)
}

/// Milliseconds `CoSimulation::try_new` takes on `cfg`.
fn time_try_new(cfg: &SimConfig) -> Result<f64, String> {
    let cfg = cfg.clone();
    let t = Stopwatch::start();
    let sim = CoSimulation::try_new(cfg).map_err(|e| format!("try_new failed: {e}"))?;
    let ms = t.elapsed_ms();
    drop(black_box(sim));
    Ok(ms)
}

/// Serves the probe requests through a fresh store (misses, then hits),
/// then replays `ResultStore::get`, `put` and `flush` over the stored keys.
fn store_and_serve(
    opts: &ServeOptions,
    requests: &[SweepRequest],
    cfgs: &[SimConfig],
    tmp: &Path,
    m: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let root = fresh_dir(tmp, "probe-store");
    let copy = fresh_dir(tmp, "probe-copy");
    let outcome = replay(opts, requests, cfgs, &root, &copy, m);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&copy);
    outcome
}

fn replay(
    opts: &ServeOptions,
    requests: &[SweepRequest],
    cfgs: &[SimConfig],
    root: &Path,
    copy: &Path,
    m: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let open = |p: &Path| ResultStore::open(p).map_err(|e| format!("cannot open a store: {e}"));
    let mut store = open(root)?;
    let mut stream = requests.to_vec();
    stream.extend_from_slice(requests);
    let replies = serve_loop::closed_loop(&mut store, opts, &stream)?;
    if replies.len() != stream.len() || replies.iter().any(|r| r.row.is_none()) {
        return Err("probe serve session did not answer every request".to_owned());
    }
    let (misses, hits) = replies.split_at(requests.len());
    let serve_hit = median(&hits.iter().map(|r| r.ms).collect::<Vec<_>>());
    m.insert(
        "serve.miss_ms".to_owned(),
        median(&misses.iter().map(|r| r.ms).collect::<Vec<_>>()),
    );
    m.insert("serve.hit_ms".to_owned(), serve_hit);

    let keys: Vec<_> = cfgs.iter().map(|c| sweep_key(c, opts.threads)).collect();
    let mut reread = open(root)?;
    let mut copied = open(copy)?;
    let (mut get, mut put, mut flush, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0u64);
    for key in &keys {
        let t = Stopwatch::start();
        let result = reread.get(key);
        get.push(t.elapsed_ms());
        let result = result.ok_or("a stored run was not served back")?;
        bytes += std::fs::metadata(reread.object_path(key)).map_or(0, |md| md.len());
        let t = Stopwatch::start();
        copied
            .put(key, &result)
            .map_err(|e| format!("store put failed: {e}"))?;
        put.push(t.elapsed_ms());
        let t = Stopwatch::start();
        copied
            .flush()
            .map_err(|e| format!("store flush failed: {e}"))?;
        flush.push(t.elapsed_ms());
    }
    let store_get = median(&get);
    m.insert("store.get_ms".to_owned(), store_get);
    m.insert("store.put_ms".to_owned(), median(&put));
    m.insert("store.flush_ms".to_owned(), median(&flush));
    m.insert(
        "store.object_kb".to_owned(),
        bytes as f64 / 1024.0 / keys.len().max(1) as f64,
    );
    m.insert("store.hit_rate".to_owned(), reread.stats().hit_rate());
    m.insert("store.writes".to_owned(), copied.stats().writes as f64);
    m.insert("serve.hit_overhead_ms".to_owned(), serve_hit - store_get);
    Ok(())
}
