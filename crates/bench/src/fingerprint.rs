//! FNV-1a fingerprints of the workload generator, the core model, the
//! thermal stage and whole co-simulation runs: the bit-exactness harness
//! behind the `stream_hash` bin and the golden-hash tests that pin the core
//! model, the thermal solver and the run loop.
//!
//! Build the same fingerprint in two trees and compare: equal hashes prove
//! a refactor left the pinned layer's behaviour unchanged.

use std::sync::Arc;

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{
    build_floorplan, run_sim, BatchedCoSim, CoSimulation, HistSpec, RunResult, SimConfig,
};
use hotgauge_core::sweep::run_many_batched_with;
use hotgauge_core::throttle::ThrottlePolicy;
use hotgauge_floorplan::{FloorplanGrid, TechNode};
use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_perf::instr::InstrSource;
use hotgauge_thermal::model::{step_lockstep, LockstepScratch, ThermalModel, ThermalSim};
use hotgauge_thermal::solver::SolveStats;
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::{initial_state, Warmup};
use hotgauge_thermal::SolverStrategy;
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::idle::IDLE_WARMUP_DURATION_S;
use hotgauge_workloads::spec2006;

/// The instruction-stream seed every fingerprint uses.
pub const SEED: u64 = 7;

/// Incremental 64-bit FNV-1a over `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
}

fn generator(bench: &str) -> Option<WorkloadGen> {
    spec2006::profile(bench).map(|p| WorkloadGen::new(p, SEED))
}

/// Hash of the first `instrs` micro-ops `(pc, addr, class, taken,
/// extra_latency)` the generator emits for `bench`; `None` for an unknown
/// benchmark.
pub fn stream_hash(bench: &str, instrs: u64) -> Option<u64> {
    let mut g = generator(bench)?;
    let mut h = Fnv::new();
    for _ in 0..instrs {
        let i = g.next_instr();
        h.push(i.pc);
        h.push(i.addr);
        h.push(i.class as u64);
        h.push(i.taken as u64);
        h.push(i.extra_latency as u64);
    }
    Some(h.0)
}

/// Hash of the Table-I core model on `bench`: a `warm_up(warmup_instrs)`
/// followed by one `run_cycles(window_cycles)` window, as every
/// co-simulation run starts. It covers every field of the window's
/// `ActivityCounters` plus the lifetime access and miss counts of all four
/// caches, so any change to cache replacement, branch prediction or the
/// interval timing shows. `None` for an unknown benchmark.
pub fn core_hash(bench: &str, warmup_instrs: u64, window_cycles: u64) -> Option<u64> {
    let mut g = generator(bench)?;
    let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    core.warm_up(&mut g, warmup_instrs);
    let act = core.run_cycles(&mut g, window_cycles);
    let mut h = Fnv::new();
    for b in format!("{act:?}").bytes() {
        h.push(u64::from(b));
    }
    h.push(core.instruction_count());
    let m = &core.mem;
    for c in [&m.l1i, &m.l1d, &m.l2, &m.l3] {
        h.push(c.accesses());
        h.push(c.misses());
    }
    Some(h.0)
}

/// The geometries [`thermal_hash`] is pinned on: `(preset, node, IC area
/// factor)`. The presets are the `Fidelity` grids the figure-grid
/// benchmark runs (smoke: 400 µm, fast: 250 µm).
pub const THERMAL_CASES: [(&str, TechNode, f64); 4] = [
    ("smoke", TechNode::N14, 1.0),
    ("smoke", TechNode::N7, 1.5),
    ("fast", TechNode::N14, 1.0),
    ("fast", TechNode::N7, 1.5),
];

/// Lockstep group widths [`thermal_hash`] steps: the sweep's full batch
/// and an odd width of the kind the pool partition emits.
const THERMAL_LOCKSTEP_WIDTHS: [usize; 2] = [8, 5];

/// Steps hashed per solo run and per lockstep group.
const THERMAL_STEPS: usize = 5;

/// A deterministic per-cell power map, watts: `base` plus a hashed
/// `0..spread` term, so neighbouring cells and lanes differ.
fn power_map(cells: usize, salt: u64, base: f64, spread: f64) -> Vec<f64> {
    (0..cells as u64)
        .map(|i| {
            let mut s = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            s ^= s >> 29;
            s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            s ^= s >> 32;
            base + spread * (s % 1024) as f64 / 1024.0
        })
        .collect()
}

fn push_state(h: &mut Fnv, state: &[f64]) {
    for &t in state {
        h.push(t.to_bits());
    }
}

fn push_stats(h: &mut Fnv, s: &SolveStats) {
    h.push(s.iterations as u64);
    h.push(s.relative_residual.to_bits());
    h.push(u64::from(s.converged));
}

/// Hash of the thermal stage on one pipeline geometry: the full-domain
/// state after an idle warm-up (40 solo steps at 25 ms under a synthetic
/// idle map), then [`THERMAL_STEPS`] solo steps from it at the run's
/// substep, then [`THERMAL_STEPS`] lockstep steps of groups of 8 and 5
/// lanes started from the warm state with distinct power maps. Every
/// state and every solve's iterations and residual are hashed, so any
/// change to assembly, the solver arm, the CG kernels or the lockstep path
/// shows. The model, stack and solver setup mirror the co-simulation
/// pipeline's. `None` for an unknown preset (`smoke` or `fast`).
pub fn thermal_hash(preset: &str, node: TechNode, ic_area_factor: f64) -> Option<u64> {
    let fidelity = match preset {
        "smoke" => Fidelity::smoke(),
        "fast" => Fidelity::fast(),
        _ => return None,
    };
    let mut cfg = fidelity.apply(SimConfig::new(node, "gcc"));
    cfg.ic_area_factor = ic_area_factor;
    let fp = build_floorplan(&cfg);
    let grid = FloorplanGrid::rasterize(&fp, cfg.cell_um);
    let stack = StackDescription::client_cpu_with_border(
        grid.nx,
        grid.ny,
        cfg.cell_um,
        cfg.border_mm * hotgauge_core::units::M_PER_MM,
    );
    let model = Arc::new(ThermalModel::new(stack));
    let cells = grid.nx * grid.ny;
    let mut h = Fnv::new();

    let idle = power_map(cells, 0x1D1E, 0.002, 0.004);
    let warm = initial_state(&model, Warmup::Idle, &idle, IDLE_WARMUP_DURATION_S, 25e-3);
    push_state(&mut h, &warm);

    let dt = cfg.window_seconds() / cfg.substeps as f64;
    let mut proto = ThermalSim::new(Arc::clone(&model), model.stack().ambient_c);
    proto.set_strategy(cfg.solver);
    proto.cg.tolerance = 1e-6;
    proto.prepare(dt);
    h.push(u64::from(proto.active_solver() == Some(SolverStrategy::Cg)));
    proto.set_state(warm);

    let mut solo = proto.clone();
    let busy = power_map(cells, 0x50_10, 0.01, 0.05);
    for _ in 0..THERMAL_STEPS {
        let stats = solo.step(&busy, dt);
        push_stats(&mut h, &stats);
        push_state(&mut h, solo.state());
    }

    let mut scratch = LockstepScratch::new();
    for k in THERMAL_LOCKSTEP_WIDTHS {
        let mut lanes: Vec<ThermalSim> = (0..k).map(|_| proto.clone()).collect();
        let maps: Vec<Vec<f64>> = (0..k as u64)
            .map(|l| power_map(cells, 0x1A4E ^ (l << 16), 0.01, 0.05))
            .collect();
        let maps: Vec<&[f64]> = maps.iter().map(Vec::as_slice).collect();
        for _ in 0..THERMAL_STEPS {
            let mut refs: Vec<&mut ThermalSim> = lanes.iter_mut().collect();
            for stats in step_lockstep(&mut refs, &maps, dt, &mut scratch) {
                push_stats(&mut h, stats);
            }
            for lane in &lanes {
                push_state(&mut h, lane.state());
            }
        }
    }
    Some(h.0)
}

fn push_f64s(h: &mut Fnv, values: &[f64]) {
    h.push(values.len() as u64);
    for &v in values {
        h.push(v.to_bits());
    }
}

fn push_counts(h: &mut Fnv, counts: &[usize]) {
    h.push(counts.len() as u64);
    for &c in counts {
        h.push(c as u64);
    }
}

/// Hash of one co-simulation result: every [`RunResult`] field except the
/// recorded `config` and the `throttled_windows` count, floats by their bit
/// patterns, with every vector length and `Option` tag hashed too. Two runs
/// hash equal only when every record, the TUH, the census, both
/// histograms, the instruction count, the final frame and the severity
/// series are bit-identical. A throttled window shows in its record's power
/// and in the instruction count.
pub fn run_hash(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.push(r.records.len() as u64);
    for rec in &r.records {
        for v in [
            rec.time_s,
            rec.max_temp_c,
            rec.mean_temp_c,
            rec.min_temp_c,
            rec.max_mltd_c,
            rec.peak_severity,
            rec.power_w,
            rec.ipc,
        ] {
            h.push(v.to_bits());
        }
        h.push(rec.hotspot_count as u64);
        push_f64s(&mut h, &rec.unit_severity);
        h.push(u64::from(rec.temp_hist.is_some()));
        if let Some(counts) = &rec.temp_hist {
            push_counts(&mut h, counts);
        }
    }
    h.push(u64::from(r.tuh_s.is_some()));
    h.push(r.tuh_s.map_or(0, f64::to_bits));
    let census = r.census.ranked();
    h.push(census.len() as u64);
    for (label, count) in census {
        h.push(label.len() as u64);
        for b in label.bytes() {
            h.push(u64::from(b));
        }
        h.push(count);
    }
    h.push(u64::from(r.delta_hist.is_some()));
    if let Some((edges, counts)) = &r.delta_hist {
        push_f64s(&mut h, edges);
        push_counts(&mut h, counts);
    }
    h.push(r.total_instructions);
    h.push(r.final_frame.nx as u64);
    h.push(r.final_frame.ny as u64);
    h.push(r.final_frame.cell_m.to_bits());
    push_f64s(&mut h, &r.final_frame.temps);
    push_f64s(&mut h, &r.sev_series.times_s);
    push_f64s(&mut h, &r.sev_series.values);
    h.0
}

/// A small cold-start run: 7 nm, 300 µm cells, one substep, 2 ms.
fn run_case_cfg(bench: &str) -> SimConfig {
    let mut c = SimConfig::new(TechNode::N7, bench);
    c.cell_um = 300.0;
    c.substeps = 1;
    c.sample_instrs = 8_000;
    c.max_time_s = 2e-3;
    c.warmup = Warmup::Cold;
    c
}

/// Detection thresholds low enough that a cold 7 nm run trips a hotspot
/// within its first milliseconds.
fn stop_early(c: &mut SimConfig) {
    c.stop_at_first_hotspot = true;
    c.detect.t_threshold_c = 60.0;
    c.detect.mltd_threshold_c = 0.05;
}

/// A fixed set of short co-simulation runs, one labelled result per run,
/// in order:
///
/// * `cold` — substeps 2, two tracked units and a temperature histogram;
/// * `idle` — an idle-start run;
/// * `stop` — stop at the first hotspot, prefilter on, ΔT histogram, with
///   thresholds that stop it mid-run;
/// * `batch.0..2` — a 3-lane [`BatchedCoSim`] whose lane 1 stops early and
///   whose lane 2 runs longer;
/// * `sweep.0..4` — `run_many_batched_with` at 2 threads and batch 2 over
///   five cold jobs on two geometries;
/// * `throttle` — a cold run on a geometry of its own under a zero-latency
///   DVFS policy whose low trigger engages and releases within its 2 ms.
///
/// The idle-warm-up memo is process-global, so the idle case has a
/// geometry of its own: its result does not depend on what ran before it.
pub fn run_cases() -> Vec<(String, RunResult)> {
    let mut out = Vec::new();

    let mut cold = run_case_cfg("hmmer");
    cold.substeps = 2;
    cold.track_units = vec!["core0.intRF".into(), "core0.fpIWin".into()];
    cold.temp_histogram = Some(HistSpec {
        lo: 30.0,
        hi: 130.0,
        bins: 20,
    });
    out.push(("cold".to_owned(), run_sim(cold)));

    let mut idle = run_case_cfg("povray");
    idle.cell_um = 340.0;
    idle.warmup = Warmup::Idle;
    out.push(("idle".to_owned(), run_sim(idle)));

    let mut stop = run_case_cfg("gcc");
    stop.substeps = 2;
    stop_early(&mut stop);
    stop.analysis.prefilter = true;
    stop.delta_histogram = Some(HistSpec {
        lo: -2.0,
        hi: 2.0,
        bins: 16,
    });
    out.push(("stop".to_owned(), run_sim(stop)));

    let mut hot = run_case_cfg("povray");
    hot.seed = 7;
    stop_early(&mut hot);
    let mut long = run_case_cfg("gcc");
    long.max_time_s = 2.6e-3;
    long.delta_histogram = Some(HistSpec {
        lo: -2.0,
        hi: 2.0,
        bins: 16,
    });
    let lanes = [run_case_cfg("hmmer"), hot, long]
        .into_iter()
        .map(CoSimulation::new)
        .collect();
    for (l, r) in BatchedCoSim::new(lanes).run().into_iter().enumerate() {
        out.push((format!("batch.{l}"), r));
    }

    let jobs = ["hmmer", "povray", "gcc", "hmmer", "povray"]
        .iter()
        .enumerate()
        .map(|(i, bench)| {
            let mut c = run_case_cfg(bench);
            c.max_time_s = 1e-3;
            c.seed = i as u64;
            if i % 2 == 1 {
                c.cell_um = 360.0;
            }
            c
        })
        .collect();
    for (i, r) in run_many_batched_with(jobs, 2, 2, None)
        .into_iter()
        .enumerate()
    {
        out.push((format!("sweep.{i}"), r));
    }

    let mut throttle = run_case_cfg("gcc");
    throttle.cell_um = 320.0;
    throttle.throttle = Some(ThrottlePolicy {
        trigger_severity: 0.2,
        release_severity: 0.1,
        sensor_latency_windows: 0,
        ..ThrottlePolicy::mitigation_default()
    });
    out.push(("throttle".to_owned(), run_sim(throttle)));
    out
}
