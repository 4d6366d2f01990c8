//! FNV-1a fingerprints of the workload generator, the core model and the
//! thermal stage: the bit-exactness harness behind the `stream_hash` bin
//! and the golden-hash tests that pin the core model and the thermal
//! solver.
//!
//! Build the same fingerprint in two trees and compare: equal hashes prove
//! a refactor left the pinned layer's behaviour unchanged.

use std::sync::Arc;

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{build_floorplan, SimConfig};
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
