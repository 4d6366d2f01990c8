//! End-to-end co-simulation cost: the per-window price of the full
//! perf → power → thermal → metrics loop, which is what makes HotGauge a
//! "rapid" methodology compared to cycle-accurate flows.
//!
//! Two groups:
//! - `cosim` measures a full run including construction (floorplan
//!   rasterization, thermal model assembly, core warm-up) — the cost a
//!   one-off CLI invocation pays. Every iteration runs a new seed, so its
//!   workload stream misses the process's activity-trace table and the core
//!   warms up live, as in a fresh process.
//! - `cosim_step` constructs the `CoSimulation` once and clones it per
//!   iteration, isolating the stepping hot path that dominates long
//!   horizons; it is benchmarked under both solver strategies. Every
//!   variant is built before the first iteration, so each holds a live
//!   core: a variant built after another's clones had published their
//!   windows would replay them instead.

use criterion::{criterion_group, criterion_main, Criterion};

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{run_sim, CoSimulation, SimConfig};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_thermal::model::SolverStrategy;
use hotgauge_thermal::warmup::Warmup;

fn bench_cfg(cell: f64) -> SimConfig {
    let fid = Fidelity::fast();
    let mut cfg = fid.apply(SimConfig::new(TechNode::N7, "gcc"));
    cfg.cell_um = cell;
    cfg.warmup = Warmup::Cold; // skip the cached warmup for a pure measurement
    cfg.max_time_s = 1e-3; // 5 windows
    cfg
}

fn bench_cosim_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("cosim");
    group.sample_size(10);
    // Shared by both geometries: a stream does not depend on the grid.
    // `cosim_step` runs seed 0.
    let mut seed = 0;
    for (label, cell) in [("fast_250um", 250.0), ("fine_150um", 150.0)] {
        group.bench_function(format!("gcc_7nm_1ms_{label}"), |b| {
            b.iter(|| {
                seed += 1;
                let mut cfg = bench_cfg(cell);
                cfg.seed = seed;
                run_sim(cfg)
            })
        });
    }
    group.finish();
}

fn bench_cosim_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("cosim_step");
    group.sample_size(10);
    let mut variants = Vec::new();
    for (label, cell) in [("fast_250um", 250.0), ("fine_150um", 150.0)] {
        for solver in [SolverStrategy::DirectCholesky, SolverStrategy::Cg] {
            let mut cfg = bench_cfg(cell);
            cfg.solver = solver;
            variants.push((
                format!("gcc_7nm_1ms_{label}_{solver}"),
                CoSimulation::new(cfg),
            ));
        }
    }
    for (name, sim) in variants {
        group.bench_function(name, |b| b.iter(|| sim.clone().run()));
    }
    group.finish();
}

criterion_group!(benches, bench_cosim_window, bench_cosim_step);
criterion_main!(benches);
