//! Thermal-solver cost: steady-state CG solves and warm-started transient
//! steps at several grid resolutions of the 7 nm client die.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use hotgauge_floorplan::prelude::*;
use hotgauge_thermal::model::{ThermalModel, ThermalSim};
use hotgauge_thermal::solver::CgConfig;
use hotgauge_thermal::stack::StackDescription;

fn setup(cell_um: f64) -> (ThermalModel, Vec<f64>) {
    let fp = SkylakeProxy::new(TechNode::N7).build();
    let grid = FloorplanGrid::rasterize(&fp, cell_um);
    let stack = StackDescription::client_cpu_with_border(grid.nx, grid.ny, cell_um, 2e-3);
    let model = ThermalModel::new(stack);
    // A plausible power map: 20 W spread over the die with a hot column.
    let cells = grid.cell_count();
    let mut power = vec![15.0 / cells as f64; cells];
    for p in power.iter_mut().take(cells / 10) {
        *p = 50.0 / cells as f64;
    }
    (model, power)
}

fn bench_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_steady");
    group.sample_size(10);
    for cell in [400.0, 250.0, 150.0] {
        let (model, power) = setup(cell);
        group.bench_with_input(
            BenchmarkId::new("nodes", model.node_count()),
            &(model, power),
            |b, (m, p)| {
                b.iter(|| {
                    m.steady_state(
                        black_box(p),
                        &CgConfig {
                            tolerance: 1e-8,
                            max_iterations: 50_000,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_transient_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_transient_step");
    for cell in [400.0, 250.0, 150.0] {
        let (model, power) = setup(cell);
        let nodes = model.node_count();
        let mut sim = ThermalSim::new(model, 40.0);
        sim.cg.tolerance = 1e-6;
        // Prime the cached system matrix and warm start.
        sim.step(&power, 200e-6);
        group.bench_with_input(BenchmarkId::new("nodes", nodes), &power, |b, p| {
            b.iter(|| sim.step(black_box(p), 200e-6))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_steady, bench_transient_step);
criterion_main!(benches);
