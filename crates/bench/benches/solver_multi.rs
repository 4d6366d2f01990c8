//! Lockstep multi-RHS solver cost: K identical transient steps through
//! `step_lockstep` against the K=1 solo path at several grid resolutions
//! of the 7 nm client die. The per-run amortization is `K·T(1) / T(K)` —
//! the multi-RHS CG kernels stream each matrix row's coefficients once for
//! all K lanes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use hotgauge_floorplan::prelude::*;
use hotgauge_thermal::model::{step_lockstep, LockstepScratch, ThermalModel, ThermalSim};
use hotgauge_thermal::stack::StackDescription;

fn setup(cell_um: f64) -> (ThermalModel, Vec<f64>) {
    let fp = SkylakeProxy::new(TechNode::N7).build();
    let grid = FloorplanGrid::rasterize(&fp, cell_um);
    let stack = StackDescription::client_cpu_with_border(grid.nx, grid.ny, cell_um, 2e-3);
    let model = ThermalModel::new(stack);
    let cells = grid.cell_count();
    let mut power = vec![15.0 / cells as f64; cells];
    for p in power.iter_mut().take(cells / 10) {
        *p = 50.0 / cells as f64;
    }
    (model, power)
}

fn bench_lockstep_cg(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_multi");
    group.sample_size(10);
    for cell in [400.0, 250.0, 150.0] {
        let (model, power) = setup(cell);
        let nodes = model.node_count();
        let mut proto = ThermalSim::new(model, 40.0);
        proto.cg.tolerance = 1e-6;
        // Prime: build the cached system, and establish a warm start shared
        // by every clone.
        proto.step(&power, 200e-6);
        for k in [1usize, 4, 8] {
            // Clones share the prepared system matrix through its Arc —
            // the same sharing the sweep executor's batches rely on.
            let mut sims: Vec<ThermalSim> = (0..k).map(|_| proto.clone()).collect();
            let mut scratch = LockstepScratch::new();
            group.bench_with_input(
                BenchmarkId::new(format!("cg_k{k}"), nodes),
                &power,
                |b, p| {
                    b.iter(|| {
                        let mut lanes: Vec<&mut ThermalSim> = sims.iter_mut().collect();
                        let powers: Vec<&[f64]> = (0..k).map(|_| p.as_slice()).collect();
                        step_lockstep(&mut lanes, black_box(&powers), 200e-6, &mut scratch).len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lockstep_cg);
criterion_main!(benches);
