//! The fused analysis stage vs the split reference sequence the pipeline
//! used to run per substep: `mltd_field` for the records **plus**
//! `detect_hotspots` (which recomputed the field internally) **plus** the
//! full-grid peak-severity and max-MLTD folds. The fused [`FrameAnalyzer`]
//! produces bit-identical outputs in one sweep with reusable buffers, an
//! optional row-sharded parallel path, and a sub-threshold prefilter.
//!
//! Frames use the *real* die geometry of each fidelity preset (the 7 nm
//! Skylake proxy rasterized at 250/150/100 µm), so the per-window numbers
//! transfer directly to pipeline substeps at those presets.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use hotgauge_core::analysis::FrameAnalyzer;
use hotgauge_core::detect::{detect_hotspots, HotspotParams};
use hotgauge_core::mltd::mltd_field;
use hotgauge_core::severity::{peak_severity, SeverityParams};
use hotgauge_floorplan::grid::FloorplanGrid;
use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_thermal::frame::ThermalFrame;

/// Die-sized frame at a preset's grid resolution with several Gaussian hot
/// bumps. `scale` shrinks the bumps; at 0.5 the frame stays below the 80 °C
/// threshold everywhere (the prefilter case).
fn preset_frame(cell_um: f64, scale: f64) -> ThermalFrame {
    let fp = SkylakeProxy::new(TechNode::N7).build();
    let grid = FloorplanGrid::rasterize(&fp, cell_um);
    let (nx, ny) = (grid.nx, grid.ny);
    let bumps = [
        (0.25, 0.3, 45.0, 4.0),
        (0.7, 0.6, 42.0, 3.0),
        (0.5, 0.8, 38.0, 5.0),
    ];
    // Bump widths are in cells of a 100 µm grid; rescale so the hot blobs
    // cover the same physical area at every resolution.
    let sigma_scale = 100.0 / cell_um;
    let mut temps = Vec::with_capacity(nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            let mut t = 55.0;
            for (cx, cy, amp, sigma) in bumps {
                let dx = x as f64 - cx * nx as f64;
                let dy = y as f64 - cy * ny as f64;
                let s = sigma * sigma_scale;
                t += scale * amp * (-(dx * dx + dy * dy) / (2.0 * s * s)).exp();
            }
            temps.push(t);
        }
    }
    ThermalFrame::new(nx, ny, cell_um * 1e-6, temps)
}

/// What the co-simulation pipeline computed per substep before fusion.
fn split_reference(
    frame: &ThermalFrame,
    params: &HotspotParams,
    severity: &SeverityParams,
) -> (usize, f64, f64) {
    let mltd = mltd_field(frame, params.radius_m);
    let spots = detect_hotspots(frame, params, severity);
    let max_mltd = mltd.iter().cloned().fold(0.0f64, f64::max);
    let peak_sev = peak_severity(severity, &frame.temps, &mltd);
    (spots.len(), max_mltd, peak_sev)
}

const PRESETS: [(&str, f64); 3] = [
    ("fast_250um", 250.0),
    ("medium_150um", 150.0),
    ("paper_100um", 100.0),
];

fn bench_analysis(c: &mut Criterion) {
    let params = HotspotParams::paper_default();
    let severity = SeverityParams::cpu_default();
    let mut group = c.benchmark_group("analysis");
    for (label, cell_um) in PRESETS {
        let frame = preset_frame(cell_um, 1.0);
        group.bench_with_input(BenchmarkId::new("split", label), &frame, |b, f| {
            b.iter(|| split_reference(black_box(f), &params, &severity))
        });
        let mut fused = FrameAnalyzer::new(params, severity);
        group.bench_with_input(BenchmarkId::new("fused", label), &frame, |b, f| {
            b.iter(|| fused.analyze(black_box(f)))
        });
    }
    group.finish();
}

fn bench_prefilter(c: &mut Criterion) {
    let params = HotspotParams::paper_default();
    let severity = SeverityParams::cpu_default();
    let mut group = c.benchmark_group("analysis_prefilter");
    for (label, cell_um) in PRESETS {
        // Sub-threshold frame: Definition 1 guarantees an empty hotspot set,
        // so the prefiltered analyzer skips the sweep entirely.
        let frame = preset_frame(cell_um, 0.5);
        let frame_max = frame.max();
        assert!(frame_max <= params.t_threshold_c, "premise: cool frame");
        group.bench_with_input(BenchmarkId::new("split", label), &frame, |b, f| {
            b.iter(|| split_reference(black_box(f), &params, &severity))
        });
        let mut az = FrameAnalyzer::new(params, severity);
        group.bench_with_input(BenchmarkId::new("prefiltered", label), &frame, |b, f| {
            b.iter(|| az.analyze_with_max(black_box(f), frame_max, true))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analysis, bench_prefilter);
criterion_main!(benches);
