//! Smoke tests for the experiment runners at miniature fidelity: every
//! figure harness must execute end-to-end and produce structurally sound
//! output.

use hotgauge_core::experiments::{
    fig11_fold, fig11_tuh_per_benchmark, fig12_location_census, fig2_delta_distributions,
    fig8_warmup_runs, fig9_mltd_series, sec5b_grid, sec5b_ic_scaling, tuh_grid, Fidelity,
};
use hotgauge_core::run_many_batched_with;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_telemetry::manifest::{RunManifest, StoreManifest, SCHEMA_VERSION};
use hotgauge_thermal::warmup::Warmup;

fn mini() -> Fidelity {
    Fidelity {
        cell_um: 350.0,
        border_mm: 1.0,
        substeps: 1,
        sample_instrs: 5_000,
        max_time_s: 1.2e-3,
        threads: 2,
        batch: 8,
    }
}

#[test]
fn fig11_runner_shapes() {
    let rows = fig11_tuh_per_benchmark(&mini(), Warmup::Idle, &["hmmer", "lbm"], &[0, 3]);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].0, "hmmer");
    assert_eq!(rows[0].1.len(), 2);
}

#[test]
fn fig9_runner_produces_series_per_core() {
    let out = fig9_mltd_series(&mini(), &[TechNode::N7], &[0, 6], 1e-3);
    assert_eq!(out.len(), 2);
    for (node, core, ts) in &out {
        assert_eq!(*node, TechNode::N7);
        assert!([0usize, 6].contains(core));
        assert!(!ts.is_empty());
        assert!(ts.values.iter().all(|&v| v >= 0.0));
    }
}

#[test]
fn fig12_census_aggregates() {
    let census = fig12_location_census(&mini(), &["povray"], &[0]);
    // At miniature fidelity hotspots may or may not appear; the census must
    // simply be well-formed.
    let ranked = census.ranked();
    let sum: u64 = ranked.iter().map(|(_, c)| c).sum();
    assert_eq!(sum, census.total());
}

#[test]
fn fig2_histograms_cover_both_nodes() {
    let rows = fig2_delta_distributions(&mini(), "bzip2", 1e-3);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].0, TechNode::N14);
    assert_eq!(rows[1].0, TechNode::N7);
    for (_, edges, counts) in &rows {
        assert_eq!(edges.len(), counts.len() + 1);
        assert!(counts.iter().sum::<usize>() > 0);
    }
}

#[test]
fn fig8_records_histograms_for_both_warmups() {
    let runs = fig8_warmup_runs(&mini(), 1e-3);
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].config.warmup, Warmup::Cold);
    assert_eq!(runs[1].config.warmup, Warmup::Idle);
    for r in &runs {
        assert!(r.records.iter().all(|rec| rec.temp_hist.is_some()));
    }
}

#[test]
fn tuh_grid_is_benchmark_major_and_stop_flagged() {
    let fid = mini();
    let benchmarks = ["hmmer", "lbm"];
    let cores = [0usize, 3, 6];
    let grid = tuh_grid(&fid, TechNode::N7, Warmup::Idle, &benchmarks, &cores);
    assert_eq!(grid.len(), benchmarks.len() * cores.len());
    for (i, cfg) in grid.iter().enumerate() {
        assert_eq!(cfg.benchmark, benchmarks[i / cores.len()]);
        assert_eq!(cfg.target_core, cores[i % cores.len()]);
        assert!(cfg.stop_at_first_hotspot);
        assert_eq!(cfg.warmup, Warmup::Idle);
        assert_eq!(cfg.node, TechNode::N7);
        assert_eq!(cfg.cell_um, fid.cell_um);
    }
}

#[test]
fn sec5b_grid_interleaves_baseline_and_factor_runs() {
    let fid = mini();
    let benchmarks = ["povray", "gcc"];
    let factors = [1.5, 2.5];
    let grid = sec5b_grid(&fid, &benchmarks, &factors, 1e-3);
    let stride = 1 + factors.len();
    assert_eq!(grid.len(), benchmarks.len() * stride);
    for (bi, b) in benchmarks.iter().enumerate() {
        let block = &grid[bi * stride..(bi + 1) * stride];
        assert_eq!(block[0].node, TechNode::N14);
        assert_eq!(block[0].ic_area_factor, 1.0);
        for (j, f) in factors.iter().enumerate() {
            assert_eq!(block[1 + j].node, TechNode::N7);
            assert_eq!(block[1 + j].ic_area_factor, *f);
        }
        for cfg in block {
            assert_eq!(&cfg.benchmark, b);
            assert_eq!(cfg.max_time_s, 1e-3);
        }
    }
}

/// Routing the exposed grid through the executor and folding must equal the
/// one-call runner — the decomposition the store-fronted sweep relies on.
#[test]
fn fig11_grid_plus_fold_composes_to_the_runner() {
    let fid = mini();
    let benchmarks = ["hmmer"];
    let cores = [0usize, 3];
    let grid = tuh_grid(&fid, TechNode::N7, Warmup::Idle, &benchmarks, &cores);
    let results = run_many_batched_with(grid, fid.threads, fid.batch, None);
    let folded = fig11_fold(&results, &benchmarks, &cores);
    let direct = fig11_tuh_per_benchmark(&fid, Warmup::Idle, &benchmarks, &cores);
    assert_eq!(folded, direct);
}

/// The manifest schema is at v3 with the optional store block, and the
/// block round-trips bit-for-bit.
#[test]
fn manifest_schema_is_v3_with_optional_store_block() {
    assert_eq!(SCHEMA_VERSION, 3);
    let mut m = RunManifest::new("smoke");
    assert!(m.store.is_none());
    let text = serde_json::to_string(&m).unwrap();
    assert!(
        text.starts_with("{\"schema_version\":3,"),
        "manifest must lead with its schema version: {text}"
    );
    m.store = Some(StoreManifest {
        hits: 3,
        misses: 1,
        writes: 1,
        quarantined: 0,
        hit_rate: 0.75,
    });
    let back: RunManifest = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    let store = back.store.expect("store block must survive a round trip");
    assert_eq!(
        (store.hits, store.misses, store.writes, store.quarantined),
        (3, 1, 1, 0)
    );
    assert!((store.hit_rate - 0.75).abs() < 1e-12);
}

#[test]
fn sec5b_sweep_is_monotone_enough() {
    let rows = sec5b_ic_scaling(&mini(), &["povray"], &[1.5, 2.5], 1.2e-3);
    assert_eq!(rows.len(), 1);
    let (_, target, sweep, _) = &rows[0];
    assert!(*target >= 0.0);
    assert_eq!(sweep.len(), 2);
    // More area never increases RMS severity.
    assert!(sweep[1].1 <= sweep[0].1 + 1e-9);
}
