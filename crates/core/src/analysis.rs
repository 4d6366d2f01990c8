//! Fused per-frame hotspot analysis.
//!
//! The per-substep analysis stage of the pipeline — the MLTD field (§III-E),
//! candidate hotspot detection (§III-F), and the severity metric (§III-G) —
//! historically ran as three independent full-grid passes, with the MLTD
//! sliding-window computed *twice* (once for the records, once inside
//! `detect_hotspots`). [`FrameAnalyzer`] fuses them into one pass over the
//! frame and adds two mechanical speedups, neither of which changes a single
//! bit of any result:
//!
//! * **buffer reuse** — the deduplicated sliding-window pass buffers, the
//!   MLTD field, and the deque scratch persist across substeps instead of
//!   being reallocated ~10⁴ times per run;
//! * **exact severity pruning** — per row, an upper bound
//!   ([`crate::severity::SeverityParams::severity_bound`]) computed from the
//!   row's max temperature and max MLTD skips the exp-heavy per-cell severity
//!   sweep whenever the row provably cannot beat the running peak. The peak
//!   is still the exact full-grid maximum.
//!
//! A third mechanism, the **sub-threshold prefilter**
//! ([`FrameAnalyzer::analyze_with_max`]), *does* change what gets recorded —
//! it skips the analysis entirely when no cell exceeds `T_th`, reporting zero
//! MLTD/severity for that substep — so the pipeline only engages it for
//! `stop_at_first_hotspot` (TUH) runs, where those per-substep fields are
//! never consumed and the hotspot set (empty, exactly as Definition 1 says:
//! no cell above `T_th` ⇒ no hotspot) is all that matters.

use serde::{Deserialize, Serialize};

use hotgauge_telemetry::counter;
use hotgauge_thermal::frame::ThermalFrame;

use crate::detect::{Hotspot, HotspotParams};
use crate::mltd::{chord_half_widths, rows_window_min_into};
use crate::severity::SeverityParams;

/// Options of the pipeline's analysis stage. The TUH, the census and the
/// thermal trajectory never depend on them; the prefilter only decides
/// whether metrics are recorded for provably hotspot-free substeps in TUH
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Skip the analysis of substeps whose frame max is below `T_th` in
    /// `stop_at_first_hotspot` runs (such frames cannot contain a hotspot
    /// by Definition 1).
    pub prefilter: bool,
}

/// The default is the same on every host: it is recorded in each
/// `RunResult.config` and hashed into result-store keys, so it must not read
/// the machine.
impl Default for AnalysisConfig {
    fn default() -> Self {
        Self { prefilter: true }
    }
}

/// Everything the pipeline needs from one frame's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameAnalysis {
    /// Detected hotspots, in the row-major order of [`crate::detect::detect_hotspots`].
    pub hotspots: Vec<Hotspot>,
    /// Maximum MLTD over the frame (0 when prefiltered).
    pub max_mltd_c: f64,
    /// Peak severity over the frame (0 when prefiltered).
    pub peak_severity: f64,
    /// True when the sub-threshold prefilter skipped the analysis.
    pub prefiltered: bool,
}

/// Reusable fused analyzer: computes the MLTD field, the hotspot set, the
/// frame's max MLTD, and the exact peak severity in one sweep, holding all
/// scratch buffers across calls.
///
/// Outputs are bit-identical to the unfused reference sequence
/// `mltd_field` → `detect_hotspots` → full-grid `peak_severity` fold →
/// max-MLTD fold (the parity property tests in `tests/properties.rs` pin
/// this down).
#[derive(Debug, Clone)]
pub struct FrameAnalyzer {
    params: HotspotParams,
    severity: SeverityParams,
    bound_usable: bool,
    /// Disc radius in cells the tables below were built for (-1 = none yet).
    r_cells: isize,
    /// Distinct sliding-window half-widths (deduplicated chord table).
    pass_widths: Vec<isize>,
    /// `|dy|` → index into `pass_widths` / `passes`.
    width_of_dy: Vec<usize>,
    /// One full-grid sliding-window minimum buffer per distinct width.
    passes: Vec<Vec<f64>>,
    /// The MLTD field of the last analyzed frame.
    mltd: Vec<f64>,
    /// Per-row disc-minimum scratch (also reused as the severity-row output
    /// buffer once the row's MLTD is written).
    rowmin: Vec<f64>,
    /// Two-pass window-minimum scratch for the sliding-window passes.
    winmin: Vec<f64>,
}

impl FrameAnalyzer {
    /// Creates an analyzer for the given detection thresholds and severity
    /// parameters.
    pub fn new(params: HotspotParams, severity: SeverityParams) -> Self {
        Self {
            params,
            severity,
            bound_usable: severity.bound_usable(),
            r_cells: -1,
            pass_widths: Vec::new(),
            width_of_dy: Vec::new(),
            passes: Vec::new(),
            mltd: Vec::new(),
            rowmin: Vec::new(),
            winmin: Vec::new(),
        }
    }

    /// The MLTD field of the last non-prefiltered [`FrameAnalyzer::analyze`]
    /// call (row-major, frame-sized). Empty before the first call.
    pub fn mltd(&self) -> &[f64] {
        &self.mltd
    }

    /// [`FrameAnalyzer::analyze`] behind the sub-threshold prefilter: when
    /// `prefilter` is set and `frame_max` (the frame's exact max, tracked
    /// during extraction) does not exceed `T_th`, Definition 1 guarantees an
    /// empty hotspot set, so the whole analysis is skipped and zeros are
    /// reported for max-MLTD / peak severity.
    pub fn analyze_with_max(
        &mut self,
        frame: &ThermalFrame,
        frame_max: f64,
        prefilter: bool,
    ) -> FrameAnalysis {
        if prefilter && frame_max <= self.params.t_threshold_c {
            counter!("analysis.prefilter_skips", 1);
            return FrameAnalysis {
                hotspots: Vec::new(),
                max_mltd_c: 0.0,
                peak_severity: 0.0,
                prefiltered: true,
            };
        }
        self.analyze(frame)
    }

    /// Fused analysis of one frame: MLTD field + hotspot detection + max
    /// MLTD + exact peak severity.
    pub fn analyze(&mut self, frame: &ThermalFrame) -> FrameAnalysis {
        self.prepare(frame);
        let Self {
            params,
            severity,
            bound_usable,
            r_cells,
            pass_widths,
            width_of_dy,
            passes,
            mltd,
            rowmin,
            winmin,
        } = self;
        let (temps, nx, ny, r) = (&frame.temps[..], frame.nx, frame.ny, *r_cells);
        let bound_usable = *bound_usable;
        // The deduplicated sliding-window minimum passes.
        for (pass, &width) in passes.iter_mut().zip(pass_widths.iter()) {
            rows_window_min_into(temps, nx, 0..ny, width, pass, winmin);
        }

        // The fused per-row sweep: combines the passes into the disc
        // minimum, writes the MLTD field, detects hotspots (local maxima in
        // x and y, ties allowed, clearing both Definition-1 thresholds), and
        // folds the max MLTD and exact peak severity.
        rowmin.resize(nx, 0.0);
        let mut hotspots = Vec::new();
        let (mut max_mltd, mut peak_sev) = (0.0f64, 0.0f64);
        let (mut severity_evals, mut simd_rows) = (0usize, 0usize);
        for iy in 0..ny {
            // Disc minimum for this output row: min over the chord rows
            // iy + dy, each already reduced horizontally by its pass.
            rowmin.fill(f64::INFINITY);
            for dy in -r..=r {
                let sy = iy as isize + dy;
                if sy < 0 || sy >= ny as isize {
                    continue;
                }
                let mins = &passes[width_of_dy[dy.unsigned_abs()]];
                let src = &mins[(sy as usize) * nx..(sy as usize + 1) * nx];
                for (d, &s) in rowmin.iter_mut().zip(src) {
                    if s < *d {
                        *d = s;
                    }
                }
            }

            let trow = &temps[iy * nx..(iy + 1) * nx];
            let mrow = &mut mltd[iy * nx..(iy + 1) * nx];
            let mut row_max_t = f64::NEG_INFINITY;
            let mut row_max_m = 0.0f64;
            for ix in 0..nx {
                let t = trow[ix];
                let m = t - rowmin[ix];
                mrow[ix] = m;
                if t > row_max_t {
                    row_max_t = t;
                }
                if m > row_max_m {
                    row_max_m = m;
                }
            }
            if row_max_m > max_mltd {
                max_mltd = row_max_m;
            }

            // Hotspots: only possible when some cell clears T_th (Definition 1),
            // which most rows of a sane die never do.
            if row_max_t > params.t_threshold_c {
                let up = (iy > 0).then(|| &temps[(iy - 1) * nx..iy * nx]);
                let down = (iy + 1 < ny).then(|| &temps[(iy + 1) * nx..(iy + 2) * nx]);
                for ix in 0..nx {
                    let t = trow[ix];
                    if t <= params.t_threshold_c {
                        continue;
                    }
                    let m = mrow[ix];
                    if m <= params.mltd_threshold_c {
                        continue;
                    }
                    let ok_x =
                        (ix == 0 || trow[ix - 1] <= t) && (ix + 1 >= nx || trow[ix + 1] <= t);
                    let ok_y = up.is_none_or(|u| u[ix] <= t) && down.is_none_or(|d| d[ix] <= t);
                    if ok_x && ok_y {
                        hotspots.push(Hotspot {
                            ix,
                            iy,
                            temp_c: t,
                            mltd_c: m,
                            severity: severity.severity(t, m),
                        });
                    }
                }
            }

            // Exact peak severity with row pruning: the bound dominates every
            // cell in the row, so rows that cannot beat the running peak skip
            // the exp-heavy sweep without changing the final maximum.
            let row_bound = bound_usable.then(|| severity.severity_bound(row_max_t, row_max_m));
            let must_scan = row_bound.is_none_or(|b| b > peak_sev);
            if must_scan {
                // Contiguous-slice severity kernel into `rowmin` (free once the
                // MLTD row above is written), then a left-to-right max fold —
                // same per-element formula and selection as the scalar loop.
                severity.severity_row(trow, mrow, rowmin);
                for &s in rowmin.iter() {
                    // The pruning is only sound if the row bound dominates every
                    // cell severity in the row; check it where the lint cannot.
                    debug_assert!(
                        row_bound.is_none_or(|b| s <= b + 1e-12),
                        "severity_bound {row_bound:?} does not dominate severity {s} in row {iy}",
                    );
                    if s > peak_sev {
                        peak_sev = s;
                    }
                }
                severity_evals += nx;
                simd_rows += 1;
            }
        }
        counter!("detect.severity_evals", severity_evals);
        counter!("analysis.simd_rows", simd_rows);
        FrameAnalysis {
            hotspots,
            max_mltd_c: max_mltd,
            peak_severity: peak_sev,
            prefiltered: false,
        }
    }

    /// (Re)builds the chord tables and sizes the scratch buffers for the
    /// frame's geometry. No-op when nothing changed — the common case, since
    /// a run's frames all share one grid.
    fn prepare(&mut self, frame: &ThermalFrame) {
        let r = (self.params.radius_m / frame.cell_m).round() as isize;
        let n = frame.temps.len();
        if r != self.r_cells {
            self.r_cells = r;
            // Deduplicate chords by half-width exactly as `mltd_field` does
            // (a 10-cell radius has 11 chords but only 7 distinct widths).
            let half_w = chord_half_widths(r.max(0));
            self.pass_widths.clear();
            self.width_of_dy = half_w
                .iter()
                .map(|&w| match self.pass_widths.iter().position(|&pw| pw == w) {
                    Some(i) => i,
                    None => {
                        self.pass_widths.push(w);
                        self.pass_widths.len() - 1
                    }
                })
                .collect();
            self.passes = vec![Vec::new(); self.pass_widths.len()];
        }
        for pass in &mut self.passes {
            pass.resize(n, 0.0);
        }
        self.mltd.resize(n, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_hotspots;
    use crate::mltd::mltd_field;
    use crate::severity::peak_severity;

    fn frame_from(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> f64) -> ThermalFrame {
        let mut temps = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                temps.push(f(x, y));
            }
        }
        ThermalFrame::new(nx, ny, 100e-6, temps)
    }

    fn bumpy_frame(nx: usize, ny: usize) -> ThermalFrame {
        frame_from(nx, ny, |x, y| {
            let bump = |cx: f64, cy: f64, amp: f64, sigma: f64| {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                amp * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
            };
            55.0 + bump(0.3 * nx as f64, 0.3 * ny as f64, 42.0, 3.0)
                + bump(0.7 * nx as f64, 0.6 * ny as f64, 38.0, 2.0)
        })
    }

    fn assert_matches_reference(frame: &ThermalFrame) {
        let p = HotspotParams::paper_default();
        let s = SeverityParams::cpu_default();
        let mut az = FrameAnalyzer::new(p, s);
        let a = az.analyze(frame);

        let mltd = mltd_field(frame, p.radius_m);
        assert_eq!(az.mltd(), &mltd[..], "MLTD field must be bit-identical");
        assert_eq!(a.hotspots, detect_hotspots(frame, &p, &s));
        assert_eq!(a.max_mltd_c, mltd.iter().cloned().fold(0.0, f64::max));
        assert_eq!(a.peak_severity, peak_severity(&s, &frame.temps, &mltd));
        assert!(!a.prefiltered);
    }

    #[test]
    fn fused_serial_matches_reference_pipeline() {
        assert_matches_reference(&bumpy_frame(48, 40));
    }

    #[test]
    fn analyzer_is_reusable_across_frames() {
        let p = HotspotParams::paper_default();
        let s = SeverityParams::cpu_default();
        let mut az = FrameAnalyzer::new(p, s);
        for amp in [10.0, 45.0, 30.0] {
            let f = frame_from(40, 40, |x, y| {
                let dx = x as f64 - 20.0;
                let dy = y as f64 - 20.0;
                55.0 + amp * (-(dx * dx + dy * dy) / 18.0).exp()
            });
            let a = az.analyze(&f);
            assert_eq!(a.hotspots, detect_hotspots(&f, &p, &s));
            assert_eq!(az.mltd(), &mltd_field(&f, p.radius_m)[..]);
        }
    }

    #[test]
    fn prefilter_skips_subthreshold_frames() {
        let f = frame_from(40, 40, |_, _| 61.0);
        let p = HotspotParams::paper_default();
        let mut az = FrameAnalyzer::new(p, SeverityParams::cpu_default());
        let a = az.analyze_with_max(&f, 61.0, true);
        assert!(a.prefiltered);
        assert!(a.hotspots.is_empty());
        assert_eq!(a.max_mltd_c, 0.0);
        assert_eq!(a.peak_severity, 0.0);
        // Above T_th the prefilter must not engage.
        let hot = frame_from(40, 40, |x, y| if (x, y) == (20, 20) { 95.0 } else { 55.0 });
        let b = az.analyze_with_max(&hot, 95.0, true);
        assert!(!b.prefiltered);
        assert_eq!(b.hotspots.len(), 1);
    }

    #[test]
    fn zero_radius_yields_zero_mltd() {
        let mut p = HotspotParams::paper_default();
        p.radius_m = 1e-9; // rounds to 0 cells
        let f = bumpy_frame(30, 30);
        let mut az = FrameAnalyzer::new(p, SeverityParams::cpu_default());
        let a = az.analyze(&f);
        assert!(az.mltd().iter().all(|&v| v == 0.0));
        assert_eq!(a.max_mltd_c, 0.0);
        assert!(a.hotspots.is_empty(), "MLTD 0 < threshold everywhere");
    }

    #[test]
    fn analysis_config_defaults_are_sane() {
        assert!(AnalysisConfig::default().prefilter);
    }
}
