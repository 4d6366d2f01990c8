//! Maximum Localized Temperature Difference (MLTD, §III-E).
//!
//! `MLTD(p) = T(p) − min{ T(n) : ‖n − p‖ ≤ r }` — the largest temperature
//! drop from a point to any neighbor within radius `r` (1 mm in the paper:
//! roughly the distance covered in one clock cycle, kept fixed across nodes
//! because global wires do not scale).
//!
//! Two implementations are provided: a direct `O(N · r²)` reference and a
//! sliding-window-minimum version (`O(N · r)`) used by the pipeline; the
//! benchmark harness compares them (the paper makes the same
//! naive-vs-optimized argument for hotspot detection, §III-F).

use hotgauge_thermal::frame::ThermalFrame;

/// Computes the MLTD field naively (reference implementation).
pub fn mltd_field_naive(frame: &ThermalFrame, radius_m: f64) -> Vec<f64> {
    let r_cells = (radius_m / frame.cell_m).round() as isize;
    let (nx, ny) = (frame.nx as isize, frame.ny as isize);
    let mut out = vec![0.0; frame.temps.len()];
    for iy in 0..ny {
        for ix in 0..nx {
            let t = frame.temps[(iy * nx + ix) as usize];
            let mut min = t;
            for dy in -r_cells..=r_cells {
                for dx in -r_cells..=r_cells {
                    if dx * dx + dy * dy > r_cells * r_cells {
                        continue;
                    }
                    let (x, y) = (ix + dx, iy + dy);
                    if x < 0 || y < 0 || x >= nx || y >= ny {
                        continue;
                    }
                    let v = frame.temps[(y * nx + x) as usize];
                    if v < min {
                        min = v;
                    }
                }
            }
            out[(iy * nx + ix) as usize] = t - min;
        }
    }
    out
}

/// Computes the MLTD field with per-row sliding-window minima (deque
/// algorithm), then a column-wise combination over the disc's chords.
pub fn mltd_field(frame: &ThermalFrame, radius_m: f64) -> Vec<f64> {
    let r_cells = (radius_m / frame.cell_m).round() as isize;
    if r_cells <= 0 {
        return vec![0.0; frame.temps.len()];
    }
    let (nx, ny) = (frame.nx, frame.ny);

    // Precompute the horizontal half-width of the disc at each |dy|.
    let half_w = chord_half_widths(r_cells);

    // One sliding-window-minimum pass per *distinct* half-width: adjacent
    // |dy| chords often share a width (a 10-cell radius has 11 chords but
    // only ~7 widths), so `width_rows[|dy|]` indexes into a deduplicated
    // pass table instead of recomputing per chord.
    let mut passes: Vec<(isize, Vec<f64>)> = Vec::with_capacity(half_w.len());
    let width_rows: Vec<usize> = half_w
        .iter()
        .map(|&w| match passes.iter().position(|&(pw, _)| pw == w) {
            Some(i) => i,
            None => {
                passes.push((w, rows_window_min(&frame.temps, nx, ny, w)));
                passes.len() - 1
            }
        })
        .collect();

    let mut out = vec![f64::INFINITY; nx * ny];
    for dy in -r_cells..=r_cells {
        let w_idx = dy.unsigned_abs();
        let mins = &passes[width_rows[w_idx]].1;
        for iy in 0..ny as isize {
            let sy = iy + dy;
            if sy < 0 || sy >= ny as isize {
                continue;
            }
            let src = &mins[(sy as usize) * nx..(sy as usize + 1) * nx];
            let dst = &mut out[(iy as usize) * nx..(iy as usize + 1) * nx];
            for (d, &s) in dst.iter_mut().zip(src) {
                if s < *d {
                    *d = s;
                }
            }
        }
    }

    out.iter()
        .zip(&frame.temps)
        .map(|(&min, &t)| t - min)
        .collect()
}

/// Horizontal half-width of the radius-`r_cells` disc at each `|dy|`.
pub(crate) fn chord_half_widths(r_cells: isize) -> Vec<isize> {
    (0..=r_cells)
        .map(|dy| (((r_cells * r_cells - dy * dy) as f64).sqrt()).floor() as isize)
        .collect()
}

/// Sliding-window minimum of half-width `w` applied to every row.
fn rows_window_min(temps: &[f64], nx: usize, ny: usize, w: isize) -> Vec<f64> {
    let mut out = vec![0.0; nx * ny];
    let mut scratch: Vec<f64> = Vec::new();
    rows_window_min_into(temps, nx, 0..ny, w, &mut out, &mut scratch);
    out
}

/// Sliding-window minimum of half-width `w` applied to rows
/// `rows.start..rows.end` of the field, writing results into `out` (which
/// must hold exactly `rows.len() * nx` values, `out[0]` being the first cell
/// of row `rows.start`). `scratch` is caller-provided so callers reuse it
/// across passes instead of allocating per pass.
///
/// Uses the two-pass block-minimum formulation (van Herk / Gil–Werman): the
/// row is padded with `+∞` sentinels on both sides, split into blocks of the
/// window length `2w+1`, and reduced by one prefix-min and one suffix-min
/// sweep per block; each output is then the min of two precomputed halves.
/// Three branch-free compare/select passes per element auto-vectorize where
/// the classic monotonic deque is branchy and serial. Results are bitwise
/// identical to [`rows_window_min_deque`]: both return the value of the
/// highest-indexed minimum element of each window (every select below
/// prefers the later index on ties), and `+∞` sentinels are never selected
/// because every window contains at least one real (finite) cell.
pub fn rows_window_min_into(
    temps: &[f64],
    nx: usize,
    rows: std::ops::Range<usize>,
    w: isize,
    out: &mut [f64],
    scratch: &mut Vec<f64>,
) {
    let w = w.max(0) as usize;
    debug_assert_eq!(out.len(), rows.len() * nx);
    if w == 0 {
        for (oy, iy) in rows.enumerate() {
            out[oy * nx..(oy + 1) * nx].copy_from_slice(&temps[iy * nx..(iy + 1) * nx]);
        }
        return;
    }
    let wlen = 2 * w + 1;
    // Padded length, rounded up to whole blocks so the sweeps never split.
    let pc = (nx + 2 * w).div_ceil(wlen) * wlen;
    scratch.clear();
    scratch.resize(3 * pc, f64::INFINITY);
    let (pad, rest) = scratch.split_at_mut(pc);
    let (g, h) = rest.split_at_mut(pc);
    for (oy, iy) in rows.enumerate() {
        pad.fill(f64::INFINITY);
        pad[w..w + nx].copy_from_slice(&temps[iy * nx..(iy + 1) * nx]);
        let mut b = 0;
        while b < pc {
            // Prefix minima left→right (`<=` keeps the later index on ties)
            // and suffix minima right→left (`<` keeps the later index).
            let mut m = f64::INFINITY;
            for j in b..b + wlen {
                let v = pad[j];
                if v <= m {
                    m = v;
                }
                g[j] = m;
            }
            let mut m = f64::INFINITY;
            for j in (b..b + wlen).rev() {
                let v = pad[j];
                if v < m {
                    m = v;
                }
                h[j] = m;
            }
            b += wlen;
        }
        let orow = &mut out[oy * nx..(oy + 1) * nx];
        // Window [i-w, i+w] around original cell i spans padded [i, i+2w]:
        // the suffix min covers its head block, the prefix min its tail.
        for (i, o) in orow.iter_mut().enumerate() {
            let a = h[i];
            let b = g[i + 2 * w];
            *o = if b <= a { b } else { a };
        }
    }
}

/// The classic monotonic-deque sliding-window minimum (the pre-two-pass
/// kernel), kept as the differential reference and for the `mltd_kernel`
/// bench group's deque-vs-two-pass comparison. Semantics and output are
/// bitwise identical to [`rows_window_min_into`].
pub fn rows_window_min_deque(
    temps: &[f64],
    nx: usize,
    rows: std::ops::Range<usize>,
    w: isize,
    out: &mut [f64],
    deque: &mut Vec<usize>,
) {
    let w = w.max(0) as usize;
    debug_assert_eq!(out.len(), rows.len() * nx);
    for (oy, iy) in rows.enumerate() {
        let row = &temps[iy * nx..(iy + 1) * nx];
        deque.clear();
        let mut head = 0usize;
        // Classic monotonic deque over windows [i-w, i+w].
        for i in 0..nx + w {
            if i < nx {
                #[expect(
                    clippy::unwrap_used,
                    reason = "deque.len() > head >= 0 in the loop guard implies the deque is non-empty, so last() always holds a value; this is the monotonic-deque invariant on the hot path"
                )]
                while deque.len() > head && row[*deque.last().unwrap()] >= row[i] {
                    deque.pop();
                }
                deque.push(i);
            }
            if i >= w {
                let center = i - w;
                // Drop indices left of the window.
                while deque.len() > head && deque[head] + w < center {
                    head += 1;
                }
                out[oy * nx + center] = row[deque[head]];
            }
        }
    }
}

/// Maximum MLTD over the frame.
pub fn max_mltd(frame: &ThermalFrame, radius_m: f64) -> f64 {
    mltd_field(frame, radius_m).into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_from(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> f64) -> ThermalFrame {
        let mut temps = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                temps.push(f(x, y));
            }
        }
        ThermalFrame::new(nx, ny, 100e-6, temps) // 100 µm cells
    }

    #[test]
    fn uniform_frame_has_zero_mltd() {
        let f = frame_from(20, 20, |_, _| 55.0);
        let m = mltd_field(&f, 1e-3);
        assert!(m.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn single_hot_cell_mltd_equals_contrast() {
        let f = frame_from(31, 31, |x, y| if x == 15 && y == 15 { 90.0 } else { 50.0 });
        let m = mltd_field(&f, 1e-3);
        assert!((m[15 * 31 + 15] - 40.0).abs() < 1e-12);
        // A point adjacent to the hot cell sees only cold neighbors below it.
        assert!(m[15 * 31 + 14].abs() < 1e-12);
    }

    #[test]
    fn radius_limits_visibility() {
        // Hot plateau wider than the radius: its center cannot see the cold
        // region, so its MLTD is 0; its edge can.
        let f = frame_from(61, 61, |x, y| {
            let dx = x as f64 - 30.0;
            let dy = y as f64 - 30.0;
            if (dx * dx + dy * dy).sqrt() <= 20.0 {
                90.0
            } else {
                50.0
            }
        });
        let m = mltd_field(&f, 1e-3); // radius = 10 cells < plateau radius 20
        assert!(m[30 * 61 + 30].abs() < 1e-12, "center sees only hot cells");
        assert!(
            (m[30 * 61 + 12] - 40.0).abs() < 1e-12,
            "edge sees cold cells"
        );
    }

    #[test]
    fn optimized_matches_naive_on_random_fields() {
        // Deterministic pseudo-random field.
        let mut x = 0x243F6A8885A308D3u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            40.0 + (x % 1000) as f64 / 20.0
        };
        for (nx, ny, r) in [(17, 23, 3e-4), (40, 40, 1e-3), (9, 9, 2e-3)] {
            let f = frame_from(nx, ny, |_, _| rnd());
            let a = mltd_field_naive(&f, r);
            let b = mltd_field(&f, r);
            for i in 0..a.len() {
                assert!(
                    (a[i] - b[i]).abs() < 1e-9,
                    "mismatch at {i}: naive {} vs fast {} (nx={nx}, ny={ny})",
                    a[i],
                    b[i]
                );
            }
        }
    }

    #[test]
    fn shared_chord_widths_collapse_to_distinct_passes() {
        // The paper's 1 mm radius on a 100 µm grid: 11 chords, 7 widths.
        let widths = chord_half_widths(10);
        assert_eq!(widths, vec![10, 9, 9, 9, 9, 8, 8, 7, 6, 4, 0]);
        let mut distinct = widths.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 7);
    }

    #[test]
    fn two_pass_window_min_is_bitwise_equal_to_deque() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            40.0 + (x % 4096) as f64 / 64.0
        };
        for (nx, ny) in [(1, 1), (7, 5), (33, 9), (64, 16), (101, 3)] {
            let temps: Vec<f64> = (0..nx * ny).map(|_| rnd()).collect();
            // Half-widths spanning w=0, interior, w = nx-1, and w >= nx.
            for w in [
                0isize,
                1,
                2,
                5,
                nx as isize - 1,
                nx as isize,
                nx as isize + 7,
            ] {
                let mut a = vec![0.0; nx * ny];
                let mut b = vec![0.0; nx * ny];
                let mut scratch = Vec::new();
                let mut deque = Vec::new();
                rows_window_min_into(&temps, nx, 0..ny, w, &mut a, &mut scratch);
                rows_window_min_deque(&temps, nx, 0..ny, w, &mut b, &mut deque);
                for i in 0..a.len() {
                    assert_eq!(
                        a[i].to_bits(),
                        b[i].to_bits(),
                        "mismatch at {i} (nx={nx}, ny={ny}, w={w}): {} vs {}",
                        a[i],
                        b[i]
                    );
                }
            }
        }
        // Ties between +0.0 and −0.0 compare equal but differ in bits; both
        // kernels must select the same (highest-indexed) element.
        let ties = [0.0, -0.0, 1.0, -0.0, 0.0, 0.0, -0.0, 2.0];
        let mut a = vec![9.0; ties.len()];
        let mut b = vec![9.0; ties.len()];
        rows_window_min_into(&ties, ties.len(), 0..1, 2, &mut a, &mut Vec::new());
        rows_window_min_deque(&ties, ties.len(), 0..1, 2, &mut b, &mut Vec::new());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "signed-zero tie broke differently"
            );
        }
    }

    #[test]
    fn window_min_on_partial_row_bands_matches_full_grid() {
        let temps: Vec<f64> = (0..40 * 6).map(|i| ((i * 37) % 101) as f64).collect();
        let mut full = vec![0.0; 40 * 6];
        rows_window_min_into(&temps, 40, 0..6, 4, &mut full, &mut Vec::new());
        let mut band = vec![0.0; 40 * 2];
        rows_window_min_into(&temps, 40, 3..5, 4, &mut band, &mut Vec::new());
        assert_eq!(&full[3 * 40..5 * 40], &band[..]);
    }

    #[test]
    fn mltd_nonnegative() {
        let f = frame_from(25, 25, |x, y| 40.0 + ((x * 7 + y * 13) % 29) as f64);
        assert!(mltd_field(&f, 1e-3).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn max_mltd_picks_global_peak() {
        let f = frame_from(31, 31, |x, y| {
            if x == 5 && y == 5 {
                80.0
            } else if x == 25 && y == 25 {
                95.0
            } else {
                50.0
            }
        });
        assert!((max_mltd(&f, 1e-3) - 45.0).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_gives_zero_field() {
        let f = frame_from(10, 10, |x, _| x as f64);
        let m = mltd_field(&f, 1e-9);
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn edge_cells_use_truncated_neighborhoods() {
        // Gradient field: corner cell compares against in-bounds cells only.
        let f = frame_from(12, 12, |x, y| (x + y) as f64);
        let m = mltd_field(&f, 3e-4); // 3-cell radius
                                      // Corner (11,11) = 22 sees min at (8, 11)/(11, 8) = 19 -> MLTD 3... but
                                      // the disc includes (9,9)=18? dx=-2,dy=-2: 8 > 9 -> allowed (4+4=8<=9).
        assert!((m[11 * 12 + 11] - 4.0).abs() < 1e-12);
        assert_eq!(m[0], 0.0); // global minimum has zero MLTD
    }
}
