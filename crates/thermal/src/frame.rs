//! Thermal frames: the 2-D temperature field of the die's active layer at
//! one simulation instant. All hotspot metrics (MLTD, TUH, severity) are
//! computed on frames.

use serde::{Deserialize, Serialize};

/// A snapshot of the active-layer temperature over the die, row-major
/// (`iy * nx + ix`), in °C.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalFrame {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cell edge, meters.
    pub cell_m: f64,
    /// Temperatures, °C, length `nx * ny`.
    pub temps: Vec<f64>,
}

impl ThermalFrame {
    /// Creates a frame.
    ///
    /// # Panics
    ///
    /// Panics if `temps.len() != nx * ny`.
    pub fn new(nx: usize, ny: usize, cell_m: f64, temps: Vec<f64>) -> Self {
        assert_eq!(temps.len(), nx * ny, "frame size mismatch");
        assert!(cell_m > 0.0);
        Self {
            nx,
            ny,
            cell_m,
            temps,
        }
    }

    /// A frame filled with a uniform temperature.
    pub fn uniform(nx: usize, ny: usize, cell_m: f64, t: f64) -> Self {
        Self::new(nx, ny, cell_m, vec![t; nx * ny])
    }

    /// Temperature at cell `(ix, iy)`.
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        self.temps[iy * self.nx + ix]
    }

    /// Linear index of cell `(ix, iy)`.
    pub fn index(&self, ix: usize, iy: usize) -> usize {
        iy * self.nx + ix
    }

    /// `(ix, iy)` of a linear index.
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        (idx % self.nx, idx / self.nx)
    }

    /// Maximum temperature, °C.
    pub fn max(&self) -> f64 {
        self.temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum temperature, °C.
    pub fn min(&self) -> f64 {
        self.temps.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Mean temperature, °C.
    pub fn mean(&self) -> f64 {
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }

    /// Index of the hottest cell.
    #[expect(
        clippy::expect_used,
        reason = "solver output is finite (convergence-checked); NaN here means the solve already failed loudly. ThermalFrame::new asserts a non-empty grid, so the maximum always exists"
    )]
    pub fn argmax(&self) -> usize {
        self.temps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN temperatures"))
            .map(|(i, _)| i)
            .expect("non-empty frame")
    }

    /// Per-cell temperature difference `self − other` (for the ΔT-over-200µs
    /// distributions of Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if the frames have different shapes.
    pub fn delta(&self, other: &ThermalFrame) -> Vec<f64> {
        assert_eq!(self.nx, other.nx);
        assert_eq!(self.ny, other.ny);
        self.temps
            .iter()
            .zip(&other.temps)
            .map(|(a, b)| a - b)
            .collect()
    }

    /// Histogram of temperatures with `bins` equal-width bins over
    /// `[lo, hi)`; out-of-range samples are clamped into the edge bins.
    /// Returns `(bin_edges, counts)` with `bins + 1` edges.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> (Vec<f64>, Vec<usize>) {
        histogram(&self.temps, lo, hi, bins)
    }
}

/// Histogram helper shared by frame and ΔT analyses.
pub fn histogram(samples: &[f64], lo: f64, hi: f64, bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins > 0 && hi > lo);
    let width = (hi - lo) / bins as f64;
    let edges: Vec<f64> = (0..=bins).map(|i| lo + i as f64 * width).collect();
    let mut counts = vec![0usize; bins];
    for &s in samples {
        let mut b = ((s - lo) / width).floor() as isize;
        if b < 0 {
            b = 0;
        }
        if b >= bins as isize {
            b = bins as isize - 1;
        }
        counts[b as usize] += 1;
    }
    (edges, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> ThermalFrame {
        ThermalFrame::new(3, 2, 1e-4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn indexing() {
        let f = frame();
        assert_eq!(f.at(0, 0), 1.0);
        assert_eq!(f.at(2, 1), 6.0);
        assert_eq!(f.index(2, 1), 5);
        assert_eq!(f.coords(5), (2, 1));
    }

    #[test]
    fn stats() {
        let f = frame();
        assert_eq!(f.max(), 6.0);
        assert_eq!(f.min(), 1.0);
        assert!((f.mean() - 3.5).abs() < 1e-12);
        assert_eq!(f.argmax(), 5);
    }

    #[test]
    fn delta() {
        let f = frame();
        let g = ThermalFrame::uniform(3, 2, 1e-4, 1.0);
        let d = f.delta(&g);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let (edges, counts) = histogram(&[0.5, 1.5, 2.5, -10.0, 10.0], 0.0, 3.0, 3);
        assert_eq!(edges.len(), 4);
        assert_eq!(counts, vec![2, 1, 2]); // -10 clamps into bin 0, 10 into bin 2
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let _ = ThermalFrame::new(2, 2, 1e-4, vec![0.0; 3]);
    }
}
