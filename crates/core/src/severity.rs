//! The hotspot severity metric (§III-G, Eq. 1–2, Fig. 7).
//!
//! `sev(T, MLTD) = σ_df(T) + σ_M(MLTD) · σ_T(T)`, clipped to `[0, 1]`:
//!
//! * `σ_df` — the *device failure* term, saturating to 1 at 115 °C (junction
//!   temperature without guardband);
//! * `σ_M · σ_T` — the *timing* term: the marginal contributions of MLTD and
//!   absolute temperature, multiplied because timing failure depends
//!   non-linearly on both (temperature affects logic and interconnect in
//!   opposite directions).
//!
//! A value of 1 means an error or permanent damage is imminent; 0.5 means
//! immediate mitigation is required; 0 means no hotspot-related concern.

use serde::{Deserialize, Serialize};

use crate::units;

/// The parameterized sigmoid of Eq. 1:
/// `σ(x) = a / (1 + e^{−s (x − x₀)}) + y₀`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sigmoid {
    /// Horizontal offset `x₀`.
    pub x0: f64,
    /// Vertical offset `y₀`.
    pub y0: f64,
    /// Slope parameter `s`.
    pub s: f64,
    /// Amplitude `a`.
    pub a: f64,
}

impl Sigmoid {
    /// Creates a sigmoid with the given parameters.
    pub fn new(x0: f64, y0: f64, s: f64, a: f64) -> Self {
        Self { x0, y0, s, a }
    }

    /// Evaluates the sigmoid at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.a / (1.0 + (-self.s * (x - self.x0)).exp()) + self.y0
    }
}

/// The three-sigmoid severity metric of Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeverityParams {
    /// Device-failure term `σ_df` over absolute temperature.
    pub df: Sigmoid,
    /// MLTD marginal term `σ_M`.
    pub m: Sigmoid,
    /// Temperature marginal term `σ_T`.
    pub t: Sigmoid,
}

impl SeverityParams {
    /// The paper's parameters, "tuned for high-speed CPU-like circuits
    /// without DRAM in the thermal stack" (Fig. 7):
    /// `σ_df = σ(115, 0, 0.2, 2)`, `σ_M = σ(15, −0.25, 0.2, 1.25)`,
    /// `σ_T = σ(60, 0.35, 0.05, 0.65)`.
    pub fn cpu_default() -> Self {
        Self {
            df: Sigmoid::new(units::SIGMOID_DF_MIDPOINT.deg_c(), 0.0, 0.2, 2.0),
            m: Sigmoid::new(units::SIGMOID_MLTD_MIDPOINT.deg_c(), -0.25, 0.2, 1.25),
            t: Sigmoid::new(units::SIGMOID_TEMP_MIDPOINT.deg_c(), 0.35, 0.05, 0.65),
        }
    }

    /// Severity of a point with temperature `t_c` (°C) and the given MLTD
    /// (°C), clipped to `[0, 1]`.
    pub fn severity(&self, t_c: f64, mltd_c: f64) -> f64 {
        let raw = self.df.eval(t_c) + self.m.eval(mltd_c) * self.t.eval(t_c);
        raw.clamp(0.0, 1.0)
    }

    /// Evaluates the severity of a whole row of cells into `out`:
    /// `out[i] = severity(temps[i], mltd[i])` — the identical per-element
    /// formula and `[0, 1]` clamp as [`SeverityParams::severity`], expressed
    /// over contiguous slices so the sigmoid pipeline runs branch-free per
    /// element (the clamp is a compare/select, not a branch) and the
    /// analysis hot loop streams whole rows. Bitwise identical to calling
    /// [`SeverityParams::severity`] per cell.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn severity_row(&self, temps: &[f64], mltd: &[f64], out: &mut [f64]) {
        assert_eq!(temps.len(), mltd.len());
        assert_eq!(temps.len(), out.len());
        for ((o, &t), &m) in out.iter_mut().zip(temps).zip(mltd) {
            *o = (self.df.eval(t) + self.m.eval(m) * self.t.eval(t)).clamp(0.0, 1.0);
        }
    }

    /// True when [`SeverityParams::severity_bound`] is a valid upper bound:
    /// all three sigmoids must be non-decreasing (`s ≥ 0`, `a ≥ 0`) and the
    /// temperature gate `σ_T` must be non-negative everywhere (`y₀ ≥ 0`).
    /// Holds for [`SeverityParams::cpu_default`]; callers with exotic
    /// parameters fall back to evaluating every cell.
    pub fn bound_usable(&self) -> bool {
        let nondecreasing = |s: &Sigmoid| s.s >= 0.0 && s.a >= 0.0;
        nondecreasing(&self.df)
            && nondecreasing(&self.m)
            && nondecreasing(&self.t)
            && self.t.y0 >= 0.0
    }

    /// Upper bound on `severity(t, m)` over any set of points with
    /// `t ≤ max_t` and `0 ≤ m ≤ max_m`, valid whenever
    /// [`SeverityParams::bound_usable`] holds: `σ_df` is bounded by its value
    /// at `max_t`, and the timing product by `max(σ_M(max_m), 0) · σ_T(max_t)`
    /// (when `σ_M(m) ≤ 0` the product is ≤ 0; otherwise both factors are
    /// non-negative and individually maximized at the extremes).
    pub fn severity_bound(&self, max_t: f64, max_m: f64) -> f64 {
        let raw = self.df.eval(max_t) + self.m.eval(max_m).max(0.0) * self.t.eval(max_t);
        raw.clamp(0.0, 1.0)
    }
}

/// Peak severity over a whole frame given per-cell temperatures and the
/// matching per-cell MLTD field.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn peak_severity(params: &SeverityParams, temps: &[f64], mltd: &[f64]) -> f64 {
    assert_eq!(temps.len(), mltd.len());
    temps
        .iter()
        .zip(mltd)
        .map(|(&t, &m)| params.severity(t, m))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_midpoint_and_limits() {
        let s = Sigmoid::new(10.0, 0.0, 1.0, 2.0);
        assert!((s.eval(10.0) - 1.0).abs() < 1e-12); // a/2 at x0
        assert!(s.eval(100.0) < 2.0 + 1e-12);
        assert!(s.eval(100.0) > 1.999);
        assert!(s.eval(-100.0) < 1e-3);
    }

    #[test]
    fn severity_saturates_near_115c() {
        let p = SeverityParams::cpu_default();
        // σ_df alone reaches 1.0 at 115 °C; with zero MLTD the (negative)
        // timing term pulls slightly below 1 exactly as Fig. 7 shows, and
        // saturation to 1.0 follows a few degrees later.
        assert!(p.severity(115.0, 0.0) > 0.8);
        assert!(p.severity(115.0, 25.0) >= 1.0 - 1e-9);
        assert!((p.severity(130.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn severity_at_hotspot_definition_thresholds() {
        // At the paper's hotspot definition point (80 °C, 25 °C MLTD) the
        // metric must be above 0.5 — "mitigation is necessary".
        let p = SeverityParams::cpu_default();
        let sev = p.severity(80.0, 25.0);
        assert!(
            (0.5..0.9).contains(&sev),
            "sev(80, 25) = {sev}, expected ≈ 0.70"
        );
        assert!((sev - 0.70).abs() < 0.03);
    }

    #[test]
    fn cool_uniform_die_has_negligible_severity() {
        let p = SeverityParams::cpu_default();
        let sev = p.severity(45.0, 0.0);
        assert!(sev < 0.05, "sev(45, 0) = {sev}");
    }

    #[test]
    fn severity_is_monotone_in_both_arguments() {
        let p = SeverityParams::cpu_default();
        let mut prev = 0.0;
        for t in [40.0, 60.0, 80.0, 100.0, 120.0] {
            let s = p.severity(t, 20.0);
            assert!(s >= prev - 1e-12, "not monotone in T at {t}");
            prev = s;
        }
        prev = 0.0;
        for m in [0.0, 10.0, 20.0, 30.0, 40.0] {
            let s = p.severity(90.0, m);
            assert!(s >= prev - 1e-12, "not monotone in MLTD at {m}");
            prev = s;
        }
    }

    #[test]
    fn severity_always_in_unit_range() {
        let p = SeverityParams::cpu_default();
        for t in (-20..200).step_by(7) {
            for m in (0..120).step_by(5) {
                let s = p.severity(t as f64, m as f64);
                assert!((0.0..=1.0).contains(&s), "sev({t},{m}) = {s}");
            }
        }
    }

    #[test]
    fn high_mltd_alone_does_not_saturate_when_cold() {
        // A large gradient on a cold die is a lesser concern than the same
        // gradient at high temperature (σ_T gates σ_M).
        let p = SeverityParams::cpu_default();
        let cold = p.severity(45.0, 40.0);
        let hot = p.severity(95.0, 40.0);
        assert!(cold < hot);
        assert!(cold < 0.6);
    }

    #[test]
    fn severity_bound_dominates_pointwise_severity() {
        let p = SeverityParams::cpu_default();
        assert!(p.bound_usable());
        for max_t in [45.0, 70.0, 85.0, 110.0] {
            for max_m in [0.0, 5.0, 20.0, 45.0] {
                let bound = p.severity_bound(max_t, max_m);
                for t in (0..=10).map(|i| max_t - 6.0 * i as f64) {
                    for m in (0..=10).map(|i| max_m * i as f64 / 10.0) {
                        let s = p.severity(t, m);
                        assert!(
                            s <= bound + 1e-12,
                            "sev({t},{m}) = {s} exceeds bound({max_t},{max_m}) = {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn severity_row_is_bitwise_equal_to_scalar_severity() {
        let p = SeverityParams::cpu_default();
        let temps: Vec<f64> = (0..257).map(|i| 35.0 + (i % 97) as f64).collect();
        let mltd: Vec<f64> = (0..257).map(|i| ((i * 13) % 53) as f64 * 0.9).collect();
        let mut row = vec![0.0; temps.len()];
        p.severity_row(&temps, &mltd, &mut row);
        for i in 0..temps.len() {
            assert_eq!(
                row[i].to_bits(),
                p.severity(temps[i], mltd[i]).to_bits(),
                "cell {i}: {} vs {}",
                row[i],
                p.severity(temps[i], mltd[i])
            );
        }
    }

    #[test]
    fn peak_severity_over_field() {
        let p = SeverityParams::cpu_default();
        let temps = [50.0, 90.0, 120.0];
        let mltd = [0.0, 30.0, 10.0];
        let peak = peak_severity(&p, &temps, &mltd);
        assert!((peak - 1.0).abs() < 1e-9); // the 120 °C point saturates
    }
}
