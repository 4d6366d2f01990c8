//! The per-unit power model: activity + temperature → watts per floorplan
//! unit (the McPAT stand-in, run "in the highest granularity setting at each
//! time step", §III-B).

use hotgauge_floorplan::floorplan::Floorplan;
use hotgauge_floorplan::skylake::{CORE_AREA_14NM_MM2, CORE_UNIT_WEIGHTS};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_floorplan::unit::UnitKind;
use hotgauge_perf::activity::ActivityCounters;
use serde::{Deserialize, Serialize};

use crate::leakage::LeakageParams;
use crate::units::{cdyn_max_nf, clock_density_factor, unit_utilization, CLOCK_FLOOR};

/// Total full-utilization core `C_dyn` at 14 nm, nF. The per-unit weights of
/// [`cdyn_max_nf`] are normalized to this budget; its value is calibrated so
/// the validation benchmarks' effective `C_dyn` lands in Table III's model
/// range (1.30–1.65 nF).
pub const CORE_CDYN_TOTAL_14NM_NF: f64 = 4.8;

/// Operating point and model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Supply voltage, V (1.4 V = the paper's turbo operating point).
    pub vdd: f64,
    /// Clock frequency, GHz (5 GHz).
    pub freq_ghz: f64,
    /// Leakage model parameters.
    pub leakage: LeakageParams,
}

impl Default for PowerParams {
    fn default() -> Self {
        Self {
            vdd: 1.4,
            freq_ghz: 5.0,
            leakage: LeakageParams::default(),
        }
    }
}

/// One core's contribution to a power-model evaluation window.
#[derive(Debug, Clone, Copy)]
pub enum CoreWindow<'a> {
    /// Core is power-gated: no dynamic power, no clock; leakage only.
    Parked,
    /// Core ran the given activity window with the given duty cycle
    /// (fraction of the window it was clocked; 1.0 for a busy core,
    /// small for the idle/OS background task).
    Active {
        /// The window's activity counters.
        activity: &'a ActivityCounters,
        /// Clocked fraction of the window, `(0, 1]`.
        duty: f64,
    },
}

/// Power-model output for one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Watts attributed to each floorplan unit (aligned with
    /// `Floorplan::units`) — the accounting view (a unit's own leakage,
    /// clock, and datapath energy).
    pub unit_watts: Vec<f64>,
    /// The spatially *smooth* component per unit: leakage plus the clock
    /// tree / sequential overhead, which dissipates uniformly over the
    /// unit's area.
    pub unit_watts_smooth: Vec<f64>,
    /// The spatially *peaked* component per unit: utilization-driven
    /// datapath switching, which concentrates in the unit's hot structures
    /// (ports, wakeup logic, functional datapaths). Because clock power is
    /// pooled per core and redistributed by area in the smooth channel,
    /// `smooth + peaked` matches `unit_watts` in aggregate (total power),
    /// not unit-by-unit.
    pub unit_watts_peaked: Vec<f64>,
    /// Total dynamic power, W.
    pub dynamic_w: f64,
    /// Total leakage power, W.
    pub leakage_w: f64,
    /// Per-core dynamic power, W.
    pub core_dynamic_w: Vec<f64>,
}

impl PowerBreakdown {
    /// Total chip power, W.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.leakage_w
    }

    /// Effective single-core `C_dyn` in nF: `P_dyn_core / (V² f)` — the
    /// voltage/frequency-invariant quantity Table III validates.
    pub fn core_cdyn_eff_nf(&self, core: usize, params: &PowerParams) -> f64 {
        self.core_dynamic_w[core] / (params.vdd * params.vdd * params.freq_ghz * 1e9) * 1e9
    }
}

#[derive(Debug, Clone)]
struct UnitEntry {
    kind: UnitKind,
    core: Option<usize>,
    /// Nominal silicon area for leakage, mm² — the *unscaled* area of the
    /// unit at this node, so that mitigation floorplans (which add white
    /// space) do not fictitiously add leaking transistors.
    nominal_area_mm2: f64,
    /// Node-scaled maximum `C_dyn`, nF.
    cdyn_max_nf: f64,
}

/// The chip-level power model, built once per (floorplan, node) pair.
#[derive(Debug, Clone)]
pub struct PowerModel {
    node: TechNode,
    params: PowerParams,
    units: Vec<UnitEntry>,
    core_count: usize,
}

impl PowerModel {
    /// Builds the model for a floorplan at the given node.
    ///
    /// The floorplan provides the unit list (order defines the output
    /// vector). Leakage areas use nominal per-kind areas, not the possibly
    /// white-space-scaled rectangles of mitigation floorplans.
    pub fn new(fp: &Floorplan, node: TechNode, params: PowerParams) -> Self {
        let weight_sum: f64 = CORE_UNIT_WEIGHTS.iter().map(|(_, w)| w).sum();
        let core_area = CORE_AREA_14NM_MM2 * node.area_scale_from_14();
        let cdyn_scale = node.cdyn_scale_from_14();
        let core_weight_total: f64 = UnitKind::CORE_KINDS.iter().map(|&k| cdyn_max_nf(k)).sum();

        let units = fp
            .units
            .iter()
            .map(|u| {
                let nominal_area_mm2 = if u.kind.is_core_unit() {
                    let w = CORE_UNIT_WEIGHTS
                        .iter()
                        .find(|(k, _)| *k == u.kind)
                        .map(|(_, w)| *w)
                        .unwrap_or(0.0);
                    core_area * w / weight_sum
                } else {
                    // Uncore blocks are already nominal in the generator; a
                    // uniformly IC-scaled floorplan slightly overstates them,
                    // which is acceptable for background leakage.
                    u.area() / 1.0
                };
                let cdyn = if u.kind.is_core_unit() {
                    cdyn_max_nf(u.kind) / core_weight_total * CORE_CDYN_TOTAL_14NM_NF * cdyn_scale
                } else {
                    cdyn_max_nf(u.kind) * cdyn_scale
                };
                UnitEntry {
                    kind: u.kind,
                    core: u.core,
                    nominal_area_mm2,
                    cdyn_max_nf: cdyn,
                }
            })
            .collect();

        Self {
            node,
            params,
            units,
            core_count: fp.core_count(),
        }
    }

    /// The model's technology node.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// The operating point.
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// This model at another operating point. The unit table depends only
    /// on the floorplan and the node, so the result equals
    /// [`PowerModel::new`] of the same floorplan with `params`, without
    /// rebuilding it.
    pub fn with_params(&self, params: PowerParams) -> Self {
        Self {
            params,
            ..self.clone()
        }
    }

    /// Number of floorplan units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Evaluates the model for one window.
    ///
    /// * `cores[c]` describes what core `c` did during the window.
    /// * `unit_temps[i]` is the current temperature of unit `i` (°C) for the
    ///   leakage feedback; pass the ambient for a cold estimate.
    ///
    /// # Panics
    ///
    /// Panics if `cores.len()` differs from the floorplan's core count or
    /// `unit_temps.len()` from the unit count.
    pub fn evaluate(&self, cores: &[CoreWindow<'_>], unit_temps: &[f64]) -> PowerBreakdown {
        assert_eq!(cores.len(), self.core_count, "one window per core");
        assert_eq!(
            unit_temps.len(),
            self.units.len(),
            "one temperature per unit"
        );

        let v2f = self.params.vdd * self.params.vdd * self.params.freq_ghz * 1e9;

        // Aggregate uncore traffic across cores.
        let mut agg = ActivityCounters::default();
        let mut any_cycles = 0u64;
        for cw in cores {
            if let CoreWindow::Active { activity, duty } = cw {
                let _ = duty;
                agg.add(activity);
                any_cycles = any_cycles.max(activity.cycles);
            }
        }
        agg.cycles = any_cycles.max(1);

        let mut unit_watts = vec![0.0; self.units.len()];
        let mut unit_watts_smooth = vec![0.0; self.units.len()];
        let mut unit_watts_peaked = vec![0.0; self.units.len()];
        let mut dynamic_w = 0.0;
        let mut leakage_w = 0.0;
        let mut core_dynamic_w = vec![0.0; self.core_count];
        // Clock-tree power is pooled per core and redistributed uniformly
        // over the core's area below: the clock network spans the whole
        // core, so a stalled-but-clocked core heats nearly uniformly and
        // produces little MLTD — it is datapath activity that is localized.
        let mut core_clock_w = vec![0.0; self.core_count];
        // Clock-weighted area: SRAM arrays carry a reduced clock load.
        let mut core_clock_area = vec![0.0; self.core_count];
        for u in &self.units {
            if let Some(c) = u.core {
                core_clock_area[c] += u.nominal_area_mm2 * clock_density_factor(u.kind);
            }
        }

        for (i, u) in self.units.iter().enumerate() {
            // Leakage always flows (the silicon is powered even when the
            // clock is gated; parked cores keep state in this model).
            let leak = self.params.leakage.power(
                self.node,
                u.nominal_area_mm2,
                unit_temps[i],
                self.params.vdd,
            );
            let mut w = leak;
            let mut smooth = leak;
            let mut peaked = 0.0;
            leakage_w += leak;

            let dyn_w = match u.core {
                Some(c) => match cores[c] {
                    CoreWindow::Parked => 0.0,
                    CoreWindow::Active { activity, duty } => {
                        let util = unit_utilization(u.kind, activity);
                        let d = duty.clamp(0.0, 1.0);
                        let clock = u.cdyn_max_nf * 1e-9 * CLOCK_FLOOR * v2f * d;
                        let data = u.cdyn_max_nf * 1e-9 * (1.0 - CLOCK_FLOOR) * util * v2f * d;
                        core_clock_w[c] += clock;
                        peaked += data;
                        clock + data
                    }
                },
                None => {
                    // Uncore: driven by aggregate traffic; always clocked at
                    // a reduced floor. Cache banks and SoC logic are
                    // spatially uniform.
                    let util = unit_utilization(u.kind, &agg);
                    let eff = 0.15 + 0.85 * util;
                    let p = u.cdyn_max_nf * 1e-9 * eff * v2f * 0.35;
                    smooth += p;
                    p
                }
            };
            w += dyn_w;
            dynamic_w += dyn_w;
            if let Some(c) = u.core {
                core_dynamic_w[c] += dyn_w;
            }
            unit_watts[i] = w;
            unit_watts_smooth[i] = smooth;
            unit_watts_peaked[i] = peaked;
        }

        // Redistribute each core's pooled clock power over clock-weighted
        // area (uniform density across logic, reduced in SRAM arrays).
        for (i, u) in self.units.iter().enumerate() {
            if let Some(c) = u.core {
                if core_clock_area[c] > 0.0 {
                    unit_watts_smooth[i] +=
                        core_clock_w[c] * u.nominal_area_mm2 * clock_density_factor(u.kind)
                            / core_clock_area[c];
                }
            }
        }

        PowerBreakdown {
            unit_watts,
            unit_watts_smooth,
            unit_watts_peaked,
            dynamic_w,
            leakage_w,
            core_dynamic_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_floorplan::skylake::SkylakeProxy;

    fn busy_activity() -> ActivityCounters {
        ActivityCounters {
            cycles: 1_000_000,
            instructions: 2_500_000,
            l1i_accesses: 700_000,
            bpu_lookups: 400_000,
            decoded_uops: 2_500_000,
            int_rat_writes: 2_000_000,
            fp_rat_writes: 500_000,
            rob_dispatches: 2_500_000,
            rob_retires: 2_500_000,
            int_iwin_issues: 2_000_000,
            fp_iwin_issues: 500_000,
            int_rf_reads: 4_000_000,
            int_rf_writes: 1_800_000,
            fp_rf_reads: 1_000_000,
            fp_rf_writes: 500_000,
            simple_alu_ops: 1_200_000,
            complex_alu_ops: 120_000,
            agu_ops: 800_000,
            fpu_ops: 400_000,
            avx_ops: 100_000,
            l1d_accesses: 800_000,
            l1d_misses: 30_000,
            lsq_ops: 800_000,
            dtlb_accesses: 800_000,
            l2_accesses: 30_000,
            l2_misses: 8_000,
            l3_accesses: 8_000,
            l3_misses: 1_000,
            dram_accesses: 1_000,
            ..Default::default()
        }
    }

    fn model(node: TechNode) -> (PowerModel, usize) {
        let fp = SkylakeProxy::new(node).build();
        let n = fp.units.len();
        (PowerModel::new(&fp, node, PowerParams::default()), n)
    }

    fn one_busy_core(m: &PowerModel, n_units: usize, act: &ActivityCounters) -> PowerBreakdown {
        let mut cores = vec![CoreWindow::Parked; 7];
        cores[0] = CoreWindow::Active {
            activity: act,
            duty: 1.0,
        };
        m.evaluate(&cores, &vec![60.0; n_units])
    }

    #[test]
    fn busy_core_cdyn_in_table3_range() {
        let (m, n) = model(TechNode::N14);
        let act = busy_activity();
        let b = one_busy_core(&m, n, &act);
        let cdyn = b.core_cdyn_eff_nf(0, m.params());
        assert!(
            (1.0..2.6).contains(&cdyn),
            "effective core C_dyn {cdyn} nF outside plausible Table III range"
        );
    }

    #[test]
    fn cdyn_scales_08x_per_node() {
        let act = busy_activity();
        let (m14, n14) = model(TechNode::N14);
        let (m7, n7) = model(TechNode::N7);
        let c14 = one_busy_core(&m14, n14, &act).core_cdyn_eff_nf(0, m14.params());
        let c7 = one_busy_core(&m7, n7, &act).core_cdyn_eff_nf(0, m7.params());
        assert!(
            (c7 / c14 - 0.64).abs() < 0.02,
            "C_dyn should scale 0.8^2 from 14nm to 7nm: {c14} -> {c7}"
        );
    }

    #[test]
    fn power_density_increases_with_node() {
        // §II-A: density grows ~1.6x per node for the same activity.
        let act = busy_activity();
        let fp14 = SkylakeProxy::new(TechNode::N14).build();
        let fp7 = SkylakeProxy::new(TechNode::N7).build();
        let (m14, n14) = model(TechNode::N14);
        let (m7, n7) = model(TechNode::N7);
        let b14 = one_busy_core(&m14, n14, &act);
        let b7 = one_busy_core(&m7, n7, &act);
        let core_area = |fp: &Floorplan| -> f64 { fp.units_of_core(0).map(|u| u.area()).sum() };
        let d14 = b14.core_dynamic_w[0] / core_area(&fp14);
        let d7 = b7.core_dynamic_w[0] / core_area(&fp7);
        let ratio = d7 / d14;
        assert!(
            (ratio - 2.56).abs() < 0.1,
            "density scaling {ratio}, expected ~2.56"
        );
    }

    #[test]
    fn parked_cores_leak_but_do_not_switch() {
        let (m, n) = model(TechNode::N14);
        let cores = vec![CoreWindow::Parked; 7];
        let b = m.evaluate(&cores, &vec![60.0; n]);
        // Core dynamic power must vanish; the uncore stays clocked.
        let core_dyn: f64 = b.core_dynamic_w.iter().sum();
        assert!(core_dyn < 1e-9, "parked core dynamic {core_dyn}");
        assert!(b.leakage_w > 0.5, "chip must leak: {}", b.leakage_w);
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let (m, n) = model(TechNode::N7);
        let cores = vec![CoreWindow::Parked; 7];
        let cold = m.evaluate(&cores, &vec![40.0; n]).leakage_w;
        let hot = m.evaluate(&cores, &vec![100.0; n]).leakage_w;
        assert!(hot > 2.0 * cold, "leakage {cold} -> {hot}");
    }

    #[test]
    fn duty_cycle_scales_dynamic_power() {
        let (m, n) = model(TechNode::N14);
        let act = busy_activity();
        let mut cores = vec![CoreWindow::Parked; 7];
        cores[0] = CoreWindow::Active {
            activity: &act,
            duty: 1.0,
        };
        let full = m.evaluate(&cores, &vec![60.0; n]).core_dynamic_w[0];
        cores[0] = CoreWindow::Active {
            activity: &act,
            duty: 0.1,
        };
        let tenth = m.evaluate(&cores, &vec![60.0; n]).core_dynamic_w[0];
        assert!((tenth / full - 0.1).abs() < 1e-9);
    }

    #[test]
    fn hot_unit_power_density_exceeds_8w_per_mm2_at_7nm() {
        // §II-A: "power density greater than 8 W/mm² running bzip2".
        let fp = SkylakeProxy::new(TechNode::N7).build();
        let m = PowerModel::new(&fp, TechNode::N7, PowerParams::default());
        let act = busy_activity();
        let mut cores = vec![CoreWindow::Parked; 7];
        cores[0] = CoreWindow::Active {
            activity: &act,
            duty: 1.0,
        };
        let b = m.evaluate(&cores, &vec![70.0; fp.units.len()]);
        let max_density = fp
            .units
            .iter()
            .zip(&b.unit_watts)
            .filter(|(u, _)| u.core == Some(0))
            .map(|(u, w)| w / u.area())
            .fold(0.0f64, f64::max);
        assert!(
            max_density > 8.0,
            "peak unit power density at 7nm should exceed 8 W/mm², got {max_density}"
        );
    }

    #[test]
    fn smooth_plus_peaked_conserves_total_power() {
        // The clock component is redistributed across each core's area, so
        // the decomposition only matches the accounting attribution in
        // aggregate — total power must be identical.
        let (m, n) = model(TechNode::N7);
        let act = busy_activity();
        let b = one_busy_core(&m, n, &act);
        let attributed: f64 = b.unit_watts.iter().sum();
        let spatial: f64 = b
            .unit_watts_smooth
            .iter()
            .zip(&b.unit_watts_peaked)
            .map(|(s, p)| s + p)
            .sum();
        assert!(
            (attributed - spatial).abs() < 1e-9 * attributed,
            "{attributed} vs {spatial}"
        );
        assert!(b.unit_watts_peaked.iter().any(|&w| w > 0.0));
    }

    #[test]
    fn clock_power_is_pooled_per_core_area() {
        // With zero utilization the peaked channel is empty and the smooth
        // dynamic power of each unit is proportional to its nominal area.
        let (m, n) = model(TechNode::N14);
        let act = ActivityCounters {
            cycles: 1_000_000,
            ..Default::default()
        };
        let fp = SkylakeProxy::new(TechNode::N14).build();
        let mut cores = vec![CoreWindow::Parked; 7];
        cores[0] = CoreWindow::Active {
            activity: &act,
            duty: 1.0,
        };
        let b = m.evaluate(&cores, &vec![60.0; n]);
        assert!(b.unit_watts_peaked.iter().all(|&w| w < 1e-12));
        // Compare smooth *density* (dynamic part) across two core-0 units.
        let leak_free = |name: &str| -> f64 {
            let i = fp.unit_index_by_name(name).unwrap();
            // Smooth = leak + clock share; subtract leak via a parked run.
            let parked = m.evaluate(&[CoreWindow::Parked; 7], &vec![60.0; n]);
            (b.unit_watts_smooth[i] - parked.unit_watts_smooth[i]) / fp.units[i].area()
        };
        let d_rf = leak_free("core0.intRF");
        let d_rob = leak_free("core0.ROB");
        let d_l2 = leak_free("core0.L2");
        assert!(
            (d_rf - d_rob).abs() < 0.05 * d_rob.max(1e-12),
            "clock density should be uniform across logic: {d_rf} vs {d_rob}"
        );
        assert!(
            d_l2 < 0.5 * d_rf,
            "SRAM clock density should be reduced: L2 {d_l2} vs RF {d_rf}"
        );
    }

    #[test]
    fn unit_watts_sum_matches_totals() {
        let (m, n) = model(TechNode::N10);
        let act = busy_activity();
        let b = one_busy_core(&m, n, &act);
        let sum: f64 = b.unit_watts.iter().sum();
        assert!((sum - b.total_w()).abs() < 1e-9 * sum);
    }

    #[test]
    fn with_params_equals_a_model_built_at_that_point() {
        let fp = SkylakeProxy::new(TechNode::N7).build();
        let n = fp.units.len();
        let point = PowerParams {
            vdd: 0.95,
            freq_ghz: 2.5,
            ..PowerParams::default()
        };
        let built = PowerModel::new(&fp, TechNode::N7, point);
        let derived = PowerModel::new(&fp, TechNode::N7, PowerParams::default()).with_params(point);
        assert_eq!(derived.params(), &point);
        let act = busy_activity();
        assert_eq!(
            one_busy_core(&derived, n, &act),
            one_busy_core(&built, n, &act)
        );
    }
}
