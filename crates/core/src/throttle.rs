//! Severity-triggered DVFS throttling — the dynamic mitigation the paper
//! motivates ("TUH in 7nm is so low that more aggressive throttling will be
//! required which will have a certain impact on performance", §IV) and
//! defines the severity metric for ("0.5 or above indicates mitigation is
//! necessary", Fig. 7).
//!
//! The co-simulation runs with a closed control loop: when the peak die
//! severity crosses the trigger threshold (after a configurable sensor
//! latency), the core drops to a throttled voltage/frequency point; it
//! returns to turbo once severity falls below the release threshold
//! (hysteresis). The result quantifies the paper's trade-off: how much
//! severity is suppressed, and what it costs in delivered instructions.

use serde::{Deserialize, Serialize};

use hotgauge_floorplan::grid::FloorplanGrid;
use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_power::model::{CoreWindow, PowerModel, PowerParams};
use hotgauge_thermal::model::{ThermalModel, ThermalSim};
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::benchmark_profile;
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::idle::{idle_profile, IDLE_DUTY_CYCLE};

use crate::analysis::FrameAnalyzer;
use crate::pipeline::{build_floorplan, unit_temperatures, SimConfig, UNIT_POWER_CONCENTRATION};
use crate::series::TimeSeries;

/// A DVFS throttling policy with hysteresis and sensor latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrottlePolicy {
    /// Engage throttling when peak severity reaches this level.
    pub trigger_severity: f64,
    /// Release throttling when peak severity falls below this level.
    pub release_severity: f64,
    /// Throttled clock, GHz (nominal is the power model's 5 GHz).
    pub throttled_freq_ghz: f64,
    /// Throttled supply, V (nominal 1.4 V).
    pub throttled_vdd: f64,
    /// Thermal-sensor + controller response latency in windows (200 µs
    /// each); the paper stresses that sensors "will have to have
    /// correspondingly fast response times" (§IV-A).
    pub sensor_latency_windows: usize,
}

impl ThrottlePolicy {
    /// A policy that engages at the paper's "mitigation necessary" level.
    pub fn mitigation_default() -> Self {
        Self {
            trigger_severity: 0.5,
            release_severity: 0.35,
            throttled_freq_ghz: 2.5,
            throttled_vdd: 0.95,
            sensor_latency_windows: 1,
        }
    }
}

/// Outcome of a throttled co-simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThrottledRunResult {
    /// Peak severity over time.
    pub sev_series: TimeSeries,
    /// Fraction of windows spent throttled.
    pub throttled_fraction: f64,
    /// Instructions completed over the run.
    pub instructions: u64,
    /// Peak severity over the run.
    pub peak_severity: f64,
    /// RMS severity over the run.
    pub rms_severity: f64,
    /// Peak die temperature over the run, °C.
    pub max_temp_c: f64,
}

/// Runs the co-simulation under a throttling policy (or unthrottled when
/// `policy` is `None`) and reports the severity/performance trade-off.
///
/// Uses the same models as [`crate::pipeline::run_sim`]; the only addition
/// is the control loop choosing the operating point per window.
pub fn run_throttled(cfg: &SimConfig, policy: Option<ThrottlePolicy>) -> ThrottledRunResult {
    let fp = build_floorplan(cfg);
    let grid = FloorplanGrid::rasterize(&fp, cfg.cell_um);
    let grid_peaked = FloorplanGrid::rasterize_with_concentration(
        &fp,
        cfg.cell_um,
        Some(UNIT_POWER_CONCENTRATION),
    );
    let baseline = SkylakeProxy::new(cfg.node).build();
    let nominal = PowerParams::default();
    let power_nominal = PowerModel::new(&baseline, cfg.node, nominal);
    let power_throttled = policy.map(|p| {
        PowerModel::new(
            &baseline,
            cfg.node,
            PowerParams {
                vdd: p.throttled_vdd,
                freq_ghz: p.throttled_freq_ghz,
                ..nominal
            },
        )
    });

    let stack = StackDescription::client_cpu_with_border(
        grid.nx,
        grid.ny,
        cfg.cell_um,
        cfg.border_mm * crate::units::M_PER_MM,
    );
    let model = ThermalModel::new(stack);
    let ambient = model.stack().ambient_c;
    let mut thermal = ThermalSim::new(model, ambient);
    thermal.cg.tolerance = 1e-6;

    let profile = benchmark_profile(&cfg.benchmark)
        // hotgauge-lint: allow(L001, "throttle runs take benchmarks validated at the CLI/SimConfig boundary; a miss here is a bug, not user input")
        .unwrap_or_else(|| panic!("unknown benchmark {}", cfg.benchmark));
    let mut gen = WorkloadGen::new(profile, cfg.seed);
    let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    core.warm_up(&mut gen, 2_000_000);

    let mut idle_core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    let mut idle_gen = WorkloadGen::new(idle_profile(), cfg.seed ^ 0xDEAD_BEEF);
    idle_core.warm_up(&mut idle_gen, 200_000);
    let idle_act = idle_core.run_instructions(&mut idle_gen, 50_000);

    if cfg.warmup == Warmup::Idle {
        // A short deterministic idle warm-up (not cached; throttling studies
        // compare runs that share it anyway).
        let temps = vec![ambient; fp.units.len()];
        let cores: Vec<CoreWindow<'_>> = (0..7)
            .map(|_| CoreWindow::Active {
                activity: &idle_act,
                duty: IDLE_DUTY_CYCLE,
            })
            .collect();
        let idle_power = grid.power_map(&power_nominal.evaluate(&cores, &temps).unit_watts);
        let state = hotgauge_thermal::warmup::initial_state(
            thermal.model(),
            Warmup::Idle,
            &idle_power,
            hotgauge_workloads::idle::IDLE_WARMUP_DURATION_S,
            25e-3,
        );
        thermal.set_state(state);
    }

    let window_s = cfg.window_seconds();
    // Fused analyzer for the per-window peak severity (same pruned exact
    // sweep as the main pipeline; bit-identical to the full-grid fold).
    let mut analyzer = FrameAnalyzer::new(cfg.detect, cfg.severity);
    let mut sev_series = TimeSeries::default();
    let mut time_s = 0.0;
    let mut instructions = 0u64;
    let mut throttled_windows = 0usize;
    let mut engaged = false;
    let mut pending: Option<(bool, usize)> = None; // (target state, countdown)
    let mut max_temp: f64 = 0.0;

    while time_s < cfg.max_time_s {
        // Apply any pending state change once the sensor latency elapses.
        if let Some((target, ref mut countdown)) = pending {
            if *countdown == 0 {
                engaged = target;
                pending = None;
            } else {
                *countdown -= 1;
            }
        }

        let (power_model, freq_scale) = match (&power_throttled, engaged) {
            (Some(pm), true) => {
                // hotgauge-lint: allow(L001, "power_throttled is Some only when a policy was supplied; the two Options are built from the same match")
                let p = policy.expect("policy exists with model");
                (pm, p.throttled_freq_ghz / nominal.freq_ghz)
            }
            _ => (&power_nominal, 1.0),
        };
        if engaged {
            throttled_windows += 1;
        }

        // Performance window: at a lower clock the same wall-clock window
        // covers proportionally fewer cycles.
        let window = core.run_instructions(&mut gen, cfg.sample_instrs);
        let cycles_this_window = (CoreConfig::TIME_STEP_CYCLES as f64 * freq_scale) as u64;
        instructions += (window.ipc() * cycles_this_window as f64) as u64;

        let frame = thermal.die_frame();
        let temps = unit_temperatures(&fp, &grid, &frame);
        let mut cores: Vec<CoreWindow<'_>> = (0..7)
            .map(|_| CoreWindow::Active {
                activity: &idle_act,
                duty: IDLE_DUTY_CYCLE,
            })
            .collect();
        cores[cfg.target_core] = CoreWindow::Active {
            activity: &window,
            duty: 1.0,
        };
        let breakdown = power_model.evaluate(&cores, &temps);
        let mut power_map = grid.power_map(&breakdown.unit_watts_smooth);
        grid_peaked.accumulate_power_map(&breakdown.unit_watts_peaked, &mut power_map);

        thermal.step(&power_map, window_s);
        time_s += window_s;
        let (frame, frame_max) = thermal.die_frame_with_max();
        max_temp = max_temp.max(frame_max);
        let peak_sev = analyzer.analyze(&frame).peak_severity;
        sev_series.push(time_s, peak_sev);

        // Control decision (takes effect after the sensor latency).
        if let Some(p) = policy {
            if !engaged && peak_sev >= p.trigger_severity && pending.is_none() {
                pending = Some((true, p.sensor_latency_windows));
            } else if engaged && peak_sev < p.release_severity && pending.is_none() {
                pending = Some((false, p.sensor_latency_windows));
            }
        }
    }

    let n = sev_series.len().max(1);
    ThrottledRunResult {
        peak_severity: sev_series.max(),
        rms_severity: sev_series.rms(),
        sev_series,
        throttled_fraction: throttled_windows as f64 / n as f64,
        instructions,
        max_temp_c: max_temp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_floorplan::tech::TechNode;

    fn cfg() -> SimConfig {
        let mut c = SimConfig::new(TechNode::N7, "povray");
        c.cell_um = 300.0;
        c.border_mm = 1.5;
        c.substeps = 1;
        c.sample_instrs = 8_000;
        c.max_time_s = 6e-3;
        c.warmup = Warmup::Idle;
        c
    }

    #[test]
    fn throttling_reduces_severity_and_temperature() {
        let base = run_throttled(&cfg(), None);
        let thr = run_throttled(&cfg(), Some(ThrottlePolicy::mitigation_default()));
        assert!(
            thr.rms_severity < base.rms_severity,
            "throttling must reduce severity: {} vs {}",
            thr.rms_severity,
            base.rms_severity
        );
        assert!(thr.max_temp_c < base.max_temp_c);
        assert!(thr.throttled_fraction > 0.0, "policy should engage");
    }

    #[test]
    fn throttling_costs_performance() {
        let base = run_throttled(&cfg(), None);
        let thr = run_throttled(&cfg(), Some(ThrottlePolicy::mitigation_default()));
        assert!(
            thr.instructions < base.instructions,
            "throttled run must complete fewer instructions: {} vs {}",
            thr.instructions,
            base.instructions
        );
    }

    #[test]
    fn unthrottled_run_never_engages() {
        let base = run_throttled(&cfg(), None);
        assert_eq!(base.throttled_fraction, 0.0);
        assert!(base.instructions > 0);
    }

    #[test]
    fn slower_sensor_allows_higher_peaks() {
        let fast = run_throttled(
            &cfg(),
            Some(ThrottlePolicy {
                sensor_latency_windows: 0,
                ..ThrottlePolicy::mitigation_default()
            }),
        );
        let slow = run_throttled(
            &cfg(),
            Some(ThrottlePolicy {
                sensor_latency_windows: 8,
                ..ThrottlePolicy::mitigation_default()
            }),
        );
        assert!(
            slow.rms_severity >= fast.rms_severity - 1e-9,
            "slow sensors should not reduce severity: fast {} slow {}",
            fast.rms_severity,
            slow.rms_severity
        );
    }
}
