//! Severity-triggered DVFS throttling — the dynamic mitigation the paper
//! motivates ("TUH in 7nm is so low that more aggressive throttling will be
//! required which will have a certain impact on performance", §IV) and
//! defines the severity metric for ("0.5 or above indicates mitigation is
//! necessary", Fig. 7).
//!
//! A run opts in through [`SimConfig::throttle`](crate::pipeline::SimConfig):
//! its lane in the run loop then closes a control loop. When the peak die
//! severity crosses the trigger threshold (after a configurable sensor
//! latency), the whole chip drops to a throttled voltage/frequency point;
//! it returns to turbo once severity falls below the release threshold
//! (hysteresis). The result quantifies the paper's trade-off: how much
//! severity is suppressed, and what it costs in delivered instructions.

use serde::{Deserialize, Serialize};

use hotgauge_perf::config::CoreConfig;
use hotgauge_power::model::{PowerModel, PowerParams};

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

/// One lane's throttle controller: the policy's state machine plus the
/// lane's power model at the throttled point. The run loop asks it for
/// each window's operating point at window start and feeds it the window's
/// last peak severity at window end.
pub(crate) struct LaneThrottle {
    policy: ThrottlePolicy,
    /// The lane's nominal power model at the throttled supply and clock.
    power: PowerModel,
    /// Cycles one window's wall time spans at the throttled clock.
    cycles: u64,
    engaged: bool,
    /// A decided change of `engaged` and the windows left until it applies.
    pending: Option<(bool, usize)>,
    /// Windows run at the throttled point so far.
    pub(crate) windows: u64,
}

impl LaneThrottle {
    /// A disengaged controller for a lane whose power model is `nominal`.
    pub(crate) fn new(policy: ThrottlePolicy, nominal: &PowerModel) -> Self {
        let point = *nominal.params();
        let scale = policy.throttled_freq_ghz / point.freq_ghz;
        Self {
            policy,
            power: nominal.with_params(PowerParams {
                vdd: policy.throttled_vdd,
                freq_ghz: policy.throttled_freq_ghz,
                ..point
            }),
            cycles: (CoreConfig::TIME_STEP_CYCLES as f64 * scale) as u64,
            engaged: false,
            pending: None,
            windows: 0,
        }
    }

    /// Window start: applies a pending change whose latency has elapsed and
    /// returns the window's throttled power model and cycle count, or
    /// `None` when the window runs at the nominal point.
    pub(crate) fn begin_window(&mut self) -> Option<(&PowerModel, u64)> {
        if let Some((target, countdown)) = &mut self.pending {
            if *countdown == 0 {
                self.engaged = *target;
                self.pending = None;
            } else {
                *countdown -= 1;
            }
        }
        if !self.engaged {
            return None;
        }
        self.windows += 1;
        Some((&self.power, self.cycles))
    }

    /// Window end: decides a change, to take effect after the sensor
    /// latency, when `peak_severity` crosses the trigger (disengaged) or
    /// falls below the release level (engaged) and no change is pending.
    pub(crate) fn end_window(&mut self, peak_severity: f64) {
        let p = &self.policy;
        let flip = if self.engaged {
            peak_severity < p.release_severity
        } else {
            peak_severity >= p.trigger_severity
        };
        if flip && self.pending.is_none() {
            self.pending = Some((!self.engaged, p.sensor_latency_windows));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_sim, RunResult, SimConfig};
    use hotgauge_floorplan::tech::TechNode;
    use hotgauge_thermal::warmup::Warmup;

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

    fn run(policy: Option<ThrottlePolicy>) -> RunResult {
        let mut c = cfg();
        c.throttle = policy;
        run_sim(c)
    }

    fn max_temp_c(r: &RunResult) -> f64 {
        r.records.iter().map(|s| s.max_temp_c).fold(0.0, f64::max)
    }

    fn throttled_fraction(r: &RunResult) -> f64 {
        r.throttled_windows as f64 / r.records.len().max(1) as f64
    }

    #[test]
    fn throttling_reduces_severity_and_temperature() {
        let base = run(None);
        let thr = run(Some(ThrottlePolicy::mitigation_default()));
        assert!(
            thr.rms_severity() < base.rms_severity(),
            "throttling must reduce severity: {} vs {}",
            thr.rms_severity(),
            base.rms_severity()
        );
        assert!(max_temp_c(&thr) < max_temp_c(&base));
        assert!(throttled_fraction(&thr) > 0.0, "policy should engage");
    }

    #[test]
    fn throttling_costs_performance() {
        let base = run(None);
        let thr = run(Some(ThrottlePolicy::mitigation_default()));
        assert!(
            thr.total_instructions < base.total_instructions,
            "throttled run must complete fewer instructions: {} vs {}",
            thr.total_instructions,
            base.total_instructions
        );
    }

    #[test]
    fn unthrottled_run_never_engages() {
        let base = run(None);
        assert_eq!(throttled_fraction(&base), 0.0);
        assert!(base.total_instructions > 0);
    }

    #[test]
    fn slower_sensor_allows_higher_peaks() {
        let fast = run(Some(ThrottlePolicy {
            sensor_latency_windows: 0,
            ..ThrottlePolicy::mitigation_default()
        }));
        let slow = run(Some(ThrottlePolicy {
            sensor_latency_windows: 8,
            ..ThrottlePolicy::mitigation_default()
        }));
        assert!(
            slow.rms_severity() >= fast.rms_severity() - 1e-9,
            "slow sensors should not reduce severity: fast {} slow {}",
            fast.rms_severity(),
            slow.rms_severity()
        );
    }
}
