//! Initial-condition helpers: cold start and idle warm-up.
//!
//! The paper initializes the thermal stack non-uniformly to model "the fact
//! that CPUs have other workloads running on the system (e.g., background
//! tasks, OS tasks, and recently context switched workloads)" (§III-C), and
//! Fig. 8/11 contrast *no warmup (from ambient)* against an *idle warmup*.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::model::{ThermalModel, ThermalSim};

/// The initial thermal condition of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Warmup {
    /// Cold start: the whole stack at ambient.
    Cold,
    /// Idle warm-up: the stack settled under an idle/OS background power
    /// trace before the workload starts.
    Idle,
}

impl Warmup {
    /// Label used in figures, matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match self {
            Warmup::Cold => "no warmup",
            Warmup::Idle => "idle warmup",
        }
    }

    /// Both warm-up scenarios studied in the paper.
    pub const ALL: [Warmup; 2] = [Warmup::Cold, Warmup::Idle];
}

/// Produces a full-domain initial state for the given warm-up scenario.
///
/// * `Cold` — every node at the stack ambient.
/// * `Idle` — transient simulation under `idle_power` (a per-die-cell power
///   map, watts) for `duration_s`, starting from ambient. A transient (not
///   steady-state) warm-up is used deliberately: an OS that has been running
///   briefly leaves the die warm but the heatsink still cool, which is the
///   condition that makes warmed-up hotspots appear "more than 4× faster"
///   (Fig. 8b). The warm-up simulation shares `model` rather than copying it.
pub fn initial_state(
    model: &Arc<ThermalModel>,
    warmup: Warmup,
    idle_power: &[f64],
    duration_s: f64,
    dt_s: f64,
) -> Vec<f64> {
    match warmup {
        Warmup::Cold => vec![model.stack().ambient_c; model.node_count()],
        Warmup::Idle => {
            let mut sim = ThermalSim::new(Arc::clone(model), model.stack().ambient_c);
            let steps = (duration_s / dt_s).ceil().max(1.0) as usize;
            for _ in 0..steps {
                sim.step(idle_power, dt_s);
            }
            sim.state().to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackDescription;

    #[test]
    fn cold_state_is_uniform_ambient() {
        let m = Arc::new(ThermalModel::new(StackDescription::client_cpu(
            10, 10, 500.0,
        )));
        let s = initial_state(&m, Warmup::Cold, &vec![0.0; 100], 1.0, 1e-3);
        assert!(s.iter().all(|&t| (t - 40.0).abs() < 1e-12));
    }

    #[test]
    fn idle_state_is_warmer_and_nonuniform() {
        let m = Arc::new(ThermalModel::new(StackDescription::client_cpu(
            10, 10, 500.0,
        )));
        let mut idle = vec![0.0; 100];
        // Heat one corner of the die, as an asymmetric background task would.
        for iy in 0..4 {
            for ix in 0..4 {
                idle[iy * 10 + ix] = 0.05;
            }
        }
        let s = initial_state(&m, Warmup::Idle, &idle, 0.05, 5e-3);
        let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 40.1, "warmup should heat the stack (max {max})");
        assert!(max - min > 0.01, "warmup state should be non-uniform");
    }

    #[test]
    fn labels() {
        assert_eq!(Warmup::Cold.label(), "no warmup");
        assert_eq!(Warmup::Idle.label(), "idle warmup");
    }
}
