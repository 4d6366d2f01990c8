//! Idle / OS-background workload used for the paper's idle warm-up
//! (Fig. 8b, Fig. 11b): low-intensity housekeeping activity that leaves the
//! die warm and non-uniform before the measured workload starts.

use crate::profile::{BranchBehavior, InstMix, MemoryBehavior, Phase, WorkloadProfile};

/// Profile of a light OS background task: short bursts of branchy integer
/// code over a small working set, heavily serialized (low IPC ⇒ low power).
pub fn idle_profile() -> WorkloadProfile {
    let p = WorkloadProfile {
        name: "idle".to_owned(),
        mix: InstMix {
            loads: 0.28,
            stores: 0.14,
            branches: 0.22,
            int_simple: 0.30,
            int_complex: 0.02,
            fp: 0.03,
            avx: 0.01,
        },
        mem: MemoryBehavior {
            working_set_bytes: 256 * 1024,
            big_set_bytes: 16 * 1024 * 1024,
            big_fraction: 0.05,
            stream_fraction: 0.1,
        },
        branch: BranchBehavior {
            predictability: 0.92,
            static_branches: 1024,
        },
        serial_fraction: 0.45,
        code_footprint_bytes: 512 * 1024,
        phases: vec![Phase::neutral(1_000_000)],
    };
    #[expect(
        clippy::expect_used,
        reason = "the idle profile is a compile-time constant validated by tests"
    )]
    p.validate().expect("idle profile is valid");
    p
}

/// Duty cycle of the idle task: the fraction of each window during which a
/// core executes the background task (it halts the rest of the time). Used
/// by the co-simulation to scale idle activity into power.
pub const IDLE_DUTY_CYCLE: f64 = 0.22;

/// Idle warm-up duration used in the case study, seconds. Long enough to
/// warm the die and part of the spreader but far shorter than the heatsink's
/// time constant — which is exactly the state that accelerates hotspot onset
/// in Fig. 8b.
pub const IDLE_WARMUP_DURATION_S: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_profile_is_valid_and_low_intensity() {
        let p = idle_profile();
        assert!(p.validate().is_ok());
        assert!(p.serial_fraction > 0.3, "idle should be heavily serialized");
        assert!(p.mix.fp + p.mix.avx < 0.1);
    }

    #[test]
    fn duty_cycle_is_small() {
        const { assert!(IDLE_DUTY_CYCLE > 0.0 && IDLE_DUTY_CYCLE < 0.25) }
    }
}
