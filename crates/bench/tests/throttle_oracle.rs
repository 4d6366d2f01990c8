//! The throttle oracle of the run loop: a DVFS policy that can never
//! engage leaves a run bit-identical, by `run_hash`, to the same run
//! without a policy — from a cold and from an idle start, at two substeps
//! per window.

use hotgauge_bench::fingerprint::run_hash;
use hotgauge_core::pipeline::{run_sim, SimConfig};
use hotgauge_core::throttle::ThrottlePolicy;
use hotgauge_floorplan::TechNode;
use hotgauge_thermal::warmup::Warmup;

#[test]
fn a_policy_that_never_engages_leaves_the_run_unchanged() {
    for warmup in [Warmup::Cold, Warmup::Idle] {
        let mut cfg = SimConfig::new(TechNode::N7, "povray");
        cfg.cell_um = 300.0;
        cfg.substeps = 2;
        cfg.sample_instrs = 8_000;
        cfg.max_time_s = 2e-3;
        cfg.warmup = warmup;
        let plain = run_sim(cfg.clone());

        let engaging = ThrottlePolicy {
            trigger_severity: 0.2,
            release_severity: 0.1,
            ..ThrottlePolicy::mitigation_default()
        };
        cfg.throttle = Some(engaging);
        assert!(
            run_sim(cfg.clone()).throttled_windows > 0,
            "premise: a {warmup:?} run reaches the lower trigger"
        );
        cfg.throttle = Some(ThrottlePolicy {
            trigger_severity: 1.01,
            ..engaging
        });
        let never = run_sim(cfg);
        assert_eq!(never.throttled_windows, 0);
        assert_eq!(run_hash(&never), run_hash(&plain), "{warmup:?} start");
    }
}
