//! Ablation: severity-triggered DVFS throttling (the mitigation direction
//! the paper motivates). Sweeps sensor latency and throttle depth and
//! reports the severity/performance trade-off at 7 nm. The unthrottled
//! baseline and the five policies differ only in `SimConfig::throttle`, so
//! they run as one sweep whose lanes share one construction.

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{RunResult, SimConfig};
use hotgauge_core::report::TextTable;
use hotgauge_core::sweep::run_many_batched_with;
use hotgauge_core::throttle::ThrottlePolicy;
use hotgauge_floorplan::tech::TechNode;

/// Peak die temperature over a run, °C.
fn max_temp_c(r: &RunResult) -> f64 {
    r.records.iter().map(|s| s.max_temp_c).fold(0.0, f64::max)
}

/// Fraction of a run's windows spent throttled.
fn throttled_fraction(r: &RunResult) -> f64 {
    let windows = r.records.len().div_ceil(r.config.substeps).max(1);
    r.throttled_windows as f64 / windows as f64
}

fn main() {
    let fid = Fidelity::from_env();
    let bench = "povray";
    let mut cfg = fid.apply(SimConfig::new(TechNode::N7, bench));
    cfg.max_time_s = fid.max_time_s.min(0.015);

    let mut policies: Vec<(String, ThrottlePolicy)> = Vec::new();
    for latency in [0usize, 2, 8] {
        policies.push((
            format!("2.5GHz/0.95V, sensor {}w", latency),
            ThrottlePolicy {
                sensor_latency_windows: latency,
                ..ThrottlePolicy::mitigation_default()
            },
        ));
    }
    for (freq, vdd) in [(3.5, 1.1), (1.5, 0.8)] {
        policies.push((
            format!("{freq}GHz/{vdd}V, sensor 1w"),
            ThrottlePolicy {
                throttled_freq_ghz: freq,
                throttled_vdd: vdd,
                ..ThrottlePolicy::mitigation_default()
            },
        ));
    }
    let cfgs = std::iter::once(None)
        .chain(policies.iter().map(|&(_, p)| Some(p)))
        .map(|throttle| SimConfig {
            throttle,
            ..cfg.clone()
        })
        .collect();
    let results = run_many_batched_with(cfgs, fid.threads, fid.batch, None);
    let (base, arms) = results.split_first().expect("the baseline ran");

    println!(
        "Ablation: DVFS throttling on {bench} @7nm ({} ms horizon)\n",
        cfg.max_time_s * 1e3
    );
    println!(
        "unthrottled: peak sev {:.2}, RMS {:.3}, Tmax {:.1} C, {:.1} M instructions\n",
        base.peak_severity(),
        base.rms_severity(),
        max_temp_c(base),
        base.total_instructions as f64 / 1e6
    );

    let mut table = TextTable::new(vec![
        "policy",
        "peak sev",
        "RMS sev",
        "Tmax [C]",
        "throttled %",
        "perf vs turbo",
    ]);
    for ((label, _), r) in policies.into_iter().zip(arms) {
        table.row(vec![
            label,
            format!("{:.2}", r.peak_severity()),
            format!("{:.3}", r.rms_severity()),
            format!("{:.1}", max_temp_c(r)),
            format!("{:.0}", throttled_fraction(r) * 100.0),
            format!(
                "{:.0}%",
                100.0 * r.total_instructions as f64 / base.total_instructions as f64
            ),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The paper's conclusion quantified: suppressing advanced hotspots with\n\
         frequency throttling alone costs a large fraction of turbo performance,\n\
         and slower thermal sensors let higher severity peaks through."
    );
}
