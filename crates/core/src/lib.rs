//! **HotGauge in Rust** — the paper's primary contribution: a methodology
//! for characterizing advanced hotspots in modern and next-generation
//! processors (IISWC 2021).
//!
//! The crate provides:
//!
//! * the formal **hotspot definition** and automated detection
//!   ([`detect`], §III-E/F);
//! * the **MLTD** metric — maximum localized temperature difference within a
//!   radius ([`mltd`]);
//! * the **severity** metric built from three parameterized sigmoids
//!   ([`severity`], Eq. 1–2, Fig. 7);
//! * the fused **analysis stage** that evaluates all three per
//!   frame with reusable buffers and a sub-threshold prefilter
//!   ([`analysis`]);
//! * **TUH** (time-until-hotspot) and the series statistics used by the
//!   evaluation ([`series`]);
//! * hotspot **location attribution** ([`locations`], Fig. 12);
//! * the **perf-power-therm co-simulation** pipeline gluing the performance,
//!   power, and thermal substrates together ([`pipeline`], Fig. 3);
//! * the process-wide table of **activity traces** that runs the perf model
//!   once per workload stream, not once per run ([`activity_trace`]);
//! * the **sweep executor** running whole figure grids on a
//!   fixed pool of stateless workers, advancing same-geometry runs in
//!   lockstep batches that share one construction ([`sweep`]);
//! * canned **experiment runners** for every table and figure
//!   ([`experiments`]) and report formatting ([`report`]);
//! * severity-triggered **DVFS throttling** ([`throttle`]), a per-run
//!   policy the run loop applies window by window — the dynamic
//!   mitigation the paper motivates as future work.
//!
//! # Quickstart
//!
//! ```no_run
//! use hotgauge_core::pipeline::{run_sim, SimConfig};
//! use hotgauge_floorplan::tech::TechNode;
//!
//! let mut cfg = SimConfig::new(TechNode::N7, "gcc");
//! cfg.max_time_s = 5e-3; // simulate 5 ms
//! let result = run_sim(cfg);
//! println!(
//!     "TUH = {:?}, peak severity = {:.2}",
//!     result.tuh_s,
//!     result.peak_severity()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod activity_trace;
pub mod analysis;
pub mod detect;
pub mod experiments;
pub mod locations;
pub mod mltd;
pub mod pipeline;
pub mod report;
pub mod series;
pub mod severity;
pub mod sweep;
pub mod throttle;
pub mod units;

pub use crate::activity_trace::{trace_stats, TraceStats};
pub use crate::analysis::{AnalysisConfig, FrameAnalysis, FrameAnalyzer};
pub use crate::detect::{
    detect_hotspots, detect_hotspots_naive, detect_hotspots_with_mltd, Hotspot, HotspotParams,
};
pub use crate::locations::HotspotCensus;
pub use crate::mltd::{max_mltd, mltd_field, mltd_field_naive};
pub use crate::pipeline::{run_many, run_sim, RunResult, SimConfig, StepRecord};
pub use crate::series::{percentile, rms, BoxStats, TimeSeries};
pub use crate::severity::{peak_severity, SeverityParams, Sigmoid};
pub use crate::sweep::{
    pool_workers, run_batch, run_many_batched_with, DEFAULT_BATCH_WIDTH, MAX_LOCKSTEP_WIDTH,
};
pub use crate::throttle::ThrottlePolicy;
pub use crate::units::{Celsius, Microns};

/// Convenient glob import of the most used types.
pub mod prelude {
    pub use crate::analysis::{AnalysisConfig, FrameAnalyzer};
    pub use crate::detect::{detect_hotspots, Hotspot, HotspotParams};
    pub use crate::experiments::Fidelity;
    pub use crate::locations::HotspotCensus;
    pub use crate::mltd::{max_mltd, mltd_field};
    pub use crate::pipeline::{run_many, run_sim, RunResult, SimConfig};
    pub use crate::series::{percentile, rms, BoxStats, TimeSeries};
    pub use crate::severity::{SeverityParams, Sigmoid};
}
