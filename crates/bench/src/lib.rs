//! Benchmark harness for the HotGauge reproduction (see the `bin/` targets).

pub mod cli;
pub mod fingerprint;
pub mod resident;
