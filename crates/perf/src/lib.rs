//! Interval-model out-of-order core performance simulator — the Rust
//! stand-in for Sniper's instruction-window-centric (ROB) core model.
//!
//! * [`config`] — Table I core and cache parameters;
//! * [`instr`] — the micro-op stream interface ([`instr::InstrSource`]);
//! * [`branch`] — gshare branch predictor;
//! * [`cache`] — set-associative LRU caches and the L1/L2/L3 hierarchy;
//! * [`engine`] — the mechanistic interval core ([`engine::CoreSim`]);
//! * [`smt`] — 2-way SMT stream interleaving;
//! * [`activity`] — per-window unit activity counters consumed by the power
//!   model.
//!
//! # Examples
//!
//! ```
//! use hotgauge_perf::prelude::*;
//!
//! struct Loop(u64);
//! impl InstrSource for Loop {
//!     fn next_instr(&mut self) -> Instr {
//!         self.0 += 4;
//!         Instr::compute(InstrClass::IntSimple, self.0 & 0xFFF)
//!     }
//! }
//!
//! let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
//! let window = core.run_cycles(&mut Loop(0), 100_000);
//! assert!(window.ipc() > 1.0);
//! ```

// Prefetch hints in the cache model are the one sanctioned use of `unsafe`
// (see `cache::Cache::prefetch_set`); everything else must stay safe, so
// deny with a local `#[expect(unsafe_code)]` rather than forbid.
// hotgauge-lint: allow(L008, "cache::Cache::prefetch_set carries the sole SAFETY-commented unsafe block; deny + local allow keeps it pinned")
#![deny(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod branch;
pub mod cache;
pub mod config;
pub mod engine;
pub mod instr;
pub mod smt;

pub use crate::activity::ActivityCounters;
pub use crate::branch::GsharePredictor;
pub use crate::cache::{AccessResult, Cache, HitLevel, MemoryHierarchy};
pub use crate::config::{CacheConfig, CoreConfig, MemoryConfig};
pub use crate::engine::CoreSim;
pub use crate::instr::{Instr, InstrClass, InstrSource};
pub use crate::smt::SmtInterleaver;

/// Convenient glob import of the most used types.
pub mod prelude {
    pub use crate::activity::ActivityCounters;
    pub use crate::cache::{Cache, HitLevel, MemoryHierarchy};
    pub use crate::config::{CacheConfig, CoreConfig, MemoryConfig};
    pub use crate::engine::CoreSim;
    pub use crate::instr::{Instr, InstrClass, InstrSource};
    pub use crate::smt::SmtInterleaver;
}
