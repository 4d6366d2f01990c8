//! **Content-addressed result store and resident sweep service.**
//!
//! HotGauge's figure grids are wide sweeps of deterministic co-simulation
//! runs that get re-executed every time a config evolves. This crate turns
//! the batch executor into an incremental system: every completed
//! [`hotgauge_core::pipeline::RunResult`] is persisted into a snapshot
//! store addressed by a stable content key of its *effective* simulation
//! input — the [`SimConfig`](hotgauge_core::pipeline::SimConfig) after the
//! sweep executor's serial-forcing rule, plus the resolved workload profile
//! (the seed rides inside the config). Re-running a sweep then serves
//! unchanged runs from disk bit-identically and simulates only the rest.
//!
//! The layers, bottom up:
//!
//! * [`key`] — canonical JSON serialization (sorted object keys, normalized
//!   numbers) hashed with 128-bit FNV-1a into a [`ContentKey`]. Keys are
//!   pure functions of the value tree: invariant under field reordering and
//!   re-serialization, stable across processes and machines.
//! * [`snapshot`] — the schema-versioned on-disk object
//!   ([`snapshot::StoredRun`]) wrapping one run result.
//! * [`store`] — [`store::ResultStore`]: an `objects/<key>.json` tree plus
//!   an atomic `index.json`. Writes go through temp-file+rename; reads
//!   verify schema, address, and content key, quarantining (never serving)
//!   anything torn or stale. [`store::DeltaBasis`] captures a previous
//!   sweep's key set for delta mode.
//! * [`sweep`] — [`sweep::run_many_stored_with`]: the sweep
//!   executor with a store in front. Hits stream straight from disk,
//!   misses run through `hotgauge_core::run_many_batched_with` unchanged,
//!   so results are bit-identical to a storeless sweep in either case.
//! * [`service`] — the NDJSON request/row protocol behind `hotgauge serve`
//!   and `hotgauge sweep`: one independently parseable, schema-tagged JSON
//!   line per completed run.
//!
//! Telemetry: `store.hits` / `store.misses` / `store.writes` /
//! `store.quarantined` count lookups and persists (the `store.` counter
//! namespace belongs to this crate alone).
//!
//! The correctness contract — store-served results bit-identical to fresh
//! simulation, keys stable across processes, delta mode never serving a
//! stale row after any config/profile/seed mutation — is pinned by
//! `tests/store_roundtrip.rs`, `tests/sweep_delta.rs`, and the store
//! dimension of `tests/sweep_equivalence.rs`.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::io;
use std::path::PathBuf;

pub mod key;
pub mod service;
pub mod snapshot;
pub mod store;
pub mod sweep;

pub use crate::key::{canonical_string, key_of_value, run_key, ContentKey, KEY_DOMAIN};
pub use crate::service::{
    request_config, rows_for_outcome, run_requests, serve, write_row_line, ServeOptions,
    ServeSummary, SweepRequest, SweepRow, ROW_SCHEMA_VERSION,
};
pub use crate::snapshot::{StoredRun, STORE_SCHEMA_VERSION};
pub use crate::store::{DeltaBasis, IndexEntry, ResultStore, StoreIndex, StoreStats};
pub use crate::sweep::{
    run_many_keyed_with, run_many_stored_with, sweep_key, RunSource, SweepOutcome,
};

/// Errors surfaced by the store and service layers.
///
/// Corruption of individual snapshot objects is *not* an error: torn or
/// stale objects are quarantined and re-simulated (fail-safe). `StoreError`
/// covers the cases that cannot be healed by re-simulation — unusable store
/// roots, unwritable snapshots, malformed requests.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation on the store failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A document that must parse (e.g. a delta-basis index) did not.
    Parse {
        /// The path of the document.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// A sweep/service request was malformed.
    InvalidRequest(String),
    /// An internal invariant broke; indicates a bug, not bad input.
    Internal(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store io error at {}: {source}", path.display())
            }
            StoreError::Parse { path, detail } => {
                write!(f, "cannot parse {}: {detail}", path.display())
            }
            StoreError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            StoreError::Internal(msg) => write!(f, "internal store invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source,
        }
    }
}
