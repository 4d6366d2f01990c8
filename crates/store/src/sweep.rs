//! The sweep executor with a result store in front.
//!
//! [`run_many_stored_with`] partitions a sweep into store hits and misses:
//! hits stream straight from disk (after full snapshot verification),
//! misses run through [`hotgauge_core::run_many_batched_with`], so a fresh
//! result is bit-identical to what a storeless sweep would have produced,
//! and so is a stored one (it was persisted from exactly such a run). The
//! executor records every config as submitted at any thread count, so each
//! run is keyed by [`run_key`] of its config.
//!
//! Delta mode ([`DeltaBasis`]) restricts which keys may be served: only
//! keys present in the previous sweep's index are eligible; everything
//! else re-simulates (and re-persists) even if some other sweep stored it.

use std::sync::atomic::{AtomicUsize, Ordering};

use hotgauge_core::pipeline::{RunResult, SimConfig, SweepProgress};
use hotgauge_core::run_many_batched_with;

use crate::key::{run_key, ContentKey};
use crate::store::{DeltaBasis, ResultStore, StoreStats};
use crate::StoreError;

/// Where one sweep result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Freshly simulated this sweep.
    Simulated,
    /// Served from the result store.
    Store,
}

impl RunSource {
    /// The NDJSON row tag (`"sim"` / `"store"`).
    pub fn label(&self) -> &'static str {
        match self {
            RunSource::Simulated => "sim",
            RunSource::Store => "store",
        }
    }
}

/// One sweep's results with their content keys, per-run provenance, and
/// the store counters accumulated by exactly this sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Run results, in input order.
    pub results: Vec<RunResult>,
    /// Content key of each run, in input order.
    pub keys: Vec<ContentKey>,
    /// Provenance of each result, in input order.
    pub sources: Vec<RunSource>,
    /// Store counters for this sweep alone (all zero for storeless runs).
    pub stats: StoreStats,
}

/// The content key of `cfg` as submitted to a sweep at `threads`: the
/// executor records every config unchanged at any thread count, so this is
/// [`run_key`]`(cfg)`.
pub fn sweep_key(cfg: &SimConfig, _threads: usize) -> ContentKey {
    run_key(cfg)
}

/// A storeless sweep that still computes per-run content keys (the
/// `hotgauge sweep` path without `--store`). All results are freshly
/// simulated; stats stay zero.
pub fn run_many_keyed_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    batch: usize,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> SweepOutcome {
    let keys: Vec<ContentKey> = cfgs.iter().map(run_key).collect();
    let sources = vec![RunSource::Simulated; cfgs.len()];
    let results = run_many_batched_with(cfgs, threads, batch, on_done);
    SweepOutcome {
        results,
        keys,
        sources,
        stats: StoreStats::default(),
    }
}

/// Runs a sweep with `store` in front of the executor.
///
/// For each config: if its key is delta-eligible (in the basis, or no
/// basis given) and the store holds a verified snapshot, the result is
/// served from disk; otherwise the run is simulated through the normal
/// pooled executor and the fresh result persisted. `on_done` fires once
/// per run either way — hits first (they complete immediately), then
/// simulated runs as workers finish them — with `done` counting monotonically
/// over the whole sweep. Results keep input order and are bit-identical to
/// a storeless [`run_many_batched_with`] over the same configs.
pub fn run_many_stored_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    batch: usize,
    store: &mut ResultStore,
    delta: Option<&DeltaBasis>,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Result<SweepOutcome, StoreError> {
    let n = cfgs.len();
    let before = store.stats();
    let keys: Vec<ContentKey> = cfgs.iter().map(run_key).collect();

    let mut results: Vec<Option<RunResult>> = (0..n).map(|_| None).collect();
    let mut sources = vec![RunSource::Simulated; n];
    let mut hits = 0usize;
    for i in 0..n {
        let eligible = delta.is_none_or(|basis| basis.contains(&keys[i]));
        if !eligible {
            store.record_miss();
            continue;
        }
        if let Some(result) = store.get(&keys[i]) {
            results[i] = Some(result);
            sources[i] = RunSource::Store;
            hits += 1;
            if let Some(cb) = on_done {
                cb(SweepProgress {
                    done: hits,
                    total: n,
                    benchmark: cfgs[i].benchmark.clone(),
                    node: cfgs[i].node,
                    target_core: cfgs[i].target_core,
                });
            }
        }
    }

    let miss_idx: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();
    if !miss_idx.is_empty() {
        let miss_cfgs: Vec<SimConfig> = miss_idx.iter().map(|&i| cfgs[i].clone()).collect();
        let done_so_far = AtomicUsize::new(hits);
        let wrapped = |p: SweepProgress| {
            if let Some(cb) = on_done {
                let done = done_so_far.fetch_add(1, Ordering::Relaxed) + 1;
                cb(SweepProgress {
                    done,
                    total: n,
                    ..p
                });
            }
        };
        let wrapped_ref: Option<&(dyn Fn(SweepProgress) + Sync)> = if on_done.is_some() {
            Some(&wrapped)
        } else {
            None
        };
        let fresh = run_many_batched_with(miss_cfgs, threads, batch, wrapped_ref);
        if fresh.len() != miss_idx.len() {
            return Err(StoreError::Internal(
                "executor returned a wrong result count",
            ));
        }
        for (&i, result) in miss_idx.iter().zip(fresh) {
            store.put(&keys[i], &result)?;
            results[i] = Some(result);
        }
        store.flush()?;
    }

    let mut merged = Vec::with_capacity(n);
    for slot in results {
        match slot {
            Some(result) => merged.push(result),
            None => return Err(StoreError::Internal("a sweep slot was left unfilled")),
        }
    }
    Ok(SweepOutcome {
        results: merged,
        keys,
        sources,
        stats: store.stats().delta_since(before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_source_labels() {
        assert_eq!(RunSource::Simulated.label(), "sim");
        assert_eq!(RunSource::Store.label(), "store");
    }
}
