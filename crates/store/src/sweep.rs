//! The sweep executor with a result store in front.
//!
//! [`run_many_stored_with`] partitions a sweep into store hits and misses:
//! hits stream straight from disk (after full snapshot verification),
//! misses run through [`hotgauge_core::run_many_batched_with`] with their
//! *original* configs — the executor applies its own serial-forcing rule —
//! so a fresh result is bit-identical to what a storeless sweep would have
//! produced, and so is a stored one (it was persisted from exactly such a
//! run). Keys, however, are computed over the *effective* config (after
//! serial forcing, via [`hotgauge_core::sweep_serial_forced`]): the key
//! must address what the executor actually runs, or a `--threads 1` sweep
//! and a `--threads 8` sweep would collide on runs whose recorded
//! `AnalysisConfig`s differ.
//!
//! Delta mode ([`DeltaBasis`]) restricts which keys may be served: only
//! keys present in the previous sweep's index are eligible; everything
//! else re-simulates (and re-persists) even if some other sweep stored it.

use std::sync::atomic::{AtomicUsize, Ordering};

use hotgauge_core::pipeline::{RunResult, SimConfig, SweepProgress};
use hotgauge_core::{run_many_batched_with, sweep_serial_forced};

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
    /// Content key of each run (effective-config keyed), in input order.
    pub keys: Vec<ContentKey>,
    /// Provenance of each result, in input order.
    pub sources: Vec<RunSource>,
    /// Store counters for this sweep alone (all zero for storeless runs).
    pub stats: StoreStats,
}

/// The content key of `cfg` as submitted to a sweep at `threads`: applies
/// the executor's serial-forcing rule before keying, so the key addresses
/// the effective config a fresh sweep would record.
pub fn sweep_key(cfg: &SimConfig, threads: usize) -> ContentKey {
    if sweep_serial_forced(threads) {
        let mut eff = cfg.clone();
        eff.analysis = eff.analysis.serial();
        run_key(&eff)
    } else {
        run_key(cfg)
    }
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
    let keys: Vec<ContentKey> = cfgs.iter().map(|c| sweep_key(c, threads)).collect();
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
    let keys: Vec<ContentKey> = cfgs.iter().map(|c| sweep_key(c, threads)).collect();

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
        // The executor sees the ORIGINAL configs and applies its own serial
        // forcing, so the recorded `RunResult.config` matches a storeless
        // sweep bit for bit.
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

    #[test]
    fn sweep_key_applies_serial_forcing_only_for_pools() {
        use hotgauge_core::AnalysisConfig;
        use hotgauge_floorplan::tech::TechNode;
        let mut cfg = SimConfig::new(TechNode::N7, "hmmer");
        cfg.analysis = AnalysisConfig {
            threads: 4,
            ..cfg.analysis
        };
        let serial = sweep_key(&cfg, 1);
        let pooled = sweep_key(&cfg, 2);
        assert_ne!(
            serial, pooled,
            "a pooled sweep serial-forces the analysis config, changing the key"
        );
        let mut forced = cfg.clone();
        forced.analysis = forced.analysis.serial();
        assert_eq!(pooled, run_key(&forced));
        assert_eq!(
            sweep_key(&forced, 1),
            pooled,
            "already-serial config keys identically"
        );
    }
}
