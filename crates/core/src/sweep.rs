//! Sweep executor: a fixed pool of stateless workers.
//!
//! The figure sweeps (Fig. 10/11, §V-B) are wide grids of independent
//! co-simulation runs. The executor here runs such a grid on a fixed pool
//! of workers claiming work items, widest first, from one shared counter.
//! Each item is one [`run_batch`] call, which builds every lane from its
//! config: lane 0 builds its geometry (floorplan, rasterized grids, power
//! model, prepared thermal system) and same-geometry mates clone lane 0's
//! parts. Nothing outlives the item, so a worker carries no state from one
//! item to the next.
//!
//! On top of the pool sits the **lockstep batch engine**: jobs sharing a
//! geometry key (every config field the model parts depend on, see
//! `geom_key`) are grouped (first-seen key order) and split into batches
//! of up to [`DEFAULT_BATCH_WIDTH`] runs, narrowed where that balances the
//! pool (see `partition`). Each batch advances window by window through
//! the pipeline's run loop, where every lane takes its own thermal step;
//! what the batch shares is lane 0's constructed parts. Batches of one
//! job — singleton geometries, or groups split down to single lanes — are
//! one-lane passes of the same loop.
//!
//! Results are **order-preserving and bit-identical** to running each
//! config through [`crate::pipeline::run_sim`] serially: the scheduler only
//! decides *where and how wide* a run executes — a mate's cloned thermal
//! state is reset to exactly the fresh-construction state, and each lane's
//! state is advanced only by its own steps (`tests/sweep_equivalence.rs`
//! pins all of it down).
//!
//! Telemetry: `sweep.jobs` / `sweep.completions` count scheduled and
//! finished runs (always equal), `sweep.items` counts the work items the
//! partition produced, and `solver.batch_width` / `solver.lockstep_runs`
//! record the widths of scheduled lockstep batches wider than one lane and
//! the runs executed through them; the whole pool runs under a
//! `sweep.executor` span.

use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use hotgauge_telemetry::{counter, span};

use crate::pipeline::{run_lanes, CoSimulation, RunResult, SimConfig, SweepProgress};

/// Default width of a lockstep batch: up to eight same-geometry jobs share
/// one work item. What a batch buys is shared construction: the mates
/// clone lane 0's floorplan, rasterized grids, power model and prepared
/// thermal system instead of rebuilding them. Every lane keeps its own core
/// model and thermal state live until the item ends, so a wider batch
/// holds more memory at once; capped by [`MAX_LOCKSTEP_WIDTH`] either way.
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// Widest batch: how many lanes one work item holds live at once. It
/// bounds [`run_batch`], clamps [`run_many_batched_with`]'s width and
/// validates the `--batch` option, which is outside input.
pub const MAX_LOCKSTEP_WIDTH: usize = 16;

/// The geometry key of a config: every [`SimConfig`] field the floorplan,
/// rasterized grids, power model, thermal stack, or prepared thermal system
/// depends on. Two configs with equal keys build bit-identical model parts,
/// so the executor groups jobs by it and [`run_batch`] lets a lane of lane
/// 0's key clone lane 0's parts. Fields that only shape the *run*
/// (benchmark, seed, warm-up, thresholds, horizons, analysis strategy) are
/// deliberately excluded.
pub(crate) fn geom_key(cfg: &SimConfig) -> String {
    use std::fmt::Write;
    let mut key = format!(
        "{:?}|{}|{}|{}|{}",
        cfg.node,
        cfg.cell_um.to_bits(),
        cfg.border_mm.to_bits(),
        cfg.substeps,
        cfg.ic_area_factor.to_bits(),
    );
    for (kind, factor) in &cfg.unit_scales {
        let _ = write!(key, "|{kind:?}*{}", factor.to_bits());
    }
    key
}

/// Runs a batch of configurations in lockstep: lane 0 builds its geometry,
/// the lanes of lane 0's geometry key clone its parts — sharing the
/// prepared backward-Euler matrix — and all lanes advance window by window
/// together, each taking its own thermal steps. A lane of another geometry
/// builds its own parts. Each result is bit-identical to `run_sim` of that
/// configuration. `on_lane_done` fires with the lane index as each lane
/// finishes.
///
/// # Panics
///
/// Panics if `cfgs` is empty, wider than [`MAX_LOCKSTEP_WIDTH`], mixes
/// substep counts, or is invalid, like [`crate::pipeline::run_sim`]
/// (user-input paths validate through [`CoSimulation::try_new`] first).
pub fn run_batch(cfgs: Vec<SimConfig>, on_lane_done: Option<&dyn Fn(usize)>) -> Vec<RunResult> {
    assert!(!cfgs.is_empty(), "a batch needs at least one configuration");
    let key = geom_key(&cfgs[0]);
    let mut lanes: Vec<CoSimulation> = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        // Lane 0 builds its parts. A mate of lane 0's key clones them
        // instead of rebuilding: same-key parts are bit-identical by
        // construction, and the clone shares the prepared matrix and its
        // preconditioner.
        let geom = lanes
            .first()
            .filter(|_| geom_key(&cfg) == key)
            .map(CoSimulation::clone_geom_parts);
        #[expect(
            clippy::panic,
            reason = "programmatic entry point mirroring run_sim/CoSimulation::new; user-input paths validate through try_new and exit 2"
        )]
        let sim = CoSimulation::try_new_reusing(cfg, geom)
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
        lanes.push(sim);
    }
    if lanes.len() > 1 {
        counter!("solver.batch_width", lanes.len());
        counter!("solver.lockstep_runs", lanes.len());
    }
    run_lanes(lanes, on_lane_done, None)
}

/// The worker-pool width a sweep of `jobs` runs will use for a `--threads`
/// value of `threads` (`0` = one per hardware thread). Exposed so the bench
/// bins can record the realized pool shape in their run manifests.
///
/// The width is capped at the machine's hardware threads: the runs are
/// CPU-bound, so oversubscribed workers cannot finish sooner — they only
/// add work items in flight (each with its models and solver workspaces)
/// to peak RSS.
pub fn pool_workers(threads: usize, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    resolved_threads(threads).min(hw).min(jobs)
}

/// `--threads` semantics: `0` means one worker per hardware thread.
fn resolved_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs many configurations on the sweep pool; results keep input
/// order. `threads = 0` sizes the pool to the hardware; an empty batch
/// returns immediately for any `threads`. `on_done` is invoked from worker
/// threads as each run finishes (sweep liveness for long experiments).
///
/// Same-geometry jobs run in lockstep batches of [`DEFAULT_BATCH_WIDTH`];
/// use [`run_many_batched_with`] to pick another width (or `1` to disable
/// batching). Results are identical either way.
pub fn run_many_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<RunResult> {
    run_many_batched_with(cfgs, threads, DEFAULT_BATCH_WIDTH, on_done)
}

/// [`run_many_with`] with an explicit lockstep batch width: jobs of one
/// geometry key are grouped (first-seen key order) and run up to `batch`
/// at a time through [`run_batch`]; `batch <= 1` disables batching and
/// runs every job as a one-lane batch. The width is clamped to
/// [`MAX_LOCKSTEP_WIDTH`], and groups are split narrower where that
/// balances the lanes across the pool (see `partition`). Neither ever
/// changes any result — only how many runs share one construction.
#[expect(
    clippy::expect_used,
    reason = "every work item is claimed by exactly one worker before the scope joins, so every slot is Some; a worker panic already propagated at scope exit"
)]
pub fn run_many_batched_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    batch: usize,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<RunResult> {
    let n = cfgs.len();
    if n == 0 {
        return Vec::new();
    }
    let _executor = span!("sweep.executor");
    counter!("sweep.jobs", n);
    let batch = batch.clamp(1, MAX_LOCKSTEP_WIDTH);

    // The pool's work items: input-ordered index batches of same-geometry
    // jobs, widest first. With `batch == 1` every job is its own item.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, c) in cfgs.iter().enumerate() {
        let key = geom_key(c);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let sizes: Vec<usize> = groups.iter().map(|(_, idxs)| idxs.len()).collect();
    let pool = pool_workers(threads, n);
    let items: Vec<&[usize]> = partition(&sizes, batch, pool)
        .into_iter()
        .map(|(g, members)| &groups[g].1[members])
        .collect();
    counter!("sweep.items", items.len());
    // Workers are additionally capped at the item count — a worker without
    // a work item would only ever idle.
    let workers = pool.min(items.len()).max(1);

    let completed = AtomicUsize::new(0);
    // Executes one work item; returns `(input index, result)` pairs.
    // Completion accounting fires per *run* (not per item), as each lane of
    // a batch finishes.
    let run_item = |item: &[usize]| -> Vec<(usize, RunResult)> {
        let lane_done = |lane: usize| {
            let idx = item[lane];
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            counter!("sweep.completions", 1);
            if let Some(cb) = on_done {
                cb(SweepProgress {
                    done,
                    total: n,
                    benchmark: cfgs[idx].benchmark.clone(),
                    node: cfgs[idx].node,
                    target_core: cfgs[idx].target_core,
                });
            }
        };
        let _run = span!("sweep.run");
        let lanes = item.iter().map(|&i| cfgs[i].clone()).collect();
        let rs = run_batch(lanes, Some(&lane_done));
        item.iter().copied().zip(rs).collect()
    };

    let mut results: Vec<Option<RunResult>> = (0..n).map(|_| None).collect();
    let slots = parking_lot::Mutex::new(&mut results);
    // Every worker claims the next unclaimed item from one shared cursor.
    // Items are sorted widest first, so this realizes the largest-first
    // assignment the partition balanced; no item is ever re-queued, so a
    // cursor past the end is the retirement signal.
    let cursor = AtomicUsize::new(0);
    let drain = || {
        while let Some(item) = items.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let out = run_item(item);
            let mut slots = slots.lock();
            for (i, r) in out {
                slots[i] = Some(r);
            }
        }
    };
    if workers == 1 {
        // Degenerate pool: the same loop inline on the caller thread.
        drain();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(drain);
            }
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("every run completed"))
        .collect()
}

/// Splits geometry groups of `sizes[g]` jobs into work items for a pool of
/// `pool` workers. Each item is `(g, members)`: a contiguous range of
/// positions within group `g`, at most `batch` wide. Items come widest
/// first (ties in group order), the order the pool claims them in.
///
/// Each group starts at `ceil(size / batch)` chunks whose widths differ by
/// at most one. While the largest-first assignment of the items to `pool`
/// workers leaves the busiest one above `ceil(N / pool)` lanes, the group
/// holding the widest chunk gets one more chunk and is split evenly again.
/// With `pool == 1` the bound is `N` itself, so no group splits further.
/// A pure function of its arguments: the partition only decides how runs
/// share a construction, never what they compute.
fn partition(sizes: &[usize], batch: usize, pool: usize) -> Vec<(usize, Range<usize>)> {
    let batch = batch.max(1);
    let pool = pool.max(1);
    let bound = sizes.iter().sum::<usize>().div_ceil(pool);
    let mut chunks: Vec<usize> = sizes.iter().map(|s| s.div_ceil(batch)).collect();
    loop {
        let mut items: Vec<(usize, Range<usize>)> = sizes
            .iter()
            .zip(&chunks)
            .enumerate()
            .flat_map(|(g, (&size, &parts))| even_split(size, parts).map(move |r| (g, r)))
            .collect();
        items.sort_by_key(|(_, r)| Reverse(r.len()));
        match items.first() {
            // A widest chunk of one lane means every chunk is one lane wide,
            // which the largest-first assignment always balances.
            Some(&(g, ref widest)) if widest.len() > 1 && busiest_load(&items, pool) > bound => {
                chunks[g] += 1;
            }
            _ => return items,
        }
    }
}

/// `0..len` split into `parts` contiguous ranges whose lengths differ by at
/// most one, longer ranges first.
fn even_split(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let (q, r) = (len / parts.max(1), len % parts.max(1));
    (0..parts).map(move |k| {
        let start = k * q + k.min(r);
        start..start + q + usize::from(k < r)
    })
}

/// The busiest worker's lane count when `items` (widest first) go one by
/// one to the least-loaded of `pool` workers.
fn busiest_load(items: &[(usize, Range<usize>)], pool: usize) -> usize {
    let mut loads = vec![0; pool];
    for (_, members) in items {
        if let Some(least) = loads.iter_mut().min() {
            *least += members.len();
        }
    }
    loads.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_floorplan::tech::TechNode;
    use hotgauge_thermal::warmup::Warmup;
    use proptest::prelude::*;

    fn quick_cfg(benchmark: &str) -> SimConfig {
        let mut c = SimConfig::new(TechNode::N7, benchmark);
        c.cell_um = 300.0;
        c.substeps = 1;
        c.sample_instrs = 8_000;
        c.max_time_s = 6e-4;
        c.warmup = Warmup::Cold;
        c
    }

    #[test]
    fn empty_batch_returns_cleanly_for_any_thread_count() {
        for threads in [0, 1, 7] {
            assert!(run_many_with(Vec::new(), threads, None).is_empty());
        }
    }

    #[test]
    fn threads_zero_resolves_to_hardware_pool() {
        let rs = run_many_with(vec![quick_cfg("hmmer")], 0, None);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].config.benchmark, "hmmer");
    }

    #[test]
    fn more_threads_than_jobs_preserves_order_and_configs() {
        let cfgs = vec![quick_cfg("hmmer"), quick_cfg("povray")];
        let rs = run_many_with(cfgs.clone(), 8, None);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].config.benchmark, "hmmer");
        assert_eq!(rs[1].config.benchmark, "povray");
        for (r, c) in rs.iter().zip(&cfgs) {
            assert_eq!(
                r.config.analysis, c.analysis,
                "the sweep records the submitted config"
            );
        }
    }

    #[test]
    fn progress_callback_reaches_total_exactly_once_per_job() {
        let seen = parking_lot::Mutex::new(Vec::new());
        let cb = |p: SweepProgress| seen.lock().push(p.done);
        let cfgs = vec![quick_cfg("hmmer"); 5];
        let rs = run_many_with(cfgs, 2, Some(&cb));
        assert_eq!(rs.len(), 5);
        let mut dones = seen.into_inner();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn geom_key_separates_geometry_but_not_workload() {
        let a = quick_cfg("hmmer");
        let mut b = quick_cfg("povray");
        b.seed = 99;
        b.warmup = Warmup::Idle;
        b.stop_at_first_hotspot = true;
        assert_eq!(
            geom_key(&a),
            geom_key(&b),
            "workload fields must not split the key"
        );
        let mut c = quick_cfg("hmmer");
        c.cell_um = 299.0;
        assert_ne!(geom_key(&a), geom_key(&c));
        let mut d = quick_cfg("hmmer");
        d.substeps = 2;
        assert_ne!(geom_key(&a), geom_key(&d));
    }

    #[test]
    fn pool_workers_caps_at_jobs_and_hardware() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(pool_workers(4, 2), 4.min(hw).min(2));
        assert_eq!(pool_workers(2, 100), 2.min(hw));
        assert!(pool_workers(0, 100) >= 1);
        assert_eq!(pool_workers(3, 0), 0);
        // The RSS guarantee: requesting far more workers than the machine
        // has hardware threads must not widen the realized pool — each
        // realized worker holds one work item in flight (its models and
        // solver workspaces), so the pool width bounds peak memory.
        assert!(
            pool_workers(64 * hw, 1_000) <= hw,
            "oversubscription must not widen the pool"
        );
        assert_eq!(pool_workers(0, 1_000), hw);
    }

    #[test]
    fn batched_executor_matches_unbatched_executor_bitwise() {
        // Two geometries interleaved plus a straggler: groups of 3 and 2
        // chunk into a width-2 batch + singleton, and one width-2 batch.
        let mut cfgs = Vec::new();
        for (i, bench) in ["hmmer", "povray", "gcc", "hmmer", "povray"]
            .iter()
            .enumerate()
        {
            let mut c = quick_cfg(bench);
            if i % 2 == 1 {
                c.cell_um = 360.0;
            }
            c.seed = i as u64;
            cfgs.push(c);
        }
        let unbatched = run_many_batched_with(cfgs.clone(), 1, 1, None);
        let batched = run_many_batched_with(cfgs, 1, 2, None);
        assert_eq!(unbatched.len(), batched.len());
        for (a, b) in unbatched.iter().zip(&batched) {
            assert_eq!(a.records, b.records);
            assert_eq!(a.final_frame, b.final_frame);
            assert_eq!(a.sev_series, b.sev_series);
            assert_eq!(a.total_instructions, b.total_instructions);
            assert_eq!(a.config.benchmark, b.config.benchmark);
        }
    }

    #[test]
    fn run_batch_is_bitwise_identical_to_fresh_runs() {
        let cfgs = vec![quick_cfg("hmmer"), quick_cfg("povray")];
        let want: Vec<RunResult> = cfgs.iter().cloned().map(crate::pipeline::run_sim).collect();
        let got = run_batch(cfgs, None);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.records, w.records);
            assert_eq!(g.final_frame, w.final_frame);
            assert_eq!(g.total_instructions, w.total_instructions);
        }
    }

    #[test]
    fn mixed_geometry_batch_runs_every_lane_on_its_own_geometry() {
        // Batch 1: another cell size and another node beside lane 0.
        // Batch 2: a 302 µm grid with exactly as many thermal nodes as
        // lane 0's 300 µm grid, but a different matrix.
        let mut coarse = quick_cfg("povray");
        coarse.cell_um = 360.0;
        let mut n14 = quick_cfg("gcc");
        n14.node = TechNode::N14;
        let mut near = quick_cfg("gcc");
        near.cell_um = 302.0;
        let batches = [
            vec![quick_cfg("hmmer"), coarse, n14],
            vec![quick_cfg("hmmer"), near],
        ];
        for cfgs in batches {
            let got = run_batch(cfgs.clone(), None);
            for (g, c) in got.iter().zip(cfgs) {
                let want = crate::pipeline::run_sim(c);
                assert_eq!(g.final_frame, want.final_frame);
                assert_eq!(g.records, want.records);
                assert_eq!(g.census, want.census);
                assert_eq!(g.total_instructions, want.total_instructions);
            }
        }
    }

    /// Item widths of each group, in member order.
    fn group_widths(sizes: &[usize], batch: usize, pool: usize) -> Vec<Vec<usize>> {
        let mut items = partition(sizes, batch, pool);
        items.sort_by_key(|(g, r)| (*g, r.start));
        let mut widths = vec![Vec::new(); sizes.len()];
        for (g, r) in items {
            widths[g].push(r.len());
        }
        widths
    }

    #[test]
    fn partition_balances_the_example_shapes() {
        // fig11: 21 same-geometry runs at batch 8 on two workers. Three
        // chunks of 7 load one worker with 14 lanes; four load 11 and 10.
        assert_eq!(group_widths(&[21], 8, 2), vec![vec![6, 5, 5, 5]]);
        // sec5b-like: three groups of 4 on two workers split only the first.
        assert_eq!(
            group_widths(&[4, 4, 4], 8, 2),
            vec![vec![2, 2], vec![4], vec![4]]
        );
        // Ten groups of 3 already put 15 lanes on each of two workers.
        assert_eq!(group_widths(&[3; 10], 8, 2), vec![vec![3]; 10]);
        // One worker never splits beyond the batch width.
        assert_eq!(group_widths(&[21, 4], 8, 1), vec![vec![7, 7, 7], vec![4]]);
        assert!(partition(&[], 8, 2).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn partition_covers_every_job_in_balanced_single_geometry_items(
            sizes in prop::collection::vec(1usize..40, 1..9),
            batch in 1usize..17,
            pool in 1usize..9,
        ) {
            let items = partition(&sizes, batch, pool);
            // Every member of every group appears exactly once; a member
            // range is ascending, so each item keeps input order.
            let mut seen: Vec<Vec<usize>> = sizes.iter().map(|&s| vec![0; s]).collect();
            for (g, members) in &items {
                prop_assert!(!members.is_empty() && members.len() <= batch);
                members.clone().for_each(|m| seen[*g][m] += 1);
            }
            prop_assert!(seen.iter().flatten().all(|&c| c == 1));
            // Widest first: the order the pool claims items in.
            prop_assert!(items.windows(2).all(|w| w[0].1.len() >= w[1].1.len()));
            for (g, widths) in group_widths(&sizes, batch, pool).iter().enumerate() {
                let (lo, hi) = (widths.iter().min(), widths.iter().max());
                prop_assert!(hi.zip(lo).is_some_and(|(h, l)| h - l <= 1));
                if pool == 1 {
                    prop_assert_eq!(widths.len(), sizes[g].div_ceil(batch));
                }
            }
            let lanes: usize = sizes.iter().sum();
            prop_assert!(busiest_load(&items, pool) <= lanes.div_ceil(pool));
        }
    }

    #[test]
    fn batch_lane_completion_callbacks_fire_once_per_run() {
        let seen = parking_lot::Mutex::new(Vec::new());
        let cb = |p: SweepProgress| seen.lock().push((p.done, p.benchmark.clone()));
        let cfgs = vec![quick_cfg("hmmer"), quick_cfg("povray"), quick_cfg("gcc")];
        let rs = run_many_batched_with(cfgs, 1, 8, Some(&cb));
        assert_eq!(rs.len(), 3);
        let mut dones: Vec<usize> = seen.into_inner().into_iter().map(|(d, _)| d).collect();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2, 3]);
    }
}
