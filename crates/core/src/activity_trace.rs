//! Activity traces: the perf model's output, simulated once per workload
//! stream and replayed from one process-wide table.
//!
//! A co-simulation's perf side depends on its workload stream alone. The
//! pipeline reads the core before any thermal state, and the window
//! sequence (a warm-up, then one `sample_instrs` window per thermal step) is
//! a function of the inputs a `StreamSpec` lists. Runs that share a
//! stream therefore share its windows, as HotGauge's own toolchain runs
//! Sniper once and feeds its per-step statistics to McPAT and 3D-ICE: Fig.
//! 8/11's cold and idle halves, §V-B's IC rungs and fig13's unit scales all
//! run each stream twice or more.
//!
//! A lane's `PerfSource` looks its stream up when the lane is built:
//!
//! * **hit**: the lane replays the entry and holds no core at all;
//! * **miss**: the lane warms a live core, as every run did before the
//!   table, records each window and publishes them when it finishes;
//! * **extension**: a replaying lane that needs more windows than the entry
//!   holds rebuilds a core from scratch (warm-up plus the recorded windows,
//!   each checked equal to the entry) and continues live, so the entry
//!   grows when the lane publishes.
//!
//! Every window a lane sees is thus the window a live core would produce,
//! and results are bit-identical to runs without the table. The key is
//! complete: a key that missed an input would fail the rebuild's equality
//! check as soon as an extension crossed two streams.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use hotgauge_perf::activity::ActivityCounters;
use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_telemetry::{counter, span};
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::profile::WorkloadProfile;

/// Instructions every co-simulation runs before its region of interest to
/// warm the caches and the branch predictor, as the paper does.
pub(crate) const ROI_WARMUP_INSTRS: u64 = 2_000_000;

/// Byte bound of the process-wide table, keys included. One window is
/// 248 B (31 `u64` counters). A 133-stream medium-preset grid of 100
/// windows per stream takes ≈ 3.3 MB, and a full 200 ms paper-preset stream
/// (1 000 windows) ≈ 248 KB, so 64 MiB holds about two full paper-preset
/// Fig. 11 grids (133 streams each). The headroom matters: a grid whose
/// second half revisits more streams than the table holds would evict each
/// entry just before its reuse.
pub const TRACE_TABLE_BYTES: usize = 64 << 20;

/// Every input of one stream's window sequence. Two specs produce the same
/// windows exactly when they are equal, which makes the spec the table key.
///
/// Throttling is not an input: it changes how many instructions a window
/// represents and which power model reads it, never the windows the core
/// produces. Temperature, floorplan, grid, warm-up start, detection and
/// horizons are not inputs either.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct StreamSpec {
    /// The resolved workload profile: its value, not only its name.
    profile: WorkloadProfile,
    /// Generator seed.
    seed: u64,
    /// Core parameters.
    core: CoreConfig,
    /// Memory hierarchy.
    memory: MemoryConfig,
    /// Instructions run before the first window.
    warmup_instrs: u64,
    /// Instructions per window.
    sample_instrs: u64,
}

impl StreamSpec {
    /// A stream on the Table I core and memory hierarchy.
    pub(crate) fn new(
        profile: WorkloadProfile,
        seed: u64,
        warmup_instrs: u64,
        sample_instrs: u64,
    ) -> Self {
        Self {
            profile,
            seed,
            core: CoreConfig::default(),
            memory: MemoryConfig::default(),
            warmup_instrs,
            sample_instrs,
        }
    }

    /// The table key: the JSON encoding of every field. serde_json writes
    /// each finite `f64` in its shortest round-trip form, so the encoding is
    /// lossless; debug builds check that it decodes back to this spec.
    fn key(&self) -> Arc<str> {
        #[expect(
            clippy::expect_used,
            reason = "a struct of numbers, strings and vectors always serializes"
        )]
        let key = serde_json::to_string(self).expect("a stream spec serializes");
        debug_assert!(
            serde_json::from_str::<StreamSpec>(&key).is_ok_and(|s| s == *self),
            "lossy trace key {key}"
        );
        key.into()
    }
}

/// Counts of the activity-trace table, always on (telemetry builds also
/// record the first four as the `perf.trace_*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Lookups that found their stream.
    pub hits: u64,
    /// Lookups that found nothing and warmed a live core.
    pub misses: u64,
    /// Replays that ran out of windows and rebuilt a live core.
    pub extensions: u64,
    /// Entries evicted to keep the table under its bound.
    pub evictions: u64,
    /// Bytes held: windows plus keys.
    pub bytes: usize,
    /// Streams held.
    pub entries: usize,
}

/// A table of activity traces, one entry per stream, evicted
/// least-recently-used under a byte bound.
#[derive(Debug)]
pub(crate) struct TraceTable {
    bound: usize,
    inner: Mutex<Entries>,
}

#[derive(Debug, Default)]
struct Entries {
    map: HashMap<Arc<str>, Entry>,
    /// Keys by their last use, oldest first: the eviction order.
    by_use: BTreeMap<u64, Arc<str>>,
    clock: u64,
    stats: TraceStats,
}

#[derive(Debug)]
struct Entry {
    windows: Arc<[ActivityCounters]>,
    used: u64,
}

/// Bytes an entry of `windows` windows under `key` is charged.
fn entry_bytes(key: &str, windows: usize) -> usize {
    key.len() + windows * std::mem::size_of::<ActivityCounters>()
}

impl Entries {
    /// Marks `key` as just used; returns its windows.
    fn touch(&mut self, key: &str) -> Option<Arc<[ActivityCounters]>> {
        let entry = self.map.get_mut(key)?;
        self.clock += 1;
        let (old, new) = (entry.used, self.clock);
        entry.used = new;
        let windows = Arc::clone(&entry.windows);
        if let Some(k) = self.by_use.remove(&old) {
            self.by_use.insert(new, k);
        }
        Some(windows)
    }

    /// Holds `windows` under `key` as the most recently used entry.
    fn insert(&mut self, key: Arc<str>, windows: Arc<[ActivityCounters]>) {
        self.remove(&key);
        self.clock += 1;
        self.stats.bytes += entry_bytes(&key, windows.len());
        self.by_use.insert(self.clock, Arc::clone(&key));
        let used = self.clock;
        self.map.insert(key, Entry { windows, used });
    }

    fn remove(&mut self, key: &str) {
        if let Some(old) = self.map.remove(key) {
            self.by_use.remove(&old.used);
            self.stats.bytes -= entry_bytes(key, old.windows.len());
        }
    }

    /// Evicts least-recently-used entries until the table fits `bound`;
    /// returns how many went.
    fn evict_to(&mut self, bound: usize) -> u64 {
        let mut evicted = 0;
        while self.stats.bytes > bound {
            let Some((_, key)) = self.by_use.pop_first() else {
                break;
            };
            self.remove(&key);
            evicted += 1;
        }
        self.stats.evictions += evicted;
        evicted
    }
}

impl TraceTable {
    /// An empty table that holds at most `bound` bytes.
    pub(crate) fn new(bound: usize) -> Self {
        Self {
            bound,
            inner: Mutex::new(Entries::default()),
        }
    }

    /// The table's counts.
    pub(crate) fn stats(&self) -> TraceStats {
        let t = self.inner.lock();
        TraceStats {
            entries: t.map.len(),
            ..t.stats
        }
    }

    /// The windows recorded under `key`, counted as a hit or a miss.
    fn get(&self, key: &str) -> Option<Arc<[ActivityCounters]>> {
        let found = {
            let mut t = self.inner.lock();
            let found = t.touch(key);
            match found {
                Some(_) => t.stats.hits += 1,
                None => t.stats.misses += 1,
            }
            found
        };
        match found {
            Some(_) => counter!("perf.trace_hits", 1),
            None => counter!("perf.trace_misses", 1),
        }
        found
    }

    /// Publishes a stream's windows, keeping the longer of the held and the
    /// new sequence. Their common prefix is equal by determinism. A sequence
    /// that alone exceeds the bound is not kept, so it cannot flush the
    /// table.
    fn publish(&self, key: &Arc<str>, windows: &[ActivityCounters]) {
        if windows.is_empty() || entry_bytes(key, windows.len()) > self.bound {
            return;
        }
        let evicted = {
            let mut t = self.inner.lock();
            if let Some(held) = t.map.get(&**key) {
                let common = held.windows.len().min(windows.len());
                debug_assert!(
                    held.windows[..common] == windows[..common],
                    "two live runs of one stream disagree"
                );
                if held.windows.len() >= windows.len() {
                    t.touch(key);
                    return;
                }
            }
            t.insert(Arc::clone(key), Arc::from(windows));
            t.evict_to(self.bound)
        };
        if evicted > 0 {
            counter!("perf.trace_evictions", evicted);
        }
    }

    fn count_extension(&self) {
        self.inner.lock().stats.extensions += 1;
        counter!("perf.trace_extensions", 1);
    }
}

/// The process-wide table every co-simulation reads.
pub(crate) fn trace_table() -> &'static TraceTable {
    static TABLE: OnceLock<TraceTable> = OnceLock::new();
    TABLE.get_or_init(|| TraceTable::new(TRACE_TABLE_BYTES))
}

/// The process-wide table's counts.
pub fn trace_stats() -> TraceStats {
    trace_table().stats()
}

/// The first window of a stream, through the process-wide table (the
/// background cores' idle activity, Table III's `C_dyn`, §II-A's densities).
pub(crate) fn first_window(spec: StreamSpec) -> ActivityCounters {
    let table = trace_table();
    let mut source = PerfSource::open(spec, table);
    let window = source.next_window(table);
    source.publish(table);
    window
}

/// A core running its stream live, recording every window it produces.
#[derive(Debug, Clone)]
struct LiveStream {
    core: CoreSim,
    gen: WorkloadGen,
    recorded: Vec<ActivityCounters>,
}

impl LiveStream {
    /// A fresh core warmed up on a fresh generator: the start of the stream.
    fn start(spec: &StreamSpec) -> Self {
        let mut gen = WorkloadGen::new(spec.profile.clone(), spec.seed);
        let mut core = CoreSim::new(spec.core, spec.memory);
        core.warm_up(&mut gen, spec.warmup_instrs);
        Self {
            core,
            gen,
            recorded: Vec::new(),
        }
    }

    fn window(&mut self, sample_instrs: u64) -> ActivityCounters {
        let w = self.core.run_instructions(&mut self.gen, sample_instrs);
        self.recorded.push(w);
        w
    }
}

/// One lane's perf model: a replay cursor over a table entry, or a live
/// core when there was no entry or the entry ran out.
#[derive(Debug, Clone)]
pub(crate) struct PerfSource {
    spec: Arc<StreamSpec>,
    key: Arc<str>,
    replay: Arc<[ActivityCounters]>,
    next: usize,
    live: Option<Box<LiveStream>>,
}

impl PerfSource {
    /// Looks `spec` up in `table`: a hit replays the entry, a miss warms a
    /// live core now.
    pub(crate) fn open(spec: StreamSpec, table: &TraceTable) -> Self {
        let key = spec.key();
        let (replay, live) = match table.get(&key) {
            Some(windows) => (windows, None),
            None => {
                let _stage = span!("stage.core_warmup");
                (Arc::from([]), Some(Box::new(LiveStream::start(&spec))))
            }
        };
        Self {
            spec: Arc::new(spec),
            key,
            replay,
            next: 0,
            live,
        }
    }

    /// The stream's next window. A replay that runs out rebuilds its core
    /// first: warm-up plus every replayed window, checked against the entry.
    /// The pipeline times the call as the window's `stage.perf`, so a
    /// rebuild's `stage.core_warmup` runs inside it.
    pub(crate) fn next_window(&mut self, table: &TraceTable) -> ActivityCounters {
        if self.live.is_none() {
            if let Some(&w) = self.replay.get(self.next) {
                self.next += 1;
                return w;
            }
        }
        let live = self.live.get_or_insert_with(|| {
            table.count_extension();
            let _stage = span!("stage.core_warmup");
            let mut live = LiveStream::start(&self.spec);
            for want in self.replay.iter() {
                let got = live.window(self.spec.sample_instrs);
                assert_eq!(
                    &got, want,
                    "a rebuilt core diverged from its trace: the key misses an input"
                );
            }
            Box::new(live)
        });
        live.window(self.spec.sample_instrs)
    }

    /// Publishes the windows a live core produced; a lane that only
    /// replayed has nothing to add.
    pub(crate) fn publish(&self, table: &TraceTable) {
        if let Some(live) = &self.live {
            table.publish(&self.key, &live.recorded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_workloads::{benchmark_profile, spec2006};
    use proptest::prelude::*;

    fn window(tag: u64) -> ActivityCounters {
        ActivityCounters {
            cycles: tag,
            instructions: tag,
            ..Default::default()
        }
    }

    fn windows(n: u64) -> Vec<ActivityCounters> {
        (1..=n).map(window).collect()
    }

    fn key(k: &str) -> Arc<str> {
        Arc::from(k)
    }

    #[test]
    fn a_window_is_248_bytes() {
        assert_eq!(std::mem::size_of::<ActivityCounters>(), 248);
    }

    #[test]
    fn tiny_bound_evicts_the_least_recently_used() {
        let one = entry_bytes("a", 1);
        let table = TraceTable::new(2 * one);
        table.publish(&key("a"), &windows(1));
        table.publish(&key("b"), &windows(1));
        assert!(table.get("a").is_some(), "a becomes the most recent");
        table.publish(&key("c"), &windows(1));
        let s = table.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!((s.entries, s.bytes), (2, 2 * one));
        assert!(table.get("b").is_none(), "b was the least recently used");
        assert!(table.get("a").is_some() && table.get("c").is_some());
    }

    #[test]
    fn an_entry_larger_than_the_bound_is_refused_without_evicting() {
        let table = TraceTable::new(entry_bytes("a", 2));
        table.publish(&key("a"), &windows(2));
        table.publish(&key("b"), &windows(3));
        let s = table.stats();
        assert_eq!(
            (s.entries, s.bytes, s.evictions),
            (1, entry_bytes("a", 2), 0)
        );
        assert!(table.get("b").is_none());
    }

    #[test]
    fn publishing_keeps_the_longer_sequence() {
        let table = TraceTable::new(TRACE_TABLE_BYTES);
        let k = key("stream");
        table.publish(&k, &windows(3));
        table.publish(&k, &windows(2));
        assert_eq!(table.get("stream").map(|w| w.len()), Some(3));
        table.publish(&k, &windows(5));
        assert_eq!(table.get("stream").as_deref(), Some(&windows(5)[..]));
        let s = table.stats();
        assert_eq!((s.entries, s.bytes), (1, entry_bytes("stream", 5)));
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let table = TraceTable::new(TRACE_TABLE_BYTES);
        assert!(table.get("x").is_none());
        table.publish(&key("x"), &windows(1));
        assert!(table.get("x").is_some());
        let s = table.stats();
        assert_eq!((s.hits, s.misses, s.extensions), (1, 1, 0));
    }

    #[test]
    fn the_key_tells_every_input_apart() {
        let base = StreamSpec::new(benchmark_profile("gcc").expect("gcc"), 3, 1_000, 500);
        let mut variants = vec![base.clone()];
        let mut push = |f: &dyn Fn(&mut StreamSpec)| {
            let mut s = base.clone();
            f(&mut s);
            variants.push(s);
        };
        push(&|s| s.seed = 4);
        push(&|s| s.warmup_instrs = 1_001);
        push(&|s| s.sample_instrs = 501);
        push(&|s| s.core.rob_entries += 1);
        push(&|s| s.memory.l2.latency_cycles += 1);
        push(&|s| {
            s.profile.serial_fraction = f64::from_bits(s.profile.serial_fraction.to_bits() + 1)
        });
        push(&|s| s.profile.phases[0].fp_scale *= 2.0);
        let keys: std::collections::BTreeSet<Arc<str>> =
            variants.iter().map(StreamSpec::key).collect();
        assert_eq!(keys.len(), variants.len());
    }

    /// The first `m` windows of a stream run live, without any table.
    fn live_windows(spec: &StreamSpec, m: usize) -> Vec<ActivityCounters> {
        let mut live = LiveStream::start(spec);
        (0..m).map(|_| live.window(spec.sample_instrs)).collect()
    }

    fn served(source: &mut PerfSource, table: &TraceTable, m: usize) -> Vec<ActivityCounters> {
        (0..m).map(|_| source.next_window(table)).collect()
    }

    // A stream recorded to `n` windows and then read to `m` serves the first
    // `m` windows of a fresh live stream, whether the entry is truncated
    // (`m < n`), exact or extended (`m > n`).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn served_windows_equal_a_fresh_live_stream(
            bench in 0..spec2006::ALL_BENCHMARKS.len() + 1,
            seed in 0..u64::MAX,
            warmup in 0u64..20_000,
            sample in 200u64..3_000,
            n in 0usize..5,
            m in 0usize..7,
        ) {
            let name = spec2006::ALL_BENCHMARKS.get(bench).copied().unwrap_or("idle");
            let profile = benchmark_profile(name).expect("known benchmark");
            let spec = StreamSpec::new(profile, seed, warmup, sample);
            let table = TraceTable::new(TRACE_TABLE_BYTES);

            let mut first = PerfSource::open(spec.clone(), &table);
            let recorded = served(&mut first, &table, n);
            first.publish(&table);
            let mut second = PerfSource::open(spec.clone(), &table);
            let got = served(&mut second, &table, m);
            second.publish(&table);

            let want = live_windows(&spec, n.max(m));
            prop_assert_eq!(&recorded[..], &want[..n]);
            prop_assert_eq!(&got[..], &want[..m]);
            let s = table.stats();
            let hit = u64::from(n > 0);
            prop_assert_eq!((s.hits, s.misses), (hit, 2 - hit));
            prop_assert_eq!(s.extensions, u64::from(n > 0 && m > n));
            prop_assert_eq!(s.entries, usize::from(n.max(m) > 0));
            let held = table.get(&spec.key()).map_or(0, |w| w.len());
            prop_assert_eq!(held, n.max(m));
        }
    }

    // Whatever is published, the table never holds more than its bound.
    proptest! {
        #[test]
        fn bytes_never_exceed_the_bound(
            bound in 0usize..4_000,
            ops in prop::collection::vec(0u64..96, 1..40),
        ) {
            let table = TraceTable::new(bound);
            for op in ops {
                // Six keys, zero to seven windows, a read or a publish.
                let (k, n, read) = (key(&format!("s{}", op % 6)), op / 6 % 8, op >= 48);
                if read {
                    let _ = table.get(&k);
                } else {
                    table.publish(&k, &windows(n));
                }
                prop_assert!(table.stats().bytes <= bound);
            }
        }
    }
}
