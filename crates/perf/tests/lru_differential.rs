//! Differential test of the move-to-front [`Cache`] against a reference
//! true-LRU model that keeps one access stamp per way and evicts the
//! oldest. Random address streams over a tiny cache and the four Table-I
//! geometries concentrate on a few sets with more distinct lines per set
//! than ways, so every stream exercises fills, hits at every recency depth
//! and LRU evictions. A second mapping puts the Table-I L3's tags at the
//! top of its narrow `u16` storage, where a tag colliding with the invalid
//! marker or losing a bit would alias lines the reference keeps apart.

#![expect(
    clippy::expect_used,
    reason = "the reference model's victim search runs on sets with at least one way; a miss fails the test"
)]

use hotgauge_perf::cache::Cache;
use hotgauge_perf::config::{CacheConfig, MemoryConfig};
use proptest::prelude::*;

/// Textbook true LRU: a `u64` stamp per way, invalid ways filled first
/// (lowest way index), otherwise the smallest stamp is evicted.
struct StampLru {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    tags: Vec<Option<u64>>,
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl StampLru {
    fn new(cfg: &CacheConfig) -> Self {
        let lines = cfg.sets() * cfg.ways;
        Self {
            sets: cfg.sets() as u64,
            ways: cfg.ways,
            line_bytes: cfg.line_bytes as u64,
            tags: vec![None; lines],
            stamps: vec![0; lines],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let line = addr / self.line_bytes;
        let base = (line % self.sets) as usize * self.ways;
        let tag = line / self.sets;
        let ways = base..base + self.ways;
        if let Some(w) = ways.clone().find(|&w| self.tags[w] == Some(tag)) {
            self.stamps[w] = self.clock;
            return true;
        }
        self.misses += 1;
        let victim = ways
            .clone()
            .find(|&w| self.tags[w].is_none())
            .or_else(|| ways.min_by_key(|&w| self.stamps[w]))
            .expect("a set has at least one way");
        self.tags[victim] = Some(tag);
        self.stamps[victim] = self.clock;
        false
    }

    fn flush(&mut self) {
        self.tags.fill(None);
        self.accesses = 0;
        self.misses = 0;
    }
}

fn geometries() -> Vec<CacheConfig> {
    let table1 = MemoryConfig::default();
    vec![
        CacheConfig {
            capacity_bytes: 1024, // 4 sets x 4 ways x 64 B
            ways: 4,
            line_bytes: 64,
            latency_cycles: 1,
        },
        table1.l1i,
        table1.l1d,
        table1.l2,
        table1.l3,
    ]
}

/// Maps one random word to an address: one of four sets (first, second,
/// middle, last), one of `ways + ways / 2 + 2` conflicting lines in it, and
/// a random byte offset within the line.
fn address(cfg: &CacheConfig, r: u64) -> u64 {
    let sets = cfg.sets() as u64;
    let line_bytes = cfg.line_bytes as u64;
    let set = [0, 1, sets / 2, sets - 1][(r & 3) as usize];
    let tag = (r >> 2) % (cfg.ways as u64 + cfg.ways as u64 / 2 + 2);
    let offset = (r >> 32) % line_bytes;
    (tag * sets + set) * line_bytes + offset
}

/// Maps one random word to an address on the Table-I L3 whose tag sits at
/// the top of the `u16` range: one of four sets, and one of
/// `ways + ways / 2 + 2` tags counting down from `u16::MAX - 1` (the
/// largest that fits), every second one with bit 15 cleared so that it
/// differs from its neighbour only in the top bit.
fn narrow_top_address(cfg: &CacheConfig, r: u64) -> u64 {
    let sets = cfg.sets() as u64;
    let line_bytes = cfg.line_bytes as u64;
    let set = [0, 1, sets / 2, sets - 1][(r & 3) as usize];
    let j = (r >> 2) % (cfg.ways as u64 + cfg.ways as u64 / 2 + 2);
    let top = u64::from(u16::MAX) - 1 - j / 2;
    let tag = if j.is_multiple_of(2) {
        top
    } else {
        top & 0x7FFF
    };
    let offset = (r >> 32) % line_bytes;
    (tag * sets + set) * line_bytes + offset
}

/// Runs `stream` through both models on `cfg`, mapping each word to an
/// address with `address`, and fails on the first disagreement.
fn differential(
    cfg: CacheConfig,
    stream: &[u64],
    address: fn(&CacheConfig, u64) -> u64,
) -> Result<(), TestCaseError> {
    let mut mtf = Cache::new(cfg);
    let mut lru = StampLru::new(&cfg);
    for (i, &r) in stream.iter().enumerate() {
        // A rare mid-stream flush checks that both restart identically.
        if r % 1499 == 0 {
            mtf.flush();
            lru.flush();
        }
        let addr = address(&cfg, r);
        let (got, want) = (mtf.access(addr), lru.access(addr));
        prop_assert!(
            got == want,
            "access {i} to {addr:#x} ({cfg:?}): move-to-front hit={got}, LRU hit={want}"
        );
    }
    prop_assert_eq!(mtf.accesses(), lru.accesses);
    prop_assert_eq!(mtf.misses(), lru.misses);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn move_to_front_matches_stamp_lru(
        geometry in 0usize..5,
        stream in prop::collection::vec(0u64..u64::MAX, 1..3000),
    ) {
        differential(geometries()[geometry], &stream, address)?;
    }

    #[test]
    fn narrow_tags_at_the_top_of_their_range_match_stamp_lru(
        stream in prop::collection::vec(0u64..u64::MAX, 1..3000),
    ) {
        differential(MemoryConfig::default().l3, &stream, narrow_top_address)?;
    }
}
