//! Set-associative cache model with true LRU replacement, and the three-level
//! hierarchy of Table I.

use crate::config::{CacheConfig, MemoryConfig};

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the L1.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Served by DRAM.
    Memory,
}

/// Every address the workload generators emit lies below this bound: their
/// code, data and cold-set segments all end below `0x9000_0000`, which a
/// `hotgauge-workloads` test pins for every shipped profile. It decides
/// each level's tag width (see [`Cache`]); it does not limit the model,
/// which simulates any address whose tag fits its level's storage.
const ADDRESS_LIMIT: u64 = 1 << 32;

/// A tag storage word. `INVALID` marks an empty way, so a word holds the
/// tags below it.
trait TagWord: Copy + PartialEq {
    const INVALID: Self;

    /// `tag` as a storage word.
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not fit below `INVALID`: no tag may alias
    /// another line or the invalid marker.
    fn from_tag(tag: u64) -> Self;
}

impl TagWord for u16 {
    const INVALID: Self = u16::MAX;

    fn from_tag(tag: u64) -> Self {
        assert!(tag < u64::from(Self::INVALID), "address beyond model range");
        tag as u16
    }
}

impl TagWord for u32 {
    const INVALID: Self = u32::MAX;

    fn from_tag(tag: u64) -> Self {
        assert!(tag < u64::from(Self::INVALID), "address beyond model range");
        tag as u32
    }
}

/// One level's tag array, MRU first within each set, at the narrowest word
/// that holds every tag of an address below [`ADDRESS_LIMIT`].
#[derive(Debug, Clone)]
enum Tags {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// Looks `tag` up in one set and moves it to the front: a hit at way `w`
/// shifts ways `0..w` one slot toward the end; a miss shifts all but the
/// last way, dropping the LRU line (or an invalid way). Returns whether
/// the access hit.
#[inline]
fn move_to_front<T: TagWord>(set: &mut [T], tag: u64) -> bool {
    let tag = T::from_tag(tag);
    let hit = set.iter().position(|&t| t == tag);
    set.copy_within(..hit.unwrap_or(set.len() - 1), 1);
    set[0] = tag;
    hit.is_some()
}

/// A single set-associative cache with true-LRU replacement.
///
/// Each set keeps its valid tags in recency order, most recent first, with
/// invalid ways after them. A hit rotates the tag to slot 0; a miss shifts
/// the set right by one way and writes the new tag at slot 0, so the least
/// recently used line (or an invalid way, while the set is not yet full)
/// falls off the end. This is the same hit/miss sequence as a per-way
/// LRU-stamp model: both keep the same set of resident tags, both fill an
/// invalid way while one exists, and both then evict the line whose last
/// access is oldest — which move-to-front order keeps in the last way.
///
/// The order *is* the replacement state, so the model is one tag word per
/// line and nothing else. A level stores `u16` tags when every tag of an
/// address below 2^32 (the generated address space) fits in 15 bits, and
/// `u32` tags otherwise; the word's all-ones value marks an invalid way,
/// which is why the rule is 15 bits and not 16. On Table I only the L3 is
/// narrow (12-bit tags): its 262 144 lines take 512 KiB, and a 16-way set
/// fills half a host cache line. The L1s (20-bit tags) and the L2 (16-bit)
/// stay `u32`. That matters because the tag arrays are probed at random
/// set indices on the simulated miss path, where host-cache misses
/// dominate the cost of memory-bound workloads, and because every live
/// core holds its own hierarchy.
///
/// A tag that does not fit its level's word panics with "address beyond
/// model range" (from about 2^36 on the narrow L3, 2^44 on the L1s)
/// instead of aliasing another line.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    tags: Tags,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two());
        let line_shift = cfg.line_bytes.trailing_zeros();
        let lines = sets * cfg.ways;
        let max_tag = (ADDRESS_LIMIT - 1) >> (line_shift + sets.trailing_zeros());
        let tags = if max_tag < u64::from(u16::INVALID) {
            Tags::Narrow(vec![u16::INVALID; lines])
        } else {
            Tags::Wide(vec![u32::INVALID; lines])
        };
        Self {
            cfg,
            sets,
            line_shift,
            tags,
            accesses: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Starts the host-memory load of `addr`'s tag line before the model
    /// needs it.
    ///
    /// The three-level lookup serializes one dependent tag-array probe per
    /// level on the simulated miss path, and for memory-bound workloads
    /// those probes are host-LLC misses that dominate simulation time.
    /// Hinting the L2/L3 tag lines before the L1 scan overlaps the three
    /// latencies. A prefetch has no architectural effect, so hit/miss
    /// results are unchanged; off x86-64 this compiles to nothing.
    #[inline]
    fn prefetch_set(&self, addr: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            let line = addr >> self.line_shift;
            let base = ((line as usize) & (self.sets - 1)) * self.cfg.ways;
            #[expect(
                unsafe_code,
                reason = "the crate root denies unsafe code; this prefetch hint is its one sanctioned block"
            )]
            // SAFETY: the set mask keeps `base` inside the tag array, whose
            // own element type sets the stride, and a prefetch hint reads
            // no memory and raises no faults.
            unsafe {
                let first: *const i8 = match &self.tags {
                    Tags::Narrow(t) => t.as_ptr().add(base).cast(),
                    Tags::Wide(t) => t.as_ptr().add(base).cast(),
                };
                core::arch::x86_64::_mm_prefetch(first, core::arch::x86_64::_MM_HINT_T0);
            }
        }
    }

    /// Accesses `addr`; returns `true` on hit. On miss the line is filled
    /// (allocate-on-miss for both reads and writes).
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s tag does not fit this level's tag word.
    // With a move-to-front body per tag word, LLVM no longer inlines this
    // into the hierarchy's per-level lookups on its own; the calls made
    // `stream_hash --core` ≈ 3.5 % slower on a 2-CPU x86-64 host.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.sets.trailing_zeros();
        let ways = set * self.cfg.ways..(set + 1) * self.cfg.ways;
        let hit = match &mut self.tags {
            Tags::Narrow(t) => move_to_front(&mut t[ways], tag),
            Tags::Wide(t) => move_to_front(&mut t[ways], tag),
        };
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidates all lines and resets statistics.
    pub fn flush(&mut self) {
        match &mut self.tags {
            Tags::Narrow(t) => t.fill(u16::INVALID),
            Tags::Wide(t) => t.fill(u32::INVALID),
        }
        self.reset_stats();
    }

    /// Bytes of tag storage.
    #[cfg(test)]
    fn tag_bytes(&self) -> usize {
        match &self.tags {
            Tags::Narrow(t) => std::mem::size_of_val(t.as_slice()),
            Tags::Wide(t) => std::mem::size_of_val(t.as_slice()),
        }
    }
}

/// The private two-level + shared L3 hierarchy of one core's data path.
///
/// Each core holds its own full-size model of the shared L3; nothing
/// partitions it between cores. That suffices because the paper's runs
/// are single-threaded: one core's view of the L3 is all of it.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Private unified L2.
    pub l2: Cache,
    /// Shared L3 (this core's private, full-size model of it).
    pub l3: Cache,
    cfg: MemoryConfig,
}

/// Result of a data access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The level that served the access.
    pub level: HitLevel,
    /// Latency in core cycles.
    pub latency: u64,
}

impl MemoryHierarchy {
    /// An empty hierarchy.
    pub fn new(cfg: MemoryConfig) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            cfg,
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// A data-side access (load or store) to `addr`.
    pub fn access_data(&mut self, addr: u64) -> AccessResult {
        self.l2.prefetch_set(addr);
        self.l3.prefetch_set(addr);
        if self.l1d.access(addr) {
            return AccessResult {
                level: HitLevel::L1,
                latency: self.cfg.l1d.latency_cycles,
            };
        }
        if self.l2.access(addr) {
            return AccessResult {
                level: HitLevel::L2,
                latency: self.cfg.l2.latency_cycles,
            };
        }
        if self.l3.access(addr) {
            return AccessResult {
                level: HitLevel::L3,
                latency: self.cfg.l3.latency_cycles,
            };
        }
        AccessResult {
            level: HitLevel::Memory,
            latency: self.cfg.dram_latency_cycles,
        }
    }

    /// An instruction-side access to `pc`. Instruction misses refill through
    /// the unified L2/L3 like data misses.
    pub fn access_instr(&mut self, pc: u64) -> AccessResult {
        if self.l1i.access(pc) {
            return AccessResult {
                level: HitLevel::L1,
                latency: self.cfg.l1i.latency_cycles,
            };
        }
        if self.l2.access(pc) {
            return AccessResult {
                level: HitLevel::L2,
                latency: self.cfg.l2.latency_cycles,
            };
        }
        if self.l3.access(pc) {
            return AccessResult {
                level: HitLevel::L3,
                latency: self.cfg.l3.latency_cycles,
            };
        }
        AccessResult {
            level: HitLevel::Memory,
            latency: self.cfg.dram_latency_cycles,
        }
    }

    /// Flushes every level (cold caches; the paper always warms before ROI).
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: 1024, // 4 sets x 4 ways x 64 B
            ways: 4,
            line_bytes: 64,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103F)); // same line
        assert!(!c.access(0x1040)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // 4 ways in set 0: lines 0, 4, 8, 12 (stride = sets * line).
        let stride = 4 * 64;
        for i in 0..4u64 {
            assert!(!c.access(i * stride));
        }
        // Touch line 0 to make it MRU; then insert a 5th line -> evicts line 1.
        assert!(c.access(0));
        assert!(!c.access(4 * stride));
        assert!(c.access(0), "MRU line must survive");
        assert!(!c.access(stride), "LRU line must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_misses() {
        let mut c = tiny();
        // 16 lines = exact capacity.
        for round in 0..4 {
            for i in 0..16u64 {
                let hit = c.access(i * 64);
                if round > 0 {
                    assert!(hit, "round {round}, line {i}");
                }
            }
        }
        assert_eq!(c.misses(), 16);
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut c = tiny();
        for i in 0..1000u64 {
            assert!(!c.access(i * 64 * 8)); // far-apart lines
        }
        assert!((c.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_tag_storage_is_narrow_only_on_the_l3() {
        // 12-bit L3 tags fit `u16`; the L1s (20-bit) and the L2 (16-bit,
        // which would reach the `u16::MAX` marker) stay `u32`.
        let h = MemoryHierarchy::new(MemoryConfig::default());
        let bytes = [&h.l1i, &h.l1d, &h.l2, &h.l3].map(Cache::tag_bytes);
        assert_eq!(bytes, [2 << 10, 2 << 10, 32 << 10, 512 << 10]);
    }

    #[test]
    #[should_panic(expected = "address beyond model range")]
    fn first_tag_past_the_narrow_word_panics() {
        let cfg = CacheConfig::l3_default();
        let mut c = Cache::new(cfg);
        let tag_shift = (cfg.sets() * cfg.line_bytes).trailing_zeros();
        // The last tag below the invalid marker still fits.
        assert!(!c.access((u64::from(u16::MAX) - 1) << tag_shift));
        c.access(u64::from(u16::MAX) << tag_shift);
    }

    #[test]
    fn hierarchy_latencies_ascend() {
        let mut h = MemoryHierarchy::new(MemoryConfig::default());
        let a = h.access_data(0x123456);
        assert_eq!(a.level, HitLevel::Memory);
        let b = h.access_data(0x123456);
        assert_eq!(b.level, HitLevel::L1);
        assert!(a.latency > b.latency);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = MemoryHierarchy::new(MemoryConfig::default());
        let sets = h.l1d.config().sets() as u64;
        let line = h.l1d.config().line_bytes as u64;
        // Fill set 0 of L1 with 9 conflicting lines (8 ways) — first one
        // falls out of L1 but stays in the larger L2.
        for i in 0..9u64 {
            h.access_data(i * sets * line);
        }
        let r = h.access_data(0);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn flush_empties() {
        let mut h = MemoryHierarchy::new(MemoryConfig::default());
        h.access_data(0x40);
        h.flush();
        let r = h.access_data(0x40);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(h.l1d.accesses(), 1);
    }
}
