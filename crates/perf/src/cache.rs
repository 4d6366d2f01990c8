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

/// A single set-associative cache with true-LRU replacement.
///
/// Each set keeps its valid tags in recency order, most recent first, with
/// invalid ways (`u32::MAX`) after them. A hit rotates the tag to slot 0; a
/// miss shifts the set right by one way and writes the new tag at slot 0,
/// so the least recently used line (or an invalid way, while the set is not
/// yet full) falls off the end. This is the same hit/miss sequence as a
/// per-way LRU-stamp model: both keep the same set of resident tags, both
/// fill an invalid way while one exists, and both then evict the line whose
/// last access is oldest — which move-to-front order keeps in the last way.
///
/// The order *is* the replacement state, so the model is one `u32` tag per
/// line and nothing else: a 16 MiB L3 holds 262 144 lines in 1 MiB, and a
/// 16-way set is one host cache line. That matters because the tag arrays
/// are probed at random set indices on the simulated miss path, where
/// host-cache misses dominate the cost of memory-bound workloads.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    /// Tags per set, MRU first; `u32::MAX` = invalid.
    tags: Vec<u32>,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two());
        Self {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u32::MAX; sets * cfg.ways],
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
            // SAFETY: the set mask keeps `base` inside `tags`, and a
            // prefetch hint reads no memory and raises no faults.
            #[allow(unsafe_code)]
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    self.tags.as_ptr().add(base) as *const i8,
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
    }

    /// Accesses `addr`; returns `true` on hit. On miss the line is filled
    /// (allocate-on-miss for both reads and writes).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let tag64 = line >> self.sets.trailing_zeros();
        // Generated address spaces top out near 2^32, far below the ~2^44
        // where a tag would no longer fit its compact representation.
        assert!(tag64 < u64::from(u32::MAX), "address beyond model range");
        let tag = tag64 as u32;
        let ways = self.cfg.ways;
        let base = set * ways;

        // Move to front: a hit at way `w` shifts ways `0..w` one slot toward
        // the end; a miss shifts all but the last way, dropping the LRU line.
        let tags = &mut self.tags[base..base + ways];
        let hit = tags.iter().position(|&t| t == tag);
        if hit.is_none() {
            self.misses += 1;
        }
        tags.copy_within(..hit.unwrap_or(ways - 1), 1);
        tags[0] = tag;
        hit.is_some()
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
        self.tags.fill(u32::MAX);
        self.reset_stats();
    }
}

/// The private two-level + shared L3 hierarchy of one core's data path.
///
/// The shared L3 is modeled per-core with capacity partitioning when
/// multiple cores are active (a standard approximation for single-socket
/// client workload studies; the paper's runs are single-threaded).
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Private unified L2.
    pub l2: Cache,
    /// Shared L3 (this core's view).
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
