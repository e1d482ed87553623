//! Set-associative caches with LRU replacement.
//!
//! The Duplexity memory system (Table I) uses private 64KB 2-way L1 I/D
//! caches with 64B lines, a 1MB 8-way LLC, and — unique to the master-core —
//! tiny write-through L0 filters (2KB I / 4KB D) in front of the *lender*
//! core's L1s (§III-B3). The L0 D-cache is write-through so "its contents can
//! be discarded or overwritten at any time", which is what makes the 50-cycle
//! filler-thread register spill of §III-B4 possible.

use serde::{Deserialize, Serialize};

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load or instruction fetch.
    Read,
    /// A store.
    Write,
}

/// Geometry and write policy of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes; must be a power of two.
    pub line_bytes: usize,
    /// If true, writes propagate immediately and lines are never dirty
    /// (the master-core's L0 D-cache); if false, write-back.
    pub write_through: bool,
}

impl CacheConfig {
    /// Table I: private 64KB, 2-way, 64B-line L1.
    #[must_use]
    pub fn l1() -> Self {
        Self {
            capacity_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
            write_through: false,
        }
    }

    /// Table I: 1MB per core, 8-way, 64B-line LLC slice.
    #[must_use]
    pub fn llc() -> Self {
        Self {
            capacity_bytes: 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            write_through: false,
        }
    }

    /// §III-B3: 2KB L0 instruction filter cache (write-through is moot for an
    /// I-cache but keeps it trivially discardable).
    #[must_use]
    pub fn l0_inst() -> Self {
        Self {
            capacity_bytes: 2 * 1024,
            ways: 2,
            line_bytes: 64,
            write_through: true,
        }
    }

    /// §III-B3: 4KB write-through L0 data filter cache.
    #[must_use]
    pub fn l0_data() -> Self {
        Self {
            capacity_bytes: 4 * 1024,
            ways: 2,
            line_bytes: 64,
            write_through: true,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways > 0, "need at least one way");
        let lines = self.capacity_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "capacity must divide evenly into ways"
        );
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss and write-back counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted (write-back traffic).
    pub writebacks: u64,
    /// Lines invalidated by external request.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio; 0 when no accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// A set-associative, LRU-replacement cache model.
///
/// The model is *tag-only*: it tracks which lines are resident, not their
/// data. That is sufficient for latency and interference modelling.
///
/// # Examples
///
/// ```
/// use duplexity_uarch::cache::{AccessKind, Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1());
/// assert!(!l1.access(0x1000, AccessKind::Read));   // cold miss
/// assert!(l1.access(0x1000, AccessKind::Read));    // now resident
/// assert!(l1.access(0x1020, AccessKind::Read));    // same 64B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Line>,
    num_sets: usize,
    set_shift: u32,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size or set count is not a power of two, or the
    /// capacity does not divide evenly into `ways` sets.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.sets();
        Self {
            config,
            sets: vec![INVALID_LINE; num_sets * config.ways],
            num_sets,
            set_shift: config.line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses `addr`; returns `true` on hit. On miss the line is filled,
    /// evicting the set's LRU line (a dirty eviction counts a write-back).
    ///
    /// Write hits mark the line dirty unless the cache is write-through.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.tick += 1;
        let (set, tag) = self.locate(addr);
        let base = set * self.config.ways;
        let ways = &mut self.sets[base..base + self.config.ways];

        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            if kind == AccessKind::Write && !self.config.write_through {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways > 0");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write && !self.config.write_through,
            lru: self.tick,
        };
        false
    }

    /// Returns `true` if `addr`'s line is resident, without disturbing LRU
    /// state or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let base = set * self.config.ways;
        self.sets[base..base + self.config.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates `addr`'s line if resident; returns `true` if a line was
    /// dropped. Used to forward invalidations from the lender L1 to the
    /// master-core's L0 to maintain inclusion (§III-B3).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let base = set * self.config.ways;
        for line in &mut self.sets[base..base + self.config.ways] {
            if line.valid && line.tag == tag {
                line.valid = false;
                self.stats.invalidations += 1;
                return true;
            }
        }
        false
    }

    /// Invalidates the entire cache contents (statistics survive).
    ///
    /// Models discarding the write-through L0s on a mode switch.
    pub fn flush_all(&mut self) {
        for line in &mut self.sets {
            *line = INVALID_LINE;
        }
    }

    /// Number of currently valid lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }

    /// Total line capacity.
    #[must_use]
    pub fn total_lines(&self) -> usize {
        self.sets.len()
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.set_shift;
        let set = (line_addr as usize) & (self.num_sets - 1);
        let tag = line_addr >> self.num_sets.trailing_zeros();
        (set, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            write_through: false,
        })
    }

    #[test]
    fn geometry_from_table1() {
        assert_eq!(CacheConfig::l1().sets(), 512);
        assert_eq!(CacheConfig::llc().sets(), 2048);
        assert_eq!(CacheConfig::l0_inst().sets(), 16);
        assert_eq!(CacheConfig::l0_data().sets(), 32);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0, AccessKind::Read));
        assert!(c.access(0x0, AccessKind::Read));
        assert!(c.access(0x3F, AccessKind::Read)); // same line
        assert!(!c.access(0x40, AccessKind::Read)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 in a 2-way cache: stride = sets*line = 256.
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        c.access(0x000, AccessKind::Read); // refresh line A
        c.access(0x200, AccessKind::Read); // evicts B (0x100)
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn writeback_only_for_dirty_lines() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Write); // dirty
        c.access(0x100, AccessKind::Read); // clean
        c.access(0x200, AccessKind::Read); // evicts dirty 0x000
        c.access(0x300, AccessKind::Read); // evicts clean 0x100
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_through_never_dirty() {
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            write_through: true,
        });
        c.access(0x000, AccessKind::Write);
        c.access(0x100, AccessKind::Write);
        c.access(0x200, AccessKind::Write);
        c.access(0x300, AccessKind::Write);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn invalidate_drops_line() {
        let mut c = tiny();
        c.access(0x80, AccessKind::Read);
        assert!(c.invalidate(0x80));
        assert!(!c.probe(0x80));
        assert!(!c.invalidate(0x80)); // already gone
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert!(c.resident_lines() > 0);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        // Probing A must not refresh it.
        assert!(c.probe(0x000));
        c.access(0x200, AccessKind::Read); // should evict A (LRU), not B
        assert!(!c.probe(0x000));
        assert!(c.probe(0x100));
    }

    #[test]
    fn capacity_accounting() {
        let mut c = tiny();
        assert_eq!(c.total_lines(), 8);
        for i in 0..64u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.resident_lines(), 8); // full, no over-fill
    }

    #[test]
    fn distinct_threads_thrash_shared_cache() {
        // The §II-B effect: two address streams alternating in one cache
        // produce more misses than each stream alone.
        let mut shared = tiny();
        let mut solo = tiny();
        let mut shared_misses = 0;
        let mut solo_misses = 0;
        for _round in 0..100u64 {
            for i in 0..8u64 {
                let a = i * 64;
                let b = 0x10_000 + i * 64; // second stream
                if !shared.access(a, AccessKind::Read) {
                    shared_misses += 1;
                }
                if !shared.access(b, AccessKind::Read) {
                    shared_misses += 1;
                }
                if !solo.access(a, AccessKind::Read) {
                    solo_misses += 1;
                }
            }
        }
        // Each stream alone fits (8 lines in 8-line cache) but both do not.
        assert!(shared_misses > 2 * solo_misses);
    }
}
