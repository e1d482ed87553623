//! Translation lookaside buffers.
//!
//! Table I provisions 64-entry I/D TLBs. The master-core replicates a
//! "full-size TLB ... for exclusive use by filler-threads" (§III-B2), which
//! costs only ~0.7% core area but prevents filler-threads from evicting the
//! master-thread's translations.

use serde::{Deserialize, Serialize};

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed (page walk required).
    pub misses: u64,
}

impl TlbStats {
    /// Total translations.
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

/// A fully-associative, LRU TLB over fixed-size pages.
///
/// # Examples
///
/// ```
/// use duplexity_uarch::tlb::Tlb;
///
/// let mut tlb = Tlb::new(64, 4096);
/// assert!(!tlb.translate(0x1000));       // cold miss
/// assert!(tlb.translate(0x1FFF));        // same 4KB page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (vpn, lru)
    capacity: usize,
    page_shift: u32,
    stats: TlbStats,
    tick: u64,
    // Where each hashed VPN was last found in `entries`. A hint is only a
    // guess (evictions and flushes leave stale ones), so a hit through it
    // is checked against the VPN and a failed check falls back to the scan.
    hint: Vec<usize>,
    hint_shift: u32,
}

impl Tlb {
    /// Creates a TLB with `entries` slots over pages of `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `page_bytes` is not a power of two.
    #[must_use]
    pub fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let hints = (2 * entries).next_power_of_two();
        Self {
            entries: Vec::with_capacity(entries),
            capacity: entries,
            page_shift: page_bytes.trailing_zeros(),
            stats: TlbStats::default(),
            tick: 0,
            hint: vec![0; hints],
            hint_shift: 64 - hints.trailing_zeros(),
        }
    }

    /// Table I's 64-entry TLB over 4KB pages.
    #[must_use]
    pub fn table1() -> Self {
        Self::new(64, 4096)
    }

    /// Translates `addr`; returns `true` on hit. On miss the page is
    /// installed, evicting the LRU entry when full.
    pub fn translate(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let vpn = addr >> self.page_shift;
        // Fibonacci hashing: the top bits of the product pick the slot.
        let slot = (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hint_shift) as usize;
        let found = match self.entries.get(self.hint[slot]) {
            Some(&(p, _)) if p == vpn => Some(self.hint[slot]),
            _ => self.entries.iter().position(|&(p, _)| p == vpn),
        };
        if let Some(idx) = found {
            self.entries[idx].1 = self.tick;
            self.hint[slot] = idx;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("non-empty");
            self.entries.swap_remove(idx);
        }
        self.hint[slot] = self.entries.len();
        self.entries.push((vpn, self.tick));
        false
    }

    /// Drops all entries (e.g. on a context switch without ASIDs).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of resident translations.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.translate(0x0000));
        assert!(t.translate(0x0FFF));
        assert!(!t.translate(0x1000));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(2, 4096);
        t.translate(0x0000); // page 0
        t.translate(0x1000); // page 1
        t.translate(0x0000); // refresh page 0
        t.translate(0x2000); // evicts page 1
        assert!(t.translate(0x0000));
        assert!(!t.translate(0x1000)); // was evicted
    }

    #[test]
    fn capacity_bounded() {
        let mut t = Tlb::new(8, 4096);
        for i in 0..100u64 {
            t.translate(i * 4096);
        }
        assert_eq!(t.resident(), 8);
    }

    #[test]
    fn flush_clears_entries_keeps_stats() {
        let mut t = Tlb::new(4, 4096);
        t.translate(0x0);
        t.flush();
        assert_eq!(t.resident(), 0);
        assert_eq!(t.stats().misses, 1);
        assert!(!t.translate(0x0)); // cold again
    }

    #[test]
    fn miss_ratio_computation() {
        let mut t = Tlb::new(4, 4096);
        t.translate(0x0);
        t.translate(0x0);
        t.translate(0x0);
        t.translate(0x0);
        assert!((t.stats().miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn table1_shape() {
        let t = Tlb::table1();
        assert_eq!(t.capacity, 64);
        assert_eq!(t.page_shift, 12);
    }
}
