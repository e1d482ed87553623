//! Property-based tests for caches, TLBs and predictors.

use duplexity_uarch::branch::{BranchPredictor, Btb, Gshare, Tournament};
use duplexity_uarch::cache::{AccessKind, Cache, CacheConfig};
use duplexity_uarch::tlb::Tlb;
use proptest::prelude::*;

/// A fully-associative LRU TLB kept as a plain list: the reference that
/// `Tlb` must match call for call.
struct LinearLruTlb {
    capacity: usize,
    page_shift: u32,
    pages: Vec<(u64, u64)>, // (vpn, last use)
    tick: u64,
    hits: u64,
    misses: u64,
}

impl LinearLruTlb {
    fn translate(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let vpn = addr >> self.page_shift;
        if let Some(page) = self.pages.iter_mut().find(|(p, _)| *p == vpn) {
            page.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.pages.len() == self.capacity {
            let lru = (0..self.pages.len()).min_by_key(|&i| self.pages[i].1);
            self.pages.remove(lru.expect("full"));
        }
        self.pages.push((vpn, self.tick));
        false
    }
}

proptest! {
    /// Cache statistics always balance: hits + misses == accesses, and the
    /// number of resident lines never exceeds the geometry.
    #[test]
    fn cache_counters_balance(
        ops in prop::collection::vec((0u64..1 << 22, any::<bool>()), 1..400),
        ways in 1usize..4,
    ) {
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 64 * 64 * ways, // 64 sets
            ways,
            line_bytes: 64,
            write_through: false,
        });
        for &(addr, write) in &ops {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            c.access(addr, kind);
        }
        let s = *c.stats();
        prop_assert_eq!(s.hits + s.misses, ops.len() as u64);
        prop_assert!(c.resident_lines() <= c.total_lines());
        prop_assert!(s.writebacks <= s.misses, "writebacks only on evictions");
    }

    /// Repeating any access pattern a second time can only raise the hit
    /// count (LRU is stack-ish for a fixed working set smaller than the
    /// cache).
    #[test]
    fn small_working_set_hits_on_replay(
        lines in prop::collection::vec(0u64..32, 1..32),
    ) {
        // 64-line cache: the working set (<=32 distinct lines) always fits.
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 64 * 64,
            ways: 4,
            line_bytes: 64,
            write_through: false,
        });
        for &l in &lines {
            c.access(l * 64, AccessKind::Read);
        }
        let misses_after_warmup = c.stats().misses;
        for &l in &lines {
            c.access(l * 64, AccessKind::Read);
        }
        prop_assert_eq!(c.stats().misses, misses_after_warmup, "replay must fully hit");
    }

    /// Invalidate is precise: it removes exactly the named line and nothing
    /// else.
    #[test]
    fn invalidate_is_precise(lines in prop::collection::vec(0u64..64, 2..32), victim in 0usize..31) {
        prop_assume!(victim < lines.len());
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 64 * 64 * 4,
            ways: 4,
            line_bytes: 64,
            write_through: false,
        });
        for &l in &lines {
            c.access(l * 64, AccessKind::Read);
        }
        let target = lines[victim] * 64;
        c.invalidate(target);
        prop_assert!(!c.probe(target));
        for &l in &lines {
            if l != lines[victim] {
                prop_assert!(c.probe(l * 64), "line {l} was collateral damage");
            }
        }
    }

    /// The TLB holds at most its capacity and re-translating a just-touched
    /// page always hits.
    #[test]
    fn tlb_capacity_and_recency(pages in prop::collection::vec(0u64..4096, 1..300)) {
        let mut t = Tlb::new(64, 4096);
        for &p in &pages {
            t.translate(p * 4096);
            prop_assert!(t.resident() <= 64);
        }
        let last = *pages.last().unwrap();
        prop_assert!(t.translate(last * 4096), "most recent page must hit");
    }

    /// Every translation hits or misses exactly as in a linear-scan LRU
    /// list, whatever the capacity and page size. The regions lie far
    /// apart and together span more pages than the TLB has hint slots, so
    /// many resident pages share a slot and stale hints meet live pages.
    #[test]
    fn tlb_matches_a_linear_scan_lru_model(
        capacity in 1usize..81,
        page_shift in 10u32..17,
        regions in prop::collection::vec(0u64..1 << 16, 1..5),
        span in 1u64..200,
        calls in prop::collection::vec((0usize..4, 0u64..200, any::<u64>(), 0u8..64), 1..600),
    ) {
        let mut tlb = Tlb::new(capacity, 1 << page_shift);
        let mut model = LinearLruTlb {
            capacity,
            page_shift,
            pages: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        };
        for (k, &(region, page, offset, flush)) in calls.iter().enumerate() {
            if flush == 0 {
                tlb.flush();
                model.pages.clear();
                continue;
            }
            let vpn = (regions[region % regions.len()] << 24) + page % span;
            let addr = (vpn << page_shift) | (offset & ((1 << page_shift) - 1));
            prop_assert_eq!(tlb.translate(addr), model.translate(addr), "call {}", k);
            prop_assert_eq!(tlb.resident(), model.pages.len(), "call {}", k);
        }
        prop_assert_eq!(tlb.stats().hits, model.hits);
        prop_assert_eq!(tlb.stats().misses, model.misses);
    }

    /// Predictors never change the outcome stream, only their accuracy; and
    /// training on a constant branch converges to perfect prediction.
    #[test]
    fn predictors_learn_constant_branches(pc in 0u64..1 << 20, taken in any::<bool>()) {
        let mut g = Gshare::new(1024);
        let mut t = Tournament::new(1024);
        // Enough updates for the global history register (10 bits here) to
        // saturate and the counter at the stable index to train.
        for _ in 0..24 {
            g.update(pc, taken);
            t.update(pc, taken);
        }
        prop_assert_eq!(g.predict(pc), taken);
        prop_assert_eq!(t.predict(pc), taken);
    }

    /// BTB lookups return exactly what was installed (modulo capacity
    /// aliasing, which replaces rather than corrupts).
    #[test]
    fn btb_returns_installed_targets(entries in prop::collection::vec((0u64..1 << 16, 0u64..1 << 16), 1..64)) {
        let mut btb = Btb::new(4096);
        for &(pc, tgt) in &entries {
            btb.update(pc * 4, tgt);
        }
        // The last writer of each slot wins; look up the final map.
        let mut expected = std::collections::HashMap::new();
        for &(pc, tgt) in &entries {
            expected.insert(pc * 4, tgt);
        }
        for (&pc, &tgt) in &expected {
            if let Some(found) = btb.lookup(pc) {
                prop_assert_eq!(found, tgt, "stale target for {}", pc);
            }
        }
    }
}
