//! Per-core memory systems and the master-core's remote path.
//!
//! Each core owns TLBs, L1 I/D caches and an LLC slice ([`MemSys`]). A
//! Duplexity master-core in filler mode reaches the *lender-core's* [`MemSys`]
//! through a [`RemotePath`]: tiny write-through L0 I/D filters plus the ~3
//! extra cycles of the cross-core data path (§III-B3). The L0 D-cache is
//! behaviourally inclusive in the lender L1 — an L0 hit whose line has left
//! the lender L1 is treated as a miss and refilled, which models the paper's
//! forwarded invalidations.
//!
//! µs-scale remote loads do not pass through the memory system: the engine
//! that issues one charges the latency its micro-op carries. Faults on those
//! accesses are injected only in the request-domain service law (see
//! `duplexity_net::FaultPlan`), never per cycle-domain access.

use duplexity_uarch::cache::{AccessKind, Cache, CacheConfig};
use duplexity_uarch::config::LatencyModel;
use duplexity_uarch::tlb::Tlb;

/// One core's private memory system: I/D TLBs, L1 I/D, and an LLC slice.
#[derive(Debug, Clone)]
pub struct MemSys {
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Last-level cache slice.
    pub llc: Cache,
    /// Latency parameters.
    pub lat: LatencyModel,
}

impl MemSys {
    /// Builds the Table I memory system (64KB 2-way L1s, 1MB 8-way LLC,
    /// 64-entry TLBs).
    #[must_use]
    pub fn table1(lat: LatencyModel) -> Self {
        Self {
            itlb: Tlb::table1(),
            dtlb: Tlb::table1(),
            l1i: Cache::new(CacheConfig::l1()),
            l1d: Cache::new(CacheConfig::l1()),
            llc: Cache::new(CacheConfig::llc()),
            lat,
        }
    }

    /// Instruction fetch at `addr`; returns total latency in cycles.
    pub fn inst_fetch(&mut self, addr: u64) -> u64 {
        let mut lat = 0;
        if !self.itlb.translate(addr) {
            lat += self.lat.page_walk;
        }
        if self.l1i.access(addr, AccessKind::Read) {
            lat + self.lat.l1_hit
        } else if self.llc.access(addr, AccessKind::Read) {
            lat + self.lat.llc_hit
        } else {
            lat + self.lat.memory
        }
    }

    /// Data access at `addr`; returns total latency in cycles.
    pub fn data_access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        let mut lat = 0;
        if !self.dtlb.translate(addr) {
            lat += self.lat.page_walk;
        }
        if self.l1d.access(addr, kind) {
            lat + self.lat.l1_hit
        } else if self.llc.access(addr, kind) {
            lat + self.lat.llc_hit
        } else {
            lat + self.lat.memory
        }
    }

    /// Total L1 misses (I + D), a pollution indicator.
    #[must_use]
    pub fn l1_misses(&self) -> u64 {
        self.l1i.stats().misses + self.l1d.stats().misses
    }

    /// Resets all cache and TLB statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.llc.reset_stats();
    }
}

/// The master-core's filler-mode path into the lender-core's caches:
/// 2KB L0-I and 4KB write-through L0-D filters plus the cross-core hop.
#[derive(Debug, Clone)]
pub struct RemotePath {
    /// L0 instruction filter.
    pub l0i: Cache,
    /// L0 write-through data filter.
    pub l0d: Cache,
}

impl RemotePath {
    /// Builds the §III-B3 L0 filters.
    #[must_use]
    pub fn new() -> Self {
        Self {
            l0i: Cache::new(CacheConfig::l0_inst()),
            l0d: Cache::new(CacheConfig::l0_data()),
        }
    }

    /// Filler-thread instruction fetch: L0-I first, then the lender L1-I over
    /// the cross-core path.
    pub fn inst_fetch(&mut self, lender: &mut MemSys, addr: u64) -> u64 {
        // Behavioural inclusion: an L0 hit only counts if the lender L1 still
        // holds the line (invalidations are forwarded, §III-B3).
        if self.l0i.access(addr, AccessKind::Read) && lender.l1i.probe(addr) {
            return lender.lat.l0_hit;
        }
        self.l0i.access(addr, AccessKind::Read); // ensure fill after forced miss
        lender.lat.remote_l1_extra + lender.inst_fetch(addr)
    }

    /// Filler-thread data access: L0-D first, then the lender L1-D. Writes go
    /// through to the lender (write-through L0).
    pub fn data_access(&mut self, lender: &mut MemSys, addr: u64, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => {
                if self.l0d.access(addr, AccessKind::Read) && lender.l1d.probe(addr) {
                    return lender.lat.l0_hit;
                }
                self.l0d.access(addr, AccessKind::Read);
                lender.lat.remote_l1_extra + lender.data_access(addr, AccessKind::Read)
            }
            AccessKind::Write => {
                // Write-through: update L0 (if present) and always the lender.
                self.l0d.access(addr, AccessKind::Write);
                lender.lat.remote_l1_extra + lender.data_access(addr, AccessKind::Write)
            }
        }
    }

    /// Discards both L0s — free because the L0-D is write-through (§III-B4).
    pub fn discard(&mut self) {
        self.l0i.flush_all();
        self.l0d.flush_all();
    }
}

impl Default for RemotePath {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemSys {
        MemSys::table1(LatencyModel::default())
    }

    #[test]
    fn fetch_latency_tiers() {
        let mut m = mem();
        let lat = LatencyModel::default();
        let cold = m.inst_fetch(0x1000);
        assert_eq!(cold, lat.page_walk + lat.memory);
        let warm = m.inst_fetch(0x1000);
        assert_eq!(warm, lat.l1_hit);
    }

    #[test]
    fn llc_hit_after_l1_eviction() {
        let mut m = mem();
        let lat = LatencyModel::default();
        m.data_access(0x0, AccessKind::Read);
        // Evict line 0 from the 2-way L1 set by touching 2 conflicting lines.
        let l1_stride = 64 * 1024 / 2; // sets * line = way stride
        m.data_access(l1_stride as u64, AccessKind::Read);
        m.data_access(2 * l1_stride as u64, AccessKind::Read);
        // Line 0 is gone from L1 but (1MB, 8-way) LLC still holds it.
        let l = m.data_access(0x0, AccessKind::Read);
        assert_eq!(l, lat.llc_hit);
    }

    #[test]
    fn remote_path_cold_and_warm() {
        let lat = LatencyModel::default();
        let mut lender = mem();
        let mut rp = RemotePath::new();
        let cold = rp.data_access(&mut lender, 0x4000, AccessKind::Read);
        assert_eq!(cold, lat.remote_l1_extra + lat.page_walk + lat.memory);
        // Second access hits the L0 filter at 1 cycle.
        let warm = rp.data_access(&mut lender, 0x4000, AccessKind::Read);
        assert_eq!(warm, lat.l0_hit);
    }

    #[test]
    fn l0_inclusion_forces_refill_after_lender_eviction() {
        let mut lender = mem();
        let mut rp = RemotePath::new();
        rp.data_access(&mut lender, 0x0, AccessKind::Read);
        assert_eq!(
            rp.data_access(&mut lender, 0x0, AccessKind::Read),
            lender.lat.l0_hit
        );
        // Evict the line from the lender L1 behind the L0's back.
        lender.l1d.invalidate(0x0);
        let lat = rp.data_access(&mut lender, 0x0, AccessKind::Read);
        assert!(lat > lender.lat.l0_hit, "stale L0 hit must be rejected");
    }

    #[test]
    fn writes_always_reach_lender() {
        let mut lender = mem();
        let mut rp = RemotePath::new();
        rp.data_access(&mut lender, 0x2000, AccessKind::Write);
        assert!(lender.l1d.probe(0x2000));
        // And again: still goes through (write-through, no dirty L0 state).
        let l = rp.data_access(&mut lender, 0x2000, AccessKind::Write);
        assert!(l >= lender.lat.remote_l1_extra + lender.lat.l1_hit);
    }

    #[test]
    fn discard_is_instant_and_total() {
        let mut lender = mem();
        let mut rp = RemotePath::new();
        for i in 0..16u64 {
            rp.data_access(&mut lender, i * 64, AccessKind::Read);
        }
        rp.discard();
        assert_eq!(rp.l0d.resident_lines(), 0);
        assert_eq!(rp.l0i.resident_lines(), 0);
    }

    #[test]
    fn master_and_filler_paths_are_isolated() {
        // The defining Duplexity property (§III-B): filler accesses touch the
        // lender MemSys, never the master's.
        let mut master = mem();
        let mut lender = mem();
        let mut rp = RemotePath::new();
        master.data_access(0x8000, AccessKind::Read);
        rp.data_access(&mut lender, 0x8000, AccessKind::Read);
        let before = master.l1d.stats().misses;
        // A torrent of filler traffic...
        for i in 0..1000u64 {
            rp.data_access(&mut lender, 0x10_0000 + i * 64, AccessKind::Read);
        }
        // ...does not add a single master L1 miss.
        master.data_access(0x8000, AccessKind::Read);
        assert_eq!(master.l1d.stats().misses, before);
    }
}
