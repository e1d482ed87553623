//! Branch direction and target predictors.
//!
//! Table I: the baseline/master core uses a tournament predictor — 16K-entry
//! bimodal, 16K-entry gshare and 16K-entry selector — with a 32-entry return
//! address stack and a 2K-entry BTB. The lender-core uses a smaller 8K-entry
//! gshare, and the master-core replicates a "reduced-size branch predictor"
//! (gshare 8K) for filler-thread mode so fillers cannot pollute the
//! master-thread's history (§III-B2).

use serde::{Deserialize, Serialize};

/// Saturating 2-bit counter predictor state machine.
///
/// States 0..=3; >=2 predicts taken. This is the primitive underlying the
/// bimodal and gshare tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter2(u8);

impl Counter2 {
    /// Weakly-not-taken initial state.
    #[must_use]
    pub fn new() -> Self {
        Self(1)
    }

    /// Current prediction.
    #[must_use]
    pub fn predict(self) -> bool {
        self.0 >= 2
    }

    /// Trains toward the actual outcome.
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

impl Default for Counter2 {
    fn default() -> Self {
        Self::new()
    }
}

/// A direction predictor: predicts taken/not-taken for a branch PC and is
/// trained with the actual outcome.
pub trait BranchPredictor: std::fmt::Debug + Send {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&self, pc: u64) -> bool;

    /// Trains the predictor with the resolved outcome of `pc`.
    fn update(&mut self, pc: u64, taken: bool);

    /// Resets all prediction state (e.g. on a hard context purge).
    fn reset(&mut self);
}

/// Bimodal predictor: a PC-indexed table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            table: vec![Counter2::new(); entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].predict()
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
    }

    fn reset(&mut self) {
        self.table.fill(Counter2::new());
    }
}

/// Gshare predictor: global history XOR PC indexes a 2-bit counter table.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<Counter2>,
    mask: u64,
    history: u64,
    history_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `entries` counters and a matching
    /// history length.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            table: vec![Counter2::new(); entries],
            mask: entries as u64 - 1,
            history: 0,
            history_bits: entries.trailing_zeros(),
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }
}

impl BranchPredictor for Gshare {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].predict()
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << self.history_bits) - 1);
    }

    fn reset(&mut self) {
        self.table.fill(Counter2::new());
        self.history = 0;
    }
}

/// Tournament predictor: a selector chooses between bimodal and gshare per
/// branch (Table I's 16K/16K/16K organization).
#[derive(Debug, Clone)]
pub struct Tournament {
    bimodal: Bimodal,
    gshare: Gshare,
    selector: Vec<Counter2>, // >=2 selects gshare
    mask: u64,
}

impl Tournament {
    /// Creates a tournament predictor with `entries` in each component.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            bimodal: Bimodal::new(entries),
            gshare: Gshare::new(entries),
            selector: vec![Counter2::new(); entries],
            mask: entries as u64 - 1,
        }
    }

    /// Table I organization: bimodal(16K), gshare(16K), selector(16K).
    #[must_use]
    pub fn table1() -> Self {
        Self::new(16 * 1024)
    }

    fn sel_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl BranchPredictor for Tournament {
    fn predict(&self, pc: u64) -> bool {
        if self.selector[self.sel_index(pc)].predict() {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let bp = self.bimodal.predict(pc);
        let gp = self.gshare.predict(pc);
        // Train the selector toward whichever component was right (only when
        // they disagree).
        if bp != gp {
            let i = self.sel_index(pc);
            self.selector[i].update(gp == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }

    fn reset(&mut self) {
        self.bimodal.reset();
        self.gshare.reset();
        self.selector.fill(Counter2::new());
    }
}

/// Branch target buffer: direct-mapped tag+target store.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (pc, target)
    mask: u64,
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            entries: vec![None; entries],
            mask: entries as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Table I's 2K-entry BTB.
    #[must_use]
    pub fn table1() -> Self {
        Self::new(2048)
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let i = ((pc >> 2) & self.mask) as usize;
        match self.entries[i] {
            Some((tag, target)) if tag == pc => {
                self.hits += 1;
                Some(target)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs or updates the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = ((pc >> 2) & self.mask) as usize;
        self.entries[i] = Some((pc, target));
    }

    /// (hits, misses) counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clears all targets.
    pub fn reset(&mut self) {
        self.entries.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter2_saturates() {
        let mut c = Counter2::new();
        assert!(!c.predict());
        c.update(true);
        assert!(c.predict());
        for _ in 0..10 {
            c.update(true);
        }
        c.update(false);
        assert!(c.predict()); // 3 -> 2, still taken
        c.update(false);
        assert!(!c.predict());
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut b = Bimodal::new(64);
        for _ in 0..4 {
            b.update(0x400, true);
        }
        assert!(b.predict(0x400));
        for _ in 0..4 {
            b.update(0x400, false);
        }
        assert!(!b.predict(0x400));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // T,N,T,N... is mispredicted by bimodal but learned by gshare.
        let mut g = Gshare::new(256);
        let mut correct = 0;
        let mut taken = true;
        for i in 0..400 {
            let p = g.predict(0x800);
            if i >= 200 && p == taken {
                correct += 1;
            }
            g.update(0x800, taken);
            taken = !taken;
        }
        assert!(correct as f64 / 200.0 > 0.95, "correct {correct}");
    }

    #[test]
    fn tournament_beats_components_on_mixed_workload() {
        // Branch A is strongly biased (bimodal-friendly); branch B alternates
        // (gshare-friendly). Tournament should approach the better of the
        // two on each.
        let mut t = Tournament::new(256);
        let mut taken_b = true;
        let mut correct = 0;
        let total = 2000;
        for i in 0..total {
            // Branch A: always taken.
            let pa = t.predict(0x1000);
            if i >= total / 2 && pa {
                correct += 1;
            }
            t.update(0x1000, true);
            // Branch B: alternating.
            let pb = t.predict(0x2004);
            if i >= total / 2 && pb == taken_b {
                correct += 1;
            }
            t.update(0x2004, taken_b);
            taken_b = !taken_b;
        }
        assert!(correct as f64 / f64::from(total) > 0.9, "correct {correct}");
    }

    #[test]
    fn btb_round_trip() {
        let mut btb = Btb::new(16);
        assert_eq!(btb.lookup(0x40), None);
        btb.update(0x40, 0x999);
        assert_eq!(btb.lookup(0x40), Some(0x999));
        // Aliasing PC evicts.
        btb.update(0x40 + 16 * 4, 0x777);
        assert_eq!(btb.lookup(0x40), None);
        assert_eq!(btb.stats().0, 1);
    }

    #[test]
    fn reset_clears_learning() {
        let mut g = Gshare::new(64);
        for _ in 0..8 {
            g.update(0x100, true);
        }
        g.reset();
        assert!(!g.predict(0x100)); // back to weakly-not-taken
    }
}
