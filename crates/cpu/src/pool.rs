//! The HSMT virtual-context pool shared across a dyad.
//!
//! Lender-cores "maintain a pointer to a FIFO run queue in dedicated memory,
//! which holds the state of all virtual contexts" (§III-A). When a physical
//! context stalls, its state is dumped to the tail of the run queue and the
//! head context is loaded. Master-cores borrow from the *head* of the same
//! queue, which is what prevents filler contexts from starving (§III-C).

use crate::op::{InstructionStream, REG_FILE_SIZE};
use std::collections::VecDeque;

/// One latency-insensitive batch thread's architectural state.
pub struct VirtualContext {
    /// Stable identifier.
    pub id: usize,
    /// The thread's dynamic instruction stream.
    pub stream: Box<dyn InstructionStream>,
    /// Per-architectural-register readiness (completion cycle of the last
    /// writer); carried across swaps.
    pub reg_ready: [u64; REG_FILE_SIZE],
}

impl std::fmt::Debug for VirtualContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualContext")
            .field("id", &self.id)
            .finish()
    }
}

impl VirtualContext {
    /// Wraps `stream` as virtual context `id`.
    #[must_use]
    pub fn new(id: usize, stream: Box<dyn InstructionStream>) -> Self {
        Self {
            id,
            stream,
            reg_ready: [0; REG_FILE_SIZE],
        }
    }
}

/// FIFO run queue of ready virtual contexts plus a parking lot for contexts
/// blocked on µs-scale stalls.
#[derive(Debug, Default)]
pub struct ContextPool {
    ready: VecDeque<VirtualContext>,
    parked: Vec<(u64, VirtualContext)>, // (resume_at, ctx)
    // No parked context resumes before this cycle, so an earlier poll has
    // nothing to move and skips the scan.
    next_resume: u64,
}

impl ContextPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a ready context at the queue tail: a new thread, or a
    /// still-runnable one returned on quantum expiry or filler eviction.
    pub fn add(&mut self, ctx: VirtualContext) {
        self.ready.push_back(ctx);
    }

    /// Moves parked contexts whose stall has resolved by `now` back to the
    /// ready queue (in resume order).
    pub fn poll(&mut self, now: u64) {
        if now < self.next_resume {
            return;
        }
        let mut due: Vec<(u64, VirtualContext)> = Vec::new();
        let mut next = u64::MAX;
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].0 <= now {
                due.push(self.parked.swap_remove(i));
            } else {
                next = next.min(self.parked[i].0);
                i += 1;
            }
        }
        self.next_resume = next;
        due.sort_by_key(|(at, _)| *at);
        for (_, ctx) in due {
            self.ready.push_back(ctx);
        }
    }

    /// Takes the head ready context, if any. Callers should [`Self::poll`]
    /// first.
    pub fn take(&mut self) -> Option<VirtualContext> {
        self.ready.pop_front()
    }

    /// Parks a context until its µs-scale stall resolves at `resume_at`.
    pub fn park(&mut self, ctx: VirtualContext, resume_at: u64) {
        self.next_resume = self.next_resume.min(resume_at);
        self.parked.push((resume_at, ctx));
    }

    /// Ready contexts waiting for a physical slot.
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Contexts blocked on stalls.
    #[must_use]
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Total contexts resident in the pool (excludes ones currently loaded
    /// into physical contexts).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ready.len() + self.parked.len()
    }

    /// True when no contexts are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{LoopedTrace, MicroOp, Op};

    fn ctx(id: usize) -> VirtualContext {
        VirtualContext::new(
            id,
            Box::new(LoopedTrace::new(vec![MicroOp::new(0, Op::IntAlu)])),
        )
    }

    #[test]
    fn fifo_order() {
        let mut p = ContextPool::new();
        p.add(ctx(1));
        p.add(ctx(2));
        p.add(ctx(3));
        assert_eq!(p.take().unwrap().id, 1);
        assert_eq!(p.take().unwrap().id, 2);
        p.add(ctx(4));
        assert_eq!(p.take().unwrap().id, 3);
        assert_eq!(p.take().unwrap().id, 4);
        assert!(p.take().is_none());
    }

    #[test]
    fn parked_contexts_resume_in_order() {
        let mut p = ContextPool::new();
        p.park(ctx(1), 100);
        p.park(ctx(2), 50);
        p.park(ctx(3), 200);
        p.poll(60);
        assert_eq!(p.ready_len(), 1);
        assert_eq!(p.take().unwrap().id, 2);
        p.poll(150);
        assert_eq!(p.take().unwrap().id, 1);
        assert_eq!(p.parked_len(), 1);
    }

    #[test]
    fn poll_respects_resume_ordering_within_batch() {
        let mut p = ContextPool::new();
        p.park(ctx(9), 30);
        p.park(ctx(7), 10);
        p.park(ctx(8), 20);
        p.poll(100);
        let order: Vec<usize> = std::iter::from_fn(|| p.take()).map(|c| c.id).collect();
        assert_eq!(order, vec![7, 8, 9]);
    }

    #[test]
    fn counts() {
        let mut p = ContextPool::new();
        assert!(p.is_empty());
        p.add(ctx(1));
        p.park(ctx(2), 10);
        assert_eq!(p.len(), 2);
        assert_eq!(p.ready_len(), 1);
        assert_eq!(p.parked_len(), 1);
    }
}
