//! The in-order SMT / HSMT engine.
//!
//! This is the lender-core datapath of §III-A — an 8-context, 4-wide-issue
//! in-order SMT core — and also the master-core's filler mode after a morph
//! (§III-B1). With HSMT enabled, a physical context that issues a µs-scale
//! remote access parks its virtual context in the dyad's [`ContextPool`] and
//! loads the head of the run queue, paying a register-swap latency; contexts
//! are also rotated on a 100µs quantum for starvation avoidance (§IV).
//!
//! Memory accesses go either to the engine's own core-local [`MemSys`] or —
//! for borrowed filler-threads on a Duplexity master-core — through a
//! [`RemotePath`] into the lender's [`MemSys`].

use crate::memsys::{MemSys, RemotePath};
use crate::metrics::EngineStats;
use crate::op::{Fetched, InstructionStream, MicroOp, Op, NO_REG};
use crate::pool::{ContextPool, VirtualContext};
use duplexity_obs::{ReturnReason, ThreadTag, TraceEvent, Tracer};
use duplexity_stats::rng::SimRng;
use duplexity_uarch::branch::{BranchPredictor, Gshare};
use duplexity_uarch::cache::AccessKind;

/// Default HSMT scheduling quantum (§IV: 100 µs) in microseconds.
pub const QUANTUM_US: f64 = 100.0;

struct PhysCtx {
    vctx: Option<VirtualContext>,
    pending: Option<MicroOp>,
    blocked_until: u64,
    quantum_end: u64,
    last_line: u64,
}

impl PhysCtx {
    fn empty() -> Self {
        Self {
            vctx: None,
            pending: None,
            blocked_until: 0,
            quantum_end: u64::MAX,
            last_line: u64::MAX,
        }
    }

    /// Swaps this context's virtual context out to `pool`: back to the run
    /// queue's tail, or parked until `resume_at`. `now` and `reason` stamp
    /// the filler-return trace event.
    fn swap_out(
        &mut self,
        now: u64,
        swap_latency: u64,
        pool: &mut ContextPool,
        tracer: &Tracer,
        reason: ReturnReason,
        resume_at: Option<u64>,
    ) {
        let v = self.vctx.take().expect("occupied");
        let ctx = v.id as u64;
        tracer.emit(|| TraceEvent::FillerReturn {
            at: now,
            ctx,
            reason,
        });
        match resume_at {
            Some(at) => pool.park(v, at),
            None => pool.add(v),
        }
        self.pending = None;
        self.blocked_until = now + swap_latency;
        self.quantum_end = u64::MAX;
        self.last_line = u64::MAX;
    }
}

impl std::fmt::Debug for PhysCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysCtx")
            .field("occupied", &self.vctx.is_some())
            .field("blocked_until", &self.blocked_until)
            .finish()
    }
}

/// An in-order SMT engine with optional HSMT virtual-context swapping.
///
/// # Examples
///
/// A lender-core multiplexing a pool of virtual contexts:
///
/// ```
/// use duplexity_cpu::inorder::InoEngine;
/// use duplexity_cpu::memsys::MemSys;
/// use duplexity_cpu::op::{LoopedTrace, MicroOp, Op};
/// use duplexity_cpu::pool::{ContextPool, VirtualContext};
/// use duplexity_stats::rng::rng_from_seed;
/// use duplexity_uarch::config::LatencyModel;
///
/// let mut lender = InoEngine::lender(3400.0, 64);
/// let mut pool = ContextPool::new();
/// for id in 0..16 {
///     let base = 0x1000 * id as u64;
///     let ops: Vec<MicroOp> =
///         (0..32).map(|i| MicroOp::new(base + i * 4, Op::IntAlu).with_dst(0)).collect();
///     pool.add(VirtualContext::new(id, Box::new(LoopedTrace::new(ops))));
/// }
/// let mut mem = MemSys::table1(LatencyModel::default());
/// let mut rng = rng_from_seed(2);
/// for now in 0..1_000 {
///     lender.step(now, &mut mem, None, Some(&mut pool), &mut rng);
/// }
/// assert!(lender.stats().retired_total() > 0);
/// ```
#[derive(Debug)]
pub struct InoEngine {
    width: usize,
    contexts: Vec<PhysCtx>,
    predictor: Gshare,
    hsmt: bool,
    cycles_per_us: f64,
    swap_latency: u64,
    quantum_cycles: u64,
    mispredict_penalty: u64,
    l1_hit: u64,
    rr_next: usize,
    stats: EngineStats,
    retired_by_ctx: Vec<u64>,
    tracer: Tracer,
    tag: ThreadTag,
}

impl InoEngine {
    /// Creates an engine with `physical_contexts` contexts and `width` total
    /// issue slots per cycle.
    ///
    /// `swap_latency` is the cycle cost of moving a virtual context in or out
    /// of a physical context (only charged when `hsmt` is true).
    #[must_use]
    pub fn new(
        physical_contexts: usize,
        width: usize,
        hsmt: bool,
        cycles_per_us: f64,
        swap_latency: u64,
    ) -> Self {
        Self {
            width,
            contexts: (0..physical_contexts).map(|_| PhysCtx::empty()).collect(),
            predictor: Gshare::new(8 * 1024),
            hsmt,
            cycles_per_us,
            swap_latency,
            quantum_cycles: (QUANTUM_US * cycles_per_us) as u64,
            mispredict_penalty: 8, // shorter in-order pipeline
            l1_hit: 3,
            rr_next: 0,
            stats: EngineStats::default(),
            retired_by_ctx: Vec::new(),
            tracer: Tracer::disabled(),
            tag: ThreadTag::Lender,
        }
    }

    /// Attaches a tracer; stall spans and borrow/return events are stamped
    /// `tag` (lender-core vs. morphed master-core filler mode). Consumes no
    /// RNG draws.
    pub fn set_tracer(&mut self, tracer: &Tracer, tag: ThreadTag) {
        self.tracer = tracer.clone();
        self.tag = tag;
    }

    /// The lender-core organization: 8-context, 4-wide, HSMT (Table I).
    #[must_use]
    pub fn lender(cycles_per_us: f64, swap_latency: u64) -> Self {
        Self::new(8, 4, true, cycles_per_us, swap_latency)
    }

    /// Pins a thread permanently to a free physical context (plain SMT, used
    /// by MorphCore's dedicated filler threads and by the Fig. 2(a)
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics if all physical contexts are occupied.
    pub fn add_fixed_context(&mut self, id: usize, stream: Box<dyn InstructionStream>) {
        let slot = self
            .contexts
            .iter_mut()
            .find(|c| c.vctx.is_none())
            .expect("no free physical context");
        slot.vctx = Some(VirtualContext::new(id, stream));
        slot.quantum_end = u64::MAX;
    }

    /// Number of occupied physical contexts.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.contexts.iter().filter(|c| c.vctx.is_some()).count()
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Retired micro-ops per virtual-context id (for STP).
    #[must_use]
    pub fn retired_by_ctx(&self) -> &[u64] {
        &self.retired_by_ctx
    }

    /// Squashes all front-end state (pending ops, fetch blocks) while keeping
    /// pinned contexts resident. Used when a plain MorphCore pauses its
    /// dedicated fillers on a mode switch back to OoO.
    pub fn squash_frontend(&mut self) {
        for c in &mut self.contexts {
            c.pending = None;
            c.blocked_until = 0;
            c.last_line = u64::MAX;
        }
    }

    /// Evicts every resident virtual context back to `pool` (filler eviction
    /// on master-thread resume, §III-B4). In-flight unissued ops are
    /// squashed. `now` stamps the filler-return trace events. Returns the
    /// number of contexts evicted.
    pub fn evict_all(&mut self, now: u64, pool: &mut ContextPool) -> usize {
        let mut n = 0;
        for c in &mut self.contexts {
            if let Some(v) = c.vctx.take() {
                let ctx = v.id as u64;
                self.tracer.emit(|| TraceEvent::FillerReturn {
                    at: now,
                    ctx,
                    reason: ReturnReason::Evict,
                });
                pool.add(v);
                n += 1;
            }
            c.pending = None;
            c.blocked_until = 0;
            c.quantum_end = u64::MAX;
            c.last_line = u64::MAX;
        }
        n
    }

    /// Advances one cycle. `remote` routes memory through the master-core's
    /// L0 filters into `mem` (the *lender's* memory system); `pool` supplies
    /// virtual contexts when HSMT is enabled.
    pub fn step(
        &mut self,
        now: u64,
        mem: &mut MemSys,
        mut remote: Option<&mut RemotePath>,
        mut pool: Option<&mut ContextPool>,
        rng: &mut SimRng,
    ) {
        let Self {
            width,
            contexts,
            predictor,
            hsmt,
            cycles_per_us,
            swap_latency,
            quantum_cycles,
            mispredict_penalty,
            l1_hit,
            rr_next,
            stats,
            retired_by_ctx,
            tracer,
            tag,
        } = self;
        let (swap_latency, quantum_cycles) = (*swap_latency, *quantum_cycles);
        stats.cycles += 1;
        if let Some(p) = pool.as_deref_mut() {
            p.poll(now);
        }
        // Only HSMT swaps virtual contexts in and out of the pool.
        let mut pool = pool.filter(|_| *hsmt);
        let n = contexts.len();
        let mut slots = *width;
        let mut mem_slots = 2usize;

        let mut i = *rr_next;
        'contexts: for _ in 0..n {
            let c = &mut contexts[i];
            i = if i + 1 == n { 0 } else { i + 1 };
            // Refill an empty physical context from the pool.
            let Some(v) = c.vctx.as_mut() else {
                if let Some(v) = pool.as_deref_mut().and_then(ContextPool::take) {
                    let ctx = v.id as u64;
                    tracer.emit(|| TraceEvent::FillerBorrow { at: now, ctx });
                    c.vctx = Some(v);
                    c.blocked_until = now + swap_latency;
                    c.quantum_end = now + swap_latency + quantum_cycles;
                    c.last_line = u64::MAX;
                }
                continue;
            };
            // Quantum rotation (only if someone is waiting).
            if now >= c.quantum_end {
                if let Some(p) = pool.as_deref_mut() {
                    if p.ready_len() > 0 {
                        c.swap_out(now, swap_latency, p, tracer, ReturnReason::Quantum, None);
                        continue;
                    }
                    // Nobody waiting: extend the quantum.
                    c.quantum_end = now + quantum_cycles;
                }
            }

            // Issue consecutive ready ops from this context.
            loop {
                if slots == 0 {
                    break 'contexts;
                }
                if c.blocked_until > now {
                    break;
                }
                // Fill the pending buffer.
                let op = match c.pending {
                    Some(op) => op,
                    None => match v.stream.next(now, rng) {
                        Fetched::Op(op) => {
                            c.pending = Some(op);
                            op
                        }
                        Fetched::IdleUntil(c_at) => {
                            // Batch thread briefly out of work: park it.
                            match pool.as_deref_mut() {
                                Some(p) => c.swap_out(
                                    now,
                                    swap_latency,
                                    p,
                                    tracer,
                                    ReturnReason::Idle,
                                    Some(c_at),
                                ),
                                None => c.blocked_until = c_at,
                            }
                            break;
                        }
                        Fetched::Done => {
                            c.vctx = None;
                            break;
                        }
                    },
                };

                // Instruction fetch per line.
                let line = op.pc >> 6;
                if line != c.last_line {
                    let lat = match remote.as_deref_mut() {
                        Some(rp) => rp.inst_fetch(mem, op.pc),
                        None => mem.inst_fetch(op.pc),
                    };
                    c.last_line = line;
                    if lat > *l1_hit {
                        c.blocked_until = now + lat;
                        break;
                    }
                }

                // In-order RAW check. Until its last source is written the
                // op cannot issue and nothing else can write that register,
                // so the context sleeps to that cycle instead of re-checking.
                let regs = &v.reg_ready;
                let wait = |s: u8| if s == NO_REG { 0 } else { regs[s as usize] };
                let ready_at = wait(op.srcs[0]).max(wait(op.srcs[1]));
                if ready_at > now {
                    c.blocked_until = ready_at;
                    break;
                }
                if matches!(op.op, Op::Load { .. } | Op::Store { .. }) && mem_slots == 0 {
                    break;
                }

                // Issue.
                c.pending = None;
                let complete = match op.op {
                    Op::Load { addr } | Op::Store { addr } => {
                        mem_slots -= 1;
                        let load = matches!(op.op, Op::Load { .. });
                        let kind = if load {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        let lat = match remote.as_deref_mut() {
                            Some(rp) => rp.data_access(mem, addr, kind),
                            None => mem.data_access(addr, kind),
                        };
                        // A store completes the cycle after issue.
                        now + if load { lat.max(1) } else { 1 }
                    }
                    Op::RemoteLoad { latency_us } => {
                        stats.remote_ops += 1;
                        let done = now
                            .saturating_add((latency_us * *cycles_per_us).round().max(1.0) as u64);
                        let tag = *tag;
                        tracer.emit(|| TraceEvent::StallBegin { at: now, tag });
                        tracer.emit(|| TraceEvent::StallEnd { at: done, tag });
                        done
                    }
                    Op::Branch { taken, .. } => {
                        stats.branches += 1;
                        let predicted = predictor.predict(op.pc);
                        predictor.update(op.pc, taken);
                        if predicted != taken {
                            stats.mispredicts += 1;
                            c.blocked_until = now + 1 + *mispredict_penalty;
                        }
                        now + 1
                    }
                    ref o => now + o.exec_latency(),
                };

                if let Some(dst) = op.dst {
                    v.reg_ready[dst as usize] = complete;
                }
                stats.retired_secondary += 1;
                if v.id >= retired_by_ctx.len() {
                    retired_by_ctx.resize(v.id + 1, 0);
                }
                retired_by_ctx[v.id] += 1;
                slots -= 1;

                // HSMT: a µs-scale stall swaps the context out. Plain SMT
                // keeps its slot and simply blocks when a dependent op
                // arrives (reg_ready gate).
                if let (Op::RemoteLoad { .. }, Some(p)) = (op.op, pool.as_deref_mut()) {
                    c.swap_out(
                        now,
                        swap_latency,
                        p,
                        tracer,
                        ReturnReason::Stall,
                        Some(complete),
                    );
                    break;
                }
            }
        }
        *rr_next = if *rr_next + 1 >= n { 0 } else { *rr_next + 1 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{LoopedTrace, MicroOp};
    use duplexity_stats::rng::rng_from_seed;
    use duplexity_uarch::config::LatencyModel;

    fn mem() -> MemSys {
        MemSys::table1(LatencyModel::default())
    }

    fn alu_loop(base: u64, dep_chain: bool) -> Vec<MicroOp> {
        (0..64)
            .map(|i| {
                let op = MicroOp::new(base + i * 4, Op::IntAlu);
                if dep_chain {
                    op.with_srcs(0, NO_REG).with_dst(0)
                } else {
                    op.with_dst((i % 16) as u8)
                }
            })
            .collect()
    }

    fn run(e: &mut InoEngine, m: &mut MemSys, cycles: u64) {
        let mut rng = rng_from_seed(7);
        for now in 0..cycles {
            e.step(now, m, None, None, &mut rng);
        }
    }

    #[test]
    fn eight_dep_chains_saturate_four_wide_issue() {
        // Each thread is a serial chain (IPC 1 alone); 8 threads on a 4-wide
        // in-order core reach ~4 IPC — the §III-A observation that the
        // OoO/InO gap vanishes at ~8 threads.
        let mut e = InoEngine::new(8, 4, false, 3400.0, 64);
        for t in 0..8 {
            e.add_fixed_context(
                t,
                Box::new(LoopedTrace::new(alu_loop(t as u64 * 4096, true))),
            );
        }
        let mut m = mem();
        run(&mut e, &mut m, 20_000);
        let ipc = e.stats().ipc();
        assert!(ipc > 3.0, "ipc {ipc}");
    }

    #[test]
    fn single_dep_chain_is_ipc_one() {
        let mut e = InoEngine::new(8, 4, false, 3400.0, 64);
        e.add_fixed_context(0, Box::new(LoopedTrace::new(alu_loop(0, true))));
        let mut m = mem();
        run(&mut e, &mut m, 20_000);
        let ipc = e.stats().ipc();
        assert!(ipc <= 1.05 && ipc > 0.8, "ipc {ipc}");
    }

    #[test]
    fn hsmt_hides_remote_stalls_with_enough_contexts() {
        // Threads stall 1µs per ~30 ALU ops. 8 physical contexts alone
        // starve; a 24-deep virtual-context pool keeps issue busy.
        let make = |id: usize| {
            let mut ops = alu_loop(id as u64 * 8192, true);
            ops.push(
                MicroOp::new(id as u64 * 8192 + 4096, Op::RemoteLoad { latency_us: 1.0 })
                    .with_dst(0),
            );
            LoopedTrace::new(ops)
        };

        // No HSMT: 8 fixed threads that block on stalls.
        let mut plain = InoEngine::new(8, 4, false, 3400.0, 64);
        for t in 0..8 {
            plain.add_fixed_context(t, Box::new(make(t)));
        }
        let mut m1 = mem();
        run(&mut plain, &mut m1, 100_000);

        // HSMT with 32 virtual contexts.
        let mut rng = rng_from_seed(9);
        let mut hsmt = InoEngine::lender(3400.0, 64);
        let mut pool = ContextPool::new();
        for t in 0..32 {
            pool.add(VirtualContext::new(t, Box::new(make(t))));
        }
        let mut m2 = mem();
        for now in 0..100_000 {
            hsmt.step(now, &mut m2, None, Some(&mut pool), &mut rng);
        }

        let plain_ipc = plain.stats().ipc();
        let hsmt_ipc = hsmt.stats().ipc();
        assert!(
            hsmt_ipc > 2.0 * plain_ipc,
            "plain {plain_ipc} vs hsmt {hsmt_ipc}"
        );
    }

    #[test]
    fn quantum_rotates_contexts() {
        // 9 contexts for 8 slots; with the 100µs quantum all 9 make progress.
        let mut e = InoEngine::lender(3400.0, 64);
        let mut pool = ContextPool::new();
        for t in 0..9 {
            pool.add(VirtualContext::new(
                t,
                Box::new(LoopedTrace::new(alu_loop(t as u64 * 4096, true))),
            ));
        }
        let mut m = mem();
        let mut rng = rng_from_seed(11);
        // > 2 quanta.
        for now in 0..800_000u64 {
            e.step(now, &mut m, None, Some(&mut pool), &mut rng);
        }
        let per = e.retired_by_ctx();
        assert_eq!(per.len(), 9);
        for (id, &r) in per.iter().enumerate() {
            assert!(r > 0, "context {id} starved");
        }
    }

    #[test]
    fn evict_all_returns_contexts() {
        let mut e = InoEngine::lender(3400.0, 64);
        let mut pool = ContextPool::new();
        for t in 0..8 {
            pool.add(VirtualContext::new(
                t,
                Box::new(LoopedTrace::new(alu_loop(t as u64 * 4096, false))),
            ));
        }
        let mut m = mem();
        let mut rng = rng_from_seed(13);
        for now in 0..1000u64 {
            e.step(now, &mut m, None, Some(&mut pool), &mut rng);
        }
        assert!(e.occupied() > 0);
        let evicted = e.evict_all(1000, &mut pool);
        assert_eq!(evicted, 8);
        assert_eq!(e.occupied(), 0);
        assert_eq!(pool.len(), 8);
    }

    #[test]
    fn remote_path_is_used_when_provided() {
        let mut e = InoEngine::new(8, 4, false, 3400.0, 64);
        let ops: Vec<MicroOp> = (0..32)
            .map(|i| {
                MicroOp::new(
                    i * 4,
                    Op::Load {
                        addr: 0x9000 + i * 64,
                    },
                )
            })
            .collect();
        e.add_fixed_context(0, Box::new(LoopedTrace::new(ops)));
        let mut lender_mem = mem();
        let mut rp = RemotePath::new();
        let mut rng = rng_from_seed(17);
        for now in 0..5000u64 {
            e.step(now, &mut lender_mem, Some(&mut rp), None, &mut rng);
        }
        // The traffic landed in the lender L1, and the L0 saw accesses.
        assert!(lender_mem.l1d.stats().accesses() > 0);
        assert!(rp.l0d.stats().accesses() > 0);
    }
}
