//! The 4-wide out-of-order engine.
//!
//! Models the Table I baseline: 4-wide fetch/issue/commit, 144-entry
//! ROB/PRF, 48/32-entry LQ/SQ, a 60-entry issue window, tournament branch
//! prediction with BTB, and per-line I-cache fetch. SMT variants multiplex
//! several threads with ICOUNT fetch \[117\]; the SMT+ variant prioritizes the
//! latency-critical thread for bandwidth resources and caps the co-runner at
//! 30% of storage resources (§V, designs 2–3).
//!
//! Scheduling model: per-thread program-order ROBs with register-dependency
//! tracking, out-of-order issue from a bounded window, structural occupancy
//! limits, and in-order per-thread commit. Wrong-path fetch is approximated
//! by halting fetch from a thread between a mispredicted branch's dispatch
//! and its resolution plus the redirect penalty — equivalent throughput-wise
//! to fetching and squashing the wrong path.

use crate::memsys::MemSys;
use crate::metrics::EngineStats;
use crate::op::{Fetched, InstructionStream, MicroOp, Op, NO_REG, REG_FILE_SIZE};
use duplexity_obs::{ThreadTag, TraceEvent, Tracer};
use duplexity_stats::rng::SimRng;
use duplexity_uarch::branch::{BranchPredictor, Btb, Tournament};
use duplexity_uarch::cache::AccessKind;
use duplexity_uarch::config::CoreConfig;
use std::collections::VecDeque;

/// Fetch/thread-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchPolicy {
    /// ICOUNT \[117\]: fetch from the thread with the fewest in-flight ops.
    Icount,
    /// Rotate across threads.
    RoundRobin,
    /// SMT+ (design 3): thread 0 gets every slot it can use; co-runners get
    /// leftovers only.
    PrimaryFirst,
}

/// SMT+ storage-resource partition: co-runner threads may hold at most
/// `secondary_share` of each storage structure (ROB, IQ, LQ, SQ) \[119\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtPartition {
    /// Maximum fraction of each storage resource available to non-primary
    /// threads (the paper uses 0.3).
    pub secondary_share: f64,
}

impl SmtPartition {
    /// The paper's 30% cap.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            secondary_share: 0.3,
        }
    }
}

/// Whether a thread is the latency-critical microservice or a batch thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// The latency-critical master-thread.
    Primary,
    /// A batch / filler thread.
    Secondary,
}

#[derive(Debug)]
struct Entry {
    op: Op,
    seq: u64,   // thread-local sequence number
    order: u64, // global fetch order (age priority)
    deps: [Option<u64>; 2],
    dst: bool,
    issued: bool,
    complete: u64, // valid when issued
    mispredicted: bool,
    end_of_request: Option<u64>,
}

impl Entry {
    /// Whether the entry has executed by `now`: it may commit, and its
    /// dependants may issue.
    fn complete_by(&self, now: u64) -> bool {
        self.issued && self.complete <= now
    }
}

struct ThreadCtx {
    stream: Box<dyn InstructionStream>,
    class: ThreadClass,
    rob: VecDeque<Entry>,
    base_seq: u64,
    next_seq: u64,
    scoreboard: [Option<u64>; REG_FILE_SIZE],
    pending: Option<MicroOp>,
    fetch_blocked_until: u64,
    awaiting_branch: bool,
    idle_until: u64,
    done: bool,
    last_line: u64,
    lq_used: usize,
    sq_used: usize,
    unissued: usize,
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("class", &self.class)
            .field("rob_len", &self.rob.len())
            .field("idle_until", &self.idle_until)
            .field("done", &self.done)
            .finish()
    }
}

impl ThreadCtx {
    fn new(stream: Box<dyn InstructionStream>, class: ThreadClass, rob_capacity: usize) -> Self {
        Self {
            stream,
            class,
            rob: VecDeque::with_capacity(rob_capacity),
            base_seq: 0,
            next_seq: 0,
            scoreboard: [None; REG_FILE_SIZE],
            pending: None,
            fetch_blocked_until: 0,
            awaiting_branch: false,
            idle_until: 0,
            done: false,
            last_line: u64::MAX,
            lq_used: 0,
            sq_used: 0,
            unissued: 0,
        }
    }

    /// Whether both of `e`'s producers have retired or completed by `now`.
    fn operands_ready(&self, e: &Entry, now: u64) -> bool {
        e.deps.iter().all(|dep| match *dep {
            // A producer below `base_seq` has already retired.
            Some(seq) if seq >= self.base_seq => {
                self.rob[(seq - self.base_seq) as usize].complete_by(now)
            }
            _ => true,
        })
    }

    /// No op in flight and none buffered.
    fn drained(&self) -> bool {
        self.rob.is_empty() && self.pending.is_none()
    }
}

/// A multi-threaded out-of-order core engine.
///
/// Step it one cycle at a time against a [`MemSys`]; all state (ROBs,
/// predictors, occupancy) persists across steps so morph controllers can
/// pause and resume it.
///
/// # Examples
///
/// ```
/// use duplexity_cpu::memsys::MemSys;
/// use duplexity_cpu::ooo::{FetchPolicy, OooEngine, ThreadClass};
/// use duplexity_cpu::op::{LoopedTrace, MicroOp, Op};
/// use duplexity_stats::rng::rng_from_seed;
/// use duplexity_uarch::config::{CoreConfig, LatencyModel};
///
/// let mut engine = OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::Icount, 3400.0);
/// let ops: Vec<MicroOp> =
///     (0..16).map(|i| MicroOp::new(i * 4, Op::IntAlu).with_dst((i % 8) as u8)).collect();
/// engine.add_thread(Box::new(LoopedTrace::new(ops)), ThreadClass::Primary);
///
/// let mut mem = MemSys::table1(LatencyModel::default());
/// let mut rng = rng_from_seed(1);
/// for now in 0..1_000 {
///     engine.step(now, &mut mem, &mut rng);
/// }
/// assert!(engine.stats().ipc() > 1.0);
/// ```
#[derive(Debug)]
pub struct OooEngine {
    cfg: CoreConfig,
    policy: FetchPolicy,
    partition: Option<SmtPartition>,
    elfen: bool,
    runahead: bool,
    runahead_until: u64,
    runahead_replay: VecDeque<MicroOp>,
    runahead_poisoned: [bool; REG_FILE_SIZE],
    threads: Vec<ThreadCtx>,
    predictor: Tournament,
    btb: Btb,
    rename_free: usize,
    rr_next: usize,
    next_order: u64,
    cycles_per_us: f64,
    mispredict_penalty: u64,
    l1_hit: u64,
    stats: EngineStats,
    tracer: Tracer,
    // Reusable per-cycle scratch (hot path: no per-step allocations).
    issue_scratch: Vec<(u64, bool, usize, usize)>,
    fetch_blocked_scratch: Vec<bool>,
}

impl OooEngine {
    /// Creates an engine with `cfg` sizing. Threads are added with
    /// [`OooEngine::add_thread`].
    ///
    /// `cycles_per_us` converts µs-scale stall durations to cycles (clock
    /// dependent: 3400 at 3.4GHz).
    #[must_use]
    pub fn new(cfg: CoreConfig, policy: FetchPolicy, cycles_per_us: f64) -> Self {
        Self {
            cfg,
            policy,
            partition: None,
            elfen: false,
            runahead: false,
            runahead_until: 0,
            runahead_replay: VecDeque::new(),
            runahead_poisoned: [false; REG_FILE_SIZE],
            threads: Vec::new(),
            predictor: Tournament::table1(),
            btb: Btb::table1(),
            // The PRF holds one thread's architectural state; the rest renames.
            // Extra threads' architectural registers are provisioned
            // separately (§II-B experiment protocol), so the rename pool stays
            // fixed as thread count scales.
            rename_free: cfg.prf_entries.saturating_sub(crate::op::ARCH_REGS),
            rr_next: 0,
            next_order: 0,
            cycles_per_us,
            mispredict_penalty: 12,
            l1_hit: 3,
            stats: EngineStats::default(),
            tracer: Tracer::disabled(),
            issue_scratch: Vec::with_capacity(cfg.iq_entries),
            fetch_blocked_scratch: Vec::new(),
        }
    }

    /// Attaches a tracer for µs-stall and request lifecycle events.
    /// Tracing consumes no RNG draws; a disabled tracer costs one branch.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Enables the SMT+ storage partition.
    pub fn set_partition(&mut self, partition: SmtPartition) {
        self.partition = Some(partition);
    }

    /// Enables Elfen-style lane borrowing \[45\]: batch threads may fetch only
    /// while the latency-critical thread is napping (no request in flight),
    /// and voluntarily stop the moment it wakes.
    pub fn set_elfen(&mut self, elfen: bool) {
        self.elfen = elfen;
    }

    /// Enables runahead execution \[53\] (extension): while the single thread
    /// is blocked on a µs-scale remote access, the front-end keeps fetching
    /// *pseudo-retired* future instructions that warm the caches and
    /// predictors but retire nothing; on resume they replay for real. The
    /// paper's §II point — that this cannot recover µs-scale holes — is
    /// directly measurable.
    ///
    /// # Panics
    ///
    /// Panics if more than one thread has been added (runahead is a
    /// single-thread mechanism).
    pub fn set_runahead(&mut self, runahead: bool) {
        assert!(
            self.threads.len() <= 1,
            "runahead applies to single-thread cores"
        );
        self.runahead = runahead;
    }

    /// Adds a hardware thread running `stream`; returns its thread id.
    pub fn add_thread(&mut self, stream: Box<dyn InstructionStream>, class: ThreadClass) -> usize {
        self.threads
            .push(ThreadCtx::new(stream, class, self.cfg.rob_entries));
        self.threads.len() - 1
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Mutable access to counters (the dyad controller drains latencies).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// If the primary thread (0) is idle, returns the cycle its next request
    /// arrives. Under Elfen, batch threads fetch only while it naps.
    #[must_use]
    pub fn primary_idle_until(&self, now: u64) -> Option<u64> {
        let t = self.threads.first()?;
        (t.idle_until > now && t.drained()).then_some(t.idle_until)
    }

    /// If the primary thread is blocked on an outstanding µs-scale remote
    /// access and has no other issuable work, returns the remote's completion
    /// cycle. This is the morph trigger for stall-induced holes.
    #[must_use]
    pub fn primary_stalled_on_remote(&self, now: u64) -> Option<u64> {
        let t = self.threads.first()?;
        let mut latest_remote: Option<u64> = None;
        for e in &t.rob {
            match (&e.op, e.issued) {
                (Op::RemoteLoad { .. }, true) if e.complete > now => {
                    latest_remote = Some(latest_remote.map_or(e.complete, |c| c.max(e.complete)));
                }
                _ => {
                    if e.issued && e.complete > now {
                        return None; // other work still executing
                    }
                    if !e.issued && t.operands_ready(e, now) {
                        return None; // issuable work remains
                    }
                }
            }
        }
        latest_remote
    }

    /// Blocks fetch of the primary thread until `cycle` (morph controller:
    /// master-thread resume penalty, §III-B4).
    pub fn block_primary_fetch_until(&mut self, cycle: u64) {
        if let Some(t) = self.threads.first_mut() {
            t.fetch_blocked_until = t.fetch_blocked_until.max(cycle);
        }
    }

    /// True once every thread has permanently finished and drained.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.threads.iter().all(|t| t.done && t.drained())
    }

    /// Earliest cycle `t >= from` at which [`OooEngine::step`] could change
    /// architectural state: a commit, an issue, a fetch/dispatch (including
    /// any `stream.next` call, which may draw RNG), or runahead activity.
    ///
    /// `Some(from)` means "not quiescent — step every cycle". `Some(t)` with
    /// `t > from` guarantees that stepping cycles `from..t` would only bump
    /// the cycle/idle counters (no RNG draws, no retirement), so a caller
    /// may fold them arithmetically with [`OooEngine::skip_quiescent`] and
    /// resume stepping at `t`. `None` means no future step can ever act
    /// (e.g. every thread is done and drained).
    ///
    /// The probe calls the stepper's own rules rather than restating them:
    /// commit and wake-up, the runahead entry gate, fetch eligibility with
    /// the primary-napping predicate ([`OooEngine::primary_idle_until`]),
    /// and the storage limits and dispatch gates.
    #[must_use]
    pub fn next_event_cycle(&self, from: u64) -> Option<u64> {
        if self.threads.is_empty() {
            return None;
        }
        // Runahead pseudo-execution draws RNG from the stream: never skip
        // while it is active, nor when this cycle's entry check would fire.
        // (`primary_stalled_on_remote` is frozen over a quiescent span and
        // the entry gate only weakens as `now` grows, so "would not enter
        // at `from`" extends to the whole span.)
        if self.runahead && (self.runahead_until != 0 || self.runahead_entry(from).is_some()) {
            return Some(from);
        }

        let mut best: Option<u64> = None;
        let bump = |best: &mut Option<u64>, t: u64| {
            *best = Some(best.map_or(t, |b| b.min(t)));
        };

        let window = self.cfg.iq_entries;
        for t in &self.threads {
            // Commit: the in-order front retires the moment it completes.
            if t.rob.front().is_some_and(|front| front.complete_by(from)) {
                return Some(from);
            }
            let mut scanned = 0usize;
            for e in &t.rob {
                if e.issued {
                    // A future completion wakes dependants and unblocks the
                    // commit front.
                    if e.complete > from {
                        bump(&mut best, e.complete);
                    }
                    continue;
                }
                // Only the first `window` un-issued entries are scanned by
                // `issue`; deeper entries cannot act until the window moves
                // (a commit/issue event).
                if scanned < window {
                    scanned += 1;
                    if t.operands_ready(e, from) {
                        return Some(from); // would issue this cycle
                    }
                }
            }
        }

        // Fetch: the eligibility `select_thread` applies, then the gates
        // `fetch_dispatch` applies. A thread without a resume cycle, or held
        // by a gate, frees only at a commit, issue or primary-thread event,
        // and those are already bumped above. An eligible thread with an
        // empty buffer refills it (a replay pop or `stream.next`).
        let napping = self.primary_idle_until(from).is_some();
        let full = self.window_full();
        let (rob_lim, iq_lim, lq_lim, sq_lim) = self.thread_limits();
        for (tid, t) in self.threads.iter().enumerate() {
            let Some(resume) = self.fetch_resume(tid, napping) else {
                continue;
            };
            if resume > from {
                bump(&mut best, resume);
            } else if !full
                && !self.thread_full(tid, rob_lim, iq_lim)
                && t.pending
                    .is_none_or(|op| self.may_dispatch(tid, &op, lq_lim, sq_lim))
            {
                return Some(from);
            }
        }
        best
    }

    /// Folds `count` provably quiescent cycles starting at `from` into the
    /// counters, exactly as if [`OooEngine::step`] had been called for each
    /// of `from..from + count`: total cycles, the all-threads-idle counter,
    /// and the round-robin pointer. Callers must only pass spans vouched for
    /// by [`OooEngine::next_event_cycle`].
    pub fn skip_quiescent(&mut self, from: u64, count: u64) {
        self.stats.cycles += count;
        let n = self.threads.len() as u64;
        if n == 0 {
            return;
        }
        // Over a quiescent span the drained shape is frozen, so `step`
        // counts an idle cycle for each `now` before the first wake-up.
        if let Some(wake) = self.all_idle_until() {
            self.stats.idle_cycles += wake.saturating_sub(from).min(count);
        }
        self.rr_next = ((self.rr_next as u64 + count % n) % n) as usize;
    }

    /// Advances the engine by one cycle against `mem`.
    pub fn step(&mut self, now: u64, mem: &mut MemSys, rng: &mut SimRng) {
        self.stats.cycles += 1;
        self.commit(now);
        self.issue(now, mem);
        self.fetch_dispatch(now, mem, rng);
        if self.runahead {
            self.runahead_step(now, mem, rng);
        }
        if self.all_idle_until().is_some_and(|wake| wake > now) {
            self.stats.idle_cycles += 1;
        }
    }

    /// The idle-cycle rule: if every thread is drained and not done, the
    /// earliest cycle one of them has work again. A cycle before it counts
    /// as idle.
    fn all_idle_until(&self) -> Option<u64> {
        if !self.threads.iter().all(|t| !t.done && t.drained()) {
            return None;
        }
        self.threads.iter().map(|t| t.idle_until).min()
    }

    /// The cycle thread `tid` may next fetch: once both its fetch block and
    /// its idle period have lifted. `None` while only an issue or a
    /// primary-thread event can free it: it is done, it awaits a
    /// mispredicted branch, or it is an Elfen batch thread and the primary
    /// thread is not `napping` (lane borrowing).
    fn fetch_resume(&self, tid: usize, napping: bool) -> Option<u64> {
        let t = &self.threads[tid];
        let elfen_gated = self.elfen && t.class == ThreadClass::Secondary && !napping;
        (!t.done && !t.awaiting_branch && !elfen_gated)
            .then(|| t.fetch_blocked_until.max(t.idle_until))
    }

    /// Whether the shared ROB or issue queue is full, which stops fetch
    /// for every thread.
    fn window_full(&self) -> bool {
        let rob: usize = self.threads.iter().map(|t| t.rob.len()).sum();
        let iq: usize = self.threads.iter().map(|t| t.unissued).sum();
        rob >= self.cfg.rob_entries || iq >= self.cfg.iq_entries
    }

    /// Each thread's ROB, IQ, LQ and SQ limits. Plain SMT statically
    /// partitions storage across threads (gem5's default SMT policy), which
    /// keeps one stalled thread from clogging the shared window. SMT+
    /// instead caps the co-runners' share in `may_dispatch`,
    /// and a single-threaded core gets everything.
    fn thread_limits(&self) -> (usize, usize, usize, usize) {
        let c = &self.cfg;
        let n = self.threads.len();
        if self.partition.is_some() || n <= 1 {
            (c.rob_entries, c.iq_entries, c.lq_entries, c.sq_entries)
        } else {
            (
                c.rob_entries.div_ceil(n).max(4),
                c.iq_entries.div_ceil(n).max(2),
                c.lq_entries.div_ceil(n).max(1),
                c.sq_entries.div_ceil(n).max(1),
            )
        }
    }

    /// Whether thread `tid` holds its ROB or IQ limit.
    fn thread_full(&self, tid: usize, rob_lim: usize, iq_lim: usize) -> bool {
        let t = &self.threads[tid];
        t.rob.len() >= rob_lim || t.unissued >= iq_lim
    }

    /// Whether thread `tid` may dispatch its buffered `op`: a load needs a
    /// free LQ entry and a store a free SQ entry, both in the shared queue
    /// and under the thread's limit; a destination needs a free rename
    /// register; and under SMT+ the co-runners must stay below their share
    /// of the ROB, LQ and SQ.
    fn may_dispatch(&self, tid: usize, op: &MicroOp, lq_lim: usize, sq_lim: usize) -> bool {
        let t = &self.threads[tid];
        let held = |co_runners_only: bool, used: fn(&ThreadCtx) -> usize| -> usize {
            self.threads
                .iter()
                .filter(|t| !co_runners_only || t.class == ThreadClass::Secondary)
                .map(used)
                .sum()
        };
        let within_share = |used: fn(&ThreadCtx) -> usize, entries: usize| match self.partition {
            Some(p) if t.class == ThreadClass::Secondary => {
                held(true, used) < (((entries as f64) * p.secondary_share) as usize).max(1)
            }
            _ => true,
        };
        let queue_free = |used: fn(&ThreadCtx) -> usize, entries: usize, lim: usize| {
            held(false, used) < entries.max(1) && used(t) < lim && within_share(used, entries)
        };
        (!op.op.is_load() || queue_free(|t| t.lq_used, self.cfg.lq_entries, lq_lim))
            && (!op.op.is_store() || queue_free(|t| t.sq_used, self.cfg.sq_entries, sq_lim))
            && (op.dst.is_none() || self.rename_free > 0)
            && within_share(|t| t.rob.len(), self.cfg.rob_entries)
    }

    /// The runahead entry gate: the primary thread is stalled on a remote
    /// access that resolves more than 200 cycles after `now` (runahead is
    /// not worth entering for sub-100ns stalls). Returns the resume cycle.
    fn runahead_entry(&self, now: u64) -> Option<u64> {
        self.primary_stalled_on_remote(now)
            .filter(|&resume| resume > now + 200)
    }

    fn commit(&mut self, now: u64) {
        let mut slots = self.cfg.width;
        let n = self.threads.len();
        for i in 0..n {
            let tid = (self.rr_next + i) % n;
            let t = &mut self.threads[tid];
            while slots > 0 {
                if !t.rob.front().is_some_and(|front| front.complete_by(now)) {
                    break;
                }
                let e = t.rob.pop_front().expect("front exists");
                t.base_seq += 1;
                slots -= 1;
                if e.dst {
                    self.rename_free += 1;
                }
                if e.op.is_load() {
                    t.lq_used -= 1;
                }
                if e.op.is_store() {
                    t.sq_used -= 1;
                }
                match t.class {
                    ThreadClass::Primary => self.stats.retired_primary += 1,
                    ThreadClass::Secondary => self.stats.retired_secondary += 1,
                }
                if let Some(arrival) = e.end_of_request {
                    let latency = now.saturating_sub(arrival) + 1;
                    self.stats.request_latencies_cycles.push(latency);
                    self.tracer
                        .emit(|| TraceEvent::RequestArrive { at: arrival });
                    // A decoded trace may carry any arrival, even one past
                    // `now`: saturate rather than overflow.
                    self.tracer.emit(|| TraceEvent::RequestComplete {
                        at: arrival.saturating_add(latency),
                        latency,
                    });
                }
                // Clear stale scoreboard pointers to retired producers.
                for sb in t.scoreboard.iter_mut() {
                    if *sb == Some(e.seq) {
                        *sb = None;
                    }
                }
            }
        }
    }

    fn issue(&mut self, now: u64, mem: &mut MemSys) {
        // Gather ready, un-issued entries from each thread's window into the
        // engine's reusable scratch buffer: (order, is_secondary, tid, idx).
        let mut cands = std::mem::take(&mut self.issue_scratch);
        cands.clear();
        let window = self.cfg.iq_entries;
        for (tid, t) in self.threads.iter().enumerate() {
            let mut scanned = 0;
            for (idx, e) in t.rob.iter().enumerate() {
                if e.issued {
                    continue;
                }
                scanned += 1;
                if scanned > window {
                    break;
                }
                if t.operands_ready(e, now) {
                    cands.push((e.order, t.class == ThreadClass::Secondary, tid, idx));
                }
            }
        }
        // Age order; under SMT+ the primary thread's ops go first.
        if self.partition.is_some() {
            cands.sort_unstable_by_key(|&(order, sec, _, _)| (sec, order));
        } else {
            cands.sort_unstable_by_key(|&(order, _, _, _)| order);
        }

        let mut slots = self.cfg.width;
        let mut mem_slots = 2usize;
        for &(_, _, tid, idx) in &cands {
            if slots == 0 {
                break;
            }
            let is_mem = {
                let e = &self.threads[tid].rob[idx];
                matches!(e.op, Op::Load { .. } | Op::Store { .. })
            };
            if is_mem && mem_slots == 0 {
                continue;
            }
            let thread_class = self.threads[tid].class;
            let (complete, mispredicted) = {
                let e = &self.threads[tid].rob[idx];
                let complete = match e.op {
                    Op::Load { addr } => {
                        let lat = mem.data_access(addr, AccessKind::Read).max(1);
                        if thread_class == ThreadClass::Primary {
                            self.stats.primary_loads += 1;
                            if lat > self.l1_hit {
                                self.stats.primary_load_l1_misses += 1;
                            }
                        }
                        now + lat
                    }
                    Op::Store { addr } => {
                        mem.data_access(addr, AccessKind::Write);
                        now + 1
                    }
                    Op::RemoteLoad { latency_us } => {
                        let done = now.saturating_add(
                            (latency_us * self.cycles_per_us).round().max(1.0) as u64,
                        );
                        let tag = if thread_class == ThreadClass::Primary {
                            ThreadTag::Master
                        } else {
                            ThreadTag::Filler
                        };
                        self.tracer.emit(|| TraceEvent::StallBegin { at: now, tag });
                        self.tracer.emit(|| TraceEvent::StallEnd { at: done, tag });
                        done
                    }
                    ref op => now + op.exec_latency(),
                };
                (complete, e.mispredicted)
            };
            let t = &mut self.threads[tid];
            let e = &mut t.rob[idx];
            if matches!(e.op, Op::RemoteLoad { .. }) {
                self.stats.remote_ops += 1;
            }
            e.issued = true;
            e.complete = complete;
            t.unissued -= 1;
            if mispredicted {
                t.fetch_blocked_until = t
                    .fetch_blocked_until
                    .max(complete + self.mispredict_penalty);
                t.awaiting_branch = false;
            }
            slots -= 1;
            if is_mem {
                mem_slots -= 1;
            }
        }
        self.issue_scratch = cands;
    }

    fn fetch_dispatch(&mut self, now: u64, mem: &mut MemSys, rng: &mut SimRng) {
        let (rob_lim, iq_lim, lq_lim, sq_lim) = self.thread_limits();
        let mut slots = self.cfg.width;
        let mut blocked_this_cycle = std::mem::take(&mut self.fetch_blocked_scratch);
        blocked_this_cycle.clear();
        blocked_this_cycle.resize(self.threads.len(), false);

        while slots > 0 && !self.window_full() {
            let Some(tid) = self.select_thread(now, &blocked_this_cycle) else {
                break;
            };
            if self.thread_full(tid, rob_lim, iq_lim) {
                blocked_this_cycle[tid] = true;
                continue;
            }

            // Fill the one-op pending buffer (replaying any instructions the
            // runahead front-end already consumed from the stream).
            if self.threads[tid].pending.is_none() {
                if let Some(op) = self.runahead_replay.pop_front() {
                    self.threads[tid].pending = Some(op);
                }
            }
            if self.threads[tid].pending.is_none() {
                match self.threads[tid].stream.next(now, rng) {
                    Fetched::Op(op) => self.threads[tid].pending = Some(op),
                    Fetched::IdleUntil(c) => {
                        self.threads[tid].idle_until = c;
                        blocked_this_cycle[tid] = true;
                        continue;
                    }
                    Fetched::Done => {
                        self.threads[tid].done = true;
                        continue;
                    }
                }
            }

            let op = self.threads[tid].pending.expect("just filled");
            if !self.may_dispatch(tid, &op, lq_lim, sq_lim) {
                blocked_this_cycle[tid] = true;
                continue;
            }

            // Dispatch.
            self.threads[tid].pending = None;
            self.dispatch_op(tid, op, now, mem);
            slots -= 1;
        }
        self.rr_next = (self.rr_next + 1) % self.threads.len().max(1);
        self.fetch_blocked_scratch = blocked_this_cycle;
    }

    /// One cycle of runahead: if the (single) thread is blocked on a remote
    /// access, pseudo-execute future instructions for their prefetch and
    /// predictor-training side effects only.
    fn runahead_step(&mut self, now: u64, mem: &mut MemSys, rng: &mut SimRng) {
        const MAX_RUNAHEAD_OPS: usize = 16_384;
        if self.runahead_until == 0 {
            let Some(resume) = self.runahead_entry(now) else {
                return;
            };
            self.runahead_until = resume;
            self.runahead_poisoned = [false; REG_FILE_SIZE];
            // Poison the destinations of the outstanding remote loads: real
            // runahead cannot prefetch through the missing data.
            if let Some(t) = self.threads.first() {
                for e in &t.rob {
                    if matches!(e.op, Op::RemoteLoad { .. }) && e.issued && e.complete > now {
                        // The dst registers are tracked via the scoreboard;
                        // poison every register whose last writer is a
                        // still-flying entry.
                        for (reg, writer) in t.scoreboard.iter().enumerate() {
                            if *writer == Some(e.seq) {
                                self.runahead_poisoned[reg] = true;
                            }
                        }
                    }
                }
            }
        }
        if now >= self.runahead_until {
            self.runahead_until = 0;
            return;
        }
        if self.runahead_replay.len() >= MAX_RUNAHEAD_OPS {
            return; // runahead window exhausted
        }
        // Pseudo-execute up to `width` future ops; at most one prefetch per
        // cycle (miss-bandwidth limited).
        let mut prefetched = false;
        for _ in 0..self.cfg.width {
            let Some(t) = self.threads.first_mut() else {
                return;
            };
            // Never speculate into a request that has not been dispatched
            // yet: in an open system it has not even arrived (§II — runahead
            // cannot fill idle periods, only the tail of the current one).
            if t.stream.at_request_boundary() {
                self.runahead_until = 0;
                return;
            }
            let op = match t.stream.next(now, rng) {
                Fetched::Op(op) => op,
                Fetched::IdleUntil(_) | Fetched::Done => return, // cannot run ahead into idleness
            };
            self.runahead_replay.push_back(op);
            if op.end_of_request.is_some() {
                self.runahead_until = 0;
                return;
            }
            // Propagate poison through register dataflow.
            let poisoned_src = op
                .srcs
                .iter()
                .any(|&r| r != NO_REG && self.runahead_poisoned[r as usize]);
            if let Some(dst) = op.dst {
                self.runahead_poisoned[dst as usize] =
                    poisoned_src || matches!(op.op, Op::RemoteLoad { .. });
            }
            match op.op {
                Op::Load { addr } if !poisoned_src && !prefetched => {
                    mem.data_access(addr, AccessKind::Read);
                    prefetched = true;
                }
                Op::Branch { taken, .. } => {
                    // Train the direction predictor on the real outcome.
                    self.predictor.update(op.pc, taken);
                }
                _ => {}
            }
            // Touch the instruction line.
            mem.inst_fetch(op.pc);
        }
    }

    fn select_thread(&self, now: u64, blocked: &[bool]) -> Option<usize> {
        let napping = self.primary_idle_until(now).is_some();
        let eligible = |tid: usize| {
            !blocked[tid]
                && self
                    .fetch_resume(tid, napping)
                    .is_some_and(|resume| resume <= now)
        };
        match self.policy {
            FetchPolicy::Icount => (0..self.threads.len())
                .filter(|&tid| eligible(tid))
                .min_by_key(|&tid| self.threads[tid].rob.len()),
            FetchPolicy::RoundRobin => (0..self.threads.len())
                .map(|i| (self.rr_next + i) % self.threads.len())
                .find(|&tid| eligible(tid)),
            FetchPolicy::PrimaryFirst => (0..self.threads.len()).find(|&tid| eligible(tid)),
        }
    }

    fn dispatch_op(&mut self, tid: usize, op: MicroOp, now: u64, mem: &mut MemSys) {
        // Per-line instruction fetch.
        let line = op.pc >> 6;
        if line != self.threads[tid].last_line {
            let lat = mem.inst_fetch(op.pc);
            self.threads[tid].last_line = line;
            if lat > self.l1_hit {
                let t = &mut self.threads[tid];
                t.fetch_blocked_until = t.fetch_blocked_until.max(now + lat);
            }
        }

        // Branch prediction.
        let mut mispredicted = false;
        if let Op::Branch { taken, target } = op.op {
            self.stats.branches += 1;
            let predicted = self.predictor.predict(op.pc);
            self.predictor.update(op.pc, taken);
            if taken {
                if self.btb.lookup(op.pc) != Some(target) {
                    // Target unknown: one-cycle fetch bubble.
                    let t = &mut self.threads[tid];
                    t.fetch_blocked_until = t.fetch_blocked_until.max(now + 1);
                }
                self.btb.update(op.pc, target);
            }
            if predicted != taken {
                self.stats.mispredicts += 1;
                mispredicted = true;
                self.threads[tid].awaiting_branch = true;
            }
        }

        let t = &mut self.threads[tid];
        let seq = t.next_seq;
        t.next_seq += 1;
        let deps = [
            (op.srcs[0] != NO_REG)
                .then(|| t.scoreboard[op.srcs[0] as usize])
                .flatten(),
            (op.srcs[1] != NO_REG)
                .then(|| t.scoreboard[op.srcs[1] as usize])
                .flatten(),
        ];
        if let Some(dst) = op.dst {
            t.scoreboard[dst as usize] = Some(seq);
            self.rename_free -= 1;
        }
        if op.op.is_load() {
            t.lq_used += 1;
        }
        if op.op.is_store() {
            t.sq_used += 1;
        }
        t.unissued += 1;
        t.rob.push_back(Entry {
            op: op.op,
            seq,
            order: self.next_order,
            deps,
            dst: op.dst.is_some(),
            issued: false,
            complete: 0,
            mispredicted,
            end_of_request: op.end_of_request,
        });
        self.next_order += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{LoopedTrace, MicroOp, ARCH_REGS};
    use duplexity_stats::rng::rng_from_seed;
    use duplexity_uarch::config::LatencyModel;

    fn engine(policy: FetchPolicy) -> OooEngine {
        OooEngine::new(CoreConfig::baseline_ooo(), policy, 3400.0)
    }

    fn mem() -> MemSys {
        MemSys::table1(LatencyModel::default())
    }

    fn run(e: &mut OooEngine, m: &mut MemSys, cycles: u64) {
        let mut rng = rng_from_seed(1);
        for now in 0..cycles {
            e.step(now, m, &mut rng);
        }
    }

    /// Independent ALU ops: should retire ~width per cycle.
    #[test]
    fn independent_alu_saturates_width() {
        let mut e = engine(FetchPolicy::Icount);
        let ops: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp::new(i * 4, Op::IntAlu).with_dst((i % ARCH_REGS as u64) as u8))
            .collect();
        e.add_thread(Box::new(LoopedTrace::new(ops)), ThreadClass::Primary);
        let mut m = mem();
        run(&mut e, &mut m, 10_000);
        let util = e.stats().utilization(4);
        assert!(util > 0.9, "utilization {util}");
    }

    /// A serial dependency chain issues one op per cycle at best.
    #[test]
    fn dependency_chain_limits_ipc() {
        let mut e = engine(FetchPolicy::Icount);
        let ops: Vec<MicroOp> = (0..64)
            .map(|i| {
                MicroOp::new(i * 4, Op::IntAlu)
                    .with_srcs(0, NO_REG)
                    .with_dst(0)
            })
            .collect();
        e.add_thread(Box::new(LoopedTrace::new(ops)), ThreadClass::Primary);
        let mut m = mem();
        run(&mut e, &mut m, 10_000);
        let ipc = e.stats().ipc();
        assert!(ipc <= 1.05, "ipc {ipc}");
        assert!(ipc > 0.8, "ipc {ipc}");
    }

    /// µs-scale remote loads crater single-thread utilization (the killer
    /// microsecond effect, Fig. 1(a) at the core level).
    #[test]
    fn remote_loads_crater_utilization() {
        let mut e = engine(FetchPolicy::Icount);
        let mut ops: Vec<MicroOp> = (0..100)
            .map(|i| MicroOp::new(i * 4, Op::IntAlu).with_dst((i % 8) as u8))
            .collect();
        // ~1µs stall every ~100 ops: compute ~25 cycles vs stall 3400 cycles.
        ops.push(MicroOp::new(400, Op::RemoteLoad { latency_us: 1.0 }).with_dst(9));
        ops.push(
            MicroOp::new(404, Op::IntAlu)
                .with_srcs(9, NO_REG)
                .with_dst(10),
        );
        e.add_thread(Box::new(LoopedTrace::new(ops)), ThreadClass::Primary);
        let mut m = mem();
        run(&mut e, &mut m, 100_000);
        let util = e.stats().utilization(4);
        assert!(util < 0.05, "utilization {util}");
        assert!(e.stats().remote_ops > 10);
    }

    /// Two SMT threads on independent work outperform one on throughput.
    #[test]
    fn smt_increases_throughput_under_stalls() {
        let make_ops = |base: u64| -> Vec<MicroOp> {
            let mut v: Vec<MicroOp> = (0..50)
                .map(|i| {
                    MicroOp::new(base + i * 4, Op::IntAlu)
                        .with_srcs(0, NO_REG)
                        .with_dst(0)
                })
                .collect();
            // Dependent on the chain so it serializes regardless of window
            // partitioning.
            v.push(
                MicroOp::new(base + 512, Op::RemoteLoad { latency_us: 0.05 })
                    .with_srcs(0, NO_REG)
                    .with_dst(0),
            );
            v
        };
        let mut one = engine(FetchPolicy::Icount);
        one.add_thread(
            Box::new(LoopedTrace::new(make_ops(0))),
            ThreadClass::Primary,
        );
        let mut m1 = mem();
        run(&mut one, &mut m1, 50_000);

        let mut two = engine(FetchPolicy::Icount);
        two.add_thread(
            Box::new(LoopedTrace::new(make_ops(0))),
            ThreadClass::Primary,
        );
        two.add_thread(
            Box::new(LoopedTrace::new(make_ops(1 << 30))),
            ThreadClass::Secondary,
        );
        let mut m2 = mem();
        run(&mut two, &mut m2, 50_000);

        assert!(
            two.stats().retired_total() as f64 > 1.5 * one.stats().retired_total() as f64,
            "1T {} vs 2T {}",
            one.stats().retired_total(),
            two.stats().retired_total()
        );
    }

    /// SMT+ protects primary-thread IPC better than plain ICOUNT SMT.
    #[test]
    fn smt_plus_protects_primary() {
        let primary_ops: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp::new(i * 4, Op::IntAlu).with_dst((i % 8) as u8))
            .collect();
        // A memory-hog co-runner.
        let hog_ops: Vec<MicroOp> = (0..256)
            .map(|i| {
                MicroOp::new(
                    (1 << 30) + i * 4,
                    Op::Load {
                        addr: (1 << 31) + i * 4096,
                    },
                )
            })
            .collect();

        let mut smt = engine(FetchPolicy::Icount);
        smt.add_thread(
            Box::new(LoopedTrace::new(primary_ops.clone())),
            ThreadClass::Primary,
        );
        smt.add_thread(
            Box::new(LoopedTrace::new(hog_ops.clone())),
            ThreadClass::Secondary,
        );
        let mut m1 = mem();
        run(&mut smt, &mut m1, 30_000);

        let mut plus = engine(FetchPolicy::PrimaryFirst);
        plus.set_partition(SmtPartition::paper());
        plus.add_thread(
            Box::new(LoopedTrace::new(primary_ops)),
            ThreadClass::Primary,
        );
        plus.add_thread(Box::new(LoopedTrace::new(hog_ops)), ThreadClass::Secondary);
        let mut m2 = mem();
        run(&mut plus, &mut m2, 30_000);

        assert!(
            plus.stats().primary_ipc() > smt.stats().primary_ipc(),
            "SMT+ {} vs SMT {}",
            plus.stats().primary_ipc(),
            smt.stats().primary_ipc()
        );
    }

    /// Branch mispredictions cost cycles.
    #[test]
    fn mispredictions_reduce_ipc() {
        // Random branch outcomes defeat the predictor.
        #[derive(Debug)]
        struct RandomBranches;
        impl InstructionStream for RandomBranches {
            fn next(&mut self, _now: u64, rng: &mut SimRng) -> Fetched {
                use rand::RngExt;
                let taken = rng.random::<bool>();
                Fetched::Op(MicroOp::new(
                    u64::from(rng.random::<u16>()) * 4,
                    Op::Branch {
                        taken,
                        target: 0x100,
                    },
                ))
            }
        }
        let mut branchy = engine(FetchPolicy::Icount);
        branchy.add_thread(Box::new(RandomBranches), ThreadClass::Primary);
        let mut m1 = mem();
        run(&mut branchy, &mut m1, 20_000);
        assert!(branchy.stats().mispredict_rate() > 0.3);
        assert!(branchy.stats().ipc() < 1.0, "ipc {}", branchy.stats().ipc());
    }

    /// Idle streams morph-trigger cleanly and account idle cycles.
    #[test]
    fn idle_reporting() {
        #[derive(Debug)]
        struct IdleForever;
        impl InstructionStream for IdleForever {
            fn next(&mut self, now: u64, _rng: &mut SimRng) -> Fetched {
                Fetched::IdleUntil(now + 1_000_000)
            }
        }
        let mut e = engine(FetchPolicy::Icount);
        e.add_thread(Box::new(IdleForever), ThreadClass::Primary);
        let mut m = mem();
        run(&mut e, &mut m, 1000);
        assert!(e.primary_idle_until(999).is_some());
        assert!(e.stats().idle_cycles > 900);
    }

    /// `primary_stalled_on_remote` fires exactly when the window has drained.
    #[test]
    fn stall_detection() {
        let ops = vec![
            MicroOp::new(0, Op::IntAlu).with_dst(0),
            MicroOp::new(4, Op::RemoteLoad { latency_us: 10.0 })
                .with_srcs(0, NO_REG)
                .with_dst(1),
            MicroOp::new(8, Op::IntAlu).with_srcs(1, NO_REG).with_dst(2),
        ];
        let mut e = engine(FetchPolicy::Icount);
        e.add_thread(
            Box::new(crate::op::FiniteTrace::new(ops)),
            ThreadClass::Primary,
        );
        let mut m = mem();
        let mut rng = rng_from_seed(3);
        let mut detected_at = None;
        for now in 0..60_000u64 {
            e.step(now, &mut m, &mut rng);
            if detected_at.is_none() {
                if let Some(resume) = e.primary_stalled_on_remote(now) {
                    detected_at = Some((now, resume));
                }
            }
        }
        let (when, resume) = detected_at.expect("stall must be detected");
        // Cold-start I-cache/TLB misses delay the first fetch by ~220 cycles.
        assert!(when < 300, "detected at {when}");
        assert!(resume >= 34_000, "resume {resume}");
        assert!(e.all_done());
    }

    /// Request latency is recorded at retirement of the marked op.
    #[test]
    fn request_latency_recorded() {
        let mut ops: Vec<MicroOp> = (0..10).map(|i| MicroOp::new(i * 4, Op::IntAlu)).collect();
        ops.last_mut().expect("non-empty").end_of_request = Some(0);
        let mut e = engine(FetchPolicy::Icount);
        e.add_thread(
            Box::new(crate::op::FiniteTrace::new(ops)),
            ThreadClass::Primary,
        );
        let mut m = mem();
        run(&mut e, &mut m, 1000);
        assert_eq!(e.stats().request_latencies_cycles.len(), 1);
        assert!(e.stats().request_latencies_cycles[0] >= 3);
    }
}
