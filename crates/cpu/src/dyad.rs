//! Dyad co-simulation: a morphable master-core paired with a lender-core.
//!
//! This module implements §III's machinery end to end:
//!
//! * the **master-core** runs its latency-critical master-thread on the
//!   out-of-order engine; when the thread stalls on a µs-scale remote access
//!   or goes idle between requests, the morph controller drains the window
//!   and switches the core into 8-context in-order filler mode;
//! * **filler-threads** are borrowed from the shared [`ContextPool`] (HSMT)
//!   or, for the MorphCore baseline, are 8 dedicated threads;
//! * **state segregation** is a placement choice ([`FillerPlacement`]):
//!   fillers may thrash the master's own caches (MorphCore/MorphCore+), use
//!   fully replicated caches (Duplexity + replication), or reach the
//!   lender-core's L1s through write-through L0 filters (Duplexity);
//! * on master-thread **resume**, fillers are evicted and the master pays the
//!   spill penalty (§III-B4: ~50 cycles for Duplexity; microcode register
//!   swapping for MorphCore, modelled at 250 cycles);
//! * the **lender-core** runs continuously, multiplexing the same virtual
//!   context pool over its own 8 physical contexts.

use crate::inorder::InoEngine;
use crate::memsys::{MemSys, RemotePath};
use crate::ooo::{FetchPolicy, OooEngine, ThreadClass};
use crate::op::InstructionStream;
use crate::pool::ContextPool;
use duplexity_obs::{MorphTrigger, ThreadTag, TraceEvent, Tracer};
use duplexity_stats::rng::SimRng;
use duplexity_uarch::config::{CoreConfig, LatencyModel, MachineConfig};

/// Where filler-threads' memory accesses land while they run on the
/// master-core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillerPlacement {
    /// Fillers share the master-thread's own L1s/TLBs (MorphCore,
    /// MorphCore+): cache pollution harms the master on resume.
    MasterCaches,
    /// Fillers get a fully replicated set of L1s (Duplexity + replication):
    /// perfect isolation at a 38% core-area cost.
    ReplicatedCaches,
    /// Fillers reach the lender-core's L1s through 2KB/4KB write-through L0
    /// filters with a ~3-cycle cross-core hop (Duplexity).
    LenderCaches,
}

/// Morph-controller and topology parameters for one dyad variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DyadConfig {
    /// Virtual-context (HSMT) fillers from the pool a paired lender-core
    /// shares; `false` means 8 dedicated filler threads and no lender-core
    /// (plain MorphCore).
    pub hsmt_fillers: bool,
    /// Cache placement for fillers on the master-core.
    pub placement: FillerPlacement,
    /// Cycles to enter filler mode (drain is modelled explicitly; this is
    /// the register-load / microcode cost).
    pub morph_in_cycles: u64,
    /// Cycles the master-thread is delayed on resume (filler spill).
    pub morph_out_cycles: u64,
    /// Minimum anticipated hole size worth morphing for.
    pub min_morph_gain_cycles: u64,
    /// Cycles between a stall/idle event and the hardware recognizing it
    /// (§IV "Demarcating stalls": queue-pair recognition is immediate;
    /// mwait/hlt-style monitoring adds latency). Delays the morph, not the
    /// master's resume.
    pub stall_detection_delay: u64,
    /// Machine description for the master-core.
    pub machine: MachineConfig,
    /// HSMT context-swap latency.
    pub swap_latency: u64,
}

impl DyadConfig {
    /// MorphCore as proposed in \[49\]: 8 dedicated fillers, shared caches,
    /// microcode mode switches, no lender-core.
    #[must_use]
    pub fn morphcore() -> Self {
        Self {
            hsmt_fillers: false,
            placement: FillerPlacement::MasterCaches,
            morph_in_cycles: 250,
            morph_out_cycles: 250,
            min_morph_gain_cycles: 1000,
            stall_detection_delay: 0,
            machine: MachineConfig::master(),
            swap_latency: 64,
        }
    }

    /// MorphCore+ (design 5): MorphCore with HSMT fillers borrowed from a
    /// paired lender-core, still without cache segregation.
    #[must_use]
    pub fn morphcore_plus() -> Self {
        Self {
            hsmt_fillers: true,
            ..Self::morphcore()
        }
    }

    /// Duplexity + replication (design 6): full state replication.
    #[must_use]
    pub fn duplexity_replication() -> Self {
        Self {
            hsmt_fillers: true,
            placement: FillerPlacement::ReplicatedCaches,
            morph_in_cycles: 64,
            morph_out_cycles: LatencyModel::default().filler_eviction,
            min_morph_gain_cycles: 500,
            stall_detection_delay: 0,
            machine: MachineConfig::master(),
            swap_latency: 64,
        }
    }

    /// Duplexity (design 7): L0-filtered access to the lender's caches.
    #[must_use]
    pub fn duplexity() -> Self {
        Self {
            placement: FillerPlacement::LenderCaches,
            ..Self::duplexity_replication()
        }
    }
}

/// Why a morph was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MorphCause {
    /// The master-thread blocked on a µs-scale remote access.
    Stall,
    /// The master-thread ran out of requests (inter-request idleness).
    Idle,
}

/// One morph episode, for timeline inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MorphEvent {
    /// Cycle the morph was triggered.
    pub at: u64,
    /// Cycle the master-thread resumed (hole end + resume penalty).
    pub until: u64,
    /// What opened the hole.
    pub cause: MorphCause,
}

impl MorphEvent {
    /// Length of the filler window in cycles.
    #[must_use]
    pub fn hole_cycles(&self) -> u64 {
        self.until.saturating_sub(self.at)
    }
}

/// Per-phase (native vs. morphed) master-core accounting, maintained only
/// while a tracer is attached. Snapshots are taken at morph boundaries;
/// deltas attribute cycles, retired micro-ops, and master-cache pollution
/// (L1 + D-TLB misses) to the phase that produced them.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseAccum {
    boundary_cycle: u64,
    l1_at_boundary: u64,
    dtlb_at_boundary: u64,
    retired_at_boundary: u64,
    native_cycles: u64,
    morphed_cycles: u64,
    native_l1_misses: u64,
    morphed_l1_misses: u64,
    native_dtlb_misses: u64,
    morphed_dtlb_misses: u64,
    native_retired: u64,
    morphed_retired: u64,
}

impl PhaseAccum {
    /// Folds the window since the last boundary into the given phase and
    /// re-anchors the boundary at `now`.
    fn roll(&mut self, morphed: bool, now: u64, l1: u64, dtlb: u64, retired: u64) {
        let cycles = now.saturating_sub(self.boundary_cycle);
        let dl1 = l1.saturating_sub(self.l1_at_boundary);
        let dtlb_d = dtlb.saturating_sub(self.dtlb_at_boundary);
        let dret = retired.saturating_sub(self.retired_at_boundary);
        if morphed {
            self.morphed_cycles += cycles;
            self.morphed_l1_misses += dl1;
            self.morphed_dtlb_misses += dtlb_d;
            self.morphed_retired += dret;
        } else {
            self.native_cycles += cycles;
            self.native_l1_misses += dl1;
            self.native_dtlb_misses += dtlb_d;
            self.native_retired += dret;
        }
        self.boundary_cycle = now;
        self.l1_at_boundary = l1;
        self.dtlb_at_boundary = dtlb;
        self.retired_at_boundary = retired;
    }
}

/// Morph state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Master-thread executing on the OoO engine.
    Master,
    /// Filler-threads executing; `start` gates issue (morph-in latency),
    /// `until` is when the master resumes (stall resolution or next arrival,
    /// plus the resume penalty).
    Filler { start: u64, until: u64 },
}

/// Aggregate results of a dyad simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DyadMetrics {
    /// Wall-clock cycles simulated.
    pub wall_cycles: u64,
    /// Master-thread micro-ops retired (on the master-core).
    pub master_retired: u64,
    /// Filler micro-ops retired *on the master-core*.
    pub filler_retired_on_master: u64,
    /// Micro-ops retired on the lender-core.
    pub lender_retired: u64,
    /// Completed master request latencies, in cycles.
    pub request_latencies_cycles: Vec<u64>,
    /// Morph transitions into filler mode.
    pub morphs: u64,
    /// Cycles spent in filler mode.
    pub filler_mode_cycles: u64,
    /// µs-scale remote ops issued by the master-thread.
    pub remote_ops_master: u64,
    /// µs-scale remote ops issued by fillers and the lender.
    pub remote_ops_batch: u64,
    /// Retired micro-ops per batch virtual-context id (STP input).
    pub retired_by_ctx: Vec<u64>,
    /// Master-core microarchitectural summary (interference visibility).
    pub master_uarch: crate::metrics::UarchStats,
}

impl DyadMetrics {
    /// Master-core utilization (Fig. 5(a) metric): master + borrowed filler
    /// instructions over the master-core's peak retire bandwidth. A zero
    /// `width` yields 0 rather than a silent NaN.
    #[must_use]
    pub fn master_core_utilization(&self, width: usize) -> f64 {
        if self.wall_cycles == 0 || width == 0 {
            0.0
        } else {
            (self.master_retired + self.filler_retired_on_master) as f64
                / (self.wall_cycles as f64 * width as f64)
        }
    }
}

/// Co-simulation of one dyad (or of a standalone morphable core when
/// `hsmt_fillers` is false).
///
/// # Examples
///
/// ```
/// use duplexity_cpu::dyad::{DyadConfig, DyadSim};
/// use duplexity_cpu::op::{LoopedTrace, MicroOp, Op};
/// use duplexity_stats::rng::rng_from_seed;
///
/// let cfg = DyadConfig::duplexity();
/// // A master-thread that never stalls or idles (no morphs expected).
/// let master: Vec<MicroOp> = (0..64).map(|i| MicroOp::new(i * 4, Op::IntAlu)).collect();
/// let mut dyad = DyadSim::new(cfg, Box::new(LoopedTrace::new(master)));
/// let mut rng = rng_from_seed(3);
/// dyad.run(10_000, &mut rng);
/// assert_eq!(dyad.morphs(), 0);
/// assert!(dyad.metrics().master_retired > 0);
/// ```
pub struct DyadSim {
    cfg: DyadConfig,
    master_ooo: OooEngine,
    master_ino: InoEngine,
    lender_ino: Option<InoEngine>,
    master_mem: MemSys,
    lender_mem: MemSys,
    repl_mem: MemSys,
    remote: RemotePath,
    pool: ContextPool,
    mode: Mode,
    now: u64,
    morphs: u64,
    filler_mode_cycles: u64,
    morph_log: Vec<MorphEvent>,
    tracer: Tracer,
    phase: PhaseAccum,
}

impl std::fmt::Debug for DyadSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DyadSim")
            .field("mode", &self.mode)
            .field("now", &self.now)
            .field("morphs", &self.morphs)
            .finish()
    }
}

impl DyadSim {
    /// Builds a dyad running `master_stream` as the latency-critical thread.
    ///
    /// Batch threads are supplied afterwards with [`DyadSim::add_batch_thread`]
    /// (HSMT pool) or are pinned automatically for plain MorphCore via
    /// [`DyadSim::add_fixed_filler`].
    #[must_use]
    pub fn new(cfg: DyadConfig, master_stream: Box<dyn InstructionStream>) -> Self {
        let cycles_per_us = cfg.machine.cycles_per_us();
        let mut master_ooo = OooEngine::new(cfg.machine.core, FetchPolicy::Icount, cycles_per_us);
        master_ooo.add_thread(master_stream, ThreadClass::Primary);
        let master_ino = InoEngine::new(
            CoreConfig::lender().physical_contexts,
            cfg.machine.core.width,
            cfg.hsmt_fillers,
            cycles_per_us,
            cfg.swap_latency,
        );
        let lender_ino = cfg
            .hsmt_fillers
            .then(|| InoEngine::lender(cycles_per_us, cfg.swap_latency));
        Self {
            master_ooo,
            master_ino,
            lender_ino,
            master_mem: MemSys::table1(cfg.machine.latency),
            lender_mem: MemSys::table1(cfg.machine.latency),
            repl_mem: MemSys::table1(cfg.machine.latency),
            remote: RemotePath::new(),
            pool: ContextPool::new(),
            mode: Mode::Master,
            now: 0,
            morphs: 0,
            filler_mode_cycles: 0,
            morph_log: Vec::new(),
            tracer: Tracer::disabled(),
            phase: PhaseAccum::default(),
            cfg,
        }
    }

    /// Attaches a tracer and propagates it to every engine in the dyad: the
    /// master OoO core, the master's in-order filler mode (tagged
    /// [`ThreadTag::Filler`]) and the lender core (tagged
    /// [`ThreadTag::Lender`]). The memory systems emit no events. Tracing
    /// consumes no RNG draws and does not alter simulation results.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.master_ooo.set_tracer(tracer);
        self.master_ino.set_tracer(tracer, ThreadTag::Filler);
        if let Some(lender) = self.lender_ino.as_mut() {
            lender.set_tracer(tracer, ThreadTag::Lender);
        }
    }

    /// Adds a batch thread to the dyad's shared virtual-context pool.
    pub fn add_batch_thread(&mut self, id: usize, stream: Box<dyn InstructionStream>) {
        self.pool.add(crate::pool::VirtualContext::new(id, stream));
    }

    /// Pins a dedicated filler thread to the master-core's in-order engine
    /// (plain MorphCore only).
    ///
    /// # Panics
    ///
    /// Panics if the dyad is configured for HSMT fillers, or all 8 contexts
    /// are taken.
    pub fn add_fixed_filler(&mut self, id: usize, stream: Box<dyn InstructionStream>) {
        assert!(
            !self.cfg.hsmt_fillers,
            "fixed fillers are for plain MorphCore; use add_batch_thread"
        );
        self.master_ino.add_fixed_context(id, stream);
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of morphs so far.
    #[must_use]
    pub fn morphs(&self) -> u64 {
        self.morphs
    }

    /// The morph timeline (capped at 65 536 events).
    #[must_use]
    pub fn morph_log(&self) -> &[MorphEvent] {
        &self.morph_log
    }

    /// Advances the dyad by one cycle.
    pub fn step(&mut self, rng: &mut SimRng) {
        let now = self.now;
        // The lender-core always runs.
        if let Some(lender) = self.lender_ino.as_mut() {
            lender.step(now, &mut self.lender_mem, None, Some(&mut self.pool), rng);
        }

        match self.mode {
            Mode::Master => {
                self.master_ooo.step(now, &mut self.master_mem, rng);
                let hole = self
                    .master_ooo
                    .primary_stalled_on_remote(now)
                    .map(|end| (end, MorphCause::Stall))
                    .or_else(|| {
                        self.master_ooo
                            .primary_idle_until(now)
                            .map(|end| (end, MorphCause::Idle))
                    });
                if let Some((end, cause)) = hole {
                    if end > now.saturating_add(self.cfg.min_morph_gain_cycles) {
                        self.begin_morph(now, end, cause);
                    }
                }
            }
            Mode::Filler { start, until } => {
                if now >= until {
                    self.end_morph(now);
                    // The master restarts this same cycle.
                    self.master_ooo.step(now, &mut self.master_mem, rng);
                } else if now >= start {
                    self.filler_mode_cycles += 1;
                    let (mem, remote) = match self.cfg.placement {
                        FillerPlacement::MasterCaches => (&mut self.master_mem, None),
                        FillerPlacement::ReplicatedCaches => (&mut self.repl_mem, None),
                        FillerPlacement::LenderCaches => {
                            (&mut self.lender_mem, Some(&mut self.remote))
                        }
                    };
                    let pool = self.cfg.hsmt_fillers.then_some(&mut self.pool);
                    self.master_ino.step(now, mem, remote, pool, rng);
                }
            }
        }
        self.now += 1;
    }

    /// Earliest cycle `t >= now` at which [`DyadSim::step`] could change
    /// state. Only the master's OoO engine has a quiescence probe, so every
    /// cycle that steps an in-order engine is an event: all of them when a
    /// lender-core is present, and every cycle of an open filler window.
    /// Before the window opens the master core steps nothing, so the next
    /// event is its `start` (or `until`, if that comes first). While the
    /// master-thread runs, morph *triggers* are handled by evaluating the
    /// hole-check at `now` directly: a trigger can only newly fire when an
    /// issued op's completion passes `now`, and every future completion is
    /// already an event of the OoO probe, so mid-span firings land exactly
    /// on span boundaries.
    #[must_use]
    pub fn next_event_cycle(&self) -> Option<u64> {
        let from = self.now;
        if self.lender_ino.is_some() {
            return Some(from);
        }
        match self.mode {
            Mode::Master => {
                // The morph hole-check runs after every master step, and it
                // reads completions *at or before* `now` (a stalled front
                // with drained co-work) that the engine probe rightly treats
                // as inert — nothing can commit past the stalled head. If
                // the check would fire at `from`, that step is a state
                // change (`begin_morph`) all the same.
                let hole = self
                    .master_ooo
                    .primary_stalled_on_remote(from)
                    .or_else(|| self.master_ooo.primary_idle_until(from));
                if let Some(end) = hole {
                    if end > from.saturating_add(self.cfg.min_morph_gain_cycles) {
                        return Some(from);
                    }
                }
                self.master_ooo.next_event_cycle(from)
            }
            Mode::Filler { start, until } => Some(start.min(until).max(from)),
        }
    }

    /// Folds `count` provably quiescent cycles, mirroring
    /// [`DyadSim::step`]: the master OoO engine in [`Mode::Master`], and
    /// nothing but the clock before a filler window opens. Callers must
    /// only pass spans vouched for by [`DyadSim::next_event_cycle`].
    fn skip_quiescent(&mut self, count: u64) {
        if self.mode == Mode::Master {
            self.master_ooo.skip_quiescent(self.now, count);
        }
        self.now += count;
    }

    /// Runs until `horizon` cycles have elapsed, fast-forwarding through
    /// quiescent spans. Only a dyad without a lender-core (plain MorphCore)
    /// has any: spans where its master waits, such as µs-scale stalls too
    /// short to morph for, and the morph-in latency before a filler window
    /// opens. Bit-identical to [`DyadSim::run_naive`]: skipped cycles
    /// perform no RNG draws and retire nothing, and their cycle/idle
    /// accounting is folded arithmetically.
    pub fn run(&mut self, horizon: u64, rng: &mut SimRng) {
        // After a failed probe, back off exponentially (up to 32 cycles)
        // before probing again: probing only *when* to skip never changes
        // *what* is skipped, so results are unaffected, but busy phases
        // don't pay the probe on every cycle.
        let mut backoff: u64 = 0;
        let mut wait: u64 = 0;
        while self.now < horizon {
            self.step(rng);
            if wait > 0 {
                wait -= 1;
                continue;
            }
            let target = self.next_event_cycle().map_or(horizon, |e| e.min(horizon));
            if target > self.now {
                self.skip_quiescent(target - self.now);
                backoff = 0;
            } else {
                backoff = (backoff * 2).clamp(1, 32);
                wait = backoff;
            }
        }
    }

    /// Runs until `horizon` cycles have elapsed, stepping every cycle.
    /// Reference loop for differential tests and the perf benchmark.
    pub fn run_naive(&mut self, horizon: u64, rng: &mut SimRng) {
        while self.now < horizon {
            self.step(rng);
        }
    }

    /// Collects the simulation's aggregate metrics.
    #[must_use]
    pub fn metrics(&self) -> DyadMetrics {
        let ooo = self.master_ooo.stats();
        let ino = self.master_ino.stats();
        let lender = self.lender_ino.as_ref().map(|l| l.stats());
        let mut retired_by_ctx = self.master_ino.retired_by_ctx().to_vec();
        if let Some(l) = self.lender_ino.as_ref() {
            for (id, &r) in l.retired_by_ctx().iter().enumerate() {
                if id >= retired_by_ctx.len() {
                    retired_by_ctx.resize(id + 1, 0);
                }
                retired_by_ctx[id] += r;
            }
        }
        DyadMetrics {
            wall_cycles: self.now,
            master_retired: ooo.retired_primary,
            filler_retired_on_master: ino.retired_secondary,
            lender_retired: lender.map_or(0, |l| l.retired_secondary),
            request_latencies_cycles: ooo.request_latencies_cycles.clone(),
            morphs: self.morphs,
            filler_mode_cycles: self.filler_mode_cycles,
            remote_ops_master: ooo.remote_ops,
            remote_ops_batch: ino.remote_ops + lender.map_or(0, |l| l.remote_ops),
            retired_by_ctx,
            master_uarch: crate::metrics::UarchStats::collect(&self.master_mem, ooo),
        }
    }

    /// Collects the aggregate metrics, draining the request-latency vector
    /// instead of cloning it. Preferred by experiment harvesters that call
    /// it once at the end of a run; [`DyadSim::metrics`] stays available
    /// for mid-run snapshots.
    #[must_use]
    pub fn take_metrics(&mut self) -> DyadMetrics {
        let latencies = std::mem::take(&mut self.master_ooo.stats_mut().request_latencies_cycles);
        let mut m = self.metrics(); // clones the now-empty vector: free
        m.request_latencies_cycles = latencies;
        m
    }

    /// Completed master request latencies so far, in cycles, by reference
    /// (no clone).
    #[must_use]
    pub fn request_latencies_cycles(&self) -> &[u64] {
        &self.master_ooo.stats().request_latencies_cycles
    }

    /// Read access to the master-core's memory system (tests inspect
    /// pollution).
    #[must_use]
    pub fn master_mem(&self) -> &MemSys {
        &self.master_mem
    }

    /// Folds the window since the last phase boundary into `morphed` (the
    /// phase that is *ending*) and re-anchors at `now`. No-op without a
    /// tracer, so the untraced hot path pays nothing.
    fn roll_phase(&mut self, morphed: bool, now: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        let l1 = self.master_mem.l1_misses();
        let dtlb = self.master_mem.dtlb.stats().misses;
        let retired =
            self.master_ooo.stats().retired_primary + self.master_ino.stats().retired_secondary;
        self.phase.roll(morphed, now, l1, dtlb, retired);
    }

    /// Writes the dyad's aggregate counters — morph count, per-phase
    /// (native vs. morphed) cycles, retired micro-ops, and master-cache
    /// pollution — into the attached tracer's registry. Call once after the
    /// simulation completes; no-op without a tracer.
    pub fn flush_trace_registry(&self) {
        if !self.tracer.is_enabled() {
            return;
        }
        // Close the currently open phase into a local copy.
        let mut p = self.phase;
        let morphed_now = matches!(self.mode, Mode::Filler { .. });
        p.roll(
            morphed_now,
            self.now,
            self.master_mem.l1_misses(),
            self.master_mem.dtlb.stats().misses,
            self.master_ooo.stats().retired_primary + self.master_ino.stats().retired_secondary,
        );
        self.tracer.count("dyad/morphs", self.morphs);
        self.tracer
            .count("dyad/filler_mode_cycles", self.filler_mode_cycles);
        self.tracer
            .count("dyad/phase/native/cycles", p.native_cycles);
        self.tracer
            .count("dyad/phase/morphed/cycles", p.morphed_cycles);
        self.tracer
            .count("dyad/phase/native/retired", p.native_retired);
        self.tracer
            .count("dyad/phase/morphed/retired", p.morphed_retired);
        self.tracer
            .count("dyad/phase/native/l1_misses", p.native_l1_misses);
        self.tracer
            .count("dyad/phase/morphed/l1_misses", p.morphed_l1_misses);
        self.tracer
            .count("dyad/phase/native/dtlb_misses", p.native_dtlb_misses);
        self.tracer
            .count("dyad/phase/morphed/dtlb_misses", p.morphed_dtlb_misses);
        if p.native_cycles > 0 {
            self.tracer.observe(
                "dyad/phase/native/ipc",
                p.native_retired as f64 / p.native_cycles as f64,
            );
        }
        if p.morphed_cycles > 0 {
            self.tracer.observe(
                "dyad/phase/morphed/ipc",
                p.morphed_retired as f64 / p.morphed_cycles as f64,
            );
        }
    }

    fn begin_morph(&mut self, now: u64, hole_end: u64, cause: MorphCause) {
        const MORPH_LOG_CAP: usize = 65_536;
        self.morphs += 1;
        let until = hole_end.saturating_add(self.cfg.morph_out_cycles);
        if self.morph_log.len() < MORPH_LOG_CAP {
            self.morph_log.push(MorphEvent {
                at: now,
                until,
                cause,
            });
        }
        let trigger = match cause {
            MorphCause::Stall => MorphTrigger::Stall,
            MorphCause::Idle => MorphTrigger::Idle,
        };
        self.tracer.emit(|| TraceEvent::MorphIn {
            at: now,
            cause: trigger,
        });
        self.tracer.observe(
            "dyad/morph/hole_cycles",
            hole_end.saturating_sub(now) as f64,
        );
        self.roll_phase(false, now);
        self.mode = Mode::Filler {
            start: now + self.cfg.stall_detection_delay + self.cfg.morph_in_cycles,
            until,
        };
    }

    fn end_morph(&mut self, now: u64) {
        self.tracer.emit(|| TraceEvent::MorphOut { at: now });
        self.roll_phase(true, now);
        if self.cfg.hsmt_fillers {
            self.master_ino.evict_all(now, &mut self.pool);
        } else {
            // Dedicated fillers stay resident but are paused; squash their
            // in-flight front-end state.
            self.master_ino.squash_frontend();
        }
        if self.cfg.placement == FillerPlacement::LenderCaches {
            // The write-through L0s are discardable at any time (§III-B4).
            self.remote.discard();
        }
        // The resume penalty was folded into `until`; fetch resumes now.
        self.master_ooo.block_primary_fetch_until(now);
        self.mode = Mode::Master;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Fetched, LoopedTrace, MicroOp, Op, RequestKernel, NO_REG};
    use crate::request::RequestStream;
    use duplexity_stats::rng::rng_from_seed;

    /// A kernel with ~0.6µs of serial compute then a 2µs remote access.
    #[derive(Debug)]
    struct StallingKernel;
    impl RequestKernel for StallingKernel {
        fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
            for i in 0..2000u64 {
                out.push(
                    MicroOp::new(i * 4, Op::IntAlu)
                        .with_srcs(0, NO_REG)
                        .with_dst(0),
                );
            }
            out.push(MicroOp::new(9000, Op::RemoteLoad { latency_us: 2.0 }).with_dst(1));
            out.push(
                MicroOp::new(9004, Op::IntAlu)
                    .with_srcs(1, NO_REG)
                    .with_dst(2),
            );
        }
        fn nominal_service_us(&self) -> f64 {
            2.6
        }
    }

    fn filler_stream(id: usize) -> Box<dyn InstructionStream> {
        // Batch thread: dependency chain + occasional 1µs remote stall.
        let base = 0x100_0000 * (id as u64 + 1);
        let mut ops: Vec<MicroOp> = (0..800)
            .map(|i| {
                MicroOp::new(base + i * 4, Op::IntAlu)
                    .with_srcs(0, NO_REG)
                    .with_dst(0)
            })
            .collect();
        ops.push(MicroOp::new(base + 4000, Op::RemoteLoad { latency_us: 1.0 }).with_dst(0));
        Box::new(LoopedTrace::new(ops))
    }

    fn make_dyad(cfg: DyadConfig, load: f64) -> DyadSim {
        let master = RequestStream::open_loop(
            Box::new(StallingKernel),
            load,
            StallingKernel.nominal_service_us(),
            cfg.machine.cycles_per_us(),
        );
        let mut dyad = DyadSim::new(cfg, Box::new(master));
        if cfg.hsmt_fillers {
            for id in 0..32 {
                dyad.add_batch_thread(id, filler_stream(id));
            }
        } else {
            for id in 0..8 {
                dyad.add_fixed_filler(id, filler_stream(id));
            }
        }
        dyad
    }

    #[test]
    fn duplexity_morphs_and_fills_holes() {
        let mut dyad = make_dyad(DyadConfig::duplexity(), 0.5);
        let mut rng = rng_from_seed(42);
        dyad.run(2_000_000, &mut rng);
        let m = dyad.metrics();
        assert!(m.morphs > 10, "morphs {}", m.morphs);
        assert!(m.filler_retired_on_master > 0);
        assert!(m.master_retired > 0);
        assert!(!m.request_latencies_cycles.is_empty());
        // Utilization with fillers beats the master-thread alone by a lot.
        let util = m.master_core_utilization(4);
        let solo = m.master_retired as f64 / (m.wall_cycles as f64 * 4.0);
        assert!(util > 2.0 * solo, "util {util} solo {solo}");
    }

    #[test]
    fn duplexity_protects_master_cache_state() {
        // Count master L1-D misses with fillers in lender caches vs fillers
        // in master caches (MorphCore+ placement).
        let run_one = |cfg: DyadConfig| {
            let mut dyad = make_dyad(cfg, 0.5);
            let mut rng = rng_from_seed(7);
            dyad.run(2_000_000, &mut rng);
            let misses = dyad.master_mem().l1_misses();
            let requests = dyad.metrics().request_latencies_cycles.len() as f64;
            misses as f64 / requests.max(1.0)
        };
        let duplexity = run_one(DyadConfig::duplexity());
        let morphcore_plus = run_one(DyadConfig::morphcore_plus());
        assert!(
            morphcore_plus > 1.5 * duplexity,
            "morphcore+ {morphcore_plus} vs duplexity {duplexity} misses/request"
        );
    }

    #[test]
    fn duplexity_latency_near_baseline() {
        // Request latency under Duplexity stays close to a no-filler run of
        // the same stream (the ≤19% tail inflation claim, §VII).
        let mean = |lat: &[u64]| lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;

        let cfg = DyadConfig::duplexity();
        let mut base_cfg = cfg;
        base_cfg.min_morph_gain_cycles = u64::MAX; // never morphs: pure baseline
        let mut baseline = make_dyad(base_cfg, 0.5);
        let mut rng = rng_from_seed(11);
        baseline.run(3_000_000, &mut rng);
        let base_lat = mean(&baseline.metrics().request_latencies_cycles);

        let mut dup = make_dyad(cfg, 0.5);
        let mut rng = rng_from_seed(11);
        dup.run(3_000_000, &mut rng);
        let dup_lat = mean(&dup.metrics().request_latencies_cycles);

        assert!(
            dup_lat < 1.35 * base_lat,
            "duplexity {dup_lat} vs baseline {base_lat} mean latency"
        );
    }

    #[test]
    fn morphcore_runs_dedicated_fillers() {
        let mut dyad = make_dyad(DyadConfig::morphcore(), 0.5);
        let mut rng = rng_from_seed(13);
        dyad.run(1_000_000, &mut rng);
        let m = dyad.metrics();
        assert!(m.morphs > 0);
        assert!(m.filler_retired_on_master > 0);
        assert_eq!(m.lender_retired, 0, "plain MorphCore has no lender");
    }

    #[test]
    fn lender_core_contributes_throughput() {
        let mut dyad = make_dyad(DyadConfig::duplexity(), 0.5);
        let mut rng = rng_from_seed(17);
        dyad.run(500_000, &mut rng);
        let m = dyad.metrics();
        assert!(m.lender_retired > 0);
        // Many distinct batch contexts made progress.
        let active = m.retired_by_ctx.iter().filter(|&&r| r > 0).count();
        assert!(active >= 8, "active contexts {active}");
    }

    #[test]
    fn replication_beats_duplexity_on_raw_utilization() {
        // Fig. 5(a): Duplexity always achieves slightly lower utilization
        // than Duplexity + replication (shared lender-cache pressure).
        let run_util = |cfg: DyadConfig| {
            let mut dyad = make_dyad(cfg, 0.5);
            let mut rng = rng_from_seed(19);
            dyad.run(2_000_000, &mut rng);
            dyad.metrics().master_core_utilization(4)
        };
        let repl = run_util(DyadConfig::duplexity_replication());
        let dup = run_util(DyadConfig::duplexity());
        assert!(repl >= dup * 0.98, "repl {repl} dup {dup}");
    }

    #[test]
    fn no_morph_below_min_gain() {
        #[derive(Debug)]
        struct TinyStall;
        impl RequestKernel for TinyStall {
            fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
                out.push(MicroOp::new(0, Op::RemoteLoad { latency_us: 0.01 }).with_dst(0));
                out.push(MicroOp::new(4, Op::IntAlu).with_srcs(0, NO_REG));
            }
            fn nominal_service_us(&self) -> f64 {
                0.02
            }
        }
        let cfg = DyadConfig::duplexity();
        let master = RequestStream::saturated(Box::new(TinyStall));
        let mut dyad = DyadSim::new(cfg, Box::new(master));
        for id in 0..8 {
            dyad.add_batch_thread(id, filler_stream(id));
        }
        let mut rng = rng_from_seed(23);
        dyad.run(100_000, &mut rng);
        assert_eq!(dyad.morphs(), 0, "34-cycle stalls must not trigger morphs");
    }

    #[test]
    fn idle_morph_triggers_without_stalls() {
        // WordStem-like kernel: pure compute, morphs only on idleness.
        #[derive(Debug)]
        struct ComputeOnly;
        impl RequestKernel for ComputeOnly {
            fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
                for i in 0..4000u64 {
                    out.push(
                        MicroOp::new(i * 4, Op::IntAlu)
                            .with_srcs(0, NO_REG)
                            .with_dst(0),
                    );
                }
            }
            fn nominal_service_us(&self) -> f64 {
                1.2
            }
        }
        let cfg = DyadConfig::duplexity();
        let master =
            RequestStream::open_loop(Box::new(ComputeOnly), 0.3, 1.2, cfg.machine.cycles_per_us());
        let mut dyad = DyadSim::new(cfg, Box::new(master));
        for id in 0..32 {
            dyad.add_batch_thread(id, filler_stream(id));
        }
        let mut rng = rng_from_seed(29);
        dyad.run(2_000_000, &mut rng);
        let m = dyad.metrics();
        assert!(m.morphs > 5, "morphs {}", m.morphs);
        assert_eq!(m.remote_ops_master, 0);
        assert!(m.filler_retired_on_master > 0);
    }

    /// Fetched-stream sanity: the master stream in a dyad still terminates
    /// cleanly when capped.
    #[test]
    fn capped_master_stream_finishes() {
        let cfg = DyadConfig::duplexity();
        let master = RequestStream::open_loop(
            Box::new(StallingKernel),
            0.5,
            2.6,
            cfg.machine.cycles_per_us(),
        )
        .with_max_requests(5);
        let mut dyad = DyadSim::new(cfg, Box::new(master));
        for id in 0..16 {
            dyad.add_batch_thread(id, filler_stream(id));
        }
        let mut rng = rng_from_seed(31);
        dyad.run(1_500_000, &mut rng);
        assert_eq!(dyad.metrics().request_latencies_cycles.len(), 5);
    }

    #[test]
    fn fetched_is_public_api() {
        // Compile-time check that Fetched round-trips through the trait.
        let mut s = LoopedTrace::new(vec![MicroOp::new(0, Op::IntAlu)]);
        let mut rng = rng_from_seed(1);
        assert!(matches!(
            crate::op::InstructionStream::next(&mut s, 0, &mut rng),
            Fetched::Op(_)
        ));
    }
}
