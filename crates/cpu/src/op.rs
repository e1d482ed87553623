//! The micro-op trace model.
//!
//! Workload kernels emit sequences of [`MicroOp`]s with genuine address and
//! branch streams; the engines schedule them. µs-scale stall events — the
//! killer microseconds — are explicit [`Op::RemoteLoad`] micro-ops, mirroring
//! the paper's queue-pair-based, OS-transparent remote accesses whose start
//! and end the hardware can demarcate (§IV "Demarcating stalls").

use duplexity_stats::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Number of architectural general-purpose registers per thread (x86-64: 16).
pub const ARCH_REGS: usize = 16;

/// Entries in each engine's per-thread register table (readiness,
/// scoreboard, runahead poison). A micro-op's register byte indexes it
/// directly, so a valid byte is below this bound or [`NO_REG`].
pub(crate) const REG_FILE_SIZE: usize = 32;

/// The operation performed by one micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Simple integer ALU op (1-cycle).
    IntAlu,
    /// Integer multiply (3-cycle).
    IntMul,
    /// Floating point / SIMD op (4-cycle).
    FpAlu,
    /// Load from `addr` through the data path.
    Load {
        /// Virtual byte address accessed.
        addr: u64,
    },
    /// Store to `addr` through the data path.
    Store {
        /// Virtual byte address accessed.
        addr: u64,
    },
    /// Conditional branch with its resolved direction and target.
    Branch {
        /// Actual outcome (from the trace).
        taken: bool,
        /// Target address when taken.
        target: u64,
    },
    /// A µs-scale remote access (RDMA read, Optane I/O, leaf-service wait).
    /// Completion takes `latency_us` of wall-clock time; issuing it is what
    /// triggers a morph in master-core designs.
    RemoteLoad {
        /// Stall duration in microseconds.
        latency_us: f64,
    },
}

impl Op {
    /// Execution latency in cycles for non-memory ops; memory latency comes
    /// from the memory system.
    #[must_use]
    pub fn exec_latency(&self) -> u64 {
        match self {
            Op::IntAlu | Op::Branch { .. } => 1,
            Op::IntMul => 3,
            Op::FpAlu => 4,
            Op::Load { .. } | Op::Store { .. } | Op::RemoteLoad { .. } => 1,
        }
    }

    /// True for ops that occupy the load queue.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::RemoteLoad { .. })
    }

    /// True for ops that occupy the store queue.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Op::Store { .. })
    }
}

/// One micro-op of a thread's dynamic instruction trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroOp {
    /// Program counter (byte address) for I-cache and predictor indexing.
    pub pc: u64,
    /// The operation.
    pub op: Op,
    /// Source architectural registers (255 = unused slot).
    pub srcs: [u8; 2],
    /// Destination architectural register, if any.
    pub dst: Option<u8>,
    /// Set on the final micro-op of a request; carries the request's arrival
    /// cycle so the engine can record its latency at retirement.
    pub end_of_request: Option<u64>,
}

/// Sentinel for an unused source-register slot.
pub const NO_REG: u8 = 255;

impl MicroOp {
    /// Creates a micro-op with no register dependencies.
    #[must_use]
    pub fn new(pc: u64, op: Op) -> Self {
        Self {
            pc,
            op,
            srcs: [NO_REG, NO_REG],
            dst: None,
            end_of_request: None,
        }
    }

    /// Sets the source registers.
    #[must_use]
    pub fn with_srcs(mut self, a: u8, b: u8) -> Self {
        self.srcs = [a, b];
        self
    }

    /// Sets the destination register.
    #[must_use]
    pub fn with_dst(mut self, dst: u8) -> Self {
        self.dst = Some(dst);
        self
    }
}

/// What an instruction stream hands the fetch stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fetched {
    /// The next micro-op of the thread.
    Op(MicroOp),
    /// The thread has no work until the given cycle (µs-scale idle period
    /// between requests). Master-core designs morph on this.
    IdleUntil(u64),
    /// The thread has permanently finished.
    Done,
}

/// An infinite (or finite) per-thread dynamic instruction stream.
///
/// `now` is the current cycle, letting request-driven streams signal idle
/// periods; `rng` drives stochastic stall durations.
pub trait InstructionStream: Send {
    /// Produces the next fetch unit for this thread.
    fn next(&mut self, now: u64, rng: &mut SimRng) -> Fetched;

    /// True when the next op would begin a *new request* (used by runahead,
    /// which must not speculate into work that has not arrived yet).
    /// Defaults to `false` for continuous batch streams.
    fn at_request_boundary(&self) -> bool {
        false
    }
}

/// A workload kernel that generates the micro-op trace of a single request.
///
/// Implemented by the microservice models in `duplexity-workloads` (FLANN,
/// RSC, McRouter, WordStem); adapted into a master-thread stream by
/// [`crate::request::RequestStream`].
pub trait RequestKernel: Send {
    /// Appends one request's trace to `out`.
    fn generate(&mut self, rng: &mut SimRng, out: &mut Vec<MicroOp>);

    /// Mean service time in microseconds on an unloaded baseline core, used
    /// to size arrival rates. Implementations may return an a-priori estimate;
    /// experiments calibrate against simulation when needed.
    fn nominal_service_us(&self) -> f64;
}

/// Replays a fixed trace in a loop forever. Useful for tests and for
/// SPEC-like batch kernels. A loop over no ops is a finished stream: it
/// reports [`Fetched::Done`].
#[derive(Debug, Clone)]
pub struct LoopedTrace {
    ops: Vec<MicroOp>,
    pos: usize,
}

impl LoopedTrace {
    /// Creates a looping stream over `ops`.
    #[must_use]
    pub fn new(ops: Vec<MicroOp>) -> Self {
        Self { ops, pos: 0 }
    }
}

impl InstructionStream for LoopedTrace {
    fn next(&mut self, _now: u64, _rng: &mut SimRng) -> Fetched {
        let Some(&op) = self.ops.get(self.pos) else {
            return Fetched::Done;
        };
        self.pos = (self.pos + 1) % self.ops.len();
        Fetched::Op(op)
    }
}

/// A finite trace that ends with [`Fetched::Done`].
#[derive(Debug, Clone)]
pub struct FiniteTrace {
    ops: std::vec::IntoIter<MicroOp>,
}

impl FiniteTrace {
    /// Creates a one-shot stream over `ops`.
    #[must_use]
    pub fn new(ops: Vec<MicroOp>) -> Self {
        Self {
            ops: ops.into_iter(),
        }
    }
}

impl InstructionStream for FiniteTrace {
    fn next(&mut self, _now: u64, _rng: &mut SimRng) -> Fetched {
        match self.ops.next() {
            Some(op) => Fetched::Op(op),
            None => Fetched::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplexity_stats::rng::rng_from_seed;

    #[test]
    fn exec_latencies() {
        assert_eq!(Op::IntAlu.exec_latency(), 1);
        assert_eq!(Op::IntMul.exec_latency(), 3);
        assert_eq!(Op::FpAlu.exec_latency(), 4);
    }

    #[test]
    fn classification() {
        assert!(Op::Load { addr: 0 }.is_load());
        assert!(Op::RemoteLoad { latency_us: 1.0 }.is_load());
        assert!(Op::Store { addr: 0 }.is_store());
        assert!(!Op::IntAlu.is_load());
    }

    #[test]
    fn builder_methods() {
        let op = MicroOp::new(0x40, Op::IntAlu).with_srcs(1, 2).with_dst(3);
        assert_eq!(op.srcs, [1, 2]);
        assert_eq!(op.dst, Some(3));
        assert!(op.end_of_request.is_none());
    }

    #[test]
    fn looped_trace_wraps() {
        let mut rng = rng_from_seed(0);
        let mut t = LoopedTrace::new(vec![
            MicroOp::new(0, Op::IntAlu),
            MicroOp::new(4, Op::IntMul),
        ]);
        let pcs: Vec<u64> = (0..5)
            .map(|_| match t.next(0, &mut rng) {
                Fetched::Op(op) => op.pc,
                _ => panic!("looped trace never idles"),
            })
            .collect();
        assert_eq!(pcs, vec![0, 4, 0, 4, 0]);
    }

    #[test]
    fn empty_looped_trace_is_done() {
        let mut rng = rng_from_seed(0);
        let mut t = LoopedTrace::new(Vec::new());
        assert_eq!(t.next(0, &mut rng), Fetched::Done);
        assert_eq!(t.next(1, &mut rng), Fetched::Done);
    }

    #[test]
    fn finite_trace_terminates() {
        let mut rng = rng_from_seed(0);
        let mut t = FiniteTrace::new(vec![MicroOp::new(0, Op::IntAlu)]);
        assert!(matches!(t.next(0, &mut rng), Fetched::Op(_)));
        assert_eq!(t.next(0, &mut rng), Fetched::Done);
        assert_eq!(t.next(0, &mut rng), Fetched::Done);
    }
}
