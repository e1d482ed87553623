//! Cycle-level CPU models for the Duplexity reproduction.
//!
//! This crate plays the role gem5 plays in the paper (§V): it provides the
//! cycle-level core models whose IPC and utilization feed every efficiency
//! figure. It contains:
//!
//! * [`op`] — the micro-op trace model that workload kernels emit;
//! * [`memsys`] — a per-core memory system (TLBs, L1 I/D, LLC slice) plus the
//!   master-core's L0-filtered *remote* path into the lender-core's L1s;
//! * [`ooo`] — a 4-wide out-of-order engine with ROB/PRF/LQ/SQ/IQ occupancy
//!   limits, tournament branch prediction, and optional SMT with ICOUNT
//!   fetch and SMT+ resource partitioning;
//! * [`inorder`] — the 8-way in-order SMT engine used by lender-cores and by
//!   morphed master-cores;
//! * [`pool`] — the HSMT virtual-context run queue shared across a dyad;
//! * [`request`] — open-loop request generation (Poisson arrivals, FCFS) that
//!   turns workload kernels into master-thread instruction streams with
//!   µs-scale idle periods;
//! * [`traceio`] — trace capture and a stable binary format, supporting the
//!   paper's trace-based filler-thread methodology;
//! * [`dyad`] — the co-simulation of a master-core and lender-core, including
//!   morph transitions, state segregation, and fast filler eviction;
//! * [`designs`] — the seven evaluated server designs of §V.
//!
//! The engines are *trace-driven*: workload kernels (crate
//! `duplexity-workloads`) emit micro-ops with real address and branch
//! streams, and the engines schedule them against structural limits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod designs;
pub mod dyad;
pub mod inorder;
pub mod memsys;
pub mod metrics;
pub mod ooo;
pub mod op;
pub mod pool;
pub mod request;
pub mod traceio;

pub use designs::{run_design, Design, DesignMetrics, Scenario};
pub use dyad::DyadSim;
pub use inorder::InoEngine;
pub use memsys::{MemSys, RemotePath};
pub use metrics::{EngineStats, UarchStats};
pub use ooo::{FetchPolicy, OooEngine, SmtPartition};
pub use op::{Fetched, InstructionStream, MicroOp, Op, RequestKernel};
pub use pool::{ContextPool, VirtualContext};
pub use request::RequestStream;
pub use traceio::Trace;
