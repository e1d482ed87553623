//! # Duplexity
//!
//! A full-system reproduction of **"Enhancing Server Efficiency in the Face
//! of Killer Microseconds"** (Mirhosseini, Sriraman, Wenisch — HPCA 2019).
//!
//! Modern data-center events — remote memory reads, fast-storage accesses,
//! inter-request gaps in high-throughput microservices — last single-digit
//! *microseconds*: too long for out-of-order execution to hide, too short to
//! amortize an OS context switch. Duplexity's answer is the **dyad**: a
//! latency-optimized, *morphable* **master-core** paired with a
//! throughput-optimized, hierarchically multithreaded (HSMT) **lender-core**.
//! When the master-thread stalls or idles, the master-core morphs into an
//! 8-context in-order engine and *borrows* filler-threads from the lender's
//! virtual-context run queue — while keeping the master-thread's caches,
//! TLBs, predictors and registers untouched so that its tail latency
//! survives.
//!
//! This crate is the top of the workspace: it wires the cycle-level CPU
//! models (`duplexity-cpu`), workload models (`duplexity-workloads`),
//! BigHouse-style queueing (`duplexity-queueing`), the area/power model
//! (`duplexity-power`) and the NIC model (`duplexity-net`) into the paper's
//! experiments — one driver per table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use duplexity::{Design, ServerSim, Workload};
//!
//! // Simulate a Duplexity dyad serving McRouter at 50% load for 1M cycles.
//! let sim = ServerSim::new(Design::Duplexity, Workload::McRouter)
//!     .load(0.5)
//!     .horizon_cycles(1_000_000)
//!     .seed(7);
//! let m = sim.run();
//! assert!(m.utilization(4) > 0.0);
//! ```
//!
//! ## Experiment index
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Fig. 1(a) utilization surface | [`experiments::fig1::fig1a`] |
//! | Fig. 1(b) idle-period CDFs | [`experiments::fig1::fig1b`] |
//! | Fig. 1(c) SMT thread sweep | [`experiments::fig1::fig1c`] |
//! | Fig. 2(a) OoO vs InO threads | [`experiments::fig2::fig2a`] |
//! | Fig. 2(b) virtual-context model | [`experiments::fig2::fig2b`] |
//! | Table I / Table II | [`experiments::tables`] |
//! | Fig. 5(a)–(f) | [`experiments::fig5::run_fig5`] |
//! | Fig. 6 NIC utilization | [`experiments::fig6::fig6`] |
//! | Fault-policy tail sweep (extension) | [`experiments::fault_sweep::fault_sweep`] |
//! | Cluster balancing sweep (extension) | [`experiments::cluster_sweep::cluster_sweep`] |
//! | Duplication/hedging sweep (extension) | [`experiments::hedge_sweep::hedge_sweep`] |
//! | Two-level rack sweep (extension) | [`experiments::rack_sweep::rack_sweep`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellcache;
pub mod chip;
pub mod exec;
pub mod experiments;
pub mod report;
pub mod scheduler;
pub mod server;

pub use cellcache::{digest_of_digests, CellCache, CellKey, Digest, DigestWriter};
pub use chip::{simulate_chip, ChipConfig, ChipMetrics};
pub use duplexity_cpu::designs::{Design, DesignMetrics};
pub use duplexity_net::{Event, EventKind, FaultPlan, LatencyDist, RetryPolicy};
pub use duplexity_obs::{
    chrome_trace_json, PoolReport, Registry, TraceEvent, TraceLog, Tracer, WorkerLoad,
};
pub use duplexity_queueing::cluster::{BalancerPolicy, DupMode, DuplicationPolicy};
pub use duplexity_queueing::rack::{Coordination, RackPlan, StealPolicy};
pub use duplexity_workloads::Workload;
pub use exec::ExecPool;
pub use experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions, ClusterSweepPoint};
pub use experiments::fault_sweep::{
    default_policies, fault_sweep, FaultPolicy, FaultSweepOptions, FaultSweepPoint,
};
pub use experiments::fig5::{run_fig5, run_fig5_traced, Fig5Options, Fig5Run, TraceConfig};
pub use experiments::hedge_sweep::{hedge_sweep, HedgeSweepOptions, HedgeSweepPoint};
pub use experiments::rack_sweep::{rack_sweep, RackSweepOptions, RackSweepPoint};
pub use experiments::timeline::{timeline, Timeline, TimelineCell, TimelineOptions};
pub use scheduler::{recommend_contexts, ProvisionerConfig};
pub use server::ServerSim;
