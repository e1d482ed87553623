//! Microsecond-event subsystem: deterministic, seedable sources of the
//! µs-scale events the paper is about, with an injectable fault layer.
//!
//! §II of the paper identifies the "killer microseconds": remote memory
//! reads (~1µs RDMA), fast NVM accesses (~8µs Optane), and synchronous RPC
//! fan-out legs (3–5µs leaf waits) — too long for out-of-order execution to
//! hide, too short to context-switch over. This crate gives every simulator
//! in the workspace one shared model of those events:
//!
//! * [`LatencyDist`] — pluggable event-latency distributions (exponential,
//!   lognormal, bimodal, uniform, deterministic, trace replay);
//! * [`FaultPlan`] + [`RetryPolicy`] — an injectable fault layer with
//!   per-leg drop probability, timeout + bounded exponential-backoff retry,
//!   a duplicate-and-race (tied-request) policy, and a degraded
//!   "slow replica" mode;
//! * [`Event`] / [`EventKind`] — the completed-event record the fault layer
//!   produces (winning latency, attempt count, surviving legs);
//! * [`NicModel`] — the FDR 4× InfiniBand NIC budget model used by the
//!   Figure 6 interconnect-utilization case study.
//!
//! Faults are injected only in the request-domain service law: callers
//! pass each request's stall leg through [`FaultPlan::sample_event`] inside
//! their service closure. The cycle-level cores never see a plan.
//!
//! Determinism contract: every random decision is drawn from a caller-
//! provided [`SimRng`](duplexity_stats::rng::SimRng), and a zero-fault
//! [`FaultPlan`] consumes *exactly* the RNG draws of the raw latency sample
//! — no more — so threading the fault layer through existing simulators
//! leaves their golden outputs byte-identical, and experiment grids remain
//! bit-identical under `ExecPool` at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod latency;
pub mod nic;

pub use event::{Event, EventKind};
pub use fault::{FaultPlan, MomentsError, RetryPolicy};
pub use latency::LatencyDist;
pub use nic::{ops_per_second, NicModel};
