//! BigHouse-style queueing simulation for the Duplexity reproduction.
//!
//! §V of the paper: "We estimate tail latencies using the BigHouse \[67\]
//! methodology. We simulate the queuing system until we achieve 95%
//! confidence intervals of 5% error in reported results. We measure IPC in
//! gem5 and use it to determine the service rate of an FCFS M/G/1 queuing
//! system. We then simulate the high-level behavior of the queue at request
//! (rather than instruction) granularity."
//!
//! * [`closed_loop`] — the Figure 1(a) closed-loop compute/stall utilization
//!   model;
//! * [`mg1`] — analytic M/G/1 results (Pollaczek–Khinchine, exponential idle
//!   periods) used for Figure 1(b) and as cross-checks;
//! * [`des`] — the discrete-event FCFS simulator (Lindley recursion) with
//!   the BigHouse confidence-interval stopping rule, producing tail
//!   latencies and idle-period distributions: one loop behind three
//!   entry points (untraced, traced, and with a fault plan), all returning
//!   `Err(`[`Unstable`]`)` on a saturated queue;
//! * [`fanout`] — closed-form quantiles of max-of-k exponential leaf
//!   waits for mid-tier fan-out scenarios ("tail at scale"), an extension
//!   beyond the paper's single-leaf McRouter model;
//! * [`cluster`] — the n-server load-balanced farm (Random / RoundRobin /
//!   JSQ / power-of-d / least-work balancers over per-server FCFS queues),
//!   scaling the single dyad to the paper's server-level results: the
//!   Lindley-loop reference, and the one request-domain event engine,
//!   whose plans compose duplication (eager duplicate-to-d, deadline
//!   hedges, purge-on-first-completion, low-priority duplicate queues)
//!   with the rack components below. Both of its front ends return one
//!   [`RequestResult`], and [`merge_replications`] pools replications of
//!   any request cell;
//! * [`eventcore`] — the future-event set behind the event engine: a
//!   total-order `(t, kind, seq)` contract with a `BinaryHeap` reference
//!   and a calendar-queue timing wheel that are bit-identical by
//!   construction (and differentially tested);
//! * [`rack`] — the two-level rack model as plan components of that
//!   engine: bounded-delay dispatch on stale queue signals (the balancer
//!   sees state as of `t − Δ`), idle-server work stealing, and centralized
//!   vs distributed dispatch planes under Zipf-skewed tenant traffic, with
//!   the Δ=0/no-steal plan bitwise identical to the hedged engine's `none`;
//! * [`mmk`] — analytic M/M/k (Erlang-C) and two-class non-preemptive
//!   priority M/M/1 cross-checks for the cluster simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_loop;
pub mod cluster;
pub mod des;
pub mod eventcore;
pub mod fanout;
pub mod mg1;
pub mod mmk;
pub mod rack;

pub use closed_loop::{closed_loop_utilization, utilization_surface};
pub use cluster::{
    merge_replications, try_simulate_cluster, try_simulate_cluster_hedged, BalancerPolicy,
    ClusterOptions, ClusterResult, DupMode, DupTally, DuplicationPolicy, RequestResult,
};
pub use eventcore::{EventKey, EventQueue, EventQueueKind, HeapEventQueue, WheelEventQueue};

pub use des::{
    try_simulate_mg1, try_simulate_mg1_faulted, try_simulate_mg1_traced, FaultTally, Mg1Options,
    Mg1Result, Unstable,
};
pub use fanout::exponential_fanout_quantile;
pub use mg1::{idle_period_cdf, mean_idle_period_us, Mg1Analytic};
pub use mmk::{Mm1PriorityAnalytic, MmkAnalytic};
pub use rack::{try_simulate_rack, Coordination, RackPlan, RackTally, StealPolicy};
