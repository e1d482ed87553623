//! # duplexity-obs
//!
//! A zero-RNG, deterministic observability layer for the Duplexity
//! simulators: a cycle-domain event tracer, a hierarchical counter /
//! observation registry, a log-bucketed latency sketch
//! ([`LatencySketch`]), fixed-bin event-clock time series
//! ([`TimeSeriesSet`]), self-describing run manifests ([`RunManifest`]),
//! Chrome `trace_event` + flat-metrics JSON exporters, and an
//! [`ExecPool`](PoolReport) load observer.
//!
//! ## Determinism contract
//!
//! The whole layer obeys three rules, in order of importance:
//!
//! 1. **No RNG draws, ever.** Nothing in this crate takes a random-number
//!    generator; attaching a tracer to a simulator cannot perturb its
//!    sample path, so results with tracing on are bitwise equal to results
//!    with tracing off.
//! 2. **Off by default, near-zero when off.** A disabled [`Tracer`] is a
//!    `None`; every emission site goes through [`Tracer::emit`], whose
//!    closure argument is never even constructed on the disabled path.
//!    Golden fixtures are therefore byte-identical whether or not the
//!    tracing plumbing exists.
//! 3. **Worker-count independence.** A tracer is per-cell (one simulation
//!    owns one handle); cells return their extracted [`TraceLog`]s through
//!    the pool's index-addressed slots, so the merged trace is
//!    bit-identical for any `DUPLEXITY_THREADS`. Wall-clock data
//!    ([`PoolReport`]) is *never* folded into trace or metrics artifacts —
//!    it only reaches stderr via [`log_line`].
//!
//! ## Event taxonomy
//!
//! [`TraceEvent`] covers the transients the paper's claims live in: morph
//! in/out, µs-stall begin/end (tagged master / filler / lender), filler
//! borrow/return against the HSMT context pool, request arrive/complete,
//! and the request domain's dispatch, hedge and purge instants. Faults are
//! injected only in the request-domain service law, which emits no fault
//! events; their counts live in its results. Timestamps are in the *emitter's*
//! native tick domain (cycles for the CPU simulators, nanoseconds for the
//! queueing DES); each [`TraceLog`] carries its `ticks_per_us` so the
//! Chrome exporter can place every stream on one microsecond axis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod logx;
pub mod manifest;
pub mod poolobs;
pub mod registry;
pub mod sketch;
pub mod timeseries;
pub mod trace;

pub use chrome::{chrome_trace_json, parse_trace_events, TraceParseError};
pub use logx::{log_enabled, log_line};
pub use manifest::{manifest_path, RunManifest};
pub use poolobs::{PoolReport, WorkerLoad};
pub use registry::{Observation, Registry};
pub use sketch::LatencySketch;
pub use timeseries::{Bin, TimeSeries, TimeSeriesSet};
pub use trace::{MorphTrigger, ReturnReason, ThreadTag, TraceEvent, TraceLog, Tracer};
