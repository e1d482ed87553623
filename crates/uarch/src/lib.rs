//! Microarchitectural building blocks for the Duplexity cycle-level simulator.
//!
//! This crate models the stateful structures whose interference (and
//! protection from interference) is the heart of the paper:
//!
//! * [`cache`] — set-associative caches with LRU replacement, including the
//!   write-through L0 I/D filters the master-core uses to access the
//!   lender-core's L1s (§III-B3), and L0/L1 inclusion with invalidation
//!   forwarding;
//! * [`tlb`] — the 64-entry I/D TLBs of Table I, replicated per mode in the
//!   master-core so filler-threads cannot thrash the master-thread's
//!   translations (§III-B2);
//! * [`branch`] — the tournament (bimodal + gshare + selector) predictor of
//!   the baseline/master core and the smaller gshare predictor of the
//!   lender-core, plus the BTB;
//! * [`config`] — the Table I microarchitecture configuration and the memory
//!   latency model.
//!
//! All structures expose both *functional* behaviour (hit/miss, taken/not
//! taken) and *occupancy statistics* so the higher-level simulator can report
//! utilization and pollution effects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod tlb;

pub use branch::{BranchPredictor, Btb, Gshare, Tournament};
pub use cache::{AccessKind, Cache, CacheConfig, CacheStats};
pub use config::{CoreConfig, LatencyModel, MachineConfig, Table1};
pub use tlb::{Tlb, TlbStats};
