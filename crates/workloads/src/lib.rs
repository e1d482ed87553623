//! Workload models for the Duplexity reproduction.
//!
//! §V of the paper evaluates four latency-critical microservices and a pool
//! of latency-insensitive batch threads. Each is re-implemented here as a
//! *real algorithm* instrumented to emit micro-op traces with genuine address
//! and branch streams (see [`trace::TraceBuilder`]):
//!
//! * [`flann`] — LSH-based approximate nearest-neighbor search (FLANN-HA at
//!   ~10µs lookups, FLANN-LL at ~1µs), followed by a 1µs-average RDMA read;
//! * [`rsc`] — remote storage caching: a cuckoo-hash block index (3µs
//!   lookup), an 8µs-average Optane access via user-level polling, and a 4KB
//!   copy;
//! * [`mcrouter`] — consistent-hash routing across 100 leaf KV servers with
//!   a synchronous 3–5µs leaf wait;
//! * [`wordstem`] — the Porter stemming algorithm, a stall-free 4µs leaf
//!   service;
//! * [`graph`] — BSP PageRank and single-source shortest path over a
//!   synthetic power-law (Twitter-like) graph, the filler/batch threads
//!   (1µs RDMA stall per 1–2µs of compute, §V);
//! * [`specmix`] — SPEC-like synthetic CPU kernels with distinct ILP,
//!   locality, and branch profiles for the Figure 2(a) OoO-vs-InO study;
//! * [`service`] — the request-granularity service-time models consumed by
//!   the BigHouse-style queueing simulator.
//!
//! The [`Workload`] enum ties a microservice's trace kernel and service-time
//! model together for the experiment drivers. [`SharedInputs`] builds each
//! filler graph and FLANN index once per experiment call and hands out
//! fresh kernels and filler factories over them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flann;
pub mod graph;
pub mod mcrouter;
pub mod rsc;
pub mod service;
mod shared;
pub mod specmix;
pub mod trace;
pub mod wordstem;

pub use shared::SharedInputs;

use duplexity_cpu::op::RequestKernel;
use duplexity_net::LatencyDist;
use serde::{Deserialize, Serialize};

/// The latency-critical microservices evaluated in Figures 5 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// FLANN high-accuracy configuration: ~10µs LSH lookup + 1µs RDMA.
    FlannHa,
    /// FLANN low-latency configuration: ~1µs LSH lookup + 1µs RDMA.
    FlannLl,
    /// Remote storage caching: 3µs cuckoo lookup + 8µs Optane + 4µs copy.
    Rsc,
    /// McRouter: 3µs consistent-hash routing + 3–5µs synchronous leaf wait.
    McRouter,
    /// Porter word stemming: ~4µs pure compute, no µs-scale stalls.
    WordStem,
}

impl Workload {
    /// All microservices in presentation order.
    pub const ALL: [Workload; 5] = [
        Workload::FlannHa,
        Workload::FlannLl,
        Workload::Rsc,
        Workload::McRouter,
        Workload::WordStem,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlannHa => "FLANN-HA",
            Workload::FlannLl => "FLANN-LL",
            Workload::Rsc => "RSC",
            Workload::McRouter => "McRouter",
            Workload::WordStem => "WordStem",
        }
    }

    /// Builds the cycle-level trace kernel for this microservice.
    #[must_use]
    pub fn kernel(self, seed: u64) -> Box<dyn RequestKernel> {
        match self {
            Workload::FlannHa => Box::new(flann::FlannKernel::high_accuracy(seed)),
            Workload::FlannLl => Box::new(flann::FlannKernel::low_latency(seed)),
            Workload::Rsc => Box::new(rsc::RscKernel::new(seed)),
            Workload::McRouter => Box::new(mcrouter::McRouterKernel::new(seed)),
            Workload::WordStem => Box::new(wordstem::WordStemKernel::new(seed)),
        }
    }

    /// The request-granularity service-time model (µs) for the queueing
    /// simulator.
    #[must_use]
    pub fn service_model(self) -> service::ServiceModel {
        match self {
            Workload::FlannHa => service::ServiceModel::flann_ha(),
            Workload::FlannLl => service::ServiceModel::flann_ll(),
            Workload::Rsc => service::ServiceModel::rsc(),
            Workload::McRouter => service::ServiceModel::mcrouter(),
            Workload::WordStem => service::ServiceModel::wordstem(),
        }
    }

    /// Nominal mean service time in µs (compute + stalls), per §V.
    #[must_use]
    pub fn nominal_service_us(self) -> f64 {
        self.service_model().mean_total_us()
    }

    /// The workload's µs-scale stall leg as a `duplexity_net` latency law —
    /// the distribution the fault layer perturbs in fault-sweep
    /// experiments. Matches the stall part of [`Workload::service_model`]
    /// (a zero point mass for the stall-free WordStem).
    #[must_use]
    pub fn stall_leg(self) -> LatencyDist {
        match self {
            Workload::FlannHa | Workload::FlannLl => LatencyDist::rdma(),
            Workload::Rsc => LatencyDist::nvm(),
            Workload::McRouter => LatencyDist::rpc_leaf(),
            Workload::WordStem => LatencyDist::Deterministic { us: 0.0 },
        }
    }

    /// True if the workload incurs µs-scale stalls (WordStem does not).
    #[must_use]
    pub fn has_stalls(self) -> bool {
        !matches!(self, Workload::WordStem)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_legs_match_service_model_stall_means() {
        for w in Workload::ALL {
            let leg_mean = w.stall_leg().mean_us();
            let model_mean = w.service_model().mean_stall_us();
            assert!(
                (leg_mean - model_mean).abs() < 1e-9,
                "{w}: leg mean {leg_mean} vs model stall {model_mean}"
            );
        }
    }

    #[test]
    fn all_workloads_have_kernels_and_models() {
        for w in Workload::ALL {
            let _ = w.kernel(1);
            assert!(w.nominal_service_us() > 0.0, "{w}");
            assert!(!w.name().is_empty());
        }
    }

    #[test]
    fn stall_classification() {
        assert!(Workload::FlannHa.has_stalls());
        assert!(!Workload::WordStem.has_stalls());
    }

    #[test]
    fn nominal_services_match_paper() {
        // §V: FLANN-HA ≈ 10+1µs, FLANN-LL ≈ 1+1µs, RSC ≈ 3+8+4µs,
        // McRouter ≈ 3+4µs, WordStem ≈ 4µs.
        assert!((Workload::FlannHa.nominal_service_us() - 11.0).abs() < 1.0);
        assert!((Workload::FlannLl.nominal_service_us() - 2.0).abs() < 0.5);
        assert!((Workload::Rsc.nominal_service_us() - 15.0).abs() < 1.5);
        assert!((Workload::McRouter.nominal_service_us() - 7.0).abs() < 1.0);
        assert!((Workload::WordStem.nominal_service_us() - 4.0).abs() < 0.5);
    }
}
