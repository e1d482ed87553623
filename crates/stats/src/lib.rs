//! Statistical foundations for the Duplexity reproduction.
//!
//! This crate provides the probability distributions, streaming summary
//! statistics, quantile estimation, and confidence-interval machinery used by
//! both simulation granularities in the paper's methodology (HPCA 2019,
//! "Enhancing Server Efficiency in the Face of Killer Microseconds"):
//!
//! * the cycle-level CPU simulator draws µs-scale stall durations from
//!   [`dist`] distributions (e.g. exponential 1µs RDMA latency);
//! * the request-level queueing simulator (BigHouse methodology, §V) samples
//!   inter-arrival/service times and terminates once the 99th-percentile
//!   latency is known to within a 95%-confidence, 5%-error interval, using
//!   [`quantile`] and [`ci`];
//! * the analytic HSMT provisioning model of Figure 2(b) uses the
//!   [`binomial`] survival function.
//!
//! # Examples
//!
//! ```
//! use duplexity_stats::dist::{Distribution, Exponential};
//! use duplexity_stats::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(42);
//! let rdma = Exponential::new(1.0); // mean 1 µs
//! let stall = rdma.sample(&mut rng);
//! assert!(stall > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod ci;
pub mod dist;
pub mod histogram;
pub mod quantile;
pub mod rng;
pub mod summary;
pub mod zipf;

pub use binomial::Binomial;
pub use ci::ConfidenceInterval;
pub use dist::{
    Deterministic, Distribution, DynDistribution, Exponential, Hyperexponential, LogNormal, Uniform,
};
pub use histogram::Histogram;
pub use quantile::QuantileEstimator;
pub use rng::{rng_from_seed, SimRng};
pub use summary::Summary;
pub use zipf::Zipf;
