//! Continuous probability distributions for stall durations, service times,
//! and inter-arrival times.
//!
//! The paper's workloads are described by a small set of distribution shapes:
//! exponential stalls (RDMA, §V "single–cache-line RDMA read latency to be
//! exponentially distributed with a 1µs average"), deterministic compute
//! segments (3µs McRouter routing), and heavy-tailed service times typical of
//! cloud microservices (§II-A cites high service-time variability). All of
//! them implement [`Distribution`].

use crate::rng::SimRng;
use rand::RngExt;
use std::fmt;

/// A continuous, non-negative probability distribution that can be sampled.
///
/// Implementors must return samples in microseconds (the universal time unit
/// of the request-level simulators) or in whatever unit the caller has chosen
/// consistently; the trait itself is unit-agnostic.
pub trait Distribution: fmt::Debug + Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean.
    fn mean(&self) -> f64;

    /// The squared coefficient of variation (variance / mean²), if finite.
    ///
    /// Used by analytic M/G/1 formulas; defaults to `None` for distributions
    /// where it is unknown or infinite.
    fn scv(&self) -> Option<f64> {
        None
    }
}

/// A boxed, dynamically dispatched [`Distribution`].
pub type DynDistribution = Box<dyn Distribution>;

/// Exponential distribution with the given mean.
///
/// Idle periods of any M/G/1 queue are exponential (§II-A, Figure 1(b)), and
/// the paper models RDMA stall durations as exponential with a 1µs mean.
///
/// # Examples
///
/// ```
/// use duplexity_stats::dist::{Distribution, Exponential};
/// let d = Exponential::new(2.0);
/// assert_eq!(d.mean(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    #[must_use]
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        Self { mean }
    }

    /// Creates an exponential distribution with rate `rate` (= 1/mean).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    #[must_use]
    pub fn from_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self { mean: 1.0 / rate }
    }

    /// The rate parameter λ = 1/mean.
    #[must_use]
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }

    /// Cumulative distribution function `P(X <= x)`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-x / self.mean).exp()
        }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse-transform; 1 - u avoids ln(0).
        let u: f64 = rng.random();
        -self.mean * (1.0 - u).ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn scv(&self) -> Option<f64> {
        Some(1.0)
    }
}

/// Point mass: always returns the same value.
///
/// Models fixed compute segments such as McRouter's 3µs routing step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point-mass distribution at `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(value >= 0.0 && value.is_finite(), "value must be >= 0");
        Self { value }
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn scv(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Continuous uniform distribution on `[low, high)`.
///
/// Used for the McRouter leaf KV store's 3–5µs operation latency (§V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or either bound is negative/non-finite.
    #[must_use]
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low >= 0.0 && high.is_finite() && low < high,
            "need 0 <= low < high"
        );
        Self { low, high }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.random_range(self.low..self.high)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }

    fn scv(&self) -> Option<f64> {
        let m = self.mean();
        let var = (self.high - self.low).powi(2) / 12.0;
        Some(var / (m * m))
    }
}

/// Log-normal distribution parameterized by the mean and squared coefficient
/// of variation of the *resulting* (not underlying normal) distribution.
///
/// A standard model for service times of interactive cloud services, which
/// exhibit "high service time variability" (§II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
    mean: f64,
    scv: f64,
}

impl LogNormal {
    /// Creates a log-normal with target mean `mean` and squared coefficient of
    /// variation `scv`.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `scv <= 0`.
    #[must_use]
    pub fn from_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        assert!(scv > 0.0 && scv.is_finite(), "scv must be positive");
        let sigma2 = (1.0 + scv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self {
            mu,
            sigma: sigma2.sqrt(),
            mean,
            scv,
        }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn scv(&self) -> Option<f64> {
        Some(self.scv)
    }
}

/// Two-phase hyperexponential distribution.
///
/// With probability `p` samples from an exponential of mean `mean1`, otherwise
/// from an exponential of mean `mean2`. Produces SCV > 1 service processes —
/// the "heavy-tailed service distributions" of §II-A — while staying analytic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperexponential {
    p: f64,
    first: Exponential,
    second: Exponential,
}

impl Hyperexponential {
    /// Creates a two-phase hyperexponential.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `\[0, 1\]`.
    #[must_use]
    pub fn new(p: f64, mean1: f64, mean2: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Self {
            p,
            first: Exponential::new(mean1),
            second: Exponential::new(mean2),
        }
    }

    /// Builds a hyperexponential with the given mean and SCV using balanced
    /// means (a standard two-moment fit; requires `scv >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `scv < 1` or `mean <= 0`.
    #[must_use]
    pub fn from_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        assert!(scv >= 1.0, "hyperexponential requires scv >= 1");
        // Balanced-means fit: p1/mu1 = p2/mu2.
        let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
        let mean1 = mean / (2.0 * p);
        let mean2 = mean / (2.0 * (1.0 - p));
        Self {
            p,
            first: Exponential::new(mean1),
            second: Exponential::new(mean2),
        }
    }
}

impl Distribution for Hyperexponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if rng.random::<f64>() < self.p {
            self.first.sample(rng)
        } else {
            self.second.sample(rng)
        }
    }

    fn mean(&self) -> f64 {
        self.p * self.first.mean() + (1.0 - self.p) * self.second.mean()
    }

    fn scv(&self) -> Option<f64> {
        let m1 = self.mean();
        let m2 = self.p * 2.0 * self.first.mean().powi(2)
            + (1.0 - self.p) * 2.0 * self.second.mean().powi(2);
        Some((m2 - m1 * m1) / (m1 * m1))
    }
}

/// Samples a standard normal variate via Box–Muller.
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn sample_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::new(3.0);
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_cdf_median() {
        let d = Exponential::new(1.0);
        assert!((d.cdf(std::f64::consts::LN_2) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn exponential_from_rate() {
        let d = Exponential::from_rate(0.5);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(4.0);
        let mut rng = rng_from_seed(9);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 4.0);
        }
        assert_eq!(d.scv(), Some(0.0));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(3.0, 5.0);
        let mut rng = rng_from_seed(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((3.0..5.0).contains(&x));
        }
        assert!((sample_mean(&d, 100_000, 3) - 4.0).abs() < 0.02);
    }

    #[test]
    fn lognormal_hits_target_moments() {
        let d = LogNormal::from_mean_scv(4.0, 2.0);
        let m = sample_mean(&d, 400_000, 4);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
        assert_eq!(d.scv(), Some(2.0));
    }

    #[test]
    fn hyperexponential_two_moment_fit() {
        let d = Hyperexponential::from_mean_scv(10.0, 4.0);
        assert!((d.mean() - 10.0).abs() < 1e-9);
        assert!((d.scv().unwrap() - 4.0).abs() < 1e-9);
        let m = sample_mean(&d, 400_000, 5);
        assert!((m - 10.0).abs() < 0.25, "mean {m}");
    }
}
