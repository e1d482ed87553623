//! Quantile estimation for tail-latency measurement.
//!
//! The BigHouse methodology (§V) reports the 99th-percentile latency with a
//! 95% confidence interval and stops simulating once the interval half-width
//! drops below 5% of the estimate. [`QuantileEstimator`] collects samples and
//! produces both the point estimate and the order-statistic confidence
//! interval required for that stopping rule.

use crate::ci::ConfidenceInterval;
use serde::{Deserialize, Serialize};

/// Collects samples and answers quantile queries with confidence intervals.
///
/// Samples are stored and sorted lazily; queries after large insert batches
/// cost one sort.
///
/// # Examples
///
/// ```
/// use duplexity_stats::quantile::QuantileEstimator;
///
/// let mut q = QuantileEstimator::new();
/// q.extend((1..=100).map(f64::from));
/// assert_eq!(q.quantile(0.5), Some(50.0));
/// assert_eq!(q.quantile(0.99), Some(99.0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QuantileEstimator {
    samples: Vec<f64>,
    sorted: bool,
}

impl QuantileEstimator {
    /// Creates an empty estimator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty estimator with reserved capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "quantile samples must be finite");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if no observations are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0 < q < 1) using the nearest-rank method, or `None`
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1), got {q}");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// The sample mean, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Distribution-free confidence interval for the `q`-quantile at the given
    /// confidence level, via the normal approximation to order-statistic
    /// ranks: rank ± z·√(n·q·(1−q)).
    ///
    /// Returns `None` below 8 samples. With more, the bounding ranks are
    /// clamped to `[1, n]` — at small `n` an extreme quantile's nominal
    /// rank band extends past the order statistics that exist, and the
    /// clamped interval (pinned at the sample min/max) is the honest
    /// distribution-free answer. Clamping also guards the index
    /// arithmetic: an unclamped rank of 0 used to underflow
    /// `rank as usize - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)` or `confidence` outside `(0, 1)`.
    pub fn quantile_ci(&mut self, q: f64, confidence: f64) -> Option<ConfidenceInterval> {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        let n = self.samples.len();
        if n < 8 {
            return None;
        }
        self.ensure_sorted();
        let z = crate::ci::z_value(confidence);
        let nf = n as f64;
        let center = q * nf;
        let half = z * (nf * q * (1.0 - q)).sqrt();
        let lo_rank = (center - half).floor().clamp(1.0, nf);
        let hi_rank = (center + half).ceil().clamp(1.0, nf);
        let point = self.quantile(q).expect("non-empty");
        Some(ConfidenceInterval {
            point,
            low: self.samples[lo_rank as usize - 1],
            high: self.samples[hi_rank as usize - 1],
            confidence,
        })
    }

    /// Returns the empirical CDF evaluated at `x`.
    pub fn cdf(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Consumes the estimator, returning the sorted samples.
    #[must_use]
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.ensure_sorted();
        self.samples
    }

    /// Sorts the samples ascending. Without a NaN or a −0.0 among them it
    /// sorts integer keys, which is bit for bit the comparison sort's
    /// result: [`total_order_key`] is strictly increasing over that
    /// domain, so equal keys are bit-identical samples. A −0.0 (equal to
    /// +0.0 under `partial_cmp`, so a stable sort keeps their record
    /// order) or a NaN (which panics) takes the comparison sort.
    fn ensure_sorted(&mut self) {
        if self.sorted {
            return;
        }
        if self
            .samples
            .iter()
            .all(|x| !x.is_nan() && x.to_bits() != NEG_ZERO)
        {
            for x in &mut self.samples {
                *x = f64::from_bits(total_order_key(*x));
            }
            self.samples.sort_by_key(|k| k.to_bits());
            for x in &mut self.samples {
                *x = from_total_order_key(x.to_bits());
            }
        } else {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        }
        self.sorted = true;
    }
}

const SIGN: u64 = 1 << 63;
const NEG_ZERO: u64 = (-0.0f64).to_bits();

/// The IEEE 754 total-order key of `x` as an unsigned integer: positive
/// values get the sign bit set, negative values have every bit flipped.
/// Keys compare as the values do under `total_cmp`.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// Inverse of [`total_order_key`].
#[inline]
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key & SIGN != 0 { key ^ SIGN } else { !key })
}

impl FromIterator<f64> for QuantileEstimator {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut q = QuantileEstimator::new();
        q.extend(iter);
        q
    }
}

impl Extend<f64> for QuantileEstimator {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Exponential};
    use crate::rng::rng_from_seed;

    #[test]
    fn empty_returns_none() {
        let mut q = QuantileEstimator::new();
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.mean(), None);
    }

    #[test]
    fn nearest_rank_on_small_sets() {
        let mut q: QuantileEstimator = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(q.quantile(0.5), Some(20.0));
        assert_eq!(q.quantile(0.75), Some(30.0));
        assert_eq!(q.quantile(0.76), Some(40.0));
        assert_eq!(q.quantile(0.01), Some(10.0));
    }

    #[test]
    fn p99_of_uniform_ranks() {
        let mut q: QuantileEstimator = (1..=1000).map(f64::from).collect();
        assert_eq!(q.quantile(0.99), Some(990.0));
    }

    #[test]
    fn exponential_p99_matches_analytic() {
        // p99 of Exp(mean m) = m * ln(100).
        let d = Exponential::new(1.0);
        let mut rng = rng_from_seed(42);
        let mut q = QuantileEstimator::with_capacity(200_000);
        for _ in 0..200_000 {
            q.record(d.sample(&mut rng));
        }
        let p99 = q.quantile(0.99).unwrap();
        let analytic = 100.0_f64.ln();
        assert!(
            (p99 - analytic).abs() / analytic < 0.03,
            "p99 {p99} vs {analytic}"
        );
    }

    #[test]
    fn ci_brackets_point_estimate() {
        let d = Exponential::new(1.0);
        let mut rng = rng_from_seed(7);
        let mut q = QuantileEstimator::new();
        for _ in 0..50_000 {
            q.record(d.sample(&mut rng));
        }
        let ci = q.quantile_ci(0.99, 0.95).unwrap();
        assert!(ci.low <= ci.point && ci.point <= ci.high);
        assert!(ci.relative_half_width() < 0.1);
    }

    #[test]
    fn ci_none_for_tiny_samples() {
        let mut q: QuantileEstimator = [1.0, 2.0, 3.0].into_iter().collect();
        assert!(q.quantile_ci(0.99, 0.95).is_none());
    }

    #[test]
    fn small_sample_extreme_quantile_ranks_clamp_instead_of_underflowing() {
        // Regression: at small n an extreme quantile's rank band extends
        // past the order statistics that exist. The low rank floors to ≤ 0
        // (which used to underflow `rank as usize - 1` once past the old
        // early-return) and the high rank exceeds n; both must clamp.
        let mut q: QuantileEstimator = (1..=10).map(f64::from).collect();
        // p99 at n=10: hi_rank = ceil(9.9 + 0.62) = 11 > n, clamps to max.
        let hi = q.quantile_ci(0.99, 0.95).expect("clamped CI at n=10");
        assert_eq!(hi.high, 10.0, "high rank clamps to the sample maximum");
        assert!(hi.low <= hi.point && hi.point <= hi.high);
        // p1 at n=10: lo_rank = floor(0.1 - 0.62) < 0, clamps to min —
        // the exact underflow case.
        let lo = q.quantile_ci(0.01, 0.95).expect("clamped CI at n=10");
        assert_eq!(lo.low, 1.0, "low rank clamps to the sample minimum");
        assert!(lo.low <= lo.point && lo.point <= lo.high);
        // Wide band at the minimum n: p20 at 99% confidence puts the
        // unclamped low rank at floor(1.6 - 2.91) = -2.
        let mut tiny: QuantileEstimator = (1..=8).map(f64::from).collect();
        let ci = tiny.quantile_ci(0.2, 0.99).expect("CI at n=8");
        assert_eq!(ci.low, 1.0);
        assert!(ci.low <= ci.point && ci.point <= ci.high);
    }

    #[test]
    fn large_sample_intervals_are_unaffected_by_clamping() {
        // At n where the rank band fits inside [1, n], clamping is a no-op:
        // the p99 CI of 1..=100_000 stays strictly inside the extremes.
        let mut q: QuantileEstimator = (1..=100_000).map(f64::from).collect();
        let ci = q.quantile_ci(0.99, 0.95).unwrap();
        assert!(ci.low > 1.0 && ci.high < 100_000.0);
        assert!(ci.low <= ci.point && ci.point <= ci.high);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut q: QuantileEstimator = [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().collect();
        assert_eq!(q.cdf(0.0), 0.0);
        assert_eq!(q.cdf(2.5), 0.4);
        assert_eq!(q.cdf(5.0), 1.0);
    }

    #[test]
    fn interleaved_insert_and_query() {
        let mut q = QuantileEstimator::new();
        q.record(5.0);
        assert_eq!(q.quantile(0.5), Some(5.0));
        q.record(1.0);
        q.record(9.0);
        assert_eq!(q.quantile(0.5), Some(5.0));
        assert_eq!(q.into_sorted(), vec![1.0, 5.0, 9.0]);
    }
}
