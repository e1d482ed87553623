//! Fan-out ("tail at scale") modelling for mid-tier microservices.
//!
//! §I motivates mid-tier microservices that "must manage fan-out to leaf
//! nodes and wait for the responses": a request completes only when the
//! *slowest* of its `k` leaves answers, so leaf-latency tails are amplified
//! by order statistics. This module extends the paper's single-leaf McRouter
//! model with the closed-form quantiles of the max-of-`k` wait for
//! exponential leaves. For any other leaf law, sample the max of `k` draws.

/// Analytic `q`-quantile of the maximum of `k` iid exponential latencies:
/// invert `F(t)^k = q`.
///
/// # Panics
///
/// Panics if `k == 0`, `mean <= 0`, or `q` outside `(0, 1)`.
#[must_use]
pub fn exponential_fanout_quantile(mean: f64, k: usize, q: f64) -> f64 {
    assert!(k > 0 && mean > 0.0, "bad parameters");
    assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
    // F_max(t) = (1 - e^{-t/mean})^k = q  =>  t = -mean ln(1 - q^{1/k}).
    -mean * (1.0 - q.powf(1.0 / k as f64)).ln()
}

/// The tail-amplification factor of fan-out: p99-of-max over p99-of-one.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn tail_amplification(k: usize) -> f64 {
    exponential_fanout_quantile(1.0, k, 0.99) / exponential_fanout_quantile(1.0, 1, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplexity_stats::dist::{Distribution, Exponential};
    use duplexity_stats::rng::rng_from_seed;

    #[test]
    fn single_leaf_is_identity() {
        let p99 = exponential_fanout_quantile(1.0, 1, 0.99);
        assert!((p99 - 100.0_f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn quantile_matches_sampling() {
        let leaf = Exponential::new(2.0);
        let mut rng = rng_from_seed(2);
        let mut samples: Vec<f64> = (0..40_000)
            .map(|_| (0..16).map(|_| leaf.sample(&mut rng)).fold(0.0, f64::max))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99_mc = samples[(samples.len() as f64 * 0.99) as usize];
        let p99 = exponential_fanout_quantile(2.0, 16, 0.99);
        assert!((p99_mc - p99).abs() / p99 < 0.06, "mc {p99_mc} vs {p99}");
    }

    #[test]
    fn amplification_grows_with_fanout() {
        let a1 = tail_amplification(1);
        let a10 = tail_amplification(10);
        let a100 = tail_amplification(100);
        assert!((a1 - 1.0).abs() < 1e-12);
        assert!(a10 > 1.3);
        assert!(a100 > a10);
        // But sub-linearly: 100x leaves is nowhere near 100x tail.
        assert!(a100 < 3.0, "a100 {a100}");
    }
}
