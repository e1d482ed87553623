//! The injectable fault layer: drops, timeouts, retries, tied requests,
//! and degraded replicas.
//!
//! RackSched and the tail-duplication literature (see PAPERS.md) show that
//! µs-scale tails are dominated by inter-server variability and that
//! retry/duplication policy changes the tail by integer factors. A
//! [`FaultPlan`] captures those policies as data. Faults are injected only
//! in the request-domain service law: the M/G/1 queue
//! (`try_simulate_mg1_faulted`) and the experiment grids (`fault_sweep`,
//! `Fig5Options::fault`, `ClusterSweepOptions::fault`) pass each request's
//! stall leg through [`FaultPlan::sample_event`]. The cycle-level cores
//! charge every remote access the latency its micro-op carries.
//!
//! Semantics of one event under a plan (all times µs):
//!
//! 1. An **attempt** issues one leg, or two concurrent legs under the
//!    duplicate-and-race (tied-request) policy.
//! 2. Each leg first draws its raw latency, may then be **slowed** (with
//!    probability `slow_prob` its latency is multiplied by `slow_factor` —
//!    the degraded-replica mode), and may then be **dropped** (with
//!    probability `drop_prob` the response is lost).
//! 3. If any leg survives, the event completes after the fastest surviving
//!    leg; timeouts do not cut surviving legs short.
//! 4. If every leg of the attempt was dropped, the issuer waits out
//!    `timeout_us`, sleeps the bounded exponential backoff, and retries —
//!    up to `max_attempts` total attempts, after which the event is
//!    abandoned with the elapsed time charged.
//!
//! RNG discipline: each fault decision is gated on its probability being
//! strictly positive, so [`FaultPlan::none`] consumes **exactly** the draws
//! of the raw latency sample. That invariant is what keeps every pre-fault
//! golden fixture byte-identical (and is pinned by a property test).

use crate::event::{Event, EventKind};
use crate::latency::LatencyDist;
use duplexity_stats::rng::SimRng;
use rand::RngExt;

/// Why [`FaultPlan::effective_moments`] has no closed form for a plan.
///
/// The duplicate-and-race winning-leg law is only tractable when the min of
/// two i.i.d. legs stays in the same family — true for exponentials, false
/// in general. Plans outside that regime get a typed error instead of a
/// panic, so one exotic preset cannot abort a whole sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub enum MomentsError {
    /// Duplicate-and-race with a non-exponential leg law.
    NonExponentialDuplicate(LatencyDist),
    /// Duplicate-and-race combined with the slow-replica mode.
    SlowDuplicate,
}

impl std::fmt::Display for MomentsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MomentsError::NonExponentialDuplicate(leg) => write!(
                f,
                "closed-form duplicate moments require exponential legs, got {leg:?}"
            ),
            MomentsError::SlowDuplicate => {
                f.write_str("closed-form duplicate moments do not support slow replicas")
            }
        }
    }
}

impl std::error::Error for MomentsError {}

/// Timeout-and-retry policy for dropped legs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (≥ 1; 1 means no retries).
    pub max_attempts: u32,
    /// Time charged for an attempt whose every leg was dropped, µs.
    pub timeout_us: f64,
    /// Backoff before retry k+1 is `min(backoff_base_us · 2^(k-1),
    /// backoff_cap_us)`; 0 disables backoff.
    pub backoff_base_us: f64,
    /// Upper bound on a single backoff, µs.
    pub backoff_cap_us: f64,
}

impl RetryPolicy {
    /// No retries: one attempt, no timeout or backoff accounting.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            timeout_us: 0.0,
            backoff_base_us: 0.0,
            backoff_cap_us: 0.0,
        }
    }

    /// Builds a bounded-exponential-backoff retry policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`, any duration is negative or
    /// non-finite, or `backoff_cap_us < backoff_base_us`.
    #[must_use]
    pub fn new(
        max_attempts: u32,
        timeout_us: f64,
        backoff_base_us: f64,
        backoff_cap_us: f64,
    ) -> Self {
        assert!(max_attempts >= 1, "need at least one attempt");
        assert!(
            timeout_us >= 0.0 && timeout_us.is_finite(),
            "timeout must be >= 0"
        );
        assert!(
            backoff_base_us >= 0.0 && backoff_base_us.is_finite(),
            "backoff base must be >= 0"
        );
        assert!(
            backoff_cap_us >= backoff_base_us && backoff_cap_us.is_finite(),
            "backoff cap must be >= base"
        );
        Self {
            max_attempts,
            timeout_us,
            backoff_base_us,
            backoff_cap_us,
        }
    }

    /// Backoff slept after the `failed_attempts`-th consecutive failure, µs:
    /// `min(base · 2^(failed_attempts-1), cap)`.
    #[must_use]
    pub fn backoff_us(&self, failed_attempts: u32) -> f64 {
        if self.backoff_base_us <= 0.0 || failed_attempts == 0 {
            return 0.0;
        }
        let doublings = (failed_attempts - 1).min(1023);
        (self.backoff_base_us * 2.0f64.powi(doublings as i32)).min(self.backoff_cap_us)
    }
}

/// A complete fault-injection configuration for one class of events.
///
/// [`FaultPlan::none`] is the identity plan: events pass through with their
/// raw latency and no extra RNG draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a leg's response is lost.
    pub drop_prob: f64,
    /// What happens after an attempt loses every leg.
    pub retry: RetryPolicy,
    /// Duplicate-and-race: issue two legs per attempt and take the fastest
    /// surviving one (the tied-request policy).
    pub duplicate: bool,
    /// Probability that a leg lands on a degraded replica.
    pub slow_prob: f64,
    /// Latency multiplier for a degraded-replica leg (≥ 1).
    pub slow_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The identity plan: no drops, no retries, no duplication, no slow
    /// replicas.
    #[must_use]
    pub fn none() -> Self {
        Self {
            drop_prob: 0.0,
            retry: RetryPolicy::none(),
            duplicate: false,
            slow_prob: 0.0,
            slow_factor: 1.0,
        }
    }

    /// True if this plan is behaviorally the identity (events pass through
    /// untouched, with zero extra RNG draws).
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0 && !self.duplicate && self.slow_prob == 0.0
    }

    /// Returns a copy with per-leg drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        self.drop_prob = p;
        self
    }

    /// Returns a copy with the given retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns a copy with duplicate-and-race enabled.
    #[must_use]
    pub fn with_duplicate(mut self) -> Self {
        self.duplicate = true;
        self
    }

    /// Returns a copy with the degraded-replica mode configured.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]` or `factor < 1`.
    #[must_use]
    pub fn with_slow_replica(mut self, prob: f64, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "slow probability out of range");
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "slow factor must be >= 1"
        );
        self.slow_prob = prob;
        self.slow_factor = factor;
        self
    }

    /// Runs one event through the fault layer. `leg` draws one raw leg
    /// latency (µs) from the caller's RNG; it is invoked once per issued
    /// leg.
    ///
    /// See the module docs for the exact semantics. With a zero-fault plan
    /// this calls `leg` exactly once and performs no other RNG draws.
    pub fn sample_event<F: FnMut(&mut SimRng) -> f64>(
        &self,
        kind: EventKind,
        rng: &mut SimRng,
        mut leg: F,
    ) -> Event {
        let max_attempts = self.retry.max_attempts.max(1);
        let legs_per_attempt: u32 = if self.duplicate { 2 } else { 1 };
        let mut elapsed = 0.0f64;
        let mut dropped = 0u32;
        let mut slowed = 0u32;
        for attempt in 1..=max_attempts {
            let mut survivors: Vec<f64> = Vec::with_capacity(legs_per_attempt as usize);
            for _ in 0..legs_per_attempt {
                let mut l = leg(rng);
                if self.slow_prob > 0.0 && rng.random::<f64>() < self.slow_prob {
                    l *= self.slow_factor;
                    slowed += 1;
                }
                if self.drop_prob > 0.0 && rng.random::<f64>() < self.drop_prob {
                    dropped += 1;
                } else {
                    survivors.push(l);
                }
            }
            let winner = survivors.iter().copied().fold(f64::INFINITY, f64::min);
            if winner.is_finite() {
                return Event {
                    kind,
                    latency_us: elapsed + winner,
                    attempts: attempt,
                    legs_us: survivors,
                    dropped_legs: dropped,
                    slowed_legs: slowed,
                    completed: true,
                };
            }
            elapsed += self.retry.timeout_us;
            if attempt < max_attempts {
                elapsed += self.retry.backoff_us(attempt);
            }
        }
        Event {
            kind,
            latency_us: elapsed,
            attempts: max_attempts,
            legs_us: Vec::new(),
            dropped_legs: dropped,
            slowed_legs: slowed,
            completed: false,
        }
    }

    /// Closed-form mean and squared coefficient of variation of the
    /// effective event latency under this plan for legs drawn from `leg` —
    /// the service moments the Pollaczek–Khinchine cross-checks feed to
    /// [`Mg1Analytic`](https://docs.rs/duplexity-queueing).
    ///
    /// Exact enumeration over the attempt count: attempt `k` succeeds with
    /// per-attempt probability `1 - r` (where `r = drop_prob` for single
    /// legs and `drop_prob²` for duplicated legs) after accumulating the
    /// timeouts and backoffs of its `k-1` failed predecessors; after
    /// `max_attempts` failures the abandoned event charges the elapsed
    /// time.
    ///
    /// # Errors
    ///
    /// Returns a [`MomentsError`] for plans whose winning-leg law has no
    /// closed form here: duplicate-and-race requires exponential legs and
    /// no slow-replica mode (the min of two i.i.d. exponentials stays
    /// exponential; the min of arbitrary laws does not).
    pub fn effective_moments(&self, leg: &LatencyDist) -> Result<(f64, f64), MomentsError> {
        // Per-successful-attempt winning-leg moments m1, m2 and per-attempt
        // failure probability r.
        let (r, m1, m2) = if self.duplicate {
            if self.slow_prob > 0.0 {
                return Err(MomentsError::SlowDuplicate);
            }
            let m = match leg {
                LatencyDist::Exponential { mean_us } => *mean_us,
                other => return Err(MomentsError::NonExponentialDuplicate(other.clone())),
            };
            let p = self.drop_prob;
            let both = (1.0 - p) * (1.0 - p);
            let one = 2.0 * p * (1.0 - p);
            let q = both + one;
            if q == 0.0 {
                (1.0, 0.0, 0.0)
            } else {
                // Both legs survive: min of two Exp(m) = Exp(m/2), so
                // E = m/2, E² = 2(m/2)². One survivor: plain Exp(m).
                let m1 = (both * (m / 2.0) + one * m) / q;
                let m2 = (both * (m * m / 2.0) + one * 2.0 * m * m) / q;
                (p * p, m1, m2)
            }
        } else {
            let slow_m1 = 1.0 - self.slow_prob + self.slow_prob * self.slow_factor;
            let slow_m2 =
                1.0 - self.slow_prob + self.slow_prob * self.slow_factor * self.slow_factor;
            (
                self.drop_prob,
                leg.mean_us() * slow_m1,
                leg.second_moment() * slow_m2,
            )
        };
        let (et, et2) = self.attempt_moments(r, m1, m2);
        if et <= 0.0 {
            return Ok((0.0, 0.0));
        }
        Ok((et, ((et2 - et * et) / (et * et)).max(0.0)))
    }

    /// Conservative upper bound on the effective mean latency for legs with
    /// mean `leg_mean_us` — valid for *any* leg law (duplicate-and-race can
    /// only shorten the winning leg). Used as the saturation guard in
    /// experiment grids.
    #[must_use]
    pub fn effective_mean_bound_us(&self, leg_mean_us: f64) -> f64 {
        let r = if self.duplicate {
            self.drop_prob * self.drop_prob
        } else {
            self.drop_prob
        };
        let m1 = leg_mean_us * (1.0 - self.slow_prob + self.slow_prob * self.slow_factor);
        self.attempt_moments(r, m1, 0.0).0
    }

    /// First two raw moments of the event latency given per-attempt failure
    /// probability `r` and winning-leg moments `(m1, m2)`.
    fn attempt_moments(&self, r: f64, m1: f64, m2: f64) -> (f64, f64) {
        let cap = self.retry.max_attempts.max(1);
        let mut et = 0.0f64;
        let mut et2 = 0.0f64;
        let mut elapsed = 0.0f64; // timeouts + backoffs before attempt k
        let mut pk = 1.0f64; // r^(k-1)
        for k in 1..=cap {
            let w = pk * (1.0 - r);
            et += w * (elapsed + m1);
            et2 += w * (elapsed * elapsed + 2.0 * elapsed * m1 + m2);
            let failed = elapsed + self.retry.timeout_us;
            if k < cap {
                elapsed = failed + self.retry.backoff_us(k);
            } else {
                // Terminal failure after the attempt cap.
                et += pk * r * failed;
                et2 += pk * r * failed * failed;
            }
            pk *= r;
        }
        (et, et2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplexity_stats::rng::rng_from_seed;

    fn exp_leg(mean: f64) -> impl FnMut(&mut SimRng) -> f64 {
        move |rng| LatencyDist::Exponential { mean_us: mean }.sample(rng)
    }

    #[test]
    fn identity_plan_passes_latency_through() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(1);
        for _ in 0..100 {
            let raw = LatencyDist::rdma().sample(&mut a);
            let ev = plan.sample_event(EventKind::RemoteMemory, &mut b, exp_leg(1.0));
            assert_eq!(ev.latency_us, raw);
            assert_eq!(ev.attempts, 1);
            assert!(ev.completed);
        }
        // Both RNGs must be in the same state: the plan drew nothing extra.
        assert_eq!(a, b);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let r = RetryPolicy::new(8, 10.0, 2.0, 16.0);
        assert_eq!(r.backoff_us(1), 2.0);
        assert_eq!(r.backoff_us(2), 4.0);
        assert_eq!(r.backoff_us(3), 8.0);
        assert_eq!(r.backoff_us(4), 16.0);
        assert_eq!(r.backoff_us(5), 16.0);
        assert_eq!(RetryPolicy::none().backoff_us(3), 0.0);
    }

    #[test]
    fn certain_drop_exhausts_attempts_and_charges_time() {
        let plan = FaultPlan::none()
            .with_drop(0.999_999_999)
            .with_retry(RetryPolicy::new(3, 10.0, 2.0, 16.0));
        // With drop probability ~1 every leg is lost (seeded draws cannot
        // all land in the 1e-9 survival window).
        let mut rng = rng_from_seed(3);
        let ev = plan.sample_event(EventKind::Nvm, &mut rng, exp_leg(1.0));
        assert!(!ev.completed);
        assert_eq!(ev.attempts, 3);
        assert_eq!(ev.dropped_legs, 3);
        // 3 timeouts + backoffs 2 and 4 between them.
        assert_eq!(ev.latency_us, 10.0 + 2.0 + 10.0 + 4.0 + 10.0);
    }

    #[test]
    fn duplicate_takes_fastest_leg() {
        let plan = FaultPlan::none().with_duplicate();
        let mut rng = rng_from_seed(4);
        for _ in 0..200 {
            let ev = plan.sample_event(EventKind::RpcLeg, &mut rng, exp_leg(2.0));
            assert_eq!(ev.legs_us.len(), 2);
            assert_eq!(ev.latency_us, ev.legs_us[0].min(ev.legs_us[1]));
        }
    }

    #[test]
    fn slow_replica_inflates_mean() {
        let plan = FaultPlan::none().with_slow_replica(0.5, 10.0);
        let mut rng = rng_from_seed(5);
        let n = 100_000;
        let mut sum = 0.0;
        let mut slowed = 0u32;
        for _ in 0..n {
            let ev = plan.sample_event(EventKind::RemoteMemory, &mut rng, exp_leg(1.0));
            sum += ev.latency_us;
            slowed += ev.slowed_legs;
        }
        let mean = sum / f64::from(n);
        // E = 1µs * (0.5 + 0.5*10) = 5.5µs.
        assert!((mean - 5.5).abs() < 0.15, "mean {mean}");
        let frac = f64::from(slowed) / f64::from(n);
        assert!((frac - 0.5).abs() < 0.02, "slowed fraction {frac}");
    }

    #[test]
    fn effective_moments_match_simulation() {
        let plan = FaultPlan::none()
            .with_drop(0.2)
            .with_retry(RetryPolicy::new(4, 5.0, 1.0, 8.0))
            .with_slow_replica(0.1, 4.0);
        let leg = LatencyDist::Exponential { mean_us: 2.0 };
        let (mean, scv) = plan.effective_moments(&leg).unwrap();
        let mut rng = rng_from_seed(6);
        let n = 400_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let ev = plan.sample_event(EventKind::Nvm, &mut rng, |r| leg.sample(r));
            sum += ev.latency_us;
            sum2 += ev.latency_us * ev.latency_us;
        }
        let emp_mean = sum / f64::from(n);
        let emp_var = sum2 / f64::from(n) - emp_mean * emp_mean;
        let emp_scv = emp_var / (emp_mean * emp_mean);
        assert!(
            (emp_mean - mean).abs() / mean < 0.02,
            "mean sim {emp_mean} vs analytic {mean}"
        );
        assert!(
            (emp_scv - scv).abs() / scv < 0.05,
            "scv sim {emp_scv} vs analytic {scv}"
        );
    }

    #[test]
    fn duplicate_exponential_moments_match_simulation() {
        let plan = FaultPlan::none()
            .with_drop(0.3)
            .with_duplicate()
            .with_retry(RetryPolicy::new(3, 4.0, 0.5, 4.0));
        let leg = LatencyDist::Exponential { mean_us: 3.0 };
        let (mean, _) = plan.effective_moments(&leg).unwrap();
        let mut rng = rng_from_seed(7);
        let n = 400_000;
        let sum: f64 = (0..n)
            .map(|_| {
                plan.sample_event(EventKind::RpcLeg, &mut rng, |r| leg.sample(r))
                    .latency_us
            })
            .sum();
        let emp = sum / f64::from(n);
        assert!(
            (emp - mean).abs() / mean < 0.02,
            "sim {emp} vs analytic {mean}"
        );
    }

    #[test]
    fn mean_bound_dominates_true_mean() {
        let leg = LatencyDist::Exponential { mean_us: 2.0 };
        for plan in [
            FaultPlan::none(),
            FaultPlan::none()
                .with_drop(0.1)
                .with_retry(RetryPolicy::new(4, 6.0, 1.0, 8.0)),
            FaultPlan::none().with_duplicate(),
            FaultPlan::none().with_drop(0.2).with_duplicate(),
        ] {
            let bound = plan.effective_mean_bound_us(leg.mean_us());
            let (mean, _) = plan.effective_moments(&leg).unwrap();
            assert!(
                bound >= mean - 1e-12,
                "{plan:?}: bound {bound} < mean {mean}"
            );
        }
        // Identity plan: the bound is exactly the leg mean.
        assert_eq!(FaultPlan::none().effective_mean_bound_us(2.0), 2.0);
    }

    #[test]
    fn duplicate_moments_reject_non_exponential_legs_as_typed_errors() {
        // Non-exponential duplicate legs: typed error, not a panic.
        let err = FaultPlan::none()
            .with_duplicate()
            .effective_moments(&LatencyDist::rpc_leaf())
            .unwrap_err();
        assert!(matches!(err, MomentsError::NonExponentialDuplicate(_)));
        assert!(err.to_string().contains("require exponential legs"));
        // Duplicate + slow replicas: the other intractable combination.
        let err = FaultPlan::none()
            .with_duplicate()
            .with_slow_replica(0.1, 4.0)
            .effective_moments(&LatencyDist::Exponential { mean_us: 1.0 })
            .unwrap_err();
        assert_eq!(err, MomentsError::SlowDuplicate);
    }
}
