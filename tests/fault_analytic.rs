//! Closed-form cross-checks of the faulted queueing path.
//!
//! Each test pits `try_simulate_mg1_faulted` against an exact analytic result —
//! the M/M/1 sojourn law, or Pollaczek–Khinchine with the fault layer's
//! [`FaultPlan::effective_moments`] — using confidence intervals from
//! `stats::ci` over independent replication means (8 seeds per point; the
//! CI over replication means is statistically sound where a single run's
//! autocorrelated samples are not). Seeds are fixed, so these tests are
//! deterministic: they either always pass or flag a real modeling drift.

use duplexity_net::{FaultPlan, LatencyDist, RetryPolicy};
use duplexity_queueing::des::{try_simulate_mg1_faulted, Mg1Options};
use duplexity_queueing::mg1::Mg1Analytic;
use duplexity_stats::ci::mean_ci;
use duplexity_stats::rng::{derive_stream, SimRng};
use duplexity_stats::summary::Summary;

const REPLICATIONS: u64 = 8;

/// Runs `REPLICATIONS` independent simulations and returns
/// (replication means of mean sojourn, replication means of p99).
fn replicate(
    lambda_per_us: f64,
    compute_us: f64,
    leg: &LatencyDist,
    plan: &FaultPlan,
) -> (Summary, Summary) {
    let mut means = Summary::new();
    let mut tails = Summary::new();
    for rep in 0..REPLICATIONS {
        let opts = Mg1Options {
            max_samples: 200_000,
            warmup: 5_000,
            // Disable the early-stopping rule: full-length replications
            // shrink both the variance and the initial-transient bias.
            max_relative_error: 0.001,
            seed: derive_stream(0xFA_C1, rep),
            ..Mg1Options::default()
        };
        let mut compute = move |_: &mut SimRng| compute_us;
        let (r, _) = try_simulate_mg1_faulted(lambda_per_us, &mut compute, leg, plan, &opts)
            .expect("stable queue");
        means.record(r.mean_sojourn_us);
        tails.record(r.tail_us);
    }
    (means, tails)
}

/// Asserts `analytic` lies within `ci` widened by a 1% allowance for the
/// simulator's initial-transient bias (the queue starts empty, so finite
/// runs underestimate the steady-state mean by O(1/n); at 200k samples the
/// deficit is ~0.4%, below the allowance but above the CI half-width).
fn assert_ci_matches(ci: &duplexity_stats::ci::ConfidenceInterval, analytic: f64, what: &str) {
    let bias = 0.01 * analytic.abs();
    assert!(
        analytic >= ci.low - bias && analytic <= ci.high + bias,
        "{what}: CI [{}, {}] (+/- {bias} bias allowance) misses analytic {analytic}",
        ci.low,
        ci.high
    );
}

/// P-K prediction for a deterministic compute plus a faulted stall whose
/// first two moments come from [`FaultPlan::effective_moments`].
fn pk_prediction(lambda_per_us: f64, compute_us: f64, leg: &LatencyDist, plan: &FaultPlan) -> f64 {
    let (m1, scv) = plan
        .effective_moments(leg)
        .expect("closed-form moments exist for these plans");
    let mean_service = compute_us + m1;
    // Deterministic compute shifts the mean but not the variance.
    let var = scv * m1 * m1;
    let a = Mg1Analytic {
        lambda_per_us,
        mean_service_us: mean_service,
        service_scv: var / (mean_service * mean_service),
    };
    a.mean_sojourn_us()
}

#[test]
fn zero_fault_mm1_tail_matches_the_exponential_sojourn_law() {
    // M/M/1 at rho = 0.5 with Exp(2) service: sojourn ~ Exp(4), so the
    // mean is 4 µs and p99 = 4 ln(100) ≈ 18.42 µs.
    let leg = LatencyDist::Exponential { mean_us: 2.0 };
    let plan = FaultPlan::none();
    let (means, tails) = replicate(0.25, 0.0, &leg, &plan);
    let analytic_mean = 2.0 / (1.0 - 0.5);
    let analytic_p99 = analytic_mean * 100.0f64.ln();

    let ci = mean_ci(&means, 0.99);
    assert_ci_matches(&ci, analytic_mean, "M/M/1 mean sojourn");
    // The P² quantile estimator carries a small bias, so the tail check
    // uses a relative tolerance on the replication mean rather than a CI.
    let rel = (tails.mean() - analytic_p99).abs() / analytic_p99;
    assert!(
        rel < 0.08,
        "M/M/1 p99: simulated {} vs analytic {analytic_p99} (rel err {rel:.3})",
        tails.mean()
    );
}

#[test]
fn dropped_legs_with_retries_match_pk_on_effective_moments() {
    // Exponential service with 10% leg drops and a timeout/backoff retry
    // loop: the folded-in timeouts make the service law non-exponential,
    // and P-K over the closed-form effective moments must still predict
    // the simulated mean sojourn.
    let leg = LatencyDist::Exponential { mean_us: 2.0 };
    let plan = FaultPlan::none()
        .with_drop(0.1)
        .with_retry(RetryPolicy::new(3, 8.0, 1.0, 4.0));
    let (m1, _) = plan
        .effective_moments(&leg)
        .expect("drop+retry over an exponential leg has closed-form moments");
    let mean_service = 1.0 + m1;
    let lambda = 0.6 / mean_service; // rho = 0.6 on the effective service
    let predicted = pk_prediction(lambda, 1.0, &leg, &plan);

    let (means, _) = replicate(lambda, 1.0, &leg, &plan);
    let ci = mean_ci(&means, 0.99);
    assert_ci_matches(&ci, predicted, "faulted P-K mean sojourn");
    // Sanity: the faults made service strictly longer than the raw leg.
    assert!(m1 > 2.0, "effective stall mean {m1} should exceed raw 2.0");
}

#[test]
fn duplicate_exponential_legs_collapse_to_mm1_at_half_the_mean() {
    // Racing two iid Exp(2) legs yields Exp(1) service exactly, so with
    // lambda = 0.5 the queue is M/M/1 at rho = 0.5: mean sojourn 2 µs.
    let leg = LatencyDist::Exponential { mean_us: 2.0 };
    let plan = FaultPlan::none().with_duplicate();
    let (m1, scv) = plan
        .effective_moments(&leg)
        .expect("duplicated exponential legs have closed-form moments");
    assert!(
        (m1 - 1.0).abs() < 1e-12,
        "min of two Exp(2) has mean 1: {m1}"
    );
    assert!((scv - 1.0).abs() < 1e-12, "Exp(1) has unit SCV: {scv}");

    let (means, _) = replicate(0.5, 0.0, &leg, &plan);
    let analytic_mean = 1.0 / (1.0 - 0.5);
    let ci = mean_ci(&means, 0.99);
    assert_ci_matches(&ci, analytic_mean, "tied-request M/M/1 mean sojourn");
}
