//! Cross-validation of the discrete-event simulator against the analytic
//! M/G/1 idle-period law (the Figure 1(b) foundation).

use duplexity_queueing::des::{try_simulate_mg1, Mg1Options, Mg1Result};
use duplexity_queueing::mg1::{idle_period_cdf, mean_idle_period_us, Mg1Analytic};
use duplexity_stats::dist::{Deterministic, Distribution, Exponential, Hyperexponential};
use duplexity_stats::rng::SimRng;

/// A stable run under a fixed service law.
fn simulate(lambda: f64, service: &dyn Distribution, opts: &Mg1Options) -> Mg1Result {
    let mut f = |rng: &mut SimRng| service.sample(rng);
    try_simulate_mg1(lambda, &mut f, opts).expect("stable queue")
}

fn opts(seed: u64) -> Mg1Options {
    Mg1Options {
        max_samples: 500_000,
        warmup: 2_000,
        seed,
        ..Mg1Options::default()
    }
}

/// The §II-A claim verified end to end: idle periods are exponential with
/// rate λ for three very different service distributions.
#[test]
fn idle_periods_exponential_for_any_service() {
    let lambda = 0.1; // per µs
    let services: [(&str, Box<dyn Distribution>); 3] = [
        ("M/M/1", Box::new(Exponential::new(5.0))),
        ("M/D/1", Box::new(Deterministic::new(5.0))),
        (
            "M/H2/1",
            Box::new(Hyperexponential::from_mean_scv(5.0, 6.0)),
        ),
    ];
    for (name, service) in services {
        let r = simulate(lambda, service.as_ref(), &opts(11));
        let expect = 1.0 / lambda;
        assert!(
            (r.idle.mean() - expect).abs() / expect < 0.05,
            "{name}: idle mean {} vs {expect}",
            r.idle.mean()
        );
        assert!(
            (r.idle.scv() - 1.0).abs() < 0.12,
            "{name}: idle scv {} should be ~1 (exponential)",
            r.idle.scv()
        );
    }
}

/// The simulated idle-period CDF matches the closed form at several probe
/// points (the actual Figure 1(b) series).
#[test]
fn simulated_idle_cdf_matches_analytic() {
    // A 1M QPS service (1µs mean) at 50% load.
    let q = Mg1Analytic::from_qps_load(1_000_000.0, 0.5, 1.0);
    let service = Exponential::new(q.mean_service_us);
    let r = simulate(q.lambda_per_us, &service, &opts(13));
    let cdf = r.idle_histogram.cdf();
    assert!(!cdf.is_empty());
    for (i, probe_us) in [(3usize, 1.0), (7, 2.0), (19, 5.0)] {
        // Bin i's right edge is (i+1) * 0.25µs with the 0..100µs/400-bin
        // histogram.
        let right_edge = (i as f64 + 1.0) * 0.25;
        assert!((right_edge - probe_us).abs() < 0.26, "probe alignment");
        let analytic = idle_period_cdf(1_000_000.0, 0.5, right_edge);
        assert!(
            (cdf[i] - analytic).abs() < 0.03,
            "t={right_edge}µs: sim {} vs analytic {analytic}",
            cdf[i]
        );
    }
}

/// The paper's headline idle numbers drop out of the simulation, not just
/// the formula.
#[test]
fn paper_idle_anchors_from_simulation() {
    for (qps, expect_mean) in [(200_000.0, 10.0), (1_000_000.0, 2.0)] {
        let q = Mg1Analytic::from_qps_load(qps, 0.5, 1.0);
        let service = Exponential::new(q.mean_service_us);
        let r = simulate(q.lambda_per_us, &service, &opts(17));
        assert!(
            (r.idle.mean() - expect_mean).abs() / expect_mean < 0.05,
            "{qps} QPS: idle mean {} vs {expect_mean}µs",
            r.idle.mean()
        );
        assert!(
            (mean_idle_period_us(qps, 0.5) - expect_mean).abs() < 1e-9,
            "analytic anchor"
        );
    }
}
