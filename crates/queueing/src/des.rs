//! Discrete-event M/G/1 FCFS simulation with BigHouse stopping.
//!
//! A single-server FCFS queue admits the Lindley recursion
//! `W(n+1) = max(0, W(n) + S(n) - A(n+1))`, which lets us simulate millions
//! of requests per second of host time while recording exactly what the
//! paper's methodology needs: per-request sojourn times (for the
//! 99th-percentile tail), idle-period durations (Figure 1(b)), and server
//! utilization. Simulation stops once the p99's 95% confidence interval is
//! within 5% relative error (§V), or at the sample cap.

use duplexity_net::{trace_fault_events, EventKind, FaultPlan, LatencyDist};
use duplexity_obs::{TraceEvent, Tracer};
use duplexity_stats::ci::ConfidenceInterval;
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::histogram::Histogram;
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{draw_batch, rng_from_seed, SimRng};
use duplexity_stats::summary::Summary;

/// Typed instability verdict: the pilot service-mean estimate implies an
/// offered load at or past 1, so the queue has no steady state to report.
///
/// Experiment drivers treat this as a *saturated cell* (rendered as `sat` /
/// `inf`), not a crash: one hopeless grid point must never abort a
/// multi-cell sweep, which probes loads arbitrarily close to ρ → 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unstable {
    /// The pilot estimate of the offered load ρ (≥ 1).
    pub rho_estimate: f64,
}

impl std::fmt::Display for Unstable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "offered load {:.3} >= 1: the queue is unstable",
            self.rho_estimate
        )
    }
}

impl std::error::Error for Unstable {}

/// Simulation control parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mg1Options {
    /// Target quantile (the paper reports p99).
    pub quantile: f64,
    /// Confidence level for the stopping rule (0.95).
    pub confidence: f64,
    /// Maximum relative CI half-width before stopping (0.05).
    pub max_relative_error: f64,
    /// Requests discarded as warm-up before measuring.
    pub warmup: usize,
    /// Hard cap on measured requests.
    pub max_samples: usize,
    /// Convergence is checked every this many samples.
    pub check_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Mg1Options {
    fn default() -> Self {
        Self {
            quantile: 0.99,
            confidence: 0.95,
            max_relative_error: 0.05,
            warmup: 5_000,
            max_samples: 2_000_000,
            check_every: 20_000,
            seed: 0xB16_0915,
        }
    }
}

/// Results of one M/G/1 simulation.
#[derive(Debug, Clone)]
pub struct Mg1Result {
    /// The target quantile of sojourn time, µs.
    pub tail_us: f64,
    /// Confidence interval around [`Mg1Result::tail_us`], if computable.
    pub tail_ci: Option<ConfidenceInterval>,
    /// Mean sojourn time, µs.
    pub mean_sojourn_us: f64,
    /// Median sojourn time, µs.
    pub p50_us: f64,
    /// Server utilization (busy fraction).
    pub utilization: f64,
    /// Sojourn-time statistics, µs (mean/variance/count feed the
    /// [`mean_ci`](duplexity_stats::ci::mean_ci) cross-checks).
    pub sojourn: Summary,
    /// Idle-period statistics, µs.
    pub idle: Summary,
    /// Idle-period histogram (for CDF plots), µs.
    pub idle_histogram: Histogram,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the cap.
    pub converged: bool,
}

/// DES traces are stamped in nanosecond ticks: one simulated microsecond is
/// 1000 trace ticks, so sub-µs waits stay visible after rounding.
const DES_TICKS_PER_US: f64 = 1000.0;

/// Converts a simulated-µs timestamp to the DES trace-tick domain.
fn ns_ticks(us: f64) -> u64 {
    (us * DES_TICKS_PER_US).round().max(0.0) as u64
}

/// Core Lindley-recursion loop shared by the traced and untraced entry
/// points. `service` receives the current request's absolute arrival time
/// (simulated µs since the run began; `0.0` during the pilot) so fault
/// layers can stamp trace events in the same clock domain as the request
/// events emitted here.
///
/// Determinism contract: the tracer never touches the RNG. The arrival
/// clock is a pure-arithmetic accumulator over the same interarrival draws
/// the recursion already consumes, so enabling tracing cannot perturb the
/// sample path.
fn simulate_mg1_inner(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng, f64) -> f64,
    opts: &Mg1Options,
    tracer: &Tracer,
) -> Result<Mg1Result, Unstable> {
    assert!(lambda_per_us > 0.0, "arrival rate must be positive");
    tracer.set_ticks_per_us(DES_TICKS_PER_US);
    let traced = tracer.is_enabled();
    let mut rng = rng_from_seed(opts.seed);
    let interarrival = Exponential::from_rate(lambda_per_us);

    // Pilot: estimate the mean service time to reject unstable inputs
    // early. One batched pass — bitwise the same stream as 512 sequential
    // draws (`draw_batch` is defined as the sequential loop).
    let mut pilot_buf = Vec::new();
    draw_batch(&mut rng, 512, &mut pilot_buf, |r| service(r, 0.0));
    let pilot: f64 = pilot_buf.iter().sum::<f64>() / 512.0;
    let rho_estimate = lambda_per_us * pilot;
    if rho_estimate >= 1.0 {
        return Err(Unstable { rho_estimate });
    }

    let mut wait = 0.0f64; // W(n)
    let mut sojourns = QuantileEstimator::with_capacity(opts.max_samples.min(1 << 20));
    let mut sojourn_sum = Summary::new();
    let mut idle = Summary::new();
    let mut idle_hist = Histogram::new(0.0, 100.0, 400);
    let mut busy_time = 0.0f64;
    let mut clock = 0.0f64;
    let mut converged = false;
    // Absolute arrival time of the current request, over *all* requests
    // (warm-up included) so trace timestamps share one monotone clock.
    let mut arrive_clock = 0.0f64;

    let total = opts.warmup + opts.max_samples;
    for n in 0..total {
        let s = service(&mut rng, arrive_clock);
        let measured = n >= opts.warmup;
        if measured {
            sojourns.record(wait + s);
            sojourn_sum.record(wait + s);
            busy_time += s;
            if traced {
                let at = ns_ticks(arrive_clock);
                let done = ns_ticks(arrive_clock + wait + s);
                tracer.emit(|| TraceEvent::RequestArrive { at });
                tracer.emit(|| TraceEvent::RequestComplete {
                    at: done,
                    latency: done.saturating_sub(at),
                });
                tracer.count("des/requests", 1);
                tracer.observe("des/sojourn_us", wait + s);
            }
        }
        let a = interarrival.sample(&mut rng);
        arrive_clock += a;
        if measured {
            clock += a;
            let slack = a - (wait + s);
            if slack > 0.0 {
                idle.record(slack);
                idle_hist.record(slack);
            }
        }
        wait = (wait + s - a).max(0.0);

        if measured && sojourns.count().is_multiple_of(opts.check_every) {
            if let Some(ci) = sojourns.quantile_ci(opts.quantile, opts.confidence) {
                if ci.converged(opts.max_relative_error) {
                    converged = true;
                    break;
                }
            }
        }
    }

    let samples = sojourns.count();
    let mean = sojourns.mean().unwrap_or(0.0);
    let tail_ci = sojourns.quantile_ci(opts.quantile, opts.confidence);
    let tail_us = sojourns.quantile(opts.quantile).unwrap_or(0.0);
    let p50_us = sojourns.quantile(0.5).unwrap_or(0.0);
    Ok(Mg1Result {
        tail_us,
        tail_ci,
        mean_sojourn_us: mean,
        p50_us,
        utilization: if clock > 0.0 {
            (busy_time / clock).min(1.0)
        } else {
            0.0
        },
        sojourn: sojourn_sum,
        idle,
        idle_histogram: idle_hist,
        samples,
        converged,
    })
}

/// Simulates an M/G/1 FCFS queue with Poisson arrivals at `lambda_per_us`
/// and service times drawn from `service`.
///
/// # Panics
///
/// Panics if `lambda_per_us` is not positive, or the implied load (from a
/// pilot service-mean estimate) is ≥ 1 — an unstable queue has no steady
/// state to report. Sweep drivers that probe near saturation should call
/// [`try_simulate_mg1`] instead and render the [`Unstable`] cell.
pub fn simulate_mg1(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    opts: &Mg1Options,
) -> Mg1Result {
    try_simulate_mg1(lambda_per_us, service, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`simulate_mg1`]: a pilot load estimate ≥ 1 yields
/// `Err(Unstable)` instead of aborting, so one saturated cell cannot kill a
/// whole sweep grid.
pub fn try_simulate_mg1(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    opts: &Mg1Options,
) -> Result<Mg1Result, Unstable> {
    try_simulate_mg1_traced(lambda_per_us, service, opts, &Tracer::disabled())
}

/// [`try_simulate_mg1`] with a cycle-domain tracer attached: every
/// measured request emits a [`TraceEvent::RequestArrive`]/[`TraceEvent::RequestComplete`]
/// pair stamped in nanosecond ticks (1000 ticks per simulated µs; the
/// tracer's `ticks_per_us` is set accordingly).
///
/// With a disabled tracer this is `try_simulate_mg1` exactly; with an
/// enabled one the RNG draw sequence — and therefore every statistic in the
/// returned [`Mg1Result`] — is still bit-identical, because timestamps come
/// from a pure-arithmetic accumulator over draws already consumed.
pub fn try_simulate_mg1_traced(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    opts: &Mg1Options,
    tracer: &Tracer,
) -> Result<Mg1Result, Unstable> {
    let mut f = |rng: &mut SimRng, _now_us: f64| service(rng);
    simulate_mg1_inner(lambda_per_us, &mut f, opts, tracer)
}

/// Convenience: simulate with a fixed service distribution.
pub fn simulate_mg1_dist(
    lambda_per_us: f64,
    service: &dyn Distribution,
    opts: &Mg1Options,
) -> Mg1Result {
    let mut f = |rng: &mut SimRng| service.sample(rng);
    simulate_mg1(lambda_per_us, &mut f, opts)
}

/// Fault-event totals accumulated by [`simulate_mg1_faulted`].
///
/// Counts include the 512 pilot draws the stability check consumes, so
/// `events` slightly exceeds the measured-sample count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultTally {
    /// Stall events routed through the fault layer.
    pub events: u64,
    /// Attempts issued (> `events` when drops force retries).
    pub attempts: u64,
    /// Legs lost to drops.
    pub dropped_legs: u64,
    /// Legs degraded by the slow-replica mode.
    pub slowed_legs: u64,
    /// Events abandoned after the attempt cap.
    pub failed: u64,
}

/// Simulates an M/G/1 queue whose service time is `compute(rng)` plus one
/// microsecond event: a `stall_leg` latency routed through `plan`'s fault
/// layer.
///
/// Timeout and retry timers surface as DES events the natural M/G/1 way:
/// the server stays occupied while the request waits out a timeout, sleeps
/// a backoff, and reissues, so dropped legs inflate both that request's
/// sojourn and the queueing delay of everyone behind it. With
/// [`FaultPlan::none`] the sample path — every RNG draw — is identical to
/// [`simulate_mg1`] with a `compute + stall` service closure.
///
/// # Panics
///
/// Panics if `lambda_per_us` is not positive or the implied effective load
/// is ≥ 1 (see [`simulate_mg1`]).
pub fn simulate_mg1_faulted(
    lambda_per_us: f64,
    compute: &mut dyn FnMut(&mut SimRng) -> f64,
    stall_leg: &LatencyDist,
    plan: &FaultPlan,
    opts: &Mg1Options,
) -> (Mg1Result, FaultTally) {
    try_simulate_mg1_faulted(lambda_per_us, compute, stall_leg, plan, opts)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`simulate_mg1_faulted`]: saturation yields `Err(Unstable)`.
pub fn try_simulate_mg1_faulted(
    lambda_per_us: f64,
    compute: &mut dyn FnMut(&mut SimRng) -> f64,
    stall_leg: &LatencyDist,
    plan: &FaultPlan,
    opts: &Mg1Options,
) -> Result<(Mg1Result, FaultTally), Unstable> {
    try_simulate_mg1_faulted_traced(
        lambda_per_us,
        compute,
        stall_leg,
        plan,
        opts,
        &Tracer::disabled(),
    )
}

/// [`try_simulate_mg1_faulted`] with a tracer attached: request events as
/// in [`try_simulate_mg1_traced`], plus per-event fault instants
/// (inject/retry/timeout) stamped at the arrival time of the request whose
/// service leg suffered the fault, in the same nanosecond-tick domain.
/// Fault events from the 512-draw stability pilot are stamped at tick 0.
///
/// The tracer consumes no RNG draws: results and tallies are bit-identical
/// to [`try_simulate_mg1_faulted`] regardless of tracing.
pub fn try_simulate_mg1_faulted_traced(
    lambda_per_us: f64,
    compute: &mut dyn FnMut(&mut SimRng) -> f64,
    stall_leg: &LatencyDist,
    plan: &FaultPlan,
    opts: &Mg1Options,
    tracer: &Tracer,
) -> Result<(Mg1Result, FaultTally), Unstable> {
    let mut tally = FaultTally::default();
    let identity = plan.is_none();
    let result = {
        let mut service = |rng: &mut SimRng, now_us: f64| {
            let c = compute(rng);
            if identity {
                return c + stall_leg.sample(rng);
            }
            let ev = plan.sample_event(EventKind::RemoteMemory, rng, |r| stall_leg.sample(r));
            tally.events += 1;
            tally.attempts += u64::from(ev.attempts);
            tally.dropped_legs += u64::from(ev.dropped_legs);
            tally.slowed_legs += u64::from(ev.slowed_legs);
            tally.failed += u64::from(!ev.completed);
            trace_fault_events(&ev, ns_ticks(now_us), tracer);
            c + ev.latency_us
        };
        simulate_mg1_inner(lambda_per_us, &mut service, opts, tracer)?
    };
    Ok((result, tally))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg1::Mg1Analytic;
    use duplexity_stats::dist::Deterministic;

    fn fast_opts(seed: u64) -> Mg1Options {
        Mg1Options {
            max_samples: 400_000,
            warmup: 2_000,
            seed,
            ..Mg1Options::default()
        }
    }

    #[test]
    fn mm1_mean_sojourn_matches_analytic() {
        // M/M/1 at rho=0.5: E[T] = E[S]/(1-rho).
        let service = Exponential::new(5.0);
        let r = simulate_mg1_dist(0.1, &service, &fast_opts(1));
        let analytic = 5.0 / (1.0 - 0.5);
        assert!(
            (r.mean_sojourn_us - analytic).abs() / analytic < 0.05,
            "sim {} vs analytic {analytic}",
            r.mean_sojourn_us
        );
    }

    #[test]
    fn mm1_p99_matches_analytic() {
        // M/M/1 sojourn is exponential with mean E[S]/(1-rho):
        // p99 = mean * ln(100).
        let service = Exponential::new(2.0);
        let r = simulate_mg1_dist(0.25, &service, &fast_opts(2)); // rho=0.5
        let analytic = (2.0 / 0.5) * 100.0_f64.ln();
        assert!(
            (r.tail_us - analytic).abs() / analytic < 0.08,
            "sim {} vs analytic {analytic}",
            r.tail_us
        );
    }

    #[test]
    fn md1_wait_matches_pollaczek_khinchine() {
        let service = Deterministic::new(4.0);
        let lambda = 0.7 / 4.0;
        let r = simulate_mg1_dist(lambda, &service, &fast_opts(3));
        let analytic = Mg1Analytic {
            lambda_per_us: lambda,
            mean_service_us: 4.0,
            service_scv: 0.0,
        }
        .mean_sojourn_us();
        assert!(
            (r.mean_sojourn_us - analytic).abs() / analytic < 0.05,
            "sim {} vs analytic {analytic}",
            r.mean_sojourn_us
        );
    }

    #[test]
    fn utilization_matches_rho() {
        let service = Exponential::new(1.0);
        let r = simulate_mg1_dist(0.7, &service, &fast_opts(4));
        assert!(
            (r.utilization - 0.7).abs() < 0.03,
            "utilization {}",
            r.utilization
        );
    }

    #[test]
    fn idle_periods_are_exponential_with_rate_lambda() {
        // §II-A: idle periods ~ Exp(lambda) for ANY service distribution.
        let service = Deterministic::new(2.0); // decidedly non-exponential
        let lambda = 0.25; // rho = 0.5
        let r = simulate_mg1_dist(lambda, &service, &fast_opts(5));
        let expect_mean = 1.0 / lambda;
        assert!(
            (r.idle.mean() - expect_mean).abs() / expect_mean < 0.05,
            "idle mean {} vs {expect_mean}",
            r.idle.mean()
        );
        // Exponential: scv == 1.
        assert!(
            (r.idle.scv() - 1.0).abs() < 0.1,
            "idle scv {}",
            r.idle.scv()
        );
    }

    #[test]
    fn convergence_flag_set_on_easy_cases() {
        let service = Exponential::new(1.0);
        let r = simulate_mg1_dist(0.3, &service, &fast_opts(6));
        assert!(r.converged, "low-load M/M/1 must converge in 400k samples");
        assert!(r.tail_ci.is_some());
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn rejects_overload() {
        let service = Exponential::new(2.0);
        let _ = simulate_mg1_dist(0.6, &service, &fast_opts(7)); // rho = 1.2
    }

    #[test]
    fn try_variant_reports_overload_as_typed_error() {
        // rho = 1.2: the try_ entry point must return Unstable, not panic,
        // so sweep drivers can mark the cell saturated and continue.
        let mut svc = |rng: &mut SimRng| Exponential::new(2.0).sample(rng);
        let err = try_simulate_mg1(0.6, &mut svc, &fast_opts(7)).unwrap_err();
        assert!(err.rho_estimate >= 1.0, "rho {}", err.rho_estimate);
        assert!(err.to_string().contains("unstable"));
        // A stable load through the same entry point succeeds.
        let ok = try_simulate_mg1(0.25, &mut svc, &fast_opts(7)).unwrap();
        assert!(ok.samples > 0);
    }

    #[test]
    fn tail_exceeds_median_exceeds_service() {
        let service = Exponential::new(3.0);
        let r = simulate_mg1_dist(0.2, &service, &fast_opts(8)); // rho=0.6
        assert!(r.tail_us > r.p50_us);
        assert!(r.mean_sojourn_us > 3.0);
    }

    #[test]
    fn faulted_identity_matches_plain_sample_path() {
        // FaultPlan::none must reproduce simulate_mg1 draw-for-draw.
        let leg = LatencyDist::Exponential { mean_us: 1.0 };
        let mut compute = |rng: &mut SimRng| Exponential::new(2.0).sample(rng);
        let (faulted, tally) =
            simulate_mg1_faulted(0.1, &mut compute, &leg, &FaultPlan::none(), &fast_opts(10));
        let mut plain_service = |rng: &mut SimRng| {
            Exponential::new(2.0).sample(rng)
                + LatencyDist::Exponential { mean_us: 1.0 }.sample(rng)
        };
        let plain = simulate_mg1(0.1, &mut plain_service, &fast_opts(10));
        assert_eq!(faulted.tail_us, plain.tail_us);
        assert_eq!(faulted.mean_sojourn_us, plain.mean_sojourn_us);
        assert_eq!(faulted.sojourn, plain.sojourn);
        assert_eq!(tally, FaultTally::default());
    }

    #[test]
    fn drops_with_retries_inflate_the_tail() {
        use duplexity_net::RetryPolicy;
        let leg = LatencyDist::Exponential { mean_us: 2.0 };
        let plan = FaultPlan::none()
            .with_drop(0.1)
            .with_retry(RetryPolicy::new(4, 6.0, 1.0, 8.0));
        let mut compute = |_: &mut SimRng| 1.0;
        let (clean, _) =
            simulate_mg1_faulted(0.1, &mut compute, &leg, &FaultPlan::none(), &fast_opts(11));
        let (faulted, tally) = simulate_mg1_faulted(0.1, &mut compute, &leg, &plan, &fast_opts(11));
        assert!(
            faulted.tail_us > clean.tail_us,
            "faulted p99 {} must exceed clean {}",
            faulted.tail_us,
            clean.tail_us
        );
        assert!(tally.events > 0);
        assert!(
            tally.attempts > tally.events,
            "10% drops must force retries"
        );
        let drop_rate = tally.dropped_legs as f64 / tally.attempts as f64;
        assert!((drop_rate - 0.1).abs() < 0.01, "drop rate {drop_rate}");
    }

    #[test]
    fn sojourn_summary_tracks_the_estimator() {
        let service = Exponential::new(1.0);
        let r = simulate_mg1_dist(0.5, &service, &fast_opts(12));
        assert_eq!(r.sojourn.count(), r.samples as u64);
        assert!((r.sojourn.mean() - r.mean_sojourn_us).abs() < 1e-9);
    }

    #[test]
    fn tracing_does_not_perturb_results_and_records_requests() {
        let mut svc = |rng: &mut SimRng| Exponential::new(1.0).sample(rng);
        let opts = Mg1Options {
            max_samples: 5_000,
            warmup: 500,
            ..fast_opts(42)
        };
        let plain = simulate_mg1(0.5, &mut svc, &opts);
        let tracer = Tracer::enabled(1 << 20, 1000.0);
        let traced = try_simulate_mg1_traced(0.5, &mut svc, &opts, &tracer).expect("stable");
        assert_eq!(plain.tail_us, traced.tail_us);
        assert_eq!(plain.sojourn, traced.sojourn);
        assert_eq!(plain.samples, traced.samples);
        let log = tracer.take();
        assert_eq!(log.ticks_per_us, 1000.0);
        let arrivals = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RequestArrive { .. }))
            .count();
        assert_eq!(arrivals, traced.samples);
        assert_eq!(log.registry.counter("des/requests"), traced.samples as u64);
    }

    #[test]
    fn traced_faults_match_untraced_and_emit_instants() {
        use duplexity_net::RetryPolicy;
        let leg = LatencyDist::Exponential { mean_us: 2.0 };
        let plan = FaultPlan::none()
            .with_drop(0.1)
            .with_retry(RetryPolicy::new(4, 6.0, 1.0, 8.0));
        let mut compute = |_: &mut SimRng| 1.0;
        let opts = Mg1Options {
            max_samples: 5_000,
            warmup: 500,
            ..fast_opts(11)
        };
        let (plain, plain_tally) = simulate_mg1_faulted(0.1, &mut compute, &leg, &plan, &opts);
        let tracer = Tracer::enabled(1 << 20, 1000.0);
        let (traced, traced_tally) =
            try_simulate_mg1_faulted_traced(0.1, &mut compute, &leg, &plan, &opts, &tracer)
                .expect("stable");
        assert_eq!(plain.tail_us, traced.tail_us);
        assert_eq!(plain_tally, traced_tally);
        let log = tracer.take();
        let injects = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FaultInject { .. }))
            .count() as u64;
        assert!(
            injects > 0,
            "10% drops over 5.5k events must inject at least once"
        );
    }

    #[test]
    fn higher_load_means_higher_tail() {
        let service = Exponential::new(1.0);
        let lo = simulate_mg1_dist(0.3, &service, &fast_opts(9));
        let hi = simulate_mg1_dist(0.7, &service, &fast_opts(9));
        assert!(
            hi.tail_us > 1.5 * lo.tail_us,
            "lo {} hi {}",
            lo.tail_us,
            hi.tail_us
        );
    }
}
