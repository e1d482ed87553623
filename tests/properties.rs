//! Property-based tests over the workspace's core invariants.

use duplexity_cpu::op::{Fetched, InstructionStream, LoopedTrace, MicroOp, Op, NO_REG};
use duplexity_net::{EventKind, FaultPlan, LatencyDist, RetryPolicy};
use duplexity_queueing::closed_loop::closed_loop_utilization;
use duplexity_queueing::des::{try_simulate_mg1, Mg1Options};
use duplexity_queueing::mg1::Mg1Analytic;
use duplexity_stats::binomial::Binomial;
use duplexity_stats::dist::{Distribution, Exponential, Hyperexponential};
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{derive_stream, rng_from_seed, SimRng};
use duplexity_stats::summary::Summary;
use duplexity_uarch::cache::{AccessKind, Cache, CacheConfig};
use proptest::prelude::*;
use rand::RngExt;

proptest! {
    /// Closed-loop utilization is always the exact compute share.
    #[test]
    fn closed_loop_is_exact_share(compute in 0.01f64..100.0, stall in 0.0f64..100.0) {
        let u = closed_loop_utilization(compute, stall);
        prop_assert!((u - compute / (compute + stall)).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&u));
    }

    /// Binomial CDF and survival function always complement each other.
    #[test]
    fn binomial_complement(n in 1u32..200, p in 0.0f64..1.0, k in 1u32..200) {
        prop_assume!(k <= n);
        let b = Binomial::new(n, p);
        let total = b.cdf(k - 1) + b.sf_at_least(k);
        prop_assert!((total - 1.0).abs() < 1e-6);
    }

    /// A hyperexponential two-moment fit reproduces its targets.
    #[test]
    fn hyperexp_fit_is_faithful(mean in 0.1f64..100.0, scv in 1.0f64..20.0) {
        let d = Hyperexponential::from_mean_scv(mean, scv);
        prop_assert!((d.mean() - mean).abs() / mean < 1e-9);
        prop_assert!((d.scv().unwrap() - scv).abs() / scv < 1e-9);
    }

    /// Exponential samples are non-negative and hit their mean.
    #[test]
    fn exponential_sampling(mean in 0.1f64..50.0, seed in 0u64..1000) {
        let d = Exponential::new(mean);
        let mut rng = rng_from_seed(seed);
        let mut s = Summary::new();
        for _ in 0..2000 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0);
            s.record(x);
        }
        prop_assert!((s.mean() - mean).abs() / mean < 0.2);
    }

    /// Quantiles are monotone in the quantile parameter.
    #[test]
    fn quantiles_monotone(values in prop::collection::vec(0.0f64..1e6, 10..200)) {
        let mut q: QuantileEstimator = values.into_iter().collect();
        let p50 = q.quantile(0.5).unwrap();
        let p90 = q.quantile(0.9).unwrap();
        let p99 = q.quantile(0.99).unwrap();
        prop_assert!(p50 <= p90);
        prop_assert!(p90 <= p99);
    }

    /// The estimator's sort (integer keys without a −0.0, the comparison
    /// sort with one) orders samples exactly as a one-shot stable
    /// `partial_cmp` sort does, bit for bit, also when a sorted prefix
    /// from an earlier query meets an unsorted tail.
    #[test]
    fn key_sort_equals_comparison_sort(
        draws in prop::collection::vec((0usize..16, any::<u64>()), 1..300),
        cuts in prop::collection::vec(0usize..300, 0..4),
        neg_zero in any::<bool>()
    ) {
        let values: Vec<f64> = draws
            .iter()
            .map(|&(pick, bits)| sort_sample(pick, bits))
            .map(|x| if neg_zero || x != 0.0 { x } else { 0.0 })
            .collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(values.len())).collect();
        cuts.sort_unstable();
        cuts.push(values.len());
        let mut q = QuantileEstimator::new();
        let mut from = 0;
        for cut in cuts {
            q.extend(values[from..cut].iter().copied());
            from = cut;
            if !q.is_empty() {
                q.quantile(0.5);
                q.quantile_ci(0.99, 0.95);
            }
        }
        let mut expected = values;
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&q.into_sorted()), bits(&expected));
    }

    /// Cache residency never exceeds capacity, and a just-accessed line is
    /// always resident.
    #[test]
    fn cache_capacity_invariant(addrs in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            write_through: false,
        });
        for &a in &addrs {
            c.access(a, AccessKind::Read);
            prop_assert!(c.probe(a), "just-accessed line must be resident");
            prop_assert!(c.resident_lines() <= c.total_lines());
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
    }

    /// M/G/1 simulation utilization tracks the offered load for any stable
    /// hyperexponential service.
    #[test]
    fn mg1_utilization_tracks_rho(load in 0.1f64..0.8, scv in 1.0f64..8.0) {
        let service = Hyperexponential::from_mean_scv(2.0, scv);
        let opts = Mg1Options {
            max_samples: 60_000,
            warmup: 1_000,
            seed: 9,
            ..Mg1Options::default()
        };
        let mut f = |rng: &mut SimRng| service.sample(rng);
        let r = try_simulate_mg1(load / 2.0, &mut f, &opts).expect("stable queue");
        prop_assert!((r.utilization - load).abs() < 0.08,
            "load {} util {}", load, r.utilization);
        // And the mean sojourn is at least the mean service.
        prop_assert!(r.mean_sojourn_us >= 1.5);
    }

    /// Pollaczek–Khinchine: mean wait grows with service variability.
    #[test]
    fn pk_wait_grows_with_scv(load in 0.2f64..0.9, scv_lo in 0.0f64..2.0, extra in 0.1f64..5.0) {
        let a = Mg1Analytic { lambda_per_us: load / 4.0, mean_service_us: 4.0, service_scv: scv_lo };
        let b = Mg1Analytic {
            lambda_per_us: load / 4.0,
            mean_service_us: 4.0,
            service_scv: scv_lo + extra,
        };
        prop_assert!(b.mean_wait_us() > a.mean_wait_us());
    }

    /// Distinct (seed, stream) tuples derive distinct sub-stream seeds, and
    /// the RNGs they produce start decorrelated — the property the parallel
    /// experiment engine's bit-for-bit determinism rests on (each grid cell
    /// derives its own stream from the experiment seed and its coordinates).
    #[test]
    fn derive_stream_distinct_tuples_distinct_streams(
        seed in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        prop_assume!(a != b);
        let sa = derive_stream(seed, a);
        let sb = derive_stream(seed, b);
        prop_assert_ne!(sa, sb, "labels {} and {} collided under seed {}", a, b, seed);
        let mut ra = rng_from_seed(sa);
        let mut rb = rng_from_seed(sb);
        prop_assert_ne!(ra.random::<u64>(), rb.random::<u64>());
    }

    /// Different parent seeds never alias the same sub-stream label.
    #[test]
    fn derive_stream_separates_parent_seeds(s1 in any::<u64>(), s2 in any::<u64>(), label in any::<u64>()) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(derive_stream(s1, label), derive_stream(s2, label));
    }

    /// The same (seed, stream) tuple always yields the identical generator
    /// sequence — derivation is a pure function, with no hidden state.
    #[test]
    fn derive_stream_same_tuple_identical_sequence(seed in any::<u64>(), label in any::<u64>()) {
        let sa = derive_stream(seed, label);
        let sb = derive_stream(seed, label);
        prop_assert_eq!(sa, sb);
        let mut ra = rng_from_seed(sa);
        let mut rb = rng_from_seed(sb);
        for _ in 0..32 {
            prop_assert_eq!(ra.random::<u64>(), rb.random::<u64>());
        }
    }

    /// Chained derivation (experiment seed → figure label → cell label, the
    /// shape `run_fig5` uses) keeps sibling cells on distinct streams.
    #[test]
    fn derive_stream_chains_stay_distinct(seed in any::<u64>(), fig in any::<u64>(), cell in 0u64..4096) {
        let parent = derive_stream(seed, fig);
        prop_assert_ne!(derive_stream(parent, cell), derive_stream(parent, cell + 1));
        prop_assert_ne!(derive_stream(parent, cell), parent);
    }

    /// Retry with backoff never exceeds the attempt cap, and every
    /// completed event pays at least its winning leg's latency.
    #[test]
    fn fault_retries_never_exceed_attempt_cap(
        drop_prob in 0.0f64..1.0,
        max_attempts in 1u32..8,
        timeout in 1.0f64..50.0,
        seed in 0u64..500,
    ) {
        let plan = FaultPlan::none()
            .with_drop(drop_prob)
            .with_retry(RetryPolicy::new(max_attempts, timeout, 1.0, 8.0));
        let dist = LatencyDist::Exponential { mean_us: 2.0 };
        let mut rng = rng_from_seed(seed);
        for _ in 0..64 {
            let ev = plan.sample_event(EventKind::RemoteMemory, &mut rng, |r| dist.sample(r));
            prop_assert!(ev.attempts >= 1 && ev.attempts <= max_attempts,
                "attempts {} vs cap {}", ev.attempts, max_attempts);
            prop_assert!(ev.latency_us >= 0.0 && ev.latency_us.is_finite());
            if ev.completed {
                let winner = ev.legs_us.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!(ev.latency_us >= winner);
            } else {
                prop_assert_eq!(ev.attempts, max_attempts);
                prop_assert!(ev.legs_us.is_empty());
            }
        }
    }

    /// Duplicate-and-race with no drops issues exactly two legs and
    /// finishes at the faster one.
    #[test]
    fn tied_request_latency_is_min_of_legs(mean in 0.5f64..20.0, seed in 0u64..500) {
        let plan = FaultPlan::none().with_duplicate();
        let dist = LatencyDist::Exponential { mean_us: mean };
        let mut rng = rng_from_seed(seed);
        for _ in 0..64 {
            let ev = plan.sample_event(EventKind::RpcLeg, &mut rng, |r| dist.sample(r));
            prop_assert!(ev.completed);
            prop_assert_eq!(ev.attempts, 1);
            prop_assert_eq!(ev.legs_us.len(), 2);
            let min = ev.legs_us[0].min(ev.legs_us[1]);
            prop_assert!((ev.latency_us - min).abs() == 0.0,
                "latency {} vs min leg {}", ev.latency_us, min);
        }
    }

    /// The zero-fault plan is a bitwise identity: same latency as sampling
    /// the distribution directly, and the RNG is left in the identical
    /// state (the golden-fixture contract).
    #[test]
    fn zero_fault_plan_is_a_bitwise_identity(mean in 0.5f64..20.0, seed in any::<u64>()) {
        let plan = FaultPlan::none();
        let dist = LatencyDist::Exponential { mean_us: mean };
        let mut a = rng_from_seed(seed);
        let mut b = rng_from_seed(seed);
        for _ in 0..32 {
            let ev = plan.sample_event(EventKind::Nvm, &mut a, |r| dist.sample(r));
            let direct = dist.sample(&mut b);
            prop_assert_eq!(ev.latency_us, direct);
            prop_assert_eq!(ev.attempts, 1);
        }
        prop_assert_eq!(a, b, "RNG states diverged under the identity plan");
    }

    /// Looped traces replay identically regardless of the clock values the
    /// engine hands them.
    #[test]
    fn looped_trace_is_clock_invariant(nows in prop::collection::vec(0u64..1_000_000, 16)) {
        let ops = vec![
            MicroOp::new(0, Op::IntAlu).with_dst(1),
            MicroOp::new(4, Op::Load { addr: 64 }).with_srcs(1, NO_REG),
        ];
        let mut a = LoopedTrace::new(ops.clone());
        let mut b = LoopedTrace::new(ops);
        let mut rng1 = rng_from_seed(1);
        let mut rng2 = rng_from_seed(2);
        for &now in &nows {
            let x = a.next(now, &mut rng1);
            let y = b.next(0, &mut rng2);
            match (x, y) {
                (Fetched::Op(p), Fetched::Op(q)) => prop_assert_eq!(p, q),
                _ => prop_assert!(false, "looped traces always yield ops"),
            }
        }
    }
}

/// One sample for [`key_sort_equals_comparison_sort`]: signed zeros, the
/// extremes, subnormals, small integers that repeat, or an arbitrary
/// finite bit pattern. `record` debug-asserts that samples are finite,
/// so ±∞ enter only where debug assertions are off (`--release`).
fn sort_sample(pick: usize, bits: u64) -> f64 {
    let sign = if bits >> 63 == 0 { 1.0 } else { -1.0 };
    let infinite = if cfg!(debug_assertions) {
        f64::MAX
    } else {
        f64::INFINITY
    };
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN,
        3 => f64::MAX,
        4 => sign * f64::MIN_POSITIVE,
        5 => sign * f64::from_bits(1),
        6 => sign * f64::from_bits(bits & ((1 << 52) - 1)),
        7 => sign * infinite,
        8..=11 => (bits % 7) as f64 - 3.0,
        _ => {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                sign * (bits >> 11) as f64
            }
        }
    }
}

/// A NaN sample panics, with a message that says samples must be finite:
/// `record`'s debug assertion where debug assertions are on, the sort's
/// comparison where they are off.
#[test]
#[should_panic(expected = "finite")]
fn nan_sample_panics() {
    let mut q: QuantileEstimator = [3.0, f64::NAN, 1.0, 2.0].into_iter().collect();
    q.quantile(0.5);
}
