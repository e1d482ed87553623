//! The cluster-scale DES contract, end to end.
//!
//! Three guarantees (see `crates/queueing/src/cluster.rs` and the
//! `cluster_sweep` driver):
//!
//! 1. **Worker-count independence** — the cluster sweep grid is
//!    bit-identical at 1 and 8 `ExecPool` workers (index-addressed slots,
//!    per-cell derived seeds).
//! 2. **Policy ordering** — with common random numbers, JSQ's p99 never
//!    exceeds Random's at any (design, size, load) cell.
//! 3. **Queueing-theory fidelity** — a least-work cluster over exponential
//!    service is exactly an M/M/k queue, so its mean wait must match the
//!    Erlang-C formula within a replication-level confidence interval.
//!
//! Seeds are fixed, so these tests are deterministic: they either always
//! pass or flag a real modeling drift.

mod common;

use duplexity::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};
use duplexity::{BalancerPolicy, Design};
use duplexity_obs::Tracer;
use duplexity_queueing::cluster::{try_simulate_cluster, ClusterOptions};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::mmk::MmkAnalytic;
use duplexity_stats::ci::mean_ci;
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::rng::derive_stream;
use duplexity_stats::summary::Summary;

fn sweep_opts(threads: usize) -> ClusterSweepOptions {
    ClusterSweepOptions {
        designs: vec![Design::Baseline, Design::Duplexity],
        policies: vec![
            BalancerPolicy::Random,
            BalancerPolicy::PowerOfD(2),
            BalancerPolicy::Jsq,
        ],
        server_counts: vec![2, 8],
        loads: vec![0.4, 0.7],
        calibration_cycles: 500_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 40_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        threads,
        ..ClusterSweepOptions::default()
    }
}

#[test]
fn cluster_sweep_grid_is_bit_identical_at_1_and_8_workers() {
    let one = cluster_sweep(&sweep_opts(1));
    let eight = cluster_sweep(&sweep_opts(8));
    assert_eq!(one.len(), eight.len());
    assert_eq!(one.len(), 2 * 3 * 2 * 2);
    // Bitwise equality, not tolerance: the determinism contract.
    common::assert_identical_artifacts("cluster_sweep 1 vs 8 workers", &one, &eight);
}

#[test]
fn replicated_cluster_sweep_is_bit_identical_at_1_and_8_workers() {
    // Within-cell parallel replications flatten into the pool's work list;
    // the merge is in replication order, so the grid must stay
    // bit-identical at every worker count even when a single cell's
    // replications land on different workers.
    let replicated = |threads| ClusterSweepOptions {
        replications: 4,
        ..sweep_opts(threads)
    };
    let one = cluster_sweep(&replicated(1));
    let eight = cluster_sweep(&replicated(8));
    assert_eq!(one.len(), 2 * 3 * 2 * 2);
    for p in &one {
        assert!(!p.saturated && p.samples > 0, "unexpected empty cell {p:?}");
    }
    common::assert_identical_artifacts("replicated cluster_sweep 1 vs 8 workers", &one, &eight);
}

#[test]
fn jsq_never_loses_to_random_anywhere_on_the_grid() {
    let points = cluster_sweep(&sweep_opts(0));
    for p in &points {
        assert!(!p.saturated, "unexpected saturation at {p:?}");
    }
    for jsq in points.iter().filter(|p| p.policy == "jsq") {
        let random = points
            .iter()
            .find(|p| {
                p.policy == "random"
                    && p.design == jsq.design
                    && p.servers == jsq.servers
                    && p.load == jsq.load
            })
            .expect("paired random cell");
        assert!(
            jsq.p99_us <= random.p99_us,
            "{:?} {}s @{}: jsq p99 {} vs random {}",
            jsq.design,
            jsq.servers,
            jsq.load,
            jsq.p99_us,
            random.p99_us
        );
    }
}

#[test]
fn least_work_cluster_mean_wait_matches_erlang_c() {
    // A least-work balancer over FCFS servers is exactly a central-queue
    // M/M/k when service is exponential: every request starts as early as
    // possible. Cross-check the simulated mean wait against the Erlang-C
    // formula over independent replications (the CI over replication means
    // is statistically sound where one run's autocorrelated samples are
    // not), with a 2% allowance for the initial-transient bias of runs
    // that start with an empty farm.
    for (servers, load) in [(2, 0.7), (4, 0.8)] {
        let mean_service = 2.0;
        let lambda = servers as f64 * load / mean_service;
        let analytic = MmkAnalytic {
            lambda_per_us: lambda,
            mean_service_us: mean_service,
            servers,
        }
        .mean_wait_us();

        let mut waits = Summary::new();
        for rep in 0..8u64 {
            let opts = ClusterOptions {
                servers,
                max_samples: 150_000,
                warmup: 5_000,
                // Disable early stopping: full-length replications shrink
                // both the variance and the initial-transient bias.
                max_relative_error: 0.001,
                seed: derive_stream(0xE71A, rep),
                ..ClusterOptions::default()
            };
            let mut svc = |rng: &mut _| Exponential::new(mean_service).sample(rng);
            let r = try_simulate_cluster(
                lambda,
                &mut svc,
                &mut BalancerPolicy::LeastWork.build(),
                &opts,
                &Tracer::disabled(),
            )
            .expect("stable M/M/k configuration");
            waits.record(r.mean_wait_us);
        }
        let ci = mean_ci(&waits, 0.95);
        let bias = 0.02 * analytic;
        assert!(
            analytic >= ci.low - bias && analytic <= ci.high + bias,
            "M/M/{servers} @{load}: CI [{}, {}] (+/- {bias:.4} bias) misses Erlang-C {analytic}",
            ci.low,
            ci.high
        );
    }
}
