//! The fault layer's determinism contract under the parallel engine.
//!
//! Fault injection adds RNG draws (drop coins, slow-replica coins, duplicate
//! legs) to every stall event, which makes it the most likely place for a
//! worker-count-dependent sample path to sneak in. These tests run the
//! fault-sweep grid — and a faulted Figure 5 grid — with 1 worker (the
//! inline serial path) and with 2, 4, and 8 workers, and `assert_eq!` every
//! field of every point: exact floating-point equality, no tolerance (the
//! same contract as `tests/parallel_determinism.rs`).

use duplexity::experiments::fault_sweep::{fault_sweep, FaultSweepOptions};
use duplexity::experiments::fig5::{run_fig5, Fig5Options};
use duplexity::{Design, FaultPlan, RetryPolicy, Workload};
use duplexity_queueing::des::Mg1Options;

fn sweep_opts(threads: usize) -> FaultSweepOptions {
    FaultSweepOptions {
        loads: vec![0.3, 0.6],
        queue: Mg1Options {
            max_samples: 60_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        threads,
        ..FaultSweepOptions::default()
    }
}

fn faulted_fig5_opts(threads: usize) -> Fig5Options {
    Fig5Options {
        loads: vec![0.3, 0.6],
        workloads: vec![Workload::McRouter],
        designs: vec![Design::Baseline, Design::Duplexity],
        horizon_cycles: 500_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 60_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        fault: FaultPlan::none()
            .with_drop(0.05)
            .with_retry(RetryPolicy::new(4, 10.0, 2.0, 16.0))
            .with_slow_replica(0.05, 3.0),
        threads,
        cache: None,
    }
}

#[test]
fn fault_sweep_is_bit_identical_across_worker_counts() {
    let serial = fault_sweep(&sweep_opts(1));
    assert_eq!(serial.len(), 10, "5 default policies x 2 loads");
    for threads in [2usize, 4, 8] {
        let parallel = fault_sweep(&sweep_opts(threads));
        assert_eq!(parallel.len(), serial.len(), "threads={threads}");
        for (s, p) in serial.iter().zip(&parallel) {
            let at = format!("threads={threads} point ({}, {})", s.policy, s.load);
            assert_eq!(s.policy, p.policy, "{at}");
            assert_eq!(s.load, p.load, "{at}");
            assert_eq!(s.p50_us, p.p50_us, "{at}");
            assert_eq!(s.p99_us, p.p99_us, "{at}");
            assert_eq!(s.mean_us, p.mean_us, "{at}");
            assert_eq!(s.mean_attempts, p.mean_attempts, "{at}");
            assert_eq!(s.drop_rate, p.drop_rate, "{at}");
            assert_eq!(s.fail_rate, p.fail_rate, "{at}");
            assert_eq!(s.saturated, p.saturated, "{at}");
        }
    }
}

#[test]
fn faulted_fig5_is_bit_identical_across_worker_counts() {
    let serial = run_fig5(&faulted_fig5_opts(1));
    assert_eq!(serial.len(), 4);
    for threads in [2usize, 8] {
        let parallel = run_fig5(&faulted_fig5_opts(threads));
        assert_eq!(parallel.len(), serial.len(), "threads={threads}");
        for (s, p) in serial.iter().zip(&parallel) {
            let at = format!(
                "threads={threads} cell ({:?}, {:?}, {})",
                s.design, s.workload, s.load
            );
            assert_eq!(s.utilization, p.utilization, "{at}");
            assert_eq!(s.p99_us, p.p99_us, "{at}");
            assert_eq!(s.iso_p99_us, p.iso_p99_us, "{at}");
            assert_eq!(s.stp_norm, p.stp_norm, "{at}");
            assert_eq!(s.saturated, p.saturated, "{at}");
        }
    }
}

#[test]
fn common_random_numbers_hold_across_policies() {
    // Every policy at a given load sees the same arrival process: the
    // fault-free policy's sample path must be invariant to which other
    // policies share the grid.
    let full = fault_sweep(&sweep_opts(1));
    let mut lonely_opts = sweep_opts(1);
    lonely_opts.policies.truncate(1); // just "none"
    let lonely = fault_sweep(&lonely_opts);
    for (a, b) in full
        .iter()
        .filter(|p| p.policy == "none")
        .zip(lonely.iter())
    {
        assert_eq!(a.p99_us, b.p99_us, "load {}", a.load);
        assert_eq!(a.mean_us, b.mean_us, "load {}", a.load);
    }
}
