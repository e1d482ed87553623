//! Byte-identity of cached experiment artifacts across cache temperature
//! and worker count.
//!
//! The cell cache's contract is that it is *invisible* in the artifact: a
//! cold run (every cell computed, then stored), a warm run (every cell
//! loaded), and a mixed run (a sub-grid populated first, the rest computed)
//! must all serialize to exactly the bytes of a cache-free run — at one
//! worker and at eight. Exercised for fig5 and for every driver on the grid
//! runner (the rack sweep's case lives in `tests/rack_determinism.rs`).

use duplexity::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};
use duplexity::experiments::fault_sweep::{fault_sweep, FaultSweepOptions};
use duplexity::experiments::fig5::{run_fig5, Fig5Cell, Fig5Options};
use duplexity::experiments::hedge_sweep::{hedge_sweep, HedgeSweepOptions};
use duplexity::experiments::sweep::{latency_load_sweep, SweepOptions};
use duplexity::experiments::timeline::{timeline, TimelineOptions};
use duplexity::{CellCache, Design, DuplicationPolicy, Workload};
use duplexity_queueing::cluster::BalancerPolicy;
use duplexity_queueing::des::Mg1Options;
use std::path::PathBuf;

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "duplexity-cache-determinism-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn queue(max_samples: usize) -> Mg1Options {
    Mg1Options {
        max_samples,
        warmup: 500,
        ..Mg1Options::default()
    }
}

/// Runs `run(loads, threads, cache)` cache-free at one worker, then cold at
/// one worker, warm at eight, and mixed at eight (a fresh cache seeded by
/// the `sub` loads first), asserting each serializes to the cache-free
/// bytes and that the warm run computes nothing.
fn assert_cache_is_invisible(
    label: &str,
    loads: &[f64],
    sub: &[f64],
    run: impl Fn(Vec<f64>, usize, Option<CellCache>) -> String,
) {
    let reference = run(loads.to_vec(), 1, None);

    let dir = tmp_dir(label);
    let cold = CellCache::new(&dir);
    let out = run(loads.to_vec(), 1, Some(cold.clone()));
    assert!(out == reference, "cold cached {label} diverged");
    assert_eq!(cold.hits(), 0);
    assert!(cold.misses() > 0);

    let warm = CellCache::new(&dir);
    let out = run(loads.to_vec(), 8, Some(warm.clone()));
    assert!(out == reference, "warm cached {label} diverged");
    assert_eq!(warm.misses(), 0);
    assert_eq!(warm.hits(), cold.misses());

    let mixed_dir = tmp_dir(&format!("{label}-mixed"));
    let _ = run(sub.to_vec(), 1, Some(CellCache::new(&mixed_dir)));
    let mixed = CellCache::new(&mixed_dir);
    let out = run(loads.to_vec(), 8, Some(mixed.clone()));
    assert!(out == reference, "mixed cached {label} diverged");
    assert!(mixed.hits() > 0, "{label}: sub-grid cells were not reused");
    assert!(
        mixed.misses() > 0,
        "{label}: full grid found nothing to compute"
    );

    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(mixed_dir);
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serialize artifact")
}

/// The fig5 grid both fig5 tests run: McRouter at `loads` over `designs`.
fn fig5(
    loads: Vec<f64>,
    designs: Vec<Design>,
    threads: usize,
    cache: Option<CellCache>,
) -> Vec<Fig5Cell> {
    run_fig5(&Fig5Options {
        loads,
        workloads: vec![Workload::McRouter],
        designs,
        horizon_cycles: 1_200_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 100_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        threads,
        cache,
        ..Fig5Options::default()
    })
}

const FIG5_DESIGNS: [Design; 3] = [Design::Baseline, Design::Smt, Design::Duplexity];

#[test]
fn fig5_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("fig5", &[0.3, 0.5], &[0.5], |loads, threads, cache| {
        json(&fig5(loads, FIG5_DESIGNS.to_vec(), threads, cache))
    });
}

/// Extending a cached grid by a design column, with Baseline neither first
/// nor fresh, leaves every cell as the reference computes it: each fresh
/// cell normalizes against its own row's Baseline, wherever that sits.
#[test]
fn fig5_design_order_and_column_extension_are_invisible() {
    use Design::{Baseline, Duplexity, Smt};
    let loads = vec![0.3, 0.5];
    let reference = json(&fig5(loads.clone(), FIG5_DESIGNS.to_vec(), 1, None));

    let dir = tmp_dir("fig5-columns");
    let _ = fig5(
        loads.clone(),
        vec![Smt, Baseline],
        1,
        Some(CellCache::new(&dir)),
    );
    let cache = CellCache::new(&dir);
    let mut cells = fig5(
        loads,
        vec![Smt, Baseline, Duplexity],
        8,
        Some(cache.clone()),
    );
    assert_eq!((cache.hits(), cache.misses()), (4, 2));
    let rank = |d: Design| FIG5_DESIGNS.iter().position(|&o| o == d);
    cells.sort_by(|a, b| {
        a.load
            .total_cmp(&b.load)
            .then_with(|| rank(a.design).cmp(&rank(b.design)))
    });
    assert!(
        json(&cells) == reference,
        "a permuted, column-extended fig5 grid diverged"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cluster_sweep_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("cluster", &[0.4, 0.7], &[0.4], |loads, threads, cache| {
        json(&cluster_sweep(&ClusterSweepOptions {
            designs: vec![Design::Baseline],
            policies: vec![BalancerPolicy::Random, BalancerPolicy::Jsq],
            server_counts: vec![4],
            loads,
            calibration_cycles: 200_000,
            seed: 7,
            queue: queue(20_000),
            threads,
            cache,
            ..ClusterSweepOptions::default()
        }))
    });
}

#[test]
fn sweep_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("sweep", &[0.3, 0.6], &[0.6], |loads, threads, cache| {
        json(&latency_load_sweep(&SweepOptions {
            designs: vec![Design::Baseline, Design::Smt],
            loads,
            calibration_cycles: 200_000,
            queue: queue(20_000),
            threads,
            cache,
            ..SweepOptions::default()
        }))
    });
}

#[test]
fn fault_sweep_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("fault", &[0.3, 0.6], &[0.3], |loads, threads, cache| {
        json(&fault_sweep(&FaultSweepOptions {
            loads,
            queue: queue(20_000),
            threads,
            cache,
            ..FaultSweepOptions::default()
        }))
    });
}

#[test]
fn replicated_hedge_sweep_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("hedge", &[0.3, 0.5], &[0.5], |loads, threads, cache| {
        json(&hedge_sweep(&HedgeSweepOptions {
            policies: vec![BalancerPolicy::Jsq],
            plans: vec![DuplicationPolicy::none(), DuplicationPolicy::duplicate(2)],
            server_counts: vec![4],
            loads,
            queue: queue(20_000),
            threads,
            replications: 2,
            cache,
            ..HedgeSweepOptions::default()
        }))
    });
}

#[test]
fn timeline_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("timeline", &[0.3, 0.6], &[0.3], |loads, threads, cache| {
        timeline(&TimelineOptions {
            servers: 4,
            loads,
            bin_us: 5_000.0,
            queue: queue(5_000),
            threads,
            cache,
            ..TimelineOptions::default()
        })
        .to_json()
    });
}
