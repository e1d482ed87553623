//! Input checks of the sweep drivers and Figure 5.
//!
//! Every grid-runner-backed driver checks its grid once, before any
//! calibration or cell runs: an offered load of zero, below zero, or NaN
//! panics on the calling thread with a message naming the driver and the
//! load. Without the check such a load passes the saturation pre-guard
//! (`NaN >= 0.95` is false), pays for calibration, and then panics inside a
//! pool worker — with two or more workers only as `a scoped thread
//! panicked`. Each case runs at two workers to pin that. A load of `+inf`
//! is not an input error: it renders a saturated cell.
//!
//! Plans get the same up-front check: a duplication plan with zero copies
//! or a NaN hedge deadline, and a rack plan with zero dispatchers or
//! tenants, a negative or NaN staleness, or a NaN tenant skew, panic on the
//! calling thread naming the driver, instead of inside a pool worker.
//!
//! Figure 5 checks its loads up front too, before the lender reference and
//! calibration. Its cycle cells simulate an open-loop master-core, so every
//! load must lie in `(0, 1)`: 0, 1, NaN and `+inf` each panic with
//! `fig5: load <l> is not in (0, 1)`.

use duplexity::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};
use duplexity::experiments::fault_sweep::{fault_sweep, FaultSweepOptions};
use duplexity::experiments::fig5::{run_fig5, Fig5Options};
use duplexity::experiments::hedge_sweep::{hedge_sweep, HedgeSweepOptions};
use duplexity::experiments::rack_sweep::{rack_sweep, RackSweepOptions};
use duplexity::experiments::sweep::{latency_load_sweep, SweepOptions};
use duplexity::experiments::timeline::{timeline, TimelineOptions};
use duplexity::{BalancerPolicy, Design, DuplicationPolicy, RackPlan, Workload};
use duplexity_queueing::des::Mg1Options;

fn queue() -> Mg1Options {
    Mg1Options {
        max_samples: 5_000,
        warmup: 500,
        ..Mg1Options::default()
    }
}

fn sweep_opts(loads: Vec<f64>) -> SweepOptions {
    SweepOptions {
        designs: vec![Design::Baseline],
        loads,
        calibration_cycles: 100_000,
        queue: queue(),
        threads: 2,
        ..SweepOptions::default()
    }
}

fn fault_opts(loads: Vec<f64>) -> FaultSweepOptions {
    FaultSweepOptions {
        loads,
        queue: queue(),
        threads: 2,
        ..FaultSweepOptions::default()
    }
}

fn cluster_opts(loads: Vec<f64>) -> ClusterSweepOptions {
    ClusterSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Jsq],
        server_counts: vec![4],
        loads,
        calibration_cycles: 100_000,
        queue: queue(),
        threads: 2,
        ..ClusterSweepOptions::default()
    }
}

fn hedge_opts(loads: Vec<f64>) -> HedgeSweepOptions {
    HedgeSweepOptions {
        policies: vec![BalancerPolicy::Jsq],
        plans: vec![DuplicationPolicy::duplicate(2)],
        server_counts: vec![4],
        loads,
        queue: queue(),
        threads: 2,
        replications: 2,
        ..HedgeSweepOptions::default()
    }
}

fn rack_opts(loads: Vec<f64>) -> RackSweepOptions {
    RackSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Jsq],
        plans: vec![RackPlan::fresh().with_delta(8.0)],
        server_counts: vec![4],
        loads,
        calibration_cycles: 100_000,
        queue: queue(),
        threads: 2,
        ..RackSweepOptions::default()
    }
}

fn fig5_opts(loads: Vec<f64>) -> Fig5Options {
    Fig5Options {
        designs: vec![Design::Baseline],
        workloads: vec![Workload::McRouter],
        loads,
        horizon_cycles: 100_000,
        queue: queue(),
        threads: 2,
        ..Fig5Options::default()
    }
}

fn timeline_opts(loads: Vec<f64>) -> TimelineOptions {
    TimelineOptions {
        servers: 4,
        loads,
        queue: queue(),
        threads: 2,
        ..TimelineOptions::default()
    }
}

#[test]
#[should_panic(expected = "sweep: load 0 is not a positive offered load")]
fn sweep_rejects_a_zero_load() {
    let _ = latency_load_sweep(&sweep_opts(vec![0.5, 0.0]));
}

#[test]
#[should_panic(expected = "fault_sweep: load -0.3 is not a positive offered load")]
fn fault_sweep_rejects_a_negative_load() {
    let _ = fault_sweep(&fault_opts(vec![0.5, -0.3]));
}

#[test]
#[should_panic(expected = "cluster_sweep: load NaN is not a positive offered load")]
fn cluster_sweep_rejects_a_nan_load() {
    let _ = cluster_sweep(&cluster_opts(vec![0.5, f64::NAN]));
}

#[test]
#[should_panic(expected = "hedge_sweep: load 0 is not a positive offered load")]
fn hedge_sweep_rejects_a_zero_load() {
    let _ = hedge_sweep(&hedge_opts(vec![0.4, 0.0]));
}

#[test]
#[should_panic(expected = "rack_sweep: load NaN is not a positive offered load")]
fn rack_sweep_rejects_a_nan_load() {
    let _ = rack_sweep(&rack_opts(vec![0.5, f64::NAN]));
}

#[test]
#[should_panic(expected = "timeline: load -0.3 is not a positive offered load")]
fn timeline_rejects_a_negative_load() {
    let _ = timeline(&timeline_opts(vec![0.3, -0.3]));
}

#[test]
#[should_panic(expected = "fig5: load 0 is not in (0, 1)")]
fn fig5_rejects_a_zero_load() {
    let _ = run_fig5(&fig5_opts(vec![0.5, 0.0]));
}

#[test]
#[should_panic(expected = "fig5: load 1 is not in (0, 1)")]
fn fig5_rejects_a_load_of_one() {
    let _ = run_fig5(&fig5_opts(vec![0.5, 1.0]));
}

#[test]
#[should_panic(expected = "fig5: load NaN is not in (0, 1)")]
fn fig5_rejects_a_nan_load() {
    let _ = run_fig5(&fig5_opts(vec![0.5, f64::NAN]));
}

#[test]
#[should_panic(expected = "hedge_sweep: Duplicate needs at least the primary copy")]
fn hedge_sweep_rejects_a_zero_copy_plan() {
    let opts = HedgeSweepOptions {
        plans: vec![DuplicationPolicy::none(), DuplicationPolicy::duplicate(0)],
        ..hedge_opts(vec![0.4, 0.5])
    };
    let _ = hedge_sweep(&opts);
}

#[test]
#[should_panic(expected = "timeline: Duplicate needs at least the primary copy")]
fn timeline_rejects_a_zero_copy_plan() {
    let opts = TimelineOptions {
        plan: DuplicationPolicy::duplicate(0),
        ..timeline_opts(vec![0.3, 0.5])
    };
    let _ = timeline(&opts);
}

#[test]
#[should_panic(expected = "hedge_sweep: hedge deadline must not be NaN")]
fn hedge_sweep_rejects_a_nan_deadline() {
    let opts = HedgeSweepOptions {
        plans: vec![
            DuplicationPolicy::none(),
            DuplicationPolicy::hedge(f64::NAN),
        ],
        ..hedge_opts(vec![0.4, 0.5])
    };
    let _ = hedge_sweep(&opts);
}

#[test]
#[should_panic(expected = "timeline: hedge deadline must not be NaN")]
fn timeline_rejects_a_nan_deadline() {
    let opts = TimelineOptions {
        plan: DuplicationPolicy::hedge(f64::NAN),
        ..timeline_opts(vec![0.3, 0.5])
    };
    let _ = timeline(&opts);
}

/// A rack sweep over one valid plan and `plan`, at two loads.
fn rack_sweep_with(plan: RackPlan) {
    let opts = RackSweepOptions {
        plans: vec![RackPlan::fresh(), plan],
        ..rack_opts(vec![0.4, 0.5])
    };
    let _ = rack_sweep(&opts);
}

#[test]
#[should_panic(expected = "rack_sweep: rack needs at least one dispatcher")]
fn rack_sweep_rejects_zero_dispatchers() {
    rack_sweep_with(RackPlan::fresh().distributed(0));
}

#[test]
#[should_panic(expected = "rack_sweep: rack needs at least one tenant")]
fn rack_sweep_rejects_zero_tenants() {
    rack_sweep_with(RackPlan::fresh().with_tenants(0, 0.99));
}

#[test]
#[should_panic(expected = "rack_sweep: staleness -2 must be finite and non-negative")]
fn rack_sweep_rejects_a_negative_staleness() {
    rack_sweep_with(RackPlan::fresh().with_delta(-2.0));
}

#[test]
#[should_panic(expected = "rack_sweep: staleness NaN must be finite and non-negative")]
fn rack_sweep_rejects_a_nan_staleness() {
    rack_sweep_with(RackPlan::fresh().with_delta(f64::NAN));
}

#[test]
#[should_panic(expected = "rack_sweep: tenant skew NaN must be finite and non-negative")]
fn rack_sweep_rejects_a_nan_skew() {
    rack_sweep_with(RackPlan::fresh().with_tenants(64, f64::NAN));
}

#[test]
fn an_infinite_load_renders_a_saturated_cell_in_every_driver() {
    let inf = f64::INFINITY;
    assert!(latency_load_sweep(&sweep_opts(vec![inf]))[0].saturated);
    assert!(fault_sweep(&fault_opts(vec![inf]))
        .iter()
        .all(|p| p.saturated));
    assert!(cluster_sweep(&cluster_opts(vec![inf]))[0].saturated);
    assert!(hedge_sweep(&hedge_opts(vec![inf]))[0].saturated);
    assert!(rack_sweep(&rack_opts(vec![inf]))[0].saturated);
    assert!(timeline(&timeline_opts(vec![inf])).cells[0].saturated);
}
