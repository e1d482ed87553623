//! Fault-policy sweep: how drop/retry/duplication/degradation policies move
//! the tail.
//!
//! RackSched and the tail-duplication line of work (PAPERS.md) show that at
//! microsecond scale the *policy* applied to a flaky leg — wait out a
//! timeout and retry, race a duplicate, or eat a degraded replica — changes
//! the p99 by integer factors. This driver runs the workspace's BigHouse
//! M/G/1 machinery over a (policy × load) grid with the stall leg routed
//! through each [`FaultPlan`], using common random numbers per load so the
//! per-policy tail columns isolate policy effects from sampling noise.

use super::grid::{self, Grid, GridSpec};
use crate::cellcache::{CellCache, CellKey, Digest, DigestWriter, PayloadReader, PayloadWriter};
use duplexity_net::{FaultPlan, RetryPolicy};
use duplexity_obs::{log_enabled, log_line};
use duplexity_queueing::des::{try_simulate_mg1_faulted, FaultTally, Mg1Options, Mg1Result};
use duplexity_stats::rng::SimRng;
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// A named fault-injection policy — one row of the sweep.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Display name (also the `policy` key in [`FaultSweepPoint`]).
    pub name: String,
    /// The plan applied to every stall leg.
    pub plan: FaultPlan,
}

impl FaultPolicy {
    /// Builds a named policy.
    #[must_use]
    pub fn new(name: &str, plan: FaultPlan) -> Self {
        Self {
            name: name.to_string(),
            plan,
        }
    }
}

/// The default policy set: a fault-free reference plus the four failure
/// modes the tentpole models, at parameters chosen so every default grid
/// cell stays stable.
///
/// * `none` — the identity plan (pins the zero-fault golden contract);
/// * `drop-retry` — 5% leg drops, 10µs timeout, up to 4 attempts with
///   2→16µs bounded exponential backoff;
/// * `tied` — duplicate-and-race with 5% drops (no retry needed: both
///   copies must vanish to lose an event);
/// * `slow-replica` — 10% of legs land on a 5× degraded replica;
/// * `combined` — drops + retries + degradation together.
#[must_use]
pub fn default_policies() -> Vec<FaultPolicy> {
    let retry = RetryPolicy::new(4, 10.0, 2.0, 16.0);
    vec![
        FaultPolicy::new("none", FaultPlan::none()),
        FaultPolicy::new(
            "drop-retry",
            FaultPlan::none().with_drop(0.05).with_retry(retry),
        ),
        FaultPolicy::new(
            "tied",
            FaultPlan::none()
                .with_drop(0.05)
                .with_duplicate()
                .with_retry(retry),
        ),
        FaultPolicy::new(
            "slow-replica",
            FaultPlan::none().with_slow_replica(0.1, 5.0),
        ),
        FaultPolicy::new(
            "combined",
            FaultPlan::none()
                .with_drop(0.05)
                .with_retry(retry)
                .with_slow_replica(0.05, 3.0),
        ),
    ]
}

/// Grid and fidelity parameters for the fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepOptions {
    /// Microservice under test (its stall leg is what faults hit).
    pub workload: Workload,
    /// Offered loads to evaluate.
    pub loads: Vec<f64>,
    /// Fault policies to compare.
    pub policies: Vec<FaultPolicy>,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls.
    pub queue: Mg1Options,
    /// Worker threads for the grid; `0` resolves `DUPLEXITY_THREADS` /
    /// available parallelism (see [`crate::exec`]). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Content-addressed cell cache (default off). Cached cells skip the
    /// work list with results byte-identical to a cold run.
    pub cache: Option<CellCache>,
}

impl Default for FaultSweepOptions {
    fn default() -> Self {
        Self {
            workload: Workload::McRouter,
            loads: vec![0.3, 0.5, 0.7],
            policies: default_policies(),
            seed: 42,
            queue: Mg1Options::default(),
            threads: 0,
            cache: None,
        }
    }
}

/// One (policy, load) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweepPoint {
    /// Policy name.
    pub policy: String,
    /// Offered load fraction.
    pub load: f64,
    /// Median sojourn, µs.
    pub p50_us: f64,
    /// 99th-percentile sojourn, µs (`inf` once the faulted queue
    /// saturates).
    pub p99_us: f64,
    /// Mean sojourn, µs.
    pub mean_us: f64,
    /// Mean attempts per stall event (1.0 under the identity plan).
    pub mean_attempts: f64,
    /// Dropped legs per issued attempt.
    pub drop_rate: f64,
    /// Events abandoned after the attempt cap, per event.
    pub fail_rate: f64,
    /// Whether the effective load drove this point past stability.
    pub saturated: bool,
}

/// Content-addressed cache keys for every (policy, load) cell of the
/// fault-sweep grid, in the driver's policy-major evaluation order. The
/// policy's *plan* is digested, not its display name: renaming a policy
/// relabels cached cells without recomputing them.
#[must_use]
pub fn cell_keys(opts: &FaultSweepOptions) -> Vec<CellKey> {
    grid::keys(opts)
}

/// Runs the fault sweep.
///
/// Every cell derives its queueing RNG from `(seed, load)` only — common
/// random numbers across policies — so for a given load all policies see
/// the same arrival process and raw leg-latency stream, and the grid is
/// bit-identical under [`ExecPool`](crate::exec::ExecPool) at any worker
/// count.
///
/// # Panics
///
/// Panics if the options contain no loads or no policies, or a load that
/// is not positive.
#[must_use]
pub fn fault_sweep(opts: &FaultSweepOptions) -> Vec<FaultSweepPoint> {
    let points = grid::run(opts);
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "fault_sweep: {} points ({} policies × {} loads) on {}, {} saturated",
            points.len(),
            opts.policies.len(),
            opts.loads.len(),
            opts.workload,
            saturated,
        ));
    }
    points
}

impl GridSpec for FaultSweepOptions {
    /// (policy index, load).
    type Cell = (usize, f64);
    type Run = (Mg1Result, FaultTally);
    type Point = FaultSweepPoint;
    const NAME: &'static str = "fault_sweep";

    fn grid(&self) -> Grid<'_> {
        Grid {
            seed: self.seed,
            stream: 0xFA17,
            threads: self.threads,
            cache: self.cache.as_ref(),
            ..Grid::default()
        }
    }

    fn cells(&self) -> Vec<(usize, f64)> {
        let loads = &self.loads;
        (0..self.policies.len())
            .flat_map(|pi| loads.iter().map(move |&l| (pi, l)))
            .collect()
    }

    fn digest(&self, &(pi, load): &(usize, f64), w: &mut DigestWriter) {
        self.workload.digest(w);
        self.policies[pi].plan.digest(w);
        w.field_f64("load", load);
        w.field_u64("seed", self.seed);
        w.field("queue", &self.queue);
    }

    fn coords(&self, &(_, load): &(usize, f64)) -> (f64, Option<usize>) {
        (load, None)
    }

    fn run(&self, &(pi, load): &(usize, f64), _: f64, seed: u64, _: usize) -> Option<Self::Run> {
        let model = self.workload.service_model();
        let leg = self.workload.stall_leg();
        let plan = &self.policies[pi].plan;
        let lambda = load / self.workload.nominal_service_us();
        // Saturation guard on a policy-agnostic upper bound of the
        // effective service mean (timeouts, retries, degradation).
        let effective_mean = model.mean_compute_us() + plan.effective_mean_bound_us(leg.mean_us());
        if lambda * effective_mean >= 0.95 {
            return None;
        }
        let mut compute = |rng: &mut SimRng| model.sample_compute(rng);
        let mut qopts = self.queue;
        qopts.seed = seed;
        // The pre-guard above is a cheap bound; the pilot inside the DES is
        // the authoritative stability check, and its typed Unstable verdict
        // marks the cell saturated instead of killing the sweep.
        try_simulate_mg1_faulted(lambda, &mut compute, &leg, plan, &qopts).ok()
    }

    fn point(&self, &(pi, load): &(usize, f64), run: Option<Self::Run>) -> FaultSweepPoint {
        let saturated = FaultSweepPoint {
            policy: self.policies[pi].name.clone(),
            load,
            p50_us: f64::INFINITY,
            p99_us: f64::INFINITY,
            mean_us: f64::INFINITY,
            mean_attempts: 0.0,
            drop_rate: 0.0,
            fail_rate: 0.0,
            saturated: true,
        };
        let Some((r, tally)) = run else {
            return saturated;
        };
        let (mean_attempts, drop_rate, fail_rate) = if tally.events == 0 {
            (1.0, 0.0, 0.0)
        } else {
            (
                tally.attempts as f64 / tally.events as f64,
                tally.dropped_legs as f64 / tally.attempts.max(1) as f64,
                tally.failed as f64 / tally.events as f64,
            )
        };
        FaultSweepPoint {
            p50_us: r.p50_us,
            p99_us: r.tail_us,
            mean_us: r.mean_sojourn_us,
            mean_attempts,
            drop_rate,
            fail_rate,
            saturated: false,
            ..saturated
        }
    }

    fn encode(&self, p: &FaultSweepPoint) -> String {
        let mut w = PayloadWriter::new();
        w.f64("p50_us", p.p50_us);
        w.f64("p99_us", p.p99_us);
        w.f64("mean_us", p.mean_us);
        w.f64("mean_attempts", p.mean_attempts);
        w.f64("drop_rate", p.drop_rate);
        w.f64("fail_rate", p.fail_rate);
        w.bool("saturated", p.saturated);
        w.finish()
    }

    fn decode(&self, cell: &(usize, f64), payload: &str) -> Option<FaultSweepPoint> {
        let mut r = PayloadReader::new(payload);
        let p = FaultSweepPoint {
            p50_us: r.f64("p50_us")?,
            p99_us: r.f64("p99_us")?,
            mean_us: r.f64("mean_us")?,
            mean_attempts: r.f64("mean_attempts")?,
            drop_rate: r.f64("drop_rate")?,
            fail_rate: r.f64("fail_rate")?,
            saturated: r.bool("saturated")?,
            ..self.point(cell, None)
        };
        r.done().then_some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> FaultSweepOptions {
        FaultSweepOptions {
            loads: vec![0.3, 0.6],
            queue: Mg1Options {
                max_samples: 60_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..FaultSweepOptions::default()
        }
    }

    #[test]
    fn policies_order_the_tail_sensibly() {
        let points = fault_sweep(&quick_opts());
        assert_eq!(points.len(), 10);
        let p99 = |name: &str, load: f64| {
            points
                .iter()
                .find(|p| p.policy == name && p.load == load)
                .unwrap()
                .p99_us
        };
        for load in [0.3, 0.6] {
            // Any injected fault worsens the tail vs the identity plan.
            assert!(p99("drop-retry", load) > p99("none", load));
            assert!(p99("slow-replica", load) > p99("none", load));
            // Tied requests beat waiting out timeouts at equal drop rate.
            assert!(
                p99("tied", load) < p99("drop-retry", load),
                "tied {} vs drop-retry {} at load {load}",
                p99("tied", load),
                p99("drop-retry", load)
            );
        }
    }

    #[test]
    fn identity_policy_reports_no_fault_activity() {
        let points = fault_sweep(&quick_opts());
        for p in points.iter().filter(|p| p.policy == "none") {
            assert!(!p.saturated);
            assert_eq!(p.mean_attempts, 1.0);
            assert_eq!(p.drop_rate, 0.0);
            assert_eq!(p.fail_rate, 0.0);
        }
        for p in points.iter().filter(|p| p.policy == "drop-retry") {
            assert!(p.mean_attempts > 1.0);
            assert!(
                (p.drop_rate - 0.05).abs() < 0.01,
                "drop rate {}",
                p.drop_rate
            );
        }
    }

    #[test]
    fn saturation_guard_trips_on_hopeless_grids() {
        let mut opts = quick_opts();
        opts.loads = vec![0.99];
        opts.policies = vec![FaultPolicy::new(
            "pathological",
            FaultPlan::none()
                .with_drop(0.5)
                .with_retry(RetryPolicy::new(8, 50.0, 10.0, 100.0)),
        )];
        let points = fault_sweep(&opts);
        assert!(points[0].saturated);
        assert!(points[0].p99_us.is_infinite());
    }
}
