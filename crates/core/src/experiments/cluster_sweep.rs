//! Cluster-scale tail sweep: many dyads behind one load balancer.
//!
//! The paper evaluates single-dyad tails; real deployments run *farms* of
//! servers behind a balancer, and RackSched-style results (PAPERS.md) show
//! the balancing policy moves the microsecond tail as much as the
//! microarchitecture does. This driver lifts the Figure-5(d) methodology to
//! that setting: its cell function is one run of the request-domain event
//! engine ([`try_simulate_cluster_hedged`] with no duplication) per
//! (design, policy, cluster size, load), with each design's service scaled
//! by its calibrated slowdown.
//!
//! The crate's grid runner (`experiments/grid.rs`, shared by every sweep)
//! owns the rest: cells → keys → cache probe → calibration of only the
//! designs with a missed cell (plus Baseline) → flattened replications →
//! merge → store, with hits and fresh cells interleaved in grid order.
//! Cell seeds derive from `(seed, load, servers)` alone, so the policy and design axes are paired comparisons
//! rather than sampling noise. Saturated cells — whether caught by the
//! cheap pre-guard or by the DES pilot's typed
//! [`Unstable`](duplexity_queueing::des::Unstable) verdict — render as
//! `sat` instead of killing the grid.

use super::grid::{self, scaled_service, Grid, GridSpec};
use crate::cellcache::{CellCache, CellKey, Digest, DigestWriter, PayloadReader, PayloadWriter};
use duplexity_cpu::designs::Design;
use duplexity_net::FaultPlan;
use duplexity_obs::{log_enabled, log_line, Tracer};
use duplexity_queueing::cluster::{
    merge_replications, try_simulate_cluster_hedged, BalancerPolicy, ClusterOptions,
    DuplicationPolicy, RequestResult,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Stream label for per-cell seeds, shared with the rack sweep so a fresh
/// rack plan's cells reproduce this sweep's cells bitwise.
pub(crate) const CLUSTER_CELL_STREAM: u64 = 0xC105;

/// Grid and fidelity parameters for the cluster sweep.
#[derive(Debug, Clone)]
pub struct ClusterSweepOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Designs to sweep (must include [`Design::Baseline`], the slowdown
    /// reference).
    pub designs: Vec<Design>,
    /// Balancing policies to compare.
    pub policies: Vec<BalancerPolicy>,
    /// Cluster sizes (servers behind the balancer) to evaluate.
    pub server_counts: Vec<usize>,
    /// Per-server offered loads to evaluate (fractions of nominal
    /// capacity; aggregate arrival rate scales with the cluster size).
    pub loads: Vec<f64>,
    /// Cycle horizon for the per-design service calibration.
    pub calibration_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls (lifted per-cell to [`ClusterOptions`]).
    pub queue: Mg1Options,
    /// Fault plan applied to each request's µs-scale stall leg
    /// ([`FaultPlan::none`] reproduces the fault-free sample path
    /// byte-for-byte).
    pub fault: FaultPlan,
    /// Worker threads for calibrations and grid cells; `0` resolves
    /// `DUPLEXITY_THREADS` / available parallelism (see [`crate::exec`]).
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Independent replications per cell, run *within-cell parallel* on
    /// the pool (flattened into the grid's work list) with per-replication
    /// derived seeds and merged in replication order. `1` (the default)
    /// runs each cell's historical single pass bitwise; `R > 1` splits
    /// the per-cell sample budget `R` ways so even a tiny grid can keep
    /// every worker busy.
    pub replications: usize,
    /// Content-addressed cell cache (default off). Cached cells skip the
    /// work list — and designs whose cells all hit skip calibration —
    /// with results byte-identical to a cold run.
    pub cache: Option<CellCache>,
}

impl Default for ClusterSweepOptions {
    fn default() -> Self {
        Self {
            workload: Workload::McRouter,
            designs: vec![Design::Baseline, Design::Smt, Design::Duplexity],
            policies: vec![
                BalancerPolicy::Random,
                BalancerPolicy::RoundRobin,
                BalancerPolicy::PowerOfD(2),
                BalancerPolicy::Jsq,
            ],
            server_counts: vec![4, 16],
            loads: vec![0.3, 0.5, 0.7],
            calibration_cycles: 2_000_000,
            seed: 42,
            queue: Mg1Options {
                max_samples: 300_000,
                ..Mg1Options::default()
            },
            fault: FaultPlan::none(),
            threads: 0,
            replications: 1,
            cache: None,
        }
    }
}

/// One (design, policy, cluster size, load) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSweepPoint {
    /// Design.
    pub design: Design,
    /// Balancing policy name (e.g. `jsq`, `power_of_2`).
    pub policy: String,
    /// Servers behind the balancer.
    pub servers: usize,
    /// Per-server offered load fraction.
    pub load: f64,
    /// 99th-percentile sojourn, µs (`inf` once the cell saturates).
    pub p99_us: f64,
    /// Median sojourn, µs.
    pub p50_us: f64,
    /// Mean sojourn, µs.
    pub mean_us: f64,
    /// Mean queueing delay, µs.
    pub mean_wait_us: f64,
    /// Mean per-server busy fraction.
    pub utilization: f64,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the sample cap.
    pub converged: bool,
    /// Whether this cell saturated (pre-guard or DES pilot verdict).
    pub saturated: bool,
}

/// Content-addressed cache keys for every (design, policy, cluster size,
/// load) cell of the cluster-sweep grid, in the driver's lexicographic
/// evaluation order. Replication count is digested — it splits the
/// per-cell sample budget and re-derives seeds, so `R` and `1` runs are
/// different results — but thread count is not.
#[must_use]
pub fn cell_keys(opts: &ClusterSweepOptions) -> Vec<CellKey> {
    grid::keys(opts)
}

/// Runs the cluster sweep: one saturated calibration per design, then a
/// multi-server queueing simulation per (design, policy, cluster size,
/// load) cell.
///
/// Every cell derives its queueing RNG from `(seed, load, servers)` only —
/// common random numbers across designs *and* policies — so for a given
/// (load, cluster size) all policies see the same marked point process and
/// the per-policy tail columns are paired comparisons. The grid is
/// bit-identical under [`ExecPool`](crate::exec::ExecPool) at any worker
/// count.
///
/// # Panics
///
/// Panics if the options contain no loads, designs, policies, or server
/// counts, contain a load that is not positive or a zero server count, or
/// omit [`Design::Baseline`] (the slowdown reference).
#[must_use]
pub fn cluster_sweep(opts: &ClusterSweepOptions) -> Vec<ClusterSweepPoint> {
    let points = grid::run(opts);
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "cluster_sweep: {} points ({} designs × {} policies × {} sizes × {} loads) on {}, {} saturated",
            points.len(),
            opts.designs.len(),
            opts.policies.len(),
            opts.server_counts.len(),
            opts.loads.len(),
            opts.workload,
            saturated,
        ));
    }
    points
}

/// (design, policy, servers, load).
type Cell = (Design, BalancerPolicy, usize, f64);

/// The engine every cell runs: the event engine on the wheel, digested in
/// the encoding existing cache keys hold, so keys stay stable.
struct WheelEngine;

impl Digest for WheelEngine {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("cluster_engine");
        w.field_str("kind", "event");
        w.field("queue", &EventQueueKind::Wheel);
    }
}

impl GridSpec for ClusterSweepOptions {
    type Cell = Cell;
    type Run = RequestResult;
    type Point = ClusterSweepPoint;
    const NAME: &'static str = "cluster_sweep";

    fn grid(&self) -> Grid<'_> {
        Grid {
            seed: self.seed,
            stream: CLUSTER_CELL_STREAM,
            threads: self.threads,
            cache: self.cache.as_ref(),
            replications: self.replications,
            max_samples: self.queue.max_samples,
            calibration: Some((self.workload, &self.designs, self.calibration_cycles)),
        }
    }

    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &design in &self.designs {
            for &policy in &self.policies {
                for &servers in &self.server_counts {
                    for &load in &self.loads {
                        cells.push((design, policy, servers, load));
                    }
                }
            }
        }
        cells
    }

    fn digest(&self, &(design, policy, servers, load): &Cell, w: &mut DigestWriter) {
        self.workload.digest(w);
        design.digest(w);
        policy.digest(w);
        w.field_usize("servers", servers);
        w.field_f64("load", load);
        w.field_u64("calibration_cycles", self.calibration_cycles);
        w.field_u64("seed", self.seed);
        w.field("queue", &self.queue);
        w.field("fault", &self.fault);
        w.field("engine", &WheelEngine);
        w.field_usize("replications", self.replications.max(1));
    }

    fn coords(&self, &(_, _, servers, load): &Cell) -> (f64, Option<usize>) {
        (load, Some(servers))
    }

    fn design(&self, &(design, ..): &Cell) -> Design {
        design
    }

    fn run(&self, cell: &Cell, slowdown: f64, seed: u64, samples: usize) -> Option<RequestResult> {
        let &(_, policy, servers, load) = cell;
        let nominal = self.workload.nominal_service_us();
        // Aggregate arrivals scale with the farm: each server is offered
        // `load` of its nominal capacity.
        let lambda = servers as f64 * load / nominal;
        let model = self.workload.service_model();
        let (scaled_mean, mut service) = scaled_service(&model, slowdown, self.fault);
        if load / nominal * scaled_mean >= 0.95 {
            return None;
        }
        let mut copts = ClusterOptions::from_mg1(servers, &self.queue);
        copts.max_samples = samples;
        // The marked point process is shared across designs and policies;
        // each policy's private balancer stream is derived inside the
        // simulator.
        copts.seed = seed;
        let mut balancer = policy.build();
        // The pre-guard above is a cheap bound; the DES pilot is the
        // authoritative stability check, and its typed Unstable verdict
        // marks the cell saturated instead of killing the sweep.
        try_simulate_cluster_hedged(
            lambda,
            &mut service,
            balancer.as_mut(),
            &DuplicationPolicy::none(),
            &copts,
            &Tracer::disabled(),
        )
        .ok()
    }

    fn merge(&self, parts: Vec<RequestResult>) -> RequestResult {
        merge_replications(parts, self.queue.quantile, self.queue.confidence)
    }

    fn point(
        &self,
        &(design, policy, servers, load): &Cell,
        run: Option<RequestResult>,
    ) -> ClusterSweepPoint {
        let saturated = ClusterSweepPoint {
            design,
            policy: policy.to_string(),
            servers,
            load,
            p99_us: f64::INFINITY,
            p50_us: f64::INFINITY,
            mean_us: f64::INFINITY,
            mean_wait_us: f64::INFINITY,
            utilization: 1.0,
            samples: 0,
            converged: false,
            saturated: true,
        };
        let Some(RequestResult { cluster: r, .. }) = run else {
            return saturated;
        };
        ClusterSweepPoint {
            p99_us: r.tail_us,
            p50_us: r.p50_us,
            mean_us: r.mean_sojourn_us,
            mean_wait_us: r.mean_wait_us,
            utilization: r.utilization,
            samples: r.samples,
            converged: r.converged,
            saturated: false,
            ..saturated
        }
    }

    fn encode(&self, p: &ClusterSweepPoint) -> String {
        let mut w = PayloadWriter::new();
        w.f64("p99_us", p.p99_us);
        w.f64("p50_us", p.p50_us);
        w.f64("mean_us", p.mean_us);
        w.f64("mean_wait_us", p.mean_wait_us);
        w.f64("utilization", p.utilization);
        w.usize("samples", p.samples);
        w.bool("converged", p.converged);
        w.bool("saturated", p.saturated);
        w.finish()
    }

    fn decode(&self, cell: &Cell, payload: &str) -> Option<ClusterSweepPoint> {
        let mut r = PayloadReader::new(payload);
        let p = ClusterSweepPoint {
            p99_us: r.f64("p99_us")?,
            p50_us: r.f64("p50_us")?,
            mean_us: r.f64("mean_us")?,
            mean_wait_us: r.f64("mean_wait_us")?,
            utilization: r.f64("utilization")?,
            samples: r.usize("samples")?,
            converged: r.bool("converged")?,
            saturated: r.bool("saturated")?,
            ..self.point(cell, None)
        };
        r.done().then_some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ClusterSweepOptions {
        ClusterSweepOptions {
            designs: vec![Design::Baseline, Design::Duplexity],
            policies: vec![BalancerPolicy::Random, BalancerPolicy::Jsq],
            server_counts: vec![4],
            loads: vec![0.4, 0.7],
            calibration_cycles: 800_000,
            queue: Mg1Options {
                max_samples: 80_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..ClusterSweepOptions::default()
        }
    }

    #[test]
    fn jsq_beats_random_at_every_cell() {
        let points = cluster_sweep(&quick_opts());
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(!p.saturated, "unexpected saturation at {p:?}");
        }
        for design in [Design::Baseline, Design::Duplexity] {
            for load in [0.4, 0.7] {
                let at = |name: &str| {
                    points
                        .iter()
                        .find(|p| p.design == design && p.policy == name && p.load == load)
                        .unwrap()
                        .p99_us
                };
                assert!(
                    at("jsq") <= at("random"),
                    "{design} @{load}: jsq {} vs random {}",
                    at("jsq"),
                    at("random")
                );
            }
        }
    }

    #[test]
    fn saturated_cells_render_instead_of_panicking() {
        let mut opts = quick_opts();
        opts.designs = vec![Design::Baseline];
        opts.policies = vec![BalancerPolicy::Jsq];
        opts.loads = vec![0.5, 0.99];
        let points = cluster_sweep(&opts);
        assert_eq!(points.len(), 2);
        assert!(!points[0].saturated);
        assert!(points[1].saturated, "load 0.99 must report saturation");
        assert!(points[1].p99_us.is_infinite());
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let opts = quick_opts();
        let points = cluster_sweep(&opts);
        for p in points.iter().filter(|p| !p.saturated) {
            assert!(
                p.utilization > p.load * 0.6 && p.utilization < (p.load * 1.6).min(1.0),
                "{p:?}"
            );
        }
    }
}
