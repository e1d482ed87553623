//! Two-level rack sweep: stale-signal dispatch, work stealing, and
//! dispatch-plane coordination over the cluster grid.
//!
//! The cluster sweep assumes the balancer observes per-server queues
//! instantaneously — at microsecond service times that is generous, since
//! a rack-level scheduler's view of its servers is itself microseconds
//! old. This driver lifts the [`cluster_sweep`] methodology to the
//! two-level rack model ([`try_simulate_rack`]): per (design, policy,
//! plan, cluster size, load) cell it runs the rack engine with bounded
//! signal staleness Δ, optional idle-server work stealing, centralized or
//! distributed dispatch planes, and Zipf-skewed tenant traffic.
//!
//! Both sweeps run on the crate's grid runner (`experiments/grid.rs`),
//! which owns calibration, cell seeds, replications and the cache; this
//! sweep uses the cluster sweep's seed stream and fault-free service law,
//! so a fresh plan's cells — Δ=0, no stealing, single tenant — are bitwise
//! identical to the corresponding [`cluster_sweep`] cells: the rack sweep
//! strictly generalizes the cluster sweep without perturbing one golden
//! byte.
//!
//! [`cluster_sweep`]: crate::experiments::cluster_sweep

use super::cluster_sweep::CLUSTER_CELL_STREAM;
use super::grid::{self, scaled_service, Grid, GridSpec};
use crate::cellcache::{CellCache, CellKey, Digest, DigestWriter, PayloadReader, PayloadWriter};
use duplexity_cpu::designs::Design;
use duplexity_net::FaultPlan;
use duplexity_obs::{log_enabled, log_line, Tracer};
use duplexity_queueing::cluster::{
    merge_replications, BalancerPolicy, ClusterOptions, RequestResult,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::rack::{try_simulate_rack, RackPlan};
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Grid and fidelity parameters for the rack sweep.
#[derive(Debug, Clone)]
pub struct RackSweepOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Designs to sweep (must include [`Design::Baseline`], the slowdown
    /// reference).
    pub designs: Vec<Design>,
    /// Balancing policies to compare.
    pub policies: Vec<BalancerPolicy>,
    /// Rack scheduling plans (coordination × staleness × stealing ×
    /// tenant skew) to compare. [`RackPlan::fresh`] reproduces the
    /// cluster sweep's cells byte-for-byte.
    pub plans: Vec<RackPlan>,
    /// Cluster sizes (servers behind the rack dispatcher) to evaluate.
    pub server_counts: Vec<usize>,
    /// Per-server offered loads to evaluate.
    pub loads: Vec<f64>,
    /// Cycle horizon for the per-design service calibration.
    pub calibration_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls (lifted per-cell to [`ClusterOptions`]).
    pub queue: Mg1Options,
    /// Worker threads; `0` resolves `DUPLEXITY_THREADS` / available
    /// parallelism. Results are bit-identical for every value.
    pub threads: usize,
    /// Independent replications per cell, flattened into the pool's work
    /// list and merged in replication order (same contract as the cluster
    /// sweep).
    pub replications: usize,
    /// Content-addressed cell cache (default off).
    pub cache: Option<CellCache>,
}

impl Default for RackSweepOptions {
    fn default() -> Self {
        Self {
            workload: Workload::McRouter,
            designs: vec![Design::Baseline, Design::Duplexity],
            policies: vec![BalancerPolicy::Jsq, BalancerPolicy::PowerOfD(2)],
            plans: vec![
                RackPlan::fresh(),
                RackPlan::fresh().with_delta(8.0),
                RackPlan::fresh().with_delta(32.0),
                RackPlan::fresh().with_delta(8.0).with_steal(2),
                RackPlan::fresh()
                    .with_delta(8.0)
                    .distributed(4)
                    .with_tenants(64, 0.99),
            ],
            server_counts: vec![8],
            loads: vec![0.5, 0.7],
            calibration_cycles: 2_000_000,
            seed: 42,
            queue: Mg1Options {
                max_samples: 300_000,
                ..Mg1Options::default()
            },
            threads: 0,
            replications: 1,
            cache: None,
        }
    }
}

/// One (design, policy, plan, cluster size, load) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackSweepPoint {
    /// Design.
    pub design: Design,
    /// Balancing policy name (e.g. `jsq`, `power_of_2`).
    pub policy: String,
    /// Rack plan label (e.g. `central`, `central_d4`, `dist4_d4_z0.99`).
    pub plan: String,
    /// Dispatch-plane coordination label (`central` / `dist{k}`).
    pub coordination: String,
    /// Signal staleness Δ, µs.
    pub delta_us: f64,
    /// Servers behind the dispatcher.
    pub servers: usize,
    /// Per-server offered load fraction.
    pub load: f64,
    /// 99th-percentile sojourn, µs (`inf` once the cell saturates).
    pub p99_us: f64,
    /// Median sojourn, µs.
    pub p50_us: f64,
    /// Mean sojourn, µs.
    pub mean_us: f64,
    /// Mean queueing delay (arrival to service start), µs.
    pub mean_wait_us: f64,
    /// Hot-tenant 99th-percentile sojourn, µs (sketch-derived; equals the
    /// overall sketch tail when the plan has a single tenant).
    pub hot_p99_us: f64,
    /// Mean per-server busy fraction.
    pub utilization: f64,
    /// Successful steals over the run.
    pub steals: u64,
    /// Steal attempts whose stale signal pointed at an empty victim.
    pub steals_empty: u64,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the sample cap.
    pub converged: bool,
    /// Whether this cell saturated (pre-guard or DES pilot verdict).
    pub saturated: bool,
}

/// Content-addressed cache keys for every cell of the rack-sweep grid, in
/// the driver's lexicographic evaluation order.
///
/// Digested: workload, design, policy, the full rack plan (coordination,
/// Δ, steal policy, tenants, skew), cluster size, load, calibration
/// horizon, seed, queue controls, and the replication count. Deliberately
/// **excluded**: the event-queue kind (heap and wheel are bit-identical by
/// the eventcore contract — a speed knob cannot change a result) and the
/// resolved thread count.
#[must_use]
pub fn cell_keys(opts: &RackSweepOptions) -> Vec<CellKey> {
    grid::keys(opts)
}

/// Runs the rack sweep: one saturated calibration per design, then a rack
/// simulation per (design, policy, plan, cluster size, load) cell.
///
/// Per-cell seeds are the cluster sweep's — `(seed, load, servers)` on the
/// same stream — so cells are common-random-number comparable across
/// designs, policies, *and* plans, and a fresh plan's cells reproduce
/// [`cluster_sweep`] cells bitwise. Bit-identical under
/// [`ExecPool`](crate::exec::ExecPool) at any worker count.
///
/// [`cluster_sweep`]: crate::experiments::cluster_sweep::cluster_sweep
///
/// # Panics
///
/// Panics if the options contain no loads, designs, policies, plans, or
/// server counts, contain a load that is not positive or a zero server
/// count, or omit [`Design::Baseline`] (the slowdown reference).
#[must_use]
pub fn rack_sweep(opts: &RackSweepOptions) -> Vec<RackSweepPoint> {
    let points = grid::run(opts);
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "rack_sweep: {} points ({} designs × {} policies × {} plans × {} sizes × {} loads) on {}, {} saturated",
            points.len(),
            opts.designs.len(),
            opts.policies.len(),
            opts.plans.len(),
            opts.server_counts.len(),
            opts.loads.len(),
            opts.workload,
            saturated,
        ));
    }
    points
}

/// (design, policy, plan, servers, load).
type Cell = (Design, BalancerPolicy, RackPlan, usize, f64);

impl GridSpec for RackSweepOptions {
    type Cell = Cell;
    type Run = RequestResult;
    type Point = RackSweepPoint;
    const NAME: &'static str = "rack_sweep";

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
                for &plan in &self.plans {
                    for &servers in &self.server_counts {
                        for &load in &self.loads {
                            cells.push((design, policy, plan, servers, load));
                        }
                    }
                }
            }
        }
        cells
    }

    fn digest(&self, &(design, policy, plan, servers, load): &Cell, w: &mut DigestWriter) {
        self.workload.digest(w);
        design.digest(w);
        policy.digest(w);
        plan.digest(w);
        w.field_usize("servers", servers);
        w.field_f64("load", load);
        w.field_u64("calibration_cycles", self.calibration_cycles);
        w.field_u64("seed", self.seed);
        w.field("queue", &self.queue);
        w.field_usize("replications", self.replications.max(1));
    }

    fn coords(&self, &(.., servers, load): &Cell) -> (f64, Option<usize>) {
        (load, Some(servers))
    }

    fn design(&self, &(design, ..): &Cell) -> Design {
        design
    }

    fn check_plans(&self) {
        for plan in &self.plans {
            plan.check(Self::NAME);
        }
    }

    fn run(&self, cell: &Cell, slowdown: f64, seed: u64, samples: usize) -> Option<RequestResult> {
        let &(_, policy, plan, servers, load) = cell;
        let nominal = self.workload.nominal_service_us();
        let lambda = servers as f64 * load / nominal;
        // The cluster sweep's fault-free service law and pre-guard: the
        // same RNG stream is what makes fresh-plan cells reproduce cluster
        // cells bitwise.
        let model = self.workload.service_model();
        let (scaled_mean, mut service) = scaled_service(&model, slowdown, FaultPlan::none());
        if load / nominal * scaled_mean >= 0.95 {
            return None;
        }
        let mut copts = ClusterOptions::from_mg1(servers, &self.queue);
        copts.max_samples = samples;
        copts.seed = seed;
        try_simulate_rack(
            lambda,
            &mut service,
            policy,
            &plan,
            &copts,
            &Tracer::disabled(),
        )
        .ok()
    }

    fn merge(&self, parts: Vec<RequestResult>) -> RequestResult {
        merge_replications(parts, self.queue.quantile, self.queue.confidence)
    }

    fn point(&self, cell: &Cell, run: Option<RequestResult>) -> RackSweepPoint {
        let &(design, policy, plan, servers, load) = cell;
        let saturated = RackSweepPoint {
            design,
            policy: policy.to_string(),
            plan: plan.label(),
            coordination: plan.coordination.label(),
            delta_us: plan.delta_us,
            servers,
            load,
            p99_us: f64::INFINITY,
            p50_us: f64::INFINITY,
            mean_us: f64::INFINITY,
            mean_wait_us: f64::INFINITY,
            hot_p99_us: f64::INFINITY,
            utilization: 1.0,
            steals: 0,
            steals_empty: 0,
            samples: 0,
            converged: false,
            saturated: true,
        };
        let Some(r) = run else {
            return saturated;
        };
        RackSweepPoint {
            p99_us: r.cluster.tail_us,
            p50_us: r.cluster.p50_us,
            mean_us: r.cluster.mean_sojourn_us,
            mean_wait_us: r.cluster.mean_wait_us,
            // Single-tenant plans put every sample in the hot sketch, so
            // the hot tail degenerates to the overall sketch tail.
            hot_p99_us: r.hot_sketch.quantile(0.99).unwrap_or(0.0),
            utilization: r.cluster.utilization,
            steals: r.rack.steals,
            steals_empty: r.rack.steals_empty,
            samples: r.cluster.samples,
            converged: r.cluster.converged,
            saturated: false,
            ..saturated
        }
    }

    fn encode(&self, p: &RackSweepPoint) -> String {
        let mut w = PayloadWriter::new();
        w.f64("p99_us", p.p99_us);
        w.f64("p50_us", p.p50_us);
        w.f64("mean_us", p.mean_us);
        w.f64("mean_wait_us", p.mean_wait_us);
        w.f64("hot_p99_us", p.hot_p99_us);
        w.f64("utilization", p.utilization);
        w.u64("steals", p.steals);
        w.u64("steals_empty", p.steals_empty);
        w.usize("samples", p.samples);
        w.bool("converged", p.converged);
        w.bool("saturated", p.saturated);
        w.finish()
    }

    fn decode(&self, cell: &Cell, payload: &str) -> Option<RackSweepPoint> {
        let mut r = PayloadReader::new(payload);
        let p = RackSweepPoint {
            p99_us: r.f64("p99_us")?,
            p50_us: r.f64("p50_us")?,
            mean_us: r.f64("mean_us")?,
            mean_wait_us: r.f64("mean_wait_us")?,
            hot_p99_us: r.f64("hot_p99_us")?,
            utilization: r.f64("utilization")?,
            steals: r.u64("steals")?,
            steals_empty: r.u64("steals_empty")?,
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
    use crate::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};

    fn quick_opts() -> RackSweepOptions {
        RackSweepOptions {
            designs: vec![Design::Baseline, Design::Duplexity],
            policies: vec![BalancerPolicy::Jsq],
            plans: vec![
                RackPlan::fresh(),
                RackPlan::fresh().with_delta(32.0),
                RackPlan::fresh()
                    .with_delta(8.0)
                    .distributed(4)
                    .with_tenants(64, 0.0),
            ],
            server_counts: vec![4],
            loads: vec![0.4, 0.7],
            calibration_cycles: 800_000,
            queue: Mg1Options {
                max_samples: 80_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..RackSweepOptions::default()
        }
    }

    #[test]
    fn fresh_plan_cells_reproduce_the_cluster_sweep_bitwise() {
        // The degeneracy criterion end-to-end: a fresh rack plan's cells
        // must equal the cluster sweep's cells bit-for-bit (same
        // calibration streams, same cell seeds, same engine bookkeeping).
        let ropts = RackSweepOptions {
            plans: vec![RackPlan::fresh()],
            ..quick_opts()
        };
        let copts = ClusterSweepOptions {
            designs: ropts.designs.clone(),
            policies: ropts.policies.clone(),
            server_counts: ropts.server_counts.clone(),
            loads: ropts.loads.clone(),
            calibration_cycles: ropts.calibration_cycles,
            queue: ropts.queue,
            ..ClusterSweepOptions::default()
        };
        let rack = rack_sweep(&ropts);
        let cluster = cluster_sweep(&copts);
        assert_eq!(rack.len(), cluster.len());
        for (r, c) in rack.iter().zip(&cluster) {
            assert_eq!(r.design, c.design);
            assert_eq!(r.policy, c.policy);
            assert_eq!(r.load, c.load);
            assert_eq!(r.p99_us, c.p99_us, "{r:?} vs {c:?}");
            assert_eq!(r.p50_us, c.p50_us);
            assert_eq!(r.mean_us, c.mean_us);
            assert_eq!(r.mean_wait_us, c.mean_wait_us);
            assert_eq!(r.utilization, c.utilization);
            assert_eq!(r.samples, c.samples);
            assert_eq!(r.converged, c.converged);
        }
    }

    #[test]
    fn stale_and_uncoordinated_dispatch_degrade_every_cell() {
        let points = rack_sweep(&quick_opts());
        assert_eq!(points.len(), 12);
        for design in [Design::Baseline, Design::Duplexity] {
            for load in [0.4, 0.7] {
                let at = |plan: &str| {
                    points
                        .iter()
                        .find(|p| p.design == design && p.plan == plan && p.load == load)
                        .unwrap()
                };
                // Staleness inflates queueing delay (the clean per-cell
                // signal; the p99 ordering is pinned on the stronger
                // distributed contrast below and in the engine tests).
                assert!(
                    at("central").mean_wait_us < at("central_d32").mean_wait_us,
                    "{design} @{load}: fresh wait {} vs stale wait {}",
                    at("central").mean_wait_us,
                    at("central_d32").mean_wait_us
                );
                // Distributed dispatchers herd onto the visibly-short
                // server; the tail pays for it at every cell.
                assert!(
                    at("central").p99_us < at("dist4_d8_z0").p99_us,
                    "{design} @{load}: central p99 {} vs distributed p99 {}",
                    at("central").p99_us,
                    at("dist4_d8_z0").p99_us
                );
            }
        }
    }

    #[test]
    fn saturated_cells_render_instead_of_panicking() {
        let mut opts = quick_opts();
        opts.designs = vec![Design::Baseline];
        opts.plans = vec![RackPlan::fresh().with_delta(8.0)];
        opts.loads = vec![0.5, 0.99];
        let points = rack_sweep(&opts);
        assert_eq!(points.len(), 2);
        assert!(!points[0].saturated);
        assert!(points[1].saturated, "load 0.99 must report saturation");
        assert!(points[1].p99_us.is_infinite());
    }
}
