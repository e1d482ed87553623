//! Cluster-level duplication and hedging sweep: tail latency bought with
//! duplicate work.
//!
//! "Reducing Tail Latency via Safe and Simple Duplication" (PAPERS.md)
//! shows prioritized duplicate queues cut p99 cheaply, and RackSched
//! argues the decision belongs at the rack level. This driver sweeps the
//! cluster DES's [`DuplicationPolicy`] axis — eager duplicate-to-d,
//! deadline-triggered hedges, purge-on-first-completion, low-priority
//! duplicate queues — against the balancer-policy axis, producing the
//! tail-latency-per-unit-added-load frontier that `report --hedge`
//! renders.
//!
//! Unlike [`cluster_sweep`](crate::experiments::cluster_sweep) there is no
//! design axis and no cycle-level calibration: the sweep isolates the
//! duplication axis on the raw workload service distribution, so a cell
//! differs from its neighbors *only* in how duplicates are launched and
//! queued. Every cell at a given (cluster size, load) derives its
//! queueing seed from those coordinates alone — common random numbers
//! across balancer policies *and* duplication plans — and zero-duplication
//! plans draw nothing from the duplicate stream, making `none` cells
//! bitwise comparable to the undecorated balancer.

use super::grid::{self, scaled_service, Grid, GridSpec};
use crate::cellcache::{CellCache, CellKey, Digest, DigestWriter, PayloadReader, PayloadWriter};
use duplexity_net::FaultPlan;
use duplexity_obs::{log_enabled, log_line, Tracer};
use duplexity_queueing::cluster::{
    merge_replications, try_simulate_cluster_hedged, BalancerPolicy, ClusterOptions, DupMode,
    DuplicationPolicy, RequestResult,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Stream label for per-cell seeds (keyed on load and cluster size only,
/// never on the policy or plan, so every tail-cutting strategy races the
/// identical marked point process).
const HEDGE_CELL_STREAM: u64 = 0x4ED6;

/// Grid and fidelity parameters for the hedge sweep.
#[derive(Debug, Clone)]
pub struct HedgeSweepOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Balancing policies to compare.
    pub policies: Vec<BalancerPolicy>,
    /// Duplication/hedging plans to compare (include
    /// [`DuplicationPolicy::none`] as the frontier's origin).
    pub plans: Vec<DuplicationPolicy>,
    /// Cluster sizes (servers behind the balancer) to evaluate.
    pub server_counts: Vec<usize>,
    /// Per-server offered loads (fractions of nominal capacity; aggregate
    /// arrival rate scales with the cluster size).
    pub loads: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls (lifted per-cell to [`ClusterOptions`]).
    pub queue: Mg1Options,
    /// Worker threads for grid cells; `0` resolves `DUPLEXITY_THREADS` /
    /// available parallelism (see [`crate::exec`]). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Independent replications per cell, run *within-cell parallel* on
    /// the pool (flattened into the grid's work list, as for every sweep)
    /// with per-replication derived seeds and merged in replication order via
    /// [`merge_replications`]. `1` (the default) runs each cell's
    /// historical single pass bitwise; `R > 1` splits the per-cell sample
    /// budget `R` ways so even a tiny grid can keep every worker busy.
    pub replications: usize,
    /// Content-addressed cell cache (default off). Cached cells skip the
    /// work list with results byte-identical to a cold run.
    pub cache: Option<CellCache>,
}

impl Default for HedgeSweepOptions {
    fn default() -> Self {
        Self {
            // RSC, not McRouter: duplication only pays when the service
            // distribution has a heavy tail to race away, and RSC's
            // exponential 8µs Optane stall is exactly the cluster-level
            // straggler. (McRouter's near-deterministic 6–8µs service
            // makes duplication pure overhead — a result the sweep can
            // still show by overriding `workload`.)
            workload: Workload::Rsc,
            policies: vec![BalancerPolicy::Jsq, BalancerPolicy::PowerOfD(2)],
            plans: vec![
                DuplicationPolicy::none(),
                DuplicationPolicy::duplicate(2),
                DuplicationPolicy::duplicate(2).without_purge(),
                DuplicationPolicy::duplicate(2).at_low_priority(),
                DuplicationPolicy::hedge(20.0),
                DuplicationPolicy::hedge(20.0).at_low_priority(),
            ],
            server_counts: vec![4, 16],
            loads: vec![0.3, 0.5, 0.7],
            seed: 42,
            queue: Mg1Options {
                max_samples: 200_000,
                ..Mg1Options::default()
            },
            threads: 0,
            replications: 1,
            cache: None,
        }
    }
}

/// One (policy, plan, cluster size, load) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HedgeSweepPoint {
    /// Balancing policy name (e.g. `jsq`, `power_of_2`).
    pub policy: String,
    /// Duplication plan label (e.g. `none`, `dup2`, `hedge10_lp`).
    pub plan: String,
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
    /// Mean primary-copy queueing delay, µs.
    pub mean_wait_us: f64,
    /// Mean duplicate-copy queueing delay from dispatch, µs (0 when no
    /// duplicate reached service).
    pub dup_mean_wait_us: f64,
    /// Mean per-server busy fraction (delivered service only).
    pub utilization: f64,
    /// Busy fraction attributable to duplicate copies — the added-load
    /// axis of the frontier.
    pub added_utilization: f64,
    /// Duplicate copies issued over the measured window.
    pub dup_copies: u64,
    /// Hedge deadlines that fired.
    pub hedges_fired: u64,
    /// Sibling copies purged (queued + in-service).
    pub purged: u64,
    /// Redundant completions (duplicates that ran to the end and lost).
    pub wasted_completions: u64,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the sample cap.
    pub converged: bool,
    /// Whether this cell saturated (pre-guard or DES pilot verdict).
    pub saturated: bool,
}

/// Content-addressed cache keys for every (policy, plan, cluster size,
/// load) cell of the hedge-sweep grid, in the driver's lexicographic
/// evaluation order. The plan is digested structurally (mode, purge,
/// priority), not by label; replication count is digested because it
/// splits the sample budget and re-derives seeds.
#[must_use]
pub fn cell_keys(opts: &HedgeSweepOptions) -> Vec<CellKey> {
    grid::keys(opts)
}

/// Runs the hedge sweep: one duplication-aware cluster simulation per
/// (policy, plan, cluster size, load) cell, in lexicographic grid order.
///
/// Cells derive their queueing seed from `(seed, load, servers)` only, so
/// the policy and plan axes are paired comparisons over one shared marked
/// point process; the grid is bit-identical under
/// [`ExecPool`](crate::exec::ExecPool) at any worker count.
///
/// # Panics
///
/// Panics if the options contain no loads, policies, plans, or server
/// counts, or contain a load that is not positive or a zero server count.
#[must_use]
pub fn hedge_sweep(opts: &HedgeSweepOptions) -> Vec<HedgeSweepPoint> {
    let points = grid::run(opts);
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "hedge_sweep: {} points ({} policies × {} plans × {} sizes × {} loads) on {}, {} saturated",
            points.len(),
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

/// (policy, plan, servers, load).
type Cell = (BalancerPolicy, DuplicationPolicy, usize, f64);

impl GridSpec for HedgeSweepOptions {
    type Cell = Cell;
    type Run = RequestResult;
    type Point = HedgeSweepPoint;
    const NAME: &'static str = "hedge_sweep";

    fn grid(&self) -> Grid<'_> {
        Grid {
            seed: self.seed,
            stream: HEDGE_CELL_STREAM,
            threads: self.threads,
            cache: self.cache.as_ref(),
            replications: self.replications,
            max_samples: self.queue.max_samples,
            ..Grid::default()
        }
    }

    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &policy in &self.policies {
            for &plan in &self.plans {
                for &servers in &self.server_counts {
                    for &load in &self.loads {
                        cells.push((policy, plan, servers, load));
                    }
                }
            }
        }
        cells
    }

    fn digest(&self, &(policy, plan, servers, load): &Cell, w: &mut DigestWriter) {
        self.workload.digest(w);
        policy.digest(w);
        plan.digest(w);
        w.field_usize("servers", servers);
        w.field_f64("load", load);
        w.field_u64("seed", self.seed);
        w.field("queue", &self.queue);
        // Cells run on the default wheel; digested so keys stay stable.
        w.field("event_queue", &EventQueueKind::Wheel);
        w.field_usize("replications", self.replications.max(1));
    }

    fn coords(&self, &(_, _, servers, load): &Cell) -> (f64, Option<usize>) {
        (load, Some(servers))
    }

    fn check_plans(&self) {
        for plan in &self.plans {
            plan.check(Self::NAME);
        }
    }

    fn run(&self, cell: &Cell, _: f64, seed: u64, samples: usize) -> Option<RequestResult> {
        let &(policy, plan, servers, load) = cell;
        let model = self.workload.service_model();
        let nominal = self.workload.nominal_service_us();
        let lambda = servers as f64 * load / nominal;
        // Cheap pre-guard mirroring the engine's pilot rule: an eager
        // no-purge plan must carry every copy to completion.
        let eager_copies = match plan.mode {
            DupMode::Duplicate { copies } if !plan.purge => copies as f64,
            _ => 1.0,
        };
        // The cluster sweep's fault-free service law, unscaled.
        let (mean_service, mut service) = scaled_service(&model, 1.0, FaultPlan::none());
        if load / nominal * mean_service * eager_copies >= 0.95 {
            return None;
        }
        let mut copts = ClusterOptions::from_mg1(servers, &self.queue);
        copts.max_samples = samples;
        copts.seed = seed;
        let mut balancer = policy.build();
        try_simulate_cluster_hedged(
            lambda,
            &mut service,
            balancer.as_mut(),
            &plan,
            &copts,
            &Tracer::disabled(),
        )
        .ok()
    }

    fn merge(&self, parts: Vec<RequestResult>) -> RequestResult {
        merge_replications(parts, self.queue.quantile, self.queue.confidence)
    }

    fn point(&self, cell: &Cell, run: Option<RequestResult>) -> HedgeSweepPoint {
        let &(policy, plan, servers, load) = cell;
        let saturated = HedgeSweepPoint {
            policy: policy.to_string(),
            plan: plan.label(),
            servers,
            load,
            p99_us: f64::INFINITY,
            p50_us: f64::INFINITY,
            mean_us: f64::INFINITY,
            mean_wait_us: f64::INFINITY,
            dup_mean_wait_us: f64::INFINITY,
            utilization: 1.0,
            added_utilization: 0.0,
            dup_copies: 0,
            hedges_fired: 0,
            purged: 0,
            wasted_completions: 0,
            samples: 0,
            converged: false,
            saturated: true,
        };
        let Some(r) = run else {
            return saturated;
        };
        HedgeSweepPoint {
            p99_us: r.cluster.tail_us,
            p50_us: r.cluster.p50_us,
            mean_us: r.cluster.mean_sojourn_us,
            mean_wait_us: r.cluster.mean_wait_us,
            dup_mean_wait_us: if r.dup_wait.count() > 0 {
                r.dup_wait.mean()
            } else {
                0.0
            },
            utilization: r.cluster.utilization,
            added_utilization: r.added_utilization,
            dup_copies: r.dup.dup_copies,
            hedges_fired: r.dup.hedges_fired,
            purged: r.dup.purged_queued + r.dup.purged_in_service,
            wasted_completions: r.dup.wasted_completions,
            samples: r.cluster.samples,
            converged: r.cluster.converged,
            saturated: false,
            ..saturated
        }
    }

    fn encode(&self, p: &HedgeSweepPoint) -> String {
        let mut w = PayloadWriter::new();
        w.f64("p99_us", p.p99_us);
        w.f64("p50_us", p.p50_us);
        w.f64("mean_us", p.mean_us);
        w.f64("mean_wait_us", p.mean_wait_us);
        w.f64("dup_mean_wait_us", p.dup_mean_wait_us);
        w.f64("utilization", p.utilization);
        w.f64("added_utilization", p.added_utilization);
        w.u64("dup_copies", p.dup_copies);
        w.u64("hedges_fired", p.hedges_fired);
        w.u64("purged", p.purged);
        w.u64("wasted_completions", p.wasted_completions);
        w.usize("samples", p.samples);
        w.bool("converged", p.converged);
        w.bool("saturated", p.saturated);
        w.finish()
    }

    fn decode(&self, cell: &Cell, payload: &str) -> Option<HedgeSweepPoint> {
        let mut r = PayloadReader::new(payload);
        let p = HedgeSweepPoint {
            p99_us: r.f64("p99_us")?,
            p50_us: r.f64("p50_us")?,
            mean_us: r.f64("mean_us")?,
            mean_wait_us: r.f64("mean_wait_us")?,
            dup_mean_wait_us: r.f64("dup_mean_wait_us")?,
            utilization: r.f64("utilization")?,
            added_utilization: r.f64("added_utilization")?,
            dup_copies: r.u64("dup_copies")?,
            hedges_fired: r.u64("hedges_fired")?,
            purged: r.u64("purged")?,
            wasted_completions: r.u64("wasted_completions")?,
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

    fn quick_opts() -> HedgeSweepOptions {
        HedgeSweepOptions {
            policies: vec![BalancerPolicy::Jsq],
            plans: vec![
                DuplicationPolicy::none(),
                DuplicationPolicy::duplicate(2),
                DuplicationPolicy::duplicate(2).without_purge(),
            ],
            server_counts: vec![4],
            // Low enough that even the eager no-purge plan (which doubles
            // the offered work) stays below the saturation guard.
            loads: vec![0.25, 0.4],
            queue: Mg1Options {
                max_samples: 40_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..HedgeSweepOptions::default()
        }
    }

    #[test]
    fn duplication_cuts_the_tail_and_purging_cuts_the_bill() {
        let points = hedge_sweep(&quick_opts());
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(!p.saturated, "unexpected saturation at {p:?}");
        }
        for load in [0.25, 0.4] {
            let at = |plan: &str| {
                points
                    .iter()
                    .find(|p| p.plan == plan && p.load == load)
                    .unwrap()
            };
            assert!(
                at("dup2").p99_us <= at("none").p99_us,
                "@{load}: dup2 {} vs none {}",
                at("dup2").p99_us,
                at("none").p99_us
            );
            assert!(
                at("dup2").added_utilization < at("dup2_np").added_utilization,
                "@{load}: purge must deliver less duplicate work"
            );
            assert_eq!(at("none").dup_copies, 0);
            assert_eq!(at("none").added_utilization, 0.0);
        }
    }

    #[test]
    fn within_cell_replications_merge_deterministically() {
        let mut opts = quick_opts();
        opts.replications = 4;
        opts.threads = 1;
        let one = hedge_sweep(&opts);
        opts.threads = 8;
        let eight = hedge_sweep(&opts);
        assert_eq!(
            serde_json::to_string_pretty(&one).unwrap(),
            serde_json::to_string_pretty(&eight).unwrap(),
            "replicated grid must be bit-identical at any worker count"
        );
        // The merged cells keep the replication-split sample budget and the
        // qualitative duplication contract.
        for p in &one {
            assert!(!p.saturated, "unexpected saturation at {p:?}");
            assert!(p.samples >= 40_000, "budget lost in the merge: {p:?}");
        }
        for load in [0.25, 0.4] {
            let at = |plan: &str| {
                one.iter()
                    .find(|p| p.plan == plan && p.load == load)
                    .unwrap()
            };
            assert!(at("dup2").p99_us <= at("none").p99_us);
            assert!(at("dup2").added_utilization < at("dup2_np").added_utilization);
            assert_eq!(at("none").dup_copies, 0);
        }
    }

    #[test]
    fn saturated_cells_render_instead_of_panicking() {
        let mut opts = quick_opts();
        opts.plans = vec![DuplicationPolicy::duplicate(2).without_purge()];
        opts.loads = vec![0.3, 0.6];
        let points = hedge_sweep(&opts);
        assert_eq!(points.len(), 2);
        assert!(!points[0].saturated);
        // 0.6 offered twice over (eager, no purge) saturates the farm.
        assert!(points[1].saturated, "eager no-purge at 0.6 must saturate");
        assert!(points[1].p99_us.is_infinite());
    }
}
