//! The grid runner under every sweep driver.
//!
//! The sweeps (`sweep`, `fault_sweep`, `cluster_sweep`, `hedge_sweep`,
//! `rack_sweep`, `timeline`) all follow the paper's BigHouse methodology
//! (§V): calibrate a service-time slowdown per design from one saturated
//! cycle-level run, then run one queueing simulation per grid cell. A
//! driver describes its grid as a [`GridSpec`] — cells, cache key fields,
//! the per-cell simulation, and the payload codec — and [`run`] owns the
//! plumbing, in this order:
//!
//! 1. **cells → keys**: the grid's cells in lexicographic order, each
//!    digested into a [`CellKey`] tagged with the driver's name;
//! 2. **check**: a non-empty grid, every load `> 0`, every cluster size
//!    `>= 1`, every plan valid, and [`Design::Baseline`] present when
//!    calibrating — on the calling thread, before any work is paid for;
//! 3. **probe**: cached cells decode straight into points;
//! 4. **miss-restricted calibration**: only designs with a missed cell
//!    (plus Baseline, which anchors every slowdown) calibrate, in one pool
//!    phase — each calibration is a pure function of (design, workload,
//!    horizon, seed), so a subset run is bit-identical. The calibrations
//!    share one [`SharedInputs`], so their kernel and filler graph are
//!    built once;
//! 5. **flattened replications**: every missed cell's `R` replications
//!    enter one pool phase, cell-major, each with its sub-seed and a
//!    `max_samples.div_ceil(R)` budget; a lone replication runs on the
//!    cell seed itself and skips the merge, bitwise the single-pass cell;
//! 6. **merge → store → assemble**: replications merge in replication
//!    order (any saturated replication saturates the cell), fresh points
//!    are written back, and hits and misses interleave in grid order.
//!
//! Cold, warm and mixed runs are therefore byte-identical at any worker
//! count.

use crate::cellcache::{assemble, miss_indices, CellCache, CellKey, DigestWriter};
use crate::exec::ExecPool;
use crate::server::ServerSim;
use duplexity_cpu::designs::Design;
use duplexity_net::{EventKind, FaultPlan};
use duplexity_obs::Tracer;
use duplexity_stats::rng::{derive_stream, SimRng};
use duplexity_workloads::service::ServiceModel;
use duplexity_workloads::{SharedInputs, Workload};

/// Seed of the cell at `(load, servers)` on `stream`: common random
/// numbers across every other axis. Single-server grids pass `servers = 0`.
fn cell_seed(seed: u64, stream: u64, load: f64, servers: usize) -> u64 {
    derive_stream(
        seed,
        stream ^ (load * 1000.0) as u64 ^ ((servers as u64) << 32),
    )
}

/// Mean per-request service time (µs) of `design` on `workload` under
/// back-to-back (saturated) requests; `None` if fewer than ten requests
/// completed. In saturated mode a request's recorded latency is its
/// fetch-to-retire service time, free of queueing delay.
pub(crate) fn saturated_service_us(
    design: Design,
    workload: Workload,
    horizon_cycles: u64,
    seed: u64,
    inputs: &SharedInputs,
) -> Option<f64> {
    let m = ServerSim::new(design, workload)
        .saturated()
        .horizon_cycles(horizon_cycles)
        .seed(seed)
        .run_shared(&Tracer::disabled(), inputs);
    if m.request_latencies_us.len() < 10 {
        return None;
    }
    Some(m.request_latencies_us.iter().sum::<f64>() / m.request_latencies_us.len() as f64)
}

/// Compute-leg slowdown of a design whose saturated service is `mine`
/// against the Baseline's `base`, both net of the mean `stall`. No design
/// serves faster than the solo baseline (ratios below 1 are measurement
/// noise); an uncalibrated pair is exactly one no missed cell consults.
pub(crate) fn slowdown(base: Option<f64>, mine: Option<f64>, stall: f64) -> f64 {
    match (base, mine) {
        (Some(b), Some(m)) => ((m - stall).max(0.05) / (b - stall).max(0.05)).clamp(1.0, 6.0),
        _ => 1.0,
    }
}

/// The §V IPC-scaled service law of `model` for a design with
/// `slowdown`: a bound on its mean for the cheap saturation pre-guard
/// (exactly the mean under the identity plan), and a sampler drawing the
/// compute leg scaled by `slowdown` plus the stall leg routed through
/// `fault`. Split sampling keeps the identity plan's RNG stream identical
/// to the historical `sample_parts` path (golden contract).
pub(crate) fn scaled_service(
    model: &ServiceModel,
    slowdown: f64,
    fault: FaultPlan,
) -> (f64, impl FnMut(&mut SimRng) -> f64 + '_) {
    let mean_bound =
        model.mean_compute_us() * slowdown + fault.effective_mean_bound_us(model.mean_stall_us());
    let scaled = model.scale_compute(slowdown);
    let service = move |rng: &mut SimRng| {
        let c = scaled.sample_compute(rng);
        if fault.is_none() {
            c + scaled.sample_stall(rng)
        } else {
            c + fault
                .sample_event(EventKind::RemoteMemory, rng, |r| scaled.sample_stall(r))
                .latency_us
        }
    };
    (mean_bound, service)
}

/// A grid's run settings.
#[derive(Default)]
pub(crate) struct Grid<'a> {
    /// Experiment seed.
    pub seed: u64,
    /// Stream label of the cell seeds.
    pub stream: u64,
    /// Worker threads (`0` resolves from the environment).
    pub threads: usize,
    /// Cell cache, if any.
    pub cache: Option<&'a CellCache>,
    /// Replications per cell (`0` counts as one).
    pub replications: usize,
    /// Per-cell sample budget the replications split.
    pub max_samples: usize,
    /// `(workload, designs, cycles)`: one saturated `cycles`-long
    /// calibration per design, if the grid scales service by design.
    pub calibration: Option<(Workload, &'a [Design], u64)>,
}

/// One sweep driver's grid: what [`run`] needs beyond the shared plumbing.
pub(crate) trait GridSpec: Sync {
    /// A grid coordinate.
    type Cell: Sync;
    /// One replication's simulation result.
    type Run: Send;
    /// One assembled grid point.
    type Point;

    /// Driver name: cache-key tag, pool-label prefix, and the prefix of
    /// every input-check message.
    const NAME: &'static str;
    /// Pool label of the cells phase, after `NAME/`.
    const CELLS: &'static str = "points";

    /// Run settings.
    fn grid(&self) -> Grid<'_>;
    /// Every cell, in lexicographic grid order.
    fn cells(&self) -> Vec<Self::Cell>;
    /// Folds everything `cell`'s value depends on into its key.
    fn digest(&self, cell: &Self::Cell, w: &mut DigestWriter);
    /// The cell's offered load and, on multi-server grids, its cluster
    /// size: the seed coordinates.
    fn coords(&self, cell: &Self::Cell) -> (f64, Option<usize>);
    /// The design whose slowdown scales `cell` (calibrated grids only).
    fn design(&self, _cell: &Self::Cell) -> Design {
        Design::Baseline
    }
    /// Panics, naming the driver, if one of its duplication or rack plans
    /// cannot run (grids with a plan axis only).
    fn check_plans(&self) {}
    /// One replication of `cell`, capped at `samples` (its share of
    /// [`Grid::max_samples`]; unset on grids without replications); `None`
    /// when the cell saturates.
    fn run(&self, cell: &Self::Cell, slowdown: f64, seed: u64, samples: usize)
        -> Option<Self::Run>;
    /// Merges two or more replications in replication order.
    fn merge(&self, _parts: Vec<Self::Run>) -> Self::Run {
        unreachable!("{} runs one replication per cell", Self::NAME)
    }
    /// The point for `cell`; `None` renders it saturated.
    fn point(&self, cell: &Self::Cell, run: Option<Self::Run>) -> Self::Point;
    /// The cache payload of a fresh point.
    fn encode(&self, point: &Self::Point) -> String;
    /// Rebuilds `cell`'s point from a payload; `None` demotes to a miss.
    fn decode(&self, cell: &Self::Cell, payload: &str) -> Option<Self::Point>;
}

/// Cache keys of every cell, in grid order.
pub(crate) fn keys<S: GridSpec>(spec: &S) -> Vec<CellKey> {
    spec.cells()
        .iter()
        .map(|cell| CellKey::build(S::NAME, |w| spec.digest(cell, w)))
        .collect()
}

/// Runs the grid (see the [module docs](self)).
///
/// # Panics
///
/// Panics, before any simulation, on an empty grid, a load that is not
/// positive (zero, negative or NaN), a zero cluster size, an invalid plan,
/// or a calibrated grid without [`Design::Baseline`].
pub(crate) fn run<S: GridSpec>(spec: &S) -> Vec<S::Point> {
    let name = S::NAME;
    let g = spec.grid();
    let cells = spec.cells();
    assert!(!cells.is_empty(), "{name}: empty grid");
    for cell in &cells {
        let (load, servers) = spec.coords(cell);
        assert!(
            load > 0.0,
            "{name}: load {load} is not a positive offered load"
        );
        assert!(servers != Some(0), "{name}: cluster sizes must be >= 1");
    }
    spec.check_plans();
    if let Some((_, designs, _)) = g.calibration {
        assert!(
            designs.contains(&Design::Baseline),
            "{name}: baseline required as the slowdown reference"
        );
    }

    let pool = ExecPool::new(g.threads);
    let keys = keys(spec);
    let hits: Vec<Option<S::Point>> = cells
        .iter()
        .zip(&keys)
        .map(|(cell, key)| {
            let mut hit = g
                .cache?
                .probe(std::slice::from_ref(key), |p| spec.decode(cell, p));
            hit.pop().flatten()
        })
        .collect();
    let misses = miss_indices(&hits);

    let mut slowdowns = Vec::new();
    if let Some((workload, designs, cycles)) = g.calibration {
        let index = |d: Design| {
            designs
                .iter()
                .position(|&x| x == d)
                .expect("design on the grid")
        };
        let base = index(Design::Baseline);
        let missed: Vec<usize> = misses
            .iter()
            .map(|&i| index(spec.design(&cells[i])))
            .collect();
        let needed: Vec<usize> = (0..designs.len())
            .filter(|&di| missed.contains(&di) || (di == base && !missed.is_empty()))
            .collect();
        let inputs = SharedInputs::new();
        let calibrated = pool.run(&format!("{name}/calibrate"), needed.len(), |j| {
            let seed = derive_stream(g.seed, 0x53E9);
            saturated_service_us(designs[needed[j]], workload, cycles, seed, &inputs)
        });
        let service = |di| {
            needed
                .iter()
                .position(|&n| n == di)
                .and_then(|j| calibrated[j])
        };
        let stall = workload.service_model().mean_stall_us();
        slowdowns = missed
            .iter()
            .map(|&di| slowdown(service(base), service(di), stall))
            .collect();
    }

    // ExecPool does not nest, so replications flatten into one work list,
    // cell-major: a cell's replications are contiguous and merge in order.
    let reps = g.replications.max(1);
    let samples = g.max_samples.div_ceil(reps);
    let runs = pool.run(&format!("{name}/{}", S::CELLS), misses.len() * reps, |w| {
        let cell = &cells[misses[w / reps]];
        let (load, servers) = spec.coords(cell);
        let seed = cell_seed(g.seed, g.stream, load, servers.unwrap_or(0));
        let seed = if reps == 1 {
            seed
        } else {
            derive_stream(seed, 1 + (w % reps) as u64)
        };
        spec.run(
            cell,
            slowdowns.get(w / reps).copied().unwrap_or(1.0),
            seed,
            samples,
        )
    });
    let mut runs = runs.into_iter();
    let fresh: Vec<S::Point> = misses
        .iter()
        .map(|&i| {
            let parts: Vec<Option<S::Run>> = runs.by_ref().take(reps).collect();
            let run = parts
                .into_iter()
                .collect::<Option<Vec<_>>>()
                .map(|mut parts| match parts.len() {
                    1 => parts.pop().expect("one replication"),
                    _ => spec.merge(parts),
                });
            spec.point(&cells[i], run)
        })
        .collect();
    if let Some(cache) = g.cache {
        for (point, &i) in fresh.iter().zip(&misses) {
            cache.store(&keys[i], &spec.encode(point));
        }
    }
    assemble(hits, fresh)
}
