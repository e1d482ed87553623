//! Figure 5: the main efficiency and QoS comparison.
//!
//! For every (design × microservice × load) cell this driver produces the
//! paper's six metrics:
//!
//! * **(a)** master-core utilization from the cycle simulator;
//! * **(b)** performance density — retired ops per second per mm² of a
//!   dyad-equivalent chip unit (main core + paired HSMT throughput core +
//!   2MB LLC, §VI-B), normalized to the baseline;
//! * **(c)** energy per instruction from the power model, normalized;
//! * **(d)** 99th-percentile latency from the BigHouse-style M/G/1
//!   simulation, with each design's service time scaled by the IPC slowdown
//!   the cycle simulator measured (§V methodology), normalized;
//! * **(e)** iso-throughput p99: the same queueing simulation with the
//!   arrival rate rescaled by performance density, so designs are compared
//!   at equal cost (§VII);
//! * **(f)** batch-thread system throughput STP = Σᵢ IPCᵢ(shared) /
//!   IPCᵢ(alone) \[123\], normalized.
//!
//! Each cell drives an open-loop master-core, so every load must lie in
//! `(0, 1)`. [`run_fig5`] checks the loads on the calling thread before
//! any pool phase, as the grid runner does for the sweeps.

use super::grid::{saturated_service_us, scaled_service, slowdown};
use crate::cellcache::{
    assemble, miss_indices, CellCache, CellKey, Digest, PayloadReader, PayloadWriter,
};
use crate::exec::ExecPool;
use crate::server::ServerSim;
use duplexity_cpu::designs::{Design, DesignMetrics, Stepping};
use duplexity_cpu::inorder::InoEngine;
use duplexity_cpu::memsys::MemSys;
use duplexity_cpu::pool::{ContextPool, VirtualContext};
use duplexity_net::FaultPlan;
use duplexity_obs::{log_enabled, log_line, Registry, TraceLog, Tracer};
use duplexity_power::{chip_area_mm2, core_kind_for, power_w, CoreKind, LLC_MM2_PER_MB};
use duplexity_queueing::des::{try_simulate_mg1_traced, Mg1Options};
use duplexity_stats::rng::{derive_stream, rng_from_seed};
use duplexity_uarch::config::LatencyModel;
use duplexity_workloads::{SharedInputs, Workload};
use serde::{Deserialize, Serialize};

/// Grid and fidelity parameters for the Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct Fig5Options {
    /// Offered loads (the paper uses 30%, 50%, 70%).
    pub loads: Vec<f64>,
    /// Microservices to evaluate.
    pub workloads: Vec<Workload>,
    /// Designs to evaluate.
    pub designs: Vec<Design>,
    /// Cycle-simulation horizon per cell.
    pub horizon_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Queueing-simulation controls.
    pub queue: Mg1Options,
    /// Fault plan applied to each request's µs-scale stall in the tail
    /// simulations (a new grid axis; [`FaultPlan::none`] reproduces the
    /// fault-free sample path byte-for-byte).
    pub fault: FaultPlan,
    /// Worker threads for the cell grid; `0` resolves `DUPLEXITY_THREADS` /
    /// available parallelism (see [`crate::exec`]). Results are bit-identical
    /// for every value.
    pub threads: usize,
    /// Content-addressed cell cache (default off). Cached cells skip the
    /// calibration, cycle-simulation, and tail passes — a fully warm grid
    /// also skips the lender reference — with results byte-identical to a
    /// cold run. Ignored when tracing is requested (trace logs are not
    /// cached).
    pub cache: Option<CellCache>,
}

impl Default for Fig5Options {
    fn default() -> Self {
        Self {
            loads: vec![0.3, 0.5, 0.7],
            workloads: Workload::ALL.to_vec(),
            designs: Design::ALL.to_vec(),
            horizon_cycles: 6_000_000,
            seed: 42,
            queue: Mg1Options::default(),
            fault: FaultPlan::none(),
            threads: 0,
            cache: None,
        }
    }
}

/// One (design, workload, load) cell of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Cell {
    /// Design under evaluation.
    pub design: Design,
    /// Microservice.
    pub workload: Workload,
    /// Offered load fraction.
    pub load: f64,
    /// Fig. 5(a): master-core utilization.
    pub utilization: f64,
    /// Fig. 5(b): performance density normalized to baseline.
    pub perf_density_norm: f64,
    /// Fig. 5(c): energy per instruction normalized to baseline.
    pub energy_norm: f64,
    /// Fig. 5(d): absolute p99, µs (`inf` when the scaled queue saturates).
    pub p99_us: f64,
    /// Fig. 5(d): p99 normalized to baseline.
    pub p99_norm: f64,
    /// Fig. 5(e): iso-throughput p99, µs.
    pub iso_p99_us: f64,
    /// Fig. 5(e): iso-throughput p99 normalized to baseline.
    pub iso_p99_norm: f64,
    /// Fig. 5(f): batch STP normalized to baseline.
    pub stp_norm: f64,
    /// Whether the IPC-scaled queue was unstable at this load.
    pub saturated: bool,
    /// Master-thread service slowdown vs baseline measured by the cycle sim.
    pub service_slowdown: f64,
    /// Remote µs-scale operations per wall µs (drives Figure 6).
    pub remote_ops_per_us: f64,
}

/// Reference throughput of a standalone lender-core and of one batch thread
/// running alone (STP denominators and the §VI-B pairing for designs without
/// an in-dyad lender).
#[derive(Debug, Clone)]
struct LenderReference {
    ops_per_cycle: f64,
    remote_ops_per_cycle: f64,
    retired_per_ctx_per_cycle: Vec<f64>,
    alone_ops_per_cycle: f64,
}

fn lender_reference(horizon: u64, seed: u64, inputs: &SharedInputs) -> LenderReference {
    let fillers = inputs.fillers(seed);
    let cycles_per_us = 3400.0;
    let mut lender = InoEngine::lender(cycles_per_us, 64);
    let mut pool = ContextPool::new();
    for id in 0..32 {
        pool.add(VirtualContext::new(id, fillers.stream(id)));
    }
    let mut mem = MemSys::table1(LatencyModel::default());
    let mut rng = rng_from_seed(derive_stream(seed, 0x1E0D));
    for now in 0..horizon {
        lender.step(now, &mut mem, None, Some(&mut pool), &mut rng);
    }
    let wall = horizon.max(1) as f64;
    let retired_per_ctx_per_cycle = lender
        .retired_by_ctx()
        .iter()
        .map(|&r| r as f64 / wall)
        .collect();

    // One batch thread alone on an in-order core (the STP "alone" IPC).
    let mut alone = InoEngine::new(1, 4, false, cycles_per_us, 64);
    alone.add_fixed_context(0, fillers.stream(0));
    let mut mem2 = MemSys::table1(LatencyModel::default());
    let mut rng2 = rng_from_seed(derive_stream(seed, 0x1E0E));
    let alone_horizon = horizon / 2;
    for now in 0..alone_horizon {
        alone.step(now, &mut mem2, None, None, &mut rng2);
    }

    LenderReference {
        ops_per_cycle: lender.stats().ipc(),
        remote_ops_per_cycle: lender.stats().remote_ops as f64 / wall,
        retired_per_ctx_per_cycle,
        alone_ops_per_cycle: alone.stats().ipc(),
    }
}

/// One cell's measurements, field for field the cache payload: the cycle
/// fields and slowdown that `fig5/cells` measures, then the tail fields
/// that `fig5/tails` adds. Grid coordinates come from the cell's index.
#[derive(Debug, Clone, Copy, Default)]
struct Measured {
    utilization: f64,
    density: f64,
    energy_nj: f64,
    stp: f64,
    slowdown: f64,
    remote_ops_per_us: f64,
    density_norm: f64,
    p99: f64,
    saturated: bool,
    iso_p99: f64,
    iso_sat: bool,
}

impl Measured {
    fn encode(&self) -> String {
        let mut w = PayloadWriter::new();
        w.f64("utilization", self.utilization);
        w.f64("density", self.density);
        w.f64("energy_nj", self.energy_nj);
        w.f64("stp", self.stp);
        w.f64("slowdown", self.slowdown);
        w.f64("remote_ops_per_us", self.remote_ops_per_us);
        w.f64("density_norm", self.density_norm);
        w.f64("p99", self.p99);
        w.bool("saturated", self.saturated);
        w.f64("iso_p99", self.iso_p99);
        w.bool("iso_sat", self.iso_sat);
        w.finish()
    }

    fn decode(payload: &str) -> Option<Self> {
        let mut r = PayloadReader::new(payload);
        let c = Self {
            utilization: r.f64("utilization")?,
            density: r.f64("density")?,
            energy_nj: r.f64("energy_nj")?,
            stp: r.f64("stp")?,
            slowdown: r.f64("slowdown")?,
            remote_ops_per_us: r.f64("remote_ops_per_us")?,
            density_norm: r.f64("density_norm")?,
            p99: r.f64("p99")?,
            saturated: r.bool("saturated")?,
            iso_p99: r.f64("iso_p99")?,
            iso_sat: r.bool("iso_sat")?,
        };
        r.done().then_some(c)
    }
}

/// Content-addressed cache keys for every (workload, load, design) cell
/// of the Figure 5 grid, in the driver's workload-major evaluation order.
/// A cell's payload covers its cycle-level measurements *and* its tail
/// fields; the deterministic normalization post-pass is recomputed on
/// every run, so the key digests everything upstream of it — grid
/// coordinates, horizons, seed, queueing controls, fault plan.
#[must_use]
pub fn cell_keys(opts: &Fig5Options) -> Vec<CellKey> {
    let mut keys = Vec::new();
    for &workload in &opts.workloads {
        for &load in &opts.loads {
            for &design in &opts.designs {
                keys.push(CellKey::build("fig5", |w| {
                    workload.digest(w);
                    design.digest(w);
                    w.field_f64("load", load);
                    w.field_u64("horizon_cycles", opts.horizon_cycles);
                    w.field_u64("seed", opts.seed);
                    w.field("queue", &opts.queue);
                    w.field("fault", &opts.fault);
                    // Cells fast-forward; digested so keys stay stable.
                    Stepping::FastForward.digest(w);
                }));
            }
        }
    }
    keys
}

/// Tracing controls for [`run_fig5_traced`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Ring-buffer capacity per traced cell, in events. When a cell emits
    /// more, the oldest events are dropped (and counted in
    /// [`TraceLog::dropped`]).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 1 << 16 }
    }
}

/// Result of [`run_fig5_traced`]: the Figure 5 cells plus, when tracing was
/// requested, one [`TraceLog`] per cycle-simulation and tail-simulation
/// cell and a merged metrics [`Registry`].
#[derive(Debug)]
pub struct Fig5Run {
    /// The Figure 5 grid, identical to [`run_fig5`]'s output.
    pub cells: Vec<Fig5Cell>,
    /// Per-cell trace logs, labeled `cells/<design>/<workload>@<load>` for
    /// cycle simulations and `tails/...` for queueing simulations, in
    /// deterministic grid order. Empty when tracing was not requested.
    pub traces: Vec<(String, TraceLog)>,
    /// Every cell's counters/observations merged under its trace label.
    pub registry: Registry,
}

/// Runs the full Figure 5 grid.
///
/// # Panics
///
/// Panics if the options omit [`Design::Baseline`] (the normalization
/// reference), contain no loads/workloads, or hold a load outside `(0, 1)`
/// — NaN included. These checks run on the calling thread, before the
/// lender reference, calibration or any cell.
#[must_use]
pub fn run_fig5(opts: &Fig5Options) -> Vec<Fig5Cell> {
    run_fig5_traced(opts, None).cells
}

/// [`run_fig5`] with optional cycle-domain tracing.
///
/// Each grid cell gets its own tracer, created inside the cell closure and
/// harvested through the pool's index-ordered result slots, so the combined
/// trace output is **bit-identical for every worker count** — and because
/// tracing consumes no RNG draws, `cells` is bit-identical to [`run_fig5`]
/// whether tracing is on or off.
///
/// # Panics
///
/// Panics under the same conditions as [`run_fig5`].
#[must_use]
pub fn run_fig5_traced(opts: &Fig5Options, trace: Option<&TraceConfig>) -> Fig5Run {
    let base_col = opts
        .designs
        .iter()
        .position(|&d| d == Design::Baseline)
        .expect("baseline required for normalization");
    assert!(
        !opts.loads.is_empty() && !opts.workloads.is_empty(),
        "empty grid"
    );
    if let Some(load) = opts.loads.iter().find(|&&l| !(l > 0.0 && l < 1.0)) {
        panic!("fig5: load {load} is not in (0, 1)");
    }

    let pool = ExecPool::new(opts.threads);
    // The lender reference and the fresh cells share the filler graph at
    // `opts.seed`; the calibrations share theirs and their kernels.
    let inputs = SharedInputs::new();

    // Grid in (workload, load, design) lexicographic order, so cell `i`'s
    // row starts at `i - i % designs` and its anchor, the row's Baseline
    // (every normalization's denominator), sits `base_col` further on.
    // Probed against the cell cache up front so every later pass touches
    // misses only. Tracing bypasses the cache entirely: trace logs are not
    // cached, and a partially traced grid would not be worth having.
    let grid: Vec<(Workload, f64, Design)> = opts
        .workloads
        .iter()
        .flat_map(|&w| {
            opts.loads
                .iter()
                .flat_map(move |&l| opts.designs.iter().map(move |&d| (w, l, d)))
        })
        .collect();
    let anchor = |i: usize| i - i % opts.designs.len() + base_col;
    let cache = if trace.is_some() {
        None
    } else {
        opts.cache.as_ref()
    };
    let keys = cell_keys(opts);
    let hits = match cache {
        Some(c) => c.probe(&keys, Measured::decode),
        None => vec![None; grid.len()],
    };
    let misses = miss_indices(&hits);

    // The lender reference feeds only fresh cycle cells; a fully warm grid
    // skips it (it is the one serial stretch of a cold run).
    let lender_ref =
        (!misses.is_empty()).then(|| lender_reference(opts.horizon_cycles / 2, opts.seed, &inputs));

    // Pass 1: per-(workload, design) service-time slowdowns from dedicated
    // saturated runs — the analogue of the paper's "measure IPC in gem5 and
    // use it to determine the service rate" (§V). Saturated runs yield many
    // requests with no queueing-delay contamination. Each calibration cell
    // seeds itself from the experiment seed alone, so the grid parallelizes
    // with bit-identical results; the baseline ratio is taken per fresh cell
    // below. Only pairs reachable from a missed cell calibrate (each missed
    // (w, d) plus its (w, baseline) anchor): calibrations are
    // pair-independent pure functions, so a subset run is bit-identical.
    let pairs: Vec<(Workload, Design)> = opts
        .workloads
        .iter()
        .flat_map(|&w| opts.designs.iter().map(move |&d| (w, d)))
        .filter(|&(w, d)| {
            misses.iter().any(|&i| {
                let (mw, _, md) = grid[i];
                mw == w && (md == d || d == Design::Baseline)
            })
        })
        .collect();
    let services = pool.run("fig5/calibrate", pairs.len(), |i| {
        let (workload, design) = pairs[i];
        saturated_service_us(
            design,
            workload,
            opts.horizon_cycles / 3,
            derive_stream(opts.seed, 0x5A7),
            &inputs,
        )
    });
    let service_of = |workload: Workload, design: Design| -> Option<f64> {
        pairs
            .iter()
            .position(|&(w, d)| w == workload && d == design)
            .and_then(|i| services[i])
    };

    // Pass 2: cycle simulations of the missed cells. Every cell's ServerSim
    // derives its streams from (seed, design, workload, load) internally, so
    // scheduling order cannot perturb the metrics. Hit cells carry their
    // slowdown in the payload.
    let new_tracer = || match trace {
        Some(t) => Tracer::enabled(t.capacity, 1000.0),
        None => Tracer::disabled(),
    };
    let mut traces = Vec::new();
    // Labels a phase's trace logs, one per miss, in miss order.
    let mut harvest = |phase: &str, logs: Vec<Option<TraceLog>>| {
        for (&i, log) in misses.iter().zip(logs) {
            if let Some(log) = log {
                let (workload, load, design) = grid[i];
                traces.push((format!("{phase}/{design}/{workload}@{load:.2}"), log));
            }
        }
    };
    let (fresh, logs): (Vec<Measured>, _) = pool
        .run("fig5/cells", misses.len(), |j| {
            let (workload, load, design) = grid[misses[j]];
            let tracer = new_tracer();
            let metrics = ServerSim::new(design, workload)
                .load(load)
                .horizon_cycles(opts.horizon_cycles)
                .seed(opts.seed)
                .run_shared(&tracer, &inputs);
            let lender_ref = lender_ref.as_ref().expect("computed when any cell misses");
            let base = service_of(workload, Design::Baseline);
            let mine = service_of(workload, design);
            let stall = workload.service_model().mean_stall_us();
            let cell = measure(design, metrics, lender_ref, slowdown(base, mine, stall));
            (cell, tracer.is_enabled().then(|| tracer.take()))
        })
        .into_iter()
        .unzip();
    harvest("cells", logs);
    let mut cells = assemble(hits, fresh);

    // Pass 3: queueing simulations of the missed cells, parallel per cell.
    // Each tail run builds a fresh RNG from (seed, workload, load), so a
    // cell's own tail and its iso-throughput tail are pure functions of its
    // record and its anchor's density.
    let (tailed, logs): (Vec<Measured>, _) = pool
        .run("fig5/tails", misses.len(), |j| {
            let i = misses[j];
            let (workload, load, _) = grid[i];
            let c = cells[i];
            let density_norm = c.density / cells[anchor(i)].density.max(f64::MIN_POSITIVE);
            let tail = |scale, tracer: &Tracer| {
                tail_latency(workload, load, c.slowdown, scale, opts, tracer)
            };
            let tracer = new_tracer();
            let (p99, saturated) = tail(1.0, &tracer);
            let (iso_p99, iso_sat) = tail(density_norm, &Tracer::disabled());
            let cell = Measured {
                density_norm,
                p99,
                saturated,
                iso_p99,
                iso_sat,
                ..c
            };
            (cell, tracer.is_enabled().then(|| tracer.take()))
        })
        .into_iter()
        .unzip();
    harvest("tails", logs);
    for (cell, &i) in tailed.into_iter().zip(&misses) {
        cells[i] = cell;
        if let Some(c) = cache {
            c.store(&keys[i], &cell.encode());
        }
    }

    // Deterministic post-pass: normalization against each row's anchor.
    // The Baseline's density_norm is exactly 1.0 (x/x), and both p99
    // denominators are its tail at the unscaled arrival rate.
    let norm = |x: f64, by: f64| x / by.max(f64::MIN_POSITIVE);
    let cells: Vec<Fig5Cell> = grid
        .iter()
        .zip(&cells)
        .enumerate()
        .map(|(i, (&(workload, load, design), c))| {
            let base = &cells[anchor(i)];
            Fig5Cell {
                design,
                workload,
                load,
                utilization: c.utilization,
                perf_density_norm: c.density_norm,
                energy_norm: norm(c.energy_nj, base.energy_nj),
                p99_us: c.p99,
                p99_norm: norm(c.p99, base.p99),
                iso_p99_us: c.iso_p99,
                iso_p99_norm: norm(c.iso_p99, base.p99),
                stp_norm: norm(c.stp, base.stp),
                saturated: c.saturated || c.iso_sat,
                service_slowdown: c.slowdown,
                remote_ops_per_us: c.remote_ops_per_us,
            }
        })
        .collect();

    let mut registry = Registry::default();
    for (label, log) in &traces {
        registry.merge_prefixed(label, &log.registry);
    }
    if log_enabled() {
        let saturated = cells.iter().filter(|c| c.saturated).count();
        log_line(&format!(
            "fig5: {} cells ({} designs × {} workloads × {} loads), {} saturated, {} traced, seed {}",
            cells.len(),
            opts.designs.len(),
            opts.workloads.len(),
            opts.loads.len(),
            saturated,
            traces.len(),
            opts.seed,
        ));
    }
    Fig5Run {
        cells,
        traces,
        registry,
    }
}

/// The cycle-level fields of a fresh cell measured as `metrics`, with its
/// calibrated `slowdown`; the tail fields wait for the `fig5/tails` pass.
fn measure(
    design: Design,
    metrics: DesignMetrics,
    lender_ref: &LenderReference,
    slowdown: f64,
) -> Measured {
    let wall = metrics.wall_cycles.max(1) as f64;
    let wall_us = metrics.wall_us().max(1e-9);
    let utilization = metrics.utilization(4);

    // Throughput of the dyad-equivalent unit (add the §VI-B paired lender
    // for designs that lack one).
    let internal =
        (metrics.master_retired + metrics.colocated_retired + metrics.lender_retired) as f64;
    let paired_lender_ops = if design.has_lender() {
        0.0
    } else {
        lender_ref.ops_per_cycle * wall
    };
    let total_ops = internal + paired_lender_ops;
    let kind = core_kind_for(design);
    let density = total_ops / wall_us / chip_area_mm2(kind);

    // Power: main core + lender + LLC leakage.
    let main_ipc = (metrics.master_retired + metrics.colocated_retired) as f64 / wall;
    let ino_fraction = if metrics.master_retired + metrics.colocated_retired == 0 {
        0.0
    } else {
        metrics.colocated_retired as f64
            / (metrics.master_retired + metrics.colocated_retired) as f64
    };
    let lender_ipc = if design.has_lender() {
        metrics.lender_retired as f64 / wall
    } else {
        lender_ref.ops_per_cycle
    };
    let main_power = power_w(kind, main_ipc, metrics.clock_ghz, ino_fraction).total_w();
    let lender_power = power_w(CoreKind::LenderCore, lender_ipc, 3.4, 1.0).total_w();
    let llc_power = 2.0 * LLC_MM2_PER_MB * duplexity_power::energy::STATIC_W_PER_MM2;
    let total_power = main_power + lender_power + llc_power;
    let ops_per_ns = total_ops / (wall_us * 1000.0);
    let energy_nj = total_power / ops_per_ns.max(f64::MIN_POSITIVE);

    // STP over batch threads.
    let alone = lender_ref.alone_ops_per_cycle.max(f64::MIN_POSITIVE);
    let mut stp: f64 = metrics
        .retired_by_ctx
        .iter()
        .map(|&r| (r as f64 / wall) / alone)
        .sum();
    if !design.has_lender() {
        stp += lender_ref
            .retired_per_ctx_per_cycle
            .iter()
            .map(|&r| r / alone)
            .sum::<f64>();
    }

    // Remote operation rate for Figure 6.
    let mut remote_ops = (metrics.remote_ops_master + metrics.remote_ops_batch) as f64;
    if !design.has_lender() {
        remote_ops += lender_ref.remote_ops_per_cycle * wall;
    }
    let remote_ops_per_us = remote_ops / wall_us;

    Measured {
        utilization,
        density,
        energy_nj,
        stp,
        slowdown,
        remote_ops_per_us,
        ..Measured::default()
    }
}

/// Runs the BigHouse-style tail simulation for the cell at (`workload`,
/// `load`) whose service runs `slowdown` times slower; `density_norm`
/// rescales the arrival rate for the iso-throughput variant (Fig. 5(e)).
///
/// Returns `(p99_us, saturated)`; a saturated queue reports `inf`.
fn tail_latency(
    workload: Workload,
    load: f64,
    slowdown: f64,
    density_norm: f64,
    opts: &Fig5Options,
    tracer: &Tracer,
) -> (f64, bool) {
    let nominal = workload.nominal_service_us();
    let lambda = load / nominal / density_norm.max(f64::MIN_POSITIVE);
    let model = workload.service_model();
    let (scaled_mean, mut service) = scaled_service(&model, slowdown, opts.fault);
    if lambda * scaled_mean >= 0.95 {
        return (f64::INFINITY, true);
    }
    let mut qopts = opts.queue;
    // Common random numbers across designs: every design's queue sees the
    // same arrival/service sample path for a given (workload, load) cell, so
    // normalized tails reflect service scaling, not sampling noise.
    qopts.seed = derive_stream(
        opts.seed,
        0x5D00 ^ ((load * 1000.0) as u64) ^ ((nominal * 16.0) as u64) << 16,
    );
    // The pre-guard above is a cheap bound; the DES pilot is the
    // authoritative stability check, and its typed Unstable verdict marks
    // the cell saturated instead of killing the whole figure.
    match try_simulate_mg1_traced(lambda, &mut service, &qopts, tracer) {
        Ok(r) => (r.tail_us, false),
        Err(_) => (f64::INFINITY, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Fig5Options {
        Fig5Options {
            loads: vec![0.5],
            workloads: vec![Workload::McRouter],
            designs: vec![Design::Baseline, Design::Smt, Design::Duplexity],
            horizon_cycles: 1_200_000,
            seed: 42,
            queue: Mg1Options {
                max_samples: 150_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            fault: FaultPlan::none(),
            threads: 0,
            cache: None,
        }
    }

    #[test]
    fn fault_axis_inflates_tails_without_touching_cycle_metrics() {
        use duplexity_net::RetryPolicy;
        let clean = run_fig5(&tiny_opts());
        let mut faulted_opts = tiny_opts();
        faulted_opts.fault = FaultPlan::none()
            .with_drop(0.05)
            .with_retry(RetryPolicy::new(4, 10.0, 2.0, 16.0));
        let faulted = run_fig5(&faulted_opts);
        for (a, b) in clean.iter().zip(&faulted) {
            // The cycle-level metrics are upstream of the fault layer.
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.perf_density_norm, b.perf_density_norm);
            assert_eq!(a.service_slowdown, b.service_slowdown);
            // Drops + timeouts can only push the tail up.
            assert!(
                b.p99_us > a.p99_us,
                "{}: faulted p99 {} vs clean {}",
                a.design,
                b.p99_us,
                a.p99_us
            );
        }
    }

    #[test]
    fn tiny_grid_reproduces_headline_ordering() {
        let cells = run_fig5(&tiny_opts());
        assert_eq!(cells.len(), 3);
        let get = |d: Design| cells.iter().find(|c| c.design == d).unwrap();
        let base = get(Design::Baseline);
        let dup = get(Design::Duplexity);

        // 5(a): Duplexity fills holes the baseline wastes.
        assert!(dup.utilization > 1.8 * base.utilization);
        // Normalizations are 1.0 for the baseline itself.
        assert!((base.perf_density_norm - 1.0).abs() < 1e-9);
        assert!((base.energy_norm - 1.0).abs() < 1e-9);
        assert!((base.p99_norm - 1.0).abs() < 1e-9);
        // 5(b): Duplexity's density beats baseline.
        assert!(
            dup.perf_density_norm > 1.1,
            "density {}",
            dup.perf_density_norm
        );
        // 5(c): and it spends less energy per op.
        assert!(dup.energy_norm < 0.95, "energy {}", dup.energy_norm);
        // 5(f): more batch progress than the idle-paired baseline.
        assert!(dup.stp_norm > 0.5);
    }

    #[test]
    fn duplexity_iso_tail_beats_baseline() {
        let cells = run_fig5(&tiny_opts());
        let dup = cells
            .iter()
            .find(|c| c.design == Design::Duplexity)
            .unwrap();
        assert!(!dup.saturated);
        // 5(e): at equal cost, Duplexity's p99 is lower than baseline's.
        assert!(dup.iso_p99_norm < 1.0, "iso p99 norm {}", dup.iso_p99_norm);
        // 5(d): and its straight p99 inflation is modest.
        assert!(dup.p99_norm < 1.6, "p99 norm {}", dup.p99_norm);
    }

    /// Pins the STP-denominator reference and the cell values derived from
    /// it, to exact bit patterns. `alone_ops_per_cycle` was historically
    /// computed as `ipc() / h * h` — a no-op divide-then-multiply now
    /// simplified to `ipc()` — and this test proves the simplification (and
    /// any future refactor of the reference runs) is value-preserving.
    #[test]
    fn lender_reference_and_derived_cells_are_pinned() {
        let r = lender_reference(600_000, 42, &SharedInputs::new());
        assert_eq!(r.ops_per_cycle, 2.713738333333333);
        assert_eq!(r.remote_ops_per_cycle, 0.001015);
        assert_eq!(r.alone_ops_per_cycle, 0.29205);

        let cells = run_fig5(&tiny_opts());
        let get = |d: Design| cells.iter().find(|c| c.design == d).unwrap();
        assert_eq!(get(Design::Baseline).stp_norm, 1.0);
        assert_eq!(get(Design::Baseline).perf_density_norm, 1.0);
        assert_eq!(get(Design::Smt).stp_norm, 1.2172071367725825);
        assert_eq!(get(Design::Smt).perf_density_norm, 1.1904130350524866);
        assert_eq!(get(Design::Duplexity).stp_norm, 2.046106754335809);
        assert_eq!(get(Design::Duplexity).perf_density_norm, 1.8896520651251965);
    }

    #[test]
    #[should_panic(expected = "baseline required")]
    fn requires_baseline() {
        let mut o = tiny_opts();
        o.designs = vec![Design::Duplexity];
        let _ = run_fig5(&o);
    }
}
