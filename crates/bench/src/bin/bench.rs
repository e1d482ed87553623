//! Standing perf-trajectory benchmark for the cycle simulator.
//!
//! ```text
//! bench [--smoke] [--seed N] [--threads N] [--out FILE] [--guard BASELINE]
//! ```
//!
//! Times a stall-heavy Figure 5 configuration twice in the same process —
//! once with [`Stepping::Naive`] (step every cycle) and once with
//! [`Stepping::FastForward`] (skip provably quiescent spans) — asserts the
//! two grids are cell-for-cell identical, then times the fault-policy,
//! cluster balancing, duplication/hedging and two-level rack sweeps once
//! each, at the Bench presets under `--smoke` and the Quick presets
//! otherwise, recording one [`SweepBench`] per sweep. The hedge and rack
//! grids must issue duplicate copies and steals. Two event-core sections
//! follow: requests/sec per engine (legacy Lindley loop, event heap, event
//! wheel; cluster and hedged cells; the rack front end under a fresh plan)
//! over five interleaved passes, and the legacy-vs-fast cluster-sweep path
//! (timing wheel + batched RNG + within-cell parallel replications). An `obs` section times latency
//! collection through the streaming [`LatencySketch`] against the exact
//! sorted-vector estimator over one deterministic stream and records the
//! sketch's p99 relative error. Writes the measurements as
//! JSON (default `BENCH_cycles.json`) with a [`RunManifest`] sidecar so
//! CI can archive a perf trajectory across commits.
//!
//! A `cache` section times the standing fig5 + cluster-sweep grids twice
//! through the content-addressed cell cache — once cold (empty directory)
//! and once warm — asserts the two artifacts are byte-identical, and
//! asserts the warm pass is at least [`MIN_WARM_SPEEDUP`]x faster.
//!
//! `--guard BASELINE` compares measured metrics against the committed
//! baseline JSON (`BENCH_baseline.json`): a `metrics` object keyed by
//! report path (e.g. `engine_core.wheel_vs_heap_rps_ratio`), each entry
//! carrying the healthy `value` and an optional per-metric `tolerance`
//! (default [`GUARD_TOLERANCE`]). The build fails, naming the offending
//! metric, if any measurement lands below `(1 - tolerance) * value`. All
//! guarded metrics are ratios measured within one process, not absolute
//! rates, so the baselines travel across CI hosts; the two engine-core
//! ratios are medians over the interleaved passes.
//!
//! An unknown flag, a flag missing its value, or a `--seed`/`--threads`
//! value that does not parse exits with status 2 before anything runs.
//!
//! `--smoke` shrinks horizons for a fast CI pass; `--threads 1` (the
//! default here) keeps per-mode wall times comparable across machines with
//! different core counts. The speedup is end-to-end: it includes the
//! never-skipped lender-reference calibration and the queueing runs both
//! modes share, so it under-states the raw cycle-loop gain.

use duplexity::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};
use duplexity::experiments::fault_sweep::fault_sweep;
use duplexity::experiments::fig5::{run_fig5, Fig5Cell, Fig5Options};
use duplexity::experiments::hedge_sweep::hedge_sweep;
use duplexity::experiments::rack_sweep::rack_sweep;
use duplexity::{CellCache, Design, Workload};
use duplexity_bench::{Fidelity, Flags};
use duplexity_cpu::designs::Stepping;
use duplexity_obs::{manifest_path, LatencySketch, RunManifest, Tracer};
use duplexity_queueing::cluster::{
    try_simulate_cluster, try_simulate_cluster_hedged, BalancerPolicy, ClusterEngine,
    ClusterOptions, DuplicationPolicy,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_queueing::rack::{try_simulate_rack, RackPlan};
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{rng_from_seed, SimRng};
use serde::{Serialize, Value};
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ModeTiming {
    wall_s: f64,
    cells_per_sec: f64,
    sim_cycles_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Fig5Bench {
    designs: Vec<Design>,
    workloads: Vec<Workload>,
    loads: Vec<f64>,
    horizon_cycles: u64,
    cells: usize,
    /// Cycle-loop iterations a naive pass performs: one horizon per grid
    /// cell, a third per calibration pair, and the lender-reference runs
    /// (half a horizon for the pooled lender, a quarter for the lone batch
    /// thread).
    nominal_sim_cycles: u64,
    naive: ModeTiming,
    fast_forward: ModeTiming,
    speedup: f64,
    results_identical: bool,
}

/// One timed sweep grid.
#[derive(Debug, Serialize)]
struct SweepBench {
    points: usize,
    saturated: usize,
    wall_s: f64,
    points_per_sec: f64,
}

impl SweepBench {
    /// The record of `points`, a grid that ran in `wall_s` seconds.
    fn of<P>(points: &[P], wall_s: f64, saturated: fn(&P) -> bool) -> SweepBench {
        SweepBench {
            points: points.len(),
            saturated: points.iter().filter(|p| saturated(p)).count(),
            wall_s,
            points_per_sec: points.len() as f64 / wall_s.max(1e-12),
        }
    }
}

/// One timed engine run over a fixed single-cell configuration: the best
/// wall time over the passes, and every pass's wall time in pass order.
#[derive(Debug, Serialize)]
struct EngineTiming {
    engine: String,
    requests: u64,
    wall_s: f64,
    requests_per_sec: f64,
    pass_wall_s: Vec<f64>,
}

/// Requests/sec per future-event-set on one fixed cell, with and without
/// duplication, plus the wheel:heap throughput ratio the CI guard tracks.
#[derive(Debug, Serialize)]
struct EngineCoreBench {
    servers: usize,
    load: f64,
    samples_per_run: usize,
    /// Zero-duplication cell: legacy Lindley loop, event heap, event wheel.
    cluster: Vec<EngineTiming>,
    /// Hedged cell (`hedge10`): event heap vs event wheel.
    hedged: Vec<EngineTiming>,
    /// The rack front end with a fresh plan on the wheel, same cell.
    rack_fresh: EngineTiming,
    /// Wheel:heap throughput ratio over the combined cluster + hedged
    /// work (total heap wall / total wheel wall), the median over the
    /// timed passes — a machine-relative number (both runs share the
    /// process and inputs), so a committed baseline of it travels across
    /// CI hosts.
    wheel_vs_heap_rps_ratio: f64,
    /// Fresh-rack:event-wheel throughput ratio on the zero-duplication
    /// cell, the median over the timed passes. Both run the one request
    /// engine, so a fresh plan must cost what `none` costs; a drop means
    /// fresh plans pay for rack features.
    rack_fresh_vs_event_rps_ratio: f64,
}

/// The legacy sweep path (Lindley, one worker, one pass per cell) against
/// the fast path (timing wheel + batched RNG + within-cell parallel
/// replications) over the identical grid.
#[derive(Debug, Serialize)]
struct SweepPathBench {
    points: usize,
    requests: u64,
    /// Cores the host actually exposes. Within-cell parallelism can only
    /// convert replications into wall-clock speedup up to this bound —
    /// on a 1-core CI runner the fast path's thread fan-out is pure
    /// overhead and the recorded speedup reflects the serial engines.
    available_cores: usize,
    legacy_wall_s: f64,
    legacy_requests_per_sec: f64,
    fast_threads: usize,
    fast_replications: usize,
    fast_wall_s: f64,
    fast_requests_per_sec: f64,
    speedup: f64,
}

/// Collection overhead of the streaming tail sketch against the exact
/// sorted-vector estimator, over one deterministic exponential stream.
#[derive(Debug, Serialize)]
struct ObsBench {
    samples: usize,
    /// Exact path: `Vec` push + lazy sort at query time.
    vec_wall_s: f64,
    vec_msamples_per_sec: f64,
    /// Sketch path: log-bucket index + counter increment per sample.
    sketch_wall_s: f64,
    sketch_msamples_per_sec: f64,
    /// Sketch:vec collection throughput ratio (same stream, same process).
    sketch_vs_vec_ratio: f64,
    /// |sketch p99 − exact p99| / exact p99 — must stay within the
    /// sketch's documented relative-accuracy bound.
    p99_relative_error: f64,
}

/// Cold-vs-warm timing of the standing fig5 + cluster-sweep grids through
/// the content-addressed cell cache: identical options, one empty cache
/// directory, two passes in the same process.
#[derive(Debug, Serialize)]
struct CellCacheBench {
    /// Cells the two grids probe (fig5 loads + cluster sweep points).
    cells: u64,
    cold_wall_s: f64,
    warm_wall_s: f64,
    /// cold:warm wall ratio — the headline the guard tracks.
    warm_speedup: f64,
    cold_misses: u64,
    warm_hits: u64,
    bytes_written: u64,
    /// Whether the warm artifacts were byte-identical to the cold ones
    /// (also asserted, so a report ever carrying `false` never ships).
    identical: bool,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    seed: u64,
    threads: usize,
    smoke: bool,
    fig5: Fig5Bench,
    fault_sweep: SweepBench,
    cluster_sweep: SweepBench,
    hedge_sweep: SweepBench,
    rack_sweep: SweepBench,
    engine_core: EngineCoreBench,
    sweep_path: SweepPathBench,
    obs: ObsBench,
    cache: CellCacheBench,
}

/// Fractional regression a guarded metric tolerates before failing the
/// build, when its baseline entry does not carry its own `tolerance`.
const GUARD_TOLERANCE: f64 = 0.15;

/// Minimum cold:warm speedup the cell-cache section must demonstrate.
const MIN_WARM_SPEEDUP: f64 = 5.0;

/// Numeric leaf of the baseline JSON, whatever integer/float shape the
/// vendored parser gave it.
fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Mean service time of the engine benchmark cell, µs.
const BENCH_MEAN_SERVICE_US: f64 = 2.0;

/// The fixed engine benchmark cell: `servers` at `load` with exponential
/// service, `samples` measured requests per run.
#[derive(Debug, Clone, Copy)]
struct EngineCell {
    servers: usize,
    load: f64,
    samples: usize,
    seed: u64,
}

impl EngineCell {
    /// Arrival rate and run options on `kind`. Early stopping is off, so
    /// every engine does identical work.
    fn setup(&self, kind: EventQueueKind) -> (f64, ClusterOptions) {
        let opts = ClusterOptions {
            servers: self.servers,
            max_samples: self.samples,
            warmup: 1_000,
            max_relative_error: 0.001,
            seed: self.seed,
            event_queue: kind,
            ..ClusterOptions::default()
        };
        (
            self.servers as f64 * self.load / BENCH_MEAN_SERVICE_US,
            opts,
        )
    }
}

/// One timed run: re-runs the benchmark cell and returns the requests it
/// measured.
type EngineRun<'a> = (&'static str, Box<dyn FnMut() -> u64 + 'a>);

/// Passes [`time_interleaved`] times every run.
const PASSES: usize = 5;

/// Times each run [`PASSES`] times, interleaving the runs pass by pass: a
/// slow patch on a shared host hits every run of a pass alike, so the CI
/// guard compares runs within a pass and takes the median over passes.
/// The work is deterministic, so the fastest pass is each run's least
/// scheduler-perturbed wall time.
fn time_interleaved(mut runs: Vec<EngineRun<'_>>) -> Vec<EngineTiming> {
    let mut requests = vec![0u64; runs.len()];
    let mut walls = vec![Vec::with_capacity(PASSES); runs.len()];
    for _ in 0..PASSES {
        for (i, (_, run)) in runs.iter_mut().enumerate() {
            let (n, wall_s) = timed(run);
            requests[i] = n;
            walls[i].push(wall_s);
        }
    }
    runs.iter()
        .zip(requests)
        .zip(walls)
        .map(|(((label, _), requests), pass_wall_s)| {
            let wall_s = pass_wall_s.iter().copied().fold(f64::INFINITY, f64::min);
            EngineTiming {
                engine: label.to_string(),
                requests,
                wall_s,
                requests_per_sec: requests as f64 / wall_s.max(1e-12),
                pass_wall_s,
            }
        })
        .collect()
}

/// The median over the timed passes of `ratio(pass)`.
fn median_over_passes(ratio: impl Fn(usize) -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..PASSES).map(ratio).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PASSES / 2]
}

/// Runs `f` once, returning its result and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// One engine over the benchmark cell.
fn engine_run<'a>(
    cell: EngineCell,
    label: &'static str,
    engine: ClusterEngine,
    plan: &'a DuplicationPolicy,
) -> EngineRun<'a> {
    let kind = match engine {
        ClusterEngine::Event(kind) => kind,
        ClusterEngine::Lindley => EventQueueKind::default(),
    };
    let (lambda, opts) = cell.setup(kind);
    let service = Exponential::new(BENCH_MEAN_SERVICE_US);
    let run = move || {
        let mut svc = |rng: &mut SimRng| service.sample(rng);
        let mut balancer = BalancerPolicy::Jsq.build();
        let samples = match engine {
            ClusterEngine::Lindley => {
                try_simulate_cluster(
                    lambda,
                    &mut svc,
                    balancer.as_mut(),
                    &opts,
                    &Tracer::disabled(),
                )
                .expect("stable bench cell")
                .samples
            }
            ClusterEngine::Event(_) => {
                try_simulate_cluster_hedged(
                    lambda,
                    &mut svc,
                    balancer.as_mut(),
                    plan,
                    &opts,
                    &Tracer::disabled(),
                )
                .expect("stable bench cell")
                .cluster
                .samples
            }
        };
        samples as u64
    };
    (label, Box::new(run))
}

/// The rack front end under [`RackPlan::fresh`] on the timing wheel, over
/// the same cell.
fn rack_fresh_run(cell: EngineCell) -> EngineRun<'static> {
    let (lambda, opts) = cell.setup(EventQueueKind::Wheel);
    let service = Exponential::new(BENCH_MEAN_SERVICE_US);
    let run = move || {
        let mut svc = |rng: &mut SimRng| service.sample(rng);
        try_simulate_rack(
            lambda,
            &mut svc,
            BalancerPolicy::Jsq,
            &RackPlan::fresh(),
            &opts,
            &Tracer::disabled(),
        )
        .expect("stable bench cell")
        .cluster
        .samples as u64
    };
    ("rack_fresh_wheel", Box::new(run))
}

/// Times latency collection through the exact estimator and the streaming
/// sketch over the same deterministic exponential stream, best of three
/// passes each. The p99 error check doubles as an end-to-end accuracy
/// probe on a stream the unit tests never see.
fn bench_obs(seed: u64, samples: usize) -> ObsBench {
    let service = Exponential::new(2.0);
    let draw = |n: usize| {
        let mut rng = rng_from_seed(seed ^ 0x0b5);
        (0..n).map(|_| service.sample(&mut rng)).collect::<Vec<_>>()
    };
    let stream = draw(samples);

    let mut vec_wall = f64::INFINITY;
    let mut exact_p99 = 0.0;
    for _ in 0..3 {
        let (p99, wall_s) = timed(|| {
            let mut q = QuantileEstimator::with_capacity(stream.len());
            for &v in &stream {
                q.record(v);
            }
            q.quantile(0.99).expect("non-empty stream")
        });
        exact_p99 = p99;
        vec_wall = vec_wall.min(wall_s);
    }

    let mut sketch_wall = f64::INFINITY;
    let mut sketch_p99 = 0.0;
    for _ in 0..3 {
        let (p99, wall_s) = timed(|| {
            let mut s = LatencySketch::new();
            for &v in &stream {
                s.record(v);
            }
            s.quantile(0.99).expect("non-empty stream")
        });
        sketch_p99 = p99;
        sketch_wall = sketch_wall.min(wall_s);
    }

    ObsBench {
        samples,
        vec_wall_s: vec_wall,
        vec_msamples_per_sec: samples as f64 / vec_wall.max(1e-12) / 1e6,
        sketch_wall_s: sketch_wall,
        sketch_msamples_per_sec: samples as f64 / sketch_wall.max(1e-12) / 1e6,
        sketch_vs_vec_ratio: vec_wall / sketch_wall.max(1e-12),
        p99_relative_error: (sketch_p99 - exact_p99).abs() / exact_p99.max(1e-12),
    }
}

fn stall_heavy_opts(seed: u64, threads: usize, horizon: u64, stepping: Stepping) -> Fig5Options {
    Fig5Options {
        // Baseline only: the paper's motivating configuration, where the
        // master-core burns thousands of cycles per µs-scale stall doing
        // nothing — exactly the span fast-forward folds away. (Baseline is
        // also the normalization reference, so it is a valid 1-design grid.)
        designs: vec![Design::Baseline],
        workloads: vec![Workload::McRouter],
        loads: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        horizon_cycles: horizon,
        seed,
        queue: Mg1Options {
            max_samples: 20_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        threads,
        stepping,
        ..Fig5Options::default()
    }
}

/// Returns a description of the first naive/fast-forward disagreement, or
/// `None` when the grids are cell-for-cell identical. Naming the cell and
/// field turns a bit-identity violation from a yes/no verdict into a
/// reproducible bug report.
fn first_mismatch(a: &[Fig5Cell], b: &[Fig5Cell]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("grid sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let cell = format!(
            "{} / {} @ load {:.2}",
            x.design.name(),
            y.workload.name(),
            x.load
        );
        if x.design != y.design || x.workload != y.workload || x.load != y.load {
            return Some(format!(
                "grid order diverged at {cell} vs {} / {} @ load {:.2}",
                y.design.name(),
                y.workload.name(),
                y.load
            ));
        }
        let fields: [(&str, f64, f64); 8] = [
            ("utilization", x.utilization, y.utilization),
            (
                "perf_density_norm",
                x.perf_density_norm,
                y.perf_density_norm,
            ),
            ("energy_norm", x.energy_norm, y.energy_norm),
            ("p99_us", x.p99_us, y.p99_us),
            ("iso_p99_us", x.iso_p99_us, y.iso_p99_us),
            ("stp_norm", x.stp_norm, y.stp_norm),
            ("service_slowdown", x.service_slowdown, y.service_slowdown),
            (
                "remote_ops_per_us",
                x.remote_ops_per_us,
                y.remote_ops_per_us,
            ),
        ];
        for (name, naive, fast) in fields {
            if naive.to_bits() != fast.to_bits() {
                return Some(format!(
                    "{cell}: {name} naive {naive:?} vs fast-forward {fast:?}"
                ));
            }
        }
    }
    None
}

fn main() {
    let flags = Flags::from_env(&["--smoke"], &["--seed", "--threads", "--out", "--guard"]);
    let smoke = flags.has("--smoke");
    let seed = flags.parsed("--seed", 42u64);
    let threads = flags.parsed("--threads", 1usize);
    let out = flags.value("--out").unwrap_or("BENCH_cycles.json");

    let horizon: u64 = if smoke { 600_000 } else { 3_000_000 };
    let opts_of = |stepping| stall_heavy_opts(seed, threads, horizon, stepping);
    let grid = opts_of(Stepping::Naive);
    let cells = grid.loads.len() * grid.workloads.len() * grid.designs.len();
    let pairs = grid.workloads.len() * grid.designs.len();
    let nominal_sim_cycles =
        cells as u64 * horizon + pairs as u64 * (horizon / 3) + horizon / 2 + horizon / 4;

    eprintln!("bench: fig5 stall-heavy grid, naive stepping ({cells} cells, horizon {horizon})");
    let (naive_cells, naive_s) = timed(|| run_fig5(&opts_of(Stepping::Naive)));

    eprintln!("bench: fig5 stall-heavy grid, fast-forward stepping");
    let (fast_cells, fast_s) = timed(|| run_fig5(&opts_of(Stepping::FastForward)));

    let mismatch = first_mismatch(&naive_cells, &fast_cells);
    let identical = mismatch.is_none();
    assert!(
        identical,
        "fast-forward diverged from naive stepping — bit-identity contract broken at {}",
        mismatch.as_deref().unwrap_or("unknown cell")
    );

    let timing = |wall_s: f64| ModeTiming {
        wall_s,
        cells_per_sec: cells as f64 / wall_s.max(1e-12),
        sim_cycles_per_sec: nominal_sim_cycles as f64 / wall_s.max(1e-12),
    };
    let speedup = naive_s / fast_s.max(1e-12);

    let fid = if smoke {
        Fidelity::Bench
    } else {
        Fidelity::Quick
    };
    let mut fault_opts = fid.fault_sweep_options(seed);
    fault_opts.threads = threads;
    eprintln!("bench: fault-policy sweep");
    let (fault_points, fault_s) = timed(|| fault_sweep(&fault_opts));
    let mut cluster_opts = fid.cluster_sweep_options(seed);
    cluster_opts.threads = threads;
    eprintln!("bench: cluster balancing sweep");
    let (cluster_points, cluster_s) = timed(|| cluster_sweep(&cluster_opts));
    let mut hedge_opts = fid.hedge_sweep_options(seed);
    hedge_opts.threads = threads;
    eprintln!("bench: duplication/hedging sweep");
    let (hedge_points, hedge_s) = timed(|| hedge_sweep(&hedge_opts));
    let mut rack_opts = fid.rack_sweep_options(seed);
    rack_opts.threads = threads;
    eprintln!("bench: two-level rack sweep");
    let (rack_points, rack_s) = timed(|| rack_sweep(&rack_opts));
    // The timed grids must exercise duplication and work stealing, not
    // just plain dispatch.
    assert!(
        hedge_points.iter().map(|p| p.dup_copies).sum::<u64>() > 0,
        "the timed hedge grid issued no duplicate copies"
    );
    assert!(
        rack_points.iter().map(|p| p.steals).sum::<u64>() > 0,
        "the timed rack grid made no steals"
    );

    eprintln!("bench: event-core engines (heap vs wheel, cluster + hedged)");
    let cell = EngineCell {
        servers: 16,
        load: 0.6,
        samples: if smoke { 200_000 } else { 400_000 },
        seed,
    };
    let none = DuplicationPolicy::none();
    let hedge_plan = DuplicationPolicy::hedge(10.0);
    let (heap, wheel) = (
        ClusterEngine::Event(EventQueueKind::Heap),
        ClusterEngine::Event(EventQueueKind::Wheel),
    );
    // The fresh rack runs interleaved with the zero-duplication engines,
    // so its ratio to the event wheel compares like with like.
    let mut cluster_runs = time_interleaved(vec![
        engine_run(cell, "lindley", ClusterEngine::Lindley, &none),
        engine_run(cell, "event_heap", heap, &none),
        engine_run(cell, "event_wheel", wheel, &none),
        rack_fresh_run(cell),
    ]);
    let rack_fresh = cluster_runs.pop().expect("the rack run was timed");
    let hedged_runs = time_interleaved(vec![
        engine_run(cell, "event_heap", heap, &hedge_plan),
        engine_run(cell, "event_wheel", wheel, &hedge_plan),
    ]);
    let both: [&[EngineTiming]; 2] = [&cluster_runs, &hedged_runs];
    let pass_wall = |engine: &str, pass: usize| -> f64 {
        both.iter()
            .flat_map(|r| r.iter())
            .filter(|r| r.engine == engine)
            .map(|r| r.pass_wall_s[pass])
            .sum()
    };
    let wheel_vs_heap =
        median_over_passes(|i| pass_wall("event_heap", i) / pass_wall("event_wheel", i).max(1e-12));
    let event_wheel = cluster_runs
        .iter()
        .find(|r| r.engine == "event_wheel")
        .expect("the event wheel was timed");
    let pass_rps =
        |r: &EngineTiming, pass: usize| r.requests as f64 / r.pass_wall_s[pass].max(1e-12);
    let rack_fresh_vs_event =
        median_over_passes(|i| pass_rps(&rack_fresh, i) / pass_rps(event_wheel, i).max(1e-12));
    let engine_core = EngineCoreBench {
        servers: cell.servers,
        load: cell.load,
        samples_per_run: cell.samples,
        cluster: cluster_runs,
        hedged: hedged_runs,
        rack_fresh,
        wheel_vs_heap_rps_ratio: wheel_vs_heap,
        rack_fresh_vs_event_rps_ratio: rack_fresh_vs_event,
    };

    eprintln!("bench: cluster sweep, legacy path vs wheel + replications");
    let sweep_grid = |engine, threads, replications| ClusterSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Jsq],
        server_counts: vec![16],
        loads: vec![0.4, 0.6],
        calibration_cycles: 200_000,
        seed,
        queue: Mg1Options {
            max_samples: if smoke { 100_000 } else { 400_000 },
            warmup: 1_000,
            // Full-length cells: the two paths must do identical work.
            max_relative_error: 0.001,
            ..Mg1Options::default()
        },
        engine,
        threads,
        replications,
        ..ClusterSweepOptions::default()
    };
    // Results are bit-identical at any worker count, so clamp the fan-out
    // to what the host can actually run in parallel — more threads than
    // cores would measure scheduler overhead, not the engine.
    let fast_threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let fast_replications = 8;
    let (legacy_points, legacy_s) =
        timed(|| cluster_sweep(&sweep_grid(ClusterEngine::Lindley, 1, 1)));
    let fast_engine = ClusterEngine::Event(EventQueueKind::Wheel);
    let (fast_points, fast_s2) =
        timed(|| cluster_sweep(&sweep_grid(fast_engine, fast_threads, fast_replications)));
    let legacy_requests: u64 = legacy_points.iter().map(|p| p.samples as u64).sum();
    let fast_requests: u64 = fast_points.iter().map(|p| p.samples as u64).sum();
    let sweep_path = SweepPathBench {
        points: legacy_points.len(),
        requests: legacy_requests,
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        legacy_wall_s: legacy_s,
        legacy_requests_per_sec: legacy_requests as f64 / legacy_s.max(1e-12),
        fast_threads,
        fast_replications,
        fast_wall_s: fast_s2,
        fast_requests_per_sec: fast_requests as f64 / fast_s2.max(1e-12),
        speedup: (fast_requests as f64 / fast_s2.max(1e-12))
            / (legacy_requests as f64 / legacy_s.max(1e-12)).max(1e-12),
    };
    eprintln!(
        "bench: sweep path {:.2}x ({:.2}s legacy -> {:.2}s fast), wheel:heap ratio {wheel_vs_heap:.3}, \
         fresh-rack:event ratio {rack_fresh_vs_event:.3}",
        sweep_path.speedup, legacy_s, fast_s2
    );

    eprintln!("bench: observability collection overhead (sketch vs exact vector)");
    let obs = bench_obs(seed, if smoke { 2_000_000 } else { 8_000_000 });
    eprintln!(
        "bench: sketch {:.1} Msamples/s vs vec {:.1} Msamples/s ({:.2}x), p99 err {:.4}",
        obs.sketch_msamples_per_sec,
        obs.vec_msamples_per_sec,
        obs.sketch_vs_vec_ratio,
        obs.p99_relative_error
    );

    eprintln!("bench: cell cache, cold vs warm (fig5 + cluster sweep)");
    let cache_dir =
        std::env::temp_dir().join(format!("duplexity-cellcache-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    // One closure runs both grids against the given cache handle and
    // serializes the combined artifact, so the cold and warm passes are
    // character-for-character comparable.
    let run_cached = |cache: &CellCache| -> (String, f64) {
        let mut f5 = opts_of(Stepping::FastForward);
        f5.cache = Some(cache.clone());
        let mut cs = fid.cluster_sweep_options(seed);
        cs.threads = threads;
        cs.cache = Some(cache.clone());
        let ((f5_cells, cs_points), wall) = timed(|| (run_fig5(&f5), cluster_sweep(&cs)));
        let artifact = format!(
            "{}\n{}",
            serde_json::to_string_pretty(&f5_cells).expect("serialize fig5 cells"),
            serde_json::to_string_pretty(&cs_points).expect("serialize cluster points"),
        );
        (artifact, wall)
    };
    let cold_cache = CellCache::new(&cache_dir);
    let (cold_artifact, cold_wall) = run_cached(&cold_cache);
    let warm_cache = CellCache::new(&cache_dir);
    let (warm_artifact, warm_wall) = run_cached(&warm_cache);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let identical = cold_artifact == warm_artifact;
    let warm_speedup = cold_wall / warm_wall.max(1e-12);
    assert!(
        identical,
        "warm cell-cache artifacts diverged from cold — cache round-trip is not bit-exact"
    );
    assert_eq!(
        cold_cache.hits(),
        0,
        "cold pass found entries in a fresh cache dir"
    );
    assert_eq!(
        warm_cache.misses(),
        0,
        "warm pass missed cells the cold pass stored"
    );
    assert!(
        warm_cache.hits() > 0,
        "warm pass hit nothing — cache is inert"
    );
    assert!(
        warm_speedup >= MIN_WARM_SPEEDUP,
        "warm cache re-run only {warm_speedup:.2}x faster than cold (need >= {MIN_WARM_SPEEDUP}x)"
    );
    let cache_bench = CellCacheBench {
        cells: cold_cache.misses(),
        cold_wall_s: cold_wall,
        warm_wall_s: warm_wall,
        warm_speedup,
        cold_misses: cold_cache.misses(),
        warm_hits: warm_cache.hits(),
        bytes_written: cold_cache.bytes_written(),
        identical,
    };
    eprintln!(
        "bench: cache warm re-run {warm_speedup:.1}x faster ({cold_wall:.2}s cold -> {warm_wall:.3}s warm, {} cells)",
        cache_bench.cells
    );

    let report = BenchReport {
        seed,
        threads,
        smoke,
        fig5: Fig5Bench {
            designs: grid.designs.clone(),
            workloads: grid.workloads.clone(),
            loads: grid.loads.clone(),
            horizon_cycles: horizon,
            cells,
            nominal_sim_cycles,
            naive: timing(naive_s),
            fast_forward: timing(fast_s),
            speedup,
            results_identical: identical,
        },
        fault_sweep: SweepBench::of(&fault_points, fault_s, |p| p.saturated),
        cluster_sweep: SweepBench::of(&cluster_points, cluster_s, |p| p.saturated),
        hedge_sweep: SweepBench::of(&hedge_points, hedge_s, |p| p.saturated),
        rack_sweep: SweepBench::of(&rack_points, rack_s, |p| p.saturated),
        engine_core,
        sweep_path,
        obs,
        cache: cache_bench,
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(out, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    let manifest = RunManifest::new("bench", env!("CARGO_PKG_VERSION"))
        .seed(seed)
        .threads(threads)
        .event_queue(EventQueueKind::default().name())
        .with("smoke", smoke)
        .with("artifact", "bench");
    let mpath = manifest_path(std::path::Path::new(out));
    std::fs::write(&mpath, manifest.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", mpath.display());
        std::process::exit(1);
    });
    eprintln!(
        "bench: naive {naive_s:.2}s, fast-forward {fast_s:.2}s, speedup {speedup:.2}x -> {out}"
    );

    if let Some(baseline_path) = flags.value("--guard") {
        // Report paths the baseline may guard, with this run's measurements.
        let measured: &[(&str, f64)] = &[
            (
                "engine_core.wheel_vs_heap_rps_ratio",
                report.engine_core.wheel_vs_heap_rps_ratio,
            ),
            (
                "engine_core.rack_fresh_vs_event_rps_ratio",
                report.engine_core.rack_fresh_vs_event_rps_ratio,
            ),
            ("sweep_path.speedup", report.sweep_path.speedup),
            ("fig5.speedup", report.fig5.speedup),
            ("obs.sketch_vs_vec_ratio", report.obs.sketch_vs_vec_ratio),
            ("cache.warm_speedup", report.cache.warm_speedup),
        ];
        let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("guard: cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let root = serde_json::parse_value(&text).unwrap_or_else(|e| {
            eprintln!("guard: cannot parse baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let Some(Value::Object(metrics)) = root.get_field("metrics") else {
            eprintln!("guard: baseline {baseline_path} has no \"metrics\" object");
            std::process::exit(1);
        };
        let mut failed = false;
        for (name, spec) in metrics {
            let Some(baseline_value) = spec.get_field("value").and_then(value_as_f64) else {
                eprintln!("guard: metric {name} in {baseline_path} has no numeric \"value\"");
                failed = true;
                continue;
            };
            let tolerance = spec
                .get_field("tolerance")
                .and_then(value_as_f64)
                .unwrap_or(GUARD_TOLERANCE);
            let Some(&(_, m)) = measured.iter().find(|(n, _)| n == name) else {
                eprintln!("guard: metric {name} in {baseline_path} is not one this bench measures");
                failed = true;
                continue;
            };
            let floor = (1.0 - tolerance) * baseline_value;
            if m < floor {
                eprintln!(
                    "guard: {name} regressed — measured {m:.3} is below {floor:.3} \
                     ({:.0}% under the committed baseline {baseline_value:.3} in {baseline_path})",
                    tolerance * 100.0
                );
                failed = true;
            } else {
                eprintln!(
                    "guard: {name} {m:.3} within {:.0}% of baseline {baseline_value:.3}",
                    tolerance * 100.0
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
