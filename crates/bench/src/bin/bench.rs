//! Standing perf guard for the simulator's event core and cell cache.
//!
//! ```text
//! bench [--smoke] [--seed N] [--threads N] [--out FILE] [--guard BASELINE]
//! ```
//!
//! Writes two sections as JSON (default `BENCH_cycles.json`) with a
//! [`RunManifest`] sidecar:
//!
//! - `engine_core` times requests/sec per engine (legacy Lindley loop,
//!   event heap, event wheel; cluster and hedged cells; the rack front end
//!   under a fresh plan) over five interleaved passes, and records the
//!   wheel:heap and fresh-rack:event-wheel throughput ratios.
//! - `cache` times a stall-heavy Figure 5 grid plus the cluster sweep twice
//!   through the content-addressed cell cache — once cold (empty
//!   directory) and once warm — asserts the two artifacts are
//!   byte-identical, and asserts the warm pass is at least
//!   [`MIN_WARM_SPEEDUP`]x faster.
//!
//! `--guard BASELINE` compares measured metrics against the committed
//! baseline JSON (`BENCH_baseline.json`): a `metrics` object keyed by
//! report path (e.g. `engine_core.wheel_vs_heap_rps_ratio`), each entry
//! carrying the healthy `value` and an optional per-metric `tolerance`
//! (default [`GUARD_TOLERANCE`]). The build fails, naming the offending
//! metric, if any measurement lands below `(1 - tolerance) * value`. The
//! three guardable metrics are ratios measured within one process, not
//! absolute rates, so the baselines travel across CI hosts; the two
//! engine-core ratios are medians over the interleaved passes.
//!
//! An unknown flag, a flag missing its value, or a `--seed`/`--threads`
//! value that does not parse exits with status 2 before anything runs.
//!
//! `--smoke` shrinks horizons and sample counts for a fast CI pass;
//! `--threads` (default 1) sets the cache section's pool workers. The
//! layer-by-layer speed of the simulator, fast-forward and the sweeps
//! included, is the `bench/` benchmark's `--trace 1` ledger.

use duplexity::experiments::cluster_sweep::cluster_sweep;
use duplexity::experiments::fig5::{run_fig5, Fig5Options};
use duplexity::{CellCache, Design, Workload};
use duplexity_bench::{Fidelity, Flags};
use duplexity_obs::{manifest_path, RunManifest, Tracer};
use duplexity_queueing::cluster::{
    try_simulate_cluster, try_simulate_cluster_hedged, BalancerPolicy, ClusterOptions,
    DuplicationPolicy,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_queueing::rack::{try_simulate_rack, RackPlan};
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::rng::SimRng;
use serde::{Serialize, Value};
use std::time::Instant;

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
    engine_core: EngineCoreBench,
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

/// One engine over the benchmark cell: the event engine on `queue`, or
/// the Lindley loop when `queue` is `None`.
fn engine_run<'a>(
    cell: EngineCell,
    label: &'static str,
    queue: Option<EventQueueKind>,
    plan: &'a DuplicationPolicy,
) -> EngineRun<'a> {
    let (lambda, opts) = cell.setup(queue.unwrap_or_default());
    let service = Exponential::new(BENCH_MEAN_SERVICE_US);
    let run = move || {
        let mut svc = |rng: &mut SimRng| service.sample(rng);
        let mut balancer = BalancerPolicy::Jsq.build();
        let samples = match queue {
            None => {
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
            Some(_) => {
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

/// The cache section's Figure 5 grid: Baseline × McRouter at loads
/// 0.1–0.6, where the master-core spends most of its time in µs-scale
/// stalls or idleness. Baseline is the normalization reference, so it is a
/// valid 1-design grid.
fn stall_heavy_opts(seed: u64, threads: usize, horizon: u64) -> Fig5Options {
    Fig5Options {
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
        ..Fig5Options::default()
    }
}

fn main() {
    let flags = Flags::from_env(&["--smoke"], &["--seed", "--threads", "--out", "--guard"]);
    let smoke = flags.has("--smoke");
    let seed = flags.parsed("--seed", 42u64);
    let threads = flags.parsed("--threads", 1usize);
    let out = flags.value("--out").unwrap_or("BENCH_cycles.json");

    let horizon: u64 = if smoke { 600_000 } else { 3_000_000 };
    let fid = if smoke {
        Fidelity::Bench
    } else {
        Fidelity::Quick
    };

    eprintln!("bench: event-core engines (heap vs wheel, cluster + hedged)");
    let cell = EngineCell {
        servers: 16,
        load: 0.6,
        samples: if smoke { 200_000 } else { 400_000 },
        seed,
    };
    let none = DuplicationPolicy::none();
    let hedge_plan = DuplicationPolicy::hedge(10.0);
    let (heap, wheel) = (Some(EventQueueKind::Heap), Some(EventQueueKind::Wheel));
    // The fresh rack runs interleaved with the zero-duplication engines,
    // so its ratio to the event wheel compares like with like.
    let mut cluster_runs = time_interleaved(vec![
        engine_run(cell, "lindley", None, &none),
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
    eprintln!(
        "bench: wheel:heap ratio {wheel_vs_heap:.3}, fresh-rack:event ratio {rack_fresh_vs_event:.3}"
    );
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

    eprintln!("bench: cell cache, cold vs warm (fig5 + cluster sweep)");
    let cache_dir =
        std::env::temp_dir().join(format!("duplexity-cellcache-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    // One closure runs both grids against the given cache handle and
    // serializes the combined artifact, so the cold and warm passes are
    // character-for-character comparable.
    let run_cached = |cache: &CellCache| -> (String, f64) {
        let mut f5 = stall_heavy_opts(seed, threads, horizon);
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
        engine_core,
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
    eprintln!("bench: report -> {out}");

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
