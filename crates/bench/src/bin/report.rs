//! Regenerates every table and figure of the paper as text.
//!
//! ```text
//! report [--quick] [--seed N] [--threads N] [--json DIR] [--cache DIR]
//!        [--trace FILE] [--metrics FILE] [--timeseries FILE] [--fig1a]
//!        [--fig1b] [--fig1c] [--fig2a] [--fig2b] [--table1] [--table2]
//!        [--fig5] [--fig6] [--faults] [--cluster] [--hedge] [--rack]
//!        [--extensions] [--power] [--all]
//! ```
//!
//! An unknown flag, a flag missing its value, or a `--seed`/`--threads`
//! value that does not parse exits with status 2 before anything runs. A
//! failed artifact write is reported on stderr; the run goes on and then
//! exits with status 1.
//!
//! With no figure flags (or `--all`), everything is regenerated. `--quick`
//! reduces simulation horizons for a faster pass. `--json DIR` additionally
//! writes each artifact as machine-readable JSON into `DIR`. `--threads N`
//! (default: `DUPLEXITY_THREADS`, then available parallelism) sets the
//! worker count of every pooled experiment: Figures 1(c), 2(a), 5 and 6,
//! and the sweeps. It does so only by setting `DUPLEXITY_THREADS` for the
//! process: `fig1c` and `fig2a` take no worker count, and every option
//! preset leaves its `threads` at 0, which resolves from that variable. The
//! output is bit-identical for every value; only the wall time changes.
//!
//! `--trace FILE` records cycle-domain morph/stall/borrow/request events
//! during the Figure 5 grid and writes a Chrome `trace_event` JSON
//! file (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//! `--metrics FILE` writes the merged counter/histogram registry as JSON.
//! `--timeseries FILE` runs the request-domain timeline (event-clock gauge
//! series plus the DES self-profile) and writes its JSON artifact. All are
//! deterministic: byte-identical for every `--threads` value, and the
//! figure output itself is unchanged by tracing.
//!
//! `--cache DIR` (or `DUPLEXITY_CACHE=DIR`) enables the content-addressed
//! simulation-cell cache: every sweep/grid cell probes DIR before running
//! and stores its measurements after, so re-runs with overlapping grids
//! skip the overlap. Cached artifacts are byte-identical to cold ones —
//! only the wall time changes. When the cache is active, each cached
//! artifact's manifest records a digest-of-digests over its cell keys.
//!
//! Every artifact gets a self-describing run manifest beside it at
//! `<artifact>.manifest.json` (tool, crate versions, seed, fidelity,
//! requested threads, event-queue kind) — a pure function of the run's
//! inputs, so it too is byte-identical at any worker count.

use duplexity::experiments::{
    cluster_sweep, fault_sweep, fig1, fig2, fig5, fig6, hedge_sweep, rack_sweep, tables, timeline,
};
use duplexity::report as render;
use duplexity::{digest_of_digests, CellCache};
use duplexity_bench::{Fidelity, Flags};
use duplexity_obs::{manifest_path, RunManifest};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// The figure flags, each selecting one artifact.
const FIGURES: [&str; 15] = [
    "--fig1a",
    "--fig1b",
    "--fig1c",
    "--fig2a",
    "--fig2b",
    "--table1",
    "--table2",
    "--fig5",
    "--fig6",
    "--faults",
    "--cluster",
    "--hedge",
    "--rack",
    "--extensions",
    "--power",
];

/// Set when an artifact write fails: the run goes on, then exits with
/// status 1.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Writes `value` as pretty JSON to `dir/name.json` when exporting, plus
/// the run manifest beside it.
fn export<T: serde::Serialize>(dir: Option<&PathBuf>, name: &str, value: &T, base: &RunManifest) {
    let Some(dir) = dir else { return };
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("artifacts serialize to JSON");
    write_artifact(&path, &json);
    export_manifest(&path, name, base);
}

/// Writes `base` (stamped with the artifact name) to `<path>.manifest.json`.
fn export_manifest(path: &Path, artifact: &str, base: &RunManifest) {
    let manifest = base.clone().with("artifact", artifact);
    write_artifact(&manifest_path(path), &manifest.to_json());
}

/// Writes a deterministic text artifact to `path`.
fn write_artifact(path: &Path, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            WRITE_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs one sweep artifact: announces it, prints its table, and exports
/// its points under `manifest`.
fn sweep<P: serde::Serialize>(
    json_dir: Option<&PathBuf>,
    name: &str,
    what: &str,
    manifest: &RunManifest,
    run: impl FnOnce() -> Vec<P>,
    render: fn(&[P]) -> String,
) {
    eprintln!("running {what}...");
    let points = run();
    println!("{}", render(&points));
    export(json_dir, name, &points, manifest);
}

fn main() {
    let switches = [&FIGURES[..], &["--quick", "--all"]].concat();
    let valued = [
        "--seed",
        "--threads",
        "--json",
        "--cache",
        "--trace",
        "--metrics",
        "--timeseries",
    ];
    let flags = Flags::from_env(&switches, &valued);
    let seed = flags.parsed("--seed", 42u64);
    let threads = flags.parsed("--threads", 0usize);
    if threads > 0 {
        // Still single-threaded: no experiment has started a pool yet.
        std::env::set_var("DUPLEXITY_THREADS", threads.to_string());
    }
    let fidelity = if flags.has("--quick") {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let path = |flag| flags.value(flag).map(PathBuf::from);
    let (trace_path, metrics_path, timeseries_path) =
        (path("--trace"), path("--metrics"), path("--timeseries"));
    let cache = CellCache::resolve(flags.value("--cache"));
    if let Some(c) = &cache {
        eprintln!("cell cache: {}", c.dir().display());
    }
    let json_dir = path("--json");
    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let json_dir = json_dir.as_ref();
    // `--timeseries` is not a figure, but an artifact selector all the
    // same: asking for only the timeline must not run everything.
    let selected = FIGURES.iter().any(|f| flags.has(f)) || timeseries_path.is_some();
    let all = flags.has("--all") || !selected;
    let want = |flag: &str| all || flags.has(flag);

    // The base manifest every artifact's sidecar derives from: requested
    // inputs only (never resolved worker counts or wall-clock facts), so
    // manifests are byte-identical at any worker count.
    let manifest = RunManifest::new("report", env!("CARGO_PKG_VERSION"))
        .seed(seed)
        .threads(threads)
        .event_queue(duplexity_queueing::eventcore::EventQueueKind::default().name())
        .with("fidelity", format!("{fidelity:?}"));

    // Stamps an artifact manifest with the digest-of-digests over its cell
    // keys — but only when the cache is active, so cache-off runs keep
    // their previous manifest bytes. The digest is a pure function of the
    // requested inputs, hence still worker-count-independent.
    let stamp = |keys: &[duplexity::CellKey]| -> RunManifest {
        match &cache {
            Some(_) => manifest
                .clone()
                .with("cache_digest", digest_of_digests(keys)),
            None => manifest.clone(),
        }
    };

    let pool_threads = duplexity::ExecPool::new(threads).threads();
    println!(
        "Duplexity reproduction report (seed {seed}, {fidelity:?} fidelity, {pool_threads} worker thread{})\n",
        if pool_threads == 1 { "" } else { "s" }
    );

    if want("--table1") {
        println!("Table I: microarchitecture details");
        for line in tables::table1_lines() {
            println!("  {line}");
        }
        println!();
    }
    if want("--table2") {
        println!("Table II: area and clock frequencies (model vs paper)");
        for line in tables::table2_lines() {
            println!("  {line}");
        }
        println!();
        export(json_dir, "table2", &tables::table2_rows(), &manifest);
    }
    if want("--fig1a") {
        println!("{}", render::render_fig1a(&fig1::fig1a(1)));
        export(json_dir, "fig1a", &fig1::fig1a(8), &manifest);
    }
    if want("--fig1b") {
        let series = fig1::fig1b(200);
        println!("{}", render::render_fig1b(&series));
        export(json_dir, "fig1b", &series, &manifest);
    }
    if want("--fig1c") {
        let points = fig1::fig1c(16, fidelity.sweep_horizon_cycles(), seed);
        println!("{}", render::render_fig1c(&points));
        for v in fig1::FlannVariant::ALL {
            if let Some(peak) = fig1::peak_threads(&points, v) {
                println!("  {v} peaks at {peak} threads");
            }
        }
        println!();
        export(json_dir, "fig1c", &points, &manifest);
    }
    if want("--fig2a") {
        let points = fig2::fig2a(16, fidelity.sweep_horizon_cycles(), seed);
        println!("{}", render::render_fig2a(&points));
        export(json_dir, "fig2a", &points, &manifest);
    }
    if want("--fig2b") {
        let points = fig2::fig2b(32);
        println!("{}", render::render_fig2b(&points));
        export(json_dir, "fig2b", &points, &manifest);
    }

    if want("--power") {
        println!("{}", render::render_power_breakdown(2.0));
    }

    if want("--extensions") {
        eprintln!("running the extension-design comparison...");
        let mut opts = fidelity.fig5_options(seed);
        opts.cache = cache.clone();
        opts.designs = duplexity::Design::ALL_WITH_EXTENSIONS.to_vec();
        opts.workloads = vec![duplexity::Workload::McRouter];
        opts.loads = vec![0.5];
        let cells = fig5::run_fig5(&opts);
        print_fig5_panels(
            &cells,
            &[
                (
                    "Extensions: utilization incl. Elfen and Runahead (McRouter @ 50%)",
                    |c| c.utilization,
                ),
                ("Extensions: normalized p99", |c| c.p99_norm),
            ],
        );
        export(
            json_dir,
            "extensions",
            &cells,
            &stamp(&fig5::cell_keys(&opts)),
        );
    }

    if want("--faults") {
        let mut opts = fidelity.fault_sweep_options(seed);
        opts.cache = cache.clone();
        sweep(
            json_dir,
            "fault_sweep",
            "the fault-policy tail sweep",
            &stamp(&fault_sweep::cell_keys(&opts)),
            || fault_sweep::fault_sweep(&opts),
            render::render_fault_sweep,
        );
    }

    if want("--cluster") {
        let mut opts = fidelity.cluster_sweep_options(seed);
        opts.cache = cache.clone();
        sweep(
            json_dir,
            "cluster_sweep",
            "the cluster balancing sweep",
            &stamp(&cluster_sweep::cell_keys(&opts)),
            || cluster_sweep::cluster_sweep(&opts),
            render::render_cluster_sweep,
        );
    }

    if want("--hedge") {
        let mut opts = fidelity.hedge_sweep_options(seed);
        opts.cache = cache.clone();
        sweep(
            json_dir,
            "hedge_sweep",
            "the duplication/hedging sweep",
            &stamp(&hedge_sweep::cell_keys(&opts)),
            || hedge_sweep::hedge_sweep(&opts),
            render::render_hedge_sweep,
        );
    }

    if want("--rack") {
        let mut opts = fidelity.rack_sweep_options(seed);
        opts.cache = cache.clone();
        sweep(
            json_dir,
            "rack_sweep",
            "the two-level rack sweep",
            &stamp(&rack_sweep::cell_keys(&opts)),
            || rack_sweep::rack_sweep(&opts),
            render::render_rack_sweep,
        );
    }

    if let Some(path) = &timeseries_path {
        eprintln!("running the request-domain timeline...");
        let mut topts = fidelity.timeline_options(seed);
        topts.cache = cache.clone();
        let t = timeline::timeline(&topts);
        println!("{}", render::render_timeline(&t));
        write_artifact(path, &t.to_json());
        export_manifest(path, "timeline", &stamp(&timeline::cell_keys(&topts)));
    }

    if want("--fig5") || want("--fig6") {
        eprintln!("running the Figure 5 grid (this is the long part)...");
        let mut opts = fidelity.fig5_options(seed);
        opts.cache = cache.clone();
        let trace_cfg = fig5::TraceConfig::default();
        let tracing = trace_path.is_some() || metrics_path.is_some();
        let run = fig5::run_fig5_traced(&opts, tracing.then_some(&trace_cfg));
        if let Some(path) = &trace_path {
            write_artifact(path, &duplexity::chrome_trace_json(&run.traces));
            export_manifest(path, "trace", &manifest);
        }
        if let Some(path) = &metrics_path {
            write_artifact(path, &run.registry.to_json());
            export_manifest(path, "metrics", &manifest);
        }
        let cells = run.cells;
        print_fig5_panels(
            &cells,
            &[
                ("Fig 5(a): core utilization", |c| c.utilization),
                ("Fig 5(b): normalized performance density", |c| {
                    c.perf_density_norm
                }),
                ("Fig 5(c): normalized energy", |c| c.energy_norm),
                ("Fig 5(d): normalized p99 latency", |c| c.p99_norm),
                ("Fig 5(e): normalized iso-throughput p99 latency", |c| {
                    c.iso_p99_norm
                }),
                ("Fig 5(f): normalized batch STP", |c| c.stp_norm),
            ],
        );
        summarize_headlines(&cells);
        // fig6 is a pure function of the fig5 cells, so both artifacts
        // share the fig5 grid's cache digest.
        let m = stamp(&fig5::cell_keys(&opts));
        export(json_dir, "fig5", &cells, &m);
        if want("--fig6") {
            let f6 = fig6::fig6(&cells);
            println!("{}", render::render_fig6(&f6));
            println!(
                "  worst-case dyads per FDR port: {}",
                fig6::dyads_per_port(&f6)
            );
            export(json_dir, "fig6", &f6, &m);
        }
    }
    if let Some(c) = &cache {
        eprintln!("{}", c.summary());
    }
    if WRITE_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}

/// One Figure 5 cell metric, as a matrix panel renders it.
type Metric = fn(&fig5::Fig5Cell) -> f64;

/// Prints one Figure 5 matrix per `(label, metric)` panel.
fn print_fig5_panels(cells: &[fig5::Fig5Cell], panels: &[(&str, Metric)]) {
    for (label, metric) in panels {
        println!("{}", render::render_fig5_matrix(cells, label, metric));
    }
}

/// Prints the paper's headline aggregate comparisons.
fn summarize_headlines(cells: &[fig5::Fig5Cell]) {
    use duplexity::Design;
    let mean = |design: Design, f: &dyn Fn(&fig5::Fig5Cell) -> f64| -> f64 {
        let v: Vec<f64> = cells
            .iter()
            .filter(|c| c.design == design && f(c).is_finite())
            .map(f)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let util = &|c: &fig5::Fig5Cell| c.utilization;
    let iso = &|c: &fig5::Fig5Cell| c.iso_p99_norm;
    let dup_util = mean(Design::Duplexity, util);
    let base_util = mean(Design::Baseline, util);
    let smt_util = mean(Design::Smt, util);
    println!("Headlines (vs paper: 4.8x / 1.9x utilization, 1.8x / 2.7x iso-p99):");
    println!(
        "  Duplexity utilization gain: {:.1}x over baseline, {:.1}x over SMT",
        dup_util / base_util,
        dup_util / smt_util
    );
    let dup_iso = mean(Design::Duplexity, iso);
    let smt_iso = mean(Design::Smt, iso);
    println!(
        "  Duplexity iso-throughput p99: {:.1}x lower than baseline, {:.1}x lower than SMT",
        1.0 / dup_iso,
        smt_iso / dup_iso
    );
}
