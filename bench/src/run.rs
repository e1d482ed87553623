//! Runs one workload: set-up, a timed window of repetitions, the checks on
//! every output cell, and the metrics derived from them.

use crate::host;
use crate::probes;
use crate::spans::SpanLog;
use crate::workloads::{extend_expected_counts, Config, Outputs, Rep, Sizes, Workload};
use crate::{median, Metric};
use duplexity::Design;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed whose cell digests are committed under `bench/expected/`.
pub const EXPECTED_SEED: u64 = 42;
/// Environment variable that rewrites the expected digests instead of
/// comparing against them.
pub const UPDATE_ENV: &str = "UPDATE_BENCH_EXPECTED";

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Length of the timed window; repetitions start until it has passed.
    pub seconds: f64,
    /// Fewest repetitions, however long they take.
    pub min_reps: usize,
    /// Set-ups per workload; `setup_s` is their median.
    pub setup_runs: usize,
}

/// A timing summarized over repetitions.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The metric, its value the median.
    pub metric: Metric,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Observations.
    pub n: usize,
}

impl Summary {
    fn of(name: &str, unit: &'static str, better: &'static str, values: &[f64]) -> Self {
        Self {
            metric: Metric::new(name, unit, better, median(values)),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

/// Scales raw timings to the reference host's speed.
fn at_reference(raw: &[f64], speed: f64) -> Vec<f64> {
    raw.iter().map(|s| s * speed).collect()
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Output cells checked, over every repetition.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// What failed, for the log (at most a few lines).
    pub problems: Vec<String>,
    /// End-to-end metrics: timings as medians over repetitions, scaled to
    /// the reference host's speed.
    pub end_to_end: Vec<Summary>,
    /// Host speed during the run relative to the reference host
    /// ([`host::REFERENCE_S`] over the median reference-kernel time).
    pub host_speed: f64,
    /// Per-layer metrics; empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Digest of every output cell of the first repetition.
    pub digests: Vec<String>,
    /// Figure 5 headline ratios beside the paper's (information only).
    pub paper_line: Option<String>,
}

impl WorkloadResult {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Directory of the committed expected digests.
#[must_use]
pub fn expected_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// Counts failures per output cell of one repetition, so a cell failing
/// two checks counts once.
struct Failures {
    bad: Vec<bool>,
    unplaced: u64,
    problems: Vec<String>,
}

impl Failures {
    fn new(cells: usize) -> Self {
        Self {
            bad: vec![false; cells],
            unplaced: 0,
            problems: Vec::new(),
        }
    }

    fn cell(&mut self, i: usize, why: String) {
        if let Some(b) = self.bad.get_mut(i) {
            *b = true;
        }
        self.problems.push(why);
    }

    /// A failing cell whose position the check did not report.
    fn some(&mut self, why: String) {
        self.unplaced += 1;
        self.problems.push(why);
    }

    fn all(&mut self, why: String) {
        self.bad.iter_mut().for_each(|b| *b = true);
        self.problems.push(why);
    }

    fn count(&self) -> u64 {
        (self.bad.iter().filter(|&&b| b).count() as u64 + self.unplaced).min(self.bad.len() as u64)
    }
}

fn compare_digests(f: &mut Failures, got: &[String], want: &[String], against: &str) {
    if got.len() != want.len() {
        f.all(format!("{} cells, {against} has {}", got.len(), want.len()));
        return;
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            f.cell(
                i,
                format!("cell {i} digest {g} differs from {against} ({w})"),
            );
        }
    }
}

/// Reads the committed digests for `w`, or rewrites them when
/// [`UPDATE_ENV`] is `1`. `None` when the file is absent.
fn expected_digests(w: Workload, digests: &[String]) -> Result<Option<Vec<String>>, String> {
    let path = expected_dir().join(format!("{}.json", w.name()));
    if std::env::var(UPDATE_ENV).is_ok_and(|v| v == "1") {
        let list: Vec<String> = digests.iter().map(|d| format!("    \"{d}\"")).collect();
        let text = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {EXPECTED_SEED},\n  \"cells\": {},\n  \"digests\": [\n{}\n  ]\n}}\n",
            w.name(),
            digests.len(),
            list.join(",\n")
        );
        std::fs::create_dir_all(expected_dir())
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("benchmark: rewrote {}", path.display());
        return Ok(Some(digests.to_vec()));
    }
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    let value = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match value.get_field("digests") {
        Some(serde_json::Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                serde_json::Value::Str(s) => Ok(s.clone()),
                _ => Err(format!("{}: a digest is not a string", path.display())),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        _ => Err(format!("{}: no \"digests\" array", path.display())),
    }
}

/// Duplexity-over-Baseline mean utilization and iso-throughput p99, beside
/// the paper's 4.8x and 1.8x.
fn paper_line(cells: &[duplexity::experiments::fig5::Fig5Cell]) -> String {
    let mean = |d: Design, f: &dyn Fn(&duplexity::experiments::fig5::Fig5Cell) -> f64| {
        let v: Vec<f64> = cells
            .iter()
            .filter(|c| c.design == d)
            .map(f)
            .filter(|x| x.is_finite())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let util =
        mean(Design::Duplexity, &|c| c.utilization) / mean(Design::Baseline, &|c| c.utilization);
    let iso = 1.0 / mean(Design::Duplexity, &|c| c.iso_p99_norm);
    format!(
        "Duplexity/Baseline utilization {util:.2}x (paper 4.8x, rel. error {:+.0}%), \
         iso-throughput p99 {iso:.2}x lower (paper 1.8x, rel. error {:+.0}%)",
        (util / 4.8 - 1.0) * 100.0,
        (iso / 1.8 - 1.0) * 100.0
    )
}

/// Runs workload `w`: `opts.setup_runs` set-ups, then repetitions until
/// `opts.seconds` have passed, checking every output cell. With an enabled
/// `log` the per-layer metrics are derived from its spans and the probes.
///
/// # Errors
///
/// Returns a message when set-up fails or the scratch directory is
/// unusable; failed checks are counted, not returned.
pub fn run_workload(
    w: Workload,
    cfg: &Config,
    opts: &RunOptions,
    log: &mut SpanLog,
) -> Result<WorkloadResult, String> {
    log.set_workload(w.name());
    let cells = w.cells(cfg);

    // The reference kernel runs before every set-up and repetition, outside
    // their clocks, to measure the host's speed across the whole run.
    let mut refs = Vec::new();
    let mut setups = Vec::new();
    let mut prep = None;
    for _ in 0..opts.setup_runs.max(1) {
        refs.push(log.span("bench", "reference", |_| host::reference_s()));
        let t = Instant::now();
        prep = Some(log.span("bench", "setup", |_| w.setup(cfg))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up ran");

    let (hits_want, misses_want) = extend_expected_counts(cfg);
    let window = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let (mut failed, mut problems) = (0u64, Vec::new());
    while reps.len() < opts.min_reps.max(1) || window.elapsed().as_secs_f64() < opts.seconds {
        refs.push(log.span("bench", "reference", |_| host::reference_s()));
        let rep = w.run_rep(cfg, &prep, log)?;
        // Checks run after the repetition's clock has stopped.
        let mut f = Failures::new(cells);
        for why in rep.outputs.check() {
            f.some(why);
        }
        let digests = rep.outputs.digests(w);
        if digests.len() != cells {
            f.all(format!("{} output cells, expected {cells}", digests.len()));
        }
        if w == Workload::GridExtend
            && (rep.cache_hits, rep.cache_misses) != (hits_want, misses_want)
        {
            f.all(format!(
                "{} hits / {} misses, expected {hits_want} / {misses_want}",
                rep.cache_hits, rep.cache_misses
            ));
        }
        match &first {
            None => first = Some(digests),
            Some(d) => compare_digests(&mut f, &digests, d, "the first repetition"),
        }
        failed += f.count();
        problems.extend(f.problems);
        reps.push(rep);
    }
    let digests = first.expect("at least one repetition ran");

    // Whole-run checks: the cold reference and the committed digests.
    let mut f = Failures::new(cells);
    if let Some(cold) = log.span("bench", "cold_reference", |_| w.cold_reference(cfg)) {
        compare_digests(&mut f, &digests, &cold, "the cold pass");
    }
    if cfg.seed == EXPECTED_SEED && cfg.sizes == Sizes::standard() {
        match expected_digests(w, &digests)? {
            Some(want) => compare_digests(&mut f, &digests, &want, "bench/expected"),
            None => f.all(format!("no expected digests for {}", w.name())),
        }
    }
    failed += f.count();
    problems.extend(f.problems);
    let attempted = (cells * reps.len()) as u64;

    let host_speed = host::REFERENCE_S / median(&refs);
    let walls = at_reference(
        &reps.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        host_speed,
    );
    let rates: Vec<f64> = walls.iter().map(|s| cells as f64 / s).collect();
    let end_to_end = vec![
        Summary::of("wall_s", "s", "lower", &walls),
        Summary::of("cells_per_s", "cells/s", "higher", &rates),
        Summary::of("setup_s", "s", "lower", &at_reference(&setups, host_speed)),
    ];

    let per_layer = if log.is_enabled() {
        let mut m = run_metrics(w, cfg, &reps, host_speed, log);
        m.extend(log.span("bench", "probes", |log| probes::run_all(cfg, log)));
        m
    } else {
        Vec::new()
    };

    let paper_line = match &reps[0].outputs {
        Outputs::Fig5(cells) => Some(paper_line(cells)),
        _ => None,
    };
    problems.truncate(8);
    Ok(WorkloadResult {
        workload: w,
        attempted,
        failed: failed.min(attempted),
        problems,
        end_to_end,
        host_speed,
        per_layer,
        digests,
        paper_line,
    })
}

/// Experiment calls whose share of a repetition's wall the traced run
/// reports.
pub const SHARED_SPANS: [&str; 9] = [
    "run_fig5",
    "fig1c",
    "fig2a",
    "cluster_sweep",
    "hedge_sweep",
    "rack_sweep",
    "fault_sweep",
    "render",
    "serialize",
];

/// The `run.*` metrics of a traced run of `w`.
fn run_metrics(
    w: Workload,
    cfg: &Config,
    reps: &[Rep],
    host_speed: f64,
    log: &SpanLog,
) -> Vec<Metric> {
    let name = w.name();
    let n = reps.len() as f64;
    let wall = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let wall_total: f64 = reps.iter().map(|r| r.wall_s).sum();
    let cpu_s: f64 = reps.iter().filter_map(|r| r.cpu_s).sum();
    let sim = w.sim_cycles(cfg) as f64 / 1e6;
    let des = reps[0].outputs.des_requests() as f64 / 1e6;
    let bytes: usize = reps.iter().map(|r| r.artifact_bytes).sum();
    let rep_s = log.total_s(name, "rep").max(1e-9);
    let mut m = vec![
        // At the reference host's speed, like `wall_s`, so the two differ
        // by the tracing overhead.
        Metric::new("run.wall_s_traced", "s", "lower", wall * host_speed),
        Metric::new("run.host_speed", "ratio", "higher", host_speed),
        Metric::new("run.cells", "count", "higher", w.cells(cfg) as f64),
        Metric::new("run.sim_mcycles", "Mcycles", "higher", sim),
        Metric::new("run.sim_mcycles_per_s", "Mcycles/s", "higher", sim / wall),
        Metric::new("run.des_mrequests", "Mrequests", "higher", des),
        Metric::new(
            "run.des_mrequests_per_s",
            "Mrequests/s",
            "higher",
            des / wall,
        ),
        Metric::new(
            "run.cache_hits",
            "count",
            "higher",
            reps[0].cache_hits as f64,
        ),
        Metric::new(
            "run.cache_misses",
            "count",
            "lower",
            reps[0].cache_misses as f64,
        ),
        // Peak resident memory so far: set-up, repetitions and checks. Not
        // an end-to-end metric: with a worker pool the allocator's
        // per-thread arenas make it vary by about 15% from run to run.
        Metric::new(
            "run.peak_rss_mb",
            "MB",
            "lower",
            host::peak_rss_mb().unwrap_or(f64::NAN),
        ),
        Metric::new(
            "run.core_busy",
            "fraction",
            "higher",
            cpu_s / (wall_total * cfg.threads as f64).max(1e-9),
        ),
        Metric::new(
            "run.render_ms",
            "ms",
            "lower",
            log.total_s(name, "render") / n * 1e3,
        ),
        Metric::new(
            "run.serialize_mb_per_s",
            "MB/s",
            "higher",
            bytes as f64 / 1e6 / log.total_s(name, "serialize").max(1e-9),
        ),
    ];
    for span in SHARED_SPANS {
        m.push(Metric::new(
            format!("run.share.{span}"),
            "fraction",
            "lower",
            log.total_s(name, span) / rep_s,
        ));
    }
    m
}
