//! Workload benchmark for the Duplexity simulator.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--repeat N]
//!           [--threads N] [--trace 0|1] [--spans FILE] [--out FILE]
//!           [--append-trajectory FILE]
//! ```
//!
//! Runs each named workload (default: all four) for `--seconds` of timed
//! repetitions (at least `--repeat`), checks every output cell, and prints
//! one JSON line per workload on stdout: `correct`, `attempted`, `failed`
//! and `metrics`. Without tracing the metrics are the end-to-end ones
//! (medians over the repetitions, scaled to the reference host's speed by
//! `host::reference_s`); with `--trace 1` the repetitions run
//! inside spans, the layer probes run after them, the line carries the
//! per-layer metrics, and the spans go to `--spans` (default
//! `bench/out/spans-seed<N>.json`). A readable summary goes to stderr.
//! See `bench/README.md`.

use duplexity_workload_bench::host;
use duplexity_workload_bench::run::{run_workload, RunOptions, WorkloadResult};
use duplexity_workload_bench::spans::SpanLog;
use duplexity_workload_bench::workloads::{Config, Sizes, Workload};
use duplexity_workload_bench::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups per workload; `setup_s` reports their median.
const SETUP_RUNS: usize = 5;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    repeat: usize,
    threads: usize,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    trajectory: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--repeat N] \
                     [--threads N] [--trace 0|1] [--spans FILE] [--out FILE] \
                     [--append-trajectory FILE]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        repeat: 3,
        threads: host::nproc(),
        trace: false,
        spans: None,
        out: None,
        trajectory: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                a.workloads.push(Workload::parse(v).ok_or_else(|| {
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: {v:?} is not a duration"))?;
            }
            "--repeat" => a.repeat = number(value()?)?.clamp(1, 1000) as usize,
            "--threads" => {
                let n = number(value()?)?.max(1) as usize;
                if n > host::nproc() {
                    eprintln!(
                        "benchmark: --threads {n} capped at the host's {} cores",
                        host::nproc()
                    );
                }
                a.threads = n.min(host::nproc());
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--append-trajectory" => a.trajectory = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// form gives; `null` otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metric_json(m: &Metric) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name,
        num(m.value),
        m.unit
    )
}

/// The one-line result a regression check reads.
fn result_line(r: &WorkloadResult, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        r.per_layer.iter().map(metric_json).collect()
    } else {
        r.end_to_end
            .iter()
            .map(|s| metric_json(&s.metric))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The full record for `--out`: every metric with its spread.
fn full_json(args: &Args, results: &[WorkloadResult]) -> String {
    let per_workload: Vec<String> = results
        .iter()
        .map(|r| {
            let e2e: Vec<String> = r
                .end_to_end
                .iter()
                .map(|s| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"min\": {}, \"max\": {}, \"n\": {}}}",
                        s.metric.name,
                        num(s.metric.value),
                        s.metric.unit,
                        s.metric.better,
                        num(s.min),
                        num(s.max),
                        s.n
                    )
                })
                .collect();
            let layers: Vec<String> = r
                .per_layer
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\"}}",
                        m.name,
                        num(m.value),
                        m.unit,
                        m.better
                    )
                })
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"host_speed\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
                r.workload.name(),
                r.correct(),
                r.attempted,
                r.failed,
                num(r.host_speed),
                e2e.join(", "),
                layers.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {}, \"seconds\": {}, \"threads\": {}, \"nproc\": {}, \"trace\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        args.seed,
        num(args.seconds),
        args.threads,
        host::nproc(),
        args.trace,
        per_workload.join(",\n")
    )
}

/// `git describe --always --dirty` of the working tree, or `unknown`.
fn source_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn append_trajectory(path: &Path, args: &Args, results: &[WorkloadResult]) -> Result<(), String> {
    use std::io::Write;
    let per: Vec<String> = results
        .iter()
        .map(|r| {
            let get = |name: &str| {
                r.end_to_end
                    .iter()
                    .find(|s| s.metric.name == name)
                    .map_or(f64::NAN, |s| s.metric.value)
            };
            format!(
                "\"{}\": {{\"wall_s\": {}, \"cells_per_s\": {}, \"host_speed\": {}, \"correct\": {}}}",
                r.workload.name(),
                num(get("wall_s")),
                num(get("cells_per_s")),
                num(r.host_speed),
                r.correct()
            )
        })
        .collect();
    let line = format!(
        "{{\"sha\": \"{}\", \"nproc\": {}, \"threads\": {}, \"seed\": {}, \"seconds\": {}, \"repeat\": {}, \"workloads\": {{{}}}}}\n",
        source_revision(),
        host::nproc(),
        args.threads,
        args.seed,
        num(args.seconds),
        args.repeat,
        per.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn summarize(r: &WorkloadResult) {
    let name = r.workload.name();
    eprintln!(
        "benchmark: {name}: {} ({} cells checked, {} failed)",
        if r.correct() { "correct" } else { "INCORRECT" },
        r.attempted,
        r.failed
    );
    for p in &r.problems {
        eprintln!("benchmark: {name}:   {p}");
    }
    eprintln!(
        "benchmark: {name}: host speed {:.4} of the reference host; timings below are \
         scaled to it (raw seconds = value / speed)",
        r.host_speed
    );
    for s in &r.end_to_end {
        eprintln!(
            "benchmark: {name}: {:<12} {:>12.4} {:<8} (min {:.4}, max {:.4}, n {})",
            s.metric.name, s.metric.value, s.metric.unit, s.min, s.max, s.n
        );
    }
    for m in &r.per_layer {
        eprintln!(
            "benchmark: {name}: {:<52} {:>14.4} {}",
            m.name, m.value, m.unit
        );
    }
    if let Some(line) = &r.paper_line {
        eprintln!("benchmark: {name}: {line} [information, not gated]");
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let cfg = Config {
        seed: args.seed,
        threads: args.threads,
        sizes: Sizes::standard(),
        scratch: out_dir.join(format!("scratch-{}", std::process::id())),
    };
    let opts = RunOptions {
        seconds: args.seconds,
        min_reps: args.repeat,
        setup_runs: SETUP_RUNS,
    };
    eprintln!(
        "benchmark: seed {}, {} s per workload, {} threads on {} cores{}",
        args.seed,
        args.seconds,
        args.threads,
        host::nproc(),
        if args.trace { ", traced" } else { "" }
    );
    let mut log = if args.trace {
        SpanLog::enabled("")
    } else {
        SpanLog::disabled()
    };
    let mut results = Vec::new();
    let outcome = (|| {
        for &w in &args.workloads {
            let r = run_workload(w, &cfg, &opts, &mut log)?;
            summarize(&r);
            println!("{}", result_line(&r, args.trace));
            results.push(r);
        }
        Ok::<(), String>(())
    })();
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    // Removes the output directory only if nothing else is in it.
    let _ = std::fs::remove_dir(&out_dir);
    outcome?;

    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| out_dir.join(format!("spans-seed{}.json", args.seed)));
        write_file(&path, &log.to_json())?;
        eprintln!(
            "benchmark: {} spans -> {}",
            log.spans().len(),
            path.display()
        );
    }
    if let Some(path) = &args.out {
        write_file(path, &full_json(args, &results))?;
    }
    if let Some(path) = &args.trajectory {
        append_trajectory(path, args, &results)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A run that printed its results exits 0 even when a check failed:
    // the result line's `correct` field carries that verdict.
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
