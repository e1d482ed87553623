//! What the benchmark promises, at tiny sizes: outputs do not depend on
//! the worker count, the mixed-cache `grid_extend` pass equals its cold
//! pass, and every metric `BENCHMARK.json` names is produced with its unit.
//!
//! Run with `cargo test --release --manifest-path bench/Cargo.toml`.

use duplexity_workload_bench::run::{run_workload, RunOptions, WorkloadResult};
use duplexity_workload_bench::spans::SpanLog;
use duplexity_workload_bench::workloads::{Config, Sizes, Workload};
use serde_json::Value;
use std::path::{Path, PathBuf};

fn config(test: &str, threads: usize) -> Config {
    Config {
        seed: 7,
        threads,
        sizes: Sizes::tiny(),
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{threads}")),
    }
}

const ONE_REP: RunOptions = RunOptions {
    seconds: 0.0,
    min_reps: 1,
    setup_runs: 1,
};

fn run(w: Workload, cfg: &Config, log: &mut SpanLog) -> WorkloadResult {
    let r = run_workload(w, cfg, &ONE_REP, log).expect("tiny workload runs");
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    assert!(r.correct(), "{}: {:?}", w.name(), r.problems);
    assert_eq!(r.attempted, w.cells(cfg) as u64);
    r
}

#[test]
fn digests_do_not_depend_on_the_worker_count() {
    for w in Workload::ALL {
        let one = run(w, &config("threads", 1), &mut SpanLog::disabled());
        let two = run(w, &config("threads", 2), &mut SpanLog::disabled());
        assert_eq!(one.digests, two.digests, "{}", w.name());
    }
}

#[test]
fn mixed_cache_grid_extend_equals_its_cold_pass() {
    let cfg = config("extend", 2);
    let r = run(Workload::GridExtend, &cfg, &mut SpanLog::disabled());
    let cold = Workload::GridExtend
        .cold_reference(&cfg)
        .expect("grid_extend has a cold reference");
    assert_eq!(r.digests, cold);
    // The tiny grids keep the standard shape: 80 cached cells, 46 fresh.
    assert_eq!(r.digests.len(), 126);
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let root = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = root.get_field(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| match (m.get_field("name"), m.get_field("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("{section} entry without a name and unit: {m:?}"),
        })
        .collect()
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let cfg = config("metrics", 2);
    let mut log = SpanLog::enabled("");
    let r = run(Workload::SmtScaling, &cfg, &mut log);
    for (name, unit) in declared("end_to_end") {
        let m = r.end_to_end.iter().find(|s| s.metric.name == name);
        assert_eq!(
            m.map(|s| s.metric.unit),
            Some(unit.as_str()),
            "end-to-end {name}"
        );
        assert!(
            m.is_some_and(|s| s.metric.value > 0.0),
            "end-to-end {name} must not be 0"
        );
    }
    for (name, unit) in declared("per_layer") {
        let m = r.per_layer.iter().find(|m| m.name == name);
        assert_eq!(m.map(|m| m.unit), Some(unit.as_str()), "per-layer {name}");
        assert!(
            m.is_some_and(|m| m.value.is_finite()),
            "per-layer {name} is not finite"
        );
    }
    let spans = serde_json::parse_value(&log.to_json()).expect("span JSON parses");
    let Value::Array(spans) = spans else {
        panic!("span JSON is an array")
    };
    for name in [
        "setup",
        "rep",
        "fig1c",
        "fig2a",
        "render",
        "serialize",
        "probes",
    ] {
        assert!(
            spans
                .iter()
                .any(|s| s.get_field("name") == Some(&Value::Str(name.to_string()))),
            "no {name} span"
        );
    }
}
