//! The quiescence fast-forward bit-identity contract.
//!
//! `Stepping::FastForward` skips cycle spans only when the out-of-order
//! engine's probe (`next_event_cycle`) proves that stepping them would
//! change nothing but counters — no RNG draws, no retirement, no morph
//! decisions. In-order engines have no probe, so a dyad skips only while
//! none of them steps. These tests run every design both ways and demand
//! *exact* equality:
//!
//! 1. **Metrics** — `DesignMetrics` (which derives `PartialEq`) must be
//!    identical for every design preset, open-loop and saturated.
//! 2. **Dyad metrics** — `DyadSim::run` vs `DyadSim::run_naive` must yield
//!    identical `DyadMetrics` for every dyad configuration, including a
//!    stall-heavy master that morphs repeatedly.
//! 3. **Artifacts** — with tracing enabled, the exported Chrome JSON and
//!    metrics-registry JSON must be byte-identical across steppings.
//! 4. **Figure 5's cycle runs** — every `ServerSim` run a small Figure 5
//!    grid makes, its cells from the idle-heavy load 0.1 up to 0.6 and
//!    each design's saturated calibration, matches naive stepping in
//!    metrics, Chrome-trace bytes and registry bytes. Figure 5 runs only
//!    fast-forward, so the grid's own output is checked against the naive
//!    runs: its cell utilizations at 1 and 8 workers and its cell traces.
//!    The grid's full worker-count axis is `tests/parallel_determinism.rs`.

use duplexity::experiments::fig5::{run_fig5, run_fig5_traced, Fig5Options, TraceConfig};
use duplexity::{chrome_trace_json, Design, ServerSim, Workload};
use duplexity_cpu::designs::{run_design, DesignMetrics, Scenario, Stepping};
use duplexity_cpu::dyad::{DyadConfig, DyadSim};
use duplexity_cpu::op::{LoopedTrace, MicroOp, Op};
use duplexity_obs::Tracer;
use duplexity_queueing::des::Mg1Options;
use duplexity_stats::rng::{derive_stream, rng_from_seed};
use duplexity_workloads::graph::FillerFactory;

const HORIZON: u64 = 400_000;

fn run_one(design: Design, load: Option<f64>, stepping: Stepping) -> DesignMetrics {
    let workload = Workload::McRouter;
    let scenario = Scenario {
        load,
        service_us: workload.nominal_service_us(),
        horizon_cycles: HORIZON,
        seed: 42,
    };
    let fillers = FillerFactory::paper(42);
    run_design(
        design,
        &scenario,
        workload.kernel(42),
        |id| fillers.stream(id),
        &Tracer::disabled(),
        stepping,
    )
}

#[test]
fn every_design_fast_forward_matches_naive() {
    for design in Design::ALL_WITH_EXTENSIONS {
        for load in [Some(0.5), None] {
            let naive = run_one(design, load, Stepping::Naive);
            let fast = run_one(design, load, Stepping::FastForward);
            assert_eq!(naive, fast, "{design} load {load:?}");
        }
    }
}

#[test]
fn traced_artifacts_are_byte_identical_across_steppings() {
    let workload = Workload::McRouter;
    let scenario = Scenario {
        load: Some(0.4),
        service_us: workload.nominal_service_us(),
        horizon_cycles: HORIZON,
        seed: 7,
    };
    for design in Design::ALL_WITH_EXTENSIONS {
        let trace_one = |stepping: Stepping| {
            let tracer = Tracer::enabled(1 << 16, 1000.0);
            let fillers = FillerFactory::paper(7);
            let metrics = run_design(
                design,
                &scenario,
                workload.kernel(7),
                |id| fillers.stream(id),
                &tracer,
                stepping,
            );
            let log = tracer.take();
            let label = format!("ff/{design}");
            let json = chrome_trace_json(&[(label, log.clone())]);
            (metrics, json, log.registry.to_json())
        };
        let (m_naive, chrome_naive, reg_naive) = trace_one(Stepping::Naive);
        let (m_fast, chrome_fast, reg_fast) = trace_one(Stepping::FastForward);
        assert_eq!(m_naive, m_fast, "{design} traced metrics");
        assert_eq!(chrome_naive, chrome_fast, "{design} chrome trace bytes");
        assert_eq!(reg_naive, reg_fast, "{design} registry bytes");
    }
}

/// A master-thread that alternates compute bursts with µs-scale remote
/// loads — the stall-heavy shape fast-forward exists to accelerate, and the
/// one most likely to expose a probe that skips over a morph decision.
fn stall_heavy_master() -> Box<LoopedTrace> {
    let mut ops = Vec::new();
    for i in 0..48u64 {
        ops.push(MicroOp::new(i * 4, Op::IntAlu).with_dst((i % 8) as u8));
    }
    ops.push(MicroOp::new(0x400, Op::RemoteLoad { latency_us: 1.0 }));
    Box::new(LoopedTrace::new(ops))
}

fn batch_stream(id: usize) -> Box<LoopedTrace> {
    let base = 0x10_0000 * (id as u64 + 1);
    Box::new(LoopedTrace::new(
        (0..64)
            .map(|i| MicroOp::new(base + i * 4, Op::IntAlu).with_dst((i % 4) as u8))
            .collect(),
    ))
}

#[test]
fn dyad_run_matches_run_naive_for_every_config() {
    let configs: [(&str, DyadConfig); 4] = [
        ("morphcore", DyadConfig::morphcore()),
        ("morphcore_plus", DyadConfig::morphcore_plus()),
        ("duplexity_replication", DyadConfig::duplexity_replication()),
        ("duplexity", DyadConfig::duplexity()),
    ];
    for (name, cfg) in configs {
        let build = |cfg: DyadConfig| {
            let mut dyad = DyadSim::new(cfg, stall_heavy_master());
            if cfg.hsmt_fillers {
                for id in 0..16 {
                    dyad.add_batch_thread(id, batch_stream(id));
                }
            } else {
                for id in 0..8 {
                    dyad.add_fixed_filler(id, batch_stream(id));
                }
            }
            dyad
        };
        let mut naive = build(cfg);
        let mut rng_a = rng_from_seed(11);
        naive.run_naive(300_000, &mut rng_a);
        let mut fast = build(cfg);
        let mut rng_b = rng_from_seed(11);
        fast.run(300_000, &mut rng_b);
        assert_eq!(naive.metrics(), fast.metrics(), "{name}");
    }
}

/// A small Figure 5 grid: Baseline and Duplexity × McRouter × loads
/// {0.1, 0.3, 0.6} at 500 000 cycles and seed 42.
fn tiny_grid(threads: usize) -> Fig5Options {
    Fig5Options {
        loads: vec![0.1, 0.3, 0.6],
        workloads: vec![Workload::McRouter],
        designs: vec![Design::Baseline, Design::Duplexity],
        horizon_cycles: 500_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 60_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        threads,
        ..Fig5Options::default()
    }
}

/// Every cycle run `tiny_grid` makes, with the horizon and seed Figure 5
/// gives it: each cell (`Some(load)`, labelled as `run_fig5_traced`
/// labels its cell traces) and each design's saturated calibration
/// (`None`).
fn fig5_cycle_runs() -> Vec<(String, Design, Option<f64>, ServerSim)> {
    let opts = tiny_grid(1);
    let (horizon, seed) = (opts.horizon_cycles, opts.seed);
    let mut runs = Vec::new();
    for design in opts.designs {
        let sim = ServerSim::new(design, Workload::McRouter);
        for &load in &opts.loads {
            let label = format!("cells/{design}/{}@{load:.2}", Workload::McRouter);
            let cell = sim.load(load).horizon_cycles(horizon).seed(seed);
            runs.push((label, design, Some(load), cell));
        }
        let calibration = sim
            .saturated()
            .horizon_cycles(horizon / 3)
            .seed(derive_stream(seed, 0x5A7));
        runs.push((format!("{design} calibration"), design, None, calibration));
    }
    runs
}

#[test]
fn fig5_grid_fast_forward_matches_naive_at_1_and_8_workers() {
    let runs = fig5_cycle_runs();
    let naive: Vec<DesignMetrics> = runs
        .iter()
        .map(|(_, _, _, sim)| sim.stepping(Stepping::Naive).run())
        .collect();
    for ((at, _, _, sim), m_naive) in runs.iter().zip(&naive) {
        let m_fast = sim.stepping(Stepping::FastForward).run();
        assert_eq!(*m_naive, m_fast, "{at} metrics");
    }
    // The grid itself only fast-forwards; each cell it reports at either
    // worker count is the utilization of the matching naive run.
    for threads in [1, 8] {
        let cells = run_fig5(&tiny_grid(threads));
        assert_eq!(cells.len(), 6, "{threads}w cell count");
        for cell in &cells {
            let i = runs
                .iter()
                .position(|(_, d, l, _)| *d == cell.design && *l == Some(cell.load))
                .expect("every grid cell is a listed cycle run");
            assert_eq!(
                cell.utilization,
                naive[i].utilization(4),
                "{} utilization @ {threads}w",
                runs[i].0
            );
        }
    }
}

#[test]
fn fig5_traced_artifacts_identical_across_steppings() {
    const CAPACITY: usize = 1 << 14;
    let traced = |label: &str, sim: ServerSim, stepping: Stepping| {
        let tracer = Tracer::enabled(CAPACITY, 1000.0);
        let _ = sim.stepping(stepping).run_traced(&tracer);
        let log = tracer.take();
        let json = chrome_trace_json(&[(label.to_string(), log.clone())]);
        (json, log.registry.to_json())
    };
    // The grid's own fast-forwarded cell traces; it does not trace its
    // calibrations, so those are traced here.
    let grid = run_fig5_traced(&tiny_grid(1), Some(&TraceConfig { capacity: CAPACITY }));
    for (label, _, load, sim) in fig5_cycle_runs() {
        let (chrome_naive, reg_naive) = traced(&label, sim, Stepping::Naive);
        let (chrome_fast, reg_fast) = match load {
            Some(_) => {
                let (_, log) = grid
                    .traces
                    .iter()
                    .find(|(l, _)| *l == label)
                    .expect("the grid traces every cell");
                let json = chrome_trace_json(&[(label.clone(), log.clone())]);
                (json, log.registry.to_json())
            }
            None => traced(&label, sim, Stepping::FastForward),
        };
        assert_eq!(chrome_naive, chrome_fast, "{label} chrome trace bytes");
        assert_eq!(reg_naive, reg_fast, "{label} registry bytes");
    }
}
