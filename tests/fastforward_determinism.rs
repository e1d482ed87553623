//! The quiescence fast-forward bit-identity contract.
//!
//! `Stepping::FastForward` skips cycle spans only when every active engine
//! proves (via `next_event_cycle`) that stepping them would change nothing
//! but counters — no RNG draws, no retirement, no morph decisions. These
//! tests run every design both ways and demand *exact* equality:
//!
//! 1. **Metrics** — `DesignMetrics` (which derives `PartialEq`) must be
//!    identical for every design preset, open-loop and saturated.
//! 2. **Dyad metrics** — `DyadSim::run` vs `DyadSim::run_naive` must yield
//!    identical `DyadMetrics` for every dyad configuration, including a
//!    stall-heavy master that morphs repeatedly.
//! 3. **Artifacts** — with tracing enabled, the exported Chrome JSON and
//!    metrics-registry JSON must be byte-identical across steppings.
//! 4. **Grid** — a fast-forwarded Figure 5 grid matches the naive grid
//!    cell-for-cell at 1 and 8 workers, from the idle-heavy load 0.1 up
//!    to 0.6.

use duplexity::experiments::fig5::{run_fig5, run_fig5_traced, Fig5Options, TraceConfig};
use duplexity::{chrome_trace_json, Design, Workload};
use duplexity_cpu::designs::{run_design, DesignMetrics, Scenario, Stepping};
use duplexity_cpu::dyad::{DyadConfig, DyadSim};
use duplexity_cpu::op::{LoopedTrace, MicroOp, Op};
use duplexity_obs::Tracer;
use duplexity_queueing::des::Mg1Options;
use duplexity_stats::rng::rng_from_seed;
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

fn tiny_grid(threads: usize, stepping: Stepping) -> Fig5Options {
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
        stepping,
        ..Fig5Options::default()
    }
}

#[test]
fn fig5_grid_fast_forward_matches_naive_at_1_and_8_workers() {
    let naive = run_fig5(&tiny_grid(1, Stepping::Naive));
    for threads in [1, 8] {
        let fast = run_fig5(&tiny_grid(threads, Stepping::FastForward));
        assert_eq!(naive.len(), fast.len());
        for (a, b) in naive.iter().zip(&fast) {
            let at = format!("({}, {}, {}) @ {threads}w", a.design, a.workload, a.load);
            assert_eq!(a.utilization, b.utilization, "{at}");
            assert_eq!(a.perf_density_norm, b.perf_density_norm, "{at}");
            assert_eq!(a.energy_norm, b.energy_norm, "{at}");
            assert_eq!(a.p99_us, b.p99_us, "{at}");
            assert_eq!(a.iso_p99_us, b.iso_p99_us, "{at}");
            assert_eq!(a.stp_norm, b.stp_norm, "{at}");
            assert_eq!(a.service_slowdown, b.service_slowdown, "{at}");
            assert_eq!(a.remote_ops_per_us, b.remote_ops_per_us, "{at}");
        }
    }
}

#[test]
fn fig5_traced_artifacts_identical_across_steppings() {
    let trace = TraceConfig { capacity: 1 << 14 };
    let naive = run_fig5_traced(&tiny_grid(1, Stepping::Naive), Some(&trace));
    let fast = run_fig5_traced(&tiny_grid(1, Stepping::FastForward), Some(&trace));
    assert_eq!(
        chrome_trace_json(&naive.traces),
        chrome_trace_json(&fast.traces),
        "chrome trace bytes"
    );
    assert_eq!(
        naive.registry.to_json(),
        fast.registry.to_json(),
        "registry bytes"
    );
}
