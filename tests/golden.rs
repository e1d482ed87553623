//! Golden regression tests: every figure artifact is snapshotted as JSON.
//!
//! Each test regenerates a small fixed-seed artifact, serializes it with the
//! workspace's deterministic JSON writer (insertion-ordered fields,
//! shortest-round-trip floats), and compares it **byte for byte** against a
//! checked-in fixture under `tests/golden/`. Any change to the simulators,
//! the RNG derivation, or the normalization arithmetic shows up as a diff.
//!
//! To regenerate the fixtures after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! git diff tests/golden/   # review the numeric drift, then commit
//! ```
//!
//! Grids are chosen so no cell saturates (`p99` stays finite): the JSON
//! encoding maps non-finite floats to `null`, which would not round-trip
//! back into an `f64` field.

mod common;

use duplexity::experiments::cluster_sweep::{
    cluster_sweep, ClusterSweepOptions, ClusterSweepPoint,
};
use duplexity::experiments::fault_sweep::{
    default_policies, fault_sweep, FaultSweepOptions, FaultSweepPoint,
};
use duplexity::experiments::fig1::{fig1c, Fig1cPoint};
use duplexity::experiments::fig2::{fig2a, Fig2aPoint};
use duplexity::experiments::fig5::{run_fig5, Fig5Cell, Fig5Options};
use duplexity::experiments::fig6::{dyads_per_port, fig6, Fig6Cell};
use duplexity::experiments::hedge_sweep::{hedge_sweep, HedgeSweepOptions, HedgeSweepPoint};
use duplexity::experiments::rack_sweep::{rack_sweep, RackSweepOptions, RackSweepPoint};
use duplexity::experiments::sweep::{latency_load_sweep, SweepOptions};
use duplexity::experiments::tables::{table2_rows, Table2Row};
use duplexity::experiments::timeline::{timeline, Timeline, TimelineOptions};
use duplexity::report as render;
use duplexity::{
    chrome_trace_json, experiments, BalancerPolicy, CellCache, CellKey, Design, DesignMetrics,
    DuplicationPolicy, RackPlan, Registry, ServerSim, Tracer, Workload,
};
use duplexity_cpu::inorder::InoEngine;
use duplexity_cpu::memsys::MemSys;
use duplexity_cpu::metrics::EngineStats;
use duplexity_cpu::pool::{ContextPool, VirtualContext};
use duplexity_queueing::des::Mg1Options;
use duplexity_stats::rng::{derive_stream, rng_from_seed};
use duplexity_uarch::cache::CacheStats;
use duplexity_uarch::config::{LatencyModel, MachineConfig};
use duplexity_uarch::tlb::TlbStats;
use duplexity_workloads::graph::FillerFactory;
use serde::Serialize;

/// Compares against `tests/golden/<name>.json` via the shared helper
/// (first-mismatch cell/field naming, `UPDATE_GOLDEN=1` regeneration).
fn assert_matches_golden<T: serde::Serialize>(name: &str, value: &T) {
    common::assert_matches_golden("golden", name, value);
}

fn golden_fig5_opts() -> Fig5Options {
    Fig5Options {
        loads: vec![0.3, 0.6],
        workloads: vec![Workload::McRouter],
        designs: vec![Design::Baseline, Design::Duplexity],
        horizon_cycles: 500_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 60_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        ..Fig5Options::default()
    }
}

fn golden_fig5_cells() -> Vec<Fig5Cell> {
    let cells = run_fig5(&golden_fig5_opts());
    assert!(
        cells.iter().all(|c| !c.saturated && c.p99_us.is_finite()),
        "golden grid must stay unsaturated so every float round-trips"
    );
    cells
}

#[test]
fn fig5_small_grid_matches_golden() {
    assert_matches_golden("fig5_small_grid", &golden_fig5_cells());
}

#[test]
fn fig5_golden_fixture_round_trips_through_json() {
    let cells = golden_fig5_cells();
    let json = serde_json::to_string_pretty(&cells).expect("serialize");
    let back: Vec<Fig5Cell> = serde_json::from_str(&json).expect("deserialize Fig5Cell vec");
    assert_eq!(back.len(), cells.len());
    for (a, b) in cells.iter().zip(&back) {
        assert_eq!(a.design, b.design);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.p99_us, b.p99_us);
        assert_eq!(a.iso_p99_norm, b.iso_p99_norm);
        assert_eq!(a.stp_norm, b.stp_norm);
    }
}

#[test]
fn fig6_derived_from_small_grid_matches_golden() {
    let f6: Vec<Fig6Cell> = fig6(&golden_fig5_cells());
    assert!(dyads_per_port(&f6) >= 1);
    assert_matches_golden("fig6_small_grid", &f6);
}

/// Figures 1(c) and 2(a) at four threads and a 20k-cycle horizon. Both
/// take their worker count from `DUPLEXITY_THREADS`, so CI runs this test
/// at one and at eight workers against the same fixture.
#[test]
fn fig1c_and_fig2a_small_match_golden() {
    #[derive(Serialize)]
    struct Smt {
        fig1c: Vec<Fig1cPoint>,
        fig2a: Vec<Fig2aPoint>,
    }
    let smt = Smt {
        fig1c: fig1c(4, 20_000, 42),
        fig2a: fig2a(4, 20_000, 42),
    };
    assert_eq!((smt.fig1c.len(), smt.fig2a.len()), (16, 4));
    assert_matches_golden("smt_small", &smt);
}

/// Every design that steps the in-order engine (MorphCore's pinned
/// fillers, the HSMT lender-core and the morphed master-core's filler
/// mode) on two services, plus a bare lender-core multiplexing the paper's
/// 32 filler threads. Any change to the engine's RNG draws, round-robin
/// order, issue slots, pool order or TLB and cache traffic shows here.
#[test]
fn dyad_engines_match_golden() {
    #[derive(Serialize)]
    struct DesignRun {
        design: Design,
        workload: Workload,
        metrics: DesignMetrics,
    }
    #[derive(Serialize)]
    struct LenderRun {
        stats: EngineStats,
        retired_by_ctx: Vec<u64>,
        pool_ready: usize,
        pool_parked: usize,
        itlb: TlbStats,
        dtlb: TlbStats,
        l1i: CacheStats,
        l1d: CacheStats,
        llc: CacheStats,
    }
    #[derive(Serialize)]
    struct DyadEngines {
        designs: Vec<DesignRun>,
        lender: LenderRun,
    }

    let mut designs = Vec::new();
    for design in [
        Design::MorphCore,
        Design::MorphCorePlus,
        Design::DuplexityReplication,
        Design::Duplexity,
    ] {
        for workload in [Workload::McRouter, Workload::WordStem] {
            let metrics = ServerSim::new(design, workload)
                .load(0.5)
                .horizon_cycles(150_000)
                .seed(42)
                .run();
            designs.push(DesignRun {
                design,
                workload,
                metrics,
            });
        }
    }

    let fillers = FillerFactory::paper(42);
    let mut engine = InoEngine::lender(MachineConfig::lender().cycles_per_us(), 64);
    let mut pool = ContextPool::new();
    for id in 0..32 {
        pool.add(VirtualContext::new(id, fillers.stream(id)));
    }
    let mut mem = MemSys::table1(LatencyModel::default());
    let mut rng = rng_from_seed(derive_stream(42, 0x1E0D));
    for now in 0..200_000 {
        engine.step(now, &mut mem, None, Some(&mut pool), &mut rng);
    }
    let lender = LenderRun {
        stats: engine.stats().clone(),
        retired_by_ctx: engine.retired_by_ctx().to_vec(),
        pool_ready: pool.ready_len(),
        pool_parked: pool.parked_len(),
        itlb: *mem.itlb.stats(),
        dtlb: *mem.dtlb.stats(),
        l1i: *mem.l1i.stats(),
        l1d: *mem.l1d.stats(),
        llc: *mem.llc.stats(),
    };
    assert!(lender.stats.retired_total() > 0, "the lender must issue");
    assert_matches_golden("dyad_engines", &DyadEngines { designs, lender });
}

/// The Chrome trace export and the merged registries of three traced
/// cycle runs: MorphCore's pinned fillers, a Duplexity dyad's morph
/// windows and borrows, and an SMT co-runner's stall spans. Any change to
/// the events the engines emit, their order or timestamps, the Chrome
/// writer or the registry's JSON shows here.
#[test]
fn traced_dyads_match_golden() {
    let mut traces = Vec::new();
    for (design, cycles) in [
        (Design::MorphCore, 150_000),
        (Design::Duplexity, 60_000),
        (Design::Smt, 150_000),
    ] {
        let tracer = Tracer::enabled(1 << 8, 1000.0);
        let _ = ServerSim::new(design, Workload::McRouter)
            .load(0.5)
            .horizon_cycles(cycles)
            .seed(42)
            .run_traced(&tracer);
        traces.push((design.to_string(), tracer.take()));
    }
    let mut registry = Registry::default();
    for (label, log) in &traces {
        assert!(!log.events.is_empty(), "{label} must emit events");
        registry.merge_prefixed(label, &log.registry);
    }
    let text = format!("{}\n{}", chrome_trace_json(&traces), registry.to_json());
    common::assert_text_matches_golden("golden", "dyad_traces.txt", &text);
}

#[test]
fn slo_sweep_matches_golden() {
    let points = latency_load_sweep(&SweepOptions {
        workload: Workload::McRouter,
        designs: vec![Design::Baseline, Design::Smt, Design::Duplexity],
        loads: vec![0.2, 0.5, 0.8],
        calibration_cycles: 500_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 50_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        ..SweepOptions::default()
    });
    assert!(
        points.iter().all(|p| !p.saturated && p.p99_us.is_finite()),
        "golden sweep must stay unsaturated so every float round-trips"
    );
    assert_matches_golden("slo_sweep", &points);
}

/// The fault-sweep grid CI re-runs at 8 workers and diffs against
/// `tests/golden/fault_sweep.json`.
fn golden_fault_sweep_points() -> Vec<FaultSweepPoint> {
    let points = fault_sweep(&FaultSweepOptions {
        loads: vec![0.3, 0.6],
        queue: Mg1Options {
            max_samples: 60_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        ..FaultSweepOptions::default()
    });
    assert!(
        points.iter().all(|p| !p.saturated && p.p99_us.is_finite()),
        "golden fault grid must stay unsaturated so every float round-trips"
    );
    points
}

#[test]
fn fault_sweep_matches_golden() {
    assert_matches_golden("fault_sweep", &golden_fault_sweep_points());
}

#[test]
fn fault_sweep_golden_fixture_round_trips_through_json() {
    let points = golden_fault_sweep_points();
    let json = serde_json::to_string_pretty(&points).expect("serialize");
    let back: Vec<FaultSweepPoint> =
        serde_json::from_str(&json).expect("deserialize FaultSweepPoint vec");
    assert_eq!(back.len(), points.len());
    for (a, b) in points.iter().zip(&back) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.load, b.load);
        assert_eq!(a.p99_us, b.p99_us);
        assert_eq!(a.mean_attempts, b.mean_attempts);
        assert_eq!(a.drop_rate, b.drop_rate);
    }
}

fn golden_cluster_sweep_points() -> Vec<ClusterSweepPoint> {
    let points = cluster_sweep(&ClusterSweepOptions {
        designs: vec![Design::Baseline, Design::Duplexity],
        policies: vec![BalancerPolicy::Random, BalancerPolicy::Jsq],
        server_counts: vec![4],
        loads: vec![0.4, 0.7],
        calibration_cycles: 200_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 20_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        ..ClusterSweepOptions::default()
    });
    assert!(
        points.iter().all(|p| !p.saturated && p.p99_us.is_finite()),
        "golden cluster grid must stay unsaturated so every float round-trips"
    );
    points
}

#[test]
fn cluster_sweep_matches_golden() {
    assert_matches_golden("cluster_sweep", &golden_cluster_sweep_points());
}

fn golden_timeline() -> Timeline {
    let t = timeline(&TimelineOptions {
        servers: 4,
        loads: vec![0.3, 0.6],
        bin_us: 5_000.0,
        queue: Mg1Options {
            max_samples: 5_000,
            warmup: 500,
            ..Mg1Options::default()
        },
        ..TimelineOptions::default()
    });
    assert!(t.cells.iter().all(|c| !c.saturated));
    t
}

#[test]
fn timeline_matches_golden() {
    common::assert_text_matches_golden("golden", "timeline.json", &golden_timeline().to_json());
}

/// A hand-built fault-sweep row. In the table below `drop-retry`
/// saturates only at the higher load and `slow` at every load (the
/// all-`sat` trailer).
fn fault_row(policy: &str, load: f64, p99: f64, saturated: bool) -> FaultSweepPoint {
    FaultSweepPoint {
        policy: policy.to_string(),
        load,
        p50_us: p99 / 4.0,
        p99_us: p99,
        mean_us: p99 / 3.0,
        mean_attempts: if saturated { f64::NAN } else { 1.05 },
        drop_rate: 0.05,
        fail_rate: 0.0001,
        saturated,
    }
}

fn cluster_row(policy: &str, load: f64, p99: f64, saturated: bool) -> ClusterSweepPoint {
    ClusterSweepPoint {
        design: Design::Baseline,
        policy: policy.to_string(),
        servers: 4,
        load,
        p99_us: p99,
        p50_us: p99 / 4.0,
        mean_us: p99 / 3.0,
        mean_wait_us: p99 / 8.0,
        utilization: if saturated { 1.0 } else { load },
        samples: if saturated { 0 } else { 1000 },
        converged: !saturated,
        saturated,
    }
}

fn rack_row(plan: &str, load: f64, p99: f64, steals: u64) -> RackSweepPoint {
    let saturated = !p99.is_finite();
    RackSweepPoint {
        design: Design::Baseline,
        policy: "jsq".to_string(),
        plan: plan.to_string(),
        coordination: "central".to_string(),
        delta_us: 8.0,
        servers: 8,
        load,
        p99_us: p99,
        p50_us: p99 / 4.0,
        mean_us: p99 / 3.0,
        mean_wait_us: p99 / 8.0,
        hot_p99_us: p99 * 1.1,
        utilization: load,
        steals,
        steals_empty: 0,
        samples: 1000,
        converged: !saturated,
        saturated,
    }
}

fn hedge_row(servers: usize, plan: &str, load: f64, p99: f64, added: f64) -> HedgeSweepPoint {
    let saturated = !p99.is_finite();
    HedgeSweepPoint {
        policy: "jsq".to_string(),
        plan: plan.to_string(),
        servers,
        load,
        p99_us: p99,
        p50_us: p99 / 4.0,
        mean_us: p99 / 3.0,
        mean_wait_us: p99 / 8.0,
        dup_mean_wait_us: 0.0,
        utilization: if saturated { 1.0 } else { load + added },
        added_utilization: added,
        dup_copies: if plan == "none" { 0 } else { 500 },
        hedges_fired: 0,
        purged: 0,
        wasted_completions: 0,
        samples: if saturated { 0 } else { 1000 },
        converged: !saturated,
        saturated,
    }
}

/// Pins the rendered text of every sweep table, the Figure 5 matrix and
/// the timeline, byte for byte. The small grids are the ones the JSON
/// fixtures pin (the hedge grid from `tests/hedge_determinism.rs`, the rack
/// grid from `tests/rack_determinism.rs`); hand-built rows reach what a
/// stable grid never does: saturated cells and trailers, a missing matrix
/// cell, and the hedge frontier falling back to a lower load or to none.
#[test]
fn report_tables_match_golden() {
    let inf = f64::INFINITY;
    let fig5 = golden_fig5_cells();
    let hedge = hedge_sweep(&HedgeSweepOptions {
        policies: vec![BalancerPolicy::Jsq],
        server_counts: vec![4],
        loads: vec![0.25, 0.4],
        seed: 42,
        queue: Mg1Options {
            max_samples: 20_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        ..HedgeSweepOptions::default()
    });
    let rack = rack_sweep(&RackSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Jsq],
        plans: vec![
            RackPlan::fresh(),
            RackPlan::fresh().with_delta(8.0),
            RackPlan::fresh().with_delta(8.0).with_steal(2),
            RackPlan::fresh()
                .with_delta(8.0)
                .distributed(4)
                .with_tenants(64, 0.99),
        ],
        server_counts: vec![4],
        loads: vec![0.4, 0.7],
        calibration_cycles: 200_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 20_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        ..RackSweepOptions::default()
    });
    // Duplexity has no 60% cell here, so its row renders that column `sat`.
    let gappy: Vec<Fig5Cell> = fig5
        .iter()
        .filter(|c| !(c.design == Design::Duplexity && c.load == 0.6))
        .cloned()
        .collect();

    let tables = [
        render::render_fault_sweep(&golden_fault_sweep_points()),
        render::render_cluster_sweep(&golden_cluster_sweep_points()),
        render::render_rack_sweep(&rack),
        render::render_hedge_sweep(&hedge),
        render::render_fig5_matrix(&fig5, "Fig 5(a): core utilization", |c| c.utilization),
        render::render_fig5_matrix(&fig5, "Fig 5(d): normalized p99 latency", |c| c.p99_norm),
        render::render_fig5_matrix(&gappy, "Fig 5(e): iso-throughput p99", |c| c.iso_p99_norm),
        render::render_timeline(&golden_timeline()),
        render::render_fault_sweep(&[
            fault_row("drop-retry", 0.3, 40.0, false),
            fault_row("slow", 0.3, inf, true),
            fault_row("drop-retry", 0.9, inf, true),
            fault_row("slow", 0.9, inf, true),
        ]),
        render::render_cluster_sweep(&[
            cluster_row("random", 0.3, 40.0, false),
            cluster_row("random", 0.9, inf, true),
            cluster_row("jsq", 0.3, 25.0, false),
            cluster_row("jsq", 0.9, 60.0, false),
        ]),
        render::render_rack_sweep(&[
            rack_row("central", 0.5, 14.0, 0),
            rack_row("central", 0.7, 18.0, 0),
            rack_row("central_d8_st2", 0.5, 14.5, 321),
            rack_row("central_d8_st2", 0.7, 19.0, 640),
            rack_row("dist4_d8_z0.99", 0.5, inf, 0),
            rack_row("dist4_d8_z0.99", 0.7, inf, 0),
        ]),
        render::render_hedge_sweep(&[
            // dup2_np saturates at 50%, so the paired frontier falls back
            // to the 30% column for the whole 4-server block.
            hedge_row(4, "none", 0.3, 40.0, 0.0),
            hedge_row(4, "none", 0.5, 60.0, 0.0),
            hedge_row(4, "dup2", 0.3, 25.0, 0.2),
            hedge_row(4, "dup2", 0.5, 30.0, 0.25),
            hedge_row(4, "dup2_np", 0.3, 26.0, 0.3),
            hedge_row(4, "dup2_np", 0.5, inf, 0.0),
            // Every load has a saturated plan: no frontier at all.
            hedge_row(8, "none", 0.3, 30.0, 0.0),
            hedge_row(8, "dup2", 0.3, inf, 0.0),
            hedge_row(8, "none", 0.5, inf, 0.0),
            hedge_row(8, "dup2", 0.5, 22.0, 0.1),
        ]),
    ];
    common::assert_text_matches_golden("golden", "report_tables.txt", &tables.join("\n"));
}

/// One stored cache entry: the driver, its cell key, and the exact payload
/// text `CellCache::load` returns for it.
#[derive(Serialize)]
struct StoredCell {
    driver: String,
    key: String,
    payload: String,
}

/// Runs `run` against a fresh cache and reads back every key's payload.
fn stored_cells(driver: &str, keys: Vec<CellKey>, run: impl FnOnce(CellCache)) -> Vec<StoredCell> {
    let dir = std::env::temp_dir().join(format!(
        "duplexity-golden-keys-{driver}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CellCache::new(&dir);
    run(cache.clone());
    let cells = keys
        .into_iter()
        .map(|key| StoredCell {
            driver: driver.to_string(),
            payload: cache
                .load(&key)
                .unwrap_or_else(|| panic!("{driver}: no entry stored for {}", key.hex())),
            key: key.hex().to_string(),
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    cells
}

fn tiny_queue() -> Mg1Options {
    Mg1Options {
        max_samples: 20_000,
        warmup: 500,
        ..Mg1Options::default()
    }
}

/// Pins every driver's cache keys and payload bytes on a one- or two-cell
/// grid (one stable cell plus, where the driver has a pre-guard, one
/// saturated cell), so a refactor that silently re-keys or re-encodes a
/// cell — turning every warm on-disk cache cold — fails here.
#[test]
fn cell_keys_and_payloads_match_golden() {
    let mut cells = Vec::new();

    let mut o = Fig5Options {
        loads: vec![0.5],
        workloads: vec![Workload::McRouter],
        designs: vec![Design::Baseline, Design::Duplexity],
        horizon_cycles: 300_000,
        queue: tiny_queue(),
        ..Fig5Options::default()
    };
    cells.extend(stored_cells(
        "fig5",
        experiments::fig5::cell_keys(&o),
        |c| {
            o.cache = Some(c);
            let _ = run_fig5(&o);
        },
    ));

    let mut o = SweepOptions {
        designs: vec![Design::Baseline],
        loads: vec![0.5, 0.99],
        calibration_cycles: 200_000,
        queue: tiny_queue(),
        ..SweepOptions::default()
    };
    cells.extend(stored_cells(
        "sweep",
        experiments::sweep::cell_keys(&o),
        |c| {
            o.cache = Some(c);
            let _ = latency_load_sweep(&o);
        },
    ));

    let mut o = FaultSweepOptions {
        loads: vec![0.5, 0.99],
        policies: vec![default_policies().swap_remove(1)],
        queue: tiny_queue(),
        ..FaultSweepOptions::default()
    };
    cells.extend(stored_cells(
        "fault_sweep",
        experiments::fault_sweep::cell_keys(&o),
        |c| {
            o.cache = Some(c);
            let _ = fault_sweep(&o);
        },
    ));

    let mut o = ClusterSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Jsq],
        server_counts: vec![4],
        loads: vec![0.5, 0.99],
        calibration_cycles: 200_000,
        queue: tiny_queue(),
        ..ClusterSweepOptions::default()
    };
    cells.extend(stored_cells(
        "cluster_sweep",
        experiments::cluster_sweep::cell_keys(&o),
        |c| {
            o.cache = Some(c);
            let _ = cluster_sweep(&o);
        },
    ));

    let mut o = HedgeSweepOptions {
        policies: vec![BalancerPolicy::Jsq],
        plans: vec![DuplicationPolicy::duplicate(2)],
        server_counts: vec![4],
        loads: vec![0.4, 0.99],
        queue: tiny_queue(),
        replications: 2,
        ..HedgeSweepOptions::default()
    };
    cells.extend(stored_cells(
        "hedge_sweep",
        experiments::hedge_sweep::cell_keys(&o),
        |c| {
            o.cache = Some(c);
            let _ = hedge_sweep(&o);
        },
    ));

    let mut o = RackSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Jsq],
        plans: vec![RackPlan::fresh().with_delta(8.0)],
        server_counts: vec![4],
        loads: vec![0.5, 0.99],
        calibration_cycles: 200_000,
        queue: tiny_queue(),
        ..RackSweepOptions::default()
    };
    cells.extend(stored_cells(
        "rack_sweep",
        experiments::rack_sweep::cell_keys(&o),
        |c| {
            o.cache = Some(c);
            let _ = rack_sweep(&o);
        },
    ));

    let mut o = TimelineOptions {
        servers: 4,
        loads: vec![0.3, 1.2],
        bin_us: 20_000.0,
        queue: Mg1Options {
            max_samples: 5_000,
            warmup: 500,
            ..Mg1Options::default()
        },
        ..TimelineOptions::default()
    };
    cells.extend(stored_cells(
        "timeline",
        experiments::timeline::cell_keys(&o),
        |c| {
            o.cache = Some(c);
            let _ = timeline(&o);
        },
    ));

    assert_matches_golden("cell_keys", &cells);
}

#[test]
fn table2_rows_match_golden() {
    let rows = table2_rows();
    assert_eq!(rows.len(), 7);
    assert_matches_golden("table2", &rows);
}

#[test]
fn table2_golden_fixture_round_trips_through_json() {
    let rows = table2_rows();
    let json = serde_json::to_string_pretty(&rows).expect("serialize");
    let back: Vec<Table2Row> = serde_json::from_str(&json).expect("deserialize Table2Row vec");
    assert_eq!(back, rows);
}
