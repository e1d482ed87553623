//! Cross-crate integration tests: the full pipeline from workload kernels
//! through the cycle simulator, queueing simulator, and power model.

use duplexity::experiments::fig5::{run_fig5, Fig5Options};
use duplexity::experiments::{fig1, fig2, fig6, tables};
use duplexity::{Design, ServerSim, Workload};
use duplexity_queueing::des::Mg1Options;

fn small_fig5(workload: Workload, designs: Vec<Design>) -> Fig5Options {
    Fig5Options {
        loads: vec![0.5],
        workloads: vec![workload],
        designs,
        horizon_cycles: 1_000_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 100_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        ..Fig5Options::default()
    }
}

/// The headline claim, end to end: Duplexity multiplies master-core
/// utilization over both baseline and SMT while keeping the iso-throughput
/// tail below the baseline's.
#[test]
fn headline_utilization_and_tail() {
    let opts = small_fig5(
        Workload::McRouter,
        vec![Design::Baseline, Design::Smt, Design::Duplexity],
    );
    let cells = run_fig5(&opts);
    let get = |d: Design| cells.iter().find(|c| c.design == d).expect("cell");
    let base = get(Design::Baseline);
    let smt = get(Design::Smt);
    let dup = get(Design::Duplexity);

    assert!(
        dup.utilization > 2.0 * base.utilization,
        "vs baseline: {dup:?}"
    );
    assert!(dup.utilization > 1.2 * smt.utilization, "vs SMT: {dup:?}");
    assert!(dup.iso_p99_norm < 1.0);
    assert!(dup.perf_density_norm > smt.perf_density_norm);
}

/// Every microservice runs on every design without panicking, making
/// progress and completing requests.
#[test]
fn full_design_workload_matrix_executes() {
    for workload in Workload::ALL {
        for design in [
            Design::Baseline,
            Design::SmtPlus,
            Design::MorphCore,
            Design::Duplexity,
        ] {
            let m = ServerSim::new(design, workload)
                .load(0.5)
                .horizon_cycles(600_000)
                .seed(1)
                .run();
            assert!(m.master_retired > 0, "{design}/{workload}: no progress");
            assert!(
                !m.request_latencies_us.is_empty(),
                "{design}/{workload}: no completed requests"
            );
        }
    }
}

/// WordStem (stall-free) only morphs on idleness and issues no remote ops
/// from the master-thread.
#[test]
fn wordstem_is_idleness_only() {
    let m = ServerSim::new(Design::Duplexity, Workload::WordStem)
        .load(0.3)
        .horizon_cycles(1_500_000)
        .seed(2)
        .run();
    assert_eq!(m.remote_ops_master, 0);
    assert!(m.morphs > 0, "idle periods must still trigger morphs");
    assert!(m.colocated_retired > 0);
}

/// The motivation chain: Figure 1 artifacts agree with their analytic
/// anchors.
#[test]
fn motivation_figures_are_consistent() {
    // 1(a): equal-order compute/stall wastes half the machine.
    let cells = fig1::fig1a(2);
    let mid = cells
        .iter()
        .find(|c| (c.stall_us - 1.0).abs() < 0.01 && (c.compute_us - 1.0).abs() < 0.01)
        .expect("unit cell");
    assert!((mid.utilization - 0.5).abs() < 1e-9);

    // 1(b): a 1M QPS service at 50% load has 2µs mean idle periods.
    let series = fig1::fig1b(100);
    assert_eq!(series.len(), 6);

    // 2(b): the paper's provisioning anchors.
    let f2b = fig2::fig2b(32);
    let p21 = f2b
        .iter()
        .find(|p| p.stall_p == 0.5 && p.n == 21)
        .expect("point");
    assert!(p21.p_ready >= 0.9);
}

/// Figure 6 derives from Figure 5 and stays within the FDR budget.
#[test]
fn nic_utilization_within_budget() {
    let opts = small_fig5(Workload::FlannLl, vec![Design::Baseline, Design::Duplexity]);
    let cells = run_fig5(&opts);
    let f6 = fig6::fig6(&cells);
    for c in &f6 {
        assert!(
            c.nic_utilization < 0.2,
            "{:?} exceeds plausible NIC share",
            c
        );
    }
    assert!(fig6::dyads_per_port(&f6) >= 5);
}

/// Tables render and the area model matches the paper.
#[test]
fn tables_match_paper() {
    assert_eq!(tables::table1_lines().len(), 8);
    for row in tables::table2_rows() {
        assert!((row.area_mm2 - row.paper_area_mm2).abs() / row.paper_area_mm2 < 0.01);
    }
}

/// Determinism across the whole stack: same seed, same Figure 5 numbers.
#[test]
fn fig5_is_deterministic() {
    let opts = small_fig5(Workload::FlannLl, vec![Design::Baseline, Design::Duplexity]);
    let a = run_fig5(&opts);
    let b = run_fig5(&opts);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.utilization, y.utilization);
        assert_eq!(x.p99_us, y.p99_us);
        assert_eq!(x.stp_norm, y.stp_norm);
    }
}

/// Cross-granularity validation: the cycle-level simulator's request
/// latencies at 50% load agree with the Pollaczek–Khinchine prediction fed
/// by its own measured (saturated) service-time distribution. This ties the
/// two simulation granularities of the paper's methodology together.
#[test]
fn cycle_sim_queueing_matches_mg1_analytic() {
    use duplexity_queueing::mg1::Mg1Analytic;
    use duplexity_stats::summary::Summary;

    // 1) Measure the service distribution under saturation (no queueing).
    let sat = ServerSim::new(Design::Baseline, Workload::WordStem)
        .saturated()
        .horizon_cycles(3_000_000)
        .seed(11)
        .run();
    let service: Summary = sat.request_latencies_us.iter().copied().collect();
    assert!(
        service.count() > 200,
        "need service samples, got {}",
        service.count()
    );

    // 2) Open-loop at 50% of nominal capacity. The arrival rate in the cycle
    //    sim is load / nominal_service_us, so use the same lambda here.
    let loaded = ServerSim::new(Design::Baseline, Workload::WordStem)
        .load(0.5)
        .horizon_cycles(20_000_000)
        .seed(11)
        .run();
    let measured: Summary = loaded.request_latencies_us.iter().copied().collect();
    assert!(
        measured.count() > 300,
        "need latency samples, got {}",
        measured.count()
    );

    // 3) Analytic M/G/1 with the measured first two service moments.
    let analytic = Mg1Analytic {
        lambda_per_us: 0.5 / Workload::WordStem.nominal_service_us(),
        mean_service_us: service.mean(),
        service_scv: service.scv(),
    };
    let predicted = analytic.mean_sojourn_us();
    let observed = measured.mean();
    assert!(
        (observed - predicted).abs() / predicted < 0.25,
        "cycle-sim mean sojourn {observed:.2}µs vs M/G/1 {predicted:.2}µs"
    );
}

/// Slow, opt-in validation (`cargo test --release -- --ignored`): the cycle
/// simulator's own p95 latency at 50% load agrees with the queueing
/// simulator fed by the measured service distribution — the full two-level
/// methodology validated at the tail, not just the mean.
#[test]
#[ignore = "takes ~30s; run with --ignored"]
fn slow_cycle_vs_queueing_tail() {
    use duplexity_queueing::des::{try_simulate_mg1, Mg1Options};
    use duplexity_stats::quantile::QuantileEstimator;
    use duplexity_stats::rng::SimRng;

    // Service distribution from saturation.
    let sat = ServerSim::new(Design::Baseline, Workload::WordStem)
        .saturated()
        .horizon_cycles(8_000_000)
        .seed(21)
        .run();
    let services: Vec<f64> = sat.request_latencies_us.clone();
    assert!(services.len() > 500);

    // Long open-loop run for a stable cycle-level p95.
    let loaded = ServerSim::new(Design::Baseline, Workload::WordStem)
        .load(0.5)
        .horizon_cycles(120_000_000)
        .seed(21)
        .run();
    let mut q: QuantileEstimator = loaded.request_latencies_us.iter().copied().collect();
    assert!(q.count() > 2_000, "samples {}", q.count());
    let cycle_p95 = q.quantile(0.95).unwrap();

    // Queueing simulation resampling the measured services.
    let mut idx = 0usize;
    let mut service = |_rng: &mut SimRng| {
        let s = services[idx % services.len()];
        idx += 1;
        s
    };
    let lambda = 0.5 / Workload::WordStem.nominal_service_us();
    let r = try_simulate_mg1(
        lambda,
        &mut service,
        &Mg1Options {
            quantile: 0.95,
            max_samples: 400_000,
            ..Mg1Options::default()
        },
    )
    .expect("stable queue");
    assert!(
        (cycle_p95 - r.tail_us).abs() / r.tail_us < 0.25,
        "cycle p95 {cycle_p95:.2}µs vs queueing p95 {:.2}µs",
        r.tail_us
    );
}

/// Trace replay end to end: latencies harvested from a real workload's
/// micro-op trace feed a `LatencyDist::Trace` stall leg through the fault
/// layer, so fault-sweep studies can bootstrap from measured stall behavior
/// instead of a fitted law.
#[test]
fn harvested_trace_latencies_drive_a_fault_source() {
    use duplexity::{EventKind, FaultPlan, LatencyDist};
    use duplexity_stats::rng::rng_from_seed;
    use duplexity_workloads::trace::remote_latencies_us;

    // Harvest the RDMA stall latencies from a FLANN-LL request trace.
    let mut kernel = Workload::FlannLl.kernel(11);
    let mut ops = Vec::new();
    let mut rng = rng_from_seed(11);
    for _ in 0..50 {
        kernel.generate(&mut rng, &mut ops);
    }
    let samples = remote_latencies_us(&ops);
    assert!(!samples.is_empty(), "FLANN-LL must issue remote loads");

    // Replay them through the fault layer.
    let dist = LatencyDist::from_trace(samples.clone());
    assert!(dist.mean_us() > 0.0);
    let plan = FaultPlan::none().with_slow_replica(0.5, 3.0);
    let mut rng = rng_from_seed(99);
    let mut slowed = 0u64;
    for _ in 0..500 {
        let ev = plan.sample_event(EventKind::RemoteMemory, &mut rng, |r| dist.sample(r));
        assert!(ev.completed);
        assert_eq!((ev.attempts, ev.legs_us.len()), (1, 1));
        // Every latency is a harvested sample or a 3x-degraded one.
        let ok = samples
            .iter()
            .any(|&s| (ev.latency_us - s).abs() < 1e-12 || (ev.latency_us - 3.0 * s).abs() < 1e-9);
        assert!(ok, "latency {} not from the trace", ev.latency_us);
        slowed += u64::from(ev.slowed_legs > 0);
    }
    assert!(slowed > 150 && slowed < 350, "slow replicas ~50%: {slowed}");
}
