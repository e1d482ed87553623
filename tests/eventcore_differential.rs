//! Differential tests for the shared event core: the calendar-queue timing
//! wheel against the `BinaryHeap` reference at queue and engine level, and
//! whole sweep grids at 1 worker against 8.
//!
//! The `(t, kind, seq)` total-order contract (see
//! `duplexity_queueing::eventcore`) promises the two future-event sets pop
//! **identical** sequences for identical push sequences — not statistically
//! close, identical. That makes every level of this file a bitwise
//! assertion:
//!
//! 1. **Queue level** — proptest-generated schedules (continuous times,
//!    tie-prone discrete times, all event kinds, interleaved pops, random
//!    wheel geometries) popped through both queues in lockstep.
//! 2. **Engine level** — duplication-aware cluster cells run on each
//!    queue, comparing every metric bit-for-bit *and* the emitted trace
//!    event-for-event (the observability ordering contract): a few plans
//!    on an exponential law, and the full default hedge-sweep plan matrix
//!    on RSC's service law. The drivers run only the wheel, so this is
//!    where the queue axis is checked.
//! 3. **Grid level** — all nine design presets through `cluster_sweep` and
//!    the full default hedge-sweep plan matrix through `hedge_sweep`, at 1
//!    worker vs 8 workers.
//! 4. **Edge cases** — zero-sample cells, the single-server degenerate
//!    against the M/G/1 reference simulator, a hedge deadline tied exactly
//!    with its request's departure (the kind-rank tie-break made visible),
//!    and purge-after-drain / hedge-after-completion bookkeeping.
//!
//! Plus the batched-RNG property: a `draw_batch` of `k` is bitwise the
//! `k` sequential draws it replaces (the golden-fixture contract behind
//! the batching optimization).

mod common;

use duplexity::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};
use duplexity::experiments::hedge_sweep::{hedge_sweep, HedgeSweepOptions};
use duplexity::{BalancerPolicy, Design, Workload};
use duplexity_obs::TraceLog;
use duplexity_obs::Tracer;
use duplexity_queueing::cluster::{
    try_simulate_cluster_hedged, ClusterOptions, DuplicationPolicy, RequestResult,
};
use duplexity_queueing::des::{try_simulate_mg1, Mg1Options};
use duplexity_queueing::eventcore::{EventQueue, EventQueueKind, HeapEventQueue, WheelEventQueue};
use duplexity_stats::dist::{Distribution, Exponential, Uniform};
use duplexity_stats::rng::{draw_batch, rng_from_seed, SimRng};
use proptest::prelude::*;
use rand::RngCore;

// ---------------------------------------------------------------------------
// 1. Queue-level differential: random schedules through both queues.
// ---------------------------------------------------------------------------

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push an event at this time with this kind rank.
    Push(f64, u8),
    /// Pop up to this many events.
    Pop(usize),
}

/// A tie-heavy mixed schedule: ~30% pops, ~35% pushes on a coarse discrete
/// time grid (forcing exact `t` collisions that only the kind/seq ranks
/// can order), ~35% continuous-time pushes, with kinds drawn from the
/// engine's full rank range.
fn random_schedule(rng: &mut SimRng, len: usize) -> Vec<QueueOp> {
    let cont = Uniform::new(0.0, 300.0);
    (0..len)
        .map(|_| match rng.next_u64() % 10 {
            0..=2 => QueueOp::Pop((rng.next_u64() % 4) as usize),
            3..=5 => QueueOp::Push(
                (rng.next_u64() % 12) as f64 * 25.0,
                (rng.next_u64() % 3) as u8,
            ),
            _ => QueueOp::Push(cont.sample(rng), (rng.next_u64() % 3) as u8),
        })
        .collect()
}

/// Runs `ops` through both queues in lockstep, asserting every pop agrees
/// on `(t, kind, seq)` and payload, then drains both to empty.
fn run_differential(mut wheel: WheelEventQueue<u32>, ops: &[QueueOp]) -> Result<(), TestCaseError> {
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let mut next_payload = 0u32;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            QueueOp::Push(t, kind) => {
                heap.push(t, kind, next_payload);
                wheel.push(t, kind, next_payload);
                next_payload += 1;
            }
            QueueOp::Pop(n) => {
                for _ in 0..n {
                    let a = heap.pop();
                    let b = wheel.pop();
                    prop_assert_eq!(a, b, "step {}: heap vs wheel pop", step);
                }
            }
        }
        prop_assert_eq!(heap.len(), wheel.len(), "step {}: len", step);
    }
    loop {
        let a = heap.pop();
        let b = wheel.pop();
        prop_assert_eq!(a, b, "drain: heap vs wheel pop");
        if a.is_none() {
            break;
        }
    }
    prop_assert!(wheel.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical push sequences give identical pop sequences across every
    /// wheel geometry — wide and narrow buckets, tiny and large wheels —
    /// including schedules that pop below the wheel frontier and push
    /// "late" events behind it.
    #[test]
    fn wheel_pops_exactly_like_the_heap(
        seed in 0u64..100_000,
        len in 0usize..240,
        width_sel in 0usize..4,
        buckets_sel in 0usize..3,
    ) {
        let mut rng = rng_from_seed(seed ^ 0xD1FF);
        let ops = random_schedule(&mut rng, len);
        let width = [0.25, 2.0, 40.0, 1_000.0][width_sel];
        let nbuckets = [4usize, 64, 512][buckets_sel];
        run_differential(WheelEventQueue::with_geometry(width, nbuckets), &ops)?;
    }

    /// The auto-sized constructor (`for_rate`, the engine's path) obeys
    /// the same contract as every explicit geometry.
    #[test]
    fn auto_sized_wheel_pops_exactly_like_the_heap(
        seed in 0u64..100_000,
        len in 0usize..240,
        rate_sel in 0usize..3,
    ) {
        let mut rng = rng_from_seed(seed ^ 0x4A7E);
        let ops = random_schedule(&mut rng, len);
        let rate = [0.01, 1.0, 50.0][rate_sel];
        run_differential(WheelEventQueue::for_rate(rate), &ops)?;
    }
}

/// The rotation seam, pinned deterministically: an event at **exactly**
/// `frontier + horizon` (`width × nbuckets` past the frontier) is one full
/// rotation ahead — the first time that does *not* fit in the wheel. It
/// must take the overflow path at push time, migrate back as the frontier
/// crosses its slot, and pop in exactly the heap's order, including ties
/// at the boundary time that only the kind rank can break. Exercised twice
/// (once from the initial frontier, once after a rotation has advanced it)
/// so the boundary is relative to the *current* frontier, not slot zero.
#[test]
fn event_exactly_at_the_rotation_boundary_crosses_the_seam_like_the_heap() {
    // width 1.0 × 8 buckets → horizon 8.0. The schedule below pushes the
    // boundary events at t = 8.0 (frontier 0.0 + horizon) and, after the
    // pops have rotated the frontier to 8.0, at t = 16.0.
    let ops = [
        QueueOp::Push(0.0, 0),
        QueueOp::Push(3.0, 1),
        QueueOp::Push(7.5, 2),
        // Exactly frontier + horizon, three times, distinct kind ranks:
        // the seam tie-break.
        QueueOp::Push(8.0, 2),
        QueueOp::Push(8.0, 0),
        QueueOp::Push(8.0, 1),
        // Drain past the seam: the frontier rotates and the boundary
        // events migrate in.
        QueueOp::Pop(4),
        // The frontier now sits at 8.0; the next boundary is 16.0.
        QueueOp::Push(16.0, 0),
        QueueOp::Pop(3),
    ];
    run_differential(WheelEventQueue::with_geometry(1.0, 8), &ops)
        .expect("wheel and heap agree across the rotation boundary");

    // White-box confirmation that the schedule hit the path it claims to:
    // `frontier + horizon` is *exclusive*, so every boundary event above
    // overflowed at push time and migrated back before popping.
    let mut wheel: WheelEventQueue<u32> = WheelEventQueue::with_geometry(1.0, 8);
    wheel.push(8.0 - 1e-9, 0, 0);
    assert_eq!(
        wheel.profile().overflow_pushes,
        0,
        "just inside the horizon stays in the wheel"
    );
    wheel.push(8.0, 0, 1);
    assert_eq!(
        wheel.profile().overflow_pushes,
        1,
        "exactly frontier + horizon is the first overflowing time"
    );
    assert_eq!(wheel.pop().map(|(k, p)| (k.t, p)), Some((8.0 - 1e-9, 0)));
    assert_eq!(wheel.pop().map(|(k, p)| (k.t, p)), Some((8.0, 1)));
    assert!(wheel.is_empty());
    let prof = wheel.profile();
    assert_eq!(
        prof.overflow_migrations, 1,
        "the boundary event must migrate back into a bucket, not pop from overflow"
    );
}

// ---------------------------------------------------------------------------
// 2. Batched RNG draws: `draw_batch` is bitwise the sequential stream.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `k`-draw batch consumes exactly the `k` sequential draws it
    /// replaces — same values bit-for-bit, same stream position after —
    /// so batching pilot/burst draws cannot move any golden fixture.
    #[test]
    fn batched_draws_are_bitwise_the_sequential_stream(
        seed in 0u64..1_000_000,
        k in 0usize..64,
        mean_sel in 0usize..3,
    ) {
        let mean = [0.5, 3.0, 40.0][mean_sel];
        let service = Exponential::new(mean);
        let mut batched = rng_from_seed(seed);
        let mut sequential = rng_from_seed(seed);
        let mut buf = Vec::new();
        draw_batch(&mut batched, k, &mut buf, |r| service.sample(r));
        prop_assert_eq!(buf.len(), k);
        for (i, &x) in buf.iter().enumerate() {
            let y = service.sample(&mut sequential);
            prop_assert_eq!(x.to_bits(), y.to_bits(), "draw {}", i);
        }
        // The streams stay aligned after the batch.
        prop_assert_eq!(batched.next_u64(), sequential.next_u64());
    }

    /// Reusing one buffer across batches neither leaks old draws nor
    /// perturbs the stream: two reused batches equal two fresh ones.
    #[test]
    fn batch_buffer_reuse_is_transparent(
        seed in 0u64..1_000_000,
        k1 in 0usize..48,
        k2 in 0usize..48,
    ) {
        let service = Exponential::new(2.0);
        let mut reused_rng = rng_from_seed(seed);
        let mut fresh_rng = rng_from_seed(seed);
        let mut reused = Vec::new();
        draw_batch(&mut reused_rng, k1, &mut reused, |r| service.sample(r));
        let first: Vec<u64> = reused.iter().map(|x| x.to_bits()).collect();
        draw_batch(&mut reused_rng, k2, &mut reused, |r| service.sample(r));
        let mut fresh = Vec::new();
        draw_batch(&mut fresh_rng, k1, &mut fresh, |r| service.sample(r));
        prop_assert_eq!(first, fresh.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let mut fresh2 = Vec::new();
        draw_batch(&mut fresh_rng, k2, &mut fresh2, |r| service.sample(r));
        prop_assert_eq!(reused.len(), k2);
        for (i, (&a, &b)) in reused.iter().zip(&fresh2).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "second batch draw {}", i);
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Engine level: cells on both queues, metrics and trace bit-identical.
// ---------------------------------------------------------------------------

/// Runs one duplication-aware cell on the given future-event set with a
/// capturing tracer.
fn run_cell(
    kind: EventQueueKind,
    plan: &DuplicationPolicy,
    policy: BalancerPolicy,
    servers: usize,
    lambda: f64,
    seed: u64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
) -> (RequestResult, TraceLog) {
    let opts = ClusterOptions {
        servers,
        max_samples: 8_000,
        warmup: 500,
        // Disable early stopping so both runs measure identical windows.
        max_relative_error: 0.001,
        seed,
        event_queue: kind,
        ..ClusterOptions::default()
    };
    let tracer = Tracer::enabled(1 << 17, 1_000.0);
    let mut balancer = policy.build();
    let r = try_simulate_cluster_hedged(lambda, service, balancer.as_mut(), plan, &opts, &tracer)
        .expect("stable differential cell");
    (r, tracer.take())
}

/// Bitwise equality of two hedged results: every float by bits, every
/// counter exactly, the trace event-for-event.
fn assert_cell_bitwise(a: &(RequestResult, TraceLog), b: &(RequestResult, TraceLog), what: &str) {
    let (ra, ta) = a;
    let (rb, tb) = b;
    assert_eq!(ra.cluster.samples, rb.cluster.samples, "{what}: samples");
    assert_eq!(
        ra.cluster.converged, rb.cluster.converged,
        "{what}: converged"
    );
    assert_eq!(
        ra.cluster.per_server_requests, rb.cluster.per_server_requests,
        "{what}: dispatch decisions"
    );
    for (field, x, y) in [
        ("p99", ra.cluster.tail_us, rb.cluster.tail_us),
        ("p50", ra.cluster.p50_us, rb.cluster.p50_us),
        (
            "mean",
            ra.cluster.mean_sojourn_us,
            rb.cluster.mean_sojourn_us,
        ),
        ("wait", ra.cluster.mean_wait_us, rb.cluster.mean_wait_us),
        ("util", ra.cluster.utilization, rb.cluster.utilization),
        ("measured", ra.cluster.measured_us, rb.cluster.measured_us),
        ("added_util", ra.added_utilization, rb.added_utilization),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {field} {x} vs {y}");
    }
    assert_eq!(ra.dup, rb.dup, "{what}: tally");
    assert_eq!(
        ra.dup_wait.count(),
        rb.dup_wait.count(),
        "{what}: dup waits"
    );
    assert_eq!(ta.events, tb.events, "{what}: trace events");
    assert_eq!(ta.dropped, tb.dropped, "{what}: trace drops");
    assert_eq!(ta.timeseries, tb.timeseries, "{what}: gauge series");
    // The registries agree on everything *simulated* — per-kind event
    // counters included — but the event-queue self-profile under
    // `cluster/eventq/` is deliberately engine-specific introspection
    // (the wheel reports bucket occupancy and fast-forward accounting
    // the heap cannot have), so it is compared only where the engines
    // share semantics: total pushes and pops.
    let profile = |k: &str| k.starts_with("cluster/eventq/");
    let shared = |t: &TraceLog| {
        t.registry
            .counters()
            .filter(|(k, _)| !profile(k))
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Vec<_>>()
    };
    assert_eq!(shared(ta), shared(tb), "{what}: simulated counters");
    for total in ["cluster/eventq/pushes", "cluster/eventq/pops"] {
        assert_eq!(
            ta.registry.counter(total),
            tb.registry.counter(total),
            "{what}: {total}"
        );
    }
}

#[test]
fn wheel_and_heap_cells_are_bitwise_identical_traces_included() {
    let plans = [
        DuplicationPolicy::none(),
        DuplicationPolicy::duplicate(2),
        DuplicationPolicy::duplicate(2)
            .without_purge()
            .at_low_priority(),
        DuplicationPolicy::hedge(8.0),
    ];
    for (i, plan) in plans.iter().enumerate() {
        let seed = 0xE0C0 + i as u64;
        let mut svc_a = |rng: &mut SimRng| Exponential::new(2.0).sample(rng);
        let mut svc_b = |rng: &mut SimRng| Exponential::new(2.0).sample(rng);
        let heap = run_cell(
            EventQueueKind::Heap,
            plan,
            BalancerPolicy::Jsq,
            8,
            8.0 * 0.4 / 2.0,
            seed,
            &mut svc_a,
        );
        let wheel = run_cell(
            EventQueueKind::Wheel,
            plan,
            BalancerPolicy::Jsq,
            8,
            8.0 * 0.4 / 2.0,
            seed,
            &mut svc_b,
        );
        assert!(
            !wheel.1.events.is_empty() && wheel.1.dropped == 0,
            "trace must be captured in full for the comparison to mean anything"
        );
        assert_cell_bitwise(&heap, &wheel, &plan.label());
    }
}

/// The hedge sweep's default plan matrix, cell by cell: both default
/// policies × the six default plans × servers {2, 8} × loads {0.25, 0.4}
/// on RSC's service law, every event species on both queues. The design
/// presets only rescale that law, so the `none` rows carry the cluster
/// sweep's queue axis.
#[test]
fn full_hedge_plan_matrix_is_queue_invariant() {
    let defaults = HedgeSweepOptions::default();
    let model = Workload::Rsc.service_model();
    let nominal = Workload::Rsc.nominal_service_us();
    let mut cells = 0u64;
    for &policy in &defaults.policies {
        for plan in &defaults.plans {
            for servers in [2usize, 8] {
                for load in [0.25, 0.4] {
                    let lambda = servers as f64 * load / nominal;
                    let seed = 0xE0D0 + cells;
                    let run = |kind| {
                        let mut svc =
                            |rng: &mut SimRng| model.sample_compute(rng) + model.sample_stall(rng);
                        run_cell(kind, plan, policy, servers, lambda, seed, &mut svc)
                    };
                    let (heap, wheel) = (run(EventQueueKind::Heap), run(EventQueueKind::Wheel));
                    assert_eq!(wheel.1.dropped, 0, "the trace must be captured in full");
                    let what = format!("{policy} {} {servers}s @{load}", plan.label());
                    assert_cell_bitwise(&heap, &wheel, &what);
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 2 * 6 * 2 * 2);
}

// ---------------------------------------------------------------------------
// 4. Grid level: all nine presets and the full hedge plan matrix,
//    1 worker vs 8 workers.
// ---------------------------------------------------------------------------

#[test]
fn all_nine_design_presets_are_worker_invariant() {
    let opts = |threads| ClusterSweepOptions {
        designs: Design::ALL_WITH_EXTENSIONS.to_vec(),
        policies: vec![BalancerPolicy::Jsq],
        server_counts: vec![4],
        loads: vec![0.3, 0.6],
        calibration_cycles: 200_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 15_000,
            warmup: 500,
            ..Mg1Options::default()
        },
        threads,
        ..ClusterSweepOptions::default()
    };
    let serial = cluster_sweep(&opts(1));
    let parallel = cluster_sweep(&opts(8));
    assert_eq!(serial.len(), 9 * 2);
    for p in &serial {
        assert!(!p.saturated, "unexpected saturation at {p:?}");
    }
    common::assert_identical_artifacts("nine presets, 1 vs 8 workers", &serial, &parallel);
}

#[test]
fn full_hedge_sweep_grid_is_worker_invariant() {
    // The default plan matrix (none, dup2, dup2_np, dup2_lp, hedge20,
    // hedge20_lp) over both default policies.
    let opts = |threads| HedgeSweepOptions {
        server_counts: vec![2, 8],
        loads: vec![0.25, 0.4],
        seed: 42,
        queue: Mg1Options {
            max_samples: 15_000,
            warmup: 500,
            ..Mg1Options::default()
        },
        threads,
        ..HedgeSweepOptions::default()
    };
    let serial = hedge_sweep(&opts(1));
    let parallel = hedge_sweep(&opts(8));
    assert_eq!(serial.len(), 2 * 6 * 2 * 2);
    common::assert_identical_artifacts("hedge grid, 1 vs 8 workers", &serial, &parallel);
}

// ---------------------------------------------------------------------------
// 5. Edge cases, each run through both queues.
// ---------------------------------------------------------------------------

/// A cell with a zero sample budget admits nothing: both queues agree on
/// the empty result instead of hanging or diverging.
#[test]
fn zero_sample_cells_agree_on_emptiness() {
    let results: Vec<RequestResult> = [EventQueueKind::Heap, EventQueueKind::Wheel]
        .into_iter()
        .map(|kind| {
            let opts = ClusterOptions {
                servers: 2,
                max_samples: 0,
                warmup: 0,
                seed: 7,
                event_queue: kind,
                ..ClusterOptions::default()
            };
            let mut svc = |rng: &mut SimRng| Exponential::new(2.0).sample(rng);
            let mut bal = BalancerPolicy::Jsq.build();
            try_simulate_cluster_hedged(
                0.3,
                &mut svc,
                bal.as_mut(),
                &DuplicationPolicy::none(),
                &opts,
                &Tracer::disabled(),
            )
            .expect("an empty cell is still stable")
        })
        .collect();
    for r in &results {
        assert_eq!(r.cluster.samples, 0);
        assert_eq!(r.dup.requests, 0);
    }
    assert_eq!(
        results[0].cluster.samples, results[1].cluster.samples,
        "heap vs wheel on the empty cell"
    );
    assert_eq!(
        results[0].cluster.mean_sojourn_us.to_bits(),
        results[1].cluster.mean_sojourn_us.to_bits()
    );
}

/// One server, no duplication: the hedged engine replays `try_simulate_mg1`'s
/// arrival/service stream (both start from `rng_from_seed(opts.seed)` and
/// draw in the same order), so with early stopping disabled the sample
/// counts match exactly and the metrics to floating-point association
/// error — on both queues.
#[test]
fn single_server_hedged_cell_degenerates_to_the_mg1_reference() {
    let mg1_opts = Mg1Options {
        max_samples: 30_000,
        warmup: 1_000,
        max_relative_error: 0.001,
        seed: 0x51E1,
        ..Mg1Options::default()
    };
    let lambda = 0.6 / 2.0;
    let mut svc = |rng: &mut SimRng| Exponential::new(2.0).sample(rng);
    let reference = try_simulate_mg1(lambda, &mut svc, &mg1_opts).expect("stable M/G/1");
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for kind in [EventQueueKind::Heap, EventQueueKind::Wheel] {
        let mut copts = ClusterOptions::from_mg1(1, &mg1_opts);
        copts.event_queue = kind;
        let mut svc = |rng: &mut SimRng| Exponential::new(2.0).sample(rng);
        let mut bal = BalancerPolicy::Jsq.build();
        let hedged = try_simulate_cluster_hedged(
            lambda,
            &mut svc,
            bal.as_mut(),
            &DuplicationPolicy::none(),
            &copts,
            &Tracer::disabled(),
        )
        .expect("stable single-server cell");
        assert_eq!(reference.samples, hedged.cluster.samples, "{kind}: samples");
        assert!(
            close(reference.tail_us, hedged.cluster.tail_us),
            "{kind}: p99 {} vs {}",
            reference.tail_us,
            hedged.cluster.tail_us
        );
        assert!(
            close(reference.mean_sojourn_us, hedged.cluster.mean_sojourn_us),
            "{kind}: mean {} vs {}",
            reference.mean_sojourn_us,
            hedged.cluster.mean_sojourn_us
        );
        assert!(
            close(reference.utilization, hedged.cluster.utilization),
            "{kind}: util {} vs {}",
            reference.utilization,
            hedged.cluster.utilization
        );
    }
}

/// Deterministic 5µs service with a 5µs hedge deadline: a request that
/// starts immediately completes at *exactly* its deadline. The kind-rank
/// tie-break (`Arrive < HedgeFire < Depart`) says the hedge FIRES on that
/// tie — every measured request fires its hedge, none is cancelled — and
/// both queues resolve the tie the same way.
#[test]
fn hedge_deadline_tied_with_departure_fires_on_both_queues() {
    let results: Vec<RequestResult> = [EventQueueKind::Heap, EventQueueKind::Wheel]
        .into_iter()
        .map(|kind| {
            let opts = ClusterOptions {
                servers: 4,
                max_samples: 2_000,
                warmup: 100,
                max_relative_error: 0.001,
                seed: 0x71E5,
                event_queue: kind,
                ..ClusterOptions::default()
            };
            // Constant service: completion = start + 5.0 >= dispatch + 5.0
            // (the deadline), with equality whenever the copy starts
            // immediately — the tie is the common case, not a fluke.
            let mut svc = |_rng: &mut SimRng| 5.0;
            let mut bal = BalancerPolicy::Jsq.build();
            try_simulate_cluster_hedged(
                0.02,
                &mut svc,
                bal.as_mut(),
                &DuplicationPolicy::hedge(5.0),
                &opts,
                &Tracer::disabled(),
            )
            .expect("stable deterministic cell")
        })
        .collect();
    for r in &results {
        assert!(r.dup.requests > 0);
        assert_eq!(
            r.dup.hedges_fired, r.dup.requests,
            "a completion can never beat its own deadline, so every hedge fires"
        );
        assert_eq!(r.dup.hedges_cancelled, 0);
    }
    assert_eq!(results[0].dup, results[1].dup, "heap vs wheel tallies");
    assert_eq!(
        results[0].cluster.tail_us.to_bits(),
        results[1].cluster.tail_us.to_bits()
    );
}

/// The other side of the tie-break coin: service strictly shorter than the
/// deadline means every hedge is cancelled at its fire time (the request
/// is long gone), and a queued duplicate on a single server is purged
/// when its primary drains the queue — zero duplicate service delivered.
#[test]
fn late_hedges_cancel_and_queued_duplicates_purge_after_the_drain() {
    for kind in [EventQueueKind::Heap, EventQueueKind::Wheel] {
        let opts = |seed| ClusterOptions {
            servers: 1,
            max_samples: 2_000,
            warmup: 100,
            max_relative_error: 0.001,
            seed,
            event_queue: kind,
            ..ClusterOptions::default()
        };
        // Hedge far beyond a constant service time: every deadline finds
        // its request complete.
        let mut svc = |_rng: &mut SimRng| 2.0;
        let mut bal = BalancerPolicy::Jsq.build();
        let hedged = try_simulate_cluster_hedged(
            0.02,
            &mut svc,
            bal.as_mut(),
            &DuplicationPolicy::hedge(20.0),
            &opts(0xCA9C),
            &Tracer::disabled(),
        )
        .expect("stable");
        assert!(hedged.dup.requests > 0, "{kind}");
        assert_eq!(hedged.dup.hedges_fired, 0, "{kind}");
        assert_eq!(
            hedged.dup.hedges_cancelled, hedged.dup.requests,
            "{kind}: every hedge must find its request already complete"
        );
        // Eager duplicate on the lone server: the copy queues behind its
        // own primary and is purged still-queued when the primary
        // completes — the queue has just drained, and the purge must not
        // double-free or start the ghost copy.
        let mut svc = |_rng: &mut SimRng| 2.0;
        let mut bal = BalancerPolicy::Jsq.build();
        let dup = try_simulate_cluster_hedged(
            0.02,
            &mut svc,
            bal.as_mut(),
            &DuplicationPolicy::duplicate(2),
            &opts(0xD4A1),
            &Tracer::disabled(),
        )
        .expect("stable");
        assert!(dup.dup.requests > 0, "{kind}");
        assert_eq!(
            dup.dup.purged_queued, dup.dup.dup_copies,
            "{kind}: every duplicate dies in the queue"
        );
        assert_eq!(dup.dup.wasted_completions, 0, "{kind}");
        assert_eq!(
            dup.dup.dup_delivered_us.to_bits(),
            0.0f64.to_bits(),
            "{kind}: purged-in-queue copies deliver zero service"
        );
    }
}
