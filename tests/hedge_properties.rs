//! Property-based tests for the duplication/hedging engine's identities.
//!
//! The tail-cutting plans are decorators over the balanced cluster DES, and
//! three exact identities pin down their seams:
//!
//! 1. **Degenerate hedges are eager duplicates** — `Hedge { deadline: 0 }`
//!    launches its duplicate in the arrival instant on the identical code
//!    path as `Duplicate { copies: 2 }`, so the two plans must agree
//!    event for event (bitwise metrics *and* bookkeeping).
//! 2. **Inert plans are invisible** — `Hedge { deadline: ∞ }` never fires
//!    and `Duplicate { copies: 1 }` launches no extras; both must be
//!    bitwise no-ops over [`DuplicationPolicy::none`], including the
//!    number of service-distribution draws (the duplicate RNG stream must
//!    stay untouched).
//! 3. **Power-of-n is JSQ** — sampling all `n` servers without replacement
//!    degenerates to join-shortest-queue on every sample path.
//!
//! Alongside the identities, conservation invariants over random loads,
//! seeds, and plans: every admitted request completes exactly once, purged
//! copies never complete, and purging strictly reduces the duplicate work
//! delivered relative to eager no-purge duplication. Rack plans — random
//! staleness, steal probes, dispatchers and tenants on the same engine —
//! must conserve requests too, split their samples exactly between the
//! hot and cold tenant sketches, and keep the steal ledger consistent.

use duplexity_obs::Tracer;
use duplexity_queueing::cluster::{
    try_simulate_cluster_hedged, BalancerPolicy, ClusterOptions, DuplicationPolicy,
    HedgedClusterResult,
};
use duplexity_queueing::rack::{try_simulate_rack, RackPlan, RackResult};
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::rng::SimRng;
use proptest::prelude::*;

const MEAN_SERVICE_US: f64 = 1.0;
const SERVERS: usize = 4;

/// Runs one small hedged-cluster simulation, returning the result and the
/// number of service-distribution draws it consumed.
fn run(
    plan: &DuplicationPolicy,
    policy: BalancerPolicy,
    load: f64,
    seed: u64,
) -> (HedgedClusterResult, u64) {
    let lambda = SERVERS as f64 * load / MEAN_SERVICE_US;
    let mut draws = 0u64;
    let mut service = |rng: &mut SimRng| {
        draws += 1;
        Exponential::new(MEAN_SERVICE_US).sample(rng)
    };
    let opts = ClusterOptions {
        servers: SERVERS,
        max_samples: 4_000,
        warmup: 200,
        seed,
        ..ClusterOptions::default()
    };
    let mut balancer = policy.build();
    let r = try_simulate_cluster_hedged(
        lambda,
        &mut service,
        balancer.as_mut(),
        plan,
        &opts,
        &Tracer::disabled(),
    )
    .expect("stable configuration");
    (r, draws)
}

/// Runs one small rack simulation under JSQ placement.
fn run_rack(plan: &RackPlan, load: f64, seed: u64) -> RackResult {
    let lambda = SERVERS as f64 * load / MEAN_SERVICE_US;
    let mut service = |rng: &mut SimRng| Exponential::new(MEAN_SERVICE_US).sample(rng);
    let opts = ClusterOptions {
        servers: SERVERS,
        max_samples: 4_000,
        warmup: 200,
        seed,
        ..ClusterOptions::default()
    };
    try_simulate_rack(
        lambda,
        &mut service,
        BalancerPolicy::Jsq,
        plan,
        &opts,
        &Tracer::disabled(),
    )
    .expect("stable configuration")
}

/// Asserts two hedged runs agree bitwise: metrics, per-server placement,
/// and every duplication counter.
fn assert_bitwise_equal(a: &HedgedClusterResult, b: &HedgedClusterResult, what: &str) {
    assert_eq!(
        a.cluster.tail_us.to_bits(),
        b.cluster.tail_us.to_bits(),
        "{what}: tail"
    );
    assert_eq!(
        a.cluster.p50_us.to_bits(),
        b.cluster.p50_us.to_bits(),
        "{what}: p50"
    );
    assert_eq!(
        a.cluster.mean_sojourn_us.to_bits(),
        b.cluster.mean_sojourn_us.to_bits(),
        "{what}: mean sojourn"
    );
    assert_eq!(
        a.cluster.mean_wait_us.to_bits(),
        b.cluster.mean_wait_us.to_bits(),
        "{what}: mean wait"
    );
    assert_eq!(
        a.cluster.utilization.to_bits(),
        b.cluster.utilization.to_bits(),
        "{what}: utilization"
    );
    assert_eq!(
        a.cluster.per_server_requests, b.cluster.per_server_requests,
        "{what}: placement"
    );
    assert_eq!(a.cluster.samples, b.cluster.samples, "{what}: samples");
    assert_eq!(
        a.cluster.converged, b.cluster.converged,
        "{what}: converged"
    );
    assert_eq!(a.tally, b.tally, "{what}: tally");
    assert_eq!(a.dup_wait.count(), b.dup_wait.count(), "{what}: dup waits");
    assert_eq!(
        a.added_utilization.to_bits(),
        b.added_utilization.to_bits(),
        "{what}: added utilization"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Hedge { deadline: 0 }` is event-for-event eager `Duplicate { 2 }`.
    #[test]
    fn zero_deadline_hedge_is_eager_duplication(seed in 0u64..1_000, load in 0.1f64..0.7) {
        let (hedge, hedge_draws) = run(&DuplicationPolicy::hedge(0.0), BalancerPolicy::Jsq, load, seed);
        let (dup, dup_draws) = run(&DuplicationPolicy::duplicate(2), BalancerPolicy::Jsq, load, seed);
        assert_bitwise_equal(&hedge, &dup, "hedge0 vs dup2");
        prop_assert_eq!(hedge_draws, dup_draws);
        // The identity maps hedge bookkeeping onto eager bookkeeping.
        prop_assert_eq!(hedge.tally.hedges_fired, 0);
        prop_assert!(dup.tally.dup_copies > 0);
    }

    /// `Hedge { deadline: ∞ }` and `Duplicate { copies: 1 }` are bitwise
    /// no-ops over the undecorated plan — same metrics, same number of
    /// service draws (nothing ever touches the duplicate RNG stream).
    #[test]
    fn inert_plans_are_bitwise_noops(seed in 0u64..1_000, load in 0.1f64..0.8) {
        let (base, base_draws) = run(&DuplicationPolicy::none(), BalancerPolicy::Jsq, load, seed);
        for plan in [DuplicationPolicy::hedge(f64::INFINITY), DuplicationPolicy::duplicate(1)] {
            let (decorated, draws) = run(&plan, BalancerPolicy::Jsq, load, seed);
            assert_bitwise_equal(&base, &decorated, &plan.label());
            prop_assert_eq!(draws, base_draws, "{} must not draw extra demands", plan.label());
            prop_assert_eq!(decorated.tally.dup_copies, 0);
            prop_assert_eq!(decorated.added_utilization, 0.0);
        }
    }

    /// Power-of-d with `d = n` probes every server without replacement and
    /// must match JSQ on every sample path, duplicates included.
    #[test]
    fn power_of_n_is_jsq_under_duplication(seed in 0u64..1_000, load in 0.1f64..0.6) {
        let plan = DuplicationPolicy::duplicate(2);
        let (jsq, _) = run(&plan, BalancerPolicy::Jsq, load, seed);
        let (pod, _) = run(&plan, BalancerPolicy::PowerOfD(SERVERS), load, seed);
        assert_bitwise_equal(&jsq, &pod, "jsq vs power_of_n");
    }

    /// Conservation over random loads, seeds, and plans: every admitted
    /// request completes exactly once; every issued copy reaches exactly
    /// one terminal state (completed or purged); purge makes redundant
    /// completions impossible.
    #[test]
    fn copies_are_conserved(seed in 0u64..1_000, load in 0.1f64..0.45, which in 0usize..6) {
        let plans = [
            DuplicationPolicy::none(),
            DuplicationPolicy::duplicate(2),
            DuplicationPolicy::duplicate(2).without_purge(),
            DuplicationPolicy::duplicate(2).at_low_priority(),
            DuplicationPolicy::hedge(2.0),
            DuplicationPolicy::hedge(2.0).at_low_priority(),
        ];
        let plan = plans[which];
        let (r, _) = run(&plan, BalancerPolicy::Jsq, load, seed);
        let t = &r.tally;
        prop_assert_eq!(t.requests, r.cluster.samples as u64);
        // Exactly-once completion: redundant completions are the only
        // copies that finish beyond the first per request.
        prop_assert_eq!(t.completions - t.wasted_completions, t.requests);
        // Terminal-state conservation for every issued copy.
        prop_assert_eq!(
            t.completions + t.purged_queued + t.purged_in_service,
            t.copies_issued
        );
        prop_assert!(t.completions <= t.copies_issued);
        prop_assert_eq!(t.copies_issued - t.dup_copies, t.requests);
        prop_assert!(t.hedges_fired + t.hedges_cancelled <= t.requests);
        if plan.purge {
            prop_assert_eq!(t.wasted_completions, 0);
        }
        if let duplexity_queueing::cluster::DupMode::None = plan.mode {
            prop_assert_eq!(t.dup_copies, 0);
            prop_assert_eq!(r.added_utilization, 0.0);
        }
        prop_assert!(r.added_utilization >= 0.0);
    }

    /// Purging strictly reduces the duplicate work delivered relative to
    /// running every eager copy to completion.
    #[test]
    fn purge_delivers_strictly_less_duplicate_work(seed in 0u64..1_000, load in 0.15f64..0.45) {
        let (purged, _) = run(&DuplicationPolicy::duplicate(2), BalancerPolicy::Jsq, load, seed);
        let (eager, _) = run(
            &DuplicationPolicy::duplicate(2).without_purge(),
            BalancerPolicy::Jsq,
            load,
            seed,
        );
        prop_assert!(purged.tally.dup_delivered_us < eager.tally.dup_delivered_us);
        prop_assert!(purged.added_utilization < eager.added_utilization);
        prop_assert_eq!(eager.tally.purged_queued + eager.tally.purged_in_service, 0);
    }

    /// Rack conservation over random staleness, steal probes, dispatchers,
    /// tenants and seeds: every admitted request starts and completes
    /// exactly once, the hot and cold sketches partition the samples, and
    /// every steal (successful or empty) spends at least one probe.
    #[test]
    fn rack_plans_conserve_requests(
        seed in 0u64..1_000,
        load in 0.2f64..0.75,
        delta in 0.0f64..16.0,
        probes in 0usize..4,
        dispatchers in 1usize..5,
        tenants in 1usize..64
    ) {
        let plan = RackPlan::fresh()
            .with_delta(delta)
            .with_steal(probes)
            .distributed(dispatchers)
            .with_tenants(tenants, 0.99);
        let r = run_rack(&plan, load, seed);
        let (t, samples) = (&r.tally, r.cluster.samples as u64);
        prop_assert_eq!(t.requests, samples);
        prop_assert_eq!(r.cluster.wait.count(), samples);
        prop_assert_eq!(r.cluster.per_server_requests.iter().sum::<u64>(), samples);
        prop_assert_eq!(r.hot_sketch.count() + r.cold_sketch.count(), samples);
        prop_assert_eq!(r.hot_sketch.count(), t.hot_requests);
        prop_assert!(t.steals + t.steals_empty <= t.steal_probes);
        prop_assert!(t.stolen_work_us.is_finite() && t.stolen_work_us >= 0.0);
        if probes == 0 {
            prop_assert_eq!(t.steal_probes, 0);
        }
    }
}
