//! Bit-level snapshot of the request-domain event engine under every plan
//! family it serves.
//!
//! `tests/golden/request_engines.json` records, per plan, every
//! `ClusterResult` field (floats as `to_bits` hex, so the comparison is
//! bitwise), the full duplication or rack tally, the duplicate-wait
//! summary, the added utilization, and the hot/cold tenant sketches. Each
//! plan runs on both event queues, which must render the identical entry.
//! Two traced runs — one hedged, one rack — add the registry and the
//! event-clock time series, pinning the `cluster/*` and `rack/*` trace
//! vocabularies. Four merged entries pool three replications each (on the
//! sweeps' `derive_stream(seed, 1 + r)` sub-seeds), pinning the replication
//! merge of hedged and rack cells field by field.
//!
//! Regenerate after an intentional behaviour change with
//! `UPDATE_GOLDEN=1 cargo test --test request_engines`.

mod common;

use duplexity_obs::{LatencySketch, Tracer};
use duplexity_queueing::cluster::{
    merge_replications, try_simulate_cluster_hedged, BalancerPolicy, ClusterOptions, ClusterResult,
    DuplicationPolicy, RequestResult,
};
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_queueing::rack::{try_simulate_rack, RackPlan};
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::rng::{derive_stream, SimRng};
use duplexity_stats::summary::Summary;

const SERVERS: usize = 4;

/// Replications pooled by each merged entry.
const REPLICATIONS: u64 = 3;

fn opts(kind: EventQueueKind, max_samples: usize, seed: u64) -> ClusterOptions {
    ClusterOptions {
        servers: SERVERS,
        max_samples,
        warmup: 500,
        seed,
        event_queue: kind,
        ..ClusterOptions::default()
    }
}

fn exp_service() -> impl FnMut(&mut SimRng) -> f64 {
    let law = Exponential::new(1.0);
    move |rng: &mut SimRng| law.sample(rng)
}

fn hex(x: f64) -> String {
    format!("\"{:016x}\"", x.to_bits())
}

fn opt_hex(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), hex)
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// A JSON object with one field per line.
fn obj(fields: Vec<(&str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

fn summary(s: &Summary) -> String {
    obj(vec![
        ("count", s.count().to_string()),
        ("mean", hex(s.mean())),
        ("variance", hex(s.variance())),
        ("min", hex(s.min())),
        ("max", hex(s.max())),
    ])
}

fn sketch(s: &LatencySketch) -> String {
    obj(vec![
        ("count", s.count().to_string()),
        ("p99", opt_hex(s.quantile(0.99))),
        ("min", opt_hex(s.min())),
        ("max", opt_hex(s.max())),
    ])
}

fn cluster(c: &ClusterResult) -> String {
    let ci = c.tail_ci.as_ref().map_or_else(
        || "null".to_string(),
        |ci| {
            obj(vec![
                ("point", hex(ci.point)),
                ("low", hex(ci.low)),
                ("high", hex(ci.high)),
                ("confidence", hex(ci.confidence)),
            ])
        },
    );
    obj(vec![
        ("tail_us", hex(c.tail_us)),
        ("tail_ci", ci),
        ("mean_sojourn_us", hex(c.mean_sojourn_us)),
        ("p50_us", hex(c.p50_us)),
        ("mean_wait_us", hex(c.mean_wait_us)),
        ("wait", summary(&c.wait)),
        ("sojourn", summary(&c.sojourn)),
        ("utilization", hex(c.utilization)),
        (
            "per_server_requests",
            format!("{:?}", c.per_server_requests),
        ),
        ("samples", c.samples.to_string()),
        ("converged", c.converged.to_string()),
        ("sojourn_samples", c.sojourn_samples.count().to_string()),
        ("sketch", sketch(&c.sketch)),
        ("measured_us", hex(c.measured_us)),
    ])
}

fn run_hedged(plan: &DuplicationPolicy, o: &ClusterOptions) -> RequestResult {
    let mut svc = exp_service();
    try_simulate_cluster_hedged(
        1.0,
        &mut svc,
        BalancerPolicy::Jsq.build().as_mut(),
        plan,
        o,
        &Tracer::disabled(),
    )
    .expect("stable hedged cell")
}

fn hedged_fields(engine: &str, plan: &DuplicationPolicy, r: &RequestResult) -> String {
    let t = &r.dup;
    let tally = obj(vec![
        ("requests", t.requests.to_string()),
        ("copies_issued", t.copies_issued.to_string()),
        ("dup_copies", t.dup_copies.to_string()),
        ("completions", t.completions.to_string()),
        ("wasted_completions", t.wasted_completions.to_string()),
        ("hedges_fired", t.hedges_fired.to_string()),
        ("hedges_cancelled", t.hedges_cancelled.to_string()),
        ("purged_queued", t.purged_queued.to_string()),
        ("purged_in_service", t.purged_in_service.to_string()),
        ("dup_delivered_us", hex(t.dup_delivered_us)),
    ]);
    obj(vec![
        ("engine", quoted(engine)),
        ("plan", quoted(&plan.label())),
        ("cluster", cluster(&r.cluster)),
        ("tally", tally),
        ("dup_wait", summary(&r.dup_wait)),
        ("added_utilization", hex(r.added_utilization)),
    ])
}

fn hedged_entry(plan: &DuplicationPolicy, kind: EventQueueKind) -> String {
    hedged_fields("hedged", plan, &run_hedged(plan, &opts(kind, 8_000, 7)))
}

/// `o` with the seed of replication `r`, as the sweeps derive it.
fn replication(o: &ClusterOptions, r: u64) -> ClusterOptions {
    ClusterOptions {
        seed: derive_stream(o.seed, 1 + r),
        ..*o
    }
}

/// Three hedged replications on sub-seeds of seed 7, merged.
fn hedged_merged_entry(plan: &DuplicationPolicy, kind: EventQueueKind) -> String {
    let o = opts(kind, 3_000, 7);
    let parts = (0..REPLICATIONS)
        .map(|r| run_hedged(plan, &replication(&o, r)))
        .collect();
    let merged = merge_replications(parts, o.quantile, o.confidence);
    hedged_fields("hedged_merged", plan, &merged)
}

fn run_rack(policy: BalancerPolicy, plan: &RackPlan, o: &ClusterOptions) -> RequestResult {
    let mut svc = exp_service();
    try_simulate_rack(2.8, &mut svc, policy, plan, o, &Tracer::disabled())
        .expect("stable rack cell")
}

fn rack_fields(engine: &str, policy: BalancerPolicy, plan: &RackPlan, r: &RequestResult) -> String {
    let t = &r.rack;
    let tally = obj(vec![
        ("requests", t.requests.to_string()),
        ("hot_requests", t.hot_requests.to_string()),
        ("steal_probes", t.steal_probes.to_string()),
        ("steals", t.steals.to_string()),
        ("steals_empty", t.steals_empty.to_string()),
        ("stolen_work_us", hex(t.stolen_work_us)),
    ]);
    obj(vec![
        ("engine", quoted(engine)),
        ("policy", quoted(&policy.to_string())),
        ("plan", quoted(&plan.label())),
        ("cluster", cluster(&r.cluster)),
        ("tally", tally),
        ("hot_sketch", sketch(&r.hot_sketch)),
        ("cold_sketch", sketch(&r.cold_sketch)),
    ])
}

fn rack_entry(policy: BalancerPolicy, plan: &RackPlan, kind: EventQueueKind) -> String {
    let r = run_rack(policy, plan, &opts(kind, 8_000, 11));
    rack_fields("rack", policy, plan, &r)
}

/// Three rack replications on sub-seeds of seed 11, merged.
fn rack_merged_entry(policy: BalancerPolicy, plan: &RackPlan, kind: EventQueueKind) -> String {
    let o = opts(kind, 3_000, 11);
    let parts = (0..REPLICATIONS)
        .map(|r| run_rack(policy, plan, &replication(&o, r)))
        .collect();
    let merged = merge_replications(parts, o.quantile, o.confidence);
    rack_fields("rack_merged", policy, plan, &merged)
}

/// Renders `entry` on both event queues, which must agree byte for byte.
fn on_both_queues(label: &str, entry: impl Fn(EventQueueKind) -> String) -> String {
    let wheel = entry(EventQueueKind::Wheel);
    let heap = entry(EventQueueKind::Heap);
    assert!(wheel == heap, "{label}: wheel and heap entries differ");
    wheel
}

fn traced(engine: &str, run: impl FnOnce(&Tracer)) -> String {
    let tracer = Tracer::enabled(1 << 20, 1000.0).with_timeseries(250.0);
    run(&tracer);
    let log = tracer.take();
    let series = log.timeseries.expect("the traced run sampled gauges");
    obj(vec![
        ("engine", quoted(engine)),
        ("registry", log.registry.to_json()),
        ("timeseries", series.to_json()),
    ])
}

#[test]
fn request_engines_match_golden() {
    let mut entries = Vec::new();
    for plan in [
        DuplicationPolicy::none(),
        DuplicationPolicy::duplicate(2),
        DuplicationPolicy::hedge(1.0),
        DuplicationPolicy::hedge(0.0),
        DuplicationPolicy::duplicate(3)
            .without_purge()
            .at_low_priority(),
    ] {
        entries.push(on_both_queues(&plan.label(), |kind| {
            hedged_entry(&plan, kind)
        }));
    }
    let jsq = BalancerPolicy::Jsq;
    for (policy, plan) in [
        (jsq, RackPlan::fresh()),
        (jsq, RackPlan::fresh().with_delta(8.0)),
        (jsq, RackPlan::fresh().with_delta(8.0).with_steal(2)),
        (
            jsq,
            RackPlan::fresh()
                .with_delta(8.0)
                .distributed(4)
                .with_tenants(64, 0.99),
        ),
        (BalancerPolicy::Random, RackPlan::fresh().with_steal(3)),
    ] {
        entries.push(on_both_queues(&plan.label(), |kind| {
            rack_entry(policy, &plan, kind)
        }));
    }

    let small = opts(EventQueueKind::Wheel, 3_000, 5);
    entries.push(traced("hedged", |tracer| {
        let mut svc = exp_service();
        try_simulate_cluster_hedged(
            2.0,
            &mut svc,
            BalancerPolicy::Jsq.build().as_mut(),
            &DuplicationPolicy::hedge(1.0),
            &small,
            tracer,
        )
        .expect("stable traced hedged cell");
    }));
    entries.push(traced("rack", |tracer| {
        let mut svc = exp_service();
        try_simulate_rack(
            2.8,
            &mut svc,
            BalancerPolicy::Jsq,
            &RackPlan::fresh().with_delta(4.0).with_steal(2),
            &small,
            tracer,
        )
        .expect("stable traced rack cell");
    }));

    for plan in [
        DuplicationPolicy::duplicate(2),
        DuplicationPolicy::hedge(1.0),
    ] {
        entries.push(on_both_queues(&plan.label(), |kind| {
            hedged_merged_entry(&plan, kind)
        }));
    }
    for plan in [
        RackPlan::fresh().with_delta(8.0).with_steal(2),
        RackPlan::fresh()
            .with_delta(8.0)
            .distributed(4)
            .with_tenants(64, 0.99),
    ] {
        entries.push(on_both_queues(&plan.label(), |kind| {
            rack_merged_entry(jsq, &plan, kind)
        }));
    }

    let text = format!("[\n{}\n]\n", entries.join(",\n"));
    common::assert_text_matches_golden("request_engines", "request_engines.json", &text);
}
