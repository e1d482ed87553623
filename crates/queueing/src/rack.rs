//! Two-level rack scheduler: stale-signal dispatch and inter-server work
//! stealing, as a plan component of the one request-domain engine.
//!
//! RackSched-style results (PAPERS.md) argue that a per-rack inter-server
//! scheduler composed with intra-server scheduling beats per-server-only
//! policies at microsecond scale. This module models that composition
//! inside the [`cluster`](crate::cluster) event engine: a rack-level
//! dispatcher places requests onto per-server FCFS queues, but — unlike the
//! idealized cluster balancer — it sees queue lengths **as of `t − Δ`**
//! (bounded-delay JSQ / power-of-d), servers that go idle may **steal**
//! queued work from the longest visible backlog, and the dispatch plane can
//! be **centralized** (one dispatcher that observed every placement) or
//! **distributed** (k dispatchers, each blind to the others' placements),
//! with Zipf-skewed per-tenant traffic hashed across dispatchers.
//!
//! There is no rack event loop. [`try_simulate_rack`] runs the engine
//! behind [`try_simulate_cluster_hedged`](crate::cluster::try_simulate_cluster_hedged)
//! with [`DuplicationPolicy::none`], one balancer per dispatcher, and a
//! crate-private `RackState` holding what only rack plans need: snapshot
//! history, per-dispatcher compensation windows, steal scratch, the tenant
//! mix and the hot/cold sketches. The hedged front end passes
//! [`RackPlan::fresh`], under which that state is inert. Duplication and
//! rack features therefore never combine through the public API.
//!
//! Determinism contract, extending the cluster's: the arrival/service
//! stream and the balancer stream are the engine's own, and the three
//! rack-only features draw from independent derived streams that are
//! consumed **only when the feature is on**:
//!
//! * signal staleness (`Δ > 0`) consumes no RNG at all — it only changes
//!   which state the balancer observes;
//! * work stealing draws victim probes from a dedicated stream
//!   (`RACK_STEAL_STREAM`, `0x57EA`);
//! * tenant ranks draw from `RACK_TENANT_STREAM` (`0x7E2A`, only when
//!   `tenants > 1`).
//!
//! A plan with `Δ = 0`, stealing off, and a single tenant therefore takes
//! the identical path through the engine: its [`ClusterResult`] is
//! **bitwise identical** to `try_simulate_cluster_hedged` with
//! [`DuplicationPolicy::none`] — the degeneracy the test suite pins.
//!
//! Staleness semantics: the dispatcher observes each server's state at
//! `τ = t − Δ` (per-server snapshot history), *compensated by its own
//! placements* in `(τ, t]` — a dispatcher knows what it placed, it just
//! cannot see departures or other dispatchers' placements until those age
//! past Δ. Centralized means one dispatcher (full placement knowledge);
//! distributed-k shards tenants across k dispatchers that each compensate
//! only their own window, so information degrades with both Δ and k.

use crate::cluster::{
    merge_replications, simulate_requests, Balancer, BalancerPolicy, ClusterOptions, ClusterResult,
    CopyCell, DuplicationPolicy, Front, ServerSoa,
};
use crate::des::Unstable;
use duplexity_obs::{LatencySketch, Tracer};
use duplexity_stats::rng::{derive_stream, rng_from_seed, SimRng};
use duplexity_stats::zipf::Zipf;
use rand::RngExt;
use std::collections::VecDeque;

/// Stream label for work-stealing victim probes. Independent of the
/// arrival and balancer streams, so a no-steal plan draws nothing from it
/// and stealing never perturbs the marked point process.
const RACK_STEAL_STREAM: u64 = 0x57EA;

/// Stream label for per-arrival tenant ranks. Only consumed when a plan
/// models more than one tenant.
const RACK_TENANT_STREAM: u64 = 0x7E2A;

/// Hot-tenant classification threshold: the smallest head of the Zipf rank
/// order holding at least this probability mass is "hot".
const HOT_MASS: f64 = 0.5;

/// Who runs the rack's dispatch plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coordination {
    /// One dispatcher places every request and therefore compensates its
    /// stale view with *all* placements younger than Δ.
    Centralized,
    /// `dispatchers` independent dispatchers; tenants hash across them
    /// (`rank % dispatchers`) and each compensates only its own
    /// placements. With a single tenant every request lands on dispatcher
    /// 0, which makes the plan equivalent to [`Coordination::Centralized`].
    Distributed {
        /// Number of independent dispatchers (≥ 1).
        dispatchers: usize,
    },
}

impl Coordination {
    fn dispatchers(self) -> usize {
        match self {
            Coordination::Centralized => 1,
            Coordination::Distributed { dispatchers } => dispatchers,
        }
    }

    /// Stable label for reports and JSON: `central` or `dist{k}`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Coordination::Centralized => "central".to_string(),
            Coordination::Distributed { dispatchers } => format!("dist{dispatchers}"),
        }
    }
}

/// Inter-server work-stealing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// Victim servers probed per steal attempt (`0` disables stealing; no
    /// RNG is drawn from the steal stream when disabled).
    pub probes: usize,
    /// Minimum *visible* queue length (in system, i.e. waiting plus in
    /// service) a victim must show before it is robbed — a victim at the
    /// threshold still keeps one request in service after the steal.
    pub min_queue: u32,
}

impl StealPolicy {
    /// Stealing disabled: zero probes, zero RNG draws, a bitwise no-op.
    #[must_use]
    pub fn off() -> Self {
        Self {
            probes: 0,
            min_queue: 2,
        }
    }

    /// Probe `d` random victims per idle transition; steal from the one
    /// with the longest visible backlog.
    #[must_use]
    pub fn probe(d: usize) -> Self {
        Self {
            probes: d,
            min_queue: 2,
        }
    }
}

/// A rack scheduling plan: dispatch-plane coordination, signal staleness,
/// work stealing, and tenant skew. [`RackPlan::fresh`] is the degenerate
/// plan that reproduces the cluster engine bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackPlan {
    /// Centralized vs distributed dispatch plane.
    pub coordination: Coordination,
    /// Signal staleness Δ, µs: the dispatcher sees per-server state as of
    /// `t − Δ` (compensated by its own placements). `0` is today's fresh
    /// signals.
    pub delta_us: f64,
    /// Idle-server work stealing.
    pub steal: StealPolicy,
    /// Tenants generating the traffic mix (≥ 1). With `1` no tenant rank
    /// is drawn and every request is "hot".
    pub tenants: usize,
    /// Zipf exponent of the per-tenant traffic skew (`0` = uniform,
    /// `0.99` = YCSB default). Ignored when `tenants == 1`.
    pub skew: f64,
}

impl RackPlan {
    /// The degenerate plan: centralized fresh signals, no stealing, one
    /// tenant. Bitwise identical to the cluster engine without
    /// duplication.
    #[must_use]
    pub fn fresh() -> Self {
        Self {
            coordination: Coordination::Centralized,
            delta_us: 0.0,
            steal: StealPolicy::off(),
            tenants: 1,
            skew: 0.0,
        }
    }

    /// Sets the signal staleness Δ in µs.
    #[must_use]
    pub fn with_delta(mut self, delta_us: f64) -> Self {
        self.delta_us = delta_us;
        self
    }

    /// Shards dispatch across `k` independent dispatchers.
    #[must_use]
    pub fn distributed(mut self, k: usize) -> Self {
        self.coordination = Coordination::Distributed { dispatchers: k };
        self
    }

    /// Enables work stealing with `d` probes per idle transition.
    #[must_use]
    pub fn with_steal(mut self, d: usize) -> Self {
        self.steal = StealPolicy::probe(d);
        self
    }

    /// Drives the rack with `tenants` Zipf(`skew`)-distributed tenants.
    #[must_use]
    pub fn with_tenants(mut self, tenants: usize, skew: f64) -> Self {
        self.tenants = tenants;
        self.skew = skew;
        self
    }

    /// Whether this plan consumes exactly the cluster engine's RNG streams
    /// and bookkeeping (the bitwise-degeneracy condition): fresh signals,
    /// no stealing, single tenant.
    #[must_use]
    pub fn is_fresh_degenerate(&self) -> bool {
        self.delta_us <= 0.0 && self.steal.probes == 0 && self.tenants <= 1
    }

    /// Stable label for reports and JSON, e.g. `central`, `central_d4`,
    /// `dist4_d4_z0.99`, `central_st2`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = self.coordination.label();
        if self.delta_us > 0.0 {
            s.push_str(&format!("_d{}", self.delta_us));
        }
        if self.steal.probes > 0 {
            s.push_str(&format!("_st{}", self.steal.probes));
        }
        if self.tenants > 1 {
            s.push_str(&format!("_z{}", self.skew));
        }
        s
    }
}

impl std::fmt::Display for RackPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Rack bookkeeping over the whole run (warmup included — steals are a
/// property of the schedule, not of individual measured requests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RackTally {
    /// Measured requests admitted.
    pub requests: u64,
    /// Measured requests from hot tenants (head of the Zipf rank order
    /// holding ≥ 50% of traffic; all requests when `tenants == 1`).
    pub hot_requests: u64,
    /// Victim probes drawn across all steal attempts.
    pub steal_probes: u64,
    /// Successful steals (a queued request migrated servers).
    pub steals: u64,
    /// Steal attempts whose chosen victim had nothing to give — the stale
    /// signal lied about the backlog.
    pub steals_empty: u64,
    /// Service demand migrated by steals, µs.
    pub stolen_work_us: f64,
}

/// Results of one rack simulation: the base cluster metrics plus rack
/// bookkeeping and per-class (hot/cold tenant) sojourn sketches.
#[derive(Debug, Clone)]
pub struct RackResult {
    /// Cluster-shaped metrics, so rack cells merge/render exactly like
    /// cluster cells. Waits are measured from arrival to service start
    /// (wherever the request ends up running after steals).
    pub cluster: ClusterResult,
    /// Steal/tenant counters.
    pub tally: RackTally,
    /// Sojourn sketch of hot-tenant requests.
    pub hot_sketch: LatencySketch,
    /// Sojourn sketch of cold-tenant requests (empty when `tenants == 1`).
    pub cold_sketch: LatencySketch,
}

/// Pools independent replications of one rack cell, in replication order
/// (same contract as [`merge_replications`]: a pure function of the
/// ordered list, bit-identical at any worker count). Cluster metrics merge
/// via [`merge_replications`]; tallies sum fieldwise; hot/cold sketches
/// merge in replication order.
///
/// # Panics
///
/// Panics if `parts` is empty or the replications disagree on the server
/// count.
#[must_use]
pub fn merge_rack_replications(
    parts: Vec<RackResult>,
    quantile: f64,
    confidence: f64,
) -> RackResult {
    assert!(!parts.is_empty(), "cannot merge zero replications");
    let mut tally = RackTally::default();
    let mut hot_sketch = LatencySketch::new();
    let mut cold_sketch = LatencySketch::new();
    let mut clusters = Vec::with_capacity(parts.len());
    for part in parts {
        tally.requests += part.tally.requests;
        tally.hot_requests += part.tally.hot_requests;
        tally.steal_probes += part.tally.steal_probes;
        tally.steals += part.tally.steals;
        tally.steals_empty += part.tally.steals_empty;
        tally.stolen_work_us += part.tally.stolen_work_us;
        hot_sketch.merge(&part.hot_sketch);
        cold_sketch.merge(&part.cold_sketch);
        clusters.push(part.cluster);
    }
    RackResult {
        cluster: merge_replications(clusters, quantile, confidence),
        tally,
        hot_sketch,
        cold_sketch,
    }
}

/// One entry of a server's visible-state history: the server's full
/// dispatch-relevant state as of time `t`. The balancer's stale view at
/// `τ` is the last snapshot with `t ≤ τ`.
#[derive(Debug, Clone, Copy)]
struct Snap {
    t: f64,
    in_system: u32,
    queued_work: f64,
    serving: bool,
    serve_end: f64,
}

/// Two-level rack simulation: a rack dispatcher placing Poisson arrivals
/// at `lambda_per_us` onto `opts.servers` FCFS servers under `policy`,
/// with the plan's signal staleness, work stealing, coordination, and
/// tenant skew applied.
///
/// Takes the policy *by value* (not a `&mut dyn Balancer`) because a
/// distributed plan instantiates one balancer per dispatcher.
///
/// Trace vocabulary: measured requests emit
/// [`TraceEvent::RequestArrive`](duplexity_obs::TraceEvent::RequestArrive) /
/// [`TraceEvent::Dispatch`](duplexity_obs::TraceEvent::Dispatch) /
/// [`TraceEvent::RequestComplete`](duplexity_obs::TraceEvent::RequestComplete)
/// in the shared DES tick domain; counters land under `rack/*`
/// (`rack/requests`, `rack/server/{i}/requests`,
/// `rack/steal/{probes,ok,empty}`), tails under `rack/sojourn_us` and
/// `rack/wait_us`, and the end-of-run DES self-profile under
/// `rack/events/*` and `rack/eventq/*`.
///
/// # Errors
///
/// `Err(Unstable)` when the 512-draw pilot estimates `λ·E[S]/n ≥ 1` —
/// stealing and staleness rebalance work but never add or remove it, so
/// the stability condition is the cluster's.
///
/// # Panics
///
/// Panics on non-positive `lambda_per_us`, zero servers, or an invalid
/// plan (zero dispatchers/tenants, negative or non-finite Δ or skew).
pub fn try_simulate_rack(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    policy: BalancerPolicy,
    plan: &RackPlan,
    opts: &ClusterOptions,
    tracer: &Tracer,
) -> Result<RackResult, Unstable> {
    assert!(
        plan.coordination.dispatchers() >= 1,
        "rack needs at least one dispatcher"
    );
    assert!(plan.tenants >= 1, "rack needs at least one tenant");
    assert!(
        plan.delta_us >= 0.0 && plan.delta_us.is_finite(),
        "staleness must be finite and non-negative"
    );
    assert!(
        plan.skew >= 0.0 && plan.skew.is_finite(),
        "tenant skew must be finite and non-negative"
    );
    let mut built: Vec<Box<dyn Balancer>> = (0..plan.coordination.dispatchers())
        .map(|_| policy.build())
        .collect();
    let mut dispatchers: Vec<&mut dyn Balancer> = built
        .iter_mut()
        .map(|b| b.as_mut() as &mut dyn Balancer)
        .collect();
    let (run, rack) = simulate_requests(
        lambda_per_us,
        service,
        &mut dispatchers,
        &DuplicationPolicy::none(),
        RackState::new(plan, opts),
        Front::Rack,
        opts,
        tracer,
    )?;
    Ok(rack.into_result(run.cluster, run.tally.requests))
}

/// The rack plan's share of the request engine's state: stale-view
/// history, per-dispatcher compensation windows, steal scratch, tenant mix
/// and the hot/cold sketches. Under [`RackPlan::fresh`] every method is a
/// no-op or the live view, and neither feature stream is drawn from.
pub(crate) struct RackState {
    pub(crate) plan: RackPlan,
    /// Cached `plan.delta_us > 0.0`: the fresh path must skip all history
    /// bookkeeping (not just produce equal views) to stay bitwise equal to
    /// the cluster engine.
    stale: bool,
    /// Per-server snapshot history for stale views (empty when Δ = 0).
    /// Front-pruned as `τ = t − Δ` advances; queries are monotone in `t`
    /// because events pop in time order.
    hist: Vec<VecDeque<Snap>>,
    /// Per-dispatcher compensation windows: own placements `(t, server,
    /// demand)` younger than Δ (empty when Δ = 0).
    windows: Vec<VecDeque<(f64, usize, f64)>>,
    probe_scratch: Vec<usize>,
    /// Feature streams, derived independently: consumed only when their
    /// feature is enabled, so disabled features are RNG no-ops.
    srng: SimRng,
    trng: SimRng,
    /// Tenant rank law, present only when the plan has several tenants.
    tenant_mix: Option<Zipf>,
    /// Ranks below this are hot: the smallest rank head holding ≥
    /// `HOT_MASS` of traffic.
    hot_cutoff: usize,
    pub(crate) tally: RackTally,
    hot_sketch: LatencySketch,
    cold_sketch: LatencySketch,
}

impl RackState {
    pub(crate) fn new(plan: &RackPlan, opts: &ClusterOptions) -> Self {
        let stale = plan.delta_us > 0.0;
        let tenant_mix = (plan.tenants > 1).then(|| Zipf::new(plan.tenants, plan.skew));
        let hot_cutoff = tenant_mix.as_ref().map_or(1, |z| {
            let mut k = 1;
            while z.head_mass(k) < HOT_MASS && k < z.n() {
                k += 1;
            }
            k
        });
        let dispatchers = plan.coordination.dispatchers();
        Self {
            plan: *plan,
            stale,
            hist: vec![VecDeque::new(); if stale { opts.servers } else { 0 }],
            windows: vec![VecDeque::new(); if stale { dispatchers } else { 0 }],
            probe_scratch: Vec::with_capacity(opts.servers),
            srng: rng_from_seed(derive_stream(opts.seed, RACK_STEAL_STREAM)),
            trng: rng_from_seed(derive_stream(opts.seed, RACK_TENANT_STREAM)),
            tenant_mix,
            hot_cutoff,
            tally: RackTally::default(),
            hot_sketch: LatencySketch::new(),
            cold_sketch: LatencySketch::new(),
        }
    }

    /// Draws an arrival's tenant rank — only when the plan models several
    /// tenants, so a single-tenant plan never touches the tenant stream —
    /// and returns the dispatcher it hashes to and whether it is hot.
    /// Counts measured hot requests.
    #[inline]
    pub(crate) fn tenant(&mut self, dispatchers: usize, measured: bool) -> (usize, bool) {
        let Some(mix) = &self.tenant_mix else {
            self.tally.hot_requests += u64::from(measured);
            return (0, true);
        };
        let rank = mix.sample(&mut self.trng);
        let hot = rank < self.hot_cutoff;
        self.tally.hot_requests += u64::from(measured && hot);
        (rank % dispatchers, hot)
    }

    /// Files a measured sojourn under its tenant class. A single-tenant
    /// plan skips this: every request is hot, so its hot sketch is the
    /// aggregate sketch ([`RackState::into_result`]).
    #[inline]
    pub(crate) fn record_sojourn(&mut self, hot: bool, sojourn: f64) {
        if self.tenant_mix.is_none() {
            return;
        }
        if hot {
            self.hot_sketch.record(sojourn);
        } else {
            self.cold_sketch.record(sojourn);
        }
    }

    /// Records the server's post-mutation state into its visible history.
    /// No-op on the fresh path.
    #[inline]
    pub(crate) fn record_snap(&mut self, servers: &ServerSoa, server: usize, t: f64) {
        if !self.stale {
            return;
        }
        let snap = Snap {
            t,
            in_system: servers.in_system[server],
            queued_work: servers.queued_work[server],
            serving: servers.serving[server].is_some(),
            serve_end: servers.serve_end[server],
        };
        let h = &mut self.hist[server];
        // Several mutations at one instant collapse to the final state —
        // an observer at τ = t sees the state after the whole event.
        match h.back_mut() {
            Some(last) if last.t == t => *last = snap,
            _ => h.push_back(snap),
        }
    }

    /// The server state visible at `τ`: the last snapshot at or before
    /// `τ`, with the in-service residual projected to `τ`. Before any
    /// snapshot the server looks empty. Prunes history the observer can
    /// never need again (queries are monotone in `τ`).
    #[inline]
    fn visible(&mut self, server: usize, tau: f64) -> (u32, f64) {
        let h = &mut self.hist[server];
        while h.len() >= 2 && h[1].t <= tau {
            h.pop_front();
        }
        match h.front() {
            Some(snap) if snap.t <= tau => {
                let residual = if snap.serving {
                    (snap.serve_end - tau).max(0.0)
                } else {
                    0.0
                };
                (snap.in_system, snap.queued_work + residual)
            }
            _ => (0, 0.0),
        }
    }

    /// The server state as the dispatcher sees it right now: fresh at
    /// Δ = 0 (bitwise the cluster's view), else the Δ-stale snapshot.
    #[inline]
    pub(crate) fn dispatch_view(
        &mut self,
        servers: &ServerSoa,
        server: usize,
        t: f64,
    ) -> (u32, f64) {
        if self.stale {
            self.visible(server, t - self.plan.delta_us)
        } else {
            servers.view(server, t)
        }
    }

    /// Compensates dispatcher `disp`'s stale view with its own placements
    /// younger than Δ: it knows what it placed, it just cannot see
    /// departures (or other dispatchers' placements) that fresh.
    #[inline]
    pub(crate) fn compensate(
        &mut self,
        disp: usize,
        t: f64,
        queues: &mut [u32],
        backlog: &mut [f64],
    ) {
        if !self.stale {
            return;
        }
        let tau = t - self.plan.delta_us;
        let win = &mut self.windows[disp];
        while win.front().is_some_and(|&(ts, _, _)| ts <= tau) {
            win.pop_front();
        }
        for &(_, s, d) in win.iter() {
            queues[s] += 1;
            backlog[s] += d;
        }
    }

    /// Records a placement by `disp` onto `server`: the dispatcher's
    /// compensation window and the server's snapshot. No-op when fresh.
    #[inline]
    pub(crate) fn note_placement(
        &mut self,
        servers: &ServerSoa,
        disp: usize,
        server: usize,
        demand: f64,
        t: f64,
    ) {
        if self.stale {
            self.windows[disp].push_back((t, server, demand));
            self.record_snap(servers, server, t);
        }
    }

    /// One steal attempt by idle `thief`: probe `d` distinct victims
    /// (partial Fisher–Yates on the steal stream), pick the one with the
    /// longest *visible* backlog above the queue threshold, and migrate
    /// its oldest queued request. A victim whose actual queue turns out
    /// empty — the stale signal lied — counts as `steals_empty`. Returns
    /// whether a request moved (the thief then starts it).
    pub(crate) fn try_steal(
        &mut self,
        servers: &mut ServerSoa,
        copies: &mut [CopyCell],
        thief: usize,
        t: f64,
        tracer: &Tracer,
    ) -> bool {
        let n = servers.serving.len();
        if n < 2 {
            return false;
        }
        self.probe_scratch.clear();
        self.probe_scratch.extend((0..n).filter(|&i| i != thief));
        let m = self.probe_scratch.len();
        let d = self.plan.steal.probes.min(m);
        let mut victim = None;
        let mut best_w = f64::NEG_INFINITY;
        for j in 0..d {
            let r = j + self.srng.random_range(0..m - j);
            self.probe_scratch.swap(j, r);
            let probe = self.probe_scratch[j];
            self.tally.steal_probes += 1;
            let (qn, w) = self.dispatch_view(servers, probe, t);
            if qn >= self.plan.steal.min_queue && w > best_w {
                best_w = w;
                victim = Some(probe);
            }
        }
        tracer.count("rack/steal/probes", d as u64);
        let Some(v) = victim else { return false };
        let Some(c) = servers.prim_q[v].pop_front() else {
            // The visible backlog was stale: the victim has nothing.
            self.tally.steals_empty += 1;
            tracer.count("rack/steal/empty", 1);
            return false;
        };
        let demand = copies[c].demand;
        copies[c].server = thief;
        servers.in_system[v] -= 1;
        servers.queued_work[v] -= demand;
        servers.in_system[thief] += 1;
        servers.queued_work[thief] += demand;
        servers.prim_q[thief].push_back(c);
        self.tally.steals += 1;
        self.tally.stolen_work_us += demand;
        tracer.count("rack/steal/ok", 1);
        self.record_snap(servers, v, t);
        self.record_snap(servers, thief, t);
        true
    }

    /// The rack result over the engine's cluster metrics and its count of
    /// measured requests.
    pub(crate) fn into_result(mut self, cluster: ClusterResult, requests: u64) -> RackResult {
        self.tally.requests = requests;
        let hot_sketch = if self.tenant_mix.is_some() {
            self.hot_sketch
        } else {
            cluster.sketch.clone()
        };
        RackResult {
            cluster,
            tally: self.tally,
            hot_sketch,
            cold_sketch: self.cold_sketch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::try_simulate_cluster_hedged;
    use crate::eventcore::EventQueueKind;
    use duplexity_stats::dist::{Distribution, Exponential};

    fn fast_opts(servers: usize, seed: u64) -> ClusterOptions {
        ClusterOptions {
            servers,
            max_samples: 120_000,
            warmup: 2_000,
            seed,
            ..ClusterOptions::default()
        }
    }

    fn exp_service(mean: f64) -> impl FnMut(&mut SimRng) -> f64 {
        move |rng: &mut SimRng| Exponential::new(mean).sample(rng)
    }

    fn rack_run(
        lambda: f64,
        service: &mut dyn FnMut(&mut SimRng) -> f64,
        policy: BalancerPolicy,
        plan: &RackPlan,
        opts: &ClusterOptions,
    ) -> RackResult {
        try_simulate_rack(lambda, service, policy, plan, opts, &Tracer::disabled())
            .expect("stable rack cell")
    }

    const POLICIES: [BalancerPolicy; 5] = [
        BalancerPolicy::Random,
        BalancerPolicy::RoundRobin,
        BalancerPolicy::Jsq,
        BalancerPolicy::PowerOfD(2),
        BalancerPolicy::LeastWork,
    ];

    #[test]
    fn fresh_plan_is_bitwise_the_cluster_engine() {
        // Δ=0, no steal, one tenant: the rack must consume draw-for-draw
        // the cluster's RNG streams and bookkeeping — bitwise equality on
        // every derived statistic, for every policy and both event queues.
        for kind in [EventQueueKind::Wheel, EventQueueKind::Heap] {
            for policy in POLICIES {
                let mut opts = fast_opts(4, 17);
                opts.event_queue = kind;
                let mut svc = exp_service(1.0);
                let rack = try_simulate_rack(
                    3.0,
                    &mut svc,
                    policy,
                    &RackPlan::fresh(),
                    &opts,
                    &Tracer::disabled(),
                )
                .expect("stable");
                let mut svc = exp_service(1.0);
                let cluster = try_simulate_cluster_hedged(
                    3.0,
                    &mut svc,
                    policy.build().as_mut(),
                    &DuplicationPolicy::none(),
                    &opts,
                    &Tracer::disabled(),
                )
                .expect("stable");
                let (r, c) = (&rack.cluster, &cluster.cluster);
                assert_eq!(r.tail_us, c.tail_us, "{policy}/{kind:?}");
                assert_eq!(r.p50_us, c.p50_us, "{policy}/{kind:?}");
                assert_eq!(r.mean_sojourn_us, c.mean_sojourn_us, "{policy}/{kind:?}");
                assert_eq!(r.mean_wait_us, c.mean_wait_us, "{policy}/{kind:?}");
                assert_eq!(r.wait, c.wait, "{policy}/{kind:?}");
                assert_eq!(r.sojourn, c.sojourn, "{policy}/{kind:?}");
                assert_eq!(r.utilization, c.utilization, "{policy}/{kind:?}");
                assert_eq!(r.per_server_requests, c.per_server_requests);
                assert_eq!(r.samples, c.samples, "{policy}/{kind:?}");
                assert_eq!(r.converged, c.converged, "{policy}/{kind:?}");
                assert_eq!(r.sketch, c.sketch, "{policy}/{kind:?}");
                assert_eq!(r.measured_us, c.measured_us, "{policy}/{kind:?}");
                assert_eq!(rack.tally.steals, 0);
                assert_eq!(rack.tally.steal_probes, 0);
            }
        }
    }

    #[test]
    fn same_seed_is_bit_identical_with_all_features_on() {
        let plan = RackPlan::fresh()
            .with_delta(4.0)
            .distributed(2)
            .with_steal(2)
            .with_tenants(64, 0.99);
        let run = |_| {
            let mut svc = exp_service(1.0);
            rack_run(3.0, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(4, 23))
        };
        let (a, b) = (run(0), run(1));
        assert_eq!(a.cluster.tail_us, b.cluster.tail_us);
        assert_eq!(a.cluster.sojourn, b.cluster.sojourn);
        assert_eq!(a.cluster.per_server_requests, b.cluster.per_server_requests);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.hot_sketch, b.hot_sketch);
        assert_eq!(a.cold_sketch, b.cold_sketch);
    }

    #[test]
    fn wheel_and_heap_agree_under_staleness_and_stealing() {
        let plan = RackPlan::fresh().with_delta(6.0).with_steal(2);
        let run = |kind| {
            let mut opts = fast_opts(4, 29);
            opts.event_queue = kind;
            let mut svc = exp_service(1.0);
            try_simulate_rack(
                3.2,
                &mut svc,
                BalancerPolicy::Jsq,
                &plan,
                &opts,
                &Tracer::disabled(),
            )
            .expect("stable")
        };
        let (w, h) = (run(EventQueueKind::Wheel), run(EventQueueKind::Heap));
        assert_eq!(w.cluster.tail_us, h.cluster.tail_us);
        assert_eq!(w.cluster.sketch, h.cluster.sketch);
        assert_eq!(w.tally, h.tally);
    }

    #[test]
    fn tail_degrades_monotonically_with_staleness() {
        // CRN across Δ: same arrivals and demands, only the dispatcher's
        // information ages. Staler signals must not improve the tail.
        let tails: Vec<f64> = [0.0, 10.0, 40.0]
            .iter()
            .map(|&delta| {
                let mut svc = exp_service(1.0);
                let plan = RackPlan::fresh().with_delta(delta);
                rack_run(6.4, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(8, 31))
                    .cluster
                    .tail_us
            })
            .collect();
        assert!(
            tails[0] <= tails[1] && tails[1] <= tails[2],
            "p99 must degrade with Δ: {tails:?}"
        );
    }

    #[test]
    fn distributed_dispatch_is_no_better_than_centralized_when_stale() {
        // At Δ>0 a centralized dispatcher compensates with every
        // placement; distributed dispatchers each see only their own.
        let run = |plan: RackPlan| {
            let mut svc = exp_service(1.0);
            rack_run(6.4, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(8, 37))
                .cluster
                .tail_us
        };
        let central = run(RackPlan::fresh().with_delta(8.0).with_tenants(64, 0.0));
        let dist = run(RackPlan::fresh()
            .with_delta(8.0)
            .with_tenants(64, 0.0)
            .distributed(4));
        assert!(
            central <= dist * 1.02,
            "central p99 {central} should not exceed distributed p99 {dist}"
        );
    }

    #[test]
    fn stealing_rescues_a_weak_placement_policy() {
        // Random placement piles work onto busy servers; idle thieves
        // should claw a large share of the tail back.
        let run = |plan: RackPlan| {
            let mut svc = exp_service(1.0);
            rack_run(
                5.6,
                &mut svc,
                BalancerPolicy::Random,
                &plan,
                &fast_opts(8, 41),
            )
        };
        let base = run(RackPlan::fresh());
        let stolen = run(RackPlan::fresh().with_steal(3));
        assert!(stolen.tally.steals > 0, "no steals happened");
        assert!(
            stolen.cluster.tail_us <= base.cluster.tail_us,
            "steal p99 {} vs base p99 {}",
            stolen.cluster.tail_us,
            base.cluster.tail_us
        );
    }

    #[test]
    fn hot_and_cold_tenant_sketches_partition_the_samples() {
        let plan = RackPlan::fresh().with_tenants(128, 0.99);
        let mut svc = exp_service(1.0);
        let r = rack_run(3.0, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(4, 43));
        assert!(r.tally.hot_requests > 0, "zipf 0.99 must have a hot head");
        assert!(r.tally.hot_requests < r.tally.requests);
        assert_eq!(
            r.hot_sketch.count() + r.cold_sketch.count(),
            r.cluster.samples as u64
        );
        assert_eq!(r.cluster.sketch.count(), r.cluster.samples as u64);
    }

    #[test]
    fn replications_merge_deterministically() {
        let plan = RackPlan::fresh().with_delta(4.0).with_steal(2);
        let part = |seed| {
            let mut svc = exp_service(1.0);
            rack_run(
                3.0,
                &mut svc,
                BalancerPolicy::Jsq,
                &plan,
                &fast_opts(4, seed),
            )
        };
        let merged_a = merge_rack_replications(vec![part(1), part(2)], 0.99, 0.95);
        let merged_b = merge_rack_replications(vec![part(1), part(2)], 0.99, 0.95);
        assert_eq!(merged_a.cluster.tail_us, merged_b.cluster.tail_us);
        assert_eq!(merged_a.tally, merged_b.tally);
        assert_eq!(
            merged_a.tally.requests,
            part(1).tally.requests + part(2).tally.requests
        );
    }

    #[test]
    fn saturated_rack_is_a_typed_error() {
        let mut svc = exp_service(1.0);
        let err = try_simulate_rack(
            4.8, // rho = 1.2 on 4 servers
            &mut svc,
            BalancerPolicy::Jsq,
            &RackPlan::fresh(),
            &fast_opts(4, 47),
            &Tracer::disabled(),
        )
        .expect_err("saturated");
        assert!(err.rho_estimate > 1.0);
    }

    #[test]
    fn plan_labels_are_stable() {
        assert_eq!(RackPlan::fresh().label(), "central");
        assert_eq!(RackPlan::fresh().with_delta(4.0).label(), "central_d4");
        assert_eq!(
            RackPlan::fresh()
                .with_delta(4.0)
                .distributed(4)
                .with_tenants(64, 0.99)
                .label(),
            "dist4_d4_z0.99"
        );
        assert_eq!(RackPlan::fresh().with_steal(2).label(), "central_st2");
    }
}
