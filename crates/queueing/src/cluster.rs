//! Load-balanced n-server farm: many dyads behind one balancer.
//!
//! The paper's server-level results come from BigHouse-style simulation of
//! a *cluster* of servers fed by a load balancer, not a lone M/G/1 queue.
//! This module scales [`des`](crate::des) to that setting: `n` FCFS servers
//! whose service times are drawn from a caller-supplied closure (calibrated
//! per-design by the cycle-level dyad sims upstream), with arrivals routed
//! by a [`Balancer`] running one of five [`BalancerPolicy`] policies.
//! RackSched-style results say the policy choice — Random vs JSQ vs
//! power-of-d — dominates the tail at microsecond scale, so the policy is
//! a first-class grid axis. Dispatch reads a candidate's queue length or
//! backlog only when its policy asks for it.
//!
//! Two engines live here. [`try_simulate_cluster`] is the arrival-ordered
//! Lindley loop, kept as the zero-duplication reference. The event engine
//! behind [`try_simulate_cluster_hedged`] is the only request-domain event
//! loop in the crate: it also runs [`rack`](crate::rack) plans, whose
//! stale views, stealing and tenants are plan components beside the
//! duplication plan. Apart from trace naming, the loop branches only on
//! plan values: Δ > 0, steal probes > 0, tenants > 1 and the dup mode.
//! Both front ends return one [`RequestResult`], and [`merge_replications`]
//! pools replications of any request cell.
//!
//! Determinism contract: the arrival/service draws and the balancer's own
//! randomness come from two *independent* derived streams
//! ([`derive_stream`]). Every policy therefore sees the identical marked
//! point process (arrival time, service demand) and differs only in
//! assignments — common random numbers across the policy axis — and results
//! are a pure function of `(inputs, seed)`, bit-identical at any worker
//! count. With `n = 1` every policy degenerates to the same single queue
//! and consumes the exact RNG draw sequence of
//! [`try_simulate_mg1`](crate::des::try_simulate_mg1); waits agree up to
//! floating-point rounding (absolute-time bookkeeping here vs the
//! incremental Lindley recursion there).

use crate::des::{Mg1Options, Unstable};
use crate::eventcore::{EventQueue, EventQueueKind, HeapEventQueue, WheelEventQueue};
use crate::rack::{RackPlan, RackState, RackTally};
use duplexity_obs::{LatencySketch, TraceEvent, Tracer};
use duplexity_stats::ci::ConfidenceInterval;
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{derive_stream, draw_batch, rng_from_seed, SimRng};
use duplexity_stats::summary::Summary;
use rand::RngExt;
use std::collections::VecDeque;

/// Cluster and rack traces share the DES clock domain: 1000 ticks per
/// simulated µs.
const CLUSTER_TICKS_PER_US: f64 = 1000.0;

/// Stream label for the balancer's private RNG (vs the arrival stream).
/// The Lindley loop and the event engine derive the same stream (in the
/// engine every dispatcher draws from it), which is what lets a fresh rack
/// plan, hedged `none` and the Lindley loop make identical placements.
const BALANCER_STREAM: u64 = 0xBA1A;

/// Stream label for duplicate-copy service demands. Like the balancer
/// stream, this is derived independently from the seed so the primary
/// arrival/service point process is untouched by duplication: a plan that
/// issues zero duplicates draws nothing from it and is an RNG no-op,
/// which is what keeps every pre-existing golden fixture byte-identical.
const DUPLICATE_STREAM: u64 = 0xD0B7;

fn ns_ticks(us: f64) -> u64 {
    (us * CLUSTER_TICKS_PER_US).round().max(0.0) as u64
}

/// A load-balancing policy, by value, so experiment grids can enumerate
/// policies in config structs and serialize them by name. Every policy
/// picks from the per-server queue lengths and unfinished-work backlogs at
/// an arrival instant, both measured *before* the new request is placed,
/// and breaks ties to the lowest server index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerPolicy {
    /// Uniform-random assignment: the memoryless baseline every other
    /// policy must beat.
    Random,
    /// Strict rotation: request k goes to server k mod n.
    RoundRobin,
    /// Join the shortest queue: argmin of the instantaneous queue *length*
    /// (waiting + in service).
    Jsq,
    /// Power-of-d choices: probe `d` *distinct* uniformly random servers
    /// (sampled without replacement via a partial Fisher–Yates shuffle)
    /// and join the shortest probe. `d` is clamped to `1..=n`. `d = 2` is
    /// the classic "power of two choices"; `d ≥ n` probes every server
    /// and is therefore identical to JSQ on every sample path (same pick
    /// at every arrival), which the property suite asserts.
    PowerOfD(usize),
    /// Join the server with the least unfinished work, in µs. With FCFS
    /// servers this is *exactly* equivalent to a single central FCFS queue
    /// feeding `n` servers (every request starts as early as possible),
    /// which is what makes the M/M/k Erlang-C cross-check exact — JSQ by
    /// queue length is not, because a short queue can hide a long residual
    /// service.
    LeastWork,
}

impl BalancerPolicy {
    /// Instantiates the policy's balancer state.
    pub fn build(&self) -> Box<Balancer> {
        Box::new(Balancer {
            policy: *self,
            next: 0,
            scratch: Vec::new(),
        })
    }

    /// Stable snake_case name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            BalancerPolicy::Random => "random",
            BalancerPolicy::RoundRobin => "round_robin",
            BalancerPolicy::Jsq => "jsq",
            BalancerPolicy::PowerOfD(_) => "power_of_d",
            BalancerPolicy::LeastWork => "least_work",
        }
    }
}

impl std::fmt::Display for BalancerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BalancerPolicy::PowerOfD(d) => write!(f, "power_of_{d}"),
            other => f.write_str(other.name()),
        }
    }
}

/// A balancer: a [`BalancerPolicy`] and the state its picks carry, built
/// by [`BalancerPolicy::build`].
///
/// Random and power-of-d draw from the engine's balancer stream; the other
/// policies draw nothing. Either way the stream is private to placement,
/// so policies are interchangeable without perturbing the arrival/service
/// sample path.
#[derive(Debug)]
pub struct Balancer {
    policy: BalancerPolicy,
    /// Round-robin's next server.
    next: usize,
    /// Power-of-d's probe permutation.
    scratch: Vec<usize>,
}

impl Balancer {
    /// Chooses a server in `0..n`, where `queue(i)` and `backlog(i)` are
    /// candidate `i`'s queue length and backlog in µs. Each policy calls
    /// only the signal it reads, and only for the candidates it probes.
    #[inline]
    pub(crate) fn pick(
        &mut self,
        n: usize,
        queue: impl Fn(usize) -> u32,
        backlog: impl Fn(usize) -> f64,
        rng: &mut SimRng,
    ) -> usize {
        match self.policy {
            BalancerPolicy::Random => rng.random_range(0..n),
            BalancerPolicy::RoundRobin => {
                let i = self.next % n;
                self.next = (self.next + 1) % n;
                i
            }
            BalancerPolicy::Jsq => argmin(n, queue),
            BalancerPolicy::PowerOfD(d) => {
                let d = d.max(1).min(n);
                self.scratch.clear();
                self.scratch.extend(0..n);
                let (mut best, mut best_q) = (usize::MAX, 0);
                for j in 0..d {
                    let r = j + rng.random_range(0..n - j);
                    self.scratch.swap(j, r);
                    let probe = self.scratch[j];
                    let q = queue(probe);
                    if best == usize::MAX || q < best_q || (q == best_q && probe < best) {
                        (best, best_q) = (probe, q);
                    }
                }
                best
            }
            BalancerPolicy::LeastWork => argmin(n, backlog),
        }
    }
}

/// The first index of the smallest `signal(i)` over `0..n`.
#[inline]
fn argmin<T: PartialOrd>(n: usize, signal: impl Fn(usize) -> T) -> usize {
    let (mut best, mut best_v) = (0, signal(0));
    for i in 1..n {
        let v = signal(i);
        if v < best_v {
            (best, best_v) = (i, v);
        }
    }
    best
}

/// Cluster simulation control parameters. Mirrors [`Mg1Options`] (same
/// BigHouse stopping rule) plus the server count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOptions {
    /// Number of servers behind the balancer (≥ 1).
    pub servers: usize,
    /// Target quantile of sojourn time (the paper reports p99).
    pub quantile: f64,
    /// Confidence level for the stopping rule.
    pub confidence: f64,
    /// Maximum relative CI half-width before stopping.
    pub max_relative_error: f64,
    /// Requests discarded as warm-up before measuring.
    pub warmup: usize,
    /// Hard cap on measured requests.
    pub max_samples: usize,
    /// Convergence is checked every this many samples.
    pub check_every: usize,
    /// RNG seed; arrival/service and balancer streams are derived from it.
    pub seed: u64,
    /// Future-event-set implementation for the event-driven engine
    /// ([`try_simulate_cluster_hedged`]). Bit-identical across kinds by
    /// the [`eventcore`](crate::eventcore) tie-break contract; the legacy
    /// Lindley engine ignores it.
    pub event_queue: EventQueueKind,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        let q = Mg1Options::default();
        Self {
            servers: 4,
            quantile: q.quantile,
            confidence: q.confidence,
            max_relative_error: q.max_relative_error,
            warmup: q.warmup,
            max_samples: q.max_samples,
            check_every: q.check_every,
            seed: q.seed,
            event_queue: EventQueueKind::default(),
        }
    }
}

impl ClusterOptions {
    /// Lifts single-queue options to a cluster of `servers`.
    pub fn from_mg1(servers: usize, q: &Mg1Options) -> Self {
        Self {
            servers,
            quantile: q.quantile,
            confidence: q.confidence,
            max_relative_error: q.max_relative_error,
            warmup: q.warmup,
            max_samples: q.max_samples,
            check_every: q.check_every,
            seed: q.seed,
            event_queue: EventQueueKind::default(),
        }
    }
}

/// Results of one cluster simulation.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// The target quantile of sojourn time, µs.
    pub tail_us: f64,
    /// Confidence interval around [`ClusterResult::tail_us`], if computable.
    pub tail_ci: Option<ConfidenceInterval>,
    /// Mean sojourn time, µs.
    pub mean_sojourn_us: f64,
    /// Median sojourn time, µs.
    pub p50_us: f64,
    /// Mean queueing delay (time between arrival and service start), µs.
    pub mean_wait_us: f64,
    /// Queueing-delay statistics, µs (feeds the Erlang-C cross-check).
    pub wait: Summary,
    /// Sojourn-time statistics, µs.
    pub sojourn: Summary,
    /// Mean per-server busy fraction over the measured window.
    pub utilization: f64,
    /// Measured requests dispatched to each server.
    pub per_server_requests: Vec<u64>,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the cap.
    pub converged: bool,
    /// Raw sojourn samples (the estimator behind `tail_us`), retained so
    /// independent replications can be pooled exactly rather than by
    /// quantile averaging.
    pub sojourn_samples: QuantileEstimator,
    /// Streaming log-bucketed histogram of the same sojourn stream
    /// (constant memory, ~1% relative error on quantiles), mergeable
    /// across replications in replication order with results identical to
    /// sketching the concatenated stream.
    pub sketch: LatencySketch,
    /// Simulated measured-window duration, µs — the clock behind
    /// `utilization`, needed to reconstruct busy time when merging.
    pub measured_us: f64,
}

impl ClusterResult {
    /// Assembles a result from one run's (or a pooled run set's)
    /// collectors: `busy_us` of delivered service over `measured_us` of
    /// simulated time on `per_server_requests.len()` servers.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        mut sojourns: QuantileEstimator,
        sketch: LatencySketch,
        wait: Summary,
        sojourn: Summary,
        busy_us: f64,
        measured_us: f64,
        per_server_requests: Vec<u64>,
        samples: usize,
        converged: bool,
        quantile: f64,
        confidence: f64,
    ) -> Self {
        Self {
            tail_us: sojourns.quantile(quantile).unwrap_or(0.0),
            tail_ci: sojourns.quantile_ci(quantile, confidence),
            mean_sojourn_us: sojourns.mean().unwrap_or(0.0),
            p50_us: sojourns.quantile(0.5).unwrap_or(0.0),
            mean_wait_us: if wait.count() > 0 { wait.mean() } else { 0.0 },
            wait,
            sojourn,
            utilization: busy_fraction(busy_us, per_server_requests.len(), measured_us),
            per_server_requests,
            samples,
            converged,
            sojourn_samples: sojourns,
            sketch,
            measured_us,
        }
    }
}

/// Per-server busy fraction: `busy_us` of service over `measured_us` on
/// `servers` servers, capped at 1 (0 for an empty window).
fn busy_fraction(busy_us: f64, servers: usize, measured_us: f64) -> f64 {
    if measured_us > 0.0 {
        (busy_us / (servers as f64 * measured_us)).min(1.0)
    } else {
        0.0
    }
}

/// Mean of the 512-draw pilot every engine takes on the arrival stream to
/// reject saturated inputs. Drawn as one batch — bitwise the same stream
/// as 512 sequential draws (see `draw_batch`), just without 512
/// closure-call overheads in between.
fn pilot_mean(rng: &mut SimRng, service: &mut dyn FnMut(&mut SimRng) -> f64) -> f64 {
    let mut buf = Vec::new();
    draw_batch(rng, 512, &mut buf, service);
    buf.iter().sum::<f64>() / 512.0
}

/// Simulates `n` FCFS servers behind `balancer` with aggregate Poisson
/// arrivals at `lambda_per_us` and iid service demands from `service`: the
/// arrival-ordered Lindley loop, with an optional tracer attached.
///
/// Each measured request emits [`TraceEvent::RequestArrive`], a
/// [`TraceEvent::Dispatch`] carrying the chosen server and its pre-arrival
/// queue length, and [`TraceEvent::RequestComplete`], all stamped in the
/// DES nanosecond-tick domain (1000 ticks per simulated µs). The tracer
/// consumes no RNG draws, so tracing never perturbs results.
///
/// # Errors
///
/// A pilot estimate of `λ·E[S]/n ≥ 1` yields `Err(Unstable)` — the typed
/// saturated-cell verdict — instead of panicking, so grids probing ρ → 1
/// survive their hopeless cells.
///
/// # Panics
///
/// Panics if `lambda_per_us` is not positive or `opts.servers` is zero.
pub fn try_simulate_cluster(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    balancer: &mut Balancer,
    opts: &ClusterOptions,
    tracer: &Tracer,
) -> Result<ClusterResult, Unstable> {
    assert!(lambda_per_us > 0.0, "arrival rate must be positive");
    assert!(opts.servers >= 1, "cluster needs at least one server");
    tracer.set_ticks_per_us(CLUSTER_TICKS_PER_US);
    let traced = tracer.is_enabled();
    let series_on = tracer.has_timeseries();
    let n = opts.servers;

    // Two independent streams: the arrival stream reproduces the exact
    // draw order of the M/G/1 DES (service then interarrival), and the
    // balancer stream is private, so every policy sees the same marked
    // point process (common random numbers across the policy axis).
    let mut rng = rng_from_seed(opts.seed);
    let mut brng = rng_from_seed(derive_stream(opts.seed, BALANCER_STREAM));
    let interarrival = Exponential::from_rate(lambda_per_us);

    let pilot = pilot_mean(&mut rng, service);
    let rho_estimate = lambda_per_us * pilot / n as f64;
    if rho_estimate >= 1.0 {
        return Err(Unstable { rho_estimate });
    }

    // Per-server FCFS state: `free_at[i]` is when server i drains its
    // backlog (so wait = max(0, free_at[i] - t)), and `in_system[i]` holds
    // the completion times of requests still present, pruned lazily, for
    // queue-length balancers.
    let mut free_at = vec![0.0f64; n];
    let mut in_system: Vec<VecDeque<f64>> = vec![VecDeque::new(); n];
    let mut queues = vec![0u32; n];
    let mut backlog = vec![0.0f64; n];
    let mut per_server = vec![0u64; n];

    let mut sojourns = QuantileEstimator::with_capacity(opts.max_samples.min(1 << 20));
    let mut sketch = LatencySketch::new();
    let mut sojourn_sum = Summary::new();
    let mut wait_sum = Summary::new();
    let mut busy_time = 0.0f64;
    let mut clock = 0.0f64;
    let mut converged = false;
    let mut t = 0.0f64;

    let total = opts.warmup + opts.max_samples;
    for k in 0..total {
        // Same draw order as the M/G/1 DES: service first, then the
        // interarrival gap — with n = 1 the RNG sequence is draw-for-draw
        // identical to `try_simulate_mg1`.
        let s = service(&mut rng);
        let measured = k >= opts.warmup;

        for i in 0..n {
            let q = &mut in_system[i];
            while q.front().is_some_and(|&done| done <= t) {
                q.pop_front();
            }
            queues[i] = q.len() as u32;
            backlog[i] = (free_at[i] - t).max(0.0);
        }

        let pick = balancer.pick(n, |i| queues[i], |i| backlog[i], &mut brng);
        debug_assert!(pick < n, "balancer picked out-of-range server {pick}");
        let wait = backlog[pick];
        let done = t + wait + s;
        free_at[pick] = done;
        in_system[pick].push_back(done);

        if measured {
            sojourns.record(wait + s);
            sketch.record(wait + s);
            sojourn_sum.record(wait + s);
            wait_sum.record(wait);
            busy_time += s;
            per_server[pick] += 1;
            if series_on {
                // Event-clock gauges, sampled at the (pre-placement)
                // arrival instant. Only runs when the tracer opted into
                // time series, so the default path never pays for it.
                tracer.sample(|ts| {
                    let mut in_flight = 0u64;
                    for (i, &q) in queues.iter().enumerate() {
                        ts.observe(&format!("cluster/server/{i}/depth"), t, f64::from(q));
                        in_flight += u64::from(q);
                    }
                    ts.observe("cluster/in_flight", t, in_flight as f64);
                    ts.observe("cluster/wait_us", t, wait);
                });
            }
            if traced {
                let at = ns_ticks(t);
                let fin = ns_ticks(done);
                tracer.emit(|| TraceEvent::RequestArrive { at });
                tracer.emit(|| TraceEvent::Dispatch {
                    at,
                    server: pick as u32,
                    queue_len: queues[pick],
                });
                tracer.emit(|| TraceEvent::RequestComplete {
                    at: fin,
                    latency: fin.saturating_sub(at),
                });
                tracer.count("cluster/requests", 1);
                tracer.count(&format!("cluster/server/{pick}/requests"), 1);
                tracer.observe("cluster/sojourn_us", wait + s);
                tracer.observe("cluster/wait_us", wait);
            }
        }

        let a = interarrival.sample(&mut rng);
        t += a;
        if measured {
            clock += a;
        }

        if measured && sojourns.count().is_multiple_of(opts.check_every) {
            if let Some(ci) = sojourns.quantile_ci(opts.quantile, opts.confidence) {
                if ci.converged(opts.max_relative_error) {
                    converged = true;
                    break;
                }
            }
        }
    }

    let samples = sojourns.count();
    Ok(ClusterResult::assemble(
        sojourns,
        sketch,
        wait_sum,
        sojourn_sum,
        busy_time,
        clock,
        per_server,
        samples,
        converged,
        opts.quantile,
        opts.confidence,
    ))
}

/// How duplicate copies of a request are launched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DupMode {
    /// No duplication: the undecorated base policy.
    None,
    /// Eagerly dispatch `copies` total copies at the arrival instant,
    /// masked to distinct servers where the farm allows it.
    Duplicate {
        /// Total copies including the primary (≥ 1; 1 means no extras).
        copies: usize,
    },
    /// Dispatch one copy at arrival and launch a single duplicate only if
    /// the request is still incomplete `deadline_us` later. A deadline of
    /// `0` degenerates to eager `Duplicate { copies: 2 }` (the duplicate
    /// launches in the same arrival instant, on the identical code path),
    /// and an infinite deadline never fires, making the plan a bitwise
    /// no-op over the base policy. A NaN deadline fails
    /// [`DuplicationPolicy::check`].
    Hedge {
        /// Latency budget before the duplicate launches, µs.
        deadline_us: f64,
    },
}

/// A cluster-level tail-cutting plan: when duplicates launch
/// ([`DupMode`]), whether the losing siblings are purged on first
/// completion (tied requests), and whether duplicates queue at low
/// priority behind primaries (D-Stage style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicationPolicy {
    /// When duplicate copies are launched.
    pub mode: DupMode,
    /// Purge sibling copies at the first completion: queued copies are
    /// removed from their queue, an in-service copy is abandoned
    /// mid-service (its remaining demand is never delivered).
    pub purge: bool,
    /// Queue duplicate copies behind *all* queued primaries
    /// (non-preemptive two-class priority; primaries never wait behind a
    /// queued duplicate).
    pub low_priority: bool,
}

impl DuplicationPolicy {
    /// The undecorated base policy: no duplicates, ever.
    #[must_use]
    pub fn none() -> Self {
        Self {
            mode: DupMode::None,
            purge: true,
            low_priority: false,
        }
    }

    /// Eager duplicate-to-`copies`-servers with purge-on-first-completion.
    #[must_use]
    pub fn duplicate(copies: usize) -> Self {
        Self {
            mode: DupMode::Duplicate { copies },
            purge: true,
            low_priority: false,
        }
    }

    /// Deadline-triggered hedge with purge-on-first-completion.
    #[must_use]
    pub fn hedge(deadline_us: f64) -> Self {
        Self {
            mode: DupMode::Hedge { deadline_us },
            purge: true,
            low_priority: false,
        }
    }

    /// Disables purging: losing copies run to completion (eager
    /// duplication at its most expensive).
    #[must_use]
    pub fn without_purge(mut self) -> Self {
        self.purge = false;
        self
    }

    /// Queues duplicates at low priority behind primaries.
    #[must_use]
    pub fn at_low_priority(mut self) -> Self {
        self.low_priority = true;
        self
    }

    /// Panics, naming `caller`, if the plan cannot run: a `Duplicate` plan
    /// needs at least the primary copy, and a hedge deadline must not be
    /// NaN (which would neither launch eagerly nor ever fire). Infinite
    /// and non-positive deadlines are valid, as [`DupMode::Hedge`]
    /// documents. The front end and the sweep drivers call this before any
    /// simulation.
    pub fn check(&self, caller: &str) {
        match self.mode {
            DupMode::Duplicate { copies } => assert!(
                copies > 0,
                "{caller}: Duplicate needs at least the primary copy"
            ),
            DupMode::Hedge { deadline_us } => assert!(
                !deadline_us.is_nan(),
                "{caller}: hedge deadline must not be NaN"
            ),
            DupMode::None => {}
        }
    }

    /// Stable label for reports and JSON: `none`, `dup2`, `hedge20`, with
    /// `_np` (no purge) and `_lp` (low-priority duplicates) suffixes.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = match self.mode {
            DupMode::None => return "none".to_string(),
            DupMode::Duplicate { copies } => format!("dup{copies}"),
            DupMode::Hedge { deadline_us } => format!("hedge{deadline_us}"),
        };
        if !self.purge {
            s.push_str("_np");
        }
        if self.low_priority {
            s.push_str("_lp");
        }
        s
    }
}

impl std::fmt::Display for DuplicationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Duplication bookkeeping over the measured window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DupTally {
    /// Measured requests admitted (each completes exactly once).
    pub requests: u64,
    /// Copies dispatched for measured requests, primaries included.
    pub copies_issued: u64,
    /// Duplicate copies only (eager extras + fired hedges).
    pub dup_copies: u64,
    /// Copies that ran to completion (first + redundant).
    pub completions: u64,
    /// Redundant completions: a sibling had already finished (only
    /// possible with purging disabled).
    pub wasted_completions: u64,
    /// Hedge deadlines that fired a duplicate.
    pub hedges_fired: u64,
    /// Hedge deadlines that found the request already complete.
    pub hedges_cancelled: u64,
    /// Sibling copies purged while still queued (zero service delivered).
    pub purged_queued: u64,
    /// Sibling copies abandoned mid-service.
    pub purged_in_service: u64,
    /// Service time actually delivered to duplicate copies, µs (partial
    /// service up to the purge instant for abandoned copies).
    pub dup_delivered_us: f64,
}

/// Results of one request-engine run, or of several pooled by
/// [`merge_replications`]: the cluster metrics plus what duplication and
/// rack plans add. A plan that leaves a feature off reports its neutral
/// value: zero tallies, an empty duplicate-wait summary, no added
/// utilization and, with one tenant, a hot sketch equal to the aggregate
/// sketch beside an empty cold sketch.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// The base cluster metrics. `wait` / `mean_wait_us` cover primary
    /// copies only (the class the two-class priority closed form
    /// predicts), from arrival to service start wherever the request runs
    /// after steals; `utilization` counts *delivered* service time, so
    /// purged work is excluded.
    pub cluster: ClusterResult,
    /// Duplication/purge counters over the measured window.
    pub dup: DupTally,
    /// Queueing delay of duplicate copies that reached service, measured
    /// from their own dispatch instant, µs.
    pub dup_wait: Summary,
    /// Per-server busy fraction attributable to duplicate copies — the
    /// "added load" axis of the tail-latency-per-unit-added-load
    /// frontier.
    pub added_utilization: f64,
    /// Steal/tenant counters.
    pub rack: RackTally,
    /// Sojourn sketch of hot-tenant requests (every request, with one
    /// tenant).
    pub hot_sketch: LatencySketch,
    /// Sojourn sketch of cold-tenant requests (empty with one tenant).
    pub cold_sketch: LatencySketch,
}

/// Pools independent replications of one request cell into a single
/// result, *in replication order*, so the merge is a pure function of the
/// ordered replication list (bit-identical at any worker count).
///
/// Sojourn quantiles/means come from the pooled raw samples; waits and
/// sojourn summaries use the exact Welford merge; utilization re-weights
/// each replication's busy time by its own measured window, and added
/// utilization re-derives from the pooled duplicate-delivered service
/// time, mirroring the single-run definitions. Tallies sum fieldwise and
/// sketches merge in replication order. `converged` means every
/// replication converged.
///
/// # Panics
///
/// Panics if `parts` is empty or the replications disagree on the server
/// count.
#[must_use]
pub fn merge_replications(
    parts: Vec<RequestResult>,
    quantile: f64,
    confidence: f64,
) -> RequestResult {
    assert!(!parts.is_empty(), "cannot merge zero replications");
    let servers = parts[0].cluster.per_server_requests.len();
    let total: usize = parts
        .iter()
        .map(|p| p.cluster.sojourn_samples.count())
        .sum();
    let mut sojourns = QuantileEstimator::with_capacity(total);
    let mut sketch = LatencySketch::new();
    let mut wait = Summary::new();
    let mut sojourn = Summary::new();
    let mut per_server = vec![0u64; servers];
    let mut busy = 0.0f64;
    let mut measured_us = 0.0f64;
    let mut samples = 0usize;
    let mut converged = true;
    let mut dup = DupTally::default();
    let mut dup_wait = Summary::new();
    let mut rack = RackTally::default();
    let mut hot_sketch = LatencySketch::new();
    let mut cold_sketch = LatencySketch::new();
    for part in parts {
        let c = part.cluster;
        assert_eq!(
            c.per_server_requests.len(),
            servers,
            "replications must share the server count"
        );
        busy += c.utilization * servers as f64 * c.measured_us;
        measured_us += c.measured_us;
        wait.merge(&c.wait);
        sojourn.merge(&c.sojourn);
        for (acc, x) in per_server.iter_mut().zip(&c.per_server_requests) {
            *acc += x;
        }
        samples += c.samples;
        converged &= c.converged;
        sketch.merge(&c.sketch);
        sojourns.extend(c.sojourn_samples.into_sorted());
        dup.requests += part.dup.requests;
        dup.copies_issued += part.dup.copies_issued;
        dup.dup_copies += part.dup.dup_copies;
        dup.completions += part.dup.completions;
        dup.wasted_completions += part.dup.wasted_completions;
        dup.hedges_fired += part.dup.hedges_fired;
        dup.hedges_cancelled += part.dup.hedges_cancelled;
        dup.purged_queued += part.dup.purged_queued;
        dup.purged_in_service += part.dup.purged_in_service;
        dup.dup_delivered_us += part.dup.dup_delivered_us;
        dup_wait.merge(&part.dup_wait);
        rack.requests += part.rack.requests;
        rack.hot_requests += part.rack.hot_requests;
        rack.steal_probes += part.rack.steal_probes;
        rack.steals += part.rack.steals;
        rack.steals_empty += part.rack.steals_empty;
        rack.stolen_work_us += part.rack.stolen_work_us;
        hot_sketch.merge(&part.hot_sketch);
        cold_sketch.merge(&part.cold_sketch);
    }
    RequestResult {
        added_utilization: busy_fraction(dup.dup_delivered_us, servers, measured_us),
        cluster: ClusterResult::assemble(
            sojourns,
            sketch,
            wait,
            sojourn,
            busy,
            measured_us,
            per_server,
            samples,
            converged,
            quantile,
            confidence,
        ),
        dup,
        dup_wait,
        rack,
        hot_sketch,
        cold_sketch,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyState {
    Queued,
    InService,
    Done,
    Purged,
}

/// End of a request's copy chain.
const NO_COPY: usize = usize::MAX;

/// One dispatched copy of a request. A request's copies form an intrusive
/// chain through `next`, in issue order, so dispatch masking and purges
/// walk them without a per-request allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CopyCell {
    req: usize,
    pub(crate) demand: f64,
    pub(crate) server: usize,
    issued_at: f64,
    is_dup: bool,
    state: CopyState,
    next: usize,
}

#[derive(Debug)]
struct ReqCell {
    arrival: f64,
    measured: bool,
    completed: bool,
    /// From a hot tenant (every request of a single-tenant plan is).
    hot: bool,
    /// Head and tail of the copy chain (`NO_COPY` before the first copy).
    first: usize,
    last: usize,
}

/// Whether the copy chain starting at `c` holds a copy on `server`.
fn chain_holds(copies: &[CopyCell], mut c: usize, server: usize) -> bool {
    while c != NO_COPY {
        if copies[c].server == server {
            return true;
        }
        c = copies[c].next;
    }
    false
}

/// Per-server queue state in struct-of-arrays layout. The dispatch hot
/// path reads `in_system` / `serve_end` / `queued_work` across *every*
/// candidate server at each pick, so parallel arrays keep those scans on
/// dense cache lines instead of striding over whole per-server structs —
/// the same reason the cycle sims pre-size their ROB/LSQ arrays.
#[derive(Debug, Default)]
pub(crate) struct ServerSoa {
    pub(crate) prim_q: Vec<VecDeque<usize>>,
    dup_q: Vec<VecDeque<usize>>,
    pub(crate) serving: Vec<Option<usize>>,
    serve_start: Vec<f64>,
    pub(crate) serve_end: Vec<f64>,
    /// Bumped at every service start *and* every in-service abort, so a
    /// Depart event scheduled for an aborted service is recognized as
    /// stale and ignored (lazy cancellation).
    epoch: Vec<u64>,
    /// Live copies per server: queued + in service.
    pub(crate) in_system: Vec<u32>,
    /// Unstarted demand queued per server, µs.
    pub(crate) queued_work: Vec<f64>,
}

impl ServerSoa {
    fn new(n: usize) -> Self {
        Self {
            prim_q: vec![VecDeque::new(); n],
            dup_q: vec![VecDeque::new(); n],
            serving: vec![None; n],
            serve_start: vec![0.0; n],
            serve_end: vec![0.0; n],
            epoch: vec![0; n],
            in_system: vec![0; n],
            queued_work: vec![0.0; n],
        }
    }

    /// Server `i`'s live dispatch signal at `t`: copies in system and
    /// unfinished work (queued demand plus the in-service residual).
    #[inline]
    pub(crate) fn view(&self, i: usize, t: f64) -> (u32, f64) {
        let residual = if self.serving[i].is_some() {
            (self.serve_end[i] - t).max(0.0)
        } else {
            0.0
        };
        (self.in_system[i], self.queued_work[i] + residual)
    }
}

#[derive(Debug, Clone, Copy)]
enum EvKind {
    Arrive,
    HedgeFire { req: usize },
    Depart { server: usize, epoch: u64 },
}

impl EvKind {
    /// The engine's tie-break rank at equal event times — the `kind`
    /// component of the [`EventKey`](crate::eventcore::EventKey) total
    /// order: arrivals first, then hedge deadlines, then departures.
    /// A hedge deadline landing exactly on its request's completion
    /// instant therefore *fires* (the completion is processed after it) —
    /// a deliberate, documented choice that both event-queue
    /// implementations honor by construction, so the tie cannot become an
    /// implementation-dependent coin flip.
    fn rank(self) -> u8 {
        match self {
            EvKind::Arrive => 0,
            EvKind::HedgeFire { .. } => 1,
            EvKind::Depart { .. } => 2,
        }
    }
}

/// The public front end driving the engine. It selects the trace
/// vocabulary only (`cluster/*` or `rack/*`); behaviour follows the plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Front {
    Cluster,
    Rack,
}

impl Front {
    fn prefix(self) -> &'static str {
        self.pick("cluster", "rack")
    }

    fn pick(self, cluster: &'static str, rack: &'static str) -> &'static str {
        match self {
            Front::Cluster => cluster,
            Front::Rack => rack,
        }
    }
}

/// Event-driven cluster simulation with request duplication and hedging.
///
/// Unlike [`try_simulate_cluster`] — which walks arrivals in order with a
/// Lindley-style recursion and stays untouched as the zero-duplication
/// reference — this engine runs a proper event heap (arrivals, hedge
/// deadlines, departures) because a purge or hedge can change server state
/// *between* arrivals. Three independent RNG streams keep plans
/// comparable: the arrival stream draws exactly the legacy
/// service-then-interarrival sequence, the balancer stream is private to
/// placement, and duplicate-copy demands come from their own
/// [`derive_stream`]-derived stream, so every `(policy, plan)` pair sees
/// the identical marked point process and a plan issuing zero duplicates
/// is a bitwise no-op over the base policy.
///
/// Purge semantics (`plan.purge`): at a request's first completion every
/// sibling copy is purged — a queued copy is removed from its queue
/// (lazily: it is marked and skipped when it reaches the head), an
/// in-service copy is abandoned at that instant (its server moves on to
/// the next copy; only the service delivered *before* the purge counts
/// toward utilization). Scheduled departures of aborted services are
/// cancelled by a per-server epoch check.
///
/// Trace vocabulary: `Dispatch` for every copy placement,
/// [`TraceEvent::HedgeFire`] when a deadline launches a duplicate,
/// [`TraceEvent::Purge`] per purged sibling, plus the arrival/completion
/// events of the base simulator; counters land under `cluster/dup/*` and
/// `cluster/purge/*`.
///
/// # Errors
///
/// `Err(Unstable)` when the pilot load estimate saturates: `λ·E[S]·c/n ≥
/// 1`, where `c` is the eager copy count for no-purge eager plans (every
/// copy must complete) and `1` otherwise (purged duplicates add a bounded
/// extra load that vanishes as siblings win races; hedged/purged plans
/// whose *primary* load is stable always drain).
///
/// # Panics
///
/// Panics on non-positive `lambda_per_us`, zero servers, or a plan that
/// fails [`DuplicationPolicy::check`].
pub fn try_simulate_cluster_hedged(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    balancer: &mut Balancer,
    plan: &DuplicationPolicy,
    opts: &ClusterOptions,
    tracer: &Tracer,
) -> Result<RequestResult, Unstable> {
    plan.check("try_simulate_cluster_hedged");
    simulate_requests(
        lambda_per_us,
        service,
        std::slice::from_mut(balancer),
        plan,
        RackState::new(&RackPlan::fresh(), opts),
        Front::Cluster,
        opts,
        tracer,
    )
}

/// The request-domain event engine behind both public front ends: the
/// hedged cluster ([`try_simulate_cluster_hedged`]: its plan, one
/// dispatcher, a fresh rack plan) and the rack
/// ([`try_simulate_rack`](crate::rack::try_simulate_rack): no duplication,
/// one balancer per dispatcher, its rack plan). Runs the pilot stability
/// check, then the event loop on the chosen future-event set.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_requests(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    dispatchers: &mut [Balancer],
    plan: &DuplicationPolicy,
    rack: RackState,
    front: Front,
    opts: &ClusterOptions,
    tracer: &Tracer,
) -> Result<RequestResult, Unstable> {
    assert!(lambda_per_us > 0.0, "arrival rate must be positive");
    assert!(opts.servers >= 1, "a farm needs at least one server");
    tracer.set_ticks_per_us(CLUSTER_TICKS_PER_US);
    let mut rng = rng_from_seed(opts.seed);
    let interarrival = Exponential::from_rate(lambda_per_us);

    // Same 512-draw pilot as the Lindley loop (identical arrival-stream
    // offset, so results are CRN-comparable across engines and plans).
    let pilot = pilot_mean(&mut rng, service);
    let eager_copies = match plan.mode {
        DupMode::Duplicate { copies } if !plan.purge => copies as f64,
        _ => 1.0,
    };
    let rho_estimate = lambda_per_us * pilot * eager_copies / opts.servers as f64;
    if rho_estimate >= 1.0 {
        return Err(Unstable { rho_estimate });
    }

    // Expected copies per request, for buffer pre-sizing and wheel
    // geometry (a hedge adds at most one copy). Only constant factors
    // depend on this; pop order never does.
    let copies_hint = match plan.mode {
        DupMode::None => 1,
        DupMode::Duplicate { copies } => copies,
        DupMode::Hedge { .. } => 2,
    };
    Ok(match opts.event_queue {
        EventQueueKind::Heap => run(
            HeapEventQueue::new(),
            copies_hint,
            service,
            dispatchers,
            plan,
            rack,
            front,
            opts,
            tracer,
            rng,
            interarrival,
        ),
        // Every copy contributes ~2 events (dispatch-side arrival or
        // hedge fire, plus a departure); size buckets for that rate.
        EventQueueKind::Wheel => run(
            WheelEventQueue::for_rate(lambda_per_us * 2.0 * copies_hint as f64),
            copies_hint,
            service,
            dispatchers,
            plan,
            rack,
            front,
            opts,
            tracer,
            rng,
            interarrival,
        ),
    })
}

/// The event loop, generic over the future-event set. Both
/// instantiations execute the identical push sequence, so by the
/// [`eventcore`](crate::eventcore) total-order contract they pop the
/// identical event sequence and produce bit-identical results — the
/// differential suite holds them to that.
#[allow(clippy::too_many_arguments)]
fn run<Q: EventQueue<EvKind>>(
    queue: Q,
    copies_hint: usize,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    dispatchers: &mut [Balancer],
    plan: &DuplicationPolicy,
    rack: RackState,
    front: Front,
    opts: &ClusterOptions,
    tracer: &Tracer,
    mut rng: SimRng,
    interarrival: Exponential,
) -> RequestResult {
    let n = opts.servers;
    let mut brng = rng_from_seed(derive_stream(opts.seed, BALANCER_STREAM));
    let mut drng = rng_from_seed(derive_stream(opts.seed, DUPLICATE_STREAM));
    let total = opts.warmup + opts.max_samples;
    let req_cap = total.min(1 << 20);
    let mut sim = RequestSim {
        plan,
        rack,
        front,
        opts,
        tracer,
        traced: tracer.is_enabled(),
        series_on: tracer.has_timeseries(),
        servers: ServerSoa::new(n),
        copies: Vec::with_capacity(req_cap.saturating_mul(copies_hint).min(1 << 21)),
        reqs: Vec::with_capacity(req_cap),
        queue,
        sojourns: QuantileEstimator::with_capacity(opts.max_samples.min(1 << 20)),
        sketch: LatencySketch::new(),
        ev_pushed: [0; 3],
        ev_popped: [0; 3],
        sojourn_sum: Summary::new(),
        wait_sum: Summary::new(),
        dup_wait: Summary::new(),
        per_server: vec![0u64; n],
        tally: DupTally::default(),
        delivered_us: 0.0,
        clock: 0.0,
        converged: false,
        arrivals: 0,
        pick_map: Vec::with_capacity(n),
        pick_queues: Vec::with_capacity(n),
        pick_backlog: Vec::with_capacity(n),
        demand_buf: Vec::new(),
    };
    sim.schedule(0.0, EvKind::Arrive);

    while let Some((key, kind)) = sim.queue.pop() {
        sim.ev_popped[usize::from(kind.rank())] += 1;
        match kind {
            EvKind::Arrive => {
                // A pending arrival is dropped (never admitted) once the
                // stopping rule fires; in-flight work still drains so
                // every admitted request completes.
                if sim.converged || sim.arrivals >= total {
                    continue;
                }
                sim.on_arrive(
                    key.t,
                    total,
                    service,
                    dispatchers,
                    &interarrival,
                    &mut rng,
                    &mut brng,
                    &mut drng,
                );
            }
            // Hedges exist only on the single-dispatcher cluster front end.
            EvKind::HedgeFire { req } => sim.on_hedge_fire(
                req,
                key.t,
                service,
                &mut dispatchers[0],
                &mut brng,
                &mut drng,
            ),
            EvKind::Depart { server, epoch } => sim.on_depart(server, epoch, key.t),
        }
        if sim.series_on {
            sim.sample_gauges(key.t);
        }
    }
    if sim.traced {
        sim.flush_profile();
    }

    let samples = sim.sojourns.count();
    let cluster = ClusterResult::assemble(
        sim.sojourns,
        sim.sketch,
        sim.wait_sum,
        sim.sojourn_sum,
        sim.delivered_us,
        sim.clock,
        sim.per_server,
        samples,
        sim.converged,
        opts.quantile,
        opts.confidence,
    );
    let rack = sim.rack;
    RequestResult {
        added_utilization: busy_fraction(sim.tally.dup_delivered_us, n, sim.clock),
        rack: RackTally {
            requests: sim.tally.requests,
            ..rack.tally
        },
        dup: sim.tally,
        dup_wait: sim.dup_wait,
        // With one tenant every request is hot, and `RackState` skipped
        // the per-class sketches.
        hot_sketch: if rack.tenant_mix.is_some() {
            rack.hot_sketch
        } else {
            cluster.sketch.clone()
        },
        cold_sketch: rack.cold_sketch,
        cluster,
    }
}

struct RequestSim<'a, Q> {
    plan: &'a DuplicationPolicy,
    /// Rack plan state: stale views, stealing, tenants. Inert under
    /// [`RackPlan::fresh`].
    rack: RackState,
    front: Front,
    opts: &'a ClusterOptions,
    tracer: &'a Tracer,
    traced: bool,
    /// Cached `tracer.has_timeseries()`, so the per-event gauge pass is a
    /// single branch when sampling is off.
    series_on: bool,
    servers: ServerSoa,
    copies: Vec<CopyCell>,
    reqs: Vec<ReqCell>,
    queue: Q,
    sojourns: QuantileEstimator,
    /// Streaming sojourn histogram, fed alongside `sojourns`.
    sketch: LatencySketch,
    /// Events pushed / popped per [`EvKind`] rank (Arrive, HedgeFire,
    /// Depart) — pure counts over the deterministic event sequence.
    ev_pushed: [u64; 3],
    ev_popped: [u64; 3],
    sojourn_sum: Summary,
    wait_sum: Summary,
    dup_wait: Summary,
    per_server: Vec<u64>,
    tally: DupTally,
    delivered_us: f64,
    clock: f64,
    converged: bool,
    arrivals: usize,
    /// Dispatch scratch (candidate server ids, and a stale plan's
    /// queue/backlog views), reused across every pick so the hot path
    /// never allocates.
    pick_map: Vec<usize>,
    pick_queues: Vec<u32>,
    pick_backlog: Vec<f64>,
    /// Batched duplicate-demand draws for eager arrival bursts.
    demand_buf: Vec<f64>,
}

impl<Q: EventQueue<EvKind>> RequestSim<'_, Q> {
    fn schedule(&mut self, t: f64, kind: EvKind) {
        self.ev_pushed[usize::from(kind.rank())] += 1;
        self.queue.push(t, kind.rank(), kind);
    }

    /// How many duplicates launch *at the arrival instant*. A zero (or
    /// negative) hedge deadline is eager duplication: same instant, same
    /// code path, so `Hedge{0}` is event-for-event `Duplicate{2}`.
    fn eager_extras(&self) -> usize {
        match self.plan.mode {
            DupMode::None => 0,
            DupMode::Duplicate { copies } => copies - 1,
            DupMode::Hedge { deadline_us } => usize::from(deadline_us <= 0.0),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_arrive(
        &mut self,
        t: f64,
        total: usize,
        service: &mut dyn FnMut(&mut SimRng) -> f64,
        dispatchers: &mut [Balancer],
        interarrival: &Exponential,
        rng: &mut SimRng,
        brng: &mut SimRng,
        drng: &mut SimRng,
    ) {
        let k = self.arrivals;
        self.arrivals += 1;
        // Legacy draw order on the arrival stream: service first, then
        // the interarrival gap.
        let s = service(rng);
        let measured = k >= self.opts.warmup;
        let (disp, hot) = self.rack.tenant(dispatchers.len(), measured);
        let req = self.reqs.len();
        self.reqs.push(ReqCell {
            arrival: t,
            measured,
            completed: false,
            hot,
            first: NO_COPY,
            last: NO_COPY,
        });
        if measured {
            self.tally.requests += 1;
            if self.traced {
                self.tracer
                    .emit(|| TraceEvent::RequestArrive { at: ns_ticks(t) });
                self.tracer
                    .count(self.front.pick("cluster/requests", "rack/requests"), 1);
            }
        }
        let balancer = &mut dispatchers[disp];
        self.dispatch_copy(req, s, t, false, disp, balancer, brng);
        let extras = self.eager_extras();
        if extras > 0 {
            // Duplicate demands batch into the reused buffer. The dup
            // stream is independent of the balancer stream, so drawing
            // every demand before the first dispatch consumes each
            // stream's exact per-stream sequence from the old
            // draw-then-dispatch interleave — bitwise the same results.
            let mut demands = std::mem::take(&mut self.demand_buf);
            draw_batch(drng, extras, &mut demands, &mut *service);
            for &d in &demands {
                self.dispatch_copy(req, d, t, true, disp, balancer, brng);
            }
            self.demand_buf = demands;
        }
        if let DupMode::Hedge { deadline_us } = self.plan.mode {
            if deadline_us > 0.0 && deadline_us.is_finite() {
                self.schedule(t + deadline_us, EvKind::HedgeFire { req });
            }
        }
        let a = interarrival.sample(rng);
        if measured {
            self.clock += a;
        }
        if self.arrivals < total && !self.converged {
            self.schedule(t + a, EvKind::Arrive);
        }
    }

    fn on_hedge_fire(
        &mut self,
        req: usize,
        t: f64,
        service: &mut dyn FnMut(&mut SimRng) -> f64,
        balancer: &mut Balancer,
        brng: &mut SimRng,
        drng: &mut SimRng,
    ) {
        let measured = self.reqs[req].measured;
        if self.reqs[req].completed {
            if measured {
                self.tally.hedges_cancelled += 1;
                if self.traced {
                    self.tracer.count("cluster/dup/hedge_cancelled", 1);
                }
            }
            return;
        }
        let d = service(drng);
        let server = self.dispatch_copy(req, d, t, true, 0, balancer, brng);
        if measured {
            self.tally.hedges_fired += 1;
            if self.traced {
                self.tracer.emit(|| TraceEvent::HedgeFire {
                    at: ns_ticks(t),
                    server: server as u32,
                });
                self.tracer.count("cluster/dup/hedge_fired", 1);
            }
        }
    }

    /// Places one copy through dispatcher `disp`: masked pick (servers
    /// already holding a copy of this request are hidden from the
    /// balancer, unless that would leave it nothing to choose from) over
    /// the dispatcher's view — live, or Δ-stale plus its own recent
    /// placements — then enqueue at the plan's priority, and a service
    /// start if the server is idle. Returns the chosen server.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_copy(
        &mut self,
        req: usize,
        demand: f64,
        t: f64,
        is_dup: bool,
        disp: usize,
        balancer: &mut Balancer,
        brng: &mut SimRng,
    ) -> usize {
        let n = self.servers.serving.len();
        // Candidates live in a reused scratch buffer (no per-dispatch
        // allocation). `pick_map` lists the servers without a copy of
        // this request; it stays empty — every server a candidate — for a
        // first copy or when all hold one.
        let (first, copies) = (self.reqs[req].first, &self.copies);
        self.pick_map.clear();
        if first != NO_COPY {
            self.pick_map
                .extend((0..n).filter(|&i| !chain_holds(copies, first, i)));
        }
        let masked = !self.pick_map.is_empty();
        let candidates = if masked { self.pick_map.len() } else { n };
        let local = if self.rack.is_stale() {
            // A stale view is built for every candidate, then compensated
            // with the dispatcher's own recent placements. Rack plans issue
            // one copy per request, so candidate i is server i.
            self.pick_queues.clear();
            self.pick_backlog.clear();
            for k in 0..candidates {
                let i = if masked { self.pick_map[k] } else { k };
                let (queued, backlog) = self.rack.dispatch_view(&self.servers, i, t);
                self.pick_queues.push(queued);
                self.pick_backlog.push(backlog);
            }
            self.rack
                .compensate(disp, t, &mut self.pick_queues, &mut self.pick_backlog);
            let (queues, backlogs) = (&self.pick_queues, &self.pick_backlog);
            balancer.pick(candidates, |k| queues[k], |k| backlogs[k], brng)
        } else if masked {
            // A fresh view is the live server state, read only where the
            // policy looks: through the candidate map for a masked copy,
            // in place otherwise.
            let (servers, map) = (&self.servers, &self.pick_map);
            balancer.pick(
                candidates,
                |k| servers.in_system[map[k]],
                |k| servers.view(map[k], t).1,
                brng,
            )
        } else {
            let (servers, live) = (&self.servers, &self.servers.in_system[..n]);
            balancer.pick(n, |i| live[i], |i| servers.view(i, t).1, brng)
        };
        debug_assert!(local < candidates, "balancer picked out-of-range {local}");
        let server = if masked { self.pick_map[local] } else { local };

        let copy = self.copies.len();
        self.copies.push(CopyCell {
            req,
            demand,
            server,
            issued_at: t,
            is_dup,
            state: CopyState::Queued,
            next: NO_COPY,
        });
        let r = &mut self.reqs[req];
        if r.first == NO_COPY {
            r.first = copy;
        } else {
            self.copies[r.last].next = copy;
        }
        r.last = copy;
        if r.measured {
            self.per_server[server] += 1;
            self.tally.copies_issued += 1;
            if is_dup {
                self.tally.dup_copies += 1;
                if self.traced {
                    self.tracer.count("cluster/dup/issued", 1);
                }
            }
            if self.traced {
                let queue_len = self.servers.in_system[server];
                self.tracer.emit(|| TraceEvent::Dispatch {
                    at: ns_ticks(t),
                    server: server as u32,
                    queue_len,
                });
                let prefix = self.front.prefix();
                self.tracer
                    .count(&format!("{prefix}/server/{server}/requests"), 1);
            }
        }
        self.servers.in_system[server] += 1;
        self.servers.queued_work[server] += demand;
        if is_dup && self.plan.low_priority {
            self.servers.dup_q[server].push_back(copy);
        } else {
            self.servers.prim_q[server].push_back(copy);
        }
        self.rack
            .note_placement(&self.servers, disp, server, demand, t);
        self.maybe_start(server, t);
        server
    }

    /// Starts the next live copy on an idle server: queued primaries
    /// first, then queued duplicates (non-preemptive priority); purged
    /// copies are skipped as they reach the head.
    fn maybe_start(&mut self, server: usize, t: f64) {
        if self.servers.serving[server].is_some() {
            return;
        }
        let next = loop {
            let prim = self.servers.prim_q[server].pop_front();
            let Some(c) = prim.or_else(|| self.servers.dup_q[server].pop_front()) else {
                break None;
            };
            if self.copies[c].state == CopyState::Queued {
                break Some(c);
            }
        };
        let Some(c) = next else { return };
        self.copies[c].state = CopyState::InService;
        let demand = self.copies[c].demand;
        self.servers.serving[server] = Some(c);
        self.servers.serve_start[server] = t;
        self.servers.serve_end[server] = t + demand;
        self.servers.queued_work[server] -= demand;
        self.servers.epoch[server] += 1;
        let epoch = self.servers.epoch[server];
        let end = self.servers.serve_end[server];
        if self.reqs[self.copies[c].req].measured {
            let w = t - self.copies[c].issued_at;
            if self.copies[c].is_dup {
                self.dup_wait.record(w);
                if self.traced {
                    self.tracer.observe("cluster/dup/wait_us", w);
                }
            } else {
                self.wait_sum.record(w);
                if self.traced {
                    self.tracer
                        .observe(self.front.pick("cluster/wait_us", "rack/wait_us"), w);
                }
            }
        }
        self.schedule(end, EvKind::Depart { server, epoch });
        self.rack.record_snap(&self.servers, server, t);
    }

    fn on_depart(&mut self, server: usize, epoch: u64, t: f64) {
        if self.servers.epoch[server] != epoch {
            return; // stale: this service was aborted by a purge
        }
        let c = self.servers.serving[server]
            .take()
            .expect("live Depart on an idle server");
        self.copies[c].state = CopyState::Done;
        self.servers.in_system[server] -= 1;
        let req = self.copies[c].req;
        let measured = self.reqs[req].measured;
        if measured {
            self.delivered_us += self.copies[c].demand;
            self.tally.completions += 1;
            if self.copies[c].is_dup {
                self.tally.dup_delivered_us += self.copies[c].demand;
            }
        }
        if self.reqs[req].completed {
            if measured {
                self.tally.wasted_completions += 1;
                if self.traced {
                    self.tracer.count("cluster/dup/wasted", 1);
                }
            }
        } else {
            self.reqs[req].completed = true;
            let sojourn = t - self.reqs[req].arrival;
            if measured {
                self.sojourns.record(sojourn);
                self.sketch.record(sojourn);
                self.sojourn_sum.record(sojourn);
                self.rack.record_sojourn(self.reqs[req].hot, sojourn);
                if self.traced {
                    let at = ns_ticks(t);
                    let arrived = ns_ticks(self.reqs[req].arrival);
                    self.tracer.emit(|| TraceEvent::RequestComplete {
                        at,
                        latency: at.saturating_sub(arrived),
                    });
                    self.tracer.observe(
                        self.front.pick("cluster/sojourn_us", "rack/sojourn_us"),
                        sojourn,
                    );
                }
                if self.sojourns.count().is_multiple_of(self.opts.check_every) {
                    if let Some(ci) = self
                        .sojourns
                        .quantile_ci(self.opts.quantile, self.opts.confidence)
                    {
                        if ci.converged(self.opts.max_relative_error) {
                            self.converged = true;
                        }
                    }
                }
            }
            if self.plan.purge {
                let mut sib = self.reqs[req].first;
                while sib != NO_COPY {
                    if sib != c {
                        self.purge_copy(sib, t, measured);
                    }
                    sib = self.copies[sib].next;
                }
            }
        }
        self.rack.record_snap(&self.servers, server, t);
        self.maybe_start(server, t);
        // Work stealing: a server that stays idle after a departure pulls
        // from the longest visible backlog.
        if self.rack.plan.steal.probes > 0
            && self.servers.serving[server].is_none()
            && self
                .rack
                .try_steal(&mut self.servers, &mut self.copies, server, t, self.tracer)
        {
            self.maybe_start(server, t);
        }
    }

    /// Purges one sibling copy at the winning completion's instant `t`.
    fn purge_copy(&mut self, c: usize, t: f64, measured: bool) {
        let server = self.copies[c].server;
        match self.copies[c].state {
            CopyState::Queued => {
                self.copies[c].state = CopyState::Purged;
                self.servers.in_system[server] -= 1;
                self.servers.queued_work[server] -= self.copies[c].demand;
                if measured {
                    self.tally.purged_queued += 1;
                    if self.traced {
                        self.tracer.emit(|| TraceEvent::Purge {
                            at: ns_ticks(t),
                            server: server as u32,
                            in_service: false,
                        });
                        self.tracer.count("cluster/purge/queued", 1);
                    }
                }
            }
            CopyState::InService => {
                self.copies[c].state = CopyState::Purged;
                debug_assert_eq!(
                    self.servers.serving[server],
                    Some(c),
                    "in-service copy not serving"
                );
                let part = (t - self.servers.serve_start[server]).max(0.0);
                self.servers.serving[server] = None;
                self.servers.epoch[server] += 1; // the scheduled Depart is now stale
                self.servers.in_system[server] -= 1;
                if measured {
                    self.delivered_us += part;
                    if self.copies[c].is_dup {
                        self.tally.dup_delivered_us += part;
                    }
                    self.tally.purged_in_service += 1;
                    if self.traced {
                        self.tracer.emit(|| TraceEvent::Purge {
                            at: ns_ticks(t),
                            server: server as u32,
                            in_service: true,
                        });
                        self.tracer.count("cluster/purge/in_service", 1);
                    }
                }
                self.maybe_start(server, t);
            }
            CopyState::Done | CopyState::Purged => {}
        }
    }

    /// Samples the event-clock gauge series at simulated time `t` (µs):
    /// busy servers, copies in flight, delivered utilization, per-server
    /// depth, and — per front end — pending hedge deadlines and cumulative
    /// purges, or cumulative steals. Runs once per popped event, and only
    /// when the tracer opted into time series, so the default path pays a
    /// single cached-bool branch.
    fn sample_gauges(&self, t: f64) {
        let n = self.servers.serving.len();
        let busy = self.servers.serving.iter().filter(|s| s.is_some()).count();
        let in_flight: u32 = self.servers.in_system.iter().sum();
        let hedges = self.ev_pushed[1] - self.ev_popped[1];
        let purges = self.tally.purged_queued + self.tally.purged_in_service;
        let steals = self.rack.tally.steals;
        let util = busy_fraction(self.delivered_us, n, self.clock);
        let (front, depths) = (self.front, &self.servers.in_system);
        self.tracer.sample(|ts| {
            let name = |cluster, rack| front.pick(cluster, rack);
            ts.observe(
                name("cluster/busy_servers", "rack/busy_servers"),
                t,
                busy as f64,
            );
            ts.observe(
                name("cluster/in_flight", "rack/in_flight"),
                t,
                f64::from(in_flight),
            );
            ts.observe(name("cluster/utilization", "rack/utilization"), t, util);
            match front {
                Front::Cluster => {
                    ts.observe("cluster/hedges_in_flight", t, hedges as f64);
                    ts.observe("cluster/purges", t, purges as f64);
                }
                Front::Rack => ts.observe("rack/steals", t, steals as f64),
            }
            for (i, &d) in depths.iter().enumerate() {
                let path = format!("{}/server/{i}/depth", front.prefix());
                ts.observe(&path, t, f64::from(d));
            }
        });
    }

    /// Flushes the DES self-profile into the registry at end of run:
    /// per-[`EvKind`] push/pop counters plus the event queue's own
    /// bookkeeping ([`EventQueue::profile`]). Pure counts over the
    /// deterministic event sequence — identical at any worker count and
    /// for both queue implementations (wheel-specific fields aside).
    fn flush_profile(&self) {
        let prefix = self.front.prefix();
        for (i, name) in ["arrive", "hedge_fire", "depart"].iter().enumerate() {
            // The rack front end issues no hedges and keeps no hedge counters.
            if i == 1 && self.front == Front::Rack {
                continue;
            }
            self.tracer
                .count(&format!("{prefix}/events/{name}/pushed"), self.ev_pushed[i]);
            self.tracer
                .count(&format!("{prefix}/events/{name}/popped"), self.ev_popped[i]);
        }
        let p = self.queue.profile();
        for (name, v) in [
            ("pushes", p.pushes),
            ("pops", p.pops),
            ("max_len", p.max_len),
            ("overflow_pushes", p.overflow_pushes),
            ("overflow_migrations", p.overflow_migrations),
            ("frontier_advances", p.frontier_advances),
            ("frontier_jumps", p.frontier_jumps),
            ("slots_skipped", p.slots_skipped),
            ("max_bucket_len", p.max_bucket_len),
        ] {
            self.tracer.count(&format!("{prefix}/eventq/{name}"), v);
        }
        // Non-finite sojourns rejected by the sketch (should be zero; a
        // nonzero value explains any sketch-vs-exact count drift).
        self.tracer.count(
            &format!("{prefix}/sketch/dropped_nonfinite"),
            self.sketch.dropped_nonfinite(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::try_simulate_mg1;

    fn fast_opts(servers: usize, seed: u64) -> ClusterOptions {
        ClusterOptions {
            servers,
            max_samples: 200_000,
            warmup: 2_000,
            seed,
            ..ClusterOptions::default()
        }
    }

    fn exp_service(mean: f64) -> impl FnMut(&mut SimRng) -> f64 {
        move |rng: &mut SimRng| Exponential::new(mean).sample(rng)
    }

    /// The Lindley loop, untraced, on a stable cell.
    fn lindley(
        lambda: f64,
        service: &mut dyn FnMut(&mut SimRng) -> f64,
        policy: BalancerPolicy,
        opts: &ClusterOptions,
    ) -> ClusterResult {
        try_simulate_cluster(
            lambda,
            service,
            &mut policy.build(),
            opts,
            &Tracer::disabled(),
        )
        .expect("stable cluster cell")
    }

    #[test]
    fn single_server_cluster_matches_mg1() {
        // With n = 1 every policy picks server 0 and the RNG draw sequence
        // is identical to the M/G/1 DES; waits differ only by FP rounding
        // (absolute completion times here vs the Lindley recursion there).
        let copts = fast_opts(1, 7);
        let mut svc = exp_service(2.0);
        let cluster = lindley(0.3, &mut svc, BalancerPolicy::Jsq, &copts);
        let qopts = Mg1Options {
            max_samples: copts.max_samples,
            warmup: copts.warmup,
            seed: copts.seed,
            ..Mg1Options::default()
        };
        let mut svc2 = exp_service(2.0);
        let single = try_simulate_mg1(0.3, &mut svc2, &qopts).expect("stable");
        assert_eq!(cluster.samples, single.samples);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(
            close(cluster.tail_us, single.tail_us),
            "{} vs {}",
            cluster.tail_us,
            single.tail_us
        );
        assert!(close(cluster.mean_sojourn_us, single.mean_sojourn_us));
        assert!(close(cluster.sojourn.mean(), single.sojourn.mean()));
    }

    #[test]
    fn same_seed_is_bit_identical() {
        for policy in [
            BalancerPolicy::Random,
            BalancerPolicy::RoundRobin,
            BalancerPolicy::Jsq,
            BalancerPolicy::PowerOfD(2),
            BalancerPolicy::LeastWork,
        ] {
            let run = |_| {
                let mut svc = exp_service(1.0);
                lindley(2.0, &mut svc, policy, &fast_opts(4, 11))
            };
            let (a, b) = (run(0), run(1));
            assert_eq!(a.tail_us, b.tail_us, "{policy}");
            assert_eq!(a.sojourn, b.sojourn, "{policy}");
            assert_eq!(a.per_server_requests, b.per_server_requests, "{policy}");
        }
    }

    #[test]
    fn jsq_beats_random_p99_at_equal_load() {
        // rho = 0.7 on 4 servers; CRN means both policies see the same
        // arrivals and service demands, so the comparison is paired.
        let lambda = 2.8;
        let mut svc = exp_service(1.0);
        let random = lindley(lambda, &mut svc, BalancerPolicy::Random, &fast_opts(4, 21));
        let mut svc = exp_service(1.0);
        let jsq = lindley(lambda, &mut svc, BalancerPolicy::Jsq, &fast_opts(4, 21));
        assert!(
            jsq.tail_us <= random.tail_us,
            "jsq p99 {} must not exceed random p99 {}",
            jsq.tail_us,
            random.tail_us
        );
    }

    #[test]
    fn power_of_two_sits_between_random_and_jsq_on_mean() {
        let lambda = 3.2; // rho = 0.8 on 4 servers
        let run = |policy: BalancerPolicy| {
            let mut svc = exp_service(1.0);
            lindley(lambda, &mut svc, policy, &fast_opts(4, 33))
        };
        let random = run(BalancerPolicy::Random);
        let pod2 = run(BalancerPolicy::PowerOfD(2));
        let jsq = run(BalancerPolicy::Jsq);
        assert!(
            pod2.mean_sojourn_us <= random.mean_sojourn_us,
            "pod2 {} vs random {}",
            pod2.mean_sojourn_us,
            random.mean_sojourn_us
        );
        assert!(
            jsq.mean_sojourn_us <= pod2.mean_sojourn_us * 1.05,
            "jsq {} vs pod2 {}",
            jsq.mean_sojourn_us,
            pod2.mean_sojourn_us
        );
    }

    #[test]
    fn round_robin_spreads_requests_evenly() {
        let mut svc = exp_service(1.0);
        let r = lindley(2.0, &mut svc, BalancerPolicy::RoundRobin, &fast_opts(4, 44));
        let min = *r.per_server_requests.iter().min().unwrap();
        let max = *r.per_server_requests.iter().max().unwrap();
        assert!(max - min <= 1, "round robin spread {min}..{max}");
    }

    #[test]
    fn utilization_tracks_offered_load_per_server() {
        let mut svc = exp_service(1.0);
        let r = lindley(2.8, &mut svc, BalancerPolicy::Jsq, &fast_opts(4, 55));
        assert!(
            (r.utilization - 0.7).abs() < 0.03,
            "utilization {} vs rho 0.7",
            r.utilization
        );
    }

    #[test]
    fn saturated_cluster_is_a_typed_error_not_a_panic() {
        let mut svc = exp_service(1.0);
        let err = try_simulate_cluster(
            4.8, // rho = 1.2 on 4 servers
            &mut svc,
            &mut BalancerPolicy::Jsq.build(),
            &fast_opts(4, 66),
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert!(err.rho_estimate >= 1.0, "rho {}", err.rho_estimate);
    }

    fn hedged(
        lambda: f64,
        plan: DuplicationPolicy,
        policy: BalancerPolicy,
        opts: &ClusterOptions,
    ) -> RequestResult {
        let mut svc = exp_service(1.0);
        try_simulate_cluster_hedged(
            lambda,
            &mut svc,
            &mut policy.build(),
            &plan,
            opts,
            &Tracer::disabled(),
        )
        .expect("stable hedged cell")
    }

    #[test]
    fn hedged_engine_conserves_requests_and_copies() {
        let opts = ClusterOptions {
            max_samples: 20_000,
            warmup: 1_000,
            max_relative_error: 0.001, // run the full window
            ..fast_opts(4, 91)
        };
        for plan in [
            DuplicationPolicy::none(),
            DuplicationPolicy::duplicate(2),
            DuplicationPolicy::duplicate(2).without_purge(),
            DuplicationPolicy::duplicate(2).at_low_priority(),
            DuplicationPolicy::hedge(2.0),
            DuplicationPolicy::hedge(2.0).at_low_priority(),
        ] {
            // rho_eff stays below 1 even for the eager no-purge plan
            // (1.6 * 2 / 4 = 0.8).
            let r = hedged(1.6, plan, BalancerPolicy::Jsq, &opts);
            let t = &r.dup;
            // Every admitted request completes exactly once.
            assert_eq!(r.cluster.samples as u64, t.requests, "{plan}");
            // Every issued copy either completes or is purged.
            assert_eq!(
                t.completions + t.purged_queued + t.purged_in_service,
                t.copies_issued,
                "{plan}"
            );
            assert!(t.completions <= t.copies_issued, "{plan}");
            if plan.purge {
                // A purged race has no redundant completions to waste.
                assert_eq!(t.wasted_completions, 0, "{plan}");
            }
            assert!(r.cluster.utilization <= 1.0, "{plan}");
            assert!(r.added_utilization <= r.cluster.utilization, "{plan}");
        }
    }

    #[test]
    fn eager_duplication_with_purge_cuts_p99_at_moderate_load() {
        let opts = ClusterOptions {
            max_samples: 60_000,
            warmup: 2_000,
            ..fast_opts(4, 101)
        };
        let none = hedged(2.0, DuplicationPolicy::none(), BalancerPolicy::Jsq, &opts);
        let dup2 = hedged(
            2.0,
            DuplicationPolicy::duplicate(2),
            BalancerPolicy::Jsq,
            &opts,
        );
        assert!(
            dup2.cluster.tail_us <= none.cluster.tail_us,
            "dup2 p99 {} vs none {}",
            dup2.cluster.tail_us,
            none.cluster.tail_us
        );
        assert!(dup2.dup.dup_copies > 0);
    }

    #[test]
    fn purge_delivers_strictly_less_duplicate_work_than_eager_no_purge() {
        let opts = ClusterOptions {
            max_samples: 30_000,
            warmup: 1_000,
            ..fast_opts(4, 111)
        };
        let purged = hedged(
            1.6,
            DuplicationPolicy::duplicate(2),
            BalancerPolicy::Jsq,
            &opts,
        );
        let eager = hedged(
            1.6,
            DuplicationPolicy::duplicate(2).without_purge(),
            BalancerPolicy::Jsq,
            &opts,
        );
        assert!(
            purged.added_utilization < eager.added_utilization,
            "purged {} vs eager {}",
            purged.added_utilization,
            eager.added_utilization
        );
    }

    #[test]
    fn low_priority_duplicates_never_delay_primaries_more_than_fcfs_duplicates() {
        // D-Stage's whole point: queued duplicates yield to primaries, so
        // the primary-class mean wait under low-priority duplication must
        // not exceed the same plan with FCFS (shared-queue) duplicates.
        let opts = ClusterOptions {
            max_samples: 40_000,
            warmup: 2_000,
            ..fast_opts(2, 121)
        };
        let plan = DuplicationPolicy::duplicate(2).without_purge();
        let fcfs = hedged(0.8, plan, BalancerPolicy::Jsq, &opts);
        let lp = hedged(0.8, plan.at_low_priority(), BalancerPolicy::Jsq, &opts);
        assert!(
            lp.cluster.mean_wait_us <= fcfs.cluster.mean_wait_us,
            "low-priority primary wait {} vs FCFS {}",
            lp.cluster.mean_wait_us,
            fcfs.cluster.mean_wait_us
        );
    }

    #[test]
    fn saturated_eager_no_purge_plan_is_a_typed_error() {
        // rho_eff = lambda * copies * E[S] / n = 2.4 * 2 / 4 = 1.2.
        let mut svc = exp_service(1.0);
        let err = try_simulate_cluster_hedged(
            2.4,
            &mut svc,
            &mut BalancerPolicy::Jsq.build(),
            &DuplicationPolicy::duplicate(2).without_purge(),
            &fast_opts(4, 131),
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert!(err.rho_estimate >= 1.0, "rho {}", err.rho_estimate);
    }

    #[test]
    fn hedged_tracing_emits_purges_and_does_not_perturb() {
        let opts = ClusterOptions {
            max_samples: 5_000,
            warmup: 500,
            ..fast_opts(4, 141)
        };
        let plan = DuplicationPolicy::hedge(0.5);
        let plain = hedged(2.0, plan, BalancerPolicy::Jsq, &opts);
        let tracer = Tracer::enabled(1 << 20, CLUSTER_TICKS_PER_US);
        let mut svc = exp_service(1.0);
        let traced = try_simulate_cluster_hedged(
            2.0,
            &mut svc,
            &mut BalancerPolicy::Jsq.build(),
            &plan,
            &opts,
            &tracer,
        )
        .unwrap();
        assert_eq!(plain.cluster.tail_us, traced.cluster.tail_us);
        assert_eq!(plain.dup, traced.dup);
        let log = tracer.take();
        assert_eq!(
            log.registry.counter("cluster/dup/hedge_fired"),
            traced.dup.hedges_fired
        );
        assert_eq!(
            log.registry.counter("cluster/purge/queued")
                + log.registry.counter("cluster/purge/in_service"),
            traced.dup.purged_queued + traced.dup.purged_in_service
        );
        let purges = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Purge { .. }))
            .count() as u64;
        assert_eq!(
            purges,
            traced.dup.purged_queued + traced.dup.purged_in_service
        );
        assert!(traced.dup.hedges_fired > 0, "hedges must fire at 0.5us");
    }

    #[test]
    fn sketch_shadows_the_exact_estimator() {
        let opts = ClusterOptions {
            max_samples: 20_000,
            warmup: 1_000,
            ..fast_opts(4, 161)
        };
        for engine in [true, false] {
            let mut r = if engine {
                hedged(
                    2.0,
                    DuplicationPolicy::hedge(1.0),
                    BalancerPolicy::Jsq,
                    &opts,
                )
                .cluster
            } else {
                let mut svc = exp_service(1.0);
                lindley(2.0, &mut svc, BalancerPolicy::Jsq, &opts)
            };
            assert_eq!(r.sketch.count(), r.samples as u64);
            let alpha = r.sketch.relative_accuracy();
            for q in [0.5, 0.95, 0.99] {
                let exact = r.sojourn_samples.quantile(q).unwrap();
                let approx = r.sketch.quantile(q).unwrap();
                assert!(
                    (approx - exact).abs() <= alpha * exact,
                    "q{q}: sketch {approx} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn merged_sketch_equals_sketch_of_pooled_replications() {
        let opts = ClusterOptions {
            max_samples: 5_000,
            warmup: 500,
            ..fast_opts(4, 171)
        };
        let parts: Vec<RequestResult> = (0..3)
            .map(|rep| {
                let o = ClusterOptions {
                    seed: opts.seed + rep,
                    ..opts
                };
                hedged(2.0, DuplicationPolicy::none(), BalancerPolicy::Jsq, &o)
            })
            .collect();
        let total: u64 = parts.iter().map(|p| p.cluster.sketch.count()).sum();
        let merged = merge_replications(parts, 0.99, 0.95).cluster;
        assert_eq!(merged.sketch.count(), total);
        assert_eq!(merged.sketch.count(), merged.samples as u64);
    }

    #[test]
    fn traced_run_flushes_the_event_core_profile() {
        let opts = ClusterOptions {
            max_samples: 5_000,
            warmup: 500,
            ..fast_opts(4, 181)
        };
        let tracer = Tracer::enabled(1 << 20, CLUSTER_TICKS_PER_US).with_timeseries(1_000.0);
        let mut svc = exp_service(1.0);
        let r = try_simulate_cluster_hedged(
            2.0,
            &mut svc,
            &mut BalancerPolicy::Jsq.build(),
            &DuplicationPolicy::hedge(1.0),
            &opts,
            &tracer,
        )
        .unwrap();
        let log = tracer.take();
        let reg = &log.registry;
        // Push/pop balance: the queue drained, so every push was popped.
        let pushed: u64 = ["arrive", "hedge_fire", "depart"]
            .iter()
            .map(|k| reg.counter(&format!("cluster/events/{k}/pushed")))
            .sum();
        assert_eq!(pushed, reg.counter("cluster/eventq/pushes"));
        assert_eq!(
            reg.counter("cluster/eventq/pushes"),
            reg.counter("cluster/eventq/pops")
        );
        assert!(reg.counter("cluster/events/hedge_fire/pushed") > 0);
        assert!(reg.counter("cluster/eventq/max_len") > 0);
        // The gauge series sampled on the event clock.
        let ts = log.timeseries.expect("timeseries opted in");
        assert!(ts.get("cluster/busy_servers").is_some());
        assert!(ts.get("cluster/in_flight").is_some());
        // And none of it perturbed the simulation.
        let plain = hedged(
            2.0,
            DuplicationPolicy::hedge(1.0),
            BalancerPolicy::Jsq,
            &opts,
        );
        assert_eq!(plain.cluster.tail_us.to_bits(), r.cluster.tail_us.to_bits());
        assert_eq!(plain.cluster.sketch, r.cluster.sketch);
    }

    #[test]
    fn duplication_plan_labels_are_stable() {
        assert_eq!(DuplicationPolicy::none().label(), "none");
        assert_eq!(DuplicationPolicy::duplicate(2).label(), "dup2");
        assert_eq!(
            DuplicationPolicy::duplicate(3).without_purge().label(),
            "dup3_np"
        );
        assert_eq!(
            DuplicationPolicy::duplicate(2).at_low_priority().label(),
            "dup2_lp"
        );
        assert_eq!(DuplicationPolicy::hedge(20.0).label(), "hedge20");
        assert_eq!(
            DuplicationPolicy::hedge(2.5).at_low_priority().label(),
            "hedge2.5_lp"
        );
    }

    #[test]
    fn power_of_n_matches_jsq_on_every_sample_path() {
        let opts = ClusterOptions {
            max_samples: 20_000,
            warmup: 1_000,
            ..fast_opts(4, 151)
        };
        let jsq = hedged(2.4, DuplicationPolicy::none(), BalancerPolicy::Jsq, &opts);
        let pod = hedged(
            2.4,
            DuplicationPolicy::none(),
            BalancerPolicy::PowerOfD(4),
            &opts,
        );
        assert_eq!(jsq.cluster.tail_us.to_bits(), pod.cluster.tail_us.to_bits());
        assert_eq!(jsq.cluster.sojourn, pod.cluster.sojourn);
        assert_eq!(
            jsq.cluster.per_server_requests,
            pod.cluster.per_server_requests
        );
    }

    #[test]
    fn tracing_does_not_perturb_results_and_emits_dispatches() {
        let opts = ClusterOptions {
            max_samples: 5_000,
            warmup: 500,
            ..fast_opts(4, 77)
        };
        let mut svc = exp_service(1.0);
        let plain = lindley(2.0, &mut svc, BalancerPolicy::Jsq, &opts);
        let tracer = Tracer::enabled(1 << 20, CLUSTER_TICKS_PER_US);
        let mut svc = exp_service(1.0);
        let traced = try_simulate_cluster(
            2.0,
            &mut svc,
            &mut BalancerPolicy::Jsq.build(),
            &opts,
            &tracer,
        )
        .unwrap();
        assert_eq!(plain.tail_us, traced.tail_us);
        assert_eq!(plain.sojourn, traced.sojourn);
        assert_eq!(plain.per_server_requests, traced.per_server_requests);
        let log = tracer.take();
        let dispatches = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dispatch { .. }))
            .count();
        assert_eq!(dispatches, traced.samples);
        assert_eq!(
            log.registry.counter("cluster/requests"),
            traced.samples as u64
        );
    }
}
