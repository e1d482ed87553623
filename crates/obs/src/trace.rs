//! The cycle-domain event tracer: typed events, a bounded ring recorder,
//! and the cheaply cloneable [`Tracer`] handle simulators embed.

use crate::registry::Registry;
use crate::timeseries::TimeSeriesSet;
use std::cell::RefCell;
use std::rc::Rc;

/// Which thread class an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadTag {
    /// The latency-critical master-thread on the master-core.
    Master,
    /// A borrowed filler-thread executing on the morphed master-core.
    Filler,
    /// A batch thread executing on the lender-core.
    Lender,
}

impl ThreadTag {
    /// Stable lowercase name (used in trace/metric paths).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ThreadTag::Master => "master",
            ThreadTag::Filler => "filler",
            ThreadTag::Lender => "lender",
        }
    }
}

/// What opened a morph window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphTrigger {
    /// Master-thread blocked on a µs-scale remote access.
    Stall,
    /// Master-thread out of requests (inter-request idleness).
    Idle,
}

impl MorphTrigger {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MorphTrigger::Stall => "stall",
            MorphTrigger::Idle => "idle",
        }
    }
}

/// Why a filler virtual context was returned to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnReason {
    /// The context issued a µs-scale remote access and was parked.
    Stall,
    /// The context ran out of work and was parked until its next arrival.
    Idle,
    /// The 100µs HSMT quantum expired with other contexts waiting.
    Quantum,
    /// The master-thread resumed and evicted every borrowed context.
    Evict,
}

impl ReturnReason {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReturnReason::Stall => "stall",
            ReturnReason::Idle => "idle",
            ReturnReason::Quantum => "quantum",
            ReturnReason::Evict => "evict",
        }
    }
}

/// One typed observation in the emitter's native tick domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Master-core morphed into the in-order filler engine.
    MorphIn {
        /// Trigger cycle.
        at: u64,
        /// What opened the hole.
        cause: MorphTrigger,
    },
    /// Master-core morphed back; the master-thread resumes.
    MorphOut {
        /// Resume cycle.
        at: u64,
    },
    /// A thread began a µs-scale stall: the remote load of an
    /// `Op::RemoteLoad` micro-op, the one remote access the cycle engines
    /// issue (Chrome rows label it `stall:remote_memory`).
    StallBegin {
        /// Issue cycle.
        at: u64,
        /// Stalling thread's class.
        tag: ThreadTag,
    },
    /// The matching stall resolved.
    StallEnd {
        /// Completion cycle.
        at: u64,
        /// Stalling thread's class.
        tag: ThreadTag,
    },
    /// A filler virtual context was borrowed from the shared pool.
    FillerBorrow {
        /// Borrow cycle.
        at: u64,
        /// Virtual-context id.
        ctx: u64,
    },
    /// A filler virtual context went back to the pool.
    FillerReturn {
        /// Return cycle.
        at: u64,
        /// Virtual-context id.
        ctx: u64,
        /// Why it was returned.
        reason: ReturnReason,
    },
    /// A request arrived (open-loop injection or queueing arrival).
    RequestArrive {
        /// Arrival tick.
        at: u64,
    },
    /// A cluster balancer routed a request to a server.
    Dispatch {
        /// Dispatch tick (the request's arrival instant).
        at: u64,
        /// Chosen server index.
        server: u32,
        /// The chosen server's queue length *before* this request joined.
        queue_len: u32,
    },
    /// A request completed.
    RequestComplete {
        /// Completion tick.
        at: u64,
        /// End-to-end latency in ticks.
        latency: u64,
    },
    /// A deadline-triggered hedge fired: the primary copy outlived its
    /// latency budget, so a duplicate was dispatched.
    HedgeFire {
        /// Hedge-dispatch tick (primary arrival + hedge deadline).
        at: u64,
        /// Server the duplicate copy was routed to.
        server: u32,
    },
    /// A sibling copy was purged after its request's first completion.
    Purge {
        /// Purge tick (the winning copy's completion instant).
        at: u64,
        /// Server the purged copy was queued on / running at.
        server: u32,
        /// `true` if the copy had already started service (abandoned
        /// mid-service), `false` if it was still waiting in queue.
        in_service: bool,
    },
}

impl TraceEvent {
    /// The event's timestamp in native ticks.
    #[must_use]
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::MorphIn { at, .. }
            | TraceEvent::MorphOut { at }
            | TraceEvent::StallBegin { at, .. }
            | TraceEvent::StallEnd { at, .. }
            | TraceEvent::FillerBorrow { at, .. }
            | TraceEvent::FillerReturn { at, .. }
            | TraceEvent::RequestArrive { at }
            | TraceEvent::Dispatch { at, .. }
            | TraceEvent::RequestComplete { at, .. }
            | TraceEvent::HedgeFire { at, .. }
            | TraceEvent::Purge { at, .. } => at,
        }
    }

    /// Stable snake_case event name (registry paths, Chrome event names).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::MorphIn { .. } => "morph_in",
            TraceEvent::MorphOut { .. } => "morph_out",
            TraceEvent::StallBegin { .. } => "stall_begin",
            TraceEvent::StallEnd { .. } => "stall_end",
            TraceEvent::FillerBorrow { .. } => "filler_borrow",
            TraceEvent::FillerReturn { .. } => "filler_return",
            TraceEvent::RequestArrive { .. } => "request_arrive",
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::RequestComplete { .. } => "request_complete",
            TraceEvent::HedgeFire { .. } => "hedge_fire",
            TraceEvent::Purge { .. } => "purge",
        }
    }
}

/// A bounded drop-oldest ring of events.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<TraceEvent>,
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Drains the ring into emission order (oldest surviving event first).
    fn drain(&mut self) -> Vec<TraceEvent> {
        let head = self.head;
        self.head = 0;
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(head);
        out
    }
}

#[derive(Debug)]
struct Sink {
    ring: Ring,
    registry: Registry,
    ticks_per_us: f64,
    /// Fixed-bin gauge/counter series, opted into per run
    /// ([`Tracer::with_timeseries`]); `None` keeps sampling sites at one
    /// branch, like disabled emission.
    series: Option<TimeSeriesSet>,
}

/// The extracted, thread-safe record of one cell's trace.
///
/// This is what crosses `ExecPool` worker boundaries: plain data, `Send`,
/// and fully determined by the cell's seed and grid coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Events in emission order (oldest surviving first).
    pub events: Vec<TraceEvent>,
    /// Events lost to the ring cap (0 means the record is complete).
    pub dropped: u64,
    /// Native ticks per microsecond (cycles/µs for CPU sims, 1000 for the
    /// nanosecond-domain queueing DES).
    pub ticks_per_us: f64,
    /// Registry counters/observations flushed by the traced simulator.
    pub registry: Registry,
    /// Event-clock time series, present when the tracer was built with
    /// [`Tracer::with_timeseries`] and the simulator sampled any gauge.
    pub timeseries: Option<TimeSeriesSet>,
}

/// A cheaply cloneable handle to a per-cell trace sink.
///
/// `Tracer::default()` / [`Tracer::disabled`] is a no-op handle: every
/// emission is a single `Option` test and the event payload closure is
/// never run. An enabled tracer is `Rc`-shared between the engines of one
/// simulation cell (a cell is single-threaded by construction, see the
/// exec-pool determinism contract), and [`Tracer::take`] extracts the
/// `Send`able [`TraceLog`] at the end of the run.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Sink>>>,
}

impl Tracer {
    /// A no-op handle (the default for every simulator).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording handle with a `capacity`-event drop-oldest ring.
    ///
    /// `ticks_per_us` converts the emitter's native timestamps to
    /// microseconds at export time; simulators that know their own clock
    /// overwrite it via [`Tracer::set_ticks_per_us`].
    #[must_use]
    pub fn enabled(capacity: usize, ticks_per_us: f64) -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Sink {
                ring: Ring::new(capacity),
                registry: Registry::default(),
                ticks_per_us,
                series: None,
            }))),
        }
    }

    /// Opts this (enabled) handle into event-clock time series with
    /// `bin_us`-wide bins; a no-op on a disabled handle.
    ///
    /// # Panics
    ///
    /// Panics unless `bin_us` is finite and positive (see
    /// [`TimeSeriesSet::new`]).
    #[must_use]
    pub fn with_timeseries(self, bin_us: f64) -> Self {
        if let Some(s) = &self.inner {
            s.borrow_mut().series = Some(TimeSeriesSet::new(bin_us));
        }
        self
    }

    /// Whether time-series sampling is on (enabled handle + opted in).
    #[must_use]
    pub fn has_timeseries(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|s| s.borrow().series.is_some())
    }

    /// Runs `f` against the time-series set; `f` is never called unless
    /// this handle was built with [`Tracer::with_timeseries`], so sampling
    /// sites cost one branch on every other handle.
    #[inline]
    pub fn sample(&self, f: impl FnOnce(&mut TimeSeriesSet)) {
        if let Some(s) = &self.inner {
            if let Some(ts) = s.borrow_mut().series.as_mut() {
                f(ts);
            }
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the tick-to-µs conversion for every event this sink holds.
    pub fn set_ticks_per_us(&self, ticks_per_us: f64) {
        if let Some(s) = &self.inner {
            s.borrow_mut().ticks_per_us = ticks_per_us;
        }
    }

    /// Records the event built by `f`; on a disabled handle `f` is never
    /// called, so emission sites cost one branch.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(s) = &self.inner {
            s.borrow_mut().ring.push(f());
        }
    }

    /// Adds `n` to a registry counter (no-op when disabled).
    pub fn count(&self, path: &str, n: u64) {
        if let Some(s) = &self.inner {
            s.borrow_mut().registry.incr(path, n);
        }
    }

    /// Records a sample into a registry observation (no-op when disabled).
    pub fn observe(&self, path: &str, v: f64) {
        if let Some(s) = &self.inner {
            s.borrow_mut().registry.observe(path, v);
        }
    }

    /// Drains the sink into a `Send`able [`TraceLog`]. Event-type counters
    /// are tallied into the log's registry under `events/<name>`. A
    /// disabled handle returns an empty log.
    #[must_use]
    pub fn take(&self) -> TraceLog {
        let Some(s) = &self.inner else {
            return TraceLog::default();
        };
        let mut sink = s.borrow_mut();
        let events = sink.ring.drain();
        let dropped = sink.ring.dropped;
        sink.ring.dropped = 0;
        let mut registry = std::mem::take(&mut sink.registry);
        for ev in &events {
            registry.incr(&format!("events/{}", ev.name()), 1);
        }
        if dropped > 0 {
            registry.incr("events/dropped", dropped);
        }
        let timeseries = sink.series.take().filter(|ts| !ts.is_empty());
        TraceLog {
            events,
            dropped,
            ticks_per_us: sink.ticks_per_us,
            registry,
            timeseries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(|| unreachable!("closure must not run on a disabled tracer"));
        t.count("x", 1);
        t.observe("y", 1.0);
        let log = t.take();
        assert!(log.events.is_empty());
        assert!(log.registry.is_empty());
    }

    #[test]
    fn events_come_back_in_emission_order() {
        let t = Tracer::enabled(16, 3400.0);
        t.emit(|| TraceEvent::MorphIn {
            at: 10,
            cause: MorphTrigger::Stall,
        });
        t.emit(|| TraceEvent::FillerBorrow { at: 12, ctx: 3 });
        t.emit(|| TraceEvent::MorphOut { at: 90 });
        let log = t.take();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[0].name(), "morph_in");
        assert_eq!(log.events[2].at(), 90);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.ticks_per_us, 3400.0);
        assert_eq!(log.registry.counter("events/morph_in"), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::enabled(4, 1.0);
        for i in 0..10u64 {
            t.emit(|| TraceEvent::RequestArrive { at: i });
        }
        let log = t.take();
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.dropped, 6);
        let ats: Vec<u64> = log.events.iter().map(TraceEvent::at).collect();
        assert_eq!(ats, vec![6, 7, 8, 9], "oldest events drop first");
        assert_eq!(log.registry.counter("events/dropped"), 6);
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::enabled(8, 1.0);
        let u = t.clone();
        t.emit(|| TraceEvent::RequestArrive { at: 1 });
        u.emit(|| TraceEvent::RequestComplete { at: 5, latency: 4 });
        assert_eq!(t.take().events.len(), 2);
    }

    #[test]
    fn timeseries_sampling_is_opt_in() {
        let t = Tracer::enabled(4, 1.0);
        t.sample(|_| unreachable!("sampling must be opt-in"));
        assert!(!t.has_timeseries());
        Tracer::disabled().sample(|_| unreachable!("disabled handles never sample"));
        let t = Tracer::enabled(4, 1.0).with_timeseries(10.0);
        assert!(t.has_timeseries());
        t.sample(|ts| ts.observe("g", 5.0, 2.0));
        let log = t.take();
        let ts = log.timeseries.expect("sampled series survive take");
        assert_eq!(ts.get("g").unwrap().bins()[0].count, 1);
        assert!(t.take().timeseries.is_none(), "take drains the series");
    }

    #[test]
    fn empty_timeseries_is_omitted_from_the_log() {
        let t = Tracer::enabled(4, 1.0).with_timeseries(10.0);
        assert!(t.take().timeseries.is_none());
    }

    #[test]
    fn take_drains() {
        let t = Tracer::enabled(8, 1.0);
        t.emit(|| TraceEvent::RequestArrive { at: 1 });
        assert_eq!(t.take().events.len(), 1);
        assert!(t.take().events.is_empty(), "take must drain the sink");
    }
}
