//! Request-domain timeline: event-clock gauge series + DES self-profile
//! for a handful of cluster loads.
//!
//! The sweeps (`cluster_sweep`, `hedge_sweep`) report *endpoint* numbers —
//! one p99 per grid cell. This driver answers the "what happened along the
//! way" question the killer-microseconds story keeps raising: it runs the
//! duplication-aware cluster engine with a timeseries-enabled
//! [`Tracer`], collecting per-server queue depth, busy-server count,
//! hedges in flight, cumulative purges, and delivered utilization on the
//! pure event clock, plus the event-core self-profile (per-kind push/pop
//! counters, wheel occupancy and fast-forward accounting) in the slash-path
//! registry.
//!
//! Determinism: the observability layer draws zero RNG values, cells
//! derive their seeds from `(seed, load, servers)` alone, and per-cell
//! logs merge in load-index order under `load{l}/` prefixes — so the
//! artifact is byte-identical at any [`ExecPool`](crate::exec::ExecPool)
//! worker count, which
//! `tests/obs_determinism.rs` holds it to.

use super::grid::{self, Grid, GridSpec};
use crate::cellcache::{CellCache, CellKey, DigestWriter, PayloadReader, PayloadWriter};
use duplexity_obs::{log_enabled, log_line, Bin, Observation, Registry, TimeSeriesSet, Tracer};
use duplexity_queueing::cluster::{
    try_simulate_cluster_hedged, BalancerPolicy, ClusterOptions, DuplicationPolicy,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_stats::rng::SimRng;
use duplexity_workloads::Workload;

/// Stream label for per-cell seeds (keyed on load and cluster size only,
/// matching the sweep drivers' convention).
const TIMELINE_CELL_STREAM: u64 = 0x7173;

/// Cluster traces share the DES clock domain: 1000 ticks per simulated µs.
const TIMELINE_TICKS_PER_US: f64 = 1000.0;

/// Ring capacity for raw trace events. The artifact uses only gauges and
/// registry counters, which never drop, so a small cap merely bounds
/// memory.
const TRACE_CAPACITY: usize = 1 << 10;

/// Configuration for the timeline run: one (policy, plan, cluster size),
/// several loads, one gauge-bin width.
#[derive(Debug, Clone)]
pub struct TimelineOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Balancing policy.
    pub policy: BalancerPolicy,
    /// Duplication/hedging plan.
    pub plan: DuplicationPolicy,
    /// Servers behind the balancer.
    pub servers: usize,
    /// Per-server offered loads; one timeline cell per load.
    pub loads: Vec<f64>,
    /// Gauge bin width in simulated µs.
    pub bin_us: f64,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls (lifted per-cell to [`ClusterOptions`]).
    pub queue: Mg1Options,
    /// Worker threads; `0` resolves `DUPLEXITY_THREADS` / available
    /// parallelism. The artifact is bit-identical for every value.
    pub threads: usize,
    /// Optional content-addressed cell cache; `None` (the default) runs
    /// every load cell fresh.
    pub cache: Option<CellCache>,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        Self {
            workload: Workload::Rsc,
            policy: BalancerPolicy::Jsq,
            plan: DuplicationPolicy::hedge(20.0),
            servers: 16,
            loads: vec![0.3, 0.7],
            bin_us: 1_000.0,
            seed: 42,
            queue: Mg1Options {
                max_samples: 200_000,
                ..Mg1Options::default()
            },
            threads: 0,
            cache: None,
        }
    }
}

/// Cache keys for every load cell, in grid (load) order.
/// `Mg1Options::seed` is excluded (each cell overwrites it from the
/// digested experiment seed).
#[must_use]
pub fn cell_keys(opts: &TimelineOptions) -> Vec<CellKey> {
    grid::keys(opts)
}

/// Per-load endpoint summary riding along with the series.
#[derive(Debug, Clone)]
pub struct TimelineCell {
    /// Per-server offered load fraction.
    pub load: f64,
    /// Measured requests (0 for a saturated cell).
    pub samples: usize,
    /// Exact p99 sojourn from the sorted-sample estimator, µs.
    pub p99_us: f64,
    /// p99 sojourn from the streaming sketch, µs — within the sketch's
    /// documented relative accuracy of `p99_us`.
    pub sketch_p99_us: f64,
    /// Whether the cell saturated (pilot verdict).
    pub saturated: bool,
}

/// The merged timeline: gauge series and registry from every load cell,
/// prefixed `load{l}/`, plus the per-load endpoint summaries.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Gauge bin width, µs.
    pub bin_us: f64,
    /// Merged event-clock gauge series (`load0.3/cluster/busy_servers`,
    /// ...), in load-index order.
    pub series: TimeSeriesSet,
    /// Merged registry (per-kind event counters, event-queue profile,
    /// request counters), in load-index order.
    pub registry: Registry,
    /// Per-load summaries, in load order.
    pub cells: Vec<TimelineCell>,
}

impl Timeline {
    /// Deterministic JSON export: endpoint summaries, then the series and
    /// registry objects (both already deterministic). Pure string
    /// assembly — float formatting is Rust's shortest round-trip, so the
    /// bytes are platform- and worker-count-independent.
    #[must_use]
    pub fn to_json(&self) -> String {
        use duplexity_obs::registry::json_f64;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bin_us\": {},\n", json_f64(self.bin_us)));
        out.push_str("  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n    {{\"load\": {}, \"samples\": {}, \"p99_us\": {}, \"sketch_p99_us\": {}, \"saturated\": {}}}",
                json_f64(c.load),
                c.samples,
                json_f64(c.p99_us),
                json_f64(c.sketch_p99_us),
                c.saturated,
            ));
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"series\": {},\n",
            self.series.to_json().trim_end()
        ));
        out.push_str(&format!(
            "  \"registry\": {}\n",
            self.registry.to_json().trim_end()
        ));
        out.push_str("}\n");
        out
    }
}

/// Runs the timeline: one timeseries-traced cluster simulation per load,
/// merged in load-index order.
///
/// # Panics
///
/// Panics on an empty load list, a load that is not positive, a zero
/// server count, or a non-positive bin width.
#[must_use]
pub fn timeline(opts: &TimelineOptions) -> Timeline {
    assert!(
        opts.bin_us.is_finite() && opts.bin_us > 0.0,
        "bin width must be positive"
    );
    // Merge in load-index order regardless of which cells came from the
    // cache, so cold, warm, and mixed runs produce identical artifacts.
    let mut series = TimeSeriesSet::new(opts.bin_us);
    let mut registry = Registry::default();
    let mut cells = Vec::with_capacity(opts.loads.len());
    for (cell, cell_series, cell_registry) in grid::run(opts) {
        let prefix = format!("load{}", cell.load);
        if let Some(ts) = &cell_series {
            series.merge_prefixed(&prefix, ts);
        }
        registry.merge_prefixed(&prefix, &cell_registry);
        cells.push(cell);
    }
    if log_enabled() {
        log_line(&format!(
            "timeline: {} loads x {} servers ({}, {}, {}), {} gauge series",
            cells.len(),
            opts.servers,
            opts.workload,
            opts.policy,
            opts.plan,
            series.series().count(),
        ));
    }
    Timeline {
        bin_us: opts.bin_us,
        series,
        registry,
        cells,
    }
}

/// A load cell as the live tracer produced it: endpoint summary, gauge
/// series, and registry.
type TracedCell = (TimelineCell, Option<TimeSeriesSet>, Registry);

impl GridSpec for TimelineOptions {
    type Cell = f64;
    type Run = TracedCell;
    type Point = TracedCell;
    const NAME: &'static str = "timeline";
    const CELLS: &'static str = "cells";

    fn grid(&self) -> Grid<'_> {
        Grid {
            seed: self.seed,
            stream: TIMELINE_CELL_STREAM,
            threads: self.threads,
            cache: self.cache.as_ref(),
            ..Grid::default()
        }
    }

    fn cells(&self) -> Vec<f64> {
        self.loads.clone()
    }

    fn digest(&self, &load: &f64, w: &mut DigestWriter) {
        w.field("workload", &self.workload);
        w.field("policy", &self.policy);
        w.field("plan", &self.plan);
        w.field_usize("servers", self.servers);
        w.field_f64("load", load);
        w.field_f64("bin_us", self.bin_us);
        w.field_u64("seed", self.seed);
        w.field("queue", &self.queue);
        // Cells run on the default wheel; digested so keys stay stable.
        w.field("event_queue", &EventQueueKind::Wheel);
    }

    fn coords(&self, &load: &f64) -> (f64, Option<usize>) {
        (load, Some(self.servers))
    }

    fn check_plans(&self) {
        self.plan.check(Self::NAME);
    }

    // A cell the DES pilot finds unstable still carries the tracer's log.
    fn run(&self, &load: &f64, _: f64, seed: u64, _: usize) -> Option<Self::Run> {
        let model = self.workload.service_model();
        let lambda = self.servers as f64 * load / self.workload.nominal_service_us();
        // An unbounded arrival rate saturates before a single draw.
        if lambda.is_infinite() {
            return None;
        }
        let tracer =
            Tracer::enabled(TRACE_CAPACITY, TIMELINE_TICKS_PER_US).with_timeseries(self.bin_us);
        let mut service = |rng: &mut SimRng| model.sample_compute(rng) + model.sample_stall(rng);
        let mut copts = ClusterOptions::from_mg1(self.servers, &self.queue);
        copts.seed = seed;
        let mut balancer = self.policy.build();
        let result = try_simulate_cluster_hedged(
            lambda,
            &mut service,
            balancer.as_mut(),
            &self.plan,
            &copts,
            &tracer,
        );
        let cell = match &result {
            Ok(r) => TimelineCell {
                load,
                samples: r.cluster.samples,
                p99_us: r.cluster.tail_us,
                sketch_p99_us: r.cluster.sketch.quantile(0.99).unwrap_or(0.0),
                saturated: false,
            },
            Err(_) => self.point(&load, None).0,
        };
        let log = tracer.take();
        Some((cell, log.timeseries, log.registry))
    }

    fn point(&self, &load: &f64, run: Option<TracedCell>) -> TracedCell {
        run.unwrap_or_else(|| {
            let cell = TimelineCell {
                load,
                samples: 0,
                p99_us: f64::INFINITY,
                sketch_p99_us: f64::INFINITY,
                saturated: true,
            };
            (cell, None, Registry::default())
        })
    }

    fn encode(&self, (cell, series, registry): &TracedCell) -> String {
        let mut w = PayloadWriter::new();
        w.usize("samples", cell.samples);
        w.f64("p99_us", cell.p99_us);
        w.f64("sketch_p99_us", cell.sketch_p99_us);
        w.bool("saturated", cell.saturated);
        w.bool("has_series", series.is_some());
        if let Some(ts) = series {
            w.usize("series_count", ts.series().count());
            for (name, s) in ts.series() {
                w.str("name", name);
                let bins = s.bins();
                w.usize("bins", bins.len());
                for b in bins {
                    w.u64("count", b.count);
                    w.f64("sum", b.sum);
                    w.f64("min", b.min);
                    w.f64("max", b.max);
                    w.f64("last", b.last);
                }
            }
        }
        w.usize("counters", registry.counters().count());
        for (path, v) in registry.counters() {
            w.u64("value", v);
            w.str("path", path);
        }
        w.usize("observations", registry.observations().count());
        for (path, o) in registry.observations() {
            w.u64("count", o.count);
            w.f64("sum", o.sum);
            w.f64("min", o.min);
            w.f64("max", o.max);
            w.str("path", path);
        }
        w.finish()
    }

    fn decode(&self, &load: &f64, payload: &str) -> Option<TracedCell> {
        let mut r = PayloadReader::new(payload);
        let cell = TimelineCell {
            load,
            samples: r.usize("samples")?,
            p99_us: r.f64("p99_us")?,
            sketch_p99_us: r.f64("sketch_p99_us")?,
            saturated: r.bool("saturated")?,
        };
        let series = if r.bool("has_series")? {
            let mut ts = TimeSeriesSet::new(self.bin_us);
            for _ in 0..r.usize("series_count")? {
                let name = r.str("name")?.to_string();
                for idx in 0..r.usize("bins")? {
                    let bin = Bin {
                        count: r.u64("count")?,
                        sum: r.f64("sum")?,
                        min: r.f64("min")?,
                        max: r.f64("max")?,
                        last: r.f64("last")?,
                    };
                    ts.insert_bin(&name, idx, bin);
                }
            }
            Some(ts)
        } else {
            None
        };
        let mut registry = Registry::default();
        for _ in 0..r.usize("counters")? {
            let v = r.u64("value")?;
            let path = r.str("path")?.to_string();
            registry.incr(&path, v);
        }
        for _ in 0..r.usize("observations")? {
            let o = Observation {
                count: r.u64("count")?,
                sum: r.f64("sum")?,
                min: r.f64("min")?,
                max: r.f64("max")?,
            };
            let path = r.str("path")?.to_string();
            registry.set_observation(&path, o);
        }
        r.done().then_some((cell, series, registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> TimelineOptions {
        TimelineOptions {
            servers: 4,
            loads: vec![0.3, 0.6],
            queue: Mg1Options {
                max_samples: 5_000,
                warmup: 500,
                ..Mg1Options::default()
            },
            ..TimelineOptions::default()
        }
    }

    #[test]
    fn timeline_collects_gauges_and_profile_per_load() {
        let t = timeline(&quick_opts());
        assert_eq!(t.cells.len(), 2);
        for cell in &t.cells {
            assert!(!cell.saturated);
            let pre = format!("load{}", cell.load);
            assert!(t
                .series
                .get(&format!("{pre}/cluster/busy_servers"))
                .is_some());
            assert!(t.series.get(&format!("{pre}/cluster/in_flight")).is_some());
            assert!(t
                .series
                .get(&format!("{pre}/cluster/server/0/depth"))
                .is_some());
            assert!(t.registry.counter(&format!("{pre}/cluster/eventq/pushes")) > 0);
            assert_eq!(
                t.registry.counter(&format!("{pre}/cluster/eventq/pushes")),
                t.registry.counter(&format!("{pre}/cluster/eventq/pops")),
            );
            // The sketch's p99 stays within its documented bound of exact.
            let alpha = 0.01;
            assert!(
                (cell.sketch_p99_us - cell.p99_us).abs() <= alpha * cell.p99_us,
                "sketch {} vs exact {}",
                cell.sketch_p99_us,
                cell.p99_us
            );
        }
    }

    #[test]
    fn timeline_json_is_stable_and_parses() {
        let t = timeline(&quick_opts());
        let j = t.to_json();
        assert_eq!(j, t.to_json());
        let v = serde_json::parse_value(&j).expect("valid JSON");
        assert!(v.get_field("series").is_some());
        assert!(v.get_field("registry").is_some());
        assert!(v.get_field("cells").is_some());
    }

    #[test]
    fn saturated_loads_summarize_without_panicking() {
        let mut opts = quick_opts();
        opts.loads = vec![0.3, 1.2];
        let t = timeline(&opts);
        assert!(!t.cells[0].saturated);
        assert!(t.cells[1].saturated);
        assert!(t.cells[1].p99_us.is_infinite());
    }
}
