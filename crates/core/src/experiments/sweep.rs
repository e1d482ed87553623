//! Latency–load sweeps and SLO capacity (an operator-facing extension).
//!
//! The paper reports tails at three fixed loads; operators usually ask the
//! inverse question: *how much load can a design carry inside a tail-latency
//! budget?* This driver sweeps offered load, runs the same
//! IPC-scaled BigHouse machinery as Figure 5(d) at each point, and derives
//! each design's **SLO capacity** — the highest load whose p99 stays within
//! budget.

use super::grid::{self, scaled_service, Grid, GridSpec};
use crate::cellcache::{CellCache, CellKey, Digest, DigestWriter, PayloadReader, PayloadWriter};
use duplexity_cpu::designs::Design;
use duplexity_net::FaultPlan;
use duplexity_obs::{log_enabled, log_line};
use duplexity_queueing::des::{try_simulate_mg1, Mg1Options, Mg1Result};
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Designs to sweep.
    pub designs: Vec<Design>,
    /// Offered loads to evaluate (fractions of nominal capacity).
    pub loads: Vec<f64>,
    /// Cycle horizon for the per-design service calibration.
    pub calibration_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls.
    pub queue: Mg1Options,
    /// Fault plan applied to each request's µs-scale stall leg
    /// ([`FaultPlan::none`] reproduces the fault-free sample path
    /// byte-for-byte).
    pub fault: FaultPlan,
    /// Worker threads for calibrations and sweep points; `0` resolves
    /// `DUPLEXITY_THREADS` / available parallelism (see [`crate::exec`]).
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Content-addressed cell cache (default off). Cached cells skip the
    /// work list — and designs whose cells all hit skip calibration —
    /// with results byte-identical to a cold run.
    pub cache: Option<CellCache>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            workload: Workload::McRouter,
            designs: vec![Design::Baseline, Design::Smt, Design::Duplexity],
            loads: (1..=17).map(|i| 0.05 * f64::from(i)).collect(),
            calibration_cycles: 2_000_000,
            seed: 42,
            queue: Mg1Options {
                max_samples: 300_000,
                ..Mg1Options::default()
            },
            fault: FaultPlan::none(),
            threads: 0,
            cache: None,
        }
    }
}

/// One sweep measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Design.
    pub design: Design,
    /// Offered load fraction.
    pub load: f64,
    /// 99th-percentile latency, µs (`inf` once the scaled queue saturates).
    pub p99_us: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Whether this point saturated.
    pub saturated: bool,
}

/// Content-addressed cache keys for every (design, load) cell of the
/// sweep grid, in the driver's design-major evaluation order. A cell's
/// key digests everything its value depends on — workload, design, load,
/// calibration horizon, seed, queueing controls, fault plan — and
/// nothing else, so adding loads or designs to the grid reuses the
/// overlapping cells.
#[must_use]
pub fn cell_keys(opts: &SweepOptions) -> Vec<CellKey> {
    grid::keys(opts)
}

/// Runs the sweep: one saturated calibration per design, then a queueing
/// simulation per (design, load), with common random numbers across designs.
///
/// # Panics
///
/// Panics if the options contain no loads or no designs, a load that is
/// not positive, or omit [`Design::Baseline`] (the slowdown reference).
#[must_use]
pub fn latency_load_sweep(opts: &SweepOptions) -> Vec<SweepPoint> {
    let points = grid::run(opts);
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "sweep: {} points ({} designs × {} loads) on {}, {} saturated",
            points.len(),
            opts.designs.len(),
            opts.loads.len(),
            opts.workload,
            saturated,
        ));
    }
    points
}

/// (design, load).
type Cell = (Design, f64);

// Every (design, load) point builds its queueing RNG from (seed, load) —
// common random numbers across designs — in design-major order.
impl GridSpec for SweepOptions {
    type Cell = Cell;
    type Run = Mg1Result;
    type Point = SweepPoint;
    const NAME: &'static str = "sweep";

    fn grid(&self) -> Grid<'_> {
        Grid {
            seed: self.seed,
            stream: 0x53EA,
            threads: self.threads,
            cache: self.cache.as_ref(),
            calibration: Some((self.workload, &self.designs, self.calibration_cycles)),
            ..Grid::default()
        }
    }

    fn cells(&self) -> Vec<Cell> {
        let loads = &self.loads;
        self.designs
            .iter()
            .flat_map(|&d| loads.iter().map(move |&l| (d, l)))
            .collect()
    }

    fn digest(&self, &(design, load): &Cell, w: &mut DigestWriter) {
        self.workload.digest(w);
        design.digest(w);
        w.field_f64("load", load);
        w.field_u64("calibration_cycles", self.calibration_cycles);
        w.field_u64("seed", self.seed);
        w.field("queue", &self.queue);
        w.field("fault", &self.fault);
    }

    fn coords(&self, &(_, load): &Cell) -> (f64, Option<usize>) {
        (load, None)
    }

    fn design(&self, &(design, _): &Cell) -> Design {
        design
    }

    fn run(&self, &(_, load): &Cell, slowdown: f64, seed: u64, _: usize) -> Option<Mg1Result> {
        let lambda = load / self.workload.nominal_service_us();
        let model = self.workload.service_model();
        let (scaled_mean, mut service) = scaled_service(&model, slowdown, self.fault);
        if lambda * scaled_mean >= 0.95 {
            return None;
        }
        let mut qopts = self.queue;
        qopts.seed = seed;
        // The pre-guard above is a cheap bound; the DES pilot is the
        // authoritative stability check, and its typed Unstable verdict
        // marks the point saturated instead of killing the sweep.
        try_simulate_mg1(lambda, &mut service, &qopts).ok()
    }

    fn point(&self, &(design, load): &Cell, run: Option<Mg1Result>) -> SweepPoint {
        let saturated = run.is_none();
        let (p99_us, mean_us) = run.map_or((f64::INFINITY, f64::INFINITY), |r| {
            (r.tail_us, r.mean_sojourn_us)
        });
        SweepPoint {
            design,
            load,
            p99_us,
            mean_us,
            saturated,
        }
    }

    fn encode(&self, p: &SweepPoint) -> String {
        let mut w = PayloadWriter::new();
        w.f64("p99_us", p.p99_us);
        w.f64("mean_us", p.mean_us);
        w.bool("saturated", p.saturated);
        w.finish()
    }

    fn decode(&self, &(design, load): &Cell, payload: &str) -> Option<SweepPoint> {
        let mut r = PayloadReader::new(payload);
        let p = SweepPoint {
            design,
            load,
            p99_us: r.f64("p99_us")?,
            mean_us: r.f64("mean_us")?,
            saturated: r.bool("saturated")?,
        };
        r.done().then_some(p)
    }
}

/// The highest swept load whose p99 stays within `budget_us` for `design`
/// (its SLO capacity), or `None` if no point qualifies.
#[must_use]
pub fn slo_capacity(points: &[SweepPoint], design: Design, budget_us: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.design == design && !p.saturated && p.p99_us <= budget_us)
        .map(|p| p.load)
        .fold(None, |best, l| Some(best.map_or(l, |b: f64| b.max(l))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SweepOptions {
        SweepOptions {
            loads: vec![0.2, 0.4, 0.6, 0.8],
            calibration_cycles: 800_000,
            queue: Mg1Options {
                max_samples: 80_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..SweepOptions::default()
        }
    }

    #[test]
    fn p99_rises_monotonically_with_load() {
        let points = latency_load_sweep(&quick_opts());
        for design in [Design::Baseline, Design::Duplexity] {
            let series: Vec<&SweepPoint> = points
                .iter()
                .filter(|p| p.design == design && !p.saturated)
                .collect();
            assert!(series.len() >= 3, "{design}: too few stable points");
            for w in series.windows(2) {
                assert!(
                    w[1].p99_us >= w[0].p99_us * 0.95,
                    "{design}: p99 fell from {} to {} as load rose",
                    w[0].p99_us,
                    w[1].p99_us
                );
            }
        }
    }

    #[test]
    fn slo_capacity_orders_designs_sensibly() {
        let points = latency_load_sweep(&quick_opts());
        // Pick a budget that the baseline meets at low load.
        let base_low = points
            .iter()
            .find(|p| p.design == Design::Baseline && p.load == 0.2)
            .unwrap()
            .p99_us;
        let budget = base_low * 3.0;
        let base_cap = slo_capacity(&points, Design::Baseline, budget);
        let dup_cap = slo_capacity(&points, Design::Duplexity, budget);
        assert!(base_cap.is_some());
        // Duplexity's modest service inflation cannot beat baseline at
        // iso-load, but it must stay within one sweep step of it.
        let (b, d) = (base_cap.unwrap(), dup_cap.unwrap_or(0.0));
        assert!(d >= b - 0.21, "Duplexity SLO capacity {d} vs baseline {b}");
    }

    #[test]
    fn fault_axis_shrinks_slo_capacity() {
        use duplexity_net::RetryPolicy;
        let mut opts = quick_opts();
        opts.designs = vec![Design::Baseline];
        let clean = latency_load_sweep(&opts);
        opts.fault = FaultPlan::none()
            .with_drop(0.05)
            .with_retry(RetryPolicy::new(4, 10.0, 2.0, 16.0));
        let faulted = latency_load_sweep(&opts);
        for (a, b) in clean.iter().zip(&faulted) {
            assert_eq!(a.load, b.load);
            assert!(
                b.saturated || b.p99_us > a.p99_us,
                "load {}: faulted p99 {} vs clean {}",
                a.load,
                b.p99_us,
                a.p99_us
            );
        }
        let budget = clean[0].p99_us * 3.0;
        let clean_cap = slo_capacity(&clean, Design::Baseline, budget).unwrap();
        let faulted_cap = slo_capacity(&faulted, Design::Baseline, budget).unwrap_or(0.0);
        assert!(
            faulted_cap <= clean_cap,
            "faulted capacity {faulted_cap} vs clean {clean_cap}"
        );
    }

    #[test]
    fn slo_capacity_none_for_impossible_budget() {
        let points = latency_load_sweep(&quick_opts());
        assert_eq!(slo_capacity(&points, Design::Baseline, 0.0001), None);
    }
}
