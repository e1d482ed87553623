//! Figure 1: the killer-microsecond motivation experiments.
//!
//! * **1(a)** — utilization surface of the closed-loop compute/stall model;
//! * **1(b)** — cumulative distribution of M/G/1 idle periods at 200K and 1M
//!   QPS for 30/50/70% load (analytic, cross-checked by discrete-event
//!   simulation);
//! * **1(c)** — throughput vs SMT thread count (1–16) on a 4-wide OoO core
//!   for FLANN with four compute-to-stall ratios.

use crate::exec::ExecPool;
use duplexity_cpu::memsys::MemSys;
use duplexity_cpu::ooo::{FetchPolicy, OooEngine, ThreadClass};
use duplexity_cpu::request::RequestStream;
use duplexity_obs::{log_enabled, log_line};
use duplexity_queueing::closed_loop::{utilization_surface, SurfaceCell};
use duplexity_queueing::idle_period_cdf;
use duplexity_stats::rng::{derive_stream, rng_from_seed};
use duplexity_uarch::config::{CoreConfig, LatencyModel, MachineConfig};
use duplexity_workloads::flann::FlannConfig;
use duplexity_workloads::SharedInputs;
use serde::{Deserialize, Serialize};

/// Computes the Figure 1(a) surface (see
/// [`duplexity_queueing::closed_loop`]).
#[must_use]
pub fn fig1a(points_per_decade: usize) -> Vec<SurfaceCell> {
    utilization_surface(points_per_decade)
}

/// One Figure 1(b) series: the idle-period CDF of an M/G/1 microservice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1bSeries {
    /// Service capacity in queries per second.
    pub qps: f64,
    /// Offered load fraction.
    pub load: f64,
    /// (idle duration µs, cumulative probability) points.
    pub cdf: Vec<(f64, f64)>,
}

/// Computes the six Figure 1(b) series (200K & 1M QPS × 30/50/70% load).
#[must_use]
pub fn fig1b(points: usize) -> Vec<Fig1bSeries> {
    let mut out = Vec::new();
    for qps in [200_000.0, 1_000_000.0] {
        for load in [0.3, 0.5, 0.7] {
            let max_t = 40.0; // µs, the figure's x-range
            let cdf = (0..=points)
                .map(|i| {
                    let t = max_t * i as f64 / points as f64;
                    (t, idle_period_cdf(qps, load, t))
                })
                .collect();
            out.push(Fig1bSeries { qps, load, cdf });
        }
    }
    out
}

/// The four §II-B FLANN sweep variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlannVariant {
    /// ~10µs compute, no stalls.
    Baseline,
    /// ~9–10µs compute per 1µs stall (90% effective utilization).
    C9S1,
    /// ~10µs compute per 10µs stall (50% effective utilization).
    C10S10,
    /// ~1µs compute per 1µs stall (50% utilization, 10× more frequent).
    C1S1,
}

impl FlannVariant {
    /// All variants in figure order.
    pub const ALL: [FlannVariant; 4] = [
        FlannVariant::Baseline,
        FlannVariant::C9S1,
        FlannVariant::C10S10,
        FlannVariant::C1S1,
    ];

    /// Display name matching the figure legend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlannVariant::Baseline => "baseline",
            FlannVariant::C9S1 => "FLANN-9-1",
            FlannVariant::C10S10 => "FLANN-10-10",
            FlannVariant::C1S1 => "FLANN-1-1",
        }
    }

    /// The FLANN configuration implementing this variant.
    #[must_use]
    pub fn config(self) -> FlannConfig {
        match self {
            FlannVariant::Baseline => FlannConfig::sweep_baseline(),
            FlannVariant::C9S1 => FlannConfig::sweep_9_1(),
            FlannVariant::C10S10 => FlannConfig::sweep_10_10(),
            FlannVariant::C1S1 => FlannConfig::sweep_1_1(),
        }
    }
}

impl std::fmt::Display for FlannVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One Figure 1(c) measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig1cPoint {
    /// Workload variant.
    pub variant: FlannVariant,
    /// SMT thread count.
    pub threads: usize,
    /// Aggregate retired micro-ops per cycle.
    pub ipc: f64,
    /// IPC normalized to the baseline variant's peak.
    pub normalized: f64,
}

/// Runs the Figure 1(c) thread sweep: saturated FLANN threads on one 4-wide
/// OoO core, scaling only thread count (plus architectural registers, per
/// the paper's protocol).
///
/// Each (variant, threads) point seeds its own engine and RNG, so the
/// points run as one [`ExecPool`] phase sized by `DUPLEXITY_THREADS`, with
/// bit-identical results at any worker count. Thread `t` of every point
/// searches the index built from `derive_stream(seed, t)`; the points share
/// one [`SharedInputs`], so each distinct (geometry, seed) index is built
/// once per call.
#[must_use]
pub fn fig1c(max_threads: usize, horizon_cycles: u64, seed: u64) -> Vec<Fig1cPoint> {
    let machine = MachineConfig::baseline();
    let inputs = SharedInputs::new();
    let points = FlannVariant::ALL.len() * max_threads;
    let mut raw = ExecPool::new(0).run("fig1c/points", points, |i| {
        let variant = FlannVariant::ALL[i / max_threads];
        let threads = 1 + i % max_threads;
        let mut engine = OooEngine::new(
            CoreConfig::baseline_ooo(),
            FetchPolicy::Icount,
            machine.cycles_per_us(),
        );
        for t in 0..threads {
            let kernel = inputs.flann(variant.config(), derive_stream(seed, t as u64));
            let stream = RequestStream::saturated(Box::new(kernel));
            engine.add_thread(
                Box::new(stream),
                if t == 0 {
                    ThreadClass::Primary
                } else {
                    ThreadClass::Secondary
                },
            );
        }
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(derive_stream(seed, 0xF1C + threads as u64));
        for now in 0..horizon_cycles {
            engine.step(now, &mut mem, &mut rng);
        }
        Fig1cPoint {
            variant,
            threads,
            ipc: engine.stats().ipc(),
            normalized: 0.0,
        }
    });
    let baseline_peak = raw
        .iter()
        .filter(|p| p.variant == FlannVariant::Baseline)
        .map(|p| p.ipc)
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    for p in &mut raw {
        p.normalized = p.ipc / baseline_peak;
    }
    if log_enabled() {
        log_line(&format!(
            "fig1c: {} points ({} variants × {max_threads} threads), baseline peak IPC {baseline_peak:.2}",
            raw.len(),
            FlannVariant::ALL.len(),
        ));
    }
    raw
}

/// The thread count at which a variant's throughput peaks.
#[must_use]
pub fn peak_threads(points: &[Fig1cPoint], variant: FlannVariant) -> Option<usize> {
    points
        .iter()
        .filter(|p| p.variant == variant)
        .max_by(|a, b| a.ipc.partial_cmp(&b.ipc).expect("finite ipc"))
        .map(|p| p.threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_has_expected_cells() {
        let cells = fig1a(2);
        assert!(cells.len() >= 81);
        assert!(cells.iter().all(|c| (0.0..=1.0).contains(&c.utilization)));
    }

    #[test]
    fn fig1b_matches_paper_anchors() {
        let series = fig1b(80);
        assert_eq!(series.len(), 6);
        // 1M QPS @ 50%: mean idle 2µs => CDF(2µs) = 1 - 1/e.
        let s = series
            .iter()
            .find(|s| s.qps == 1_000_000.0 && s.load == 0.5)
            .expect("series exists");
        let at_2us = s
            .cdf
            .iter()
            .find(|(t, _)| (*t - 2.0).abs() < 0.3)
            .expect("point");
        assert!((at_2us.1 - (1.0 - (-1.0f64).exp())).abs() < 0.1);
        // CDFs are monotone.
        for s in &series {
            for w in s.cdf.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        }
    }

    /// A scaled-down 1(c): stalled variants need more threads than the
    /// no-stall baseline, and heavy stalls cap attainable throughput.
    #[test]
    fn fig1c_shape_smoke() {
        // Small horizon and few thread points to keep the test fast; the
        // bench regenerates the full figure.
        let points: Vec<Fig1cPoint> = fig1c(8, 400_000, 3);
        let ipc_at = |v: FlannVariant, n: usize| {
            points
                .iter()
                .find(|p| p.variant == v && p.threads == n)
                .unwrap()
                .ipc
        };
        // More threads help every variant at the low end.
        assert!(ipc_at(FlannVariant::Baseline, 4) > 1.2 * ipc_at(FlannVariant::Baseline, 1));
        assert!(ipc_at(FlannVariant::C1S1, 8) > 1.5 * ipc_at(FlannVariant::C1S1, 1));
        // With equal thread counts, stalls depress throughput.
        assert!(ipc_at(FlannVariant::C10S10, 8) < ipc_at(FlannVariant::Baseline, 8));
    }
}
