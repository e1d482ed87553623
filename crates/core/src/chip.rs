//! Chip-level simulation: several dyads sharing one NIC port.
//!
//! Figure 4(c) shows the Duplexity server processor as a sea of dyads; §VIII
//! checks that the shared interconnect can feed them all. This module scales
//! the single-dyad simulation out to a chip: `n` dyads run independently
//! (Table I gives each core private L1s and a private LLC slice, so dyads
//! couple only through the NIC), their remote-operation rates are summed
//! against one FDR 4× port, and the M/D/1 queueing delay at the port's IOPS
//! engine is reported so oversubscription is visible rather than silent.
//!
//! Dyads run as one `chip/dyads` phase on the [`ExecPool`], whose worker
//! count follows `DUPLEXITY_THREADS` — the simulations are deterministic per
//! dyad seed, so the result is independent of scheduling and worker count.

use crate::exec::ExecPool;
use crate::server::ServerSim;
use duplexity_cpu::designs::{Design, DesignMetrics};
use duplexity_net::NicModel;
use duplexity_stats::rng::derive_stream;
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Configuration of a chip-scale run.
#[derive(Debug, Clone, Copy)]
pub struct ChipConfig {
    /// Number of dyads on the chip (Fig. 4(c)).
    pub dyads: usize,
    /// The design occupying every latency-critical slot.
    pub design: Design,
    /// The microservice served by every master-thread.
    pub workload: Workload,
    /// Offered load per dyad.
    pub load: f64,
    /// Cycle horizon per dyad.
    pub horizon_cycles: u64,
    /// Base seed; dyad `i` runs with an independent derived stream.
    pub seed: u64,
    /// The shared NIC.
    pub nic: NicModel,
}

impl ChipConfig {
    /// A 14-dyad FDR-4× chip (§VIII's sharing bound), 50% load.
    #[must_use]
    pub fn paper_scale(design: Design, workload: Workload) -> Self {
        Self {
            dyads: 14,
            design,
            workload,
            load: 0.5,
            horizon_cycles: 1_500_000,
            seed: 42,
            nic: NicModel::fdr_4x(),
        }
    }
}

/// Aggregate results of a chip-scale run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChipMetrics {
    /// Per-dyad cycle-simulation metrics, in dyad order.
    pub per_dyad: Vec<DesignMetrics>,
    /// Mean master-core utilization across dyads.
    pub mean_utilization: f64,
    /// Aggregate batch throughput (micro-ops per µs) across the chip.
    pub batch_ops_per_us: f64,
    /// Aggregate remote operations per second offered to the NIC.
    pub nic_ops_per_second: f64,
    /// Fraction of the NIC's binding budget consumed.
    pub nic_utilization: f64,
    /// Mean M/D/1 queueing delay at the NIC's IOPS engine, µs.
    pub nic_queueing_delay_us: f64,
    /// All completed request latencies across dyads, µs.
    pub pooled_request_latencies_us: Vec<f64>,
}

impl ChipMetrics {
    /// The pooled p99 request latency, µs; `None` with too few requests.
    #[must_use]
    pub fn pooled_p99_us(&self) -> Option<f64> {
        if self.pooled_request_latencies_us.len() < 100 {
            return None;
        }
        let mut v = self.pooled_request_latencies_us.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = ((v.len() as f64) * 0.99).ceil() as usize;
        Some(v[rank.clamp(1, v.len()) - 1])
    }

    /// True if the offered remote traffic saturates the NIC port.
    #[must_use]
    pub fn nic_saturated(&self) -> bool {
        self.nic_utilization >= 1.0
    }
}

/// Runs `cfg.dyads` independent dyad simulations in parallel and aggregates
/// them against the shared NIC. Dyad `i` is a solo [`ServerSim`] run seeded
/// `derive_stream(cfg.seed, 0xC41C + i)`.
///
/// # Panics
///
/// Panics if `cfg.dyads == 0`, and propagates a panic from any dyad's
/// simulation.
#[must_use]
pub fn simulate_chip(cfg: &ChipConfig) -> ChipMetrics {
    assert!(cfg.dyads > 0, "a chip needs at least one dyad");
    let per_dyad = ExecPool::new(0).run("chip/dyads", cfg.dyads, |i| {
        ServerSim::new(cfg.design, cfg.workload)
            .load(cfg.load)
            .horizon_cycles(cfg.horizon_cycles)
            .seed(derive_stream(cfg.seed, 0xC41C + i as u64))
            .run()
    });

    let mean_utilization =
        per_dyad.iter().map(|m| m.utilization(4)).sum::<f64>() / cfg.dyads as f64;
    let batch_ops_per_us = per_dyad
        .iter()
        .map(|m| (m.colocated_retired + m.lender_retired) as f64 / m.wall_us().max(1e-9))
        .sum();
    let nic_ops_per_second = per_dyad
        .iter()
        .map(|m| (m.remote_ops_master + m.remote_ops_batch) as f64 / m.wall_us().max(1e-9) * 1e6)
        .sum();
    let pooled_request_latencies_us = per_dyad
        .iter()
        .flat_map(|m| m.request_latencies_us.iter().copied())
        .collect();

    ChipMetrics {
        mean_utilization,
        batch_ops_per_us,
        nic_ops_per_second,
        nic_utilization: cfg.nic.utilization(nic_ops_per_second, 64.0),
        nic_queueing_delay_us: cfg.nic.queueing_delay_us(nic_ops_per_second),
        pooled_request_latencies_us,
        per_dyad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(design: Design, dyads: usize) -> ChipConfig {
        ChipConfig {
            dyads,
            design,
            workload: Workload::FlannLl,
            load: 0.5,
            horizon_cycles: 500_000,
            seed: 7,
            nic: NicModel::fdr_4x(),
        }
    }

    #[test]
    fn chip_aggregates_scale_with_dyad_count() {
        let two = simulate_chip(&small(Design::Duplexity, 2));
        let four = simulate_chip(&small(Design::Duplexity, 4));
        assert_eq!(two.per_dyad.len(), 2);
        assert_eq!(four.per_dyad.len(), 4);
        // Remote traffic roughly doubles with dyad count.
        let ratio = four.nic_ops_per_second / two.nic_ops_per_second.max(1.0);
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
        // Utilization is a per-dyad mean, not a sum.
        assert!((two.mean_utilization - four.mean_utilization).abs() < 0.15);
    }

    #[test]
    fn fdr_port_sharing_bound_is_near_the_papers() {
        // §VIII: per-dyad traffic lands around 7% of one FDR port, so the
        // sharing bound is in the low teens. Our calibration puts each dyad
        // at ~7-8%, so 8 dyads fit comfortably and 20 saturate.
        let eight = simulate_chip(&ChipConfig {
            dyads: 8,
            horizon_cycles: 400_000,
            ..ChipConfig::paper_scale(Design::Duplexity, Workload::FlannLl)
        });
        assert!(
            !eight.nic_saturated(),
            "nic at {:.1}%",
            eight.nic_utilization * 100.0
        );
        assert!(
            eight.nic_utilization > 0.3,
            "traffic too low to be plausible"
        );
        assert!(eight.nic_queueing_delay_us < 0.1);
        let per_dyad = eight.nic_utilization / 8.0;
        assert!(
            (0.04..0.12).contains(&per_dyad),
            "per-dyad share {per_dyad} far from the paper's 7.1%"
        );

        // Oversubscription is reported, not hidden.
        let twenty = simulate_chip(&ChipConfig {
            dyads: 20,
            horizon_cycles: 300_000,
            ..ChipConfig::paper_scale(Design::Duplexity, Workload::FlannLl)
        });
        assert!(twenty.nic_saturated());
        assert!(twenty.nic_queueing_delay_us.is_infinite());
    }

    #[test]
    fn each_dyad_is_its_seeds_solo_run() {
        let cfg = small(Design::Duplexity, 3);
        let m = simulate_chip(&cfg);
        assert_eq!(m.per_dyad.len(), 3);
        // The pool keeps dyad order: dyad `i` is the solo run on its seed.
        for (i, dyad) in m.per_dyad.iter().enumerate() {
            let solo = ServerSim::new(cfg.design, cfg.workload)
                .load(cfg.load)
                .horizon_cycles(cfg.horizon_cycles)
                .seed(derive_stream(cfg.seed, 0xC41C + i as u64))
                .run();
            assert_eq!(*dyad, solo, "dyad {i} is not its seed's solo run");
        }
    }

    #[test]
    fn dyads_are_decorrelated_but_deterministic() {
        let a = simulate_chip(&small(Design::Duplexity, 3));
        let b = simulate_chip(&small(Design::Duplexity, 3));
        // Deterministic across runs (including the pooled fan-out).
        assert_eq!(a.per_dyad[0].master_retired, b.per_dyad[0].master_retired);
        assert_eq!(a.pooled_request_latencies_us, b.pooled_request_latencies_us);
        // Different dyads see different arrival sample paths.
        assert_ne!(a.per_dyad[0].master_retired, a.per_dyad[1].master_retired);
    }

    #[test]
    fn baseline_chip_offers_less_nic_traffic_than_duplexity() {
        let base = simulate_chip(&small(Design::Baseline, 2));
        let dup = simulate_chip(&small(Design::Duplexity, 2));
        assert!(dup.nic_ops_per_second > base.nic_ops_per_second);
        assert!(dup.batch_ops_per_us > base.batch_ops_per_us);
    }

    #[test]
    fn pooled_p99_needs_enough_samples() {
        let m = simulate_chip(&small(Design::Baseline, 1));
        // 500k cycles of FLANN-LL at 50% load -> tens of requests only.
        if m.pooled_request_latencies_us.len() >= 100 {
            assert!(m.pooled_p99_us().is_some());
        } else {
            assert!(m.pooled_p99_us().is_none());
        }
    }
}
