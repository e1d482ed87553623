//! Figure 6: interconnect (NIC IOPS) utilization per dyad (§VIII).

use super::fig5::Fig5Cell;
use duplexity_cpu::designs::Design;
use duplexity_net::NicModel;
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// One Figure 6 bar: NIC IOPS utilization of a dyad.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig6Cell {
    /// Design.
    pub design: Design,
    /// Microservice.
    pub workload: Workload,
    /// Offered load.
    pub load: f64,
    /// Remote operations per second issued by the dyad.
    pub ops_per_second: f64,
    /// Fraction of the FDR 4× port's 90M IOPS budget.
    pub nic_utilization: f64,
}

/// Derives Figure 6 from the Figure 5 cycle-simulation results: the remote
/// operation rates, charged against a single FDR 4× InfiniBand port.
#[must_use]
pub fn fig6(cells: &[Fig5Cell]) -> Vec<Fig6Cell> {
    let nic = NicModel::fdr_4x();
    cells
        .iter()
        .map(|c| {
            let ops_per_second = c.remote_ops_per_us * 1e6;
            Fig6Cell {
                design: c.design,
                workload: c.workload,
                load: c.load,
                ops_per_second,
                nic_utilization: nic.utilization(ops_per_second, 64.0),
            }
        })
        .collect()
}

/// The §VIII headline: how many dyads of the *worst-case* cell can share one
/// FDR port.
#[must_use]
pub fn dyads_per_port(cells: &[Fig6Cell]) -> usize {
    let worst = cells.iter().map(|c| c.nic_utilization).fold(0.0, f64::max);
    if worst <= 0.0 {
        usize::MAX
    } else {
        (1.0 / worst).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig5::{run_fig5, Fig5Options};
    use duplexity_queueing::des::Mg1Options;

    #[test]
    fn fig6_tracks_remote_traffic_and_fits_fdr() {
        let opts = Fig5Options {
            loads: vec![0.5],
            workloads: vec![Workload::FlannLl],
            designs: vec![Design::Baseline, Design::Duplexity],
            horizon_cycles: 1_000_000,
            seed: 7,
            queue: Mg1Options {
                max_samples: 60_000,
                ..Mg1Options::default()
            },
            ..Fig5Options::default()
        };
        let f5 = run_fig5(&opts);
        let f6 = fig6(&f5);
        assert_eq!(f6.len(), 2);
        let base = f6.iter().find(|c| c.design == Design::Baseline).unwrap();
        let dup = f6.iter().find(|c| c.design == Design::Duplexity).unwrap();
        // Duplexity raises network utilization (§VIII: +58% over baseline on
        // average) because fillers keep issuing remote reads.
        assert!(dup.nic_utilization > base.nic_utilization);
        // But stays a small fraction of an FDR port (§VIII: < 7.1%).
        assert!(dup.nic_utilization < 0.15, "nic {}", dup.nic_utilization);
        assert!(dyads_per_port(&f6) >= 6);
    }
}
