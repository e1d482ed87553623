//! Figure 2: lender-core design-space experiments.
//!
//! * **2(a)** — throughput of multithreaded SPEC-like mixes on a 4-wide core
//!   under out-of-order vs in-order issue as thread count grows (the
//!   OoO/InO gap closes near 8 threads, §III-A);
//! * **2(b)** — the analytic virtual-context provisioning model: the
//!   probability that at least 8 of `n` contexts are ready, for per-thread
//!   stall probabilities 0.1 and 0.5.

use crate::exec::ExecPool;
use duplexity_cpu::inorder::InoEngine;
use duplexity_cpu::memsys::MemSys;
use duplexity_cpu::ooo::{FetchPolicy, OooEngine, ThreadClass};
use duplexity_obs::{log_enabled, log_line};
use duplexity_stats::binomial::Binomial;
use duplexity_stats::rng::{derive_stream, rng_from_seed};
use duplexity_uarch::config::{CoreConfig, LatencyModel, MachineConfig};
use duplexity_workloads::specmix::mix_stream;
use serde::{Deserialize, Serialize};

/// One Figure 2(a) measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig2aPoint {
    /// Number of SMT threads.
    pub threads: usize,
    /// Aggregate IPC under out-of-order issue.
    pub ooo_ipc: f64,
    /// Aggregate IPC under in-order issue.
    pub ino_ipc: f64,
}

impl Fig2aPoint {
    /// The InO/OoO throughput ratio (→ 1 as the gap vanishes).
    #[must_use]
    pub fn ino_over_ooo(&self) -> f64 {
        if self.ooo_ipc == 0.0 {
            0.0
        } else {
            self.ino_ipc / self.ooo_ipc
        }
    }
}

/// Runs the Figure 2(a) sweep over `1..=max_threads` SPEC-like mix threads.
///
/// Each thread count seeds its own engines and RNGs, so the points run as
/// one [`ExecPool`] phase sized by `DUPLEXITY_THREADS`, with bit-identical
/// results at any worker count.
#[must_use]
pub fn fig2a(max_threads: usize, horizon_cycles: u64, seed: u64) -> Vec<Fig2aPoint> {
    let machine = MachineConfig::baseline();
    let points: Vec<Fig2aPoint> = ExecPool::new(0).run("fig2a/points", max_threads, |i| {
        let threads = i + 1;
        // Out-of-order run.
        let mut ooo = OooEngine::new(
            CoreConfig::baseline_ooo(),
            FetchPolicy::Icount,
            machine.cycles_per_us(),
        );
        for t in 0..threads {
            ooo.add_thread(mix_stream(t, seed), ThreadClass::Secondary);
        }
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(derive_stream(seed, 0x2A00 + threads as u64));
        for now in 0..horizon_cycles {
            ooo.step(now, &mut mem, &mut rng);
        }

        // In-order run with the same streams.
        let mut ino = InoEngine::new(threads, 4, false, machine.cycles_per_us(), 64);
        for t in 0..threads {
            ino.add_fixed_context(t, mix_stream(t, seed));
        }
        let mut mem2 = MemSys::table1(LatencyModel::default());
        let mut rng2 = rng_from_seed(derive_stream(seed, 0x2A80 + threads as u64));
        for now in 0..horizon_cycles {
            ino.step(now, &mut mem2, None, None, &mut rng2);
        }

        Fig2aPoint {
            threads,
            ooo_ipc: ooo.stats().ipc(),
            ino_ipc: ino.stats().ipc(),
        }
    });
    if log_enabled() {
        if let Some(last) = points.last() {
            log_line(&format!(
                "fig2a: {} thread points, InO/OoO ratio at {} threads: {:.2}",
                points.len(),
                last.threads,
                last.ino_over_ooo(),
            ));
        }
    }
    points
}

/// One Figure 2(b) point: P(k ≥ `physical`) with `n` virtual contexts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig2bPoint {
    /// Per-thread stall probability.
    pub stall_p: f64,
    /// Virtual contexts provisioned.
    pub n: u32,
    /// Probability at least 8 contexts are ready.
    pub p_ready: f64,
}

/// Computes the Figure 2(b) curves for stall probabilities 0.1 and 0.5 over
/// `8..=max_n` virtual contexts.
#[must_use]
pub fn fig2b(max_n: u32) -> Vec<Fig2bPoint> {
    let mut out = Vec::new();
    for stall_p in [0.1, 0.5] {
        for n in 8..=max_n {
            out.push(Fig2bPoint {
                stall_p,
                n,
                p_ready: Binomial::new(n, 1.0 - stall_p).sf_at_least(8),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_gap_closes_with_threads() {
        let points = fig2a(8, 300_000, 11);
        let one = points.iter().find(|p| p.threads == 1).unwrap();
        let eight = points.iter().find(|p| p.threads == 8).unwrap();
        // Single thread: OoO wins clearly.
        assert!(one.ino_over_ooo() < 0.85, "1T ratio {}", one.ino_over_ooo());
        // Eight threads: the gap (§III-A) has substantially closed.
        assert!(
            eight.ino_over_ooo() > one.ino_over_ooo() + 0.2,
            "1T {} vs 8T {}",
            one.ino_over_ooo(),
            eight.ino_over_ooo()
        );
        assert!(
            eight.ino_over_ooo() > 0.65,
            "8T ratio {}",
            eight.ino_over_ooo()
        );
    }

    #[test]
    fn fig2a_throughput_grows_with_threads() {
        let points = fig2a(8, 200_000, 12);
        let ipc = |n: usize| points.iter().find(|p| p.threads == n).unwrap();
        assert!(ipc(8).ino_ipc > 1.5 * ipc(1).ino_ipc);
        assert!(ipc(8).ooo_ipc >= ipc(1).ooo_ipc);
    }

    #[test]
    fn fig2b_matches_paper_anchors() {
        let points = fig2b(32);
        let p = |stall: f64, n: u32| {
            points
                .iter()
                .find(|q| q.stall_p == stall && q.n == n)
                .unwrap()
                .p_ready
        };
        // §III-A: 11 contexts suffice at 10% stall; 21 needed at 50%.
        assert!(p(0.1, 11) >= 0.9);
        assert!(p(0.5, 21) >= 0.9);
        assert!(p(0.5, 20) < 0.9);
        // Monotone in n.
        for stall in [0.1, 0.5] {
            let mut prev = 0.0;
            for n in 8..=32 {
                let v = p(stall, n);
                assert!(v >= prev - 1e-12);
                prev = v;
            }
        }
    }
}
