//! Verifies the quiescence probe's claims against the naive stepper.
//!
//! `DyadSim::next_event_cycle` promises that every cycle strictly before
//! the returned event is a pure counter bump: no retirement, no morphs, no
//! remote ops, no memory traffic. This test runs the *naive* loop and,
//! after every probe that claims a non-trivial span, checks that promise
//! cycle by cycle — so a violated claim fails at the exact cycle it is
//! first wrong, rather than as a downstream metrics diff. It also tallies
//! the cycles each preset's claims cover, so a dyad that stops skipping
//! altogether fails too.

use duplexity_cpu::dyad::{DyadConfig, DyadSim};
use duplexity_cpu::op::{LoopedTrace, MicroOp, Op};
use duplexity_stats::rng::rng_from_seed;

fn stall_heavy_master() -> Box<LoopedTrace> {
    let mut ops = Vec::new();
    for i in 0..48u64 {
        ops.push(MicroOp::new(i * 4, Op::IntAlu).with_dst((i % 8) as u8));
    }
    ops.push(MicroOp::new(0x400, Op::RemoteLoad { latency_us: 1.0 }));
    Box::new(LoopedTrace::new(ops))
}

fn batch_stream(id: usize) -> Box<LoopedTrace> {
    let base = 0x10_0000 * (id as u64 + 1);
    Box::new(LoopedTrace::new(
        (0..64)
            .map(|i| MicroOp::new(base + i * 4, Op::IntAlu).with_dst((i % 4) as u8))
            .collect(),
    ))
}

#[test]
fn probe_claims_hold_under_naive_stepping() {
    let configs: [(&str, DyadConfig); 4] = [
        ("morphcore", DyadConfig::morphcore()),
        ("morphcore_plus", DyadConfig::morphcore_plus()),
        ("duplexity_replication", DyadConfig::duplexity_replication()),
        ("duplexity", DyadConfig::duplexity()),
    ];
    let mut covered = Vec::new();
    for (name, cfg) in configs {
        let mut dyad = DyadSim::new(cfg, stall_heavy_master());
        if cfg.hsmt_fillers {
            for id in 0..16 {
                dyad.add_batch_thread(id, batch_stream(id));
            }
        } else {
            for id in 0..8 {
                dyad.add_fixed_filler(id, batch_stream(id));
            }
        }
        let mut rng = rng_from_seed(11);
        let horizon = 120_000u64;
        // Outstanding claim: (target, metrics snapshot, cycle it was made).
        let mut claim: Option<(u64, duplexity_cpu::dyad::DyadMetrics, u64)> = None;
        let mut claimed = 0u64;
        while dyad.now() < horizon {
            dyad.step(&mut rng);
            if let Some((target, ref snap, at)) = claim {
                if dyad.now() <= target {
                    let m = dyad.metrics();
                    let frozen = m.master_retired == snap.master_retired
                        && m.filler_retired_on_master == snap.filler_retired_on_master
                        && m.lender_retired == snap.lender_retired
                        && m.morphs == snap.morphs
                        && m.remote_ops_master == snap.remote_ops_master
                        && m.remote_ops_batch == snap.remote_ops_batch
                        && m.retired_by_ctx == snap.retired_by_ctx
                        && m.request_latencies_cycles == snap.request_latencies_cycles;
                    assert!(
                        frozen,
                        "{name}: probe at cycle {at} claimed quiescence until {target}, \
                         but cycle {} changed state:\n  snap: {snap:?}\n  now:  {m:?}",
                        dyad.now() - 1,
                    );
                }
                if dyad.now() >= target {
                    claim = None;
                }
            }
            if claim.is_none() {
                if let Some(t) = dyad.next_event_cycle() {
                    if t > dyad.now() {
                        claimed += t.min(horizon) - dyad.now();
                        claim = Some((t, dyad.metrics(), dyad.now()));
                    }
                }
            }
        }
        covered.push((name, claimed));
    }
    // MorphCore's master OoO engine sits out µs-scale stalls too short to
    // morph for, and its probe skips them. A lender-core steps its
    // in-order engine every cycle, so the other presets never skip.
    assert!(covered[0].1 > 0, "morphcore claims nothing: {covered:?}");
    for &(name, claimed) in &covered[1..] {
        assert_eq!(claimed, 0, "{name} has a lender-core but claims quiescence");
    }
}
