//! Verifies the quiescence probe's claims against the naive stepper.
//!
//! `DyadSim::next_event_cycle` and `OooEngine::next_event_cycle` promise
//! that every cycle strictly before the returned event is a pure counter
//! bump: no retirement, no morphs, no remote ops, no memory traffic. These
//! tests run the *naive* loop and, after every probe that claims a
//! non-trivial span, check that promise cycle by cycle — so a violated
//! claim fails at the exact cycle it is first wrong, rather than as a
//! downstream metrics diff. They also tally the cycles each preset's claims
//! cover, so a preset that stops skipping altogether fails too.

use duplexity_cpu::dyad::{DyadConfig, DyadSim};
use duplexity_cpu::ooo::{FetchPolicy, OooEngine, SmtPartition, ThreadClass};
use duplexity_cpu::op::{LoopedTrace, MicroOp, Op, RequestKernel, NO_REG};
use duplexity_cpu::{Design, MemSys, RequestStream};
use duplexity_stats::rng::{rng_from_seed, SimRng};
use duplexity_uarch::config::MachineConfig;

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

/// One request: a serial chain with a load every fourth op and a branch
/// every sixteenth, then a 1 µs remote access and the op that reads it.
#[derive(Debug)]
struct StallHeavyKernel;

impl RequestKernel for StallHeavyKernel {
    fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
        for i in 0..192u64 {
            let op = match i % 16 {
                15 => Op::Branch {
                    taken: i % 32 == 15,
                    target: 0x80,
                },
                n if n % 4 == 3 => Op::Load {
                    addr: 0x20_0000 + i * 64,
                },
                _ => Op::IntAlu,
            };
            out.push(MicroOp::new(i * 4, op).with_srcs(0, NO_REG).with_dst(0));
        }
        out.push(MicroOp::new(0x400, Op::RemoteLoad { latency_us: 1.0 }).with_dst(1));
        out.push(
            MicroOp::new(0x404, Op::IntAlu)
                .with_srcs(1, NO_REG)
                .with_dst(0),
        );
    }

    fn nominal_service_us(&self) -> f64 {
        1.1
    }
}

/// A batch thread whose 96 KiB loop misses the L1-I on every line, so its
/// fetch blocks often, and which stalls 0.5 µs on a remote access per pass.
fn stalling_batch() -> Box<LoopedTrace> {
    let base = 0x4000_0000u64;
    let mut ops: Vec<MicroOp> = (0..384u64)
        .map(|i| {
            let op = if i % 3 == 0 {
                Op::Load {
                    addr: base + 0x100_0000 + (i * 64) % 65_536,
                }
            } else {
                Op::IntAlu
            };
            MicroOp::new(base + i * 256, op)
                .with_srcs((i % 4) as u8, NO_REG)
                .with_dst(((i + 1) % 4) as u8)
        })
        .collect();
    ops.push(MicroOp::new(base + 0x1_8000, Op::RemoteLoad { latency_us: 0.5 }).with_dst(4));
    ops.push(
        MicroOp::new(base + 0x1_8100, Op::IntAlu)
            .with_srcs(4, NO_REG)
            .with_dst(0),
    );
    Box::new(LoopedTrace::new(ops))
}

/// An out-of-order core configured for `design` the way `run_design`
/// configures it, with an open-loop master at 40% load.
fn ooo_core(design: Design) -> (OooEngine, MemSys) {
    let machine = MachineConfig::baseline();
    let cycles_per_us = design.clock_ghz() * 1000.0;
    let policy = if design == Design::SmtPlus {
        FetchPolicy::PrimaryFirst
    } else {
        FetchPolicy::Icount
    };
    let mut engine = OooEngine::new(machine.core, policy, cycles_per_us);
    if design == Design::SmtPlus {
        engine.set_partition(SmtPartition::paper());
    }
    engine.set_elfen(design == Design::Elfen);
    engine.set_runahead(design == Design::Runahead);
    let master = RequestStream::open_loop(Box::new(StallHeavyKernel), 0.4, 1.1, cycles_per_us);
    engine.add_thread(Box::new(master), ThreadClass::Primary);
    if !matches!(design, Design::Baseline | Design::Runahead) {
        engine.add_thread(stalling_batch(), ThreadClass::Secondary);
    }
    (engine, MemSys::table1(machine.latency))
}

/// The counters a quiescent cycle must leave alone: retirement, branches,
/// remote ops, completed requests and L1 accesses.
fn activity(engine: &OooEngine, mem: &MemSys) -> [u64; 7] {
    let s = engine.stats();
    [
        s.retired_primary,
        s.retired_secondary,
        s.branches,
        s.remote_ops,
        s.request_latencies_cycles.len() as u64,
        mem.l1d.stats().accesses(),
        mem.l1i.stats().accesses(),
    ]
}

#[test]
fn ooo_probe_claims_hold_under_naive_stepping() {
    let designs = [
        Design::Baseline,
        Design::Smt,
        Design::SmtPlus,
        Design::Elfen,
        Design::Runahead,
    ];
    let horizon = 300_000u64;
    let mut covered = Vec::new();
    for design in designs {
        let (mut engine, mut mem) = ooo_core(design);
        let mut rng = rng_from_seed(5);
        // Outstanding claim: (target, activity snapshot, cycle it was made).
        let mut claim: Option<(u64, [u64; 7], u64)> = None;
        let mut claimed = 0u64;
        for now in 0..horizon {
            engine.step(now, &mut mem, &mut rng);
            let next = now + 1;
            if let Some((target, snap, at)) = claim {
                let seen = activity(&engine, &mem);
                assert_eq!(
                    seen, snap,
                    "{design}: probe at cycle {at} claimed quiescence until {target}, \
                     but cycle {now} changed state",
                );
                if next >= target {
                    claim = None;
                }
            }
            if claim.is_none() {
                if let Some(t) = engine.next_event_cycle(next) {
                    if t > next {
                        claimed += t.min(horizon) - next;
                        claim = Some((t, activity(&engine, &mem), next));
                    }
                }
            }
        }
        covered.push((design, claimed));
    }
    println!("claimed cycles per preset: {covered:?}");
    // The master idles between open-loop requests and waits out its 1 µs
    // remote accesses, so Baseline's probe must claim those spans.
    assert!(covered[0].1 > 0, "Baseline claims nothing: {covered:?}");
}
