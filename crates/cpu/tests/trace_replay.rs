//! Replaying decoded traces at the edge of what the decoder accepts.
//!
//! `Trace::read_from` accepts any finite, non-negative `RemoteLoad`
//! latency, so a replayed trace can ask for a stall far beyond any
//! simulated horizon. Such a stall must hold its thread for the rest of the
//! run: the completion cycle saturates instead of overflowing (which
//! panics under debug assertions and, in release, wraps to a stall that
//! ends before it began). A decoded request may likewise end at any
//! arrival cycle, and its completion stamp saturates the same way. The
//! property at the end feeds the decoder random and corrupted bytes, and
//! replays whatever it accepts on every engine kind.

use duplexity_cpu::dyad::{DyadConfig, DyadSim};
use duplexity_cpu::ooo::ThreadClass;
use duplexity_cpu::op::{InstructionStream, LoopedTrace, MicroOp, Op, NO_REG};
use duplexity_cpu::{
    ContextPool, FetchPolicy, InoEngine, MemSys, OooEngine, Trace, VirtualContext,
};
use duplexity_obs::{ThreadTag, TraceEvent, Tracer};
use duplexity_stats::rng::rng_from_seed;
use duplexity_uarch::config::{CoreConfig, LatencyModel};
use proptest::prelude::*;

/// A remote latency that is finite, yet far beyond `u64::MAX` cycles.
const HUGE_US: f64 = 1e300;

/// Ops retired before the huge load in each pass of the trace.
const OPS_BEFORE: u64 = 2;

/// `ops` encoded to trace bytes and decoded back.
fn round_trip(ops: Vec<MicroOp>) -> Trace {
    let mut bytes = Vec::new();
    Trace::from_ops(ops).write_to(&mut bytes).unwrap();
    Trace::read_from(bytes.as_slice()).expect("an encoded trace decodes")
}

/// Two independent ops, the huge remote load into r5, then an op that
/// reads r5 — encoded to trace bytes and decoded back, looped.
fn decoded_stall_trace() -> Box<dyn InstructionStream> {
    let huge = Op::RemoteLoad {
        latency_us: HUGE_US,
    };
    let ops = vec![
        MicroOp::new(0x40, Op::IntAlu).with_dst(1),
        MicroOp::new(0x44, Op::IntAlu).with_dst(2),
        MicroOp::new(0x48, huge).with_dst(5),
        MicroOp::new(0x4C, Op::IntAlu)
            .with_srcs(5, NO_REG)
            .with_dst(3),
    ];
    Box::new(round_trip(ops).into_looped_stream())
}

#[test]
fn in_order_engine_holds_a_huge_remote_stall() {
    let mut engine = InoEngine::new(1, 4, false, 3400.0, 64);
    engine.add_fixed_context(0, decoded_stall_trace());
    let mut mem = MemSys::table1(LatencyModel::default());
    let mut rng = rng_from_seed(5);
    for now in 0..20_000 {
        engine.step(now, &mut mem, None, None, &mut rng);
    }
    // The in-order engine retires the load at issue and stalls its reader.
    assert_eq!(engine.stats().retired_secondary, OPS_BEFORE + 1);
    assert_eq!(engine.stats().remote_ops, 1);
}

#[test]
fn out_of_order_engine_holds_a_huge_remote_stall() {
    let mut engine = OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::Icount, 3400.0);
    engine.add_thread(decoded_stall_trace(), ThreadClass::Primary);
    let mut mem = MemSys::table1(LatencyModel::default());
    let mut rng = rng_from_seed(5);
    for now in 0..20_000 {
        engine.step(now, &mut mem, &mut rng);
    }
    // Retirement is in order, so nothing retires past the load.
    assert_eq!(engine.stats().retired_primary, OPS_BEFORE);
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
fn every_dyad_preset_holds_a_huge_master_stall_at_both_steppings() {
    let configs: [(&str, DyadConfig); 4] = [
        ("morphcore", DyadConfig::morphcore()),
        ("morphcore_plus", DyadConfig::morphcore_plus()),
        ("duplexity_replication", DyadConfig::duplexity_replication()),
        ("duplexity", DyadConfig::duplexity()),
    ];
    for (name, cfg) in configs {
        let build = || {
            let mut dyad = DyadSim::new(cfg, decoded_stall_trace());
            for id in 0..8 {
                if cfg.hsmt_fillers {
                    dyad.add_batch_thread(id, batch_stream(id));
                } else {
                    dyad.add_fixed_filler(id, batch_stream(id));
                }
            }
            dyad
        };
        let mut naive = build();
        naive.run_naive(200_000, &mut rng_from_seed(11));
        let mut fast = build();
        fast.run(200_000, &mut rng_from_seed(11));
        let m = naive.metrics();
        assert_eq!(m, fast.metrics(), "{name}");
        assert_eq!(m.master_retired, OPS_BEFORE, "{name}");
    }
}

#[test]
fn a_far_future_arrival_completes_no_earlier_than_it_arrives() {
    let mut last = MicroOp::new(0x44, Op::IntAlu);
    last.end_of_request = Some(u64::MAX);
    let trace = round_trip(vec![MicroOp::new(0x40, Op::IntAlu), last]);
    let mut engine = OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::Icount, 3400.0);
    engine.add_thread(Box::new(trace.into_looped_stream()), ThreadClass::Primary);
    let tracer = Tracer::enabled(1 << 12, 3400.0);
    engine.set_tracer(&tracer);
    let mut mem = MemSys::table1(LatencyModel::default());
    let mut rng = rng_from_seed(5);
    for now in 0..500 {
        engine.step(now, &mut mem, &mut rng);
    }
    let log = tracer.take();
    assert_eq!(log.dropped, 0);
    let mut arrived = None;
    let mut completed = 0;
    for ev in log.events {
        match ev {
            TraceEvent::RequestArrive { at } => arrived = Some(at),
            TraceEvent::RequestComplete { at, .. } => {
                let arrival = arrived.take().expect("each completion follows its arrival");
                assert!(
                    at >= arrival,
                    "completed at {at}, before arriving at {arrival}"
                );
                completed += 1;
            }
            _ => {}
        }
    }
    assert!(completed > 100, "{completed} requests completed");
}

/// Cycles each accepted trace replays for, per engine and tracing mode.
const REPLAY_CYCLES: u64 = 2_000;

/// A `u64` that is small, uniformly random, or within 8 of `u64::MAX`.
fn edge_u64() -> impl Strategy<Value = u64> {
    (0u8..3, any::<u64>()).prop_map(|(kind, r)| match kind {
        0 => r % 4096,
        1 => r,
        _ => u64::MAX - r % 8,
    })
}

/// A register in the 32-entry file, or `NO_REG` a third of the time.
fn register() -> impl Strategy<Value = u8> {
    (0u8..48).prop_map(|r| if r < 32 { r } else { NO_REG })
}

/// One micro-op of any kind, its fields at the edges the decoder accepts.
fn arb_op() -> impl Strategy<Value = MicroOp> {
    const LATENCIES_US: [f64; 5] = [0.0, 1e-9, 1.0, 1e300, f64::MAX];
    (
        edge_u64(),
        0u8..8,
        edge_u64(),
        0usize..LATENCIES_US.len(),
        (register(), register(), register()),
        prop::option::of(edge_u64()),
    )
        .prop_map(|(pc, kind, payload, lat, (s1, s2, dst), end_of_request)| {
            let op = match kind {
                0 => Op::IntAlu,
                1 => Op::IntMul,
                2 => Op::FpAlu,
                3 => Op::Load { addr: payload },
                4 => Op::Store { addr: payload },
                5 | 6 => Op::Branch {
                    taken: kind == 5,
                    target: payload,
                },
                _ => Op::RemoteLoad {
                    latency_us: LATENCIES_US[lat],
                },
            };
            MicroOp {
                pc,
                op,
                srcs: [s1, s2],
                dst: (dst != NO_REG).then_some(dst),
                end_of_request,
            }
        })
}

/// Replays `trace` for [`REPLAY_CYCLES`] on an HSMT in-order lender, an
/// out-of-order core, a MorphCore dyad and a Duplexity dyad, with `tracer`
/// attached to each.
fn replay(trace: &Trace, tracer: &Tracer) {
    let stream = || Box::new(trace.clone().into_looped_stream());
    let mut mem = MemSys::table1(LatencyModel::default());
    let mut rng = rng_from_seed(3);

    let mut lender = InoEngine::lender(3400.0, 64);
    lender.set_tracer(tracer, ThreadTag::Lender);
    let mut pool = ContextPool::new();
    for id in 0..2 {
        pool.add(VirtualContext::new(id, stream()));
    }
    for now in 0..REPLAY_CYCLES {
        lender.step(now, &mut mem, None, Some(&mut pool), &mut rng);
    }

    let mut ooo = OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::Icount, 3400.0);
    ooo.add_thread(stream(), ThreadClass::Primary);
    ooo.set_tracer(tracer);
    for now in 0..REPLAY_CYCLES {
        ooo.step(now, &mut mem, &mut rng);
    }

    for cfg in [DyadConfig::morphcore(), DyadConfig::duplexity()] {
        let mut dyad = DyadSim::new(cfg, stream());
        for id in 0..2 {
            if cfg.hsmt_fillers {
                dyad.add_batch_thread(id, stream());
            } else {
                dyad.add_fixed_filler(id, stream());
            }
        }
        dyad.set_tracer(tracer);
        dyad.run(REPLAY_CYCLES, &mut rng);
        dyad.flush_trace_registry();
    }
}

#[test]
fn an_empty_trace_replays_on_every_engine_kind() {
    replay(&Trace::new(), &Tracer::disabled());
    replay(&Trace::new(), &Tracer::enabled(1 << 10, 3400.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The decoder returns, never panics, on an encoded trace with bytes
    /// overwritten and, in half the cases, its tail cut; every trace it
    /// accepts, an empty one included, replays on every engine kind, traced
    /// and untraced.
    #[test]
    fn decoded_traces_replay_without_panicking(
        ops in prop::collection::vec(arb_op(), 0..16),
        overwrites in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        keep in prop::option::of(any::<usize>()),
    ) {
        let mut bytes = Vec::new();
        Trace::from_ops(ops.clone()).write_to(&mut bytes).unwrap();
        let clean = Trace::read_from(bytes.as_slice());
        prop_assert_eq!(clean.as_ref().ok(), Some(&Trace::from_ops(ops)));
        for (at, byte) in overwrites {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if let Some(keep) = keep {
            bytes.truncate(keep % (bytes.len() + 1));
        }
        let corrupted = Trace::read_from(bytes.as_slice());
        for trace in [clean, corrupted].iter().flatten() {
            replay(trace, &Tracer::disabled());
            replay(trace, &Tracer::enabled(1 << 10, 3400.0));
        }
    }
}
