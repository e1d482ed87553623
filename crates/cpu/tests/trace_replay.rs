//! Replaying decoded traces at the edge of what the decoder accepts.
//!
//! `Trace::read_from` accepts any finite, non-negative `RemoteLoad`
//! latency, so a replayed trace can ask for a stall far beyond any
//! simulated horizon. Such a stall must hold its thread for the rest of the
//! run: the completion cycle saturates instead of overflowing (which
//! panics under debug assertions and, in release, wraps to a stall that
//! ends before it began).

use duplexity_cpu::dyad::{DyadConfig, DyadSim};
use duplexity_cpu::ooo::ThreadClass;
use duplexity_cpu::op::{InstructionStream, LoopedTrace, MicroOp, Op, NO_REG};
use duplexity_cpu::{FetchPolicy, InoEngine, MemSys, OooEngine, Trace};
use duplexity_stats::rng::rng_from_seed;
use duplexity_uarch::config::{CoreConfig, LatencyModel};

/// A remote latency that is finite, yet far beyond `u64::MAX` cycles.
const HUGE_US: f64 = 1e300;

/// Ops retired before the huge load in each pass of the trace.
const OPS_BEFORE: u64 = 2;

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
    let mut bytes = Vec::new();
    Trace::from_ops(ops).write_to(&mut bytes).unwrap();
    let trace = Trace::read_from(bytes.as_slice()).expect("a finite latency decodes");
    Box::new(trace.into_looped_stream())
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
