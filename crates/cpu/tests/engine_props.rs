//! Property-based tests over the cycle-level engines: arbitrary trace
//! programs must never break structural invariants.

use duplexity_cpu::inorder::InoEngine;
use duplexity_cpu::memsys::MemSys;
use duplexity_cpu::ooo::{FetchPolicy, OooEngine, SmtPartition, ThreadClass};
use duplexity_cpu::op::{LoopedTrace, MicroOp, Op, NO_REG};
use duplexity_cpu::pool::{ContextPool, VirtualContext};
use duplexity_stats::rng::rng_from_seed;
use duplexity_uarch::config::{CoreConfig, LatencyModel};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Strategy: one arbitrary micro-op with bounded fields.
fn arb_op() -> impl Strategy<Value = MicroOp> {
    (
        0u64..1 << 20,
        0u8..6,
        any::<bool>(),
        0u8..16,
        0u8..16,
        prop::option::of(0u8..16),
    )
        .prop_map(|(pc, kind, taken, s1, s2, dst)| {
            let op = match kind {
                0 => Op::IntAlu,
                1 => Op::IntMul,
                2 => Op::FpAlu,
                3 => Op::Load { addr: pc * 8 },
                4 => Op::Store { addr: pc * 8 + 4 },
                _ => Op::Branch {
                    taken,
                    target: pc + 64,
                },
            };
            let mut m = MicroOp::new(pc * 4, op).with_srcs(
                if s1 < 12 { s1 } else { NO_REG },
                if s2 < 8 { s2 } else { NO_REG },
            );
            if let Some(d) = dst {
                m = m.with_dst(d);
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The OoO engine retires at most `width` per cycle, never wedges on an
    /// arbitrary program, and keeps counters consistent.
    #[test]
    fn ooo_structural_invariants(
        ops in prop::collection::vec(arb_op(), 4..200),
        threads in 1usize..4,
    ) {
        let mut engine =
            OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::Icount, 3400.0);
        for t in 0..threads {
            let class = if t == 0 { ThreadClass::Primary } else { ThreadClass::Secondary };
            engine.add_thread(Box::new(LoopedTrace::new(ops.clone())), class);
        }
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(1);
        let horizon = 20_000u64;
        for now in 0..horizon {
            engine.step(now, &mut mem, &mut rng);
        }
        let s = engine.stats();
        prop_assert!(s.retired_total() > 0, "engine wedged");
        prop_assert!(s.retired_total() <= horizon * 4, "retired more than peak bandwidth");
        prop_assert!(s.utilization(4) <= 1.0 + 1e-9);
        prop_assert!(s.mispredicts <= s.branches);
    }

    /// SMT+ never starves the primary thread entirely.
    #[test]
    fn smt_plus_primary_progress(ops in prop::collection::vec(arb_op(), 8..120)) {
        let mut engine =
            OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::PrimaryFirst, 3400.0);
        engine.set_partition(SmtPartition::paper());
        engine.add_thread(Box::new(LoopedTrace::new(ops.clone())), ThreadClass::Primary);
        engine.add_thread(Box::new(LoopedTrace::new(ops)), ThreadClass::Secondary);
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(2);
        for now in 0..20_000u64 {
            engine.step(now, &mut mem, &mut rng);
        }
        prop_assert!(engine.stats().retired_primary > 0);
        // With identical programs, the prioritized primary keeps pace with
        // (or beats) the capped co-runner; a tiny deficit can arise only
        // from end-of-horizon skew.
        prop_assert!(
            engine.stats().retired_primary as f64
                >= 0.8 * engine.stats().retired_secondary as f64,
            "primary {} far behind secondary {}",
            engine.stats().retired_primary,
            engine.stats().retired_secondary
        );
    }

    /// The in-order engine preserves the same invariants with any program
    /// and any context count.
    #[test]
    fn ino_structural_invariants(
        ops in prop::collection::vec(arb_op(), 4..120),
        contexts in 1usize..8,
    ) {
        let mut engine = InoEngine::new(contexts, 4, false, 3400.0, 64);
        for c in 0..contexts {
            engine.add_fixed_context(c, Box::new(LoopedTrace::new(ops.clone())));
        }
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(3);
        let horizon = 20_000u64;
        for now in 0..horizon {
            engine.step(now, &mut mem, None, None, &mut rng);
        }
        let s = engine.stats();
        prop_assert!(s.retired_total() > 0, "engine wedged");
        prop_assert!(s.retired_total() <= horizon * 4);
        // Per-context accounting sums to the aggregate.
        let per: u64 = engine.retired_by_ctx().iter().sum();
        prop_assert_eq!(per, s.retired_secondary);
    }

    /// Remote-load-free programs never report remote ops; programs with them
    /// do (once the engine has run long enough to reach one).
    #[test]
    fn remote_accounting(stall_us in 0.01f64..2.0) {
        // Fully serial loop: alu -> remote -> alu -> (wraps) alu ...
        let ops = vec![
            MicroOp::new(0, Op::IntAlu).with_srcs(2, NO_REG).with_dst(0),
            MicroOp::new(4, Op::RemoteLoad { latency_us: stall_us })
                .with_srcs(0, NO_REG)
                .with_dst(1),
            MicroOp::new(8, Op::IntAlu).with_srcs(1, NO_REG).with_dst(2),
        ];
        let mut engine =
            OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::Icount, 3400.0);
        engine.add_thread(Box::new(LoopedTrace::new(ops)), ThreadClass::Primary);
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(4);
        for now in 0..60_000u64 {
            engine.step(now, &mut mem, &mut rng);
        }
        prop_assert!(engine.stats().remote_ops > 0);
        // Throughput is bounded by the serialized stall duty cycle.
        let cycles_per_iter = stall_us * 3400.0 + 2.0;
        let max_ops = 3.0 * 60_000.0 / cycles_per_iter;
        prop_assert!(
            (engine.stats().retired_total() as f64) < max_ops * 1.3 + 500.0,
            "retired {} exceeds stall-bound {}",
            engine.stats().retired_total(),
            max_ops
        );
    }
}

/// The pool's reference: a run queue of ids and a parking lot that every
/// poll scans in full, releasing due contexts in resume order.
#[derive(Default)]
struct ScanningPool {
    ready: VecDeque<usize>,
    parked: Vec<(u64, usize)>,
}

impl ScanningPool {
    fn poll(&mut self, now: u64) {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].0 <= now {
                due.push(self.parked.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|&(at, _)| at);
        self.ready.extend(due.into_iter().map(|(_, id)| id));
    }
}

proptest! {
    /// Whatever the interleaving of adds, parks, polls and takes, the pool
    /// hands out contexts in the same order as a pool that scans every
    /// parked context on every poll. Resume cycles are drawn from a narrow
    /// window, so many parked contexts tie.
    #[test]
    fn pool_take_order_matches_a_full_scan(
        calls in prop::collection::vec((0u8..4, 0u64..12), 1..400),
    ) {
        let mut pool = ContextPool::new();
        let mut reference = ScanningPool::default();
        // Contexts taken out of the pool, as physical contexts hold them.
        let mut loaded: Vec<VirtualContext> = Vec::new();
        let mut next_id = 0;
        let mut now = 0u64;
        for (k, &(call, x)) in calls.iter().enumerate() {
            match call {
                0 | 1 => {
                    let v = loaded.pop().unwrap_or_else(|| {
                        next_id += 1;
                        let op = MicroOp::new(0, Op::IntAlu);
                        VirtualContext::new(next_id, Box::new(LoopedTrace::new(vec![op])))
                    });
                    if call == 0 {
                        reference.ready.push_back(v.id);
                        pool.add(v);
                    } else {
                        reference.parked.push((now + x, v.id));
                        pool.park(v, now + x);
                    }
                }
                2 => {
                    now += x % 4;
                    pool.poll(now);
                    reference.poll(now);
                }
                _ => {
                    let v = pool.take();
                    prop_assert_eq!(v.as_ref().map(|v| v.id), reference.ready.pop_front(), "call {}", k);
                    loaded.extend(v);
                }
            }
            prop_assert_eq!(pool.ready_len(), reference.ready.len(), "call {}", k);
            prop_assert_eq!(pool.parked_len(), reference.parked.len(), "call {}", k);
        }
    }
}
