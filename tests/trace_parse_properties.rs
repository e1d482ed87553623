//! `parse_trace_events` on damaged Chrome trace exports.
//!
//! A trace file may be cut short by a crash or damaged on its way to the
//! tool that reads it. Parsing one must return `Ok` or a typed `Err`, and
//! never panic or abort. The property overwrites bytes of a real dyad
//! export and cuts its tail; the deep-nesting test feeds the input that
//! used to overflow the parser's stack.

use duplexity_cpu::dyad::{DyadConfig, DyadSim};
use duplexity_cpu::op::{LoopedTrace, MicroOp, Op};
use duplexity_obs::{chrome_trace_json, parse_trace_events, TraceParseError, Tracer};
use duplexity_stats::rng::rng_from_seed;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The Chrome export of a traced Duplexity dyad whose master stalls 1 µs
/// per 49 ops: morph windows, borrows, returns and stall spans. It parses
/// undamaged, so the property starts from a valid document.
fn export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let mut master: Vec<MicroOp> = (0..48u64)
            .map(|i| MicroOp::new(i * 4, Op::IntAlu).with_dst((i % 8) as u8))
            .collect();
        master.push(MicroOp::new(0x400, Op::RemoteLoad { latency_us: 1.0 }));
        let mut dyad = DyadSim::new(DyadConfig::duplexity(), Box::new(LoopedTrace::new(master)));
        for id in 0..16 {
            let base = 0x10_0000 * (id as u64 + 1);
            let ops = (0..64)
                .map(|i| MicroOp::new(base + i * 4, Op::IntAlu).with_dst((i % 4) as u8))
                .collect();
            dyad.add_batch_thread(id, Box::new(LoopedTrace::new(ops)));
        }
        let tracer = Tracer::enabled(1 << 12, 3250.0);
        dyad.set_tracer(&tracer);
        dyad.run(40_000, &mut rng_from_seed(7));
        let json = chrome_trace_json(&[("dyad".to_string(), tracer.take())]);
        let events = parse_trace_events(&json).expect("a fresh export parses");
        assert!(events.len() > 100, "{} events", events.len());
        json
    })
}

#[test]
fn nesting_far_past_the_cap_is_an_error() {
    let deep = format!("{{\"traceEvents\":{}", "[".repeat(100_000));
    assert!(matches!(
        parse_trace_events(&deep),
        Err(TraceParseError::InvalidJson(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Overwritten bytes and, in half the cases, a cut tail: the parser
    /// returns either way. Bytes that break UTF-8 reach it as U+FFFD.
    #[test]
    fn damaged_exports_parse_or_fail_without_panicking(
        overwrites in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        keep in prop::option::of(any::<usize>()),
    ) {
        let mut bytes = export().as_bytes().to_vec();
        for (at, byte) in overwrites {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if let Some(keep) = keep {
            bytes.truncate(keep % (bytes.len() + 1));
        }
        let _ = parse_trace_events(&String::from_utf8_lossy(&bytes));
    }
}
