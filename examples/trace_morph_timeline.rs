//! Observe one Duplexity dyad morphing in cycle-domain traces.
//!
//! A single dyad serves a bimodal service: most requests carry a short
//! (~1.5µs) remote stall, every fourth one a long (~10µs) stall. The long
//! stalls push the master-core past its morph threshold, so the trace shows
//! the paper's §IV sequence directly: the master-thread stalls, the core
//! **morphs in**, filler contexts are **borrowed** from the lender's run
//! queue, and on wakeup the core **morphs out** and evicts the fillers.
//!
//! ```text
//! cargo run --example trace_morph_timeline
//! ```
//!
//! The example asserts the morph-in → borrow → morph-out ordering in the
//! recorded events, prints an event census, and writes a Chrome
//! `trace_event` JSON file you can open in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use duplexity_cpu::designs::Stepping;
use duplexity_cpu::op::{InstructionStream, LoopedTrace, MicroOp, Op, RequestKernel};
use duplexity_cpu::{run_design, Design, Scenario};
use duplexity_obs::{chrome_trace_json, TraceEvent, Tracer};
use duplexity_stats::rng::SimRng;
use std::collections::BTreeMap;

/// ~0.05µs of compute, then a remote stall that is usually short (1.5µs)
/// and occasionally long (10µs) — the bimodal mix that makes morphing both
/// worthwhile and visible.
#[derive(Debug, Default)]
struct BimodalService {
    calls: u64,
}

impl RequestKernel for BimodalService {
    fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
        for i in 0..600u64 {
            out.push(MicroOp::new(0x4000 + i * 8, Op::IntAlu));
        }
        let latency_us = if self.calls.is_multiple_of(4) {
            10.0
        } else {
            1.5
        };
        self.calls += 1;
        out.push(MicroOp::new(0x9000, Op::RemoteLoad { latency_us }));
    }

    fn nominal_service_us(&self) -> f64 {
        // mean stall (10 + 3·1.5)/4 ≈ 3.6µs plus the compute leg.
        3.7
    }
}

fn main() {
    let tracer = Tracer::enabled(1 << 16, 1000.0);
    let scenario = Scenario {
        load: Some(0.5),
        service_us: 3.7,
        horizon_cycles: 2_000_000,
        seed: 7,
    };
    let batch = |id: usize| -> Box<dyn InstructionStream> {
        let base = 0x100_0000 * (id as u64 + 1);
        Box::new(LoopedTrace::new(
            (0..96)
                .map(|i| MicroOp::new(base + i * 8, Op::IntAlu))
                .collect(),
        ))
    };
    let metrics = run_design(
        Design::Duplexity,
        &scenario,
        Box::new(BimodalService::default()),
        batch,
        &tracer,
        Stepping::FastForward,
    );
    let log = tracer.take();

    println!(
        "simulated {} cycles: {} morphs, {} master requests, {} trace events ({} dropped)",
        metrics.wall_cycles,
        metrics.morphs,
        metrics.request_latencies_us.len(),
        log.events.len(),
        log.dropped,
    );

    // Event census by name, in deterministic order.
    let mut census: BTreeMap<&'static str, usize> = BTreeMap::new();
    for ev in &log.events {
        *census.entry(ev.name()).or_default() += 1;
    }
    for (name, count) in &census {
        println!("  {name:<18} {count}");
    }

    // The §IV morph protocol must be observable in event order:
    // morph_in, then a filler borrow inside the window, then morph_out.
    let morph_in = log
        .events
        .iter()
        .position(|e| matches!(e, TraceEvent::MorphIn { .. }))
        .expect("the long stalls must trigger at least one morph");
    let borrow = log.events[morph_in..]
        .iter()
        .position(|e| matches!(e, TraceEvent::FillerBorrow { .. }))
        .map(|i| i + morph_in)
        .expect("a morphed master-core must borrow filler contexts");
    let morph_out = log.events[borrow..]
        .iter()
        .position(|e| matches!(e, TraceEvent::MorphOut { .. }))
        .map(|i| i + borrow)
        .expect("the master-thread's wakeup must morph the core back");
    println!(
        "morph protocol observed: morph_in @ event {morph_in} → filler_borrow @ {borrow} → morph_out @ {morph_out}"
    );
    assert!(metrics.morphs > 0);

    // Per-phase registry: native vs morphed cycle accounting.
    println!("\nregistry:");
    print!("{}", log.registry.to_json());

    // Export for chrome://tracing or ui.perfetto.dev, and prove it parses.
    let cells = vec![("duplexity-dyad".to_string(), log)];
    let json = chrome_trace_json(&cells);
    serde_json::parse_value(&json).expect("chrome trace JSON must parse");
    let path = std::env::temp_dir().join("trace_morph_timeline.json");
    std::fs::write(&path, &json).expect("write trace file");
    println!("\nwrote {} ({} bytes)", path.display(), json.len());
}
