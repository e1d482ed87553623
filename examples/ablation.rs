//! Ablation studies over Duplexity's design parameters.
//!
//! These are not paper figures; they probe the design choices §III and §IV
//! argue for. Every run is one Duplexity dyad serving McRouter at 50% load
//! for 1.5M cycles (kernel and filler seed 42, run seed 7) with 32 filler
//! contexts, except where a sweep varies one of them:
//!
//! * **eviction latency** — the §III-B4 fast-spill mechanism (≈50 cycles)
//!   vs microcode-style register swapping (hundreds of cycles), measured by
//!   master-thread request latency;
//! * **virtual-context count** — §IV's claim that 32 contexts per dyad
//!   suffice, measured by master-core utilization as the pool shrinks;
//! * **morph threshold** — the minimum hole size worth morphing for;
//! * **stall-demarcation latency** — how late the core learns that the
//!   master-thread stalled (§IV "Demarcating stalls"), measured by filler
//!   throughput.
//!
//! ```text
//! cargo run --release --example ablation
//! ```
//!
//! Each sweep asserts the trend EXPERIMENTS.md reports for it.

use duplexity::ExecPool;
use duplexity_cpu::dyad::{DyadConfig, DyadMetrics, DyadSim};
use duplexity_cpu::request::RequestStream;
use duplexity_stats::rng::rng_from_seed;
use duplexity_workloads::graph::FillerFactory;
use duplexity_workloads::Workload;

const HORIZON_CYCLES: u64 = 1_500_000;

fn run_dyad(cfg: DyadConfig, contexts: usize) -> DyadMetrics {
    let w = Workload::McRouter;
    let master = RequestStream::open_loop(
        w.kernel(42),
        0.5,
        w.nominal_service_us(),
        cfg.machine.cycles_per_us(),
    );
    let mut dyad = DyadSim::new(cfg, Box::new(master));
    let fillers = FillerFactory::paper(42);
    for id in 0..contexts {
        dyad.add_batch_thread(id, fillers.stream(id));
    }
    let mut rng = rng_from_seed(7);
    dyad.run(HORIZON_CYCLES, &mut rng);
    dyad.metrics()
}

fn main() {
    println!("Ablation: filler-eviction latency vs master mean request latency");
    let evicts = [50u64, 250, 1000, 4000];
    let rows = ExecPool::from_env().run("ablation/evict", evicts.len(), |i| {
        let cfg = DyadConfig {
            morph_out_cycles: evicts[i],
            ..DyadConfig::duplexity()
        };
        let m = run_dyad(cfg, 32);
        let mean = m.request_latencies_cycles.iter().sum::<u64>() as f64
            / m.request_latencies_cycles.len().max(1) as f64
            / cfg.machine.cycles_per_us();
        (mean, m.master_core_utilization(4))
    });
    for (evict, (mean, util)) in evicts.iter().zip(&rows) {
        println!("  evict {evict:>5} cycles: mean latency {mean:.2}µs, util {util:.3}");
    }
    assert!(
        rows.windows(2).all(|w| w[0].0 < w[1].0),
        "mean master latency must rise with the spill cost"
    );

    println!("Ablation: virtual contexts per dyad vs master-core utilization");
    let counts = [8usize, 16, 24, 32];
    let rows = ExecPool::from_env().run("ablation/contexts", counts.len(), |i| {
        let m = run_dyad(DyadConfig::duplexity(), counts[i]);
        (m.master_core_utilization(4), m.filler_retired_on_master)
    });
    for (contexts, (util, fillers)) in counts.iter().zip(&rows) {
        println!("  {contexts:>2} contexts: util {util:.3}, filler ops {fillers}");
    }
    assert!(
        rows[..3].windows(2).all(|w| w[0].0 < w[1].0),
        "utilization must rise from 8 to 24 contexts"
    );
    // A known deviation from §IV: 32 contexts fill the holes less well than 24.
    assert!(rows[3].0 < rows[2].0, "32 contexts no longer trail 24");

    println!("Ablation: minimum morph gain (cycles) vs utilization and morph count");
    let gains = [250u64, 500, 2000, 8000];
    let rows = ExecPool::from_env().run("ablation/morph-gain", gains.len(), |i| {
        let cfg = DyadConfig {
            min_morph_gain_cycles: gains[i],
            ..DyadConfig::duplexity()
        };
        let m = run_dyad(cfg, 32);
        (m.master_core_utilization(4), m.morphs)
    });
    for (min_gain, (util, morphs)) in gains.iter().zip(&rows) {
        println!("  min gain {min_gain:>5}: util {util:.3}, morphs {morphs}");
    }
    assert!(
        rows.windows(2).all(|w| w[0].1 >= w[1].1),
        "a higher morph threshold must never add morphs"
    );

    println!("Ablation: stall-demarcation latency (§IV) vs filler throughput");
    let delays = [0u64, 100, 1000, 3400];
    let rows = ExecPool::from_env().run("ablation/detect", delays.len(), |i| {
        let cfg = DyadConfig {
            stall_detection_delay: delays[i],
            ..DyadConfig::duplexity()
        };
        let m = run_dyad(cfg, 32);
        (m.master_core_utilization(4), m.filler_retired_on_master)
    });
    for (delay, (util, fillers)) in delays.iter().zip(&rows) {
        println!("  detect {delay:>5} cycles: util {util:.3}, filler ops {fillers}");
    }
    assert!(
        rows.windows(2).all(|w| w[0].1 > w[1].1),
        "filler ops must fall as stall detection slows"
    );
}
