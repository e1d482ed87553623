//! The seven evaluated server designs (§V "Design Configurations").
//!
//! | # | Design | Mechanism |
//! |---|--------|-----------|
//! | 1 | [`Design::Baseline`] | 4-wide OoO, microservice only |
//! | 2 | [`Design::Smt`] | + one SMT batch thread, ICOUNT |
//! | 3 | [`Design::SmtPlus`] | SMT with priority + 30% storage cap |
//! | 4 | [`Design::MorphCore`] | morphs to 8-thread InO, dedicated fillers |
//! | 5 | [`Design::MorphCorePlus`] | MorphCore + HSMT pool + lender-core |
//! | 6 | [`Design::DuplexityReplication`] | dyad, all state replicated |
//! | 7 | [`Design::Duplexity`] | dyad, L0-filtered lender-cache sharing |
//!
//! [`run_design`] executes one design against a scenario and returns the
//! uniform [`DesignMetrics`] consumed by the experiment drivers.

use crate::dyad::{DyadConfig, DyadSim};
use crate::memsys::MemSys;
use crate::ooo::{FetchPolicy, OooEngine, SmtPartition, ThreadClass};
use crate::op::{InstructionStream, RequestKernel};
use crate::request::RequestStream;
use duplexity_obs::Tracer;
use duplexity_stats::rng::rng_from_seed;
use duplexity_uarch::config::MachineConfig;
use serde::{Deserialize, Serialize};

/// One of the seven evaluated server designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// 4-wide OoO running only the latency-critical microservice.
    Baseline,
    /// Baseline plus one SMT batch thread under ICOUNT, no prioritization.
    Smt,
    /// SMT with strict latency-thread priority and a 30% co-runner storage cap.
    SmtPlus,
    /// Elfen scheduling \[45\] (extension, not in the paper's Figure 5 matrix):
    /// the batch SMT thread borrows the lane only while the latency thread
    /// naps, and deschedules itself when it wakes.
    Elfen,
    /// Runahead execution \[53\] (extension): the baseline core keeps
    /// pseudo-executing past µs-scale stalls to warm caches/predictors.
    /// §II argues this cannot fill killer-microsecond holes; this design
    /// makes that measurable.
    Runahead,
    /// MorphCore \[49\]: morphs to 8 dedicated in-order filler threads.
    MorphCore,
    /// MorphCore extended with HSMT and a paired lender-core.
    MorphCorePlus,
    /// Duplexity with all master-core stateful structures replicated.
    DuplexityReplication,
    /// The final Duplexity design.
    Duplexity,
}

impl Design {
    /// The paper's seven designs in presentation order.
    pub const ALL: [Design; 7] = [
        Design::Baseline,
        Design::Smt,
        Design::SmtPlus,
        Design::MorphCore,
        Design::MorphCorePlus,
        Design::DuplexityReplication,
        Design::Duplexity,
    ];

    /// The paper's designs plus this reproduction's extensions.
    pub const ALL_WITH_EXTENSIONS: [Design; 9] = [
        Design::Baseline,
        Design::Smt,
        Design::SmtPlus,
        Design::Elfen,
        Design::Runahead,
        Design::MorphCore,
        Design::MorphCorePlus,
        Design::DuplexityReplication,
        Design::Duplexity,
    ];

    /// Core clock in GHz (Table II; mode muxes cost cycle time).
    #[must_use]
    pub fn clock_ghz(self) -> f64 {
        match self {
            Design::Baseline | Design::Runahead => 3.4,
            Design::Smt | Design::SmtPlus | Design::Elfen => 3.35,
            Design::MorphCore | Design::MorphCorePlus => 3.3,
            Design::DuplexityReplication | Design::Duplexity => 3.25,
        }
    }

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Design::Baseline => "Baseline",
            Design::Smt => "SMT",
            Design::SmtPlus => "SMT+",
            Design::Elfen => "Elfen",
            Design::Runahead => "Runahead",
            Design::MorphCore => "MorphCore",
            Design::MorphCorePlus => "MorphCore+",
            Design::DuplexityReplication => "Duplexity+repl",
            Design::Duplexity => "Duplexity",
        }
    }

    /// True for designs that include a lender-core inside the dyad.
    #[must_use]
    pub fn has_lender(self) -> bool {
        matches!(
            self,
            Design::MorphCorePlus | Design::DuplexityReplication | Design::Duplexity
        )
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outer-loop strategy for advancing a cycle engine to its horizon.
///
/// Fast-forward is bit-identical to naive stepping: quiescent cycles draw
/// no RNG and retire nothing, and their counters are folded arithmetically
/// (`tests/fastforward_determinism.rs` proves it per design; the golden
/// fixtures pin it end to end). It is the default everywhere; `Naive` is
/// kept for differential tests and the perf benchmark's reference timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stepping {
    /// Step every cycle (reference semantics).
    Naive,
    /// Skip provably quiescent spans via `next_event_cycle` probes.
    #[default]
    FastForward,
}

/// Offered-load and duration parameters for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Offered load as a fraction of capacity; `None` = saturated (100%).
    pub load: Option<f64>,
    /// Mean master-thread service time in µs (sizes the arrival rate).
    pub service_us: f64,
    /// Cycles to simulate.
    pub horizon_cycles: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Uniform results from one design run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DesignMetrics {
    /// Wall-clock cycles simulated.
    pub wall_cycles: u64,
    /// Clock frequency used for µs conversion.
    pub clock_ghz: f64,
    /// Master-thread (latency-critical) micro-ops retired on the main core.
    pub master_retired: u64,
    /// Co-located batch micro-ops retired on the main core (SMT co-runner or
    /// borrowed fillers).
    pub colocated_retired: u64,
    /// Micro-ops retired on the lender-core (dyad designs only).
    pub lender_retired: u64,
    /// Completed request latencies in microseconds.
    pub request_latencies_us: Vec<f64>,
    /// µs-scale remote ops issued by the master-thread.
    pub remote_ops_master: u64,
    /// µs-scale remote ops issued by batch threads (co-runner / fillers /
    /// lender).
    pub remote_ops_batch: u64,
    /// Morph transitions (morphable designs).
    pub morphs: u64,
    /// Retired micro-ops per batch thread id, for STP.
    pub retired_by_ctx: Vec<u64>,
    /// Main-core microarchitectural summary (miss ratios, mispredicts).
    pub uarch: crate::metrics::UarchStats,
}

impl DesignMetrics {
    /// Main-core utilization (Fig. 5(a)): master + co-located retired over
    /// peak retire bandwidth. Lender-core instructions are excluded. A zero
    /// `width` yields 0 rather than a silent NaN.
    #[must_use]
    pub fn utilization(&self, width: usize) -> f64 {
        if self.wall_cycles == 0 || width == 0 {
            0.0
        } else {
            (self.master_retired + self.colocated_retired) as f64
                / (self.wall_cycles as f64 * width as f64)
        }
    }

    /// Simulated wall-clock time in microseconds.
    #[must_use]
    pub fn wall_us(&self) -> f64 {
        self.wall_cycles as f64 / (self.clock_ghz * 1000.0)
    }

    /// Mean request latency in µs; `None` if no requests completed.
    #[must_use]
    pub fn mean_latency_us(&self) -> Option<f64> {
        if self.request_latencies_us.is_empty() {
            None
        } else {
            Some(
                self.request_latencies_us.iter().sum::<f64>()
                    / self.request_latencies_us.len() as f64,
            )
        }
    }

    /// Aggregate batch throughput in micro-ops per cycle (co-located +
    /// lender), for STP-style comparisons.
    #[must_use]
    pub fn batch_ipc(&self) -> f64 {
        if self.wall_cycles == 0 {
            0.0
        } else {
            (self.colocated_retired + self.lender_retired) as f64 / self.wall_cycles as f64
        }
    }
}

/// Number of batch threads provisioned per dyad (§IV: 32 virtual contexts).
pub const BATCH_THREADS_PER_DYAD: usize = 32;

/// Runs `design` on a master-thread workload and a family of batch threads.
///
/// `filler_factory(id)` must produce independent batch-thread instruction
/// streams; it is called once per provisioned thread (1 for SMT designs, 8
/// for MorphCore, 32 for HSMT dyads).
///
/// The tracer's tick domain is set to the design's cycles-per-µs so
/// exported timestamps convert correctly; trace events consume no RNG
/// draws, so the returned metrics are bitwise identical with
/// [`Tracer::disabled`]. Every [`Stepping`] yields the same metrics too.
pub fn run_design(
    design: Design,
    scenario: &Scenario,
    master_kernel: Box<dyn RequestKernel>,
    mut filler_factory: impl FnMut(usize) -> Box<dyn InstructionStream>,
    tracer: &Tracer,
    stepping: Stepping,
) -> DesignMetrics {
    let clock = design.clock_ghz();
    let cycles_per_us = clock * 1000.0;
    let master: Box<dyn InstructionStream> = match scenario.load {
        Some(load) => Box::new(RequestStream::open_loop(
            master_kernel,
            load,
            scenario.service_us,
            cycles_per_us,
        )),
        None => Box::new(RequestStream::saturated(master_kernel)),
    };
    tracer.set_ticks_per_us(cycles_per_us);
    let mut rng = rng_from_seed(scenario.seed);

    match design {
        Design::Baseline | Design::Smt | Design::SmtPlus | Design::Elfen | Design::Runahead => {
            let mut machine = MachineConfig::baseline();
            machine.clock_ghz = clock;
            let policy = if design == Design::SmtPlus {
                FetchPolicy::PrimaryFirst
            } else {
                FetchPolicy::Icount
            };
            let mut engine = OooEngine::new(machine.core, policy, cycles_per_us);
            if design == Design::SmtPlus {
                engine.set_partition(SmtPartition::paper());
            }
            if design == Design::Elfen {
                engine.set_elfen(true);
            }
            if design == Design::Runahead {
                engine.set_runahead(true);
            }
            engine.set_tracer(tracer);
            engine.add_thread(master, ThreadClass::Primary);
            if !matches!(design, Design::Baseline | Design::Runahead) {
                engine.add_thread(filler_factory(0), ThreadClass::Secondary);
            }
            let mut mem = MemSys::table1(machine.latency);
            let horizon = scenario.horizon_cycles;
            match stepping {
                Stepping::Naive => {
                    for now in 0..horizon {
                        engine.step(now, &mut mem, &mut rng);
                    }
                }
                Stepping::FastForward => {
                    // Probe after each step; back off exponentially (max 32
                    // cycles) after failed probes. Backoff changes only when
                    // skips are *attempted*, never what a skip folds, so
                    // results stay bit-identical to the naive loop. The
                    // memory system changes only inside an access the engine
                    // makes, so it never wakes a core on its own and the
                    // engine's probe alone decides.
                    let mut now = 0u64;
                    let mut backoff: u64 = 0;
                    let mut wait: u64 = 0;
                    while now < horizon {
                        engine.step(now, &mut mem, &mut rng);
                        now += 1;
                        if wait > 0 {
                            wait -= 1;
                            continue;
                        }
                        let target = engine
                            .next_event_cycle(now)
                            .map_or(horizon, |e| e.min(horizon));
                        if target > now {
                            engine.skip_quiescent(now, target - now);
                            now = target;
                            backoff = 0;
                        } else {
                            backoff = (backoff * 2).clamp(1, 32);
                            wait = backoff;
                        }
                    }
                }
            }
            let s = engine.stats();
            DesignMetrics {
                wall_cycles: scenario.horizon_cycles,
                clock_ghz: clock,
                master_retired: s.retired_primary,
                colocated_retired: s.retired_secondary,
                lender_retired: 0,
                request_latencies_us: s
                    .request_latencies_cycles
                    .iter()
                    .map(|&c| c as f64 / cycles_per_us)
                    .collect(),
                remote_ops_master: s.remote_ops, // co-runner remotes counted too
                remote_ops_batch: 0,
                morphs: 0,
                retired_by_ctx: if design == Design::Baseline {
                    Vec::new()
                } else {
                    vec![s.retired_secondary]
                },
                uarch: crate::metrics::UarchStats::collect(&mem, s),
            }
        }
        Design::MorphCore
        | Design::MorphCorePlus
        | Design::DuplexityReplication
        | Design::Duplexity => {
            let mut cfg = match design {
                Design::MorphCore => DyadConfig::morphcore(),
                Design::MorphCorePlus => DyadConfig::morphcore_plus(),
                Design::DuplexityReplication => DyadConfig::duplexity_replication(),
                _ => DyadConfig::duplexity(),
            };
            cfg.machine.clock_ghz = clock;
            let mut dyad = DyadSim::new(cfg, master);
            dyad.set_tracer(tracer);
            if cfg.hsmt_fillers {
                for id in 0..BATCH_THREADS_PER_DYAD {
                    dyad.add_batch_thread(id, filler_factory(id));
                }
            } else {
                for id in 0..8 {
                    dyad.add_fixed_filler(id, filler_factory(id));
                }
            }
            match stepping {
                Stepping::Naive => dyad.run_naive(scenario.horizon_cycles, &mut rng),
                Stepping::FastForward => dyad.run(scenario.horizon_cycles, &mut rng),
            }
            dyad.flush_trace_registry();
            let m = dyad.take_metrics();
            DesignMetrics {
                wall_cycles: m.wall_cycles,
                clock_ghz: clock,
                master_retired: m.master_retired,
                colocated_retired: m.filler_retired_on_master,
                lender_retired: m.lender_retired,
                request_latencies_us: m
                    .request_latencies_cycles
                    .iter()
                    .map(|&c| c as f64 / cycles_per_us)
                    .collect(),
                remote_ops_master: m.remote_ops_master,
                remote_ops_batch: m.remote_ops_batch,
                morphs: m.morphs,
                retired_by_ctx: m.retired_by_ctx,
                uarch: m.master_uarch,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{LoopedTrace, MicroOp, Op, NO_REG};
    use duplexity_stats::rng::SimRng;

    /// A cache-sensitive microservice: a serial compute chain interleaved
    /// with loads over a reused 32KB working set, then a 1µs remote access.
    #[derive(Debug)]
    struct Kernel;
    impl RequestKernel for Kernel {
        fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
            for i in 0..1200u64 {
                if i % 3 == 0 {
                    out.push(
                        MicroOp::new(
                            i * 4,
                            Op::Load {
                                addr: 0x10_0000 + (i * 64) % 32_768,
                            },
                        )
                        .with_srcs(0, NO_REG)
                        .with_dst(0),
                    );
                } else {
                    out.push(
                        MicroOp::new(i * 4, Op::IntAlu)
                            .with_srcs(0, NO_REG)
                            .with_dst(0),
                    );
                }
            }
            out.push(
                MicroOp::new(8000, Op::RemoteLoad { latency_us: 1.0 })
                    .with_srcs(0, NO_REG)
                    .with_dst(1),
            );
            out.push(MicroOp::new(8004, Op::IntAlu).with_srcs(1, NO_REG));
        }
        fn nominal_service_us(&self) -> f64 {
            1.5
        }
    }

    /// Batch threads with graph-analytics character: loads over a mostly
    /// resident working set with periodic far misses, memory-level
    /// parallelism (dependency distance 8), and a 1µs remote stall per ~600
    /// ops.
    fn filler(id: usize) -> Box<dyn InstructionStream> {
        let base = 0x4000_0000 + 0x200_0000 * (id as u64 + 1);
        let mut ops = Vec::with_capacity(620);
        for i in 0..600u64 {
            let reg = (i % 8) as u8;
            if i % 2 == 0 {
                // Streams a 128KB ring (larger than the 64KB L1, so it
                // continuously evicts a co-located microservice's lines);
                // every 16th access strays far.
                let addr = if i % 32 == 30 {
                    base + 0x100_0000 + i * 4096
                } else {
                    base + 0x1_0000 + (i * 64) % 131_072
                };
                ops.push(MicroOp::new(base + i * 4, Op::Load { addr }).with_dst(reg));
            } else {
                ops.push(
                    MicroOp::new(base + i * 4, Op::IntAlu)
                        .with_srcs((i.wrapping_sub(8) % 8) as u8, NO_REG)
                        .with_dst(reg),
                );
            }
        }
        ops.push(MicroOp::new(base + 3000, Op::RemoteLoad { latency_us: 1.0 }).with_dst(8));
        Box::new(LoopedTrace::new(ops))
    }

    fn scenario() -> Scenario {
        Scenario {
            load: Some(0.5),
            service_us: 2.5,
            horizon_cycles: 1_500_000,
            seed: 99,
        }
    }

    fn run(design: Design) -> DesignMetrics {
        run_design(
            design,
            &scenario(),
            Box::new(Kernel),
            filler,
            &Tracer::disabled(),
            Stepping::FastForward,
        )
    }

    #[test]
    fn all_designs_execute() {
        for design in Design::ALL {
            let m = run(design);
            assert!(m.master_retired > 0, "{design}: no master progress");
            assert!(!m.request_latencies_us.is_empty(), "{design}: no requests");
        }
    }

    #[test]
    fn utilization_ordering_matches_paper() {
        // Fig. 5(a) ordering at moderate load: baseline lowest; Duplexity
        // variants highest.
        let base = run(Design::Baseline).utilization(4);
        let smt = run(Design::Smt).utilization(4);
        let dup = run(Design::Duplexity).utilization(4);
        assert!(smt > base, "SMT {smt} <= baseline {base}");
        assert!(dup > smt, "Duplexity {dup} <= SMT {smt}");
        assert!(dup > 2.0 * base, "Duplexity {dup} not >2x baseline {base}");
    }

    #[test]
    fn smt_plus_lower_colocated_than_smt() {
        let smt = run(Design::Smt);
        let plus = run(Design::SmtPlus);
        assert!(
            plus.colocated_retired < smt.colocated_retired,
            "SMT+ co-runner {} vs SMT {}",
            plus.colocated_retired,
            smt.colocated_retired
        );
    }

    #[test]
    fn duplexity_latency_lower_than_smt() {
        // SMT interference inflates master latency; Duplexity barely does.
        let smt = run(Design::Smt).mean_latency_us().unwrap();
        let dup = run(Design::Duplexity).mean_latency_us().unwrap();
        assert!(dup < smt, "Duplexity {dup}us vs SMT {smt}us");
    }

    #[test]
    fn lender_designs_report_lender_throughput() {
        for design in [
            Design::MorphCorePlus,
            Design::DuplexityReplication,
            Design::Duplexity,
        ] {
            let m = run(design);
            assert!(m.lender_retired > 0, "{design}: lender idle");
        }
        assert_eq!(run(Design::MorphCore).lender_retired, 0);
    }

    #[test]
    fn names_and_clocks() {
        assert_eq!(Design::Duplexity.name(), "Duplexity");
        assert_eq!(Design::Baseline.clock_ghz(), 3.4);
        assert!(Design::Duplexity.clock_ghz() < Design::Baseline.clock_ghz());
        assert!(Design::Duplexity.has_lender());
        assert!(!Design::MorphCore.has_lender());
    }

    #[test]
    fn metrics_helpers() {
        let m = DesignMetrics {
            wall_cycles: 1000,
            clock_ghz: 3.4,
            master_retired: 1000,
            colocated_retired: 1000,
            lender_retired: 2000,
            request_latencies_us: vec![2.0, 4.0],
            ..Default::default()
        };
        assert!((m.utilization(4) - 0.5).abs() < 1e-12);
        assert!((m.batch_ipc() - 3.0).abs() < 1e-12);
        assert!((m.mean_latency_us().unwrap() - 3.0).abs() < 1e-12);
        assert!((m.wall_us() - 1000.0 / 3400.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod elfen_tests {
    use super::*;
    use crate::op::{InstructionStream, LoopedTrace, MicroOp, Op, RequestKernel, NO_REG};
    use duplexity_stats::rng::SimRng;

    #[derive(Debug)]
    struct IdleHeavyKernel;
    impl RequestKernel for IdleHeavyKernel {
        fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
            for i in 0..800u64 {
                out.push(
                    MicroOp::new(i * 4, Op::IntAlu)
                        .with_srcs(0, NO_REG)
                        .with_dst(0),
                );
            }
        }
        fn nominal_service_us(&self) -> f64 {
            0.25
        }
    }

    fn batch(id: usize) -> Box<dyn InstructionStream> {
        let base = 0x7000_0000 + 0x100_0000 * id as u64;
        let ops: Vec<MicroOp> = (0..256)
            .map(|i| {
                MicroOp::new(
                    base + i * 4,
                    Op::Load {
                        addr: base + 0x10_000 + (i * 64) % 65_536,
                    },
                )
                .with_dst((i % 8) as u8)
            })
            .collect();
        Box::new(LoopedTrace::new(ops))
    }

    fn run(design: Design) -> DesignMetrics {
        let scenario = Scenario {
            load: Some(0.3),
            service_us: 0.25,
            horizon_cycles: 1_000_000,
            seed: 7,
        };
        run_design(
            design,
            &scenario,
            Box::new(IdleHeavyKernel),
            batch,
            &Tracer::disabled(),
            Stepping::FastForward,
        )
    }

    /// Elfen's batch thread makes real progress during naps...
    #[test]
    fn elfen_borrows_idle_lanes() {
        let m = run(Design::Elfen);
        assert!(m.colocated_retired > 0, "batch thread never ran");
        assert!(m.master_retired > 0);
    }

    /// ...but strictly less than unconstrained SMT, in exchange for far less
    /// interference with the latency thread.
    #[test]
    fn elfen_trades_batch_throughput_for_isolation() {
        let smt = run(Design::Smt);
        let elfen = run(Design::Elfen);
        assert!(
            elfen.colocated_retired < smt.colocated_retired,
            "Elfen {} vs SMT {}",
            elfen.colocated_retired,
            smt.colocated_retired
        );
        let smt_lat = smt.mean_latency_us().expect("requests completed");
        let elfen_lat = elfen.mean_latency_us().expect("requests completed");
        assert!(
            elfen_lat <= smt_lat * 1.02,
            "Elfen latency {elfen_lat} worse than SMT {smt_lat}"
        );
    }

    /// Elfen is an extension: present in ALL_WITH_EXTENSIONS, absent from the
    /// paper-faithful matrix.
    #[test]
    fn elfen_is_extension_only() {
        assert!(!Design::ALL.contains(&Design::Elfen));
        assert!(Design::ALL_WITH_EXTENSIONS.contains(&Design::Elfen));
        assert_eq!(Design::Elfen.name(), "Elfen");
        assert!(!Design::Elfen.has_lender());
    }
}

#[cfg(test)]
mod uarch_visibility_tests {
    use super::*;
    use crate::op::{InstructionStream, LoopedTrace, MicroOp, Op, RequestKernel, NO_REG};
    use duplexity_stats::rng::SimRng;

    #[derive(Debug)]
    struct CacheSensitiveKernel;
    impl RequestKernel for CacheSensitiveKernel {
        fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
            // A reused 16KB working set: hits once warm, unless a co-runner
            // evicts it.
            for i in 0..1200u64 {
                out.push(
                    MicroOp::new(
                        i * 4,
                        Op::Load {
                            addr: 0x9_0000 + (i * 64) % 16_384,
                        },
                    )
                    .with_srcs(0, NO_REG)
                    .with_dst(0),
                );
            }
        }
        fn nominal_service_us(&self) -> f64 {
            1.5
        }
    }

    fn hostile(id: usize) -> Box<dyn InstructionStream> {
        let base = 0x8000_0000 + 0x100_0000 * id as u64;
        let ops: Vec<MicroOp> = (0..512)
            .map(|i| {
                MicroOp::new(
                    base + i * 4,
                    Op::Load {
                        addr: base + 0x1_0000 + (i * 256) % 131_072,
                    },
                )
                .with_dst((i % 8) as u8)
            })
            .collect();
        Box::new(LoopedTrace::new(ops))
    }

    /// The new per-design uarch stats make the paper's interference story
    /// directly observable: SMT inflates the master's L1-D miss ratio;
    /// Duplexity does not.
    #[test]
    fn interference_is_visible_in_uarch_stats() {
        let scenario = Scenario {
            load: Some(0.5),
            service_us: 1.5,
            horizon_cycles: 1_200_000,
            seed: 3,
        };
        let run = |design: Design| {
            run_design(
                design,
                &scenario,
                Box::new(CacheSensitiveKernel),
                hostile,
                &Tracer::disabled(),
                Stepping::FastForward,
            )
        };
        let base = run(Design::Baseline);
        let smt = run(Design::Smt);
        let dup = run(Design::Duplexity);
        assert!(
            smt.uarch.l1d_miss_ratio > 2.0 * base.uarch.l1d_miss_ratio.max(0.001),
            "SMT co-runner must thrash the master L1: {} vs {}",
            smt.uarch.l1d_miss_ratio,
            base.uarch.l1d_miss_ratio
        );
        assert!(
            dup.uarch.l1d_miss_ratio < 0.5 * smt.uarch.l1d_miss_ratio,
            "Duplexity isolation must keep master misses near baseline: {} vs {}",
            dup.uarch.l1d_miss_ratio,
            smt.uarch.l1d_miss_ratio
        );
    }
}

#[cfg(test)]
mod runahead_tests {
    use super::*;
    use crate::op::{InstructionStream, LoopedTrace, MicroOp, Op, RequestKernel, NO_REG};
    use duplexity_stats::rng::SimRng;

    /// Compute over a reused working set, a 2µs remote stall, then compute
    /// that re-touches the same lines: a favorable setup for runahead.
    #[derive(Debug)]
    struct PrefetchableKernel;
    impl RequestKernel for PrefetchableKernel {
        fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
            for i in 0..400u64 {
                out.push(
                    MicroOp::new(
                        i * 4,
                        Op::Load {
                            addr: 0xA0_0000 + (i * 64) % 32_768,
                        },
                    )
                    .with_srcs(0, NO_REG)
                    .with_dst(0),
                );
            }
            out.push(
                MicroOp::new(4096, Op::RemoteLoad { latency_us: 2.0 })
                    .with_srcs(0, NO_REG)
                    .with_dst(1),
            );
            // Post-stall phase touches fresh lines runahead can prefetch.
            for i in 0..400u64 {
                out.push(
                    MicroOp::new(
                        8192 + i * 4,
                        Op::Load {
                            addr: 0xB0_0000 + i * 64,
                        },
                    )
                    .with_srcs(2, NO_REG)
                    .with_dst(2),
                );
            }
            out.push(MicroOp::new(16_384, Op::IntAlu).with_srcs(1, NO_REG));
        }
        fn nominal_service_us(&self) -> f64 {
            3.0
        }
    }

    fn batch(id: usize) -> Box<dyn InstructionStream> {
        let base = 0x9000_0000 + 0x100_0000 * id as u64;
        Box::new(LoopedTrace::new(
            (0..128)
                .map(|i| MicroOp::new(base + i * 4, Op::IntAlu))
                .collect(),
        ))
    }

    fn run(design: Design) -> DesignMetrics {
        let scenario = Scenario {
            load: Some(0.5),
            service_us: 3.0,
            horizon_cycles: 2_000_000,
            seed: 5,
        };
        run_design(
            design,
            &scenario,
            Box::new(PrefetchableKernel),
            batch,
            &Tracer::disabled(),
            Stepping::FastForward,
        )
    }

    /// §II's negative result, measured: runahead trims latency a little via
    /// prefetching, but recovers essentially none of the utilization hole —
    /// unlike Duplexity.
    #[test]
    fn runahead_cannot_fill_killer_microseconds() {
        let base = run(Design::Baseline);
        let ra = run(Design::Runahead);
        let dup = run(Design::Duplexity);

        // Latency: runahead helps (or at worst matches).
        let base_lat = base.mean_latency_us().unwrap();
        let ra_lat = ra.mean_latency_us().unwrap();
        assert!(
            ra_lat <= base_lat * 1.02,
            "runahead {ra_lat} vs baseline {base_lat}"
        );

        // Utilization: runahead retires nothing during stalls, so it stays
        // baseline-grade, while Duplexity multiplies it.
        assert!(
            ra.utilization(4) < 1.3 * base.utilization(4).max(0.001),
            "runahead util {} should be ~baseline {}",
            ra.utilization(4),
            base.utilization(4)
        );
        assert!(
            dup.utilization(4) > 3.0 * ra.utilization(4),
            "Duplexity {} vs runahead {}",
            dup.utilization(4),
            ra.utilization(4)
        );
    }

    /// Runahead must not corrupt correctness-visible accounting: every
    /// request still completes exactly once.
    #[test]
    fn runahead_replays_instructions_exactly_once() {
        let scenario = Scenario {
            load: Some(0.5),
            service_us: 3.0,
            horizon_cycles: 1_500_000,
            seed: 6,
        };
        let base = run_design(
            Design::Baseline,
            &scenario,
            Box::new(PrefetchableKernel),
            batch,
            &Tracer::disabled(),
            Stepping::FastForward,
        );
        let ra = run_design(
            Design::Runahead,
            &scenario,
            Box::new(PrefetchableKernel),
            batch,
            &Tracer::disabled(),
            Stepping::FastForward,
        );
        // Same arrivals, same per-request op counts: retired counts match to
        // within one in-flight request.
        let per_request = 400 + 1 + 400 + 1;
        let diff = (base.master_retired as i64 - ra.master_retired as i64).abs();
        assert!(
            diff <= 2 * per_request,
            "baseline {} vs runahead {} retired",
            base.master_retired,
            ra.master_retired
        );
    }

    #[test]
    fn runahead_is_extension_only() {
        assert!(!Design::ALL.contains(&Design::Runahead));
        assert!(Design::ALL_WITH_EXTENSIONS.contains(&Design::Runahead));
        assert_eq!(Design::Runahead.clock_ghz(), 3.4);
    }
}
