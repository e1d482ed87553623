//! High-level façade: one design serving one microservice at one load.

use duplexity_cpu::designs::{run_design, Design, DesignMetrics, Scenario, Stepping};
use duplexity_obs::Tracer;
use duplexity_workloads::graph::FillerFactory;
use duplexity_workloads::{SharedInputs, Workload};

/// A configured single-server (single-dyad) simulation.
///
/// Builder-style: set the load, horizon and seed, then [`ServerSim::run`].
///
/// # Examples
///
/// ```
/// use duplexity::{Design, ServerSim, Workload};
///
/// let metrics = ServerSim::new(Design::Baseline, Workload::WordStem)
///     .load(0.3)
///     .horizon_cycles(500_000)
///     .run();
/// assert!(metrics.wall_cycles > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServerSim {
    design: Design,
    workload: Workload,
    load: Option<f64>,
    horizon_cycles: u64,
    seed: u64,
    stepping: Stepping,
}

impl ServerSim {
    /// Creates a simulation of `design` serving `workload`, defaulting to
    /// 50% load, a 4M-cycle horizon, seed 42, and quiescence fast-forward
    /// stepping (bit-identical to naive stepping, just faster).
    #[must_use]
    pub fn new(design: Design, workload: Workload) -> Self {
        Self {
            design,
            workload,
            load: Some(0.5),
            horizon_cycles: 4_000_000,
            seed: 42,
            stepping: Stepping::default(),
        }
    }

    /// Sets the offered load as a fraction of capacity.
    ///
    /// # Panics
    ///
    /// Panics if `load` is outside `(0, 1)`.
    #[must_use]
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load < 1.0, "load must be in (0,1)");
        self.load = Some(load);
        self
    }

    /// Saturates the master-thread (back-to-back requests, §II-B protocol).
    #[must_use]
    pub fn saturated(mut self) -> Self {
        self.load = None;
        self
    }

    /// Sets the simulated horizon in master-core cycles.
    #[must_use]
    pub fn horizon_cycles(mut self, cycles: u64) -> Self {
        self.horizon_cycles = cycles;
        self
    }

    /// Sets the RNG seed (experiments are bit-reproducible per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the cycle-loop stepping strategy. [`Stepping::FastForward`]
    /// (the default) skips provably-quiescent µs-scale stall spans and is
    /// bit-identical to [`Stepping::Naive`]; `Naive` exists for differential
    /// testing and benchmarking.
    #[must_use]
    pub fn stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }

    /// The design under simulation.
    #[must_use]
    pub fn design(&self) -> Design {
        self.design
    }

    /// The microservice under simulation.
    #[must_use]
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Runs the cycle-level simulation and returns its metrics.
    #[must_use]
    pub fn run(&self) -> DesignMetrics {
        self.run_traced(&Tracer::disabled())
    }

    /// [`ServerSim::run`] with a cycle-domain tracer attached (see
    /// [`run_design`]). Tracing consumes no RNG draws, so the returned
    /// metrics are bit-identical to [`ServerSim::run`] whether the tracer
    /// is enabled or not.
    #[must_use]
    pub fn run_traced(&self, tracer: &Tracer) -> DesignMetrics {
        self.run_shared(tracer, &SharedInputs::new())
    }

    /// [`ServerSim::run_traced`] with its kernel and filler graph taken from
    /// `inputs`, so the runs of one experiment call build each input once.
    /// The graph is built only if the design runs filler threads.
    pub(crate) fn run_shared(&self, tracer: &Tracer, inputs: &SharedInputs) -> DesignMetrics {
        let scenario = Scenario {
            load: self.load,
            service_us: self.workload.nominal_service_us(),
            horizon_cycles: self.horizon_cycles,
            seed: self.seed,
        };
        let mut fillers = None;
        run_design(
            self.design,
            &scenario,
            inputs.kernel(self.workload, self.seed),
            |id| {
                fillers
                    .get_or_insert_with(|| inputs.fillers(self.seed))
                    .stream(id)
            },
            tracer,
            self.stepping,
        )
    }
}

/// A factory producing batch-thread instruction streams by thread id.
pub type BatchThreadFactory =
    Box<dyn FnMut(usize) -> Box<dyn duplexity_cpu::op::InstructionStream>>;

/// A simulation with a user-provided request kernel (and optionally custom
/// batch threads), for workloads beyond the paper's five.
///
/// # Examples
///
/// ```
/// use duplexity::server::CustomSim;
/// use duplexity::Design;
/// use duplexity_cpu::op::{MicroOp, Op, RequestKernel};
/// use duplexity_stats::rng::SimRng;
///
/// /// A toy service: 100 ALU ops then a 1µs remote call.
/// #[derive(Debug)]
/// struct MyService;
/// impl RequestKernel for MyService {
///     fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
///         for i in 0..100 {
///             out.push(MicroOp::new(i * 4, Op::IntAlu));
///         }
///         out.push(MicroOp::new(400, Op::RemoteLoad { latency_us: 1.0 }));
///     }
///     fn nominal_service_us(&self) -> f64 {
///         1.1
///     }
/// }
///
/// let m = CustomSim::new(Design::Duplexity, Box::new(MyService))
///     .load(0.4)
///     .horizon_cycles(400_000)
///     .run();
/// assert!(m.master_retired > 0);
/// ```
pub struct CustomSim {
    design: Design,
    kernel: Box<dyn duplexity_cpu::op::RequestKernel>,
    filler_factory: Option<BatchThreadFactory>,
    load: Option<f64>,
    service_us: f64,
    horizon_cycles: u64,
    seed: u64,
}

impl std::fmt::Debug for CustomSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomSim")
            .field("design", &self.design)
            .field("load", &self.load)
            .field("horizon_cycles", &self.horizon_cycles)
            .finish()
    }
}

impl CustomSim {
    /// Creates a simulation of `design` serving the user's `kernel`.
    /// Defaults: 50% load, 4M-cycle horizon, seed 42, the standard graph
    /// batch threads.
    #[must_use]
    pub fn new(design: Design, kernel: Box<dyn duplexity_cpu::op::RequestKernel>) -> Self {
        let service_us = kernel.nominal_service_us();
        Self {
            design,
            kernel,
            filler_factory: None,
            load: Some(0.5),
            service_us,
            horizon_cycles: 4_000_000,
            seed: 42,
        }
    }

    /// Sets the offered load.
    ///
    /// # Panics
    ///
    /// Panics if `load` is outside `(0, 1)`.
    #[must_use]
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load < 1.0, "load must be in (0,1)");
        self.load = Some(load);
        self
    }

    /// Saturates the master-thread.
    #[must_use]
    pub fn saturated(mut self) -> Self {
        self.load = None;
        self
    }

    /// Sets the simulated horizon.
    #[must_use]
    pub fn horizon_cycles(mut self, cycles: u64) -> Self {
        self.horizon_cycles = cycles;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Supplies custom batch-thread streams instead of the standard graph
    /// fillers.
    #[must_use]
    pub fn batch_threads(mut self, factory: BatchThreadFactory) -> Self {
        self.filler_factory = Some(factory);
        self
    }

    /// Runs the cycle-level simulation.
    #[must_use]
    pub fn run(self) -> DesignMetrics {
        let scenario = Scenario {
            load: self.load,
            service_us: self.service_us,
            horizon_cycles: self.horizon_cycles,
            seed: self.seed,
        };
        let off = Tracer::disabled();
        match self.filler_factory {
            Some(mut factory) => run_design(
                self.design,
                &scenario,
                self.kernel,
                |id| factory(id),
                &off,
                Stepping::FastForward,
            ),
            None => {
                let fillers = FillerFactory::paper(self.seed);
                run_design(
                    self.design,
                    &scenario,
                    self.kernel,
                    |id| fillers.stream(id),
                    &off,
                    Stepping::FastForward,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let s = ServerSim::new(Design::Duplexity, Workload::Rsc)
            .load(0.7)
            .horizon_cycles(123)
            .seed(9);
        assert_eq!(s.design(), Design::Duplexity);
        assert_eq!(s.workload(), Workload::Rsc);
    }

    #[test]
    fn runs_every_design_briefly() {
        for design in Design::ALL {
            let m = ServerSim::new(design, Workload::McRouter)
                .load(0.5)
                .horizon_cycles(400_000)
                .run();
            assert!(m.master_retired > 0, "{design}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            ServerSim::new(Design::Duplexity, Workload::FlannLl)
                .load(0.5)
                .horizon_cycles(300_000)
                .seed(5)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.master_retired, b.master_retired);
        assert_eq!(a.request_latencies_us, b.request_latencies_us);
    }

    #[test]
    #[should_panic(expected = "load must be in (0,1)")]
    fn rejects_bad_load() {
        let _ = ServerSim::new(Design::Baseline, Workload::WordStem).load(1.5);
    }

    #[test]
    fn custom_sim_with_custom_batch_threads() {
        use duplexity_cpu::op::{InstructionStream, LoopedTrace, MicroOp, Op, RequestKernel};
        use duplexity_stats::rng::SimRng;

        #[derive(Debug)]
        struct TinyService;
        impl RequestKernel for TinyService {
            fn generate(&mut self, _rng: &mut SimRng, out: &mut Vec<MicroOp>) {
                for i in 0..200 {
                    out.push(MicroOp::new(i * 4, Op::IntAlu));
                }
                out.push(MicroOp::new(800, Op::RemoteLoad { latency_us: 1.0 }));
            }
            fn nominal_service_us(&self) -> f64 {
                1.1
            }
        }
        let batch = |id: usize| -> Box<dyn InstructionStream> {
            let base = 0x100_0000 * (id as u64 + 1);
            Box::new(LoopedTrace::new(
                (0..64)
                    .map(|i| MicroOp::new(base + i * 4, Op::IntAlu))
                    .collect(),
            ))
        };
        let m = CustomSim::new(Design::Duplexity, Box::new(TinyService))
            .load(0.4)
            .horizon_cycles(600_000)
            .seed(3)
            .batch_threads(Box::new(batch))
            .run();
        assert!(m.master_retired > 0);
        assert!(m.colocated_retired > 0, "custom batch threads must run");
        assert!(m.morphs > 0);
    }
}
