//! High-level façade: one design serving one microservice at one load.

use duplexity_cpu::designs::{run_design, Design, DesignMetrics, Scenario, Stepping};
use duplexity_obs::Tracer;
use duplexity_workloads::{SharedInputs, Workload};

/// A configured single-server (single-dyad) simulation.
///
/// Builder-style: set the load, horizon and seed, then [`ServerSim::run`].
/// A request kernel of your own runs through [`run_design`] with a
/// [`Scenario`] instead, as `examples/trace_morph_timeline.rs` shows.
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
}
