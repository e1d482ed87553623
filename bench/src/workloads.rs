//! The four benchmark workloads: their inputs, their timed repetition and
//! the checks on every output cell.
//!
//! Every workload drives the simulator only through the experiments' public
//! option structs, built from the `Fidelity::Quick` presets and shrunk by
//! [`Sizes`] so that one repetition takes a couple of seconds on a 2-core
//! host. A repetition's wall time covers the experiment calls, rendering the
//! report tables and serializing the artifact; checks run after the clock
//! stops.

use crate::spans::SpanLog;
use duplexity::experiments::fig1::{fig1c, Fig1cPoint, FlannVariant};
use duplexity::experiments::fig2::{fig2a, Fig2aPoint};
use duplexity::experiments::fig5::Fig5Cell;
use duplexity::report as render;
use duplexity::{
    cluster_sweep, fault_sweep, hedge_sweep, rack_sweep, run_fig5, CellCache, CellKey,
    ClusterSweepOptions, ClusterSweepPoint, Design, FaultSweepOptions, FaultSweepPoint,
    Fig5Options, HedgeSweepOptions, HedgeSweepPoint, RackSweepOptions, RackSweepPoint, ServerSim,
};
use duplexity_bench::Fidelity;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 5 grid: 7 designs × 5 services × 2 loads, cache off.
    Fig5Grid,
    /// Figures 1(c) and 2(a): saturated SMT and in-order thread sweeps.
    SmtScaling,
    /// The cluster, hedge, rack and fault sweeps at a tight CI target.
    TailSweeps,
    /// Adding the Duplexity column to grids already in the cell cache.
    GridExtend,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Grid,
        Workload::SmtScaling,
        Workload::TailSweeps,
        Workload::GridExtend,
    ];

    /// The workload's command-line and report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Grid => "fig5_grid",
            Workload::SmtScaling => "smt_scaling",
            Workload::TailSweeps => "tail_sweeps",
            Workload::GridExtend => "grid_extend",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Relative CI half-width at which a sweep cell stops early: tight enough
/// that the request-domain simulation, not calibration, dominates
/// `tail_sweeps` (report's 5% target finishes the same grids in about 1 s).
const TAIL_CI_TARGET: f64 = 0.005;

/// Scale of every workload. [`Sizes::standard`] is what the benchmark
/// measures; tests use [`Sizes::tiny`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Cycle horizon of each Figure 5 cell (calibration runs a third).
    pub fig5_horizon: u64,
    /// Sample cap of each Figure 5 M/G/1 tail.
    pub fig5_tail_samples: usize,
    /// Highest SMT thread count of Figures 1(c) and 2(a).
    pub smt_threads: usize,
    /// Cycle horizon of each Figure 1(c) / 2(a) point.
    pub smt_horizon: u64,
    /// Cycle horizon of each sweep's per-design calibration.
    pub tail_calibration: u64,
    /// Sample cap of each sweep cell.
    pub tail_samples: usize,
    /// Multiplier on the work each per-layer probe does.
    pub probe_scale: f64,
}

impl Sizes {
    /// The measured scale: about 2 s per repetition on 2 cores.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            fig5_horizon: 200_000,
            fig5_tail_samples: 100_000,
            smt_threads: 8,
            smt_horizon: 60_000,
            tail_calibration: 200_000,
            tail_samples: 60_000,
            probe_scale: 1.0,
        }
    }

    /// A scale for tests: every grid keeps its shape, horizons shrink.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            fig5_horizon: 60_000,
            fig5_tail_samples: 5_000,
            smt_threads: 2,
            smt_horizon: 5_000,
            tail_calibration: 60_000,
            tail_samples: 4_000,
            probe_scale: 0.02,
        }
    }
}

/// Inputs shared by every workload of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every workload derives its inputs from.
    pub seed: u64,
    /// `ExecPool` workers for the experiments that use the pool.
    pub threads: usize,
    /// Workload scale.
    pub sizes: Sizes,
    /// Directory for cell caches; created and emptied by the benchmark.
    pub scratch: PathBuf,
}

/// What one repetition produced, typed per workload for the checks.
#[derive(Debug)]
pub enum Outputs {
    /// `fig5_grid`.
    Fig5(Vec<Fig5Cell>),
    /// `smt_scaling`.
    Smt(Vec<Fig1cPoint>, Vec<Fig2aPoint>),
    /// `tail_sweeps`.
    Tail {
        /// Cluster sweep points.
        cluster: Vec<ClusterSweepPoint>,
        /// Hedge sweep points.
        hedge: Vec<HedgeSweepPoint>,
        /// Rack sweep points.
        rack: Vec<RackSweepPoint>,
        /// Fault sweep points.
        fault: Vec<FaultSweepPoint>,
    },
    /// `grid_extend`.
    Extend {
        /// Figure 5 sub-grid cells.
        fig5: Vec<Fig5Cell>,
        /// Cluster sweep points.
        cluster: Vec<ClusterSweepPoint>,
        /// Rack sweep points.
        rack: Vec<RackSweepPoint>,
    },
}

/// One timed repetition.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds of the timed part.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) of the timed part.
    pub cpu_s: Option<f64>,
    /// Bytes of serialized artifact.
    pub artifact_bytes: usize,
    /// Cell-cache hits and misses (zero for cache-off workloads).
    pub cache_hits: u64,
    /// See [`Rep::cache_hits`].
    pub cache_misses: u64,
    /// The outputs.
    pub outputs: Outputs,
}

/// State the set-up leaves for the repetitions.
#[derive(Debug)]
pub struct Prepared {
    /// The filled cell cache `grid_extend` copies before each repetition.
    pristine: Option<PathBuf>,
}

fn quick_tail_queue(
    mut q: duplexity_queueing::des::Mg1Options,
    s: &Sizes,
) -> duplexity_queueing::des::Mg1Options {
    q.max_samples = s.tail_samples;
    q.max_relative_error = TAIL_CI_TARGET;
    q
}

/// The `fig5_grid` options: the Quick grid at loads {0.3, 0.7}.
#[must_use]
pub fn fig5_options(cfg: &Config) -> Fig5Options {
    let mut o = Fidelity::Quick.fig5_options(cfg.seed);
    o.loads = vec![0.3, 0.7];
    o.horizon_cycles = cfg.sizes.fig5_horizon;
    o.queue.max_samples = cfg.sizes.fig5_tail_samples;
    o.threads = cfg.threads;
    o
}

/// The `tail_sweeps` cluster grid (also extended by `grid_extend`).
#[must_use]
pub fn cluster_options(cfg: &Config) -> ClusterSweepOptions {
    let mut o = Fidelity::Quick.cluster_sweep_options(cfg.seed);
    o.calibration_cycles = cfg.sizes.tail_calibration;
    o.queue = quick_tail_queue(o.queue, &cfg.sizes);
    o.threads = cfg.threads;
    o
}

/// The `tail_sweeps` hedge grid.
#[must_use]
pub fn hedge_options(cfg: &Config) -> HedgeSweepOptions {
    let mut o = Fidelity::Quick.hedge_sweep_options(cfg.seed);
    o.queue = quick_tail_queue(o.queue, &cfg.sizes);
    o.threads = cfg.threads;
    o
}

/// The `tail_sweeps` rack grid (also extended by `grid_extend`).
#[must_use]
pub fn rack_options(cfg: &Config) -> RackSweepOptions {
    let mut o = Fidelity::Quick.rack_sweep_options(cfg.seed);
    o.calibration_cycles = cfg.sizes.tail_calibration;
    o.queue = quick_tail_queue(o.queue, &cfg.sizes);
    o.threads = cfg.threads;
    o
}

/// The `tail_sweeps` fault grid.
#[must_use]
pub fn fault_options(cfg: &Config) -> FaultSweepOptions {
    let mut o = Fidelity::Quick.fault_sweep_options(cfg.seed);
    o.queue = quick_tail_queue(o.queue, &cfg.sizes);
    o.threads = cfg.threads;
    o
}

/// The `grid_extend` grids: fig5 {McRouter, RSC} @ 0.5 plus the
/// `tail_sweeps` cluster and rack grids. `with_duplexity = false` gives
/// the pristine grids the set-up caches.
#[must_use]
pub fn extend_options(
    cfg: &Config,
    with_duplexity: bool,
    cache: Option<&CellCache>,
) -> (Fig5Options, ClusterSweepOptions, RackSweepOptions) {
    let keep = |designs: &mut Vec<Design>| {
        if !with_duplexity {
            designs.retain(|&d| d != Design::Duplexity);
        }
    };
    let mut f = fig5_options(cfg);
    f.workloads = vec![duplexity::Workload::McRouter, duplexity::Workload::Rsc];
    f.loads = vec![0.5];
    keep(&mut f.designs);
    f.cache = cache.cloned();
    let mut c = cluster_options(cfg);
    keep(&mut c.designs);
    c.cache = cache.cloned();
    let mut r = rack_options(cfg);
    keep(&mut r.designs);
    r.cache = cache.cloned();
    (f, c, r)
}

/// `(hits, misses)` a `grid_extend` repetition must see: every cell of a
/// design other than Duplexity hits, every Duplexity cell misses.
#[must_use]
pub fn extend_expected_counts(cfg: &Config) -> (u64, u64) {
    let (f, c, r) = extend_options(cfg, true, None);
    let dup = |designs: &[Design]| designs.iter().filter(|&&d| d == Design::Duplexity).count();
    let per_design = [
        (
            f.designs.len(),
            dup(&f.designs),
            f.workloads.len() * f.loads.len(),
        ),
        (
            c.designs.len(),
            dup(&c.designs),
            c.policies.len() * c.server_counts.len() * c.loads.len(),
        ),
        (
            r.designs.len(),
            dup(&r.designs),
            r.policies.len() * r.plans.len() * r.server_counts.len() * r.loads.len(),
        ),
    ];
    let (mut hits, mut misses) = (0, 0);
    for (designs, dups, cells_per_design) in per_design {
        hits += ((designs - dups) * cells_per_design) as u64;
        misses += (dups * cells_per_design) as u64;
    }
    (hits, misses)
}

/// Nominal simulated cycles of one Figure 5 grid run: one horizon per
/// fresh cell, a third per calibrated (workload, design) pair, and the
/// lender reference (half a horizon pooled, a quarter for the lone thread).
fn fig5_sim_cycles(h: u64, cells: u64, pairs: u64) -> u64 {
    cells * h + pairs * (h / 3) + h / 2 + h / 4
}

impl Workload {
    /// Cells one repetition outputs.
    #[must_use]
    pub fn cells(self, cfg: &Config) -> usize {
        match self {
            Workload::Fig5Grid => {
                let o = fig5_options(cfg);
                o.designs.len() * o.workloads.len() * o.loads.len()
            }
            Workload::SmtScaling => (FlannVariant::ALL.len() + 1) * cfg.sizes.smt_threads,
            Workload::TailSweeps => {
                let c = cluster_options(cfg);
                let h = hedge_options(cfg);
                let r = rack_options(cfg);
                let f = fault_options(cfg);
                c.designs.len() * c.policies.len() * c.server_counts.len() * c.loads.len()
                    + h.policies.len() * h.plans.len() * h.server_counts.len() * h.loads.len()
                    + r.designs.len()
                        * r.policies.len()
                        * r.plans.len()
                        * r.server_counts.len()
                        * r.loads.len()
                    + f.policies.len() * f.loads.len()
            }
            Workload::GridExtend => {
                let (h, m) = extend_expected_counts(cfg);
                (h + m) as usize
            }
        }
    }

    /// Nominal simulated cycles one repetition steps, counting a
    /// fast-forwarded span as stepped (the work a naive stepper would do).
    #[must_use]
    pub fn sim_cycles(self, cfg: &Config) -> u64 {
        let s = &cfg.sizes;
        match self {
            Workload::Fig5Grid => {
                let o = fig5_options(cfg);
                let pairs = (o.designs.len() * o.workloads.len()) as u64;
                let cells = pairs * o.loads.len() as u64;
                fig5_sim_cycles(s.fig5_horizon, cells, pairs)
            }
            Workload::SmtScaling => {
                let points = s.smt_threads as u64;
                (FlannVariant::ALL.len() as u64 + 2) * points * s.smt_horizon
            }
            Workload::TailSweeps => {
                let designs = cluster_options(cfg).designs.len() + rack_options(cfg).designs.len();
                designs as u64 * s.tail_calibration
            }
            Workload::GridExtend => {
                let (f, _, _) = extend_options(cfg, true, None);
                let services = f.workloads.len() as u64;
                // Fresh Duplexity cells; Duplexity and Baseline calibrate.
                fig5_sim_cycles(s.fig5_horizon, services, 2 * services) + 4 * s.tail_calibration
            }
        }
    }

    /// Prepares the repetitions: a pre-flight simulation that proves the
    /// build runs before the timed window opens, and for `grid_extend` a
    /// freshly filled pristine cell cache.
    ///
    /// # Errors
    ///
    /// Returns a message when the pre-flight simulation is implausible or
    /// the scratch directory cannot be prepared.
    pub fn setup(self, cfg: &Config) -> Result<Prepared, String> {
        let horizon = 300_000;
        let m = ServerSim::new(Design::Duplexity, duplexity::Workload::McRouter)
            .load(0.5)
            .horizon_cycles(horizon)
            .seed(cfg.seed)
            .run();
        if m.wall_cycles != horizon || m.master_retired == 0 {
            return Err(format!(
                "pre-flight simulation implausible: {} cycles, {} master ops retired",
                m.wall_cycles, m.master_retired
            ));
        }
        if self != Workload::GridExtend {
            return Ok(Prepared { pristine: None });
        }
        let pristine = cfg.scratch.join("pristine");
        reset_dir(&pristine)?;
        let cache = CellCache::new(&pristine);
        let (f, c, r) = extend_options(cfg, false, Some(&cache));
        let _ = run_fig5(&f);
        let _ = cluster_sweep(&c);
        let _ = rack_sweep(&r);
        Ok(Prepared {
            pristine: Some(pristine),
        })
    }

    /// Runs one timed repetition, recording spans into `log`.
    ///
    /// # Errors
    ///
    /// Returns a message when `grid_extend` cannot copy its cache.
    pub fn run_rep(self, cfg: &Config, prep: &Prepared, log: &mut SpanLog) -> Result<Rep, String> {
        // The cache copy happens before the clock starts.
        let cache = match &prep.pristine {
            Some(pristine) => {
                let dir = cfg.scratch.join("rep");
                log.span("bench", "cache_copy", |_| copy_dir(pristine, &dir))?;
                Some(CellCache::new(&dir))
            }
            None => None,
        };
        let cpu0 = crate::host::cpu_seconds();
        let t = Instant::now();
        let (outputs, artifact_bytes) =
            log.span("bench", "rep", |log| self.timed(cfg, cache.as_ref(), log));
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu0.zip(crate::host::cpu_seconds()).map(|(a, b)| b - a);
        Ok(Rep {
            wall_s,
            cpu_s,
            artifact_bytes,
            cache_hits: cache.as_ref().map_or(0, CellCache::hits),
            cache_misses: cache.as_ref().map_or(0, CellCache::misses),
            outputs,
        })
    }

    fn timed(self, cfg: &Config, cache: Option<&CellCache>, log: &mut SpanLog) -> (Outputs, usize) {
        let layer = "core.experiments";
        match self {
            Workload::Fig5Grid => {
                let cells = log.span(layer, "run_fig5", |_| run_fig5(&fig5_options(cfg)));
                log.span("core.report", "render", |_| render_fig5(&cells));
                let bytes = serialize(log, &cells);
                (Outputs::Fig5(cells), bytes)
            }
            Workload::SmtScaling => {
                let (n, h) = (cfg.sizes.smt_threads, cfg.sizes.smt_horizon);
                let c = log.span(layer, "fig1c", |_| fig1c(n, h, cfg.seed));
                let a = log.span(layer, "fig2a", |_| fig2a(n, h, cfg.seed));
                log.span("core.report", "render", |_| {
                    std::hint::black_box(render::render_fig1c(&c) + &render::render_fig2a(&a));
                });
                let bytes = serialize(log, &(&c, &a));
                (Outputs::Smt(c, a), bytes)
            }
            Workload::TailSweeps => {
                let cluster = log.span(layer, "cluster_sweep", |_| {
                    cluster_sweep(&cluster_options(cfg))
                });
                let hedge = log.span(layer, "hedge_sweep", |_| hedge_sweep(&hedge_options(cfg)));
                let rack = log.span(layer, "rack_sweep", |_| rack_sweep(&rack_options(cfg)));
                let fault = log.span(layer, "fault_sweep", |_| fault_sweep(&fault_options(cfg)));
                log.span("core.report", "render", |_| {
                    std::hint::black_box(
                        render::render_cluster_sweep(&cluster)
                            + &render::render_hedge_sweep(&hedge)
                            + &render::render_rack_sweep(&rack)
                            + &render::render_fault_sweep(&fault),
                    );
                });
                let bytes = serialize(log, &(&cluster, &hedge, &rack, &fault));
                (
                    Outputs::Tail {
                        cluster,
                        hedge,
                        rack,
                        fault,
                    },
                    bytes,
                )
            }
            Workload::GridExtend => {
                let (f, c, r) = extend_options(cfg, true, cache);
                let fig5 = log.span(layer, "run_fig5", |_| run_fig5(&f));
                let cluster = log.span(layer, "cluster_sweep", |_| cluster_sweep(&c));
                let rack = log.span(layer, "rack_sweep", |_| rack_sweep(&r));
                log.span("core.report", "render", |_| {
                    render_fig5(&fig5);
                    std::hint::black_box(
                        render::render_cluster_sweep(&cluster) + &render::render_rack_sweep(&rack),
                    );
                });
                let bytes = serialize(log, &(&fig5, &cluster, &rack));
                (
                    Outputs::Extend {
                        fig5,
                        cluster,
                        rack,
                    },
                    bytes,
                )
            }
        }
    }

    /// Cell digests of a cold (cache-off) run of the `grid_extend` grids,
    /// the reference every mixed-cache repetition must equal; `None` for
    /// the other workloads.
    #[must_use]
    pub fn cold_reference(self, cfg: &Config) -> Option<Vec<String>> {
        (self == Workload::GridExtend).then(|| {
            let (f, c, r) = extend_options(cfg, true, None);
            let outputs = Outputs::Extend {
                fig5: run_fig5(&f),
                cluster: cluster_sweep(&c),
                rack: rack_sweep(&r),
            };
            outputs.digests(self)
        })
    }
}

/// A Figure 5 panel: its title and the cell value it tabulates.
type Panel = (&'static str, fn(&Fig5Cell) -> f64);

/// The six Figure 5 panels, as `report --fig5` prints them.
pub(crate) fn render_fig5(cells: &[Fig5Cell]) {
    let panels: [Panel; 6] = [
        ("Fig 5(a): core utilization", |c| c.utilization),
        ("Fig 5(b): normalized performance density", |c| {
            c.perf_density_norm
        }),
        ("Fig 5(c): normalized energy", |c| c.energy_norm),
        ("Fig 5(d): normalized p99 latency", |c| c.p99_norm),
        ("Fig 5(e): normalized iso-throughput p99 latency", |c| {
            c.iso_p99_norm
        }),
        ("Fig 5(f): normalized batch STP", |c| c.stp_norm),
    ];
    for (label, metric) in panels {
        std::hint::black_box(render::render_fig5_matrix(cells, label, metric));
    }
}

fn serialize<T: Serialize>(log: &mut SpanLog, value: &T) -> usize {
    log.span("serde_json", "serialize", |_| {
        serde_json::to_string_pretty(value)
            .expect("serializing plain data cannot fail")
            .len()
    })
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    reset_dir(to)?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot list {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("cannot list {}: {e}", from.display()))?
            .path();
        let name = path.file_name().expect("directory entries have names");
        std::fs::copy(&path, to.join(name))
            .map_err(|e| format!("cannot copy {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Content digest of one serialized output cell.
fn digest<T: Serialize>(workload: Workload, cell: &T) -> String {
    let json = serde_json::to_string(cell).expect("serializing plain data cannot fail");
    CellKey::build(&format!("bench/{}", workload.name()), |w| {
        w.field_str("cell", &json);
    })
    .hex()
    .to_string()
}

impl Outputs {
    /// One digest per output cell, in output order.
    #[must_use]
    pub fn digests(&self, workload: Workload) -> Vec<String> {
        match self {
            Outputs::Fig5(cells) => cells.iter().map(|c| digest(workload, c)).collect(),
            Outputs::Smt(c, a) => {
                let mut v: Vec<String> = c.iter().map(|p| digest(workload, p)).collect();
                v.extend(a.iter().map(|p| digest(workload, p)));
                v
            }
            Outputs::Tail {
                cluster,
                hedge,
                rack,
                fault,
            } => {
                let mut v: Vec<String> = cluster.iter().map(|p| digest(workload, p)).collect();
                v.extend(hedge.iter().map(|p| digest(workload, p)));
                v.extend(rack.iter().map(|p| digest(workload, p)));
                v.extend(fault.iter().map(|p| digest(workload, p)));
                v
            }
            Outputs::Extend {
                fig5,
                cluster,
                rack,
            } => {
                let mut v: Vec<String> = fig5.iter().map(|c| digest(workload, c)).collect();
                v.extend(cluster.iter().map(|p| digest(workload, p)));
                v.extend(rack.iter().map(|p| digest(workload, p)));
                v
            }
        }
    }

    /// Seed-independent checks on every cell; one message per failing
    /// cell. Baseline normalizations must be exactly 1.0 and every
    /// non-saturated number finite.
    #[must_use]
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        match self {
            Outputs::Fig5(cells) => check_fig5(cells, &mut bad),
            Outputs::Smt(c, a) => {
                let peak = c
                    .iter()
                    .filter(|p| p.variant == FlannVariant::Baseline)
                    .map(|p| p.normalized)
                    .fold(f64::NEG_INFINITY, f64::max);
                if peak != 1.0 {
                    bad.push(format!(
                        "fig1c: baseline peak normalizes to {peak}, not 1.0"
                    ));
                }
                for p in c {
                    if !(p.ipc.is_finite() && p.ipc > 0.0 && p.normalized.is_finite()) {
                        bad.push(format!("fig1c {} x{}: ipc {}", p.variant, p.threads, p.ipc));
                    }
                }
                for p in a {
                    if !(p.ooo_ipc.is_finite() && p.ooo_ipc > 0.0 && p.ino_ipc.is_finite()) {
                        bad.push(format!(
                            "fig2a x{}: ooo {} ino {}",
                            p.threads, p.ooo_ipc, p.ino_ipc
                        ));
                    }
                }
            }
            Outputs::Tail {
                cluster,
                hedge,
                rack,
                fault,
            } => {
                check_cluster(cluster, &mut bad);
                for p in hedge {
                    if !sound(
                        p.saturated,
                        &[p.p99_us, p.mean_us, p.utilization],
                        p.samples,
                    ) {
                        bad.push(format!(
                            "hedge {}/{} x{} @{}: p99 {}",
                            p.policy, p.plan, p.servers, p.load, p.p99_us
                        ));
                    }
                }
                check_rack(rack, &mut bad);
                for p in fault {
                    if !sound(
                        p.saturated,
                        &[p.p50_us, p.p99_us, p.mean_us, p.mean_attempts],
                        1,
                    ) {
                        bad.push(format!("fault {} @{}: p99 {}", p.policy, p.load, p.p99_us));
                    }
                }
            }
            Outputs::Extend {
                fig5,
                cluster,
                rack,
            } => {
                check_fig5(fig5, &mut bad);
                check_cluster(cluster, &mut bad);
                check_rack(rack, &mut bad);
            }
        }
        bad
    }

    /// Simulated requests the request-domain sweeps measured: the summed
    /// `samples` of cluster, hedge and rack points (for `grid_extend`,
    /// only the Duplexity points, the ones simulated rather than cached).
    #[must_use]
    pub fn des_requests(&self) -> u64 {
        match self {
            Outputs::Fig5(_) | Outputs::Smt(..) => 0,
            Outputs::Tail {
                cluster,
                hedge,
                rack,
                ..
            } => {
                (cluster.iter().map(|p| p.samples).sum::<usize>()
                    + hedge.iter().map(|p| p.samples).sum::<usize>()
                    + rack.iter().map(|p| p.samples).sum::<usize>()) as u64
            }
            Outputs::Extend { cluster, rack, .. } => {
                (cluster
                    .iter()
                    .filter(|p| p.design == Design::Duplexity)
                    .map(|p| p.samples)
                    .sum::<usize>()
                    + rack
                        .iter()
                        .filter(|p| p.design == Design::Duplexity)
                        .map(|p| p.samples)
                        .sum::<usize>()) as u64
            }
        }
    }
}

fn finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// A sweep point is sound when it saturated, or measured some requests
/// and every statistic is finite.
fn sound(saturated: bool, stats: &[f64], samples: usize) -> bool {
    saturated || (finite(stats) && samples > 0)
}

fn check_fig5(cells: &[Fig5Cell], bad: &mut Vec<String>) {
    for c in cells {
        let at = format!("fig5 {}/{}@{}", c.design, c.workload, c.load);
        if c.design == Design::Baseline {
            let mut norms = vec![c.perf_density_norm, c.energy_norm, c.stp_norm];
            if !c.saturated {
                norms.extend([c.p99_norm, c.iso_p99_norm]);
            }
            if norms.iter().any(|&n| n != 1.0) {
                bad.push(format!(
                    "{at}: baseline normalizations {norms:?} are not all 1.0"
                ));
            }
        }
        let cycle = [
            c.utilization,
            c.perf_density_norm,
            c.energy_norm,
            c.stp_norm,
            c.service_slowdown,
        ];
        if !finite(&cycle) || !(0.0..=1.0).contains(&c.utilization) {
            bad.push(format!("{at}: cycle metrics {cycle:?}"));
        }
        if !c.saturated && !finite(&[c.p99_us, c.p99_norm, c.iso_p99_us, c.iso_p99_norm]) {
            bad.push(format!(
                "{at}: non-saturated tail {} / {}",
                c.p99_us, c.iso_p99_us
            ));
        }
    }
}

fn check_cluster(points: &[ClusterSweepPoint], bad: &mut Vec<String>) {
    for p in points {
        if !sound(
            p.saturated,
            &[p.p99_us, p.p50_us, p.mean_us, p.utilization],
            p.samples,
        ) {
            bad.push(format!(
                "cluster {}/{} x{} @{}: p99 {}",
                p.design, p.policy, p.servers, p.load, p.p99_us
            ));
        }
    }
}

fn check_rack(points: &[RackSweepPoint], bad: &mut Vec<String>) {
    for p in points {
        if !sound(
            p.saturated,
            &[p.p99_us, p.mean_us, p.utilization],
            p.samples,
        ) {
            bad.push(format!(
                "rack {}/{}/{} @{}: p99 {}",
                p.design, p.policy, p.plan, p.load, p.p99_us
            ));
        }
    }
}
