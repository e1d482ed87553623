//! Per-layer probes: each times calls to one layer's public functions on
//! fixed inputs taken from the workloads, inside a span named after the
//! metric it yields.
//!
//! The probes are sized to a few tenths of a second each so a traced run
//! stays well under a minute. They depend on the seed only through the
//! inputs they build, so a rate moves when the layer's code does.

use crate::spans::SpanLog;
use crate::workloads::{cluster_options, fig5_options, rack_options, Config};
use crate::Metric;
use duplexity::experiments::fig1::FlannVariant;
use duplexity::experiments::{cluster_sweep, fig5, rack_sweep};
use duplexity::report as render;
use duplexity::{
    BalancerPolicy, CellCache, CellKey, Design, DuplicationPolicy, ExecPool, FaultPlan, RackPlan,
    RetryPolicy, ServerSim, Tracer, Workload,
};
use duplexity_cpu::designs::Stepping;
use duplexity_cpu::inorder::InoEngine;
use duplexity_cpu::memsys::MemSys;
use duplexity_cpu::ooo::{FetchPolicy, OooEngine, ThreadClass};
use duplexity_cpu::pool::{ContextPool, VirtualContext};
use duplexity_cpu::request::RequestStream;
use duplexity_obs::LatencySketch;
use duplexity_queueing::cluster::{
    try_simulate_cluster, try_simulate_cluster_hedged, ClusterOptions,
};
use duplexity_queueing::des::{try_simulate_mg1, try_simulate_mg1_faulted, Mg1Options};
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_queueing::rack::try_simulate_rack;
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{derive_stream, rng_from_seed, SimRng};
use duplexity_uarch::cache::{AccessKind, Cache, CacheConfig};
use duplexity_uarch::config::{CoreConfig, LatencyModel, MachineConfig};
use duplexity_workloads::flann::FlannKernel;
use duplexity_workloads::graph::FillerFactory;
use duplexity_workloads::specmix::mix_stream;
use std::hint::black_box;
use std::time::Instant;

/// Horizon of each single-design `ServerSim::run` probe: dyad engines step
/// about 2 Mcycles/s, OoO-only designs about 20 times faster.
const DYAD_HORIZON: u64 = 400_000;
const OOO_HORIZON: u64 = 2_000_000;
/// Horizon of each raw engine-step probe.
const ENGINE_HORIZON: u64 = 300_000;
/// Requests per request-domain probe.
const DES_SAMPLES: u64 = 200_000;

/// `base` units of probe work at the configured probe scale.
fn scaled(cfg: &Config, base: u64) -> u64 {
    ((base as f64 * cfg.sizes.probe_scale) as u64).max(1)
}

fn timed<T>(log: &mut SpanLog, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = log.span(layer, name, |_| f());
    (v, t.elapsed().as_secs_f64().max(1e-9))
}

fn rate(name: String, unit: &'static str, work: f64, seconds: f64) -> Metric {
    Metric::new(name, unit, "higher", work / seconds)
}

/// The metric-name form of a design.
fn design_key(d: Design) -> &'static str {
    match d {
        Design::Baseline => "baseline",
        Design::Smt => "smt",
        Design::SmtPlus => "smt_plus",
        Design::Elfen => "elfen",
        Design::Runahead => "runahead",
        Design::MorphCore => "morphcore",
        Design::MorphCorePlus => "morphcore_plus",
        Design::DuplexityReplication => "duplexity_repl",
        Design::Duplexity => "duplexity",
    }
}

/// The metric-name form of a service.
fn service_key(w: Workload) -> &'static str {
    match w {
        Workload::FlannHa => "flann_ha",
        Workload::FlannLl => "flann_ll",
        Workload::Rsc => "rsc",
        Workload::McRouter => "mcrouter",
        Workload::WordStem => "wordstem",
    }
}

/// Whether a design steps the dyad (in-order filler) engines.
fn is_dyad(d: Design) -> bool {
    matches!(
        d,
        Design::MorphCore
            | Design::MorphCorePlus
            | Design::DuplexityReplication
            | Design::Duplexity
    )
}

/// Runs every probe and returns its metrics in a fixed order.
#[must_use]
pub fn run_all(cfg: &Config, log: &mut SpanLog) -> Vec<Metric> {
    let mut out = Vec::new();
    workloads_layer(cfg, log, &mut out);
    cpu_layer(cfg, log, &mut out);
    queueing_layer(cfg, log, &mut out);
    core_layer(cfg, log, &mut out);
    out
}

/// `workloads`: `Workload::kernel(seed)` plus `generate` until 2 M µops.
fn workloads_layer(cfg: &Config, log: &mut SpanLog, out: &mut Vec<Metric>) {
    let uops_target = scaled(cfg, 2_000_000) as usize;
    for w in Workload::ALL {
        let name = format!("workloads.{}.generate_muops_per_s", service_key(w));
        let (uops, s) = timed(log, "workloads", &name, || {
            let mut kernel = w.kernel(cfg.seed);
            let mut rng = rng_from_seed(cfg.seed);
            let mut ops = Vec::new();
            let mut total = 0;
            while total < uops_target {
                ops.clear();
                kernel.generate(&mut rng, &mut ops);
                total += ops.len().max(1);
            }
            total
        });
        out.push(rate(name, "Muops/s", uops as f64 / 1e6, s));
    }

    // Figure 1(c) builds one FLANN LSH index per SMT thread it simulates.
    let builds = scaled(cfg, 8);
    let name = "workloads.flann_9_1.index_build_ms".to_string();
    let ((), s) = timed(log, "workloads", &name, || {
        for t in 0..builds {
            black_box(FlannKernel::new(
                FlannVariant::C9S1.config(),
                derive_stream(cfg.seed, t),
            ));
        }
    });
    out.push(Metric::new(name, "ms", "lower", s * 1e3 / builds as f64));
}

fn run_design(
    d: Design,
    w: Workload,
    load: f64,
    horizon: u64,
    seed: u64,
    stepping: Stepping,
) -> u64 {
    let m = ServerSim::new(d, w)
        .load(load)
        .horizon_cycles(horizon)
        .seed(seed)
        .stepping(stepping)
        .run();
    black_box(m.master_retired);
    m.wall_cycles
}

/// `cpu` and `uarch`: whole designs, raw engines, fast-forward and
/// calibration.
fn cpu_layer(cfg: &Config, log: &mut SpanLog, out: &mut Vec<Metric>) {
    let seed = cfg.seed;
    let (dyad_h, ooo_h, engine_h) = (
        scaled(cfg, DYAD_HORIZON),
        scaled(cfg, OOO_HORIZON),
        scaled(cfg, ENGINE_HORIZON),
    );
    let services = [Workload::McRouter, Workload::WordStem];
    for d in Design::ALL {
        for w in services {
            let h = if is_dyad(d) { dyad_h } else { ooo_h };
            let name = format!(
                "cpu.design.{}.{}.mcycles_per_s",
                design_key(d),
                service_key(w)
            );
            let (cycles, s) = timed(log, "cpu", &name, || {
                run_design(d, w, 0.5, h, seed, Stepping::FastForward)
            });
            out.push(rate(name, "Mcycles/s", cycles as f64 / 1e6, s));
        }
    }

    let machine = MachineConfig::baseline();
    for ctx in [1usize, 16] {
        let mut engine = InoEngine::new(ctx, 4, false, machine.cycles_per_us(), 64);
        for t in 0..ctx {
            engine.add_fixed_context(t, mix_stream(t, seed));
        }
        let name = format!("cpu.ino.ctx{ctx}.mcycles_per_s");
        let ((), s) = timed(log, "cpu", &name, || {
            let mut mem = MemSys::table1(LatencyModel::default());
            let mut rng = rng_from_seed(derive_stream(seed, 0x1A0));
            for now in 0..engine_h {
                engine.step(now, &mut mem, None, None, &mut rng);
            }
        });
        black_box(engine.stats().ipc());
        out.push(rate(name, "Mcycles/s", engine_h as f64 / 1e6, s));
    }

    let fillers = FillerFactory::paper(seed);
    let mut lender = InoEngine::lender(MachineConfig::lender().cycles_per_us(), 64);
    let mut pool = ContextPool::new();
    for id in 0..32 {
        pool.add(VirtualContext::new(id, fillers.stream(id)));
    }
    let name = "cpu.lender.ctx32.mcycles_per_s".to_string();
    let ((), s) = timed(log, "cpu", &name, || {
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(derive_stream(seed, 0x1E0D));
        for now in 0..engine_h {
            lender.step(now, &mut mem, None, Some(&mut pool), &mut rng);
        }
    });
    black_box(lender.stats().ipc());
    out.push(rate(name, "Mcycles/s", engine_h as f64 / 1e6, s));

    // Saturated FLANN-9-1 threads, as Figure 1(c) builds them.
    for smt in [1usize, 4, 16] {
        let mut engine = OooEngine::new(
            CoreConfig::baseline_ooo(),
            FetchPolicy::Icount,
            machine.cycles_per_us(),
        );
        for t in 0..smt {
            let kernel =
                FlannKernel::new(FlannVariant::C9S1.config(), derive_stream(seed, t as u64));
            let class = if t == 0 {
                ThreadClass::Primary
            } else {
                ThreadClass::Secondary
            };
            engine.add_thread(Box::new(RequestStream::saturated(Box::new(kernel))), class);
        }
        let name = format!("cpu.ooo.smt{smt}.mcycles_per_s");
        let ((), s) = timed(log, "cpu", &name, || {
            let mut mem = MemSys::table1(LatencyModel::default());
            let mut rng = rng_from_seed(derive_stream(seed, 0xF1C + smt as u64));
            for now in 0..engine_h {
                engine.step(now, &mut mem, &mut rng);
            }
        });
        black_box(engine.stats().ipc());
        out.push(rate(name, "Mcycles/s", engine_h as f64 / 1e6, s));
    }

    // A seeded stream over four times the L1D's capacity: mostly hits
    // with a steady miss fraction.
    let accesses = scaled(cfg, 4_000_000) as usize;
    let mut rng = rng_from_seed(derive_stream(seed, 0x11D));
    let span = 4 * CacheConfig::l1().capacity_bytes as u64;
    let hot = CacheConfig::l1().capacity_bytes as u64 / 2;
    let addrs: Vec<u64> = (0..accesses)
        .map(|i| {
            let u: f64 = Exponential::new(1.0).sample(&mut rng);
            let range = if i % 8 == 0 { span } else { hot };
            ((u * 1e6) as u64 % range) & !7
        })
        .collect();
    let mut l1d = Cache::new(CacheConfig::l1());
    let name = "uarch.l1d.maccesses_per_s".to_string();
    let (hits, s) = timed(log, "uarch", &name, || {
        addrs
            .iter()
            .enumerate()
            .filter(|&(i, &a)| {
                l1d.access(
                    a,
                    if i % 4 == 3 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                )
            })
            .count()
    });
    black_box(hits);
    out.push(rate(name, "Maccesses/s", accesses as f64 / 1e6, s));

    for d in [Design::Baseline, Design::Duplexity] {
        for w in services {
            let name = format!("cpu.ff_speedup.{}.{}", design_key(d), service_key(w));
            let (_, naive) = timed(log, "cpu", &format!("{name}.naive"), || {
                run_design(d, w, 0.5, dyad_h, seed, Stepping::Naive)
            });
            let (_, fast) = timed(log, "cpu", &format!("{name}.fast_forward"), || {
                run_design(d, w, 0.5, dyad_h, seed, Stepping::FastForward)
            });
            out.push(Metric::new(name, "ratio", "higher", naive / fast));
        }
    }

    for d in [Design::Baseline, Design::Duplexity] {
        let name = format!("calibrate.{}.mcrouter.mcycles_per_s", design_key(d));
        let (cycles, s) = timed(log, "cpu", &name, || {
            let m = ServerSim::new(d, Workload::McRouter)
                .saturated()
                .horizon_cycles(dyad_h)
                .seed(derive_stream(seed, 0x5A7))
                .run();
            black_box(m.request_latencies_us.len());
            m.wall_cycles
        });
        out.push(rate(name, "Mcycles/s", cycles as f64 / 1e6, s));
    }
}

/// `queueing` and `obs`: single queues, the three cluster engines, the
/// rack plans and tail collection, at 16 servers and load 0.6 under JSQ
/// with a fixed sample count.
fn queueing_layer(cfg: &Config, log: &mut SpanLog, out: &mut Vec<Metric>) {
    let seed = cfg.seed;
    // Full-length runs: the CI stopping rule never fires, so every probe
    // does the same work at every seed.
    let q = Mg1Options {
        max_samples: scaled(cfg, DES_SAMPLES) as usize,
        warmup: 1_000,
        max_relative_error: 0.0,
        seed,
        ..Mg1Options::default()
    };
    let model = Workload::McRouter.service_model();
    let lambda = 0.6 / Workload::McRouter.nominal_service_us();
    let name = "queueing.mg1.mrequests_per_s".to_string();
    let (n, s) = timed(log, "queueing", &name, || {
        let mut svc = |rng: &mut SimRng| model.sample_compute(rng) + model.sample_stall(rng);
        try_simulate_mg1(lambda, &mut svc, &q).map_or(0, |r| r.samples)
    });
    out.push(rate(name, "Mrequests/s", n as f64 / 1e6, s));
    let plan = FaultPlan::none()
        .with_drop(0.05)
        .with_retry(RetryPolicy::new(4, 10.0, 2.0, 16.0));
    let name = "queueing.mg1_faulted.mrequests_per_s".to_string();
    let (n, s) = timed(log, "queueing", &name, || {
        let mut compute = |rng: &mut SimRng| model.sample_compute(rng);
        try_simulate_mg1_faulted(
            lambda,
            &mut compute,
            &Workload::McRouter.stall_leg(),
            &plan,
            &q,
        )
        .map_or(0, |(r, _)| r.samples)
    });
    out.push(rate(name, "Mrequests/s", n as f64 / 1e6, s));

    let (servers, load, mean) = (16usize, 0.6, 2.0);
    let lambda = servers as f64 * load / mean;
    let service = Exponential::new(mean);
    let copts = |kind| ClusterOptions {
        event_queue: kind,
        ..ClusterOptions::from_mg1(servers, &q)
    };
    let none = DuplicationPolicy::none();
    let hedge = DuplicationPolicy::hedge(10.0);
    let engines: [(&str, Option<EventQueueKind>, &DuplicationPolicy); 5] = [
        ("cluster.lindley", None, &none),
        ("cluster.heap", Some(EventQueueKind::Heap), &none),
        ("cluster.wheel", Some(EventQueueKind::Wheel), &none),
        ("hedged.heap", Some(EventQueueKind::Heap), &hedge),
        ("hedged.wheel", Some(EventQueueKind::Wheel), &hedge),
    ];
    for (label, kind, plan) in engines {
        let name = format!("queueing.{label}.mrequests_per_s");
        let (n, s) = timed(log, "queueing", &name, || {
            let mut svc = |rng: &mut SimRng| service.sample(rng);
            let mut balancer = BalancerPolicy::Jsq.build();
            let off = Tracer::disabled();
            match kind {
                None => try_simulate_cluster(
                    lambda,
                    &mut svc,
                    balancer.as_mut(),
                    &copts(EventQueueKind::default()),
                    &off,
                )
                .map_or(0, |r| r.samples),
                Some(k) => try_simulate_cluster_hedged(
                    lambda,
                    &mut svc,
                    balancer.as_mut(),
                    plan,
                    &copts(k),
                    &off,
                )
                .map_or(0, |r| r.cluster.samples),
            }
        });
        out.push(rate(name, "Mrequests/s", n as f64 / 1e6, s));
    }
    let plans = [
        ("fresh", RackPlan::fresh()),
        (
            "stale_steal",
            RackPlan::fresh().with_delta(8.0).with_steal(2),
        ),
        (
            "distributed",
            RackPlan::fresh()
                .with_delta(8.0)
                .distributed(4)
                .with_tenants(64, 0.99),
        ),
    ];
    for (label, plan) in plans {
        let name = format!("queueing.rack.{label}.mrequests_per_s");
        let (n, s) = timed(log, "queueing", &name, || {
            let mut svc = |rng: &mut SimRng| service.sample(rng);
            try_simulate_rack(
                lambda,
                &mut svc,
                BalancerPolicy::Jsq,
                &plan,
                &copts(EventQueueKind::Wheel),
                &Tracer::disabled(),
            )
            .map_or(0, |r| r.cluster.samples)
        });
        out.push(rate(name, "Mrequests/s", n as f64 / 1e6, s));
    }

    let samples = scaled(cfg, 4_000_000) as usize;
    let mut rng = rng_from_seed(derive_stream(seed, 0x0b5));
    let stream: Vec<f64> = (0..samples).map(|_| service.sample(&mut rng)).collect();
    let name = "obs.sketch.msamples_per_s".to_string();
    let (p99, s) = timed(log, "obs", &name, || {
        let mut sketch = LatencySketch::new();
        for &v in &stream {
            sketch.record(v);
        }
        sketch.quantile(0.99)
    });
    black_box(p99);
    out.push(rate(name, "Msamples/s", samples as f64 / 1e6, s));
    let name = "obs.vec.msamples_per_s".to_string();
    let (p99, s) = timed(log, "obs", &name, || {
        let mut q = QuantileEstimator::with_capacity(stream.len());
        for &v in &stream {
            q.record(v);
        }
        q.quantile(0.99)
    });
    black_box(p99);
    out.push(rate(name, "Msamples/s", samples as f64 / 1e6, s));
}

/// `core` (`exec`, `cellcache`, `experiments`, `report`) and `serde_json`.
fn core_layer(cfg: &Config, log: &mut SpanLog, out: &mut Vec<Metric>) {
    let tasks = scaled(cfg, 200_000) as usize;
    let pool = ExecPool::new(cfg.threads).with_progress(false);
    let name = "exec.pool.mtasks_per_s".to_string();
    let (v, s) = timed(log, "core.exec", &name, || {
        pool.run("bench/pool", tasks, |i| i ^ 0x5A)
    });
    black_box(v);
    out.push(rate(name, "Mtasks/s", tasks as f64 / 1e6, s));

    // Key derivation over the benchmark's own grids.
    let key_passes = scaled(cfg, 200);
    let f5 = fig5_options(cfg);
    let cl = cluster_options(cfg);
    let rk = rack_options(cfg);
    let name = "cellcache.digest_mkeys_per_s".to_string();
    let (keys, s) = timed(log, "core.cellcache", &name, || {
        (0..key_passes)
            .map(|_| {
                fig5::cell_keys(&f5).len()
                    + cluster_sweep::cell_keys(&cl).len()
                    + rack_sweep::cell_keys(&rk).len()
            })
            .sum::<usize>()
    });
    out.push(rate(name, "Mkeys/s", keys as f64 / 1e6, s));

    // Raw store and probe throughput over 2000 cluster-sized payloads.
    let entries = scaled(cfg, 2_000);
    let dir = cfg.scratch.join("probe-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CellCache::new(&dir);
    let keys: Vec<CellKey> = (0..entries)
        .map(|i| CellKey::build("bench/probe", |w| w.field_u64("i", i)))
        .collect();
    let payloads: Vec<String> = (0..entries)
        .map(|i| {
            let mut w = duplexity::cellcache::PayloadWriter::new();
            for f in ["p99_us", "p50_us", "mean_us", "mean_wait_us", "utilization"] {
                w.f64(f, i as f64 * 0.37 + f.len() as f64);
            }
            w.usize("samples", i as usize);
            w.finish()
        })
        .collect();
    let name = "cellcache.store_mb_per_s".to_string();
    let ((), s) = timed(log, "core.cellcache", &name, || {
        for (k, p) in keys.iter().zip(&payloads) {
            cache.store(k, p);
        }
    });
    out.push(rate(name, "MB/s", cache.bytes_written() as f64 / 1e6, s));
    let name = "cellcache.probe_mb_per_s".to_string();
    let (found, s) = timed(log, "core.cellcache", &name, || {
        cache.probe(&keys, |p| Some(p.len()))
    });
    black_box(found);
    out.push(rate(name, "MB/s", cache.bytes_read() as f64 / 1e6, s));
    let _ = std::fs::remove_dir_all(&dir);

    // A fully warm pass of the cluster grid after a cold one.
    let dir = cfg.scratch.join("warm-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cached = cluster_options(cfg);
    cached.cache = Some(CellCache::new(&dir));
    log.span("core.experiments", "cluster_sweep.cold", |_| {
        duplexity::cluster_sweep(&cached)
    });
    let name = "cellcache.warm_pass_ms".to_string();
    let (warm, s) = timed(log, "core.experiments", &name, || {
        duplexity::cluster_sweep(&cached)
    });
    out.push(Metric::new(name, "ms", "lower", s * 1e3));
    let _ = std::fs::remove_dir_all(&dir);

    let shares = fig5_shares(cfg, log);
    let cells = &shares.cells;
    out.extend(shares.metrics);

    // Serialization and rendering of fixed outputs: the fig5 sub-slice
    // cells and the cluster points above.
    let json_passes = scaled(cfg, 20) as usize;
    let name = "json.serialize_mb_per_s".to_string();
    let (text, s) = timed(log, "serde_json", &name, || {
        let mut last = String::new();
        for _ in 0..json_passes {
            last = serde_json::to_string_pretty(&(cells, &warm)).expect("plain data serializes");
        }
        last
    });
    out.push(rate(
        name,
        "MB/s",
        (text.len() * json_passes) as f64 / 1e6,
        s,
    ));
    let name = "json.parse_mb_per_s".to_string();
    let (ok, s) = timed(log, "serde_json", &name, || {
        (0..json_passes)
            .filter(|_| serde_json::parse_value(&text).is_ok())
            .count()
    });
    black_box(ok);
    out.push(rate(
        name,
        "MB/s",
        (text.len() * json_passes) as f64 / 1e6,
        s,
    ));
    let name = "report.render_ms".to_string();
    let ((), s) = timed(log, "core.report", &name, || {
        crate::workloads::render_fig5(cells);
        black_box(render::render_cluster_sweep(&warm));
    });
    out.push(Metric::new(name, "ms", "lower", s * 1e3));
}

struct Fig5Shares {
    cells: Vec<fig5::Fig5Cell>,
    metrics: Vec<Metric>,
}

/// Where a Figure 5 run's time goes: `run_fig5` on one worker over the
/// McRouter and WordStem sub-slice, then its cycle simulations replayed
/// one by one. The residual is the lender reference, the M/G/1 tails and
/// the pool.
fn fig5_shares(cfg: &Config, log: &mut SpanLog) -> Fig5Shares {
    let mut o = fig5_options(cfg);
    o.workloads = vec![Workload::McRouter, Workload::WordStem];
    o.threads = 1;
    let (cells, total) = timed(log, "core.experiments", "fig5_share.run_fig5", || {
        fig5::run_fig5(&o)
    });
    let (mut ooo, mut dyad, mut calibrate) = (0.0, 0.0, 0.0);
    for &w in &o.workloads {
        for &d in &o.designs {
            let (_, s) = timed(log, "cpu", "fig5_share.calibrate", || {
                let m = ServerSim::new(d, w)
                    .saturated()
                    .horizon_cycles(o.horizon_cycles / 3)
                    .seed(derive_stream(o.seed, 0x5A7))
                    .run();
                black_box(m.request_latencies_us.len())
            });
            calibrate += s;
            for &load in &o.loads {
                let (_, s) = timed(log, "cpu", "fig5_share.cell", || {
                    run_design(d, w, load, o.horizon_cycles, o.seed, Stepping::FastForward)
                });
                if is_dyad(d) {
                    dyad += s;
                } else {
                    ooo += s;
                }
            }
        }
    }
    let share =
        |part: &str, v: f64| Metric::new(format!("fig5_grid.share.{part}"), "fraction", "lower", v);
    let residual = (1.0 - (ooo + dyad + calibrate) / total).max(0.0);
    Fig5Shares {
        cells,
        metrics: vec![
            share("ooo_cells", ooo / total),
            share("dyad_cells", dyad / total),
            share("calibrate", calibrate / total),
            share("residual", residual),
        ],
    }
}
