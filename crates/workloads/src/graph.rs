//! Batch / filler-thread workloads: BSP graph analytics over a synthetic
//! power-law graph (§V).
//!
//! The paper's filler-threads "execute distributed PageRank and Single-Source
//! Shortest Path algorithms based on bulk synchronous processing \[115\] and
//! \[a\] synchronous queue pair-based disaggregated memory model \[12\] on ...
//! a subset of the Twitter graph \[116\]". Roughly half of vertex reads are
//! remote, single–cache-line RDMA reads of 1µs; the net effect is ~1µs of
//! stall per 1–2µs of compute, with 32 filler threads per dyad.
//!
//! We build a preferential-attachment (power-law, Twitter-like) graph in CSR
//! form, shard its vertices across threads, and run real PageRank /
//! Bellman-Ford-style SSSP sweeps whose traces carry the actual CSR
//! addresses. Remote reads are batched queue-pair operations: one 1µs
//! exponential stall per [`GraphConfig::ops_per_remote`] emitted ops, which
//! calibrates to the paper's stated compute-to-stall ratio. BSP superstep
//! barriers are not modelled (threads interleave in steady state), a
//! simplification that preserves per-thread compute/stall structure.

use crate::trace::TraceBuilder;
use duplexity_cpu::op::{Fetched, InstructionStream, MicroOp};
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::rng::{derive_stream, rng_from_seed, SimRng};
use rand::RngExt;
use std::sync::Arc;

/// Virtual base of a shard's rank/distance arrays.
const RANK_BASE: u64 = 0xD000_0000;
/// Virtual base of the CSR target array.
const EDGE_BASE: u64 = 0xE000_0000;
/// Virtual base of the CSR offset array.
const OFFSET_BASE: u64 = 0xD800_0000;
/// Virtual base of per-thread ghost-vertex replica caches.
const GHOST_BASE: u64 = 0xD400_0000;
/// Virtual base of per-thread BSP receive buffers.
const MSG_BASE: u64 = 0xD600_0000;
/// Ghost replica entries per thread (1KB of 8-byte entries).
const GHOST_ENTRIES: u64 = 128;
/// Receive-buffer entries per thread (512B of 8-byte entries).
const MSG_ENTRIES: u64 = 64;

/// Tuning for graph filler threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Vertices in the shared graph.
    pub vertices: usize,
    /// Average out-degree.
    pub avg_degree: usize,
    /// Probability an edge endpoint lives on a remote node.
    pub remote_fraction: f64,
    /// Emitted micro-ops between consecutive remote reads (batched BSP
    /// messaging); ~3000 ops ≈ 1.5µs of compute per context on the in-order
    /// cores, the middle of the paper's "1µs stall per 1–2µs compute" band.
    pub ops_per_remote: usize,
    /// Mean RDMA read latency in µs.
    pub rdma_mean_us: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            vertices: 8 * 1024,
            avg_degree: 16,
            remote_fraction: 0.5,
            ops_per_remote: 3000,
            rdma_mean_us: 1.0,
        }
    }
}

/// A synthetic power-law directed graph in CSR form.
#[derive(Debug)]
pub struct SyntheticGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    cfg: GraphConfig,
}

impl SyntheticGraph {
    /// Generates a Twitter-like graph by preferential attachment: each new
    /// edge's target is, with probability 1/2, the target of a previously
    /// placed edge (rich get richer), otherwise uniform.
    #[must_use]
    pub fn twitter_like(cfg: GraphConfig, seed: u64) -> Self {
        let mut rng = rng_from_seed(derive_stream(seed, 0x6EA9));
        let n = cfg.vertices;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut placed: Vec<u32> = Vec::with_capacity(n * cfg.avg_degree);
        for list in adj.iter_mut() {
            // Power-law-ish out-degree: 1 + geometric burst around the mean.
            let mut degree = 1;
            while degree < cfg.avg_degree * 8
                && rng.random::<f64>() < 1.0 - 1.0 / cfg.avg_degree as f64
            {
                degree += 1;
            }
            for _ in 0..degree {
                let t = if !placed.is_empty() && rng.random::<bool>() {
                    placed[rng.random_range(0..placed.len())]
                } else {
                    rng.random_range(0..n as u32)
                };
                list.push(t);
                placed.push(t);
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for list in &adj {
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        Self {
            offsets,
            targets,
            cfg,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v`.
    #[must_use]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The configuration used to build the graph.
    #[must_use]
    pub fn config(&self) -> &GraphConfig {
        &self.cfg
    }
}

/// Which graph kernel a filler thread runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKernel {
    /// Iterative PageRank accumulation.
    PageRank,
    /// Bellman-Ford-style SSSP relaxation sweeps.
    Sssp,
}

/// An infinite filler-thread instruction stream running a graph kernel over
/// one shard of the shared graph.
pub struct GraphStream {
    graph: Arc<SyntheticGraph>,
    kernel: GraphKernel,
    shard_start: u32,
    shard_end: u32,
    cursor: u32,
    ranks: Vec<f32>,
    dists: Vec<u32>,
    rdma: Exponential,
    ops_since_remote: usize,
    buf: Vec<MicroOp>,
    pos: usize,
    rng: SimRng,
}

impl std::fmt::Debug for GraphStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStream")
            .field("kernel", &self.kernel)
            .field("shard", &(self.shard_start..self.shard_end))
            .finish()
    }
}

impl GraphStream {
    /// Creates the stream for thread `thread` of `total_threads`, running
    /// `kernel` over its shard.
    ///
    /// # Panics
    ///
    /// Panics if `total_threads == 0` or `thread >= total_threads`.
    #[must_use]
    pub fn new(
        graph: Arc<SyntheticGraph>,
        kernel: GraphKernel,
        thread: usize,
        total_threads: usize,
        seed: u64,
    ) -> Self {
        assert!(
            total_threads > 0 && thread < total_threads,
            "bad shard index"
        );
        let n = graph.vertex_count() as u32;
        let per = n / total_threads as u32;
        let shard_start = per * thread as u32;
        let shard_end = if thread + 1 == total_threads {
            n
        } else {
            per * (thread as u32 + 1)
        };
        let rdma_mean = graph.config().rdma_mean_us;
        let nv = graph.vertex_count();
        Self {
            graph,
            kernel,
            shard_start,
            shard_end,
            cursor: shard_start,
            ranks: vec![1.0; nv],
            dists: vec![u32::MAX / 2; nv],
            rdma: Exponential::new(rdma_mean),
            ops_since_remote: 0,
            buf: Vec::with_capacity(4096),
            pos: 0,
            rng: rng_from_seed(derive_stream(seed, 0x6EAA + thread as u64)),
        }
    }

    /// Generates the trace of processing the next vertex into `buf`.
    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let v = self.cursor;
        self.cursor += 1;
        if self.cursor >= self.shard_end {
            self.cursor = self.shard_start; // next sweep / superstep
        }
        let cfg = *self.graph.config();
        let graph = Arc::clone(&self.graph);
        let mut tb = TraceBuilder::new(&mut self.buf, 0x60_0000, 16 * 1024);

        // Load the CSR offsets and the vertex's own state.
        let o = tb.load(OFFSET_BASE + u64::from(v) * 4);
        tb.alu_on(o);
        let mut acc = tb.load(RANK_BASE + u64::from(v) * 8);

        let neighbors = graph.neighbors(v);
        let lo = graph.offsets[v as usize] as u64;
        // Process edges in unrolled groups of four, as a compiled BSP inner
        // loop would: issue the four target-state loads first, then the four
        // accumulations. The separation gives the in-order lender datapath
        // memory-level parallelism across the group.
        //
        // Memory traffic is shard-confined, as in a real BSP partitioning:
        // in-shard targets read the local rank array; out-of-shard targets
        // read either a per-thread ghost replica (cached cross-shard state)
        // or the BSP receive buffer whose refills are the batched RDMA reads
        // below.
        // Per-thread bases staggered by an odd line count so threads do not
        // alias into identical L1 sets.
        let ghost_base = GHOST_BASE + u64::from(self.shard_start) * 66;
        let msg_base = MSG_BASE + u64::from(self.shard_start) * 18;
        for (g, group) in neighbors.chunks(4).enumerate() {
            let mut vals = [0u8; 4];
            for (j, &t) in group.iter().enumerate() {
                let i = (g * 4 + j) as u64;
                // Sequential CSR edge read (hits: the id array is dense).
                let e = tb.load(EDGE_BASE + (lo + i) * 4);
                tb.alu_on(e);
                // Target state read.
                let addr = if (self.shard_start..self.shard_end).contains(&t) {
                    RANK_BASE + u64::from(t) * 8
                } else if u64::from(t ^ v) % 2 == 0 {
                    ghost_base + (u64::from(t) % GHOST_ENTRIES) * 8
                } else {
                    msg_base + (i % MSG_ENTRIES) * 8
                };
                vals[j] = tb.load(addr);
            }
            for (j, &t) in group.iter().enumerate() {
                let i = g * 4 + j;
                match self.kernel {
                    GraphKernel::PageRank => {
                        // rank[v] += rank[t] / degree(t), computed for real.
                        let d = graph.neighbors(t).len().max(1) as f32;
                        self.ranks[v as usize] += self.ranks[t as usize] / d;
                        let f = tb.fp_on(vals[j]);
                        acc = tb.fp_on(f);
                    }
                    GraphKernel::Sssp => {
                        // Relax edge (v, t) with unit-ish weights.
                        let w = 1 + (u64::from(v ^ t) % 4) as u32;
                        let nd = self.dists[v as usize].saturating_add(w);
                        let improved = nd < self.dists[t as usize];
                        tb.branch(600 + (i % 8) as u32, improved);
                        if improved {
                            self.dists[t as usize] = nd;
                            tb.store(RANK_BASE + 0x100_0000 + u64::from(t) * 4, vals[j]);
                        }
                        acc = tb.alu_on(vals[j]);
                    }
                }
            }
            // Batched queue-pair remote read (§V: 1µs per 1-2µs compute).
            let remote = self.rng.random::<f64>() < cfg.remote_fraction;
            self.ops_since_remote += 6 * group.len();
            if remote && self.ops_since_remote >= cfg.ops_per_remote {
                self.ops_since_remote = 0;
                let lat = self.rdma.sample(&mut self.rng);
                let r = tb.remote_after(lat, acc);
                acc = tb.alu_on(r);
            }
        }
        // Write the vertex's updated state.
        tb.store(RANK_BASE + u64::from(v) * 8, acc);
        // Seed SSSP sources so relaxations keep happening across sweeps.
        if self.kernel == GraphKernel::Sssp && v == self.shard_start {
            self.dists[v as usize] = 0;
        }
    }
}

impl InstructionStream for GraphStream {
    fn next(&mut self, _now: u64, _rng: &mut SimRng) -> Fetched {
        while self.pos >= self.buf.len() {
            self.refill();
        }
        let op = self.buf[self.pos];
        self.pos += 1;
        Fetched::Op(op)
    }
}

/// Filler threads per dyad in the paper's configuration (§V).
pub(crate) const PAPER_FILLERS: usize = 32;

/// Standard filler-thread factory: even thread ids run PageRank, odd run
/// SSSP, over a shared Twitter-like graph (§V).
#[derive(Debug, Clone)]
pub struct FillerFactory {
    graph: Arc<SyntheticGraph>,
    total_threads: usize,
    seed: u64,
}

impl FillerFactory {
    /// Builds the shared graph once; streams are created per thread id.
    #[must_use]
    pub fn new(cfg: GraphConfig, total_threads: usize, seed: u64) -> Self {
        Self::from_graph(
            Arc::new(SyntheticGraph::twitter_like(cfg, seed)),
            total_threads,
            seed,
        )
    }

    /// A factory over `graph`, which must be `SyntheticGraph::twitter_like`
    /// of its config and `seed`.
    pub(crate) fn from_graph(graph: Arc<SyntheticGraph>, total_threads: usize, seed: u64) -> Self {
        Self {
            graph,
            total_threads: total_threads.max(1),
            seed,
        }
    }

    /// The paper's configuration: 32 filler threads per dyad.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self::new(GraphConfig::default(), PAPER_FILLERS, seed)
    }

    /// Creates the stream for filler thread `id`.
    #[must_use]
    pub fn stream(&self, id: usize) -> Box<dyn InstructionStream> {
        let kernel = if id.is_multiple_of(2) {
            GraphKernel::PageRank
        } else {
            GraphKernel::Sssp
        };
        Box::new(GraphStream::new(
            Arc::clone(&self.graph),
            kernel,
            id % self.total_threads,
            self.total_threads,
            derive_stream(self.seed, id as u64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplexity_cpu::op::Op;

    fn small_cfg() -> GraphConfig {
        GraphConfig {
            vertices: 2048,
            avg_degree: 8,
            ..GraphConfig::default()
        }
    }

    #[test]
    fn graph_shape() {
        let g = SyntheticGraph::twitter_like(small_cfg(), 1);
        assert_eq!(g.vertex_count(), 2048);
        let avg = g.edge_count() as f64 / g.vertex_count() as f64;
        assert!(avg > 2.0 && avg < 64.0, "avg degree {avg}");
    }

    #[test]
    fn graph_is_power_law_ish() {
        // In-degree distribution should be heavily skewed: the top 1% of
        // vertices absorb far more than 1% of edges.
        let g = SyntheticGraph::twitter_like(small_cfg(), 2);
        let mut indeg = vec![0u32; g.vertex_count()];
        for &t in &g.targets {
            indeg[t as usize] += 1;
        }
        indeg.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = indeg[..g.vertex_count() / 100].iter().sum();
        let total: u32 = indeg.iter().sum();
        assert!(
            f64::from(top) / f64::from(total) > 0.05,
            "top-1% share {}",
            f64::from(top) / f64::from(total)
        );
    }

    #[test]
    fn shards_partition_vertices() {
        let g = Arc::new(SyntheticGraph::twitter_like(small_cfg(), 3));
        let mut covered = 0u32;
        for t in 0..8 {
            let s = GraphStream::new(Arc::clone(&g), GraphKernel::PageRank, t, 8, 0);
            covered += s.shard_end - s.shard_start;
        }
        assert_eq!(covered, g.vertex_count() as u32);
    }

    #[test]
    fn stream_emits_remote_loads_at_calibrated_rate() {
        let cfg = GraphConfig {
            ops_per_remote: 500,
            ..small_cfg()
        };
        let g = Arc::new(SyntheticGraph::twitter_like(cfg, 4));
        let mut s = GraphStream::new(g, GraphKernel::PageRank, 0, 4, 7);
        let mut rng = rng_from_seed(8);
        let mut total = 0usize;
        let mut remotes = 0usize;
        for _ in 0..60_000 {
            if let Fetched::Op(op) = s.next(0, &mut rng) {
                total += 1;
                if matches!(op.op, Op::RemoteLoad { .. }) {
                    remotes += 1;
                }
            }
        }
        assert!(remotes > 10, "remotes {remotes}");
        let ops_per_remote = total as f64 / remotes as f64;
        assert!(
            (300.0..2000.0).contains(&ops_per_remote),
            "ops per remote {ops_per_remote}"
        );
    }

    #[test]
    fn pagerank_accumulates_rank() {
        let g = Arc::new(SyntheticGraph::twitter_like(small_cfg(), 5));
        let mut s = GraphStream::new(g, GraphKernel::PageRank, 0, 1, 9);
        let before: f32 = s.ranks.iter().sum();
        let mut rng = rng_from_seed(10);
        for _ in 0..50_000 {
            let _ = s.next(0, &mut rng);
        }
        let after: f32 = s.ranks.iter().sum();
        assert!(after > before, "ranks must accumulate: {before} -> {after}");
    }

    #[test]
    fn sssp_distances_decrease() {
        let g = Arc::new(SyntheticGraph::twitter_like(small_cfg(), 6));
        let mut s = GraphStream::new(g, GraphKernel::Sssp, 0, 1, 11);
        let mut rng = rng_from_seed(12);
        for _ in 0..300_000 {
            let _ = s.next(0, &mut rng);
        }
        let settled = s.dists.iter().filter(|&&d| d < u32::MAX / 2).count();
        assert!(settled > 10, "settled vertices {settled}");
    }

    #[test]
    fn factory_alternates_kernels() {
        let f = FillerFactory::new(small_cfg(), 8, 13);
        // Streams build without panicking for all 32 paper threads.
        for id in 0..32 {
            let _ = f.stream(id);
        }
    }

    #[test]
    fn streams_are_infinite() {
        let f = FillerFactory::new(small_cfg(), 4, 14);
        let mut s = f.stream(0);
        let mut rng = rng_from_seed(15);
        for now in 0..10_000 {
            assert!(matches!(s.next(now, &mut rng), Fetched::Op(_)));
        }
    }
}
