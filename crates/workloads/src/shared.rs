//! Read-only workload inputs shared across the runs of one experiment call.

use crate::flann::{FlannConfig, FlannIndex, FlannKernel};
use crate::graph::{FillerFactory, GraphConfig, SyntheticGraph, PAPER_FILLERS};
use crate::Workload;
use duplexity_cpu::op::RequestKernel;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// Everything [`FlannIndex::build`] reads: `tables`, `hyperplanes`, `dims`,
/// `points`, and the seed.
type IndexKey = (usize, usize, usize, usize, u64);

/// One build slot per key. The map lock covers only the slot lookup, so
/// distinct keys build concurrently and each key builds once.
struct Memo<K, V>(Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>);

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self(Mutex::default())
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    fn get(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let slot = Arc::clone(
            self.0
                .lock()
                .expect("input slots poisoned")
                .entry(key)
                .or_default(),
        );
        Arc::clone(slot.get_or_init(|| Arc::new(build())))
    }
}

/// A cache of the expensive, read-only workload inputs: filler graphs keyed
/// by seed and FLANN indexes keyed by geometry and seed. Each is built at
/// most once, on first use, and is shared through an `Arc`.
///
/// The kernels and factories it hands out are fresh: each FLANN kernel keeps
/// its own query stream, RDMA sampler and address offset. They emit exactly
/// what [`Workload::kernel`], [`FlannKernel::new`] and
/// [`FillerFactory::paper`] emit for the same arguments.
///
/// Scope one to a single experiment call and drop it on return. A
/// process-wide cache would keep every seed's inputs alive and would make
/// later calls skip builds that a timed call is meant to pay for.
///
/// # Examples
///
/// ```
/// use duplexity_workloads::flann::FlannConfig;
/// use duplexity_workloads::SharedInputs;
///
/// let inputs = SharedInputs::new();
/// // Both kernels search one index; each draws its own queries.
/// let _a = inputs.flann(FlannConfig::sweep_9_1(), 7);
/// let _b = inputs.flann(FlannConfig::sweep_10_10(), 7);
/// ```
#[derive(Default)]
pub struct SharedInputs {
    graphs: Memo<u64, SyntheticGraph>,
    indexes: Memo<IndexKey, FlannIndex>,
}

impl std::fmt::Debug for SharedInputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedInputs").finish_non_exhaustive()
    }
}

impl SharedInputs {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// [`Workload::kernel`], over a shared index for the FLANN workloads.
    #[must_use]
    pub fn kernel(&self, workload: Workload, seed: u64) -> Box<dyn RequestKernel> {
        match workload {
            Workload::FlannHa => Box::new(self.flann(FlannConfig::high_accuracy(), seed)),
            Workload::FlannLl => Box::new(self.flann(FlannConfig::low_latency(), seed)),
            Workload::Rsc | Workload::McRouter | Workload::WordStem => workload.kernel(seed),
        }
    }

    /// [`FlannKernel::new`] over a shared index.
    #[must_use]
    pub fn flann(&self, cfg: FlannConfig, seed: u64) -> FlannKernel {
        FlannKernel::with_index(cfg, self.index(&cfg, seed), seed)
    }

    /// [`FillerFactory::paper`] over a shared graph.
    #[must_use]
    pub fn fillers(&self, seed: u64) -> FillerFactory {
        let graph = self.graphs.get(seed, || {
            SyntheticGraph::twitter_like(GraphConfig::default(), seed)
        });
        FillerFactory::from_graph(graph, PAPER_FILLERS, seed)
    }

    fn index(&self, cfg: &FlannConfig, seed: u64) -> Arc<FlannIndex> {
        let key = (cfg.tables, cfg.hyperplanes, cfg.dims, cfg.points, seed);
        self.indexes.get(key, || FlannIndex::build(cfg, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplexity_cpu::op::{Fetched, MicroOp};
    use duplexity_stats::rng::{rng_from_seed, SimRng};

    /// The ops of `requests` consecutive requests, drawing from `rng`.
    fn emit(kernel: &mut dyn RequestKernel, rng: &mut SimRng, requests: usize) -> Vec<MicroOp> {
        let mut out = Vec::new();
        for _ in 0..requests {
            kernel.generate(rng, &mut out);
        }
        out
    }

    #[test]
    fn kernels_emit_what_workload_kernel_emits() {
        // One cache across both seeds, so a key that ignored the seed would
        // hand seed 42 the seed-1 index.
        let inputs = SharedInputs::new();
        for seed in [1, 42] {
            for w in Workload::ALL {
                let mut shared = inputs.kernel(w, seed);
                let mut own = w.kernel(seed);
                let (mut r1, mut r2) = (rng_from_seed(seed + 7), rng_from_seed(seed + 7));
                assert_eq!(
                    emit(shared.as_mut(), &mut r1, 64),
                    emit(own.as_mut(), &mut r2, 64),
                    "{w} at seed {seed}"
                );
            }
        }
    }

    /// Runs two kernels from one cache request by request, interleaved, and
    /// checks each against its own freshly built kernel.
    fn interleaved_match(a: (FlannConfig, u64), b: (FlannConfig, u64)) {
        let inputs = SharedInputs::new();
        let mut shared = [inputs.flann(a.0, a.1), inputs.flann(b.0, b.1)];
        let mut own = [FlannKernel::new(a.0, a.1), FlannKernel::new(b.0, b.1)];
        let mut rngs: Vec<SimRng> = (0..4).map(|i| rng_from_seed(i % 2)).collect();
        for request in 0..16 {
            for k in 0..2 {
                let (left, right) = rngs.split_at_mut(2);
                assert_eq!(
                    emit(&mut shared[k], &mut left[k], 1),
                    emit(&mut own[k], &mut right[k], 1),
                    "kernel {k}, request {request}"
                );
            }
        }
    }

    #[test]
    fn interleaved_kernels_at_one_seed_keep_their_own_queries() {
        interleaved_match(
            (FlannConfig::sweep_9_1(), 5),
            (FlannConfig::sweep_10_10(), 5),
        );
    }

    #[test]
    fn interleaved_kernels_at_two_seeds_keep_their_own_queries_and_offsets() {
        let private = FlannConfig {
            private_address_space: true,
            ..FlannConfig::low_latency()
        };
        interleaved_match((private, 5), (private, 6));
    }

    #[test]
    fn sweep_geometries_share_an_index_per_seed() {
        let inputs = SharedInputs::new();
        let base = inputs.index(&FlannConfig::sweep_baseline(), 42);
        assert!(Arc::ptr_eq(
            &base,
            &inputs.index(&FlannConfig::sweep_9_1(), 42)
        ));
        assert!(Arc::ptr_eq(
            &base,
            &inputs.index(&FlannConfig::sweep_10_10(), 42)
        ));
        assert!(!Arc::ptr_eq(
            &base,
            &inputs.index(&FlannConfig::sweep_1_1(), 42)
        ));
        assert!(!Arc::ptr_eq(
            &base,
            &inputs.index(&FlannConfig::sweep_baseline(), 43)
        ));
    }

    #[test]
    fn filler_streams_match_the_paper_factory() {
        let inputs = SharedInputs::new();
        for seed in [3, 42] {
            let (shared, own) = (inputs.fillers(seed), FillerFactory::paper(seed));
            for id in [0, 1, 31] {
                let (mut a, mut b) = (shared.stream(id), own.stream(id));
                let mut rng = rng_from_seed(9);
                for now in 0..10_000 {
                    let op: Fetched = a.next(now, &mut rng);
                    assert_eq!(op, b.next(now, &mut rng), "seed {seed}, id {id}, op {now}");
                }
            }
        }
    }
}
