//! The frontier engine behind the synchronized product search.
//!
//! [`crate::sync::SyncSearch`] is a level-synchronous BFS loop over a frozen
//! [`cxrpq_graph::GraphDb`]: every level, each frontier item (a whole
//! product configuration) expands over contiguous CSR adjacency slices and
//! the discoveries become the next frontier. The frozen database is
//! `Send + Sync`, so a sufficiently large level can be sharded across the
//! long-lived [`WorkerPool`]: each worker expands a contiguous range of the
//! frontier into private next-level storage, and the level barrier merges
//! the private results. Routing levels through the shared pool (instead of
//! the scoped per-level spawns this module used to do) keeps a loaded server
//! at one thread per core no matter how many queries shard concurrently.
//!
//! [`FrontierConfig`] holds the knobs: a worker count (auto-sized from
//! [`std::thread::available_parallelism`] by default), a serial-fallback
//! threshold so levels too small to amortize shard dispatch — and therefore
//! entire tiny graphs — run on the calling thread exactly as before, and an
//! optional pinned pool for tests that need a deterministic width.

use crate::governor::Governor;
use crate::pool::WorkerPool;
use std::num::NonZeroUsize;

/// Tuning knobs of the level-synchronous frontier engine.
#[derive(Clone, Copy, Debug)]
pub struct FrontierConfig {
    /// Worker threads per sharded level; `0` auto-sizes from
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Frontier sizes strictly below this expand serially on the calling
    /// thread (no dispatch, no merge), so small levels and small graphs pay
    /// nothing for the parallel machinery.
    pub serial_threshold: usize,
    /// Pool override; `None` routes sharded levels through
    /// [`WorkerPool::global`]. Tests pin a width by leaking a private pool.
    pub pool: Option<&'static WorkerPool>,
}

impl FrontierConfig {
    /// Default serial-fallback threshold. Frontier items are whole product
    /// configurations (positions × state masks × relation state), heavy
    /// enough per expansion that a level of 128 amortizes shard dispatch.
    pub const SERIAL_THRESHOLD: usize = 128;

    /// Auto-sized workers with the default [`Self::SERIAL_THRESHOLD`].
    pub fn auto() -> Self {
        Self {
            threads: 0,
            serial_threshold: Self::SERIAL_THRESHOLD,
            pool: None,
        }
    }

    /// Single-threaded: every level expands on the calling thread.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            serial_threshold: usize::MAX,
            pool: None,
        }
    }

    /// Exactly `threads` workers (with the default threshold); pass `0` for
    /// auto-sizing.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::auto()
        }
    }

    /// Same knobs, different serial-fallback threshold.
    pub fn with_serial_threshold(mut self, threshold: usize) -> Self {
        self.serial_threshold = threshold;
        self
    }

    /// Route sharded levels through `pool` instead of the global pool, and
    /// (unless `threads` was pinned) size shards from its worker count.
    pub fn with_pool(mut self, pool: &'static WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool sharded levels run on.
    pub fn pool(&self) -> &'static WorkerPool {
        self.pool.unwrap_or_else(WorkerPool::global)
    }

    /// The resolved worker count: `threads` when pinned, else the override
    /// pool's width, else the machine's available parallelism.
    pub fn worker_count(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(pool) = self.pool {
            return pool.worker_count();
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// How many shards a level of `frontier_len` items should split into:
    /// `1` (serial) below the threshold, otherwise the resolved worker
    /// count, never more than the number of items.
    pub fn shards_for(&self, frontier_len: usize) -> usize {
        if frontier_len < self.serial_threshold {
            return 1;
        }
        self.worker_count().clamp(1, frontier_len.max(1))
    }
}

impl Default for FrontierConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// Expands one frontier level across `shards` pool workers.
///
/// `items` is split into `shards` contiguous chunks; `worker(shard_index,
/// chunk)` runs on `shards - 1` pool workers plus the calling thread (which
/// also helps drain the pool queue while it waits), and the per-shard
/// results come back in shard order for the caller to merge at the level
/// barrier. With `shards <= 1` the worker runs inline — the serial fallback
/// costs one indirect call and nothing else.
pub fn expand_sharded<T, R, F>(items: &[T], shards: usize, pool: &WorkerPool, worker: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    pool.run_sharded(items, shards, worker)
}

/// [`expand_sharded`] under a [`Governor`]: each worker observes the abort
/// flag at the level barrier before expanding its chunk and, when the
/// governor has tripped, *drains* — it runs on an empty slice, producing a
/// neutral result for the merge instead of expanding work that will be
/// thrown away. (Finer-grained mid-chunk draining is the worker closure's
/// job; this wrapper guarantees the barrier-level check even for closures
/// that never look at the governor.)
pub fn expand_sharded_governed<T, R, F>(
    items: &[T],
    shards: usize,
    pool: &WorkerPool,
    gov: &Governor,
    worker: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    expand_sharded(items, shards, pool, |i, chunk| {
        if gov.is_aborted() {
            worker(i, &chunk[..0])
        } else {
            worker(i, chunk)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_respect_threshold_and_items() {
        let cfg = FrontierConfig {
            threads: 4,
            serial_threshold: 10,
            pool: None,
        };
        assert_eq!(cfg.shards_for(9), 1, "below threshold: serial");
        assert_eq!(cfg.shards_for(10), 4);
        assert_eq!(cfg.worker_count(), 4);
        assert!(FrontierConfig::auto().worker_count() >= 1);
        assert_eq!(FrontierConfig::serial().shards_for(1 << 20), 1);
    }

    #[test]
    fn pinned_pool_drives_worker_count() {
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool::new(3)));
        let cfg = FrontierConfig::auto().with_pool(pool);
        assert_eq!(cfg.worker_count(), 3);
        assert!(std::ptr::eq(cfg.pool(), pool));
        let pinned = FrontierConfig::with_threads(2).with_pool(pool);
        assert_eq!(pinned.worker_count(), 2, "explicit threads win");
    }

    #[test]
    fn sharded_expansion_covers_every_item_in_order() {
        let items: Vec<usize> = (0..103).collect();
        let pool = WorkerPool::global();
        for shards in [1, 2, 3, 8, 103, 200] {
            let parts = expand_sharded(&items, shards, pool, |_, chunk| chunk.to_vec());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, items, "shards = {shards}");
        }
    }

    #[test]
    fn shard_indices_are_distinct() {
        let items: Vec<u8> = vec![0; 64];
        let parts = expand_sharded(&items, 4, WorkerPool::global(), |i, _| i);
        assert_eq!(parts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn governed_workers_drain_on_abort() {
        let items: Vec<usize> = (0..64).collect();
        let pool = WorkerPool::global();
        let gov = Governor::unlimited();
        let live = expand_sharded_governed(&items, 4, pool, &gov, |_, chunk| chunk.len());
        assert_eq!(live.iter().sum::<usize>(), 64, "untripped: full expansion");
        gov.cancel();
        let _ = gov.checkpoint();
        let drained = expand_sharded_governed(&items, 4, pool, &gov, |_, chunk| chunk.len());
        assert_eq!(
            drained.iter().sum::<usize>(),
            0,
            "tripped: every worker drains to the empty slice"
        );
        assert_eq!(drained.len(), 4, "merge still sees one result per shard");
    }
}
