//! Long-lived worker pool shared by every parallel code path.
//!
//! The frontier engine used to spawn scoped threads at every BFS level, which
//! oversubscribes a loaded server: `Q` concurrent queries each spawning `T`
//! shard threads puts `Q * T` runnable threads on `T` cores. This pool owns
//! the hardware threads once, and both intra-query level sharding
//! ([`crate::frontier::expand_sharded`]) and inter-query parallelism (the CLI
//! `serve` connection handlers) draw from the same scheduler.
//!
//! Design notes:
//!
//! - **Help-while-wait.** A thread submitting a sharded scope does not block
//!   idle: after running its own shard it pops and runs queued jobs (its own
//!   or another scope's) until its scope completes. This makes nested
//!   `run_sharded` calls and pool-size-1 configurations deadlock-free: some
//!   thread always holds a runnable job, so global progress is guaranteed.
//! - **Lifetime erasure.** Jobs borrow the caller's stack (`&[T]` shards and
//!   result slots). They are transmuted to `'static` for the queue; this is
//!   sound because [`WorkerPool::run_sharded`] does not return — and thus the
//!   borrowed frames cannot unwind — until every job of the scope has
//!   finished, panicked or not. The completion latch itself is the one thing
//!   a job touches *after* reporting itself finished, so it is not borrowed:
//!   every job holds an `Arc` of it.
//! - **Panic propagation.** Worker panics are caught, recorded on the scope,
//!   and re-raised on the submitting thread after the scope drains, mirroring
//!   `std::thread::scope` semantics.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A fixed-size pool of worker threads with a shared FIFO job queue.
///
/// Most callers want [`WorkerPool::global`], sized once from
/// `available_parallelism`. Tests that need a pinned width build their own
/// with [`WorkerPool::new`] (and typically `Box::leak` it, since the sharded
/// entry points want a `'static` handle).
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Build a pool with exactly `threads` worker threads (clamped to >= 1).
    pub fn new(threads: usize) -> Self {
        let workers = threads.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("cxrpq-worker-{idx}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        WorkerPool {
            inner,
            workers,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide pool, created on first use with
    /// `max(available_parallelism − 1, 1)` workers: a thread submitting a
    /// sharded scope runs one shard itself and helps drain the queue, so
    /// one worker per remaining CPU keeps every CPU busy without
    /// oversubscribing them. Never torn down.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cpus = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            WorkerPool::new(global_workers(cpus))
        })
    }

    /// Number of worker threads owned by the pool.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Run a fire-and-forget job on the pool.
    ///
    /// Used by callers that want inter-query parallelism without a join
    /// handle; sharded scopes should use [`WorkerPool::run_sharded`].
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.push_jobs(vec![Box::new(job)]);
    }

    /// Split `items` into at most `shards` contiguous chunks and run `worker`
    /// on each, returning the per-shard results in chunk order.
    ///
    /// The calling thread always executes the final chunk itself and then
    /// helps drain the queue until the scope completes, so the call makes
    /// progress even when every pool worker is busy with other queries.
    /// Panics in any shard are re-raised here after all shards finish.
    pub fn run_sharded<T, R, F>(&self, items: &[T], shards: usize, worker: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if shards <= 1 || items.len() <= 1 {
            return vec![worker(0, items)];
        }
        let chunk = items.len().div_ceil(shards.min(items.len()));
        let chunks: Vec<&[T]> = items.chunks(chunk).collect();
        let shards = chunks.len();
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(shards, || None);
        // Shared, not borrowed: the last job's `finish` still touches the
        // latch after its decrement has released this frame.
        let scope = Arc::new(ScopeState::new(shards - 1));
        let slots = SendPtr(results.as_mut_ptr());

        let mut jobs: Vec<Job> = Vec::with_capacity(shards - 1);
        for (i, part) in chunks[..shards - 1].iter().enumerate() {
            let part: &[T] = part;
            let worker_ref = &worker;
            let scope_ref = Arc::clone(&scope);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // Rebind the whole wrapper: edition-2021 disjoint capture
                // would otherwise capture the bare `*mut` field, which is
                // deliberately not `Send`.
                let slots = slots;
                let out = catch_unwind(AssertUnwindSafe(|| worker_ref(i, part)));
                match out {
                    // SAFETY: each job writes only its own slot `i`, the
                    // submitting thread writes only slot `shards - 1`, and
                    // the vector is not read until the scope latch reports
                    // every job finished (release/acquire on `remaining`).
                    Ok(r) => unsafe { *slots.0.add(i) = Some(r) },
                    Err(payload) => scope_ref.record_panic(payload),
                }
                scope_ref.finish();
            });
            // SAFETY: the job borrows `chunks`, `results` and `worker` from
            // this frame and touches them only before its `finish`.
            // `run_sharded` blocks (running the last chunk, then
            // helping/waiting) until `scope` counts every job finished, so
            // the borrows outlive their use; the job owns its `scope` handle,
            // so the latch outlives the `finish` that releases this frame.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
            };
            jobs.push(job);
        }
        self.push_jobs(jobs);

        let last = catch_unwind(AssertUnwindSafe(|| worker(shards - 1, chunks[shards - 1])));
        match last {
            // SAFETY: see slot-disjointness argument above.
            Ok(r) => unsafe { *slots.0.add(shards - 1) = Some(r) },
            Err(payload) => scope.record_panic(payload),
        }
        self.help_until_done(&scope);

        if let Some(payload) = scope.take_panic() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.expect("every shard produced a result"))
            .collect()
    }

    fn push_jobs(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let single = jobs.len() == 1;
        {
            let mut st = self.inner.state.lock().unwrap();
            st.queue.extend(jobs);
        }
        if single {
            self.inner.work_ready.notify_one();
        } else {
            self.inner.work_ready.notify_all();
        }
    }

    /// Run queued jobs (any scope's — progress is progress) until `scope` is
    /// done, sleeping on the scope latch only when the queue is empty.
    fn help_until_done(&self, scope: &ScopeState) {
        while scope.remaining.load(Ordering::Acquire) != 0 {
            let job = self.inner.state.lock().unwrap().queue.pop_front();
            match job {
                Some(job) => job(),
                None => {
                    let guard = scope.done.lock().unwrap();
                    if scope.remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    // Jobs of this scope were all enqueued before the help
                    // loop started, so an empty queue means they are running
                    // on other threads; `finish` takes `done` before
                    // notifying, so this wait cannot miss the last decrement.
                    drop(scope.done_cv.wait(guard).unwrap());
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Worker count of [`WorkerPool::global`] on a machine with `cpus` CPUs.
fn global_workers(cpus: usize) -> usize {
    cpus.saturating_sub(1).max(1)
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st = inner.work_ready.wait(st).unwrap();
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// Completion latch for one `run_sharded` call.
struct ScopeState {
    remaining: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new(jobs: usize) -> Self {
        ScopeState {
            remaining: AtomicUsize::new(jobs),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().unwrap().take()
    }

    /// Counts one job finished. The decrement may let the submitting
    /// thread return, so a job calls this on its own `Arc` handle.
    fn finish(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done.lock().unwrap();
            self.done_cv.notify_all();
        }
    }
}

/// Raw result-slot pointer, shared across shard jobs.
///
/// Wrapped so the jobs can capture it; each job dereferences only its own
/// disjoint slot (see the safety comments at the write sites).
struct SendPtr<R>(*mut Option<R>);

impl<R> Clone for SendPtr<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for SendPtr<R> {}
// SAFETY: the pointer targets slots owned by the submitting thread's frame;
// sends are confined to the scope's lifetime and writes are slot-disjoint.
unsafe impl<R: Send> Send for SendPtr<R> {}
// SAFETY: jobs only copy the pointer; all dereferences are slot-disjoint.
unsafe impl<R: Send> Sync for SendPtr<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn sharded_results_in_chunk_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u32> = (0..1000).collect();
        let sums = pool.run_sharded(&items, 4, |_, slice| slice.iter().sum::<u32>());
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<u32>(), (0..1000).sum::<u32>());
        // Chunk order: shard 0 holds the smallest prefix.
        assert!(sums[0] < sums[3]);
    }

    #[test]
    fn global_pool_leaves_a_cpu_to_the_submitter() {
        assert_eq!(global_workers(1), 1);
        assert_eq!(global_workers(2), 1);
        assert_eq!(global_workers(8), 7);
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(WorkerPool::global().worker_count(), global_workers(cpus));
    }

    #[test]
    fn single_shard_runs_inline() {
        let pool = WorkerPool::new(2);
        let items = [1u32, 2, 3];
        let out = pool.run_sharded(&items, 1, |idx, slice| {
            assert_eq!(idx, 0);
            slice.len()
        });
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn more_shards_than_items_degrades_gracefully() {
        let pool = WorkerPool::new(4);
        let items = [7u32, 8];
        let out = pool.run_sharded(&items, 8, |_, slice| slice.to_vec());
        let flat: Vec<u32> = out.into_iter().flatten().collect();
        assert_eq!(flat, vec![7, 8]);
    }

    #[test]
    fn pool_of_one_still_completes() {
        // With one worker the submitting thread must self-help; a deadlock
        // here would hang the test.
        let pool = WorkerPool::new(1);
        let items: Vec<u32> = (0..64).collect();
        let sums = pool.run_sharded(&items, 8, |_, slice| slice.iter().sum::<u32>());
        assert_eq!(sums.iter().sum::<u32>(), (0..64).sum::<u32>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = WorkerPool::new(2);
        let outer: Vec<u32> = (0..8).collect();
        let totals = pool.run_sharded(&outer, 4, |_, slice| {
            let inner: Vec<u32> = slice.iter().map(|v| v * 2).collect();
            pool.run_sharded(&inner, 2, |_, s| s.iter().sum::<u32>())
                .iter()
                .sum::<u32>()
        });
        assert_eq!(totals.iter().sum::<u32>(), (0..8).map(|v| v * 2).sum());
    }

    #[test]
    fn shard_panic_propagates_after_drain() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..100).collect();
        let hit = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_sharded(&items, 4, |idx, _| {
                if idx == 1 {
                    panic!("shard boom");
                }
                hit.store(true, Ordering::SeqCst);
                idx
            })
        }));
        assert!(result.is_err());
        assert!(hit.load(Ordering::SeqCst));
        // The pool stays usable after a propagated panic.
        let ok = pool.run_sharded(&items, 2, |_, slice| slice.len());
        assert_eq!(ok.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn spawn_runs_detached_jobs() {
        let pool = WorkerPool::new(2);
        let flag = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&flag);
        pool.spawn(move || seen.store(true, Ordering::SeqCst));
        for _ in 0..100 {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("detached job never ran");
    }

    #[test]
    fn many_short_scopes_never_touch_a_freed_latch() {
        // Regression: the last job's `finish` once locked the latch after
        // its decrement had let `run_sharded` return and free it. Trivial
        // shards make that window as likely as it gets; only the pool's
        // own four workers run them.
        let pool = WorkerPool::new(4);
        let items: Vec<u32> = (0..8).collect();
        for round in 0..20_000u32 {
            let out = pool.run_sharded(&items, 4, |i, slice| i as u32 + slice[0] + round);
            assert_eq!(out.len(), 4);
            assert_eq!(out[3], 3 + 6 + round);
        }
    }

    #[test]
    fn concurrent_scopes_share_the_pool() {
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool::new(3)));
        let mut joins = Vec::new();
        for q in 0..6u32 {
            joins.push(std::thread::spawn(move || {
                let items: Vec<u32> = (0..256).map(|v| v + q).collect();
                let sums = pool.run_sharded(&items, 4, |_, slice| slice.iter().sum::<u32>());
                sums.iter().sum::<u32>()
            }));
        }
        for (q, join) in joins.into_iter().enumerate() {
            let got = join.join().unwrap();
            let want: u32 = (0..256).map(|v| v + q as u32).sum();
            assert_eq!(got, want);
        }
    }
}
