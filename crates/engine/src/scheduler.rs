//! The shared trial scheduler: one place that decides *when* a unit of
//! deterministic work runs, used by campaign execution
//! ([`campaign::run_on`](crate::campaign::run_on), on a private pool via
//! [`campaign::run`](crate::campaign::run)) and the daemon's shared
//! connection pool ([`campaign::protocol::serve_tcp`](crate::campaign::protocol::serve_tcp)).
//!
//! # Design
//!
//! Work arrives as a [`WorkSet`] — a flattened item space (for the engine,
//! one item per trial) — plus a list of index ranges ("chunks") that never
//! span a cell boundary (see [`cell_chunks`]). [`Scheduler::submit`]
//! appends the chunks to one FIFO run queue shared by every worker; each
//! idle worker pops the queue's front. Chunks therefore start in global
//! submission order, so when several daemon connections share one pool,
//! an earlier submission's chunks start before a later one's (fairness by
//! arrival). The queue lock is taken once per chunk, and a chunk holds at
//! least one trial, so the lock is never busier than the trial rate.
//!
//! # Why determinism survives the schedule
//!
//! The scheduler moves *timing* only. Every item's inputs are a pure
//! function of its index (trial seeds via
//! [`derive_trial_seed`](crate::derive_trial_seed)), every item writes to
//! its own pre-allocated slot, and aggregation happens in item-index order
//! after the job completes — so which worker ran an item, and when, can
//! never reach the output bytes. The proptests in `tests/` pin this by
//! comparing a 1-thread run against N-thread runs on private and shared
//! pools.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;

/// A flattened space of independent work items. Implementors must make
/// `run_item(i)` depend only on `i` (plus immutable shared state): the
/// scheduler decides *when* and *where* each item runs, never *what*.
pub trait WorkSet: Send + Sync {
    /// Executes item `index`. Called at most once per index per job.
    fn run_item(&self, index: usize);
}

/// Per-job completion accounting, shared by every queued chunk and the
/// caller's [`JobHandle`].
struct JobState {
    /// Items not yet finished. Guarded so the final decrement and the
    /// wake-up are atomic with respect to [`JobHandle::wait`].
    remaining: Mutex<usize>,
    done: Condvar,
}

impl JobState {
    /// Marks `n` items finished, waking waiters when the job completes.
    fn finish(&self, n: usize) {
        let mut remaining = self.remaining.lock().expect("scheduler job lock");
        *remaining = remaining.saturating_sub(n);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// One contiguous run of item indices from one job, waiting in the queue.
struct QueuedChunk<'env> {
    set: Arc<dyn WorkSet + 'env>,
    state: Arc<JobState>,
    range: Range<usize>,
}

/// A submitted job: lets the submitter block until every item has run.
pub struct JobHandle {
    state: Arc<JobState>,
}

impl JobHandle {
    /// Blocks until every item of the job has finished. Items abandoned
    /// by a panicking worker are counted as finished (the panic itself
    /// resurfaces when the worker's scope joins), so `wait` cannot
    /// deadlock on a poisoned job.
    pub fn wait(&self) {
        let mut remaining = self.state.remaining.lock().expect("scheduler job lock");
        while *remaining > 0 {
            remaining = self.state.done.wait(remaining).expect("scheduler job lock");
        }
    }
}

/// The run queue and the flag that lets idle workers exit once it drains.
struct RunQueue<'env> {
    chunks: VecDeque<QueuedChunk<'env>>,
    shutdown: bool,
}

/// A fixed-size pool of workers executing [`WorkSet`] chunks from one
/// FIFO run queue (see the module docs).
///
/// The `'env` parameter bounds what submitted work may borrow: a
/// scheduler declared before a [`std::thread::scope`] can execute work
/// sets borrowing anything that outlives the scheduler itself.
///
/// Lifecycle: [`new`](Self::new) → [`start`](Self::start) (spawn workers
/// into a scope) → any number of [`submit`](Self::submit)s (from any
/// thread) → [`shutdown`](Self::shutdown) once no further submits can
/// arrive. Workers drain every queued chunk before exiting.
/// [`scoped`](Self::scoped) runs that whole lifecycle around one closure.
pub struct Scheduler<'env> {
    workers: usize,
    queue: Mutex<RunQueue<'env>>,
    /// Signalled on every submit and on shutdown.
    ready: Condvar,
}

impl<'env> Scheduler<'env> {
    /// A scheduler with `workers` worker slots (`0` = the host's available
    /// parallelism).
    pub fn new(workers: usize) -> Self {
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Scheduler {
            workers,
            queue: Mutex::new(RunQueue {
                chunks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// The number of worker slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Spawns the worker threads into `scope`. The scheduler must outlive
    /// the scope (declare it before `std::thread::scope`), and
    /// [`shutdown`](Self::shutdown) must be called before the scope can
    /// close. The scope's own environment lifetime is independent of
    /// `'env`: only the scheduler borrow itself must span the scope.
    pub fn start<'scope, 'senv>(&'scope self, scope: &'scope Scope<'scope, 'senv>)
    where
        'env: 'scope,
    {
        for _ in 0..self.workers {
            scope.spawn(move || self.worker_loop());
        }
    }

    /// The whole lifecycle for a caller that owns the pool: starts the
    /// workers in a fresh scope, runs `body` on the pool, then shuts the
    /// pool down and joins the workers once the queue drains.
    pub fn scoped<R>(&self, body: impl FnOnce(&Self) -> R) -> R {
        std::thread::scope(|scope| {
            self.start(scope);
            let out = body(self);
            self.shutdown();
            out
        })
    }

    /// Appends a job's chunks to the run queue and returns a handle to
    /// await it. The submitted `set` is dropped when its last chunk
    /// finishes (the scheduler keeps no reference beyond the queued
    /// chunks).
    pub fn submit(&self, set: Arc<dyn WorkSet + 'env>, chunks: Vec<Range<usize>>) -> JobHandle {
        let mut total = 0usize;
        for chunk in &chunks {
            total += chunk.len();
        }
        let state = Arc::new(JobState {
            remaining: Mutex::new(total),
            done: Condvar::new(),
        });
        let mut queue = self.queue.lock().expect("scheduler queue");
        for range in chunks.into_iter().filter(|range| !range.is_empty()) {
            queue.chunks.push_back(QueuedChunk {
                set: Arc::clone(&set),
                state: Arc::clone(&state),
                range,
            });
        }
        self.ready.notify_all();
        JobHandle { state }
    }

    /// Signals the workers to exit once every queued chunk has drained.
    /// Callers must guarantee no further [`submit`](Self::submit)s after
    /// this (the daemon joins its connection handlers first).
    pub fn shutdown(&self) {
        self.queue.lock().expect("scheduler queue").shutdown = true;
        self.ready.notify_all();
    }

    fn run_chunk(&self, chunk: QueuedChunk<'env>) {
        /// Records the chunk's items as finished even if one panics:
        /// otherwise every thread blocked in [`JobHandle::wait`] would
        /// deadlock behind a job that can never complete. The panic
        /// itself still propagates when the worker's scope joins.
        struct Complete<'a> {
            state: &'a JobState,
            items: usize,
        }
        impl Drop for Complete<'_> {
            fn drop(&mut self) {
                self.state.finish(self.items);
            }
        }
        let guard = Complete {
            state: &chunk.state,
            items: chunk.range.len(),
        };
        for index in chunk.range.clone() {
            chunk.set.run_item(index);
        }
        drop(guard);
    }

    /// Pops and runs the queue's front chunk (outside the lock) until the
    /// queue is empty and shutdown is set.
    fn worker_loop(&self) {
        loop {
            let queue = self.queue.lock().expect("scheduler queue");
            let mut queue = self
                .ready
                .wait_while(queue, |q| q.chunks.is_empty() && !q.shutdown)
                .expect("scheduler queue");
            let Some(chunk) = queue.chunks.pop_front() else {
                return;
            };
            drop(queue);
            self.run_chunk(chunk);
        }
    }
}

/// Splits a flattened per-cell item space into scheduler chunks that
/// never span a cell boundary: cell `i` covers items
/// `offsets[i]..offsets[i + 1]`, and each cell is cut into at most
/// `workers × 2` pieces. Heavy cells (a 10⁵-unknown `poisson2d` solve)
/// therefore decompose to trial granularity while light cells (64-element
/// sorting) stay as a handful of chunks, so heterogeneous grids
/// load-balance instead of serializing on the fattest cell.
pub fn cell_chunks(offsets: &[usize], workers: usize) -> Vec<Range<usize>> {
    let pieces = workers.max(1) * 2;
    let mut chunks = Vec::new();
    for window in offsets.windows(2) {
        let (start, end) = (window[0], window[1]);
        if start == end {
            continue;
        }
        let size = (end - start).div_ceil(pieces);
        let mut at = start;
        while at < end {
            let stop = (at + size).min(end);
            chunks.push(at..stop);
            at = stop;
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Marks each executed index in a slot array and counts executions,
    /// so tests can assert exactly-once coverage under any schedule.
    struct Touch {
        hits: Vec<AtomicUsize>,
    }

    impl Touch {
        fn new(n: usize) -> Self {
            Touch {
                hits: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            }
        }

        fn assert_each_ran_once(&self) {
            for (i, hit) in self.hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::SeqCst), 1, "item {i}");
            }
        }
    }

    impl WorkSet for Touch {
        fn run_item(&self, index: usize) {
            self.hits[index].fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn cell_chunks_cover_heterogeneous_cells_without_spanning() {
        let offsets = [0usize, 10, 10, 11, 40];
        let chunks = cell_chunks(&offsets, 2);
        // Every chunk sits inside exactly one cell…
        for chunk in &chunks {
            let cell = offsets.partition_point(|&o| o <= chunk.start) - 1;
            assert!(
                chunk.end <= offsets[cell + 1],
                "chunk {chunk:?} spans cells"
            );
        }
        // …and together they tile 0..40 in order.
        let mut at = 0usize;
        for chunk in &chunks {
            assert_eq!(chunk.start, at);
            at = chunk.end;
        }
        assert_eq!(at, 40);
        // The fat cell split into multiple pieces; the 1-item cell is one.
        assert!(chunks.len() > 4);
    }

    #[test]
    fn every_item_runs_exactly_once_at_any_width() {
        let offsets = [0usize, 13, 13, 50, 97];
        for workers in [1usize, 2, 5] {
            let set = Arc::new(Touch::new(97));
            Scheduler::new(workers).scoped(|pool| {
                pool.submit(set.clone(), cell_chunks(&offsets, workers))
                    .wait()
            });
            set.assert_each_ran_once();
        }
    }

    #[test]
    fn many_jobs_from_many_submitters_all_complete() {
        let sets: Vec<Arc<Touch>> = (0..6).map(|i| Arc::new(Touch::new(10 + i))).collect();
        Scheduler::new(3).scoped(|pool| {
            std::thread::scope(|submitters| {
                for set in &sets {
                    submitters.spawn(move || {
                        let chunks = cell_chunks(&[0, set.hits.len()], pool.workers());
                        pool.submit(Arc::clone(set) as Arc<dyn WorkSet>, chunks)
                            .wait();
                    });
                }
            })
        });
        for set in &sets {
            set.assert_each_ran_once();
        }
    }

    #[test]
    fn empty_jobs_complete_immediately() {
        let set = Arc::new(Touch::new(0));
        Scheduler::new(2).scoped(|pool| {
            pool.submit(set.clone(), Vec::new()).wait();
            pool.submit(set, vec![0..0, 0..0]).wait();
        });
    }

    /// Logs the order in which items start. Item 1 blocks until item 3
    /// or item 4 has started, so one worker stays parked inside the first
    /// job while the other decides what runs next.
    #[derive(Default)]
    struct Arrival {
        log: Mutex<Vec<usize>>,
        started: Condvar,
    }

    impl WorkSet for Arrival {
        fn run_item(&self, index: usize) {
            let mut log = self.log.lock().expect("start log");
            log.push(index);
            self.started.notify_all();
            if index == 1 {
                let parked = |log: &mut Vec<usize>| !log.contains(&3) && !log.contains(&4);
                drop(self.started.wait_while(log, parked).expect("start log"));
            }
        }
    }

    /// Fairness by arrival: every chunk of an earlier job (items 0..4)
    /// starts before any chunk of a later one (items 4..6), even while a
    /// worker is busy in the earlier job.
    #[test]
    fn chunks_start_in_submission_order() {
        let set = Arc::new(Arrival::default());
        let pool = Scheduler::new(2);
        std::thread::scope(|scope| {
            let first = pool.submit(set.clone(), vec![0..1, 1..2, 2..3, 3..4]);
            let second = pool.submit(set.clone(), vec![4..5, 5..6]);
            pool.start(scope);
            first.wait();
            second.wait();
            pool.shutdown();
        });
        let log = set.log.lock().expect("start log");
        assert!(
            log[..4].iter().all(|&i| i < 4),
            "a later job overtook an earlier one: {log:?}"
        );
    }
}
