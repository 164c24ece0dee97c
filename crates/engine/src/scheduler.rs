//! The shared work-stealing trial scheduler: one place that decides
//! *when* a unit of deterministic work runs, used by campaign execution
//! ([`campaign::run_on`](crate::campaign::run_on), on a private pool via
//! [`campaign::run`](crate::campaign::run)) and the daemon's shared
//! connection pool ([`campaign::protocol::serve_tcp`](crate::campaign::protocol::serve_tcp)).
//!
//! # Design
//!
//! Work arrives as a [`WorkSet`] — a flattened item space (for the engine,
//! one item per trial) — plus a list of index ranges ("chunks") that never
//! span a cell boundary (see [`cell_chunks`]). [`Scheduler::submit`] deals
//! the chunks across per-worker FIFO deques; each worker pops the *front*
//! of its own deque and, when that is empty, steals the *front* of the
//! next worker's deque (wrapping). Stealing from the front — rather than
//! the classic steal-from-the-back — is deliberate: chunks drain in
//! approximate global submission order, so when several daemon connections
//! share one pool, an earlier submission's chunks are preferred over a
//! later one's (fairness by arrival, not by deque topology).
//!
//! # Why determinism survives stealing
//!
//! The scheduler moves *placement* and *timing* only. Every item's inputs
//! are a pure function of its index (trial seeds via
//! [`derive_trial_seed`](crate::derive_trial_seed)), every item writes to
//! its own pre-allocated slot, and aggregation happens in item-index order
//! after the job completes — so the steal schedule, thread count, and
//! [`Placement`] can never reach the output bytes. The proptests in
//! `tests/` pin this by comparing a 1-thread run against N-thread runs
//! under adversarial [`Placement::Pinned`] schedules.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;

/// A flattened space of independent work items. Implementors must make
/// `run_item(i)` depend only on `i` (plus immutable shared state): the
/// scheduler decides *when* and *where* each item runs, never *what*.
pub trait WorkSet: Send + Sync {
    /// Executes item `index`. Called at most once per index per job.
    fn run_item(&self, index: usize);
}

/// Where [`Scheduler::submit`] places a job's chunks.
///
/// Placement is a scheduling hint only — it can never affect output
/// bytes. `Pinned` exists as a test knob: putting every chunk on one
/// worker's deque forces all other workers to steal, which is the most
/// adversarial schedule the steal protocol can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Deal chunks across workers round-robin (the default).
    #[default]
    RoundRobin,
    /// Put every chunk on the given worker's deque (modulo the worker
    /// count), forcing the others to steal.
    Pinned(usize),
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

/// One contiguous run of item indices from one job, queued on a worker.
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

/// A fixed-size pool of workers executing [`WorkSet`] chunks from
/// per-worker FIFO deques with front-stealing (see the module docs).
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
    deques: Vec<Mutex<VecDeque<QueuedChunk<'env>>>>,
    /// Bumped on every submit (and on shutdown) under the lock, so a
    /// worker that found all deques empty can detect a push that raced
    /// its scan instead of sleeping through it.
    generation: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Round-robin placement cursor, shared so interleaved submits from
    /// several connections spread across workers.
    cursor: Mutex<usize>,
    placement: Placement,
}

impl<'env> Scheduler<'env> {
    /// A scheduler with `workers` worker slots (`0` = the host's available
    /// parallelism) and round-robin placement.
    pub fn new(workers: usize) -> Self {
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Scheduler {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            generation: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cursor: Mutex::new(0),
            placement: Placement::RoundRobin,
        }
    }

    /// Overrides chunk placement (a scheduling hint; see [`Placement`]).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// The number of worker slots.
    pub fn workers(&self) -> usize {
        self.deques.len()
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
        for me in 0..self.deques.len() {
            scope.spawn(move || self.worker_loop(me));
        }
    }

    /// The whole lifecycle for a caller that owns the pool: starts the
    /// workers in a fresh scope, runs `body` on the pool, then shuts the
    /// pool down and joins the workers once their queues drain.
    pub fn scoped<R>(&self, body: impl FnOnce(&Self) -> R) -> R {
        std::thread::scope(|scope| {
            self.start(scope);
            let out = body(self);
            self.shutdown();
            out
        })
    }

    /// Queues a job's chunks and returns a handle to await it. The
    /// submitted `set` is dropped when its last chunk finishes (the
    /// scheduler keeps no reference beyond the queued chunks).
    pub fn submit(&self, set: Arc<dyn WorkSet + 'env>, chunks: Vec<Range<usize>>) -> JobHandle {
        let mut total = 0usize;
        for chunk in &chunks {
            total += chunk.len();
        }
        let state = Arc::new(JobState {
            remaining: Mutex::new(total),
            done: Condvar::new(),
        });
        if total > 0 {
            for range in chunks {
                if range.is_empty() {
                    continue;
                }
                let worker = match self.placement {
                    Placement::RoundRobin => {
                        let mut cursor = self.cursor.lock().expect("scheduler cursor");
                        let w = *cursor;
                        *cursor = (w + 1) % self.deques.len();
                        w
                    }
                    Placement::Pinned(w) => w % self.deques.len(),
                };
                self.deques[worker]
                    .lock()
                    .expect("scheduler deque")
                    .push_back(QueuedChunk {
                        set: Arc::clone(&set),
                        state: Arc::clone(&state),
                        range,
                    });
            }
            let mut generation = self.generation.lock().expect("scheduler signal");
            *generation += 1;
            self.wake.notify_all();
        }
        JobHandle { state }
    }

    /// Signals the workers to exit once every queued chunk has drained.
    /// Callers must guarantee no further [`submit`](Self::submit)s after
    /// this (the daemon joins its connection handlers first).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let mut generation = self.generation.lock().expect("scheduler signal");
        *generation += 1;
        self.wake.notify_all();
    }

    /// Pops the front of `me`'s own deque, else steals the front of the
    /// next non-empty deque (wrapping) — global approximate FIFO.
    fn grab(&self, me: usize) -> Option<QueuedChunk<'env>> {
        let n = self.deques.len();
        for offset in 0..n {
            let victim = (me + offset) % n;
            let popped = self.deques[victim]
                .lock()
                .expect("scheduler deque")
                .pop_front();
            if popped.is_some() {
                return popped;
            }
        }
        None
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

    fn worker_loop(&self, me: usize) {
        loop {
            let seen = *self.generation.lock().expect("scheduler signal");
            if let Some(chunk) = self.grab(me) {
                self.run_chunk(chunk);
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                // Drain-before-exit: a chunk pushed between the scan and
                // the flag read must still run. (No submits arrive after
                // shutdown, so one extra scan suffices.)
                match self.grab(me) {
                    Some(chunk) => {
                        self.run_chunk(chunk);
                        continue;
                    }
                    None => return,
                }
            }
            let generation = self.generation.lock().expect("scheduler signal");
            if *generation == seen {
                // Nothing new arrived since the (empty) scan; sleep until
                // the next submit or shutdown bumps the generation.
                drop(self.wake.wait(generation).expect("scheduler signal"));
            }
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
    use std::sync::atomic::AtomicUsize;

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
    fn every_item_runs_exactly_once_at_any_width_and_placement() {
        let offsets = [0usize, 13, 13, 50, 97];
        for workers in [1usize, 2, 5] {
            for placement in [Placement::RoundRobin, Placement::Pinned(workers - 1)] {
                let set = Arc::new(Touch::new(97));
                Scheduler::new(workers)
                    .with_placement(placement)
                    .scoped(|pool| {
                        pool.submit(set.clone(), cell_chunks(&offsets, workers))
                            .wait()
                    });
                set.assert_each_ran_once();
            }
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
}
