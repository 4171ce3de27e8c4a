//! Deterministic parallel fan-out.
//!
//! Every parallel path in the workspace — world synthesis, the
//! measurement crawl, the outage index's recording sweep, and the
//! chaos campaign's availability probes — shares this one helper and
//! therefore one contract: **output is byte-identical at any worker
//! count**, including one. The recipe is the only scheme that makes
//! that trivially auditable:
//!
//! * the item list is split into at most `jobs` *contiguous, statically
//!   sized* chunks (`len.div_ceil(jobs)` items each, in input order),
//!   `jobs` being the resolved worker count;
//! * each `std::thread::scope` worker owns one chunk and **returns**
//!   its results — workers never write through shared state, so there
//!   is no accumulator whose fill order could leak scheduling;
//! * the parent merges the returned chunks **after join, in chunk
//!   order**, which is exactly the order a serial loop would have
//!   produced.
//!
//! Worker-count policy is likewise centralized: [`resolve_jobs`] is the
//! single knob (`WEBDEPS_JOBS` env > detected parallelism, capped at
//! [`MAX_AUTO_JOBS`]) shared by worldgen, measure, core, and chaos. The
//! fan-out helpers take no count; only this module's tests pin one.
//! Because every caller is deterministic at any worker count, the knob
//! tunes *speed only* — it can never change results.

use std::thread;

/// Cap on the auto-detected worker count. Explicit requests (a nonzero
/// argument or `WEBDEPS_JOBS`) are honored beyond it; the cap only
/// stops `available_parallelism` from spawning hundreds of workers on
/// large machines where memory bandwidth saturates far earlier.
pub const MAX_AUTO_JOBS: usize = 32;

/// Resolves a requested worker count to an effective one.
///
/// * `requested > 0` — honored as-is (the caller made a choice);
/// * `requested == 0` — auto: the `WEBDEPS_JOBS` environment variable
///   when set to a positive integer (`0` or garbage falls through),
///   otherwise [`std::thread::available_parallelism`] capped at
///   [`MAX_AUTO_JOBS`].
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    // lint:allow(env-rand) — WEBDEPS_JOBS is the documented operator
    // knob for worker count; every fan_out caller is byte-identical at
    // any job count, so the environment can tune speed but never results.
    let env = std::env::var("WEBDEPS_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    match env {
        Some(n) if n > 0 => n,
        _ => thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_AUTO_JOBS),
    }
}

/// The resolved worker count clamped to the work available: never more
/// than one worker per item, never less than one.
pub fn effective_jobs(nitems: usize) -> usize {
    resolve_jobs(0).clamp(1, nitems.max(1))
}

/// Runs `f` once per contiguous chunk of `items` across at most
/// [`effective_jobs`] scoped-thread workers and concatenates the
/// returned vectors in chunk order.
///
/// `f` sees each chunk exactly once and may return any number of
/// results per chunk; per-item mappings should return one result per
/// item (or use [`fan_out`]), per-chunk aggregations a single element.
/// With one effective worker `f` runs on the calling thread over the
/// whole slice — the serial path is literally the parallel path with
/// one chunk, so the two cannot diverge.
///
/// A panicking worker is re-raised on the calling thread via
/// [`std::panic::resume_unwind`] after all workers joined. When several
/// workers panic, the payload of the *first chunk in input order* is the
/// one re-raised — so the surfaced error is deterministic at any worker
/// count (the serial path would have hit that item first, too).
pub fn fan_out_chunked<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    chunked_across(effective_jobs(items.len()), items, f)
}

/// [`fan_out_chunked`] at a fixed worker count (clamped to one per
/// item), kept apart so this module's tests can pin the count.
fn chunked_across<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return f(items);
    }
    let chunk = items.len().div_ceil(jobs);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let fr = &f;
                s.spawn(move || fr(part))
            })
            .collect();
        let mut parts = Vec::with_capacity(handles.len());
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                // Handles are joined in chunk order; keep the first
                // payload so later panics cannot mask the one a serial
                // run would have surfaced.
                Err(payload) => {
                    if panicked.is_none() {
                        panicked = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        // Sized for what the chunks returned, which may be far fewer
        // results than items (one aggregate per chunk).
        let mut merged = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            merged.extend(part);
        }
        merged
    })
}

/// Runs `f` over every item of `items` across at most
/// [`effective_jobs`] scoped-thread workers and returns the results in
/// input order — a parallel, order-preserving `map`.
pub fn fan_out<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fan_out_chunked(items, |part| part.iter().map(&f).collect())
}

// ---- resident worker pool ----

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A submitted unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Rejection returned by [`WorkerPool::try_submit`] when every worker
/// queue is at capacity. Carries the closure back untouched so the
/// caller can shed load explicitly (reply `BUSY`, drop the connection,
/// retry later) instead of losing the work silently.
pub struct PoolBusy<F>(pub F);

impl<F> std::fmt::Debug for PoolBusy<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolBusy(..)")
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

/// Recovers the guard from a poisoned mutex. Worker jobs run under
/// `catch_unwind`, so poisoning can only happen if a panic escapes the
/// pool's own bookkeeping; the queue state (a deque of boxed closures
/// and a flag) has no invariant a mid-panic writer could break.
fn lock(m: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A resident pool of worker threads with **bounded per-worker queues**
/// and explicit load shedding — the admission-control half of a server
/// that prefers a fast `BUSY` over unbounded queue growth.
///
/// Contrast with [`fan_out`]: the fan-out helpers are for *batch*
/// parallelism (split a known item list, join, merge) and guarantee
/// deterministic output order. The pool is for *open-ended* work
/// arriving over time — connections, requests — where the scheduling
/// order is inherently external and the contract is instead about
/// robustness:
///
/// * [`WorkerPool::try_submit`] never blocks: each worker's queue is
///   capped, and when all queues are full the closure is handed back
///   in [`PoolBusy`] so the caller sheds load explicitly;
/// * every job runs under [`std::panic::catch_unwind`] — a panicking
///   job bumps [`WorkerPool::panic_count`] and the worker lives on;
/// * [`WorkerPool::drain`] (and `Drop`) stops intake, runs every job
///   already queued to completion, then joins the threads — shutdown
///   never abandons accepted work.
pub struct WorkerPool {
    queues: Vec<Arc<JobQueue>>,
    handles: Vec<thread::JoinHandle<()>>,
    next: AtomicUsize,
    panics: Arc<AtomicU64>,
    executed: Arc<AtomicU64>,
    queue_cap: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one), each owning a queue of
    /// at most `queue_cap` (at least one) pending jobs.
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        let workers = workers.max(1);
        let queue_cap = queue_cap.max(1);
        let panics = Arc::new(AtomicU64::new(0));
        let executed = Arc::new(AtomicU64::new(0));
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::new(JobQueue {
                state: Mutex::new(QueueState {
                    jobs: VecDeque::with_capacity(queue_cap),
                    shutdown: false,
                }),
                ready: Condvar::new(),
            });
            let worker_queue = Arc::clone(&queue);
            let worker_panics = Arc::clone(&panics);
            let worker_executed = Arc::clone(&executed);
            handles.push(thread::spawn(move || {
                worker_loop(worker_queue, worker_panics, worker_executed)
            }));
            queues.push(queue);
        }
        WorkerPool {
            queues,
            handles,
            next: AtomicUsize::new(0),
            panics,
            executed,
            queue_cap,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Per-worker queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Offers a job to the pool without blocking. Queues are probed
    /// round-robin starting at a rotating index; the first worker with
    /// headroom takes the job and its index is returned. When every
    /// queue is full (or shutting down) the closure comes back in
    /// `Err(PoolBusy)` for the caller to shed explicitly.
    #[must_use]
    pub fn try_submit<F>(&self, f: F) -> Result<usize, PoolBusy<F>>
    where
        F: FnOnce() + Send + 'static,
    {
        let n = self.queues.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        for i in 0..n {
            let w = (start + i) % n;
            let queue = &self.queues[w];
            let mut state = lock(&queue.state);
            if state.shutdown || state.jobs.len() >= self.queue_cap {
                continue;
            }
            state.jobs.push_back(Box::new(f));
            drop(state);
            queue.ready.notify_one();
            return Ok(w);
        }
        Err(PoolBusy(f))
    }

    /// Jobs currently queued (not yet started) per worker, in worker
    /// order — the backpressure signal a `/stats` endpoint reports.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.queues
            .iter()
            .map(|q| lock(&q.state).jobs.len())
            .collect()
    }

    /// A cloneable, read-only view of the pool's queues and health
    /// counters. The pool itself must stay owned by whoever drains it;
    /// the probe lets other threads (e.g. a `/stats` handler running
    /// *inside* a pool worker) observe depth and panic counts without
    /// holding the pool.
    pub fn probe(&self) -> PoolProbe {
        PoolProbe {
            queues: self.queues.clone(),
            panics: Arc::clone(&self.panics),
            executed: Arc::clone(&self.executed),
        }
    }

    /// Jobs whose execution panicked (and were contained).
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Jobs run to completion (including contained panics).
    pub fn executed_count(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stops intake, runs all queued jobs, joins
    /// every worker. Dropping the pool does the same.
    pub fn drain(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        for queue in &self.queues {
            lock(&queue.state).shutdown = true;
            queue.ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            match handle.join() {
                Ok(()) => {}
                // Worker bodies only panic outside catch_unwind for
                // pool bugs; count it rather than hiding it.
                Err(_) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Read-only observer handle over a [`WorkerPool`] (see
/// [`WorkerPool::probe`]). Remains valid after the pool drains — depths
/// then read as zero.
#[derive(Clone)]
pub struct PoolProbe {
    queues: Vec<Arc<JobQueue>>,
    panics: Arc<AtomicU64>,
    executed: Arc<AtomicU64>,
}

impl PoolProbe {
    /// Jobs queued per worker, in worker order.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.queues
            .iter()
            .map(|q| lock(&q.state).jobs.len())
            .collect()
    }

    /// Jobs whose execution panicked (and were contained).
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Jobs run to completion (including contained panics).
    pub fn executed_count(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }
}

fn worker_loop(queue: Arc<JobQueue>, panics: Arc<AtomicU64>, executed: Arc<AtomicU64>) {
    loop {
        let job = {
            let mut state = lock(&queue.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = queue
                    .ready
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let Some(job) = job else {
            return;
        };
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            panics.fetch_add(1, Ordering::Relaxed);
        }
        executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`fan_out`] at a fixed worker count.
    fn map_across<T: Sync, R: Send>(
        jobs: usize,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        chunked_across(jobs, items, |part| part.iter().map(&f).collect())
    }

    #[test]
    fn fan_out_matches_serial_map_at_any_job_count() {
        let items: Vec<u64> = (0..1_003).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 7, 16, 64] {
            assert_eq!(
                map_across(jobs, &items, |x| x * 3 + 1),
                expect,
                "jobs={jobs}"
            );
        }
        assert_eq!(fan_out(&items, |x| x * 3 + 1), expect, "resolved count");
    }

    #[test]
    fn fan_out_chunked_concatenates_in_chunk_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 3, 8] {
            let got = chunked_across(jobs, &items, |part| part.to_vec());
            assert_eq!(got, items, "jobs={jobs}");
        }
        assert_eq!(fan_out_chunked(&items, |part| part.to_vec()), items);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        assert!(map_across(8, &items, |x| *x).is_empty());
        assert!(chunked_across(8, &items, |p| p.to_vec()).is_empty());
        assert!(fan_out(&items, |x| *x).is_empty());
    }

    #[test]
    fn per_chunk_aggregation_sums_correctly() {
        let items: Vec<u64> = (1..=100).collect();
        for jobs in [1, 2, 4, 9] {
            let partials =
                chunked_across(jobs, &items, |part| vec![part.iter().copied().sum::<u64>()]);
            assert!(partials.len() <= jobs.max(1));
            assert_eq!(partials.iter().sum::<u64>(), 5_050, "jobs={jobs}");
        }
    }

    #[test]
    fn merged_results_are_sized_for_what_the_chunks_return() {
        let items: Vec<u32> = (0..10_000).collect();
        for jobs in [2, 4] {
            let partials = chunked_across(jobs, &items, |part| vec![part.len()]);
            assert_eq!(partials.len(), jobs);
            assert_eq!(partials.iter().sum::<usize>(), items.len());
            assert!(
                partials.capacity() <= 2 * partials.len(),
                "jobs={jobs}: capacity {} for {} results",
                partials.capacity(),
                partials.len()
            );
        }
    }

    #[test]
    fn effective_jobs_never_exceeds_items() {
        assert_eq!(effective_jobs(0), 1);
        assert_eq!(effective_jobs(1), 1);
        assert!(effective_jobs(3) <= 3);
        assert!(effective_jobs(1_000) >= 1);
    }

    #[test]
    fn explicit_request_is_honored() {
        assert_eq!(resolve_jobs(7), 7);
        assert_eq!(resolve_jobs(1), 1);
        assert!(resolve_jobs(0) >= 1);
        assert!(resolve_jobs(0) <= MAX_AUTO_JOBS || resolve_jobs(0) > 0);
    }

    #[test]
    fn first_panic_in_chunk_order_wins() {
        // 40 items over 4 workers → chunks of 10. Items 5 (chunk 0) and
        // 35 (chunk 3) both panic; the surfaced payload must be chunk
        // 0's, exactly as a serial run would have reported, no matter
        // which worker thread finished (or panicked) first.
        let items: Vec<u32> = (0..40).collect();
        for _ in 0..16 {
            let result = std::panic::catch_unwind(|| {
                map_across(4, &items, |x| {
                    assert!(*x != 5, "first chunk failed");
                    assert!(*x != 35, "last chunk failed");
                    *x
                })
            });
            let payload = result.expect_err("a panicking worker must propagate");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string payload>");
            assert!(
                msg.contains("first chunk failed"),
                "expected the first chunk's panic, got: {msg}"
            );
        }
    }

    #[test]
    fn worker_panic_is_propagated() {
        let items: Vec<u32> = (0..40).collect();
        let result = std::panic::catch_unwind(|| {
            map_across(4, &items, |x| {
                assert!(*x != 33, "boom");
                *x
            })
        });
        assert!(result.is_err());
    }

    // ---- WorkerPool ----

    #[test]
    fn pool_runs_all_accepted_jobs() {
        let pool = WorkerPool::new(4, 16);
        let sum = Arc::new(AtomicU64::new(0));
        let mut accepted = 0u64;
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            if pool
                .try_submit(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                })
                .is_ok()
            {
                accepted += i;
            }
        }
        pool.drain();
        assert_eq!(sum.load(Ordering::Relaxed), accepted);
        assert!(accepted > 0, "a 4×16 pool must accept some of 100 jobs");
    }

    #[test]
    fn full_queues_shed_with_pool_busy_and_return_the_job() {
        // One worker parked on a gate job + queue capacity 1: the
        // second submission queues, the third must come back.
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            let (flag, cv) = &*g;
            let mut open = flag.lock().unwrap_or_else(|p| p.into_inner());
            while !*open {
                open = cv.wait(open).unwrap_or_else(|p| p.into_inner());
            }
        })
        .ok()
        .expect("first job admitted");
        // Wait until the worker has dequeued the gate job, so the next
        // submission lands in the (empty) queue rather than racing it.
        let mut spins = 0u64;
        while pool.queue_depths()[0] > 0 && spins < 100_000_000 {
            thread::yield_now();
            spins += 1;
        }
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        pool.try_submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        })
        .ok()
        .expect("second job queued");
        assert_eq!(pool.queue_depths(), vec![1]);

        let r = Arc::clone(&ran);
        let rejected = pool.try_submit(move || {
            r.fetch_add(100, Ordering::Relaxed);
        });
        let PoolBusy(job) = rejected.err().expect("full queue must shed");
        // The closure comes back intact — the caller can still run it.
        job();
        assert_eq!(ran.load(Ordering::Relaxed), 100);

        let (flag, cv) = &*gate;
        *flag.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cv.notify_all();
        pool.drain();
        assert_eq!(ran.load(Ordering::Relaxed), 101, "queued job ran on drain");
    }

    #[test]
    fn panicking_job_is_contained() {
        let pool = WorkerPool::new(2, 8);
        pool.try_submit(|| panic!("poisoned query"))
            .ok()
            .expect("admitted");
        let ran = Arc::new(AtomicU64::new(0));
        // Submit follow-up work until one lands and runs: the pool must
        // survive the panic.
        let r = Arc::clone(&ran);
        pool.try_submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        })
        .ok()
        .expect("admitted");
        pool.drain();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_drains_queued_work() {
        let ran = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(2, 32);
            for _ in 0..20 {
                let r = Arc::clone(&ran);
                pool.try_submit(move || {
                    r.fetch_add(1, Ordering::Relaxed);
                })
                .ok()
                .expect("admitted");
            }
        }
        assert_eq!(ran.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn counters_track_execution() {
        let pool = WorkerPool::new(2, 8);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.queue_cap(), 8);
        pool.try_submit(|| panic!("boom")).ok().expect("admitted");
        pool.try_submit(|| {}).ok().expect("admitted");
        // Spin (bounded) until both jobs retire, then read the health
        // counters the serve daemon's /stats endpoint reports.
        let mut spins = 0u64;
        while pool.executed_count() < 2 && spins < 100_000_000 {
            thread::yield_now();
            spins += 1;
        }
        assert_eq!(pool.executed_count(), 2);
        assert_eq!(pool.panic_count(), 1);
        pool.drain();
    }
}
