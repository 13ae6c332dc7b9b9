//! Work-stealing dispatch pool for the concurrent runtime's decode stage.
//!
//! The shared-`Receiver` pool it replaces was strictly FIFO: one stream's
//! oversized I-frame closure at the head of the queue delayed every other
//! stream's job behind it, and each pop contended on the single channel
//! lock. Here the gate pushes into a global [`Injector`]; each worker owns
//! a local deque, refills it in small batches from the injector, and — when
//! both are dry — steals from its siblings. A straggler worker stuck on a
//! heavy closure therefore cannot strand the jobs parked behind it: idle
//! workers take them (crossbeam's classic injector + stealer topology).
//!
//! Blocking is layered on top with a `Mutex`/`Condvar` pair: a worker only
//! sleeps after re-checking, under the lock, that no queue holds work —
//! and every wake-up notifies under the same lock — so wakeups cannot be
//! lost. [`StealPool::close`] wakes everyone for a drain-then-exit
//! shutdown, preserving the old channel semantics (workers finish all
//! queued jobs before exiting).

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};

struct PoolShared<T> {
    injector: Injector<T>,
    stealers: Vec<Stealer<T>>,
    /// `true` once the producer side is done; workers drain and exit.
    closed: Mutex<bool>,
    wake: Condvar,
}

/// Lock past poison: a panic elsewhere must not wedge the survivors.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> PoolShared<T> {
    /// Whether any queue (global or local) might hold work. Callers
    /// re-check under the `closed` lock before sleeping.
    fn any_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }
}

/// Producer handle: push jobs, then [`close`](StealPool::close).
pub struct StealPool<T> {
    shared: Arc<PoolShared<T>>,
}

/// One worker's consuming handle (local deque + steal access to siblings).
pub struct PoolWorker<T> {
    shared: Arc<PoolShared<T>>,
    local: Worker<T>,
    id: usize,
}

/// Build a pool with `workers` consuming handles.
pub fn steal_pool<T>(workers: usize) -> (StealPool<T>, Vec<PoolWorker<T>>) {
    assert!(workers > 0, "a pool needs at least one worker");
    let locals: Vec<Worker<T>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let shared = Arc::new(PoolShared {
        injector: Injector::new(),
        stealers: locals.iter().map(Worker::stealer).collect(),
        closed: Mutex::new(false),
        wake: Condvar::new(),
    });
    let handles = locals
        .into_iter()
        .enumerate()
        .map(|(id, local)| PoolWorker {
            shared: shared.clone(),
            local,
            id,
        })
        .collect();
    (StealPool { shared }, handles)
}

impl<T> StealPool<T> {
    /// Enqueue a job and wake the pool for it. Never blocks; never fails.
    pub fn push(&self, job: T) {
        self.enqueue(job);
        self.wake();
    }

    /// Enqueue a job for busy workers to find; idle ones sleep on until
    /// [`wake`](Self::wake). Waking per job makes a worker that outruns its
    /// producer sleep and wake between every two jobs; per batch does not.
    pub(crate) fn enqueue(&self, job: T) {
        self.shared.injector.push(job);
    }

    /// Wake every idle worker.
    pub(crate) fn wake(&self) {
        // Taking the lock orders this notify against any worker's
        // empty-check, closing the missed-wakeup window.
        let _guard = lock(&self.shared.closed);
        self.shared.wake.notify_all();
    }

    /// Signal end of input: workers drain every queued job, then their
    /// [`PoolWorker::next`] returns `None`.
    pub fn close(&self) {
        let mut closed = lock(&self.shared.closed);
        *closed = true;
        self.shared.wake.notify_all();
    }
}

impl<T> PoolWorker<T> {
    /// This worker's index in the pool (0-based) — stable identity for
    /// per-worker trace tracks.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The next job, blocking while the pool is open and idle. Returns
    /// `None` once the pool is closed and fully drained. Search order:
    /// own deque, then a batched refill from the injector, then stealing
    /// from siblings.
    pub fn next(&self) -> Option<T> {
        loop {
            if let Some(job) = self.try_take() {
                return Some(job);
            }
            let closed = lock(&self.shared.closed);
            if self.shared.any_work() {
                continue; // something landed between the miss and the lock
            }
            if *closed {
                return None;
            }
            drop(
                self.shared
                    .wake
                    .wait(closed)
                    .unwrap_or_else(|e| e.into_inner()),
            );
        }
    }

    fn try_take(&self) -> Option<T> {
        if let Some(job) = self.local.pop() {
            return Some(job);
        }
        loop {
            match self.shared.injector.steal_batch_and_pop(&self.local) {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
        for (other, stealer) in self.shared.stealers.iter().enumerate() {
            if other == self.id {
                continue;
            }
            loop {
                match stealer.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty => break,
                    Steal::Retry => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn all_jobs_processed_exactly_once() {
        let (pool, workers) = steal_pool::<u64>(4);
        let n = 10_000u64;
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for w in workers {
                let sum = sum.clone();
                let count = count.clone();
                scope.spawn(move || {
                    while let Some(job) = w.next() {
                        sum.fetch_add(job, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for job in 0..n {
                pool.push(job);
            }
            pool.close();
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn close_before_push_drains_nothing_and_exits() {
        let (pool, workers) = steal_pool::<u64>(2);
        pool.close();
        for w in workers {
            assert_eq!(w.next(), None);
        }
    }

    #[test]
    fn jobs_pushed_before_close_are_drained_after_close() {
        let (pool, workers) = steal_pool::<u64>(1);
        pool.push(7);
        pool.push(8);
        pool.close();
        let w = &workers[0];
        assert_eq!(w.next(), Some(7));
        assert_eq!(w.next(), Some(8));
        assert_eq!(w.next(), None);
    }

    #[test]
    fn idle_workers_steal_from_a_busy_one() {
        // One worker hoards a batch in its local deque by never popping;
        // a sibling must still be able to take those jobs.
        let (pool, mut workers) = steal_pool::<u64>(2);
        let lazy = workers.remove(0);
        let eager = workers.remove(0);
        for job in 0..8 {
            pool.push(job);
        }
        // Move a batch into the lazy worker's local deque (first job
        // returned, up to three parked locally).
        let first = lazy.next().expect("job");
        pool.close();
        let mut seen = vec![first];
        while let Some(job) = eager.next() {
            seen.push(job);
        }
        while let Some(job) = lazy.next() {
            seen.push(job);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_job_does_not_starve_light_jobs() {
        // The reason this pool exists: one stream with a huge decode
        // closure must not head-of-line-block everyone else's round. One
        // heavy job (long sleep) and many light ones share two workers;
        // the light jobs must all finish while the heavy one is still
        // running, because the sibling worker steals around it.
        const HEAVY_MS: u64 = 400;
        let light_jobs = 64u64;
        let (pool, workers) = steal_pool::<u64>(2);
        let light_done = Arc::new(AtomicU64::new(0));
        let light_finished_at = Arc::new(Mutex::new(None::<std::time::Instant>));
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for w in workers {
                let light_done = light_done.clone();
                let light_finished_at = light_finished_at.clone();
                scope.spawn(move || {
                    while let Some(job) = w.next() {
                        if job == u64::MAX {
                            std::thread::sleep(Duration::from_millis(HEAVY_MS));
                        } else {
                            std::thread::sleep(Duration::from_millis(1));
                            if light_done.fetch_add(1, Ordering::Relaxed) + 1 == light_jobs {
                                *light_finished_at.lock().unwrap() =
                                    Some(std::time::Instant::now());
                            }
                        }
                    }
                });
            }
            pool.push(u64::MAX);
            for job in 0..light_jobs {
                pool.push(job);
            }
            pool.close();
        });
        assert_eq!(light_done.load(Ordering::Relaxed), light_jobs);
        let lights_elapsed = light_finished_at
            .lock()
            .unwrap()
            .expect("light jobs completed")
            .duration_since(start);
        // 64 light jobs at ~1 ms on the non-blocked worker: generous
        // bound well under the heavy job's sleep.
        assert!(
            lights_elapsed < Duration::from_millis(HEAVY_MS),
            "light jobs took {lights_elapsed:?}, starved behind the heavy job"
        );
    }

    #[test]
    fn blocked_worker_wakes_on_push() {
        let (pool, mut workers) = steal_pool::<u64>(1);
        let w = workers.remove(0);
        let handle = std::thread::spawn(move || w.next());
        std::thread::sleep(Duration::from_millis(30));
        pool.push(99);
        let got = handle.join().unwrap();
        assert_eq!(got, Some(99));
        pool.close();
    }

    #[test]
    fn one_wake_serves_a_batch_of_quiet_enqueues() {
        let (pool, workers) = steal_pool::<u64>(2);
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| std::thread::spawn(move || std::iter::from_fn(|| w.next()).sum::<u64>()))
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        (1..=100).for_each(|job| pool.enqueue(job));
        pool.wake();
        // Both workers were idle. Closing only once the queues are empty
        // proves the wake, not the close, got them moving.
        let start = std::time::Instant::now();
        while pool.shared.any_work() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!pool.shared.any_work(), "no idle worker woke for the batch");
        pool.close();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 5050);
    }

    #[test]
    fn blocked_worker_wakes_on_close() {
        let (pool, mut workers) = steal_pool::<u64>(1);
        let w = workers.remove(0);
        let handle = std::thread::spawn(move || w.next());
        std::thread::sleep(Duration::from_millis(30));
        pool.close();
        assert_eq!(handle.join().unwrap(), None);
    }
}
