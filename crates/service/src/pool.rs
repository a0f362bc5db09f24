//! The worker pool.
//!
//! One FIFO job queue shared by every worker: a std `mpsc` channel whose
//! receiver the workers take turns on. A job therefore starts only after
//! every job submitted before it has started, so the workers run a
//! sweep's shards in the order the response writer emits them. Jobs are
//! sweep shards and explore claimers of a millisecond or more, so the one
//! queue lock sees no contention worth splitting it for.
//!
//! [`WorkerPool::run_indexed`] runs `n` indexed tasks on the pool and the
//! calling thread together: the caller and up to `workers` pool jobs
//! claim the next unclaimed index from one counter until none is left.
//! The caller waits only on indices a job has claimed, never on a job
//! still queued, so a call completes even while every worker is busy
//! with other jobs.
//!
//! Shutdown is draining by construction: dropping the pool's sender
//! disconnects the channel only after every queued job has been received,
//! so all submitted jobs run before `join` returns.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters snapshot returned by [`WorkerPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Pool jobs executed to completion: one per sweep shard, one per
    /// explore claimer (however many shards it claimed, none included).
    /// A job that panicked is not counted.
    pub executed: u64,
}

/// A fixed-size thread pool over one FIFO job queue.
pub struct WorkerPool {
    /// Taken on drop, which disconnects the workers' queue.
    jobs: Option<Sender<Job>>,
    executed: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "WorkerPool {{ workers: {}, executed: {} }}",
            s.workers, s.executed
        )
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (jobs, queue) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let executed = Arc::new(AtomicU64::new(0));
        let threads = (0..workers)
            .map(|me| {
                let queue = queue.clone();
                let executed = executed.clone();
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{me}"))
                    .spawn(move || worker_loop(&queue, &executed))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            jobs: Some(jobs),
            executed,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Queues one job behind every job submitted before it.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        let jobs = self.jobs.as_ref().expect("the sender lives until drop");
        // The workers hold the receiver until the sender drops, so this
        // cannot fail.
        let _ = jobs.send(Box::new(job));
    }

    /// Runs `f(0)`, …, `f(n - 1)` on the calling thread and
    /// `min(workers, n - 1)` pool jobs together and returns the results in
    /// index order.
    ///
    /// Every claimer, the caller included, takes the next unclaimed index
    /// from one shared counter until none is left, so the caller waits
    /// only on indices a pool job is already running. A job that starts
    /// after the caller claimed the last index finds none and returns.
    ///
    /// # Panics
    ///
    /// If `f` panics on the calling thread, or on a pool job for an index
    /// the caller then waits on: the job's sender drops as it unwinds, so
    /// the caller's receive errors out once the call's other jobs have
    /// returned, instead of waiting forever.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let claims = Arc::new(Claims {
            next: AtomicUsize::new(0),
            n,
            f,
        });
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for _ in 0..self.workers().min(n.saturating_sub(1)) {
            let claims = claims.clone();
            let tx = tx.clone();
            self.submit(move || {
                while let Some(done) = claims.run_next() {
                    // The caller only drops the receiver while unwinding.
                    if tx.send(done).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut mine = 0;
        while let Some((i, out)) = claims.run_next() {
            slots[i] = Some(out);
            mine += 1;
        }
        // Every other index is claimed by a running job by now.
        for _ in mine..n {
            let (i, out) = rx.recv().expect("a pool job panicked on a claimed index");
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index ran once"))
            .collect()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.threads.len(),
            executed: self.executed.load(Relaxed),
        }
    }

    /// Runs every queued job, then joins the workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnecting the channel ends each worker once the queue is
        // empty, so a dropped pool drains and joins like a shut-down one
        // and tests can't leak runaway threads.
        self.jobs = None;
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The shared state of one [`WorkerPool::run_indexed`] call.
struct Claims<F> {
    next: AtomicUsize,
    n: usize,
    f: F,
}

impl<T, F: Fn(usize) -> T> Claims<F> {
    /// Claims the next unclaimed index and runs it; `None` once every
    /// index is claimed.
    fn run_next(&self) -> Option<(usize, T)> {
        // Relaxed: the counter publishes no data, it only hands out each
        // index once; results reach the caller through the channel.
        let i = self.next.fetch_add(1, Relaxed);
        (i < self.n).then(|| (i, (self.f)(i)))
    }
}

fn worker_loop(queue: &Mutex<Receiver<Job>>, executed: &AtomicU64) {
    loop {
        // The guard is dropped at the end of this statement, so the next
        // worker can take a job while this one runs.
        let job = queue.lock().expect("job queue poisoned").recv();
        let Ok(job) = job else { return };
        // A job that panics costs only itself: its captures (a shard's or
        // claimer's sender included) drop as it unwinds, so whoever waits
        // on it sees a disconnect, and this worker takes the next job.
        // Nothing the job shared is left half-updated: results only leave
        // a job through its channel.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_ok() {
            executed.fetch_add(1, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn runs_every_submitted_job() {
        let pool = WorkerPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let done = done.clone();
            pool.submit(move || {
                done.fetch_add(1, Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Relaxed), 200);
    }

    #[test]
    fn one_worker_runs_shards_in_submission_order() {
        let pool = WorkerPool::new(1);
        // Park the only worker so the whole burst is queued before any of
        // it runs.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (parked, started) = std::sync::mpsc::channel::<()>();
        pool.submit(move || {
            parked.send(()).expect("parked");
            gate.recv().expect("gate");
        });
        started.recv().expect("worker started");
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let order = order.clone();
            pool.submit(move || order.lock().unwrap().push(i));
        }
        release.send(()).unwrap();
        pool.shutdown();
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn two_workers_start_jobs_in_submission_order() {
        let pool = WorkerPool::new(2);
        // Each job reports its start, then blocks until released.
        let (started_tx, started) = std::sync::mpsc::channel::<usize>();
        let releases: Vec<std::sync::mpsc::Sender<()>> = (0..8)
            .map(|i| {
                let (release, gate) = std::sync::mpsc::channel::<()>();
                let started_tx = started_tx.clone();
                pool.submit(move || {
                    started_tx.send(i).expect("report start");
                    let _ = gate.recv();
                });
                release
            })
            .collect();
        let mut first = [started.recv().unwrap(), started.recv().unwrap()];
        first.sort_unstable();
        assert_eq!(first, [0, 1]);
        // Job 0 keeps one worker busy; releasing the job that started
        // last frees the other, which must start the oldest queued job.
        let mut last = 1;
        for want in 2..8 {
            releases[last].send(()).unwrap();
            last = started.recv().unwrap();
            assert_eq!(last, want);
        }
        drop(releases);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = done.clone();
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Relaxed);
            });
        }
        // Immediate shutdown must still run all 50 (draining semantics).
        pool.shutdown();
        assert_eq!(done.load(Relaxed), 50);
    }

    #[test]
    fn idle_pool_shuts_down_promptly() {
        let pool = WorkerPool::new(8);
        std::thread::sleep(Duration::from_millis(5));
        pool.shutdown();
    }

    #[test]
    fn run_indexed_returns_every_result_in_index_order() {
        for workers in [1, 3] {
            let pool = WorkerPool::new(workers);
            for n in [0, 1, 2, 7, 64] {
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(
                    pool.run_indexed(n, |i| i * i),
                    want,
                    "{workers} workers, n = {n}"
                );
            }
        }
    }

    #[test]
    fn run_indexed_fails_the_caller_when_a_job_panics() {
        let pool = Arc::new(WorkerPool::new(1));
        let (done_tx, done) = std::sync::mpsc::channel();
        let caller = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let (claimed, on_claim) = std::sync::mpsc::channel::<()>();
                let on_claim = Mutex::new(on_claim);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.run_indexed(2, move |i| {
                        let on_worker = std::thread::current()
                            .name()
                            .is_some_and(|n| n.starts_with("sweep-worker"));
                        if on_worker {
                            let _ = claimed.send(());
                            panic!("index {i} fails on purpose");
                        }
                        // Hold this index until the worker has claimed the
                        // other one.
                        let _ = on_claim
                            .lock()
                            .unwrap()
                            .recv_timeout(Duration::from_secs(10));
                        i
                    })
                }));
                let _ = done_tx.send(result.is_err());
            })
        };
        assert_eq!(
            done.recv_timeout(Duration::from_secs(30)),
            Ok(true),
            "the caller must panic, not hang or return"
        );
        caller.join().unwrap();
    }

    #[test]
    fn a_panicking_job_does_not_cost_its_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("this job fails on purpose"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(move || tx.send(()).expect("the test waits"));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(()),
            "the only worker must survive the panic and run the next job"
        );
    }

    #[test]
    fn jobs_submitted_from_jobs_complete() {
        let pool = Arc::new(WorkerPool::new(3));
        let done = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        for _ in 0..10 {
            let done = done.clone();
            let tx = tx.clone();
            let inner_pool = pool.clone();
            pool.submit(move || {
                let done2 = done.clone();
                let tx2 = tx.clone();
                inner_pool.submit(move || {
                    done2.fetch_add(1, Relaxed);
                    let _ = tx2.send(());
                });
            });
        }
        drop(tx);
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(10)).expect("inner job");
        }
        assert_eq!(done.load(Relaxed), 10);
    }
}
