//! The worker pool.
//!
//! One FIFO job queue shared by every worker: a std `mpsc` channel whose
//! receiver the workers take turns on. A job therefore starts only after
//! every job submitted before it has started, so the workers run a
//! sweep's shards in the order the response writer emits them. Jobs are
//! sweep and explore shards of a millisecond or more, so the one queue
//! lock sees no contention worth splitting it for.
//!
//! Shutdown is draining by construction: dropping the pool's sender
//! disconnects the channel only after every queued job has been received,
//! so all submitted jobs run before `join` returns.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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
    /// Jobs executed to completion.
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

fn worker_loop(queue: &Mutex<Receiver<Job>>, executed: &AtomicU64) {
    loop {
        // The guard is dropped at the end of this statement, so the next
        // worker can take a job while this one runs.
        let job = queue.lock().expect("job queue poisoned").recv();
        let Ok(job) = job else { return };
        job();
        executed.fetch_add(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
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
