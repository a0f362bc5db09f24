//! The work-stealing worker pool.
//!
//! Per-worker deques plus a global injector, all over std primitives —
//! no crossbeam in the offline workspace. Submitters either drop jobs
//! into the injector ([`WorkerPool::submit`]) or round-robin them across
//! the worker-local deques ([`WorkerPool::submit_shards`], the sweep
//! sharding path — it pre-spreads a burst of similar-cost shards so
//! workers start without contending on one queue). An idle worker pops
//! its own deque first, then the injector, then steals from siblings —
//! always the oldest job first, so one worker runs a sweep's shards in
//! the order the response writer emits them.
//!
//! The sleep protocol is the standard race-free Condvar shape: a worker
//! that finds every queue empty takes the sleep lock, **re-checks** the
//! queues while holding it, and only then waits; every producer pushes
//! its job first and then takes the same lock to notify. A push can
//! therefore never slip between a worker's last check and its wait.
//!
//! Shutdown is draining by construction: the flag only stops workers
//! from *sleeping*; a worker exits when the flag is set **and** every
//! queue is empty, so all submitted jobs run before `join` returns.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters snapshot returned by [`WorkerPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs executed to completion.
    pub executed: u64,
    /// Jobs a worker took from a sibling's deque.
    pub steals: u64,
}

struct PoolShared {
    injector: Mutex<VecDeque<Job>>,
    locals: Vec<Mutex<VecDeque<Job>>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    executed: AtomicU64,
    steals: AtomicU64,
    /// Round-robin cursor for `submit_shards`.
    next_local: AtomicUsize,
}

impl PoolShared {
    fn any_work(&self) -> bool {
        if !self.injector.lock().expect("injector poisoned").is_empty() {
            return true;
        }
        self.locals
            .iter()
            .any(|l| !l.lock().expect("local deque poisoned").is_empty())
    }

    /// Pop one job for worker `me`, oldest first: own deque → injector →
    /// steal. Popping the own deque from the front means a worker runs
    /// `submit_shards` jobs in submission order, so the shard the writer
    /// needs next is never queued behind later ones.
    fn pop(&self, me: usize) -> Option<Job> {
        if let Some(j) = self.locals[me]
            .lock()
            .expect("local deque poisoned")
            .pop_front()
        {
            return Some(j);
        }
        if let Some(j) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some(j);
        }
        for off in 1..self.locals.len() {
            let victim = (me + off) % self.locals.len();
            if let Some(j) = self.locals[victim]
                .lock()
                .expect("local deque poisoned")
                .pop_front()
            {
                self.steals.fetch_add(1, Relaxed);
                return Some(j);
            }
        }
        None
    }

    fn notify(&self) {
        // Taking the sleep lock orders this notify after any sleeper's
        // re-check; without it the wakeup could land in the gap between a
        // worker's empty-check and its wait.
        let _g = self.sleep.lock().expect("sleep lock poisoned");
        self.wake.notify_all();
    }
}

/// A fixed-size work-stealing thread pool.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "WorkerPool {{ workers: {}, executed: {}, steals: {} }}",
            s.workers, s.executed, s.steals
        )
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            next_local: AtomicUsize::new(0),
        });
        let threads = (0..workers)
            .map(|me| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// Queues one job on the global injector.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared
            .injector
            .lock()
            .expect("injector poisoned")
            .push_back(Box::new(job));
        self.shared.notify();
    }

    /// Queues a burst of jobs round-robin across the worker-local deques.
    ///
    /// This is the sweep-shard path: spreading the burst up front lets
    /// every worker start on a distinct shard without first contending on
    /// the injector; the stealing protocol rebalances any skew.
    pub fn submit_shards<I>(&self, jobs: I)
    where
        I: IntoIterator<Item = Job>,
    {
        for job in jobs {
            let idx = self.shared.next_local.fetch_add(1, Relaxed) % self.shared.locals.len();
            self.shared.locals[idx]
                .lock()
                .expect("local deque poisoned")
                .push_back(job);
        }
        self.shared.notify();
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.shared.locals.len(),
            executed: self.shared.executed.load(Relaxed),
            steals: self.shared.steals.load(Relaxed),
        }
    }

    /// Signals shutdown and joins every worker after all queued jobs have
    /// drained. Jobs submitted after this call may be silently dropped.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Relaxed);
        self.shared.notify();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // A dropped (not explicitly shut down) pool still drains and joins
        // so tests can't leak runaway threads.
        self.shared.shutdown.store(true, Relaxed);
        self.shared.notify();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    loop {
        if let Some(job) = shared.pop(me) {
            job();
            shared.executed.fetch_add(1, Relaxed);
            continue;
        }
        // Queues looked empty. Take the sleep lock, re-check, and either
        // exit (shutdown + drained), retry (work raced in), or wait.
        let guard = shared.sleep.lock().expect("sleep lock poisoned");
        if shared.any_work() {
            continue;
        }
        if shared.shutdown.load(Relaxed) {
            return;
        }
        let _unused = shared.wake.wait(guard).expect("sleep lock poisoned");
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
    fn shard_burst_drains_and_rebalances() {
        let pool = WorkerPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        // Skewed costs: worker 0's deque gets the slow jobs round-robin,
        // so finishing quickly requires stealing.
        let jobs: Vec<Job> = (0..64)
            .map(|i| {
                let done = done.clone();
                Box::new(move || {
                    if i % 4 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    done.fetch_add(1, Relaxed);
                }) as Job
            })
            .collect();
        pool.submit_shards(jobs);
        pool.shutdown();
        assert_eq!(done.load(Relaxed), 64);
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
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                let order = order.clone();
                Box::new(move || order.lock().unwrap().push(i)) as Job
            })
            .collect();
        pool.submit_shards(jobs);
        release.send(()).unwrap();
        pool.shutdown();
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
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
