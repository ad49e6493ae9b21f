//! The engine's executor: a fixed set of worker threads, started once per
//! [`Engine`](crate::Engine), pulling boxed tasks from one shared FIFO.
//!
//! One queue feeding every worker balances load by itself: an idle worker
//! takes the next task whatever the cost of the ones still running, so a
//! cache miss that pays a whole preprocessing pass never strands cheap
//! jobs behind it. The workers outlive every call, so no call pays for a
//! thread spawn.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// One unit of work for the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads fed from one FIFO.
///
/// Dropping the pool closes the feed, and each worker exits once the
/// queue is empty. The workers are detached, never joined: the last owner
/// of a daemon's engine can be one of the engine's own tasks, and a
/// thread cannot join itself.
#[derive(Debug)]
pub(crate) struct Pool {
    feed: mpsc::Sender<Task>,
    threads: usize,
}

impl Pool {
    /// Starts `threads` workers (at least one).
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (feed, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            thread::spawn(move || worker(&rx));
        }
        Pool { feed, threads }
    }

    /// Worker count.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Queues `task` behind every task submitted before it; the next idle
    /// worker runs it.
    pub(crate) fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.feed
            .send(Box::new(task))
            .expect("workers hold the receiver as long as the feed is open");
    }
}

fn worker(rx: &Mutex<mpsc::Receiver<Task>>) {
    loop {
        // Holding the lock across the blocking recv is deliberate: exactly
        // one idle worker waits in recv at a time, takes the task,
        // releases, and executes while the next idle worker moves into
        // recv — so execution still overlaps across all workers.
        let task = rx.lock().expect("no worker panics holding the feed").recv();
        let Ok(task) = task else { return };
        // A panicking task costs only itself: the panic hook has already
        // reported it, and whoever waits on the task sees its channel
        // sender dropped unsent.
        let _ = panic::catch_unwind(AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::job::{JobKind, JobSpec};
    use crate::scenario::Scenario;
    use psdacc_core::Method;
    use psdacc_fixed::RoundingMode;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `n` cheap jobs over one cached scenario, with distinct answers.
    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                scenario: Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 },
                npsd: 32,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Estimate { method: Method::Flat, frac_bits: 4 + (i % 20) as i32 },
            })
            .collect()
    }

    #[test]
    fn preserves_job_order() {
        let report = Engine::new(8).run(jobs(500));
        assert_eq!(report.results.len(), 500);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.job, i);
            assert_eq!(r.frac_bits, Some(4 + (i % 20) as i32));
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = Pool::new(7);
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for j in 0..1000usize {
            let (count, tx) = (Arc::clone(&count), tx.clone());
            pool.submit(move || {
                count.fetch_add(1, Ordering::Relaxed);
                tx.send(j).expect("test holds the receiver");
            });
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<usize>>());
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn observer_sees_every_completion() {
        let engine = Engine::new(4);
        let mut seen: Vec<(usize, Option<i32>)> = Vec::new();
        let report = engine.run_streaming(jobs(100), |r| seen.push((r.job, r.frac_bits)));
        assert_eq!(seen.len(), 100, "one observation per job");
        for &(job, bits) in &seen {
            assert_eq!(bits, report.results[job].frac_bits, "observer gets the matching result");
        }
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let pool = Pool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<()>();
        for i in 0..50usize {
            let (order, tx) = (Arc::clone(&order), tx.clone());
            pool.submit(move || {
                order.lock().expect("test lock").push(i);
                drop(tx);
            });
        }
        drop(tx);
        assert!(rx.recv().is_err(), "every task ran and dropped its sender");
        assert_eq!(*order.lock().expect("test lock"), (0..50).collect::<Vec<usize>>(), "FIFO");
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = Engine::new(4).run(Vec::new());
        assert!(report.results.is_empty());
        assert_eq!(report.workers, 4);
    }

    #[test]
    fn workers_persist_across_rounds() {
        let pool = Pool::new(3);
        let ids = Arc::new(Mutex::new(HashSet::new()));
        for _round in 0..2 {
            let (tx, rx) = mpsc::channel::<()>();
            for _ in 0..40 {
                let (ids, tx) = (Arc::clone(&ids), tx.clone());
                pool.submit(move || {
                    ids.lock().expect("test lock").insert(thread::current().id());
                    drop(tx);
                });
            }
            drop(tx);
            assert!(rx.recv().is_err(), "the round finished");
        }
        let distinct = ids.lock().expect("test lock").len();
        assert!((1..=3).contains(&distinct), "{distinct} threads ran tasks on a 3-worker pool");
    }

    #[test]
    fn a_panicking_task_keeps_its_worker() {
        let pool = Pool::new(1);
        pool.submit(|| panic!("deliberate task panic"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7).expect("test holds the receiver"));
        assert_eq!(rx.recv(), Ok(7), "the only worker survived the panic");
    }

    #[test]
    fn dropping_the_pool_lets_queued_tasks_finish() {
        let pool = Pool::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<()>();
        for _ in 0..100 {
            let (count, tx) = (Arc::clone(&count), tx.clone());
            pool.submit(move || {
                count.fetch_add(1, Ordering::Relaxed);
                drop(tx);
            });
        }
        drop((pool, tx));
        assert!(rx.recv().is_err(), "every queued task ran and dropped its sender");
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }
}
