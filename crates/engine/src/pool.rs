//! The engine's executor: `threads` execution slots over one FIFO of boxed
//! tasks, served by `threads` persistent workers and, on a one-slot pool,
//! by the threads that hand it work.
//!
//! A slot is the right to run one task; at most `threads` tasks run at once,
//! whichever threads run them. On a one-slot pool a caller that hands over a
//! batch ([`Pool::execute`]) runs its own tasks itself, in queue order,
//! whenever the slot is free, and returns once every one of them has been
//! taken: the batch never leaves the calling thread, and no other slot
//! could run a task while it does. On a pool with more slots the workers
//! run the batch and the caller returns at once: a caller busy running a
//! task could not do its own work meanwhile (a daemon's connection thread
//! reads the next units), and the other slots would go without it. A caller
//! never runs a task queued before its batch (another caller's): that
//! task's owner or a worker runs it, so whatever a task blocks on holds
//! only its own caller. A thread that finishes a task keeps its slot for
//! the next task it may run, so a busy pool hands no slot between threads;
//! a task that must block on something other than computation (a socket
//! write) gives its slot back first ([`Slot::release`]).
//!
//! One queue balances load by itself: a free slot goes to the next task
//! whatever the cost of the ones still running, so a cache miss that pays a
//! whole preprocessing pass never strands cheap jobs behind it. The workers
//! outlive every call, so no call pays for a thread spawn.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// One unit of work for the pool, run while holding a slot.
type Task = Box<dyn FnOnce(&mut Slot<'_>) + Send + 'static>;

/// The execution slot a running task holds. Tasks receive it so they can
/// give it back before they block on anything but computation.
#[derive(Debug)]
pub struct Slot<'a> {
    shared: &'a Shared,
    held: bool,
}

impl Slot<'_> {
    /// Gives the slot back before the task ends, so another task may run
    /// while this one writes to a socket. Idempotent.
    pub fn release(&mut self) {
        if std::mem::take(&mut self.held) {
            self.shared.give_back(&mut self.shared.lock());
        }
    }
}

/// What every thread of the pool shares.
pub(crate) struct Shared {
    state: Mutex<State>,
    /// Signalled when a slot frees while tasks wait, or a task arrives while
    /// a slot is free; workers wait here, and any one of them can take it.
    work: Condvar,
    /// Signalled to every waiting caller when a task is taken or a slot
    /// frees: a caller's next task may have reached the front, or its last
    /// been taken.
    turn: Condvar,
}

struct State {
    queue: VecDeque<Task>,
    /// Slots no task holds.
    free: usize,
    /// Tasks ever taken off the queue: a caller's tasks are all taken once
    /// this passes the queue position of its last one.
    taken: u64,
    /// Callers blocked in [`Pool::execute`].
    waiting: usize,
    /// The pool was dropped: workers exit once the queue is empty.
    closed: bool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("no thread panics holding the pool state")
    }

    fn wait<'a>(&self, cv: &Condvar, s: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(s).expect("no thread panics holding the pool state")
    }

    /// Wakes every caller waiting in [`Pool::execute`].
    fn tell_callers(&self, s: &State) {
        if s.waiting > 0 {
            self.turn.notify_all();
        }
    }

    /// Takes the front task for a thread that holds a slot. A waiting
    /// caller may now have its next task at the front, or all taken.
    fn pop(&self, s: &mut State) -> Option<Task> {
        let task = s.queue.pop_front()?;
        s.taken += 1;
        self.tell_callers(s);
        Some(task)
    }

    /// Takes the front task into a free slot.
    fn claim(&self, s: &mut State) -> Option<Task> {
        if s.free == 0 {
            return None;
        }
        let task = self.pop(s)?;
        s.free -= 1;
        Some(task)
    }

    /// Frees a slot, waking a worker (and the waiting callers, one of which
    /// may own the front task) to fill it when a task waits.
    fn give_back(&self, s: &mut State) {
        s.free += 1;
        if !s.queue.is_empty() {
            self.work.notify_one();
            self.tell_callers(s);
        }
    }

    /// Runs `task` in the slot it was claimed into, then the tasks at the
    /// front of the queue in the same slot until `done` holds or the queue
    /// runs dry (a caller's `done` holds once the front task is not its
    /// own). A task that released its slot needs a free one to go on.
    /// Gives back the slot it ends with and returns with the state locked.
    fn run_from(&self, task: Task, done: impl Fn(&State) -> bool) -> MutexGuard<'_, State> {
        let mut task = task;
        loop {
            let mut slot = Slot { shared: self, held: true };
            // A panicking task costs only itself: the panic hook has already
            // reported it, and whoever waits on the task sees its channel
            // sender dropped unsent.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| task(&mut slot)));
            let mut s = self.lock();
            if !slot.held {
                if s.free == 0 {
                    return s;
                }
                s.free -= 1;
            }
            match if done(&s) { None } else { self.pop(&mut s) } {
                Some(next) => task = next,
                None => {
                    self.give_back(&mut s);
                    return s;
                }
            }
        }
    }
}

/// A persistent pool of `threads` execution slots and as many workers.
///
/// Dropping the pool closes it, and each worker exits once the queue is
/// empty. The workers are detached, never joined: the last owner of a
/// daemon's engine can be one of the engine's own tasks, and a thread
/// cannot join itself.
#[derive(Debug)]
pub(crate) struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

impl Pool {
    /// Starts `threads` slots and workers (at least one).
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                free: threads,
                taken: 0,
                waiting: 0,
                closed: false,
            }),
            work: Condvar::new(),
            turn: Condvar::new(),
        });
        for _ in 0..threads {
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker(&shared));
        }
        Pool { shared, threads }
    }

    /// Slot (and worker) count.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Queues `tasks` behind every task queued before them. With more than
    /// one slot, wakes a worker for each free slot and returns. With one,
    /// runs them on this thread, in order, whenever the slot is free, and
    /// returns once every one has been taken (a worker takes those left
    /// while one of them blocks without its slot); tasks queued before them
    /// are left to their own callers and the worker.
    pub(crate) fn execute(&self, tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        let shared = &*self.shared;
        let mut s = shared.lock();
        let start = s.taken + s.queue.len() as u64;
        s.queue.extend(tasks);
        if self.threads > 1 {
            for _ in 0..s.free.min(s.queue.len()) {
                shared.work.notify_one();
            }
            return;
        }
        let end = s.taken + s.queue.len() as u64;
        while s.taken < end {
            let task = if s.taken >= start { shared.claim(&mut s) } else { None };
            s = match task {
                Some(task) => {
                    drop(s);
                    shared.run_from(task, |s| s.taken >= end)
                }
                None => {
                    s.waiting += 1;
                    let mut s = shared.wait(&shared.turn, s);
                    s.waiting -= 1;
                    s
                }
            };
        }
    }

    /// Queues `task` behind every task queued before it, for a worker: the
    /// caller does not run it.
    #[cfg(test)]
    pub(crate) fn submit(&self, task: impl FnOnce() + Send + 'static) {
        let mut s = self.shared.lock();
        s.queue.push_back(Box::new(move |_: &mut Slot<'_>| task()));
        if s.free > 0 {
            self.shared.work.notify_one();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.work.notify_all();
    }
}

fn worker(shared: &Shared) {
    let mut s = shared.lock();
    loop {
        s = match shared.claim(&mut s) {
            Some(task) => {
                drop(s);
                shared.run_from(task, |_| false)
            }
            None if s.closed && s.queue.is_empty() => return,
            None => shared.wait(&shared.work, s),
        };
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
    use std::sync::mpsc;

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

    #[test]
    fn a_one_thread_engine_runs_a_whole_batch_on_its_caller() {
        let engine = Engine::new(1);
        let ids = Arc::new(Mutex::new(Vec::new()));
        engine.execute((0..50).map(|_| {
            let ids = Arc::clone(&ids);
            move |_: &mut Slot<'_>| ids.lock().expect("test lock").push(thread::current().id())
        }));
        let ids = ids.lock().expect("test lock");
        assert_eq!(ids.len(), 50, "every task was taken before execute returned");
        assert!(ids.iter().all(|&id| id == thread::current().id()), "a task left the caller");
    }

    #[test]
    fn concurrent_callers_never_run_more_tasks_than_slots() {
        for slots in [1, 2] {
            let engine = Engine::new(slots);
            let (running, high) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
            let (tx, rx) = mpsc::channel::<()>();
            thread::scope(|scope| {
                for _ in 0..3 {
                    let (engine, running, high, tx) = (&engine, &running, &high, tx.clone());
                    scope.spawn(move || {
                        engine.execute((0..30).map(|_| {
                            let (running, high, tx) =
                                (Arc::clone(running), Arc::clone(high), tx.clone());
                            move |_: &mut Slot<'_>| {
                                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                high.fetch_max(now, Ordering::SeqCst);
                                thread::sleep(std::time::Duration::from_micros(300));
                                running.fetch_sub(1, Ordering::SeqCst);
                                drop(tx);
                            }
                        }));
                    });
                }
            });
            drop(tx);
            assert!(rx.recv().is_err(), "every task ran and dropped its sender");
            let high = high.load(Ordering::SeqCst);
            assert!((1..=slots).contains(&high), "{high} tasks ran at once on {slots} slots");
        }
    }

    #[test]
    fn a_many_slot_engine_leaves_a_batch_to_its_workers() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel();
        engine.execute((0..20).map(|_| {
            let tx = tx.clone();
            move |_: &mut Slot<'_>| tx.send(thread::current().id()).expect("the test listens")
        }));
        drop(tx);
        let ids: Vec<_> = rx.iter().collect();
        assert_eq!(ids.len(), 20, "every task ran");
        assert!(ids.iter().all(|&id| id != thread::current().id()), "a task ran on its caller");
    }

    /// Queues `task` for a worker, as [`Pool::submit`] does, with its slot.
    fn submit_with_slot(pool: &Pool, task: impl FnOnce(&mut Slot<'_>) + Send + 'static) {
        pool.shared.lock().queue.push_back(Box::new(task));
        pool.shared.work.notify_one();
    }

    #[test]
    fn a_caller_never_runs_a_task_queued_before_its_batch() {
        let pool = Pool::new(1);
        let (ran_tx, ran_rx) = mpsc::channel();
        let (worker_go, worker_wait) = mpsc::channel::<()>();
        let (slot_go, slot_wait) = mpsc::channel::<()>();
        // The only worker parks in a task that gave its slot back.
        let parked = ran_tx.clone();
        submit_with_slot(&pool, move |slot| {
            slot.release();
            parked.send(("parked", thread::current().id())).expect("the test listens");
            worker_wait.recv().expect("the test lets the worker go");
        });
        assert_eq!(ran_rx.recv().expect("the worker parks").0, "parked");
        thread::scope(|scope| {
            let pool = &pool;
            // A caller holds the only slot until the test lets it go.
            let blocker = ran_tx.clone();
            scope.spawn(move || {
                pool.execute(vec![Box::new(move |_: &mut Slot<'_>| {
                    blocker.send(("blocker", thread::current().id())).expect("the test listens");
                    slot_wait.recv().expect("the test lets the task go");
                })]);
            });
            assert_eq!(ran_rx.recv().expect("the blocker runs").0, "blocker");
            // A task queued before the next caller's batch.
            let before = ran_tx.clone();
            pool.submit(move || {
                before.send(("before", thread::current().id())).expect("the test listens");
            });
            let own = ran_tx.clone();
            let caller = scope.spawn(move || {
                pool.execute(vec![Box::new(move |_: &mut Slot<'_>| {
                    own.send(("own", thread::current().id())).expect("the test listens");
                })]);
                thread::current().id()
            });
            while pool.shared.lock().waiting == 0 {
                thread::yield_now();
            }
            // The slot frees while only the caller can take it.
            slot_go.send(()).expect("the blocker waits");
            thread::sleep(std::time::Duration::from_millis(100));
            worker_go.send(()).expect("the worker waits");
            let caller = caller.join().unwrap();
            let ran: Vec<_> = ran_rx.iter().take(2).collect();
            let before = ran.iter().find(|(name, _)| *name == "before").expect("it ran");
            assert_ne!(before.1, caller, "the caller ran a task queued before its batch");
            assert!(ran.iter().any(|(name, _)| *name == "own"), "{ran:?}");
        });
    }

    #[test]
    fn a_released_slot_runs_another_task_while_its_owner_blocks() {
        let engine = Engine::new(1);
        let (released_tx, released_rx) = mpsc::channel::<()>();
        let (ran_tx, ran_rx) = mpsc::channel::<()>();
        thread::scope(|scope| {
            let blocked = scope.spawn(|| {
                let (got_tx, got_rx) = mpsc::channel();
                engine.execute([move |slot: &mut Slot<'_>| {
                    slot.release();
                    released_tx.send(()).expect("the test listens");
                    // Blocks until a task runs in the slot it gave back.
                    let got = ran_rx.recv_timeout(std::time::Duration::from_secs(30));
                    got_tx.send(got).expect("the caller listens");
                }]);
                got_rx.recv().expect("the task answered")
            });
            released_rx.recv().expect("the first task released its slot");
            engine.execute([move |_: &mut Slot<'_>| ran_tx.send(()).expect("the task listens")]);
            assert_eq!(blocked.join().unwrap(), Ok(()), "the second task ran in the freed slot");
        });
    }
}
