//! The engine's executor, chosen by its slot count. A slot is the right to
//! run one task: at most `threads` tasks run at once.
//!
//! **One slot** starts no thread. A caller that hands over a batch
//! ([`Pool::execute`]) runs it itself, in order, during its turn, and
//! callers take turns in arrival order (a ticket lock). A caller only ever
//! runs its own tasks, so whatever a task blocks on holds only its own
//! caller. A task that must block on something other than computation (a
//! socket write) ends the turn first ([`Slot::release`]), so another caller
//! may run meanwhile; the next task of its batch then takes a new turn.
//!
//! **More slots** are as many persistent workers over one FIFO of boxed
//! tasks. The caller queues its batch and returns at once: a caller busy
//! running a task could not do its own work meanwhile (a daemon's
//! connection thread reads the next units). One queue balances load by
//! itself: an idle worker takes the next task whatever the cost of the ones
//! still running, so a cache miss that pays a whole preprocessing pass
//! never strands cheap jobs behind it. The workers outlive every call, so
//! no call pays for a thread spawn.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

/// One unit of work for the pool, run while holding a slot.
type Task = Box<dyn FnOnce(&mut Slot<'_>) + Send + 'static>;

/// The execution slot a running task holds. Tasks receive it so they can
/// give it back before they block on anything but computation.
#[derive(Debug)]
pub struct Slot<'a> {
    /// The one-slot turn, until released; a worker's slot is its thread,
    /// and has nothing to give back.
    turn: Option<&'a Turns>,
}

impl Slot<'_> {
    /// Gives the slot back before the task ends, so another task may run
    /// while this one writes to a socket. Idempotent.
    pub fn release(&mut self) {
        if let Some(turns) = self.turn.take() {
            turns.end();
        }
    }
}

/// Runs `task` in `slot`. A panicking task costs only itself: the panic
/// hook has already reported it, and whoever waits on the task sees its
/// channel sender dropped unsent.
fn run(task: Task, slot: &mut Slot<'_>) {
    let _ = panic::catch_unwind(AssertUnwindSafe(|| task(slot)));
}

/// A one-slot pool: turns on the calling threads, served in ticket order.
#[derive(Debug, Default)]
pub(crate) struct Turns {
    /// Tickets handed out, and the ticket whose turn it is.
    tickets: Mutex<(u64, u64)>,
    next: Condvar,
}

impl Turns {
    /// Waits for a turn behind every caller that arrived before.
    fn take(&self) {
        let mut tickets = self.tickets.lock().expect("no thread panics holding the tickets");
        let mine = tickets.0;
        tickets.0 += 1;
        while tickets.1 != mine {
            tickets = self.next.wait(tickets).expect("no thread panics holding the tickets");
        }
    }

    /// Hands the turn to the next ticket.
    fn end(&self) {
        self.tickets.lock().expect("no thread panics holding the tickets").1 += 1;
        self.next.notify_all();
    }

    /// Runs `tasks` on this thread, in order, taking a turn whenever it
    /// holds none.
    fn execute(&self, tasks: Vec<Task>) {
        let mut slot = Slot { turn: None };
        for task in tasks {
            if slot.turn.is_none() {
                self.take();
                slot.turn = Some(self);
            }
            run(task, &mut slot);
        }
        slot.release();
    }
}

/// The executor of an engine: one slot's turns, or a pool of workers.
///
/// Dropping a worker pool closes its feed, and each worker exits once the
/// queue is empty. The workers are detached, never joined: the last owner
/// of a daemon's engine can be one of the engine's own tasks, and a thread
/// cannot join itself.
#[derive(Debug)]
pub(crate) enum Pool {
    One(Turns),
    Workers { feed: mpsc::Sender<Task>, threads: usize },
}

impl Pool {
    /// One slot's turns for `threads <= 1`, else `threads` workers.
    pub(crate) fn new(threads: usize) -> Self {
        if threads <= 1 {
            return Pool::One(Turns::default());
        }
        let (feed, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            thread::spawn(move || worker(&rx));
        }
        Pool::Workers { feed, threads }
    }

    /// Slot count.
    pub(crate) fn threads(&self) -> usize {
        match self {
            Pool::One(_) => 1,
            Pool::Workers { threads, .. } => *threads,
        }
    }

    /// With one slot, runs `tasks` on this thread, in order, during its
    /// turns, and returns once all have run. With more, queues them behind
    /// every task queued before them for the workers and returns at once.
    pub(crate) fn execute(&self, tasks: Vec<Task>) {
        match self {
            Pool::One(turns) => turns.execute(tasks),
            Pool::Workers { feed, .. } => {
                for task in tasks {
                    feed.send(task).expect("workers hold the receiver as long as the feed is open");
                }
            }
        }
    }
}

fn worker(rx: &Mutex<mpsc::Receiver<Task>>) {
    loop {
        // Holding the lock across the blocking recv is deliberate: exactly
        // one idle worker waits in recv at a time, takes the task,
        // releases, and executes while the next idle worker moves into
        // recv, so execution still overlaps across all workers.
        let task = rx.lock().expect("no worker panics holding the feed").recv();
        let Ok(task) = task else { return };
        run(task, &mut Slot { turn: None });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::job::{EstimateMethod, JobKind, JobSpec};
    use crate::scenario::Scenario;
    use psdacc_fixed::RoundingMode;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    /// `n` cheap jobs over one cached scenario, with distinct answers.
    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                scenario: Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 },
                npsd: 32,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Estimate {
                    method: EstimateMethod::Flat,
                    frac_bits: 4 + (i % 20) as i32,
                },
            })
            .collect()
    }

    /// Starts a caller of `engine`'s one slot on its own thread and returns
    /// once it is about to call [`Engine::execute`] with `tasks`, so the
    /// next caller arrives after it. The caller returns its thread's id.
    fn arrive<'s, T>(
        scope: &'s thread::Scope<'s, '_>,
        engine: &'s Engine,
        tasks: Vec<T>,
    ) -> thread::ScopedJoinHandle<'s, thread::ThreadId>
    where
        T: FnOnce(&mut Slot<'_>) + Send + 'static,
    {
        let (arrived_tx, arrived_rx) = mpsc::channel();
        let caller = scope.spawn(move || {
            arrived_tx.send(()).expect("the test listens");
            engine.execute(tasks);
            thread::current().id()
        });
        arrived_rx.recv().expect("the caller arrives");
        // Between its signal and its ticket the caller runs a few
        // instructions. No public call shows the ticket taken, so a grace
        // period orders the arrivals.
        thread::sleep(Duration::from_millis(100));
        caller
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
        let engine = Engine::new(7);
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        engine.execute((0..1000usize).map(|j| {
            let (count, tx) = (Arc::clone(&count), tx.clone());
            move |_: &mut Slot<'_>| {
                count.fetch_add(1, Ordering::Relaxed);
                tx.send(j).expect("test holds the receiver");
            }
        }));
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
        let engine = Engine::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<()>();
        engine.execute((0..50usize).map(|i| {
            let (order, tx) = (Arc::clone(&order), tx.clone());
            move |_: &mut Slot<'_>| {
                order.lock().expect("test lock").push(i);
                drop(tx);
            }
        }));
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
        let engine = Engine::new(3);
        let ids = Arc::new(Mutex::new(HashSet::new()));
        for _round in 0..2 {
            let (tx, rx) = mpsc::channel::<()>();
            engine.execute((0..40).map(|_| {
                let (ids, tx) = (Arc::clone(&ids), tx.clone());
                move |_: &mut Slot<'_>| {
                    ids.lock().expect("test lock").insert(thread::current().id());
                    drop(tx);
                }
            }));
            drop(tx);
            assert!(rx.recv().is_err(), "the round finished");
        }
        let distinct = ids.lock().expect("test lock").len();
        assert!((1..=3).contains(&distinct), "{distinct} threads ran tasks on a 3-worker pool");
    }

    #[test]
    fn a_panicking_task_keeps_its_worker() {
        let engine = Engine::new(2);
        engine.execute((0..2).map(|_| |_: &mut Slot<'_>| panic!("deliberate task panic")));
        // Two tasks that each wait for the other need both workers.
        let (tx, rx) = mpsc::channel();
        let both = Arc::new(Barrier::new(2));
        engine.execute((0..2).map(|_| {
            let (both, tx) = (Arc::clone(&both), tx.clone());
            move |_: &mut Slot<'_>| {
                both.wait();
                tx.send(7).expect("test holds the receiver");
            }
        }));
        for _ in 0..2 {
            let got = rx.recv_timeout(Duration::from_secs(30));
            assert_eq!(got, Ok(7), "both workers survived the panics");
        }
    }

    #[test]
    fn a_panicking_task_leaves_its_caller_running_the_next_one() {
        let engine = Engine::new(1);
        let (tx, rx) = mpsc::channel();
        engine.execute((0..2).map(|i| {
            let tx = tx.clone();
            move |_: &mut Slot<'_>| {
                assert_ne!(i, 0, "deliberate task panic");
                tx.send(thread::current().id()).expect("test holds the receiver");
            }
        }));
        drop(tx);
        let ran: Vec<_> = rx.iter().collect();
        assert_eq!(ran, [thread::current().id()], "the caller ran the task after the panic");
    }

    #[test]
    fn dropping_the_pool_lets_queued_tasks_finish() {
        let engine = Engine::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<()>();
        engine.execute((0..100).map(|_| {
            let (count, tx) = (Arc::clone(&count), tx.clone());
            move |_: &mut Slot<'_>| {
                count.fetch_add(1, Ordering::Relaxed);
                drop(tx);
            }
        }));
        drop((engine, tx));
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

    #[test]
    fn a_many_slot_execute_returns_before_its_batch_finishes() {
        let engine = Engine::new(2);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        engine.execute([move |_: &mut Slot<'_>| {
            // Only a caller that returned can let the task go.
            let got = go_rx.recv_timeout(Duration::from_secs(30));
            done_tx.send(got).expect("the test listens");
        }]);
        go_tx.send(()).expect("the task waits");
        assert_eq!(done_rx.recv(), Ok(Ok(())), "execute waited for its batch");
    }

    #[test]
    fn callers_take_turns_in_arrival_order() {
        type Boxed = Box<dyn FnOnce(&mut Slot<'_>) + Send>;
        let engine = Engine::new(1);
        let (ran_tx, ran_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        thread::scope(|scope| {
            // The first caller holds the turn until the test lets it go,
            // then ends it: its next task queues behind later arrivals.
            let (first, last) = (ran_tx.clone(), ran_tx.clone());
            let tasks: Vec<Boxed> = vec![
                Box::new(move |slot| {
                    first.send((0, thread::current().id())).expect("the test listens");
                    go_rx.recv().expect("the test lets the task go");
                    slot.release();
                }),
                Box::new(move |_| {
                    last.send((0, thread::current().id())).expect("the test listens")
                }),
            ];
            let mut callers = vec![arrive(scope, &engine, tasks)];
            assert_eq!(ran_rx.recv().expect("the first caller runs").0, 0);
            for caller in 1..3 {
                let tasks: Vec<_> = (0..3)
                    .map(|_| {
                        let ran = ran_tx.clone();
                        move |_: &mut Slot<'_>| {
                            ran.send((caller, thread::current().id())).expect("the test listens")
                        }
                    })
                    .collect();
                callers.push(arrive(scope, &engine, tasks));
            }
            drop(ran_tx);
            go_tx.send(()).expect("the first task waits");
            let ids: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
            let ran: Vec<(usize, thread::ThreadId)> = ran_rx.iter().collect();
            let order: Vec<usize> = ran.iter().map(|&(caller, _)| caller).collect();
            assert_eq!(order, [1, 1, 1, 2, 2, 2, 0], "batches ran out of arrival order");
            for (caller, id) in ran {
                assert_eq!(id, ids[caller], "caller {caller}'s task ran on another thread");
            }
            assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 3, "{ids:?}");
        });
    }

    #[test]
    fn a_caller_never_runs_a_task_queued_before_its_batch() {
        let engine = Engine::new(1);
        let (ran_tx, ran_rx) = mpsc::channel();
        let (slot_go, slot_wait) = mpsc::channel::<()>();
        thread::scope(|scope| {
            // A caller holds the only slot until the test lets it go.
            let blocker = ran_tx.clone();
            arrive(
                scope,
                &engine,
                vec![move |_: &mut Slot<'_>| {
                    blocker.send(("blocker", thread::current().id())).expect("the test listens");
                    slot_wait.recv().expect("the test lets the task go");
                }],
            );
            assert_eq!(ran_rx.recv().expect("the blocker runs").0, "blocker");
            // A task queued before the next caller's batch, by another caller.
            let before = ran_tx.clone();
            let earlier = arrive(
                scope,
                &engine,
                vec![move |_: &mut Slot<'_>| {
                    before.send(("before", thread::current().id())).expect("the test listens");
                }],
            );
            let own = ran_tx.clone();
            let caller = arrive(
                scope,
                &engine,
                vec![move |_: &mut Slot<'_>| {
                    own.send(("own", thread::current().id())).expect("the test listens");
                }],
            );
            // The slot frees while both callers wait for it.
            slot_go.send(()).expect("the blocker waits");
            let (earlier, caller) = (earlier.join().unwrap(), caller.join().unwrap());
            let ran: Vec<_> = ran_rx.iter().take(2).collect();
            let before = ran.iter().find(|(name, _)| *name == "before").expect("it ran");
            assert_ne!(before.1, caller, "the caller ran a task queued before its batch");
            assert_eq!(before.1, earlier, "{ran:?}");
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
