//! The coordinator-side fleet queue: one FIFO of pending units that every
//! daemon link pulls from while its in-flight window has room, the window
//! policy, and death re-dispatch — the discipline of the engine's worker
//! pool, with daemons in place of threads.
//!
//! One queue feeding every link balances load by itself: an idle link
//! takes the next units whatever the cost of the ones still running, so a
//! straggler simply pulls less often. A link reads its own results, so a
//! full window tells it to read, not to wait; only a link with nothing in
//! flight and nothing to take waits, until a dead daemon's units return
//! to the queue or the run ends. A dead daemon's in-flight units go back
//! to the **front** of the queue in id order and retry **once**.
//!
//! Each refill takes every unit the daemon's [`window`] allows at once:
//! as many as the daemon finishes within [`HOLD`] at its measured time
//! per unit, never fewer than [`WINDOW_FACTOR`] per worker, and never
//! more than its workers' share of the units not yet sent (guided
//! self-scheduling) or the window its `hello` advertised. The time per
//! unit is the last refill answered in full: from its hand-out, just
//! before the link writes it, to its last result, over its units. A
//! daemon not yet measured gets the floor, so a straggler holds no more
//! than the floor and equal fast daemons split the queue between them.
//!
//! Everything lives behind one `Mutex` + `Condvar`. Fleet units are
//! coarse (an evaluation, at worst a preprocessing pass) and a refill takes
//! its units under one lock, so the lock is nowhere near contention; the
//! blocking semantics are the point.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The hold bound: a daemon is granted the units it finishes in this time,
/// so no result line waits much longer than this for the rest of its
/// refill, and a refill's round trip is paid once per this much work.
pub(crate) const HOLD: Duration = Duration::from_millis(1);

/// The window floor per advertised worker: what a daemon not yet measured,
/// or slower than `HOLD / WINDOW_FACTOR` per unit, may hold.
pub(crate) const WINDOW_FACTOR: usize = 2;

/// A daemon's capacity as its `hello` advertised it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Capacity {
    /// Worker count.
    pub(crate) workers: usize,
    /// The most units the daemon takes in flight on one connection.
    pub(crate) window: usize,
}

/// The window granted to a daemon of `capacity` whose measured time per
/// unit is `per_unit` (`None` until a refill is answered in full), when
/// `pending` units are not yet sent and the live daemons advertise
/// `live_workers` workers in all (this daemon's included).
pub(crate) fn window(
    capacity: Capacity,
    per_unit: Option<Duration>,
    pending: usize,
    live_workers: usize,
) -> usize {
    let workers = capacity.workers.max(1);
    let floor = workers * WINDOW_FACTOR;
    let Some(per_unit) = per_unit else {
        return floor;
    };
    let within_hold = (HOLD.as_nanos() / per_unit.as_nanos().max(1)) as usize;
    let share = (pending * workers).div_ceil(live_workers.max(workers));
    within_hold.min(share).min(capacity.window).max(floor)
}

/// One schedulable unit: the pre-rendered request line for job `id` (the
/// line already carries the id, so any daemon can serve it).
#[derive(Debug, Clone)]
pub(crate) struct Unit {
    pub(crate) id: usize,
    pub(crate) line: String,
    /// The unit's protocol verb, as its index in
    /// [`VERBS`](psdacc_serve::latency::VERBS), carried so completions feed
    /// the coordinator's per-verb latency histograms.
    pub(crate) verb: usize,
    /// Dispatch attempts that ended with a dead daemon. A unit whose
    /// second dispatch also dies takes the whole batch down (fatal) —
    /// "retry once elsewhere", not an infinite crash loop.
    pub(crate) attempts: u32,
    /// When the unit last entered the queue (reset on re-dispatch), so a
    /// dispatch can report how long the unit sat queued.
    pub(crate) enqueued: Instant,
}

impl Unit {
    pub(crate) fn new(id: usize, line: String, verb: usize) -> Unit {
        Unit { id, line, verb, attempts: 0, enqueued: Instant::now() }
    }
}

/// A unit the queue hands a link to send: the wire line plus the
/// scheduling context the coordinator's trace wants to record.
#[derive(Debug)]
pub(crate) struct Dispatch {
    pub(crate) id: usize,
    pub(crate) line: String,
    /// Time the unit sat queued before this dispatch.
    pub(crate) queue_wait: Duration,
}

/// What a link does next, as [`FleetQueue::next`] decides it.
#[derive(Debug)]
pub(crate) enum Step {
    /// Write these units, in one write.
    Send(Vec<Dispatch>),
    /// Read a result: the window is full, or nothing is left to take while
    /// units are in flight.
    Read,
    /// Stop sending: the run is over (all done, or fatal) or the daemon is
    /// dead.
    Stop,
}

/// What [`FleetQueue::complete`] reports back for a unit this daemon
/// actually had in flight (absent for an answer to any other id).
#[derive(Debug)]
pub(crate) struct Completion {
    /// The unit's verb index.
    pub(crate) verb: usize,
    /// Send-to-result wall time on this daemon's connection.
    pub(crate) roundtrip: Duration,
}

/// One daemon's scheduling record, as the fleet stats report it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Completed units.
    pub(crate) served: usize,
    /// Refills: the batches of units taken for one write each.
    pub(crate) refills: usize,
    /// The largest window a refill was granted.
    pub(crate) window: usize,
}

/// One batch of units handed to a link for one write.
#[derive(Debug)]
struct Refill {
    /// When it went out (restarted by [`FleetQueue::start_clocks`]).
    sent: Instant,
    units: u32,
    /// Its units not yet answered.
    waiting: u32,
}

/// The queue's view of one daemon link.
#[derive(Debug, Default)]
struct Daemon {
    /// What its `hello` advertised; `None` until its handshake.
    capacity: Option<Capacity>,
    /// Sent-but-unanswered units with the index of their refill, by id
    /// (recoverable on death, timeable on completion).
    in_flight: HashMap<usize, (Unit, usize)>,
    /// Every refill so far, in order.
    refills: Vec<Refill>,
    /// Time per unit of the last refill answered in full.
    per_unit: Option<Duration>,
    /// The largest window a refill was granted.
    window: usize,
    /// Completed units.
    served: usize,
    /// Declared dead (connection failed mid-batch).
    dead: bool,
}

#[derive(Debug)]
struct Inner {
    /// Units not yet sent, plus dead daemons' units awaiting their retry
    /// at the front.
    pending: VecDeque<Unit>,
    daemons: Vec<Daemon>,
    /// Units not yet completed anywhere.
    remaining: usize,
    /// In-flight units of dead daemons put back for a retry.
    redispatched: usize,
    /// First unrecoverable failure; poisons the whole run.
    fatal: Option<String>,
    /// All units complete — links should half-close.
    done: bool,
}

impl Inner {
    /// Moves the front units in flight on daemon `d` while fewer than its
    /// [`window`] are: one refill.
    fn refill(&mut self, d: usize) -> Vec<Dispatch> {
        let live_workers = self
            .daemons
            .iter()
            .filter(|daemon| !daemon.dead)
            .filter_map(|daemon| daemon.capacity)
            .map(|capacity| capacity.workers.max(1))
            .sum();
        let daemon = &mut self.daemons[d];
        let Some(capacity) = daemon.capacity else {
            return Vec::new();
        };
        let window = window(capacity, daemon.per_unit, self.pending.len(), live_workers);
        let room = window.saturating_sub(daemon.in_flight.len()).min(self.pending.len());
        if room == 0 {
            return Vec::new();
        }
        daemon.window = daemon.window.max(window);
        let now = Instant::now();
        let refill = daemon.refills.len();
        daemon.refills.push(Refill { sent: now, units: room as u32, waiting: room as u32 });
        self.pending
            .drain(..room)
            .map(|unit| {
                let handout = Dispatch {
                    id: unit.id,
                    line: unit.line.clone(),
                    queue_wait: now.saturating_duration_since(unit.enqueued),
                };
                daemon.in_flight.insert(unit.id, (unit, refill));
                handout
            })
            .collect()
    }
}

/// The shared queue (see module docs).
#[derive(Debug)]
pub(crate) struct FleetQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl FleetQueue {
    /// Queues `units` in order for a fleet of `daemons` links.
    pub(crate) fn new(units: Vec<Unit>, daemons: usize) -> Self {
        FleetQueue {
            inner: Mutex::new(Inner {
                remaining: units.len(),
                pending: units.into(),
                daemons: (0..daemons).map(|_| Daemon::default()).collect(),
                redispatched: 0,
                fatal: None,
                done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// What daemon `d`'s link does next: send every unit its window has
    /// room for, read while units are in flight, or stop once the run is
    /// over or `d` is dead. With nothing in flight and nothing to take it
    /// blocks until a death puts units back or the run ends.
    pub(crate) fn next(&self, d: usize) -> Step {
        let mut g = self.inner.lock().expect("fleet queue lock");
        loop {
            if g.done || g.fatal.is_some() || g.daemons[d].dead {
                return Step::Stop;
            }
            let units = g.refill(d);
            if !units.is_empty() {
                return Step::Send(units);
            }
            if !g.daemons[d].in_flight.is_empty() {
                return Step::Read;
            }
            g = self.cv.wait(g).expect("fleet queue wait");
        }
    }

    /// Records daemon `d`'s advertised `capacity` and takes its first
    /// window (the floor: nothing is measured yet) without waiting: the
    /// units a link claims as soon as its handshake succeeds, before it may
    /// send them. [`FleetQueue::start_clocks`] marks when they go out.
    pub(crate) fn claim(&self, d: usize, capacity: Capacity) -> Vec<Dispatch> {
        let mut g = self.inner.lock().expect("fleet queue lock");
        g.daemons[d].capacity = Some(capacity);
        g.refill(d)
    }

    /// Restarts the clock of daemon `d`'s refills: its claimed units go on
    /// the wire now, and the wait for the other links' handshakes is no
    /// part of a roundtrip.
    pub(crate) fn start_clocks(&self, d: usize) {
        let now = Instant::now();
        let mut g = self.inner.lock().expect("fleet queue lock");
        g.daemons[d].refills.iter_mut().for_each(|refill| refill.sent = now);
    }

    /// Records a result for unit `id` from daemon `d`: frees the window
    /// slot, and (when `fresh`, i.e. the merge had not seen this id yet)
    /// counts the completion — the last fresh completion flips `done` and
    /// wakes every waiting link to half-close. The last answer of a refill
    /// measures the daemon's time per unit. Returns the completed unit's
    /// verb and roundtrip when `d` actually had the unit in flight.
    pub(crate) fn complete(&self, d: usize, id: usize, fresh: bool) -> Option<Completion> {
        let mut g = self.inner.lock().expect("fleet queue lock");
        let daemon = &mut g.daemons[d];
        let timing = daemon.in_flight.remove(&id).map(|(unit, refill)| {
            let refill = &mut daemon.refills[refill];
            let roundtrip = refill.sent.elapsed();
            refill.waiting -= 1;
            if refill.waiting == 0 {
                daemon.per_unit = Some(roundtrip / refill.units);
            }
            Completion { verb: unit.verb, roundtrip }
        });
        daemon.served += 1;
        if fresh {
            g.remaining = g.remaining.saturating_sub(1);
            if g.remaining == 0 {
                g.done = true;
                // Only the end of the run concerns another link: a freed
                // slot is this link's own.
                self.cv.notify_all();
            }
        }
        timing
    }

    /// Declares daemon `d` dead (idempotent): its in-flight units go back
    /// to the front of the queue in id order for one retry; a unit dying
    /// twice — or a death leaving no live daemon — is fatal. Returns the
    /// ids put back, for structured warning events.
    pub(crate) fn mark_dead(&self, d: usize, reason: &str) -> Vec<usize> {
        let mut g = self.inner.lock().expect("fleet queue lock");
        if g.daemons[d].dead || g.done {
            return Vec::new();
        }
        g.daemons[d].dead = true;
        let mut recovered: Vec<Unit> =
            g.daemons[d].in_flight.drain().map(|(_, (u, _))| u).collect();
        recovered.sort_by_key(|u| u.id);
        let mut retries = Vec::new();
        for mut unit in recovered {
            unit.attempts += 1;
            if unit.attempts > 1 {
                g.fatal = Some(format!(
                    "unit {} lost two daemons (second failure: {reason}); giving up",
                    unit.id
                ));
                break;
            }
            unit.enqueued = Instant::now();
            retries.push(unit);
        }
        g.redispatched += retries.len();
        let ids = retries.iter().map(|u| u.id).collect();
        for unit in retries.into_iter().rev() {
            g.pending.push_front(unit);
        }
        if g.daemons.iter().all(|daemon| daemon.dead) && g.fatal.is_none() {
            g.fatal = Some(format!(
                "no live daemons left with {} units incomplete (last failure: {reason})",
                g.remaining
            ));
        }
        self.cv.notify_all();
        ids
    }

    /// Poisons the run with an unrecoverable error (first one wins).
    pub(crate) fn set_fatal(&self, reason: String) {
        let mut g = self.inner.lock().expect("fleet queue lock");
        if g.fatal.is_none() {
            g.fatal = Some(reason);
        }
        self.cv.notify_all();
    }

    /// Whether the run has concluded (all units done, or fatal).
    pub(crate) fn is_finished(&self) -> bool {
        let g = self.inner.lock().expect("fleet queue lock");
        g.done || g.fatal.is_some()
    }

    /// Whether daemon `d` was declared dead.
    pub(crate) fn is_dead(&self, d: usize) -> bool {
        self.inner.lock().expect("fleet queue lock").daemons[d].dead
    }

    /// The first fatal error, if any.
    pub(crate) fn fatal(&self) -> Option<String> {
        self.inner.lock().expect("fleet queue lock").fatal.clone()
    }

    /// In-flight units of dead daemons put back for a retry.
    pub(crate) fn redispatched(&self) -> usize {
        self.inner.lock().expect("fleet queue lock").redispatched
    }

    /// Per-daemon scheduling records.
    pub(crate) fn tallies(&self) -> Vec<Tally> {
        let g = self.inner.lock().expect("fleet queue lock");
        g.daemons
            .iter()
            .map(|daemon| Tally {
                served: daemon.served,
                refills: daemon.refills.len(),
                window: daemon.window,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-worker daemon advertising the serve default of 16 units.
    const ONE: Capacity = Capacity { workers: 1, window: 16 };

    /// A time per unit far below `HOLD / 16`: windows bind on the share or
    /// the advertised capacity, never on time.
    const FAST: Duration = Duration::from_micros(1);

    fn unit(id: usize) -> Unit {
        Unit::new(id, format!("line-{id}"), 0)
    }

    /// A queue of `nunits` units for one-worker daemons that have all
    /// finished their handshakes.
    fn queue(nunits: usize, daemons: usize) -> FleetQueue {
        let q = FleetQueue::new((0..nunits).map(unit).collect(), daemons);
        q.inner.lock().unwrap().daemons.iter_mut().for_each(|d| d.capacity = Some(ONE));
        q
    }

    /// The ids `d` sends next; panics if the queue says read or stop.
    fn send(q: &FleetQueue, d: usize) -> Vec<usize> {
        match q.next(d) {
            Step::Send(units) => units.iter().map(|u| u.id).collect(),
            other => panic!("daemon {d} got {other:?}, not units"),
        }
    }

    /// Sets daemon `d`'s measured time per unit, in place of the one its
    /// last answered refill took in this test's own timing.
    fn measure(q: &FleetQueue, d: usize, per_unit: Duration) {
        q.inner.lock().unwrap().daemons[d].per_unit = Some(per_unit);
    }

    /// Completes every id of `ids` on daemon `d`.
    fn complete_all(q: &FleetQueue, d: usize, ids: &[usize]) {
        for &id in ids {
            q.complete(d, id, true).expect("the unit was in flight");
        }
    }

    #[test]
    fn window_policy_table() {
        let us = Duration::from_micros;
        let two = Capacity { workers: 2, window: 32 };
        // (capacity, per unit, pending, live workers, window, why)
        let cases = [
            (ONE, None, 100, 1, 2, "an unmeasured daemon gets the floor"),
            (two, None, 100, 2, 4, "the floor is per worker"),
            (ONE, Some(HOLD / 2), 100, 1, 2, "H / floor per unit gives the floor"),
            (ONE, Some(Duration::from_millis(30)), 100, 1, 2, "a straggler gets the floor"),
            (ONE, Some(us(100)), 100, 1, 10, "H at 100 µs per unit is 10 units"),
            (ONE, Some(us(10)), 100, 1, 16, "the advertised capacity binds"),
            (ONE, Some(us(10)), 12, 2, 6, "equal daemons split what is not yet sent"),
            (ONE, Some(us(10)), 12, 1, 12, "a death raises the survivor's share"),
            (two, Some(us(10)), 30, 3, 20, "the share is by workers"),
            (ONE, Some(us(10)), 1, 2, 2, "the share never cuts below the floor"),
            (ONE, Some(Duration::ZERO), 100, 1, 16, "a zero measurement is no division by zero"),
        ];
        for (capacity, per_unit, pending, live, want, why) in cases {
            assert_eq!(window(capacity, per_unit, pending, live), want, "{why}");
        }
    }

    #[test]
    fn links_take_ids_in_submission_order() {
        let q = queue(6, 2);
        // Whichever link asks, it gets the oldest pending units.
        assert_eq!(send(&q, 1), vec![0, 1]);
        assert_eq!(send(&q, 0), vec![2, 3]);
        assert!(matches!(q.next(0), Step::Read), "window full");
        complete_all(&q, 0, &[2, 3]);
        assert_eq!(send(&q, 0), vec![4, 5]);
        assert!(matches!(q.next(1), Step::Read), "queue empty, units in flight");
    }

    #[test]
    fn claim_takes_up_to_a_window_without_waiting() {
        let q = FleetQueue::new((0..3).map(unit).collect(), 2);
        let ids: Vec<usize> = q.claim(0, ONE).iter().map(|u| u.id).collect();
        assert_eq!(ids, vec![0, 1], "nothing is measured yet: the floor of 2");
        assert_eq!(q.claim(1, ONE).iter().map(|u| u.id).collect::<Vec<_>>(), vec![2]);
        // Nothing left: a late link claims nothing rather than waiting.
        assert!(q.claim(1, ONE).is_empty());
        assert!(matches!(q.next(0), Step::Read), "claimed units are in flight");
        std::thread::sleep(Duration::from_millis(30));
        q.start_clocks(0);
        let done = q.complete(0, 0, true).expect("unit 0 was in flight");
        assert!(done.roundtrip < Duration::from_millis(30), "{done:?}");
    }

    #[test]
    fn window_blocks_until_completion_then_refills() {
        let q = queue(4, 2);
        assert_eq!(send(&q, 0), vec![0, 1]);
        // Window full: the link must read its results before sending more.
        assert!(matches!(q.next(0), Step::Read));
        std::thread::sleep(Duration::from_millis(30));
        let done = q.complete(0, 0, true).expect("unit 0 was in flight");
        assert_eq!(psdacc_serve::latency::VERBS[done.verb], "evaluate");
        assert!(done.roundtrip >= Duration::from_millis(30));
        assert_eq!(send(&q, 0), vec![2], "one slot of the floor freed");
    }

    /// One fast daemon takes a 36-unit batch in four refills: the floor,
    /// twice its advertised window, and the rest.
    #[test]
    fn a_measured_fast_daemon_refills_up_to_its_advertised_window() {
        let q = FleetQueue::new((0..36).map(unit).collect(), 1);
        let mut sizes = vec![q.claim(0, ONE).len()];
        complete_all(&q, 0, &[0, 1]);
        loop {
            measure(&q, 0, FAST);
            let Step::Send(units) = q.next(0) else { break };
            sizes.push(units.len());
            complete_all(&q, 0, &units.iter().map(|u| u.id).collect::<Vec<_>>());
        }
        assert_eq!(sizes, vec![2, 16, 16, 2]);
        assert_eq!(q.tallies()[0], Tally { served: 36, refills: 4, window: 16 });
    }

    /// The last answer of a refill measures it: write to last result over
    /// its units. Units slower than `HOLD / 2` keep the floor.
    #[test]
    fn the_last_answer_of_a_refill_measures_the_daemon() {
        let q = FleetQueue::new((0..8).map(unit).collect(), 1);
        assert_eq!(q.claim(0, ONE).len(), 2);
        q.start_clocks(0);
        let per_unit = || q.inner.lock().unwrap().daemons[0].per_unit;
        q.complete(0, 0, true);
        assert_eq!(per_unit(), None, "half a refill measures nothing");
        std::thread::sleep(Duration::from_millis(20));
        q.complete(0, 1, true);
        assert!(per_unit().unwrap() >= Duration::from_millis(10), "{:?}", per_unit());
        assert_eq!(send(&q, 0), vec![2, 3], "a slow daemon stays at the floor");
        assert_eq!(q.tallies()[0], Tally { served: 2, refills: 2, window: 2 });
    }

    #[test]
    fn equal_daemons_share_the_queue_and_a_death_raises_the_survivors_share() {
        for (death, want) in [(false, 4), (true, 10)] {
            let q = queue(12, 2);
            assert_eq!(send(&q, 0), vec![0, 1]);
            assert_eq!(send(&q, 1), vec![2, 3]);
            complete_all(&q, 0, &[0, 1]);
            if death {
                q.mark_dead(1, "test kill");
            }
            // 8 units never sent (plus 2 retries after the death), shared
            // by the live workers.
            measure(&q, 0, FAST);
            assert_eq!(send(&q, 0).len(), want, "death: {death}");
        }
    }

    #[test]
    fn idle_link_waits_until_a_death_requeues_units() {
        let q = queue(3, 2);
        assert_eq!(send(&q, 0), vec![0, 1]);
        assert_eq!(send(&q, 1), vec![2]);
        q.complete(1, 2, true);
        // d1 has nothing in flight and nothing to take: it waits, and d0's
        // death hands it d0's in-flight units.
        std::thread::scope(|scope| {
            let idle = scope.spawn(|| send(&q, 1));
            std::thread::sleep(Duration::from_millis(30));
            assert!(!idle.is_finished(), "an idle link must wait, not spin or stop");
            q.mark_dead(0, "test kill");
            assert_eq!(idle.join().unwrap(), vec![0, 1]);
        });
        complete_all(&q, 1, &[0, 1]);
        assert!(matches!(q.next(1), Step::Stop));
    }

    #[test]
    fn completions_flip_done_and_release_everyone() {
        let q = queue(2, 2);
        let a = send(&q, 0);
        assert_eq!(a, vec![0, 1]);
        q.complete(0, 0, true);
        assert!(!q.is_finished());
        q.complete(0, 1, true);
        assert!(q.is_finished());
        assert!(matches!(q.next(1), Step::Stop));
        assert_eq!(q.tallies()[0], Tally { served: 2, refills: 1, window: 2 });
        assert_eq!(q.tallies()[1], Tally::default(), "d1 never refilled");
    }

    #[test]
    fn dead_daemon_redispatches_its_in_flight_units_once() {
        let q = queue(6, 2);
        assert_eq!(send(&q, 0), vec![0, 1]);
        assert_eq!(q.mark_dead(0, "test kill"), vec![0, 1], "in-flight 0 and 1 retried");
        assert!(q.is_dead(0));
        assert_eq!(q.redispatched(), 2);
        // A second death report is empty — the counter never doubles.
        assert!(q.mark_dead(0, "test kill").is_empty());
        assert_eq!(q.redispatched(), 2);
        // d1 now drains everything while dead d0 gets nothing.
        assert!(matches!(q.next(0), Step::Stop));
        let mut got = Vec::new();
        while let Step::Send(units) = q.next(1) {
            let ids: Vec<usize> = units.iter().map(|u| u.id).collect();
            complete_all(&q, 1, &ids);
            got.extend(ids);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "every unit served exactly once");
        assert!(q.is_finished());
        assert!(q.fatal().is_none());
    }

    #[test]
    fn redispatched_units_go_ahead_of_never_sent_units_in_id_order() {
        let q = queue(8, 3);
        // Interleave so d0 holds 0, 1, 4 and 5, and d1 holds 2 and 3.
        assert_eq!(send(&q, 0), vec![0, 1]);
        assert_eq!(send(&q, 1), vec![2, 3]);
        q.complete(0, 1, true);
        q.complete(0, 0, true);
        assert_eq!(send(&q, 0), vec![4, 5]);
        assert_eq!(q.mark_dead(0, "test kill"), vec![4, 5]);
        assert_eq!(send(&q, 2), vec![4, 5], "retries first, in id order");
        q.complete(1, 2, true);
        assert_eq!(send(&q, 1), vec![6], "then the queue");
    }

    #[test]
    fn second_death_of_the_same_unit_is_fatal() {
        let q = queue(2, 2);
        let first = send(&q, 0);
        q.mark_dead(0, "first kill");
        // The units are back at the front of the queue; d1 takes them and
        // dies.
        assert_eq!(send(&q, 1), first);
        q.mark_dead(1, "second kill");
        let fatal = q.fatal().expect("fatal after two deaths");
        assert!(fatal.contains(&format!("unit {}", first[0])), "{fatal}");
        assert!(matches!(q.next(1), Step::Stop));
    }

    #[test]
    fn losing_every_daemon_is_fatal() {
        let q = queue(4, 2);
        q.mark_dead(0, "kill a");
        q.mark_dead(1, "kill b");
        let fatal = q.fatal().expect("no live daemons");
        assert!(fatal.contains("no live daemons"), "{fatal}");
    }
}
