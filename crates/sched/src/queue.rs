//! The coordinator-side fleet queue: one FIFO of pending units that every
//! daemon link pulls from while its in-flight window has room, plus death
//! re-dispatch — the discipline of the engine's worker pool, with daemons
//! in place of threads.
//!
//! One queue feeding every link balances load by itself: an idle link
//! takes the next unit whatever the cost of the ones still running, so a
//! straggler simply pulls less often. A link reads its own results, so a
//! full window tells it to read, not to wait; only a link with nothing in
//! flight and nothing to take waits, until a dead daemon's units return
//! to the queue or the run ends. A dead daemon's in-flight units go back
//! to the **front** of the queue in id order and retry **once**.
//!
//! Everything lives behind one `Mutex` + `Condvar`. Fleet units are
//! coarse (an evaluation, at worst a preprocessing pass), so the lock is
//! nowhere near contention; the blocking semantics are the point.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// A unit [`FleetQueue::next`] hands a link to send: the wire line plus
/// the scheduling context the coordinator's trace wants to record.
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
    /// Write this unit.
    Send(Dispatch),
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

#[derive(Debug)]
struct Inner {
    /// Units not yet sent, plus dead daemons' units awaiting their retry
    /// at the front.
    pending: VecDeque<Unit>,
    /// Per-daemon sent-but-unanswered units with their send time, by id
    /// (recoverable on death, timeable on completion).
    in_flight: Vec<HashMap<usize, (Unit, Instant)>>,
    /// Daemons declared dead (connection failed mid-batch).
    dead: Vec<bool>,
    /// Per-daemon completed-unit counts.
    served: Vec<usize>,
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
    /// Moves the front unit in flight on daemon `d` while its window has
    /// room.
    fn take(&mut self, d: usize, window: usize) -> Option<Dispatch> {
        if self.in_flight[d].len() >= window {
            return None;
        }
        let unit = self.pending.pop_front()?;
        let handout =
            Dispatch { id: unit.id, line: unit.line.clone(), queue_wait: unit.enqueued.elapsed() };
        self.in_flight[d].insert(unit.id, (unit, Instant::now()));
        Some(handout)
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
                in_flight: (0..daemons).map(|_| HashMap::new()).collect(),
                dead: vec![false; daemons],
                served: vec![0; daemons],
                redispatched: 0,
                fatal: None,
                done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// What daemon `d`'s link does next: send the front unit while fewer
    /// than `window` are in flight on it, read while units are in flight,
    /// or stop once the run is over or `d` is dead. With nothing in flight
    /// and nothing to take it blocks until a death puts units back or the
    /// run ends.
    pub(crate) fn next(&self, d: usize, window: usize) -> Step {
        let mut g = self.inner.lock().expect("fleet queue lock");
        loop {
            if g.done || g.fatal.is_some() || g.dead[d] {
                return Step::Stop;
            }
            if let Some(dispatch) = g.take(d, window) {
                return Step::Send(dispatch);
            }
            if !g.in_flight[d].is_empty() {
                return Step::Read;
            }
            g = self.cv.wait(g).expect("fleet queue wait");
        }
    }

    /// Takes up to a full `window` for daemon `d` without waiting: the
    /// units a link claims as soon as its handshake succeeds, before it may
    /// send them. [`FleetQueue::start_clocks`] marks when they go out.
    pub(crate) fn claim(&self, d: usize, window: usize) -> Vec<Dispatch> {
        let mut g = self.inner.lock().expect("fleet queue lock");
        std::iter::from_fn(|| g.take(d, window)).collect()
    }

    /// Restarts the roundtrip clock of every unit in flight on daemon `d`:
    /// its claimed units go on the wire now, and the wait for the other
    /// links' handshakes is no part of a roundtrip.
    pub(crate) fn start_clocks(&self, d: usize) {
        let now = Instant::now();
        let mut g = self.inner.lock().expect("fleet queue lock");
        g.in_flight[d].values_mut().for_each(|(_, sent)| *sent = now);
    }

    /// Records a result for unit `id` from daemon `d`: frees the window
    /// slot, and (when `fresh`, i.e. the merge had not seen this id yet)
    /// counts the completion — the last fresh completion flips `done` and
    /// wakes every waiting link to half-close. Returns the completed unit's
    /// verb and roundtrip when `d` actually had the unit in flight.
    pub(crate) fn complete(&self, d: usize, id: usize, fresh: bool) -> Option<Completion> {
        let mut g = self.inner.lock().expect("fleet queue lock");
        let timing = g.in_flight[d]
            .remove(&id)
            .map(|(unit, sent)| Completion { verb: unit.verb, roundtrip: sent.elapsed() });
        g.served[d] += 1;
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
        if g.dead[d] || g.done {
            return Vec::new();
        }
        g.dead[d] = true;
        let mut recovered: Vec<Unit> = g.in_flight[d].drain().map(|(_, (u, _))| u).collect();
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
        if g.dead.iter().all(|&dead| dead) && g.fatal.is_none() {
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
        self.inner.lock().expect("fleet queue lock").dead[d]
    }

    /// The first fatal error, if any.
    pub(crate) fn fatal(&self) -> Option<String> {
        self.inner.lock().expect("fleet queue lock").fatal.clone()
    }

    /// In-flight units of dead daemons put back for a retry.
    pub(crate) fn redispatched(&self) -> usize {
        self.inner.lock().expect("fleet queue lock").redispatched
    }

    /// Per-daemon completed-unit counts.
    pub(crate) fn served(&self) -> Vec<usize> {
        self.inner.lock().expect("fleet queue lock").served.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window wide enough that only the tests that mean to fill one do.
    const WINDOW: usize = 8;

    fn unit(id: usize) -> Unit {
        Unit::new(id, format!("line-{id}"), 0)
    }

    fn queue(nunits: usize, daemons: usize) -> FleetQueue {
        FleetQueue::new((0..nunits).map(unit).collect(), daemons)
    }

    /// The unit `d` sends next; panics if the queue says read or stop.
    fn send(q: &FleetQueue, d: usize) -> Dispatch {
        match q.next(d, WINDOW) {
            Step::Send(dispatch) => dispatch,
            other => panic!("daemon {d} got {other:?}, not a unit"),
        }
    }

    #[test]
    fn links_take_ids_in_submission_order() {
        let q = queue(6, 2);
        // Whichever link asks, it gets the oldest pending unit.
        let order: Vec<usize> = [0, 1, 1, 0, 1, 0].iter().map(|&d| send(&q, d).id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert!(matches!(q.next(0, WINDOW), Step::Read), "queue empty, units in flight");
    }

    #[test]
    fn claim_takes_up_to_a_window_without_waiting() {
        let q = queue(3, 2);
        let ids: Vec<usize> = q.claim(0, 2).iter().map(|u| u.id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(q.claim(1, 2).iter().map(|u| u.id).collect::<Vec<_>>(), vec![2]);
        // Nothing left: a late link claims nothing rather than waiting.
        assert!(q.claim(1, 2).is_empty());
        assert!(matches!(q.next(0, 2), Step::Read), "claimed units are in flight");
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.start_clocks(0);
        let done = q.complete(0, 0, true).expect("unit 0 was in flight");
        assert!(done.roundtrip < std::time::Duration::from_millis(30), "{done:?}");
    }

    #[test]
    fn window_blocks_until_completion_then_refills() {
        let q = queue(4, 2);
        assert!(matches!(q.next(0, 1), Step::Send(ref u) if u.id == 0));
        // Window full: the link must read its result before sending more.
        assert!(matches!(q.next(0, 1), Step::Read));
        std::thread::sleep(std::time::Duration::from_millis(30));
        let done = q.complete(0, 0, true).expect("unit 0 was in flight");
        assert_eq!(psdacc_serve::latency::VERBS[done.verb], "evaluate");
        assert!(done.roundtrip >= std::time::Duration::from_millis(30));
        assert!(matches!(q.next(0, 1), Step::Send(ref u) if u.id == 1));
    }

    #[test]
    fn idle_link_waits_until_a_death_requeues_units() {
        let q = queue(2, 2);
        assert_eq!(send(&q, 0).id, 0);
        assert_eq!(send(&q, 1).id, 1);
        q.complete(1, 1, true);
        // d1 has nothing in flight and nothing to take: it waits, and d0's
        // death hands it d0's in-flight unit.
        std::thread::scope(|scope| {
            let idle = scope.spawn(|| send(&q, 1).id);
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!idle.is_finished(), "an idle link must wait, not spin or stop");
            q.mark_dead(0, "test kill");
            assert_eq!(idle.join().unwrap(), 0);
        });
        q.complete(1, 0, true);
        assert!(matches!(q.next(1, WINDOW), Step::Stop));
    }

    #[test]
    fn completions_flip_done_and_release_everyone() {
        let q = queue(2, 2);
        let a = send(&q, 0).id;
        let b = send(&q, 1).id;
        q.complete(0, a, true);
        q.complete(1, b, true);
        assert!(q.is_finished());
        assert!(matches!(q.next(0, WINDOW), Step::Stop));
        assert_eq!(q.served(), vec![1, 1]);
    }

    #[test]
    fn dead_daemon_redispatches_its_in_flight_units_once() {
        let q = queue(6, 2);
        let _ = send(&q, 0); // 0 in flight on d0
        let _ = send(&q, 0); // 1 in flight on d0
        assert_eq!(q.mark_dead(0, "test kill"), vec![0, 1], "in-flight 0 and 1 retried");
        assert!(q.is_dead(0));
        assert_eq!(q.redispatched(), 2);
        // A second death report is empty — the counter never doubles.
        assert!(q.mark_dead(0, "test kill").is_empty());
        assert_eq!(q.redispatched(), 2);
        // d1 now drains everything while dead d0 gets nothing.
        assert!(matches!(q.next(0, WINDOW), Step::Stop));
        let mut got = Vec::new();
        for _ in 0..6 {
            let id = send(&q, 1).id;
            q.complete(1, id, true);
            got.push(id);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "every unit served exactly once");
        assert!(q.is_finished());
        assert!(q.fatal().is_none());
    }

    #[test]
    fn redispatched_units_go_ahead_of_never_sent_units_in_id_order() {
        let q = queue(8, 2);
        // Interleave so d0 holds 0, 2 and 4, and d1 holds 1 and 3.
        for d in [0, 1, 0, 1, 0] {
            send(&q, d);
        }
        assert_eq!(q.mark_dead(0, "test kill"), vec![0, 2, 4]);
        let next: Vec<usize> = (0..4).map(|_| send(&q, 1).id).collect();
        assert_eq!(next, vec![0, 2, 4, 5], "retries first, in id order, then the queue");
    }

    #[test]
    fn second_death_of_the_same_unit_is_fatal() {
        let q = queue(2, 2);
        let id0 = send(&q, 0).id;
        q.mark_dead(0, "first kill");
        // id0 is back at the front of the queue; d1 takes it and dies.
        assert_eq!(send(&q, 1).id, id0);
        q.mark_dead(1, "second kill");
        let fatal = q.fatal().expect("fatal after two deaths");
        assert!(fatal.contains(&format!("unit {id0}")), "{fatal}");
        assert!(matches!(q.next(1, WINDOW), Step::Stop));
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
