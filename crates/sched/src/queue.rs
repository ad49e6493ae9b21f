//! The coordinator-side fleet queue: per-daemon unit deques, bounded
//! in-flight windows, cross-daemon stealing, and death re-dispatch —
//! `psdacc-engine`'s worker-pool architecture lifted one level, from
//! threads on one machine to daemons on a fleet.
//!
//! Units are dealt round-robin onto per-daemon deques up front. Each
//! daemon's link takes from its **own** deque (front) while its in-flight
//! window has room; a link whose deque runs dry steals from the **back**
//! of the longest live victim's deque — so a straggler's queued (not yet
//! sent) units drain toward idle daemons, exactly like the engine pool's
//! owner/thief split. A link reads its own results, so a full window
//! tells it to read, not to wait; only a link with nothing in flight and
//! nothing to take waits, until a dead daemon's units re-route or the run
//! ends. A dead daemon's queued units re-route and its in-flight units
//! retry **once** elsewhere.
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
    /// The unit's protocol verb (`evaluate`, `greedy`, ...), carried so
    /// completions feed the coordinator's per-verb latency histograms.
    pub(crate) verb: &'static str,
    /// Dispatch attempts that ended with a dead daemon. A unit whose
    /// second dispatch also dies takes the whole batch down (fatal) —
    /// "retry once elsewhere", not an infinite crash loop.
    pub(crate) attempts: u32,
    /// When the unit last entered a deque (reset on re-route), so a
    /// dispatch can report how long the unit sat queued.
    pub(crate) enqueued: Instant,
}

impl Unit {
    pub(crate) fn new(id: usize, line: String, verb: &'static str) -> Unit {
        Unit { id, line, verb, attempts: 0, enqueued: Instant::now() }
    }
}

/// A unit [`FleetQueue::next`] hands a link to send: the wire line plus
/// the scheduling context the coordinator's trace wants to record.
#[derive(Debug)]
pub(crate) struct Dispatch {
    pub(crate) id: usize,
    pub(crate) line: String,
    /// Whether the unit came off another daemon's deque.
    pub(crate) stolen: bool,
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
    pub(crate) verb: &'static str,
    /// Send-to-result wall time on this daemon's connection.
    pub(crate) roundtrip: Duration,
}

/// The units a death displaced, by id — the coordinator turns these into
/// structured warning events.
#[derive(Debug, Default)]
pub(crate) struct DeathReport {
    /// Queued (never-sent) units re-routed to live daemons.
    pub(crate) rerouted: Vec<usize>,
    /// In-flight units retried once on live daemons.
    pub(crate) redispatched: Vec<usize>,
}

/// Monotonic scheduling counters, reported in the fleet stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Units a daemon pulled from another daemon's deque.
    pub steals: usize,
    /// In-flight units of a dead daemon retried on another daemon.
    pub redispatched: usize,
    /// Queued (never-sent) units of a dead daemon re-routed elsewhere.
    pub rerouted: usize,
}

#[derive(Debug)]
struct Inner {
    /// Per-daemon pending deques (coordinator side, stealable).
    queues: Vec<VecDeque<Unit>>,
    /// Per-daemon sent-but-unanswered units with their send time, by id
    /// (recoverable on death, timeable on completion).
    in_flight: Vec<HashMap<usize, (Unit, Instant)>>,
    /// Per-daemon in-flight cap (advertised workers x window factor).
    window: Vec<usize>,
    /// Daemons declared dead (connection failed mid-batch).
    dead: Vec<bool>,
    /// Per-daemon completed-unit counts.
    served: Vec<usize>,
    /// Units not yet completed anywhere.
    remaining: usize,
    counters: QueueCounters,
    /// First unrecoverable failure; poisons the whole run.
    fatal: Option<String>,
    /// All units complete — links should half-close.
    done: bool,
}

/// The shared queue (see module docs).
#[derive(Debug)]
pub(crate) struct FleetQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl FleetQueue {
    /// Builds the queue with units already dealt round-robin:
    /// `unit i -> daemon i % n`.
    pub(crate) fn new(units: Vec<Unit>, windows: Vec<usize>) -> Self {
        let n = windows.len();
        let mut queues: Vec<VecDeque<Unit>> = (0..n).map(|_| VecDeque::new()).collect();
        let remaining = units.len();
        for (i, unit) in units.into_iter().enumerate() {
            queues[i % n].push_back(unit);
        }
        FleetQueue {
            inner: Mutex::new(Inner {
                queues,
                in_flight: (0..n).map(|_| HashMap::new()).collect(),
                window: windows.iter().map(|&w| w.max(1)).collect(),
                dead: vec![false; n],
                served: vec![0; n],
                remaining,
                counters: QueueCounters::default(),
                fatal: None,
                done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// What daemon `d`'s link does next: send a unit (own deque first,
    /// then a steal from the longest live victim) while its window has
    /// room, read while units are in flight, or stop once the run is over
    /// or `d` is dead. With nothing in flight and nothing to take it
    /// blocks until a death re-routes units or the run ends.
    pub(crate) fn next(&self, d: usize) -> Step {
        let mut g = self.inner.lock().expect("fleet queue lock");
        loop {
            if g.done || g.fatal.is_some() || g.dead[d] {
                return Step::Stop;
            }
            if g.in_flight[d].len() < g.window[d] {
                let unit = match g.queues[d].pop_front() {
                    Some(unit) => Some((unit, false)),
                    None => {
                        // Steal from the back of the longest live victim.
                        let victim = (0..g.queues.len())
                            .filter(|&v| v != d && !g.dead[v] && !g.queues[v].is_empty())
                            .max_by_key(|&v| g.queues[v].len());
                        victim.map(|v| {
                            g.counters.steals += 1;
                            (g.queues[v].pop_back().expect("victim checked non-empty"), true)
                        })
                    }
                };
                if let Some((unit, stolen)) = unit {
                    let handout = Dispatch {
                        id: unit.id,
                        line: unit.line.clone(),
                        stolen,
                        queue_wait: unit.enqueued.elapsed(),
                    };
                    g.in_flight[d].insert(unit.id, (unit, Instant::now()));
                    return Step::Send(handout);
                }
            }
            if !g.in_flight[d].is_empty() {
                return Step::Read;
            }
            g = self.cv.wait(g).expect("fleet queue wait");
        }
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

    /// Declares daemon `d` dead (idempotent): queued units re-route to
    /// live daemons, in-flight units retry once elsewhere; a unit dying
    /// twice — or dying with no live daemon left — is fatal. The report
    /// lists every displaced unit id, for structured warning events.
    pub(crate) fn mark_dead(&self, d: usize, reason: &str) -> DeathReport {
        let mut g = self.inner.lock().expect("fleet queue lock");
        let mut report = DeathReport::default();
        if g.dead[d] || g.done {
            return report;
        }
        g.dead[d] = true;
        let mut orphans: Vec<Unit> = g.queues[d].drain(..).collect();
        g.counters.rerouted += orphans.len();
        report.rerouted = orphans.iter().map(|u| u.id).collect();
        let recovered: Vec<Unit> = {
            let mut units: Vec<Unit> = g.in_flight[d].drain().map(|(_, (u, _))| u).collect();
            units.sort_by_key(|u| u.id); // deterministic re-dispatch order
            units
        };
        for mut unit in recovered {
            unit.attempts += 1;
            if unit.attempts > 1 {
                g.fatal = Some(format!(
                    "unit {} lost two daemons (second failure: {reason}); giving up",
                    unit.id
                ));
                break;
            }
            g.counters.redispatched += 1;
            report.redispatched.push(unit.id);
            orphans.push(unit);
        }
        let live: Vec<usize> = (0..g.queues.len()).filter(|&i| !g.dead[i]).collect();
        if live.is_empty() {
            if g.remaining > 0 && g.fatal.is_none() {
                g.fatal = Some(format!(
                    "no live daemons left with {} units incomplete (last failure: {reason})",
                    g.remaining
                ));
            }
        } else {
            for (i, mut unit) in orphans.into_iter().enumerate() {
                unit.enqueued = Instant::now();
                g.queues[live[i % live.len()]].push_back(unit);
            }
        }
        self.cv.notify_all();
        report
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

    /// Scheduling counters snapshot.
    pub(crate) fn counters(&self) -> QueueCounters {
        self.inner.lock().expect("fleet queue lock").counters
    }

    /// Per-daemon completed-unit counts.
    pub(crate) fn served(&self) -> Vec<usize> {
        self.inner.lock().expect("fleet queue lock").served.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: usize) -> Unit {
        Unit::new(id, format!("line-{id}"), "evaluate")
    }

    fn queue(nunits: usize, windows: &[usize]) -> FleetQueue {
        FleetQueue::new((0..nunits).map(unit).collect(), windows.to_vec())
    }

    /// The unit `d` sends next; panics if the queue says read or stop.
    fn send(q: &FleetQueue, d: usize) -> Dispatch {
        match q.next(d) {
            Step::Send(dispatch) => dispatch,
            other => panic!("daemon {d} got {other:?}, not a unit"),
        }
    }

    #[test]
    fn own_queue_first_then_steal_from_longest() {
        let q = queue(6, &[4, 4]); // deal: d0 = {0,2,4}, d1 = {1,3,5}
        assert_eq!(send(&q, 0).id, 0);
        assert_eq!(send(&q, 0).id, 2);
        let own = send(&q, 0);
        assert_eq!(own.id, 4);
        assert!(!own.stolen);
        // d0's deque is dry: the next unit is stolen from d1's back.
        let stolen = send(&q, 0);
        assert_eq!(stolen.id, 5);
        assert!(stolen.stolen, "a cross-deque pull must be flagged");
        assert_eq!(q.counters().steals, 1);
        // d1 still gets its own front.
        assert_eq!(send(&q, 1).id, 1);
    }

    #[test]
    fn window_blocks_until_completion_then_refills() {
        let q = queue(4, &[1, 1]);
        assert_eq!(send(&q, 0).id, 0);
        // Window full: the link must read its result before sending more.
        assert!(matches!(q.next(0), Step::Read));
        std::thread::sleep(std::time::Duration::from_millis(30));
        let done = q.complete(0, 0, true).expect("unit 0 was in flight");
        assert_eq!(done.verb, "evaluate");
        assert!(done.roundtrip >= std::time::Duration::from_millis(30));
        assert_eq!(send(&q, 0).id, 2);
    }

    #[test]
    fn idle_link_waits_until_a_death_reroutes_units() {
        let q = queue(2, &[2, 2]); // d0 = {0}, d1 = {1}
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
        assert!(matches!(q.next(1), Step::Stop));
    }

    #[test]
    fn completions_flip_done_and_release_everyone() {
        let q = queue(2, &[2, 2]);
        let a = send(&q, 0).id;
        let b = send(&q, 1).id;
        q.complete(0, a, true);
        q.complete(1, b, true);
        assert!(q.is_finished());
        assert!(matches!(q.next(0), Step::Stop));
        assert_eq!(q.served(), vec![1, 1]);
    }

    #[test]
    fn dead_daemon_redispatches_in_flight_and_reroutes_queued() {
        let q = queue(6, &[2, 2]); // d0 = {0,2,4}, d1 = {1,3,5}
        let _ = send(&q, 0); // 0 in flight on d0
        let _ = send(&q, 0); // 2 in flight on d0
        let report = q.mark_dead(0, "test kill");
        assert!(q.is_dead(0));
        assert_eq!(report.redispatched, vec![0, 2], "in-flight 0 and 2 retried");
        assert_eq!(report.rerouted, vec![4], "queued 4 re-routed");
        let c = q.counters();
        assert_eq!(c.redispatched, 2);
        assert_eq!(c.rerouted, 1);
        // A second death report is empty — the counters never double.
        let again = q.mark_dead(0, "test kill");
        assert!(again.rerouted.is_empty() && again.redispatched.is_empty());
        // d1 now drains everything — its own units plus all of d0's —
        // while dead d0 gets nothing.
        assert!(matches!(q.next(0), Step::Stop));
        let mut got = Vec::new();
        for _ in 0..6 {
            let id = send(&q, 1).id;
            q.complete(1, id, true);
            got.push(id);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "every unit served exactly once");
        assert!(q.is_finished());
        assert!(q.fatal().is_none());
    }

    #[test]
    fn second_death_of_the_same_unit_is_fatal() {
        let q = queue(2, &[1, 1]);
        let id0 = send(&q, 0).id;
        q.mark_dead(0, "first kill");
        // id0 was re-dispatched onto d1's queue; pull it there and die.
        loop {
            let id = send(&q, 1).id;
            if id == id0 {
                break;
            }
            q.complete(1, id, true);
        }
        q.mark_dead(1, "second kill");
        let fatal = q.fatal().expect("fatal after two deaths");
        assert!(fatal.contains(&format!("unit {id0}")), "{fatal}");
        assert!(matches!(q.next(1), Step::Stop));
    }

    #[test]
    fn losing_every_daemon_is_fatal() {
        let q = queue(4, &[1, 1]);
        q.mark_dead(0, "kill a");
        q.mark_dead(1, "kill b");
        let fatal = q.fatal().expect("no live daemons");
        assert!(fatal.contains("no live daemons"), "{fatal}");
    }
}
