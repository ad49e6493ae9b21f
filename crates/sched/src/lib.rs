//! # psdacc-sched
//!
//! Dynamic work-stealing coordinator for multi-daemon evaluation fleets —
//! the scheduling layer that turns a set of heterogeneous `psdacc-serve`
//! daemons into one machine.
//!
//! Static sharding (job `i` to daemon `i % n`) is only as fast as its
//! slowest daemon: one cold cache, one loaded box, one slow CPU gates the
//! whole batch. This crate dispatches with **pull-based work stealing**
//! at fleet scale instead:
//!
//! * a batch spec decomposes into [`psdacc_engine::WorkUnit`]s through the
//!   engine's one shared expansion path, so unit ids *are* submission
//!   order;
//! * the coordinator holds a live `evaluate_units` connection per daemon
//!   and keeps each daemon's **bounded in-flight window** (advertised
//!   worker count x a factor) full — every completion pulls the next unit;
//! * **one thread per link** does all of a daemon's work — handshake,
//!   dispatch, reading and merging results — so the thread that reads a
//!   result writes the next unit. The caller's thread drives the first
//!   link (one daemon starts no thread, N daemons start N−1), and the
//!   `on_line` callback runs on the link threads, one call at a time;
//! * a straggler's **queued** (not yet sent) units are stolen by idle
//!   daemons from the back of its deque, mirroring `psdacc-engine`'s
//!   thread pool one level up;
//! * a **dead** daemon's queued units re-route and its in-flight units
//!   retry once elsewhere; a unit losing two daemons (or the last daemon
//!   dying) fails the run loudly;
//! * results merge back in submission order, so fleet output is
//!   **bit-identical** to a single-process `psdacc-engine run` on every
//!   stable field — regardless of which daemon served which unit.
//!
//! ```text
//! psdacc-serve daemon --addr 127.0.0.1:7341 --store /var/cache/psdacc &
//! psdacc-serve daemon --addr 127.0.0.1:7342 --store /var/cache/psdacc &
//! psdacc-sched submit --daemons 127.0.0.1:7341,127.0.0.1:7342 batch.spec
//! ```
//!
//! See [`queue`] for the stealing/re-dispatch policy and [`coordinator`]
//! for connection supervision and the merge.

pub mod coordinator;
pub mod error;
pub mod queue;

pub use coordinator::{
    fetch_daemon_trace, fetch_fleet_trace, run_fleet, DaemonReport, FleetConfig, FleetEvent,
    FleetOutcome, FleetStats, ScenarioDefinition, VerbLatency,
};
pub use error::SchedError;
pub use queue::QueueCounters;
