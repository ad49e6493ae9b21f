//! # psdacc-sched
//!
//! Dynamic pull-based coordinator for multi-daemon evaluation fleets —
//! the scheduling layer that turns a set of heterogeneous `psdacc-serve`
//! daemons into one machine.
//!
//! Static sharding (job `i` to daemon `i % n`) is only as fast as its
//! slowest daemon: one cold cache, one loaded box, one slow CPU gates the
//! whole batch. This crate dispatches from **one pull queue** instead —
//! the discipline of `psdacc-engine`'s worker pool, with daemons in place
//! of threads:
//!
//! * a batch spec decomposes into [`psdacc_engine::WorkUnit`]s through the
//!   engine's one shared expansion path, so unit ids *are* submission
//!   order;
//! * the coordinator holds a live `evaluate_units` connection per daemon
//!   and refills each daemon's **bounded in-flight window** from the front
//!   of one FIFO — every burst of results pulls the next units, so a
//!   straggler simply pulls less often. The window is sized by the
//!   daemon's measured time per unit: as many units as it finishes within
//!   a 1 ms hold bound, never below two per advertised worker, never above
//!   its workers' share of the units not yet sent nor the window its
//!   `hello` advertised — one write carries a fast daemon's work for a
//!   millisecond, and a straggler holds no more than the floor;
//! * **one thread per link** does all of a daemon's work — handshake,
//!   dispatch, reading and merging results — so the thread that reads a
//!   result writes the next unit. The caller's thread drives the first
//!   link (one daemon starts no thread, N daemons start N−1), and the
//!   `on_line` callback runs on the link threads, one call at a time;
//! * a **dead** daemon's in-flight units go back to the front of the queue
//!   and retry once elsewhere; a unit losing two daemons (or the last
//!   daemon dying) fails the run loudly;
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
//! See [`queue`] for the dispatch/re-dispatch policy and [`coordinator`]
//! for connection supervision and the merge.

pub mod coordinator;
pub mod error;
pub mod queue;

pub use coordinator::{
    fetch_daemon_trace, fetch_fleet_trace, run_fleet, DaemonReport, FleetConfig, FleetEvent,
    FleetOutcome, FleetStats, ScenarioDefinition, VerbLatency,
};
pub use error::SchedError;
