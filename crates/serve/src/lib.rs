//! # psdacc-serve
//!
//! The workspace's first cross-process scaling path: a std-only TCP
//! daemon exposing the batch-evaluation engine over a newline-delimited
//! JSON protocol, plus the small client helpers (connect, readiness,
//! control requests) that scripts and the `psdacc-sched` coordinator use.
//!
//! The paper's `tau_pp`/`tau_eval` economics want a **service**, not a
//! one-shot CLI: precision decisions get re-queried continuously (dynamic
//! precision scaling), and every query after the first should cost
//! `tau_eval`. The daemon holds its engine — and, when started with
//! `--store`, a [`psdacc_store::PersistentCache`] — for its whole
//! lifetime, so amortization spans connections *and restarts*:
//!
//! ```text
//! psdacc-serve daemon --addr 127.0.0.1:7341 --store /var/cache/psdacc &
//! psdacc-serve daemon --addr 127.0.0.1:7342 --store /var/cache/psdacc &
//! psdacc-sched submit --daemons 127.0.0.1:7341,127.0.0.1:7342 batch.spec
//! ```
//!
//! Every connection is a unit stream: job lines execute as they arrive
//! and results stream back tagged with their request id. The
//! `psdacc-sched` coordinator drives that stream across a fleet —
//! one pull queue, per-daemon in-flight windows, failure re-dispatch — and
//! merges results into lines identical to a local `psdacc-engine run` of
//! the same spec (timing fields aside). See [`protocol`] for the wire
//! format, [`server`] for connection semantics (including `ServerConfig`
//! limits and chaos fault-injection), [`client`] for the connection
//! helpers, [`latency`] for the per-verb histograms in `stats`.

pub mod client;
pub mod error;
pub mod latency;
pub mod protocol;
pub mod server;

pub use client::{
    connect, connect_with_timeout, request_control, wait_all_ready, wait_ready, CONNECT_TIMEOUT,
};
pub use error::ServeError;
pub use protocol::{
    define_request_line, evaluate_units_line, job_request_line, parse_define_ack, parse_request,
    parse_trace_reply, trace_request_line, Request, TraceContext,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerState, PROTOCOL_REVISION};
