//! `psdacc-obs` — unified observability for the psdacc stack.
//!
//! Std-only pieces, shared by every layer:
//!
//! * [`metrics`] — a named registry of counters, gauges, and log-bucketed
//!   duration histograms, with canonical JSON and Prometheus-style text
//!   expositions. Replaces the bespoke stats structs that serve, sched,
//!   engine, and store each grew independently.
//! * [`trace`] — structured spans/events as JSONL, with ids that survive
//!   the wire so a fleet run merges daemon-side spans into one
//!   end-to-end trace.
//! * [`profile`] — a hierarchical self-profiler behind a process-global,
//!   first-install-wins sink: scoped frames on a thread-local stack
//!   aggregate into a call tree keyed by frame path, rendered as a
//!   ranked hotspot table or folded stacks for flamegraph tooling. When
//!   nothing is installed a frame costs one atomic load.
//! * [`analyze`] — trace analytics over a merged fleet trace: critical
//!   path, per-stage totals, per-daemon utilization, and greedy-refinement
//!   trajectories, rendered as a JSON line or a human breakdown.
//! * [`report`] — the noise-budget report schema: canonical JSON line and
//!   a ranked human table (top-K + cumulative share) explaining every
//!   accuracy number node by node.
//!
//! The [`json`] module (writer + parser) also lives here — it predates
//! this crate in `psdacc-engine`, which still re-exports it.
//!
//! Observability is **behavior-neutral by construction**: nothing in this
//! crate feeds back into evaluation, so results are bit-identical with
//! tracing/metrics on or off (asserted end-to-end by the fleet tests).

#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod trace;

pub use analyze::{CriticalHop, DaemonUtilization, StageTotal, TraceAnalysis};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, NUM_BUCKETS};
pub use profile::{FrameGuard, ProfileFrame, ProfileSnapshot, Profiler};
pub use report::{BudgetReport, BudgetReportRow};
pub use trace::{
    EventKind, OpenSpan, Severity, SpanId, TraceEvent, TraceStore, TraceStoreStats, Tracer,
    MAX_TS_NS,
};
