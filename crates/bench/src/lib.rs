//! # psdacc-bench
//!
//! Experiment harness regenerating every table and figure of the paper.
//! Each experiment lives in [`experiments`] and is exposed both as a binary
//! (`cargo run -p psdacc-bench --release --bin exp_table1`) and as a
//! library function (used by `run_all` and by integration tests).
//!
//! Common CLI knobs (`--samples`, `--images`, `--size`, `--npsd`, `--seed`,
//! `--out`, `--full`) are parsed by [`Args`]; defaults are scaled down from
//! the paper's 1e6-1e7 sample counts so the full suite runs in minutes, and
//! `--full` restores paper-scale workloads.
//!
//! Engine-batch experiments (table1, table2, fig4, fig5) additionally take
//! `--daemons HOST:PORT[,...]` to dispatch their batches through the
//! `psdacc-sched` pull-queue coordinator across running `psdacc-serve`
//! daemons instead of the local engine ([`fleet`]), with identical numbers
//! either way.

pub mod compare;
pub mod experiments;
pub mod fleet;
pub mod harness;
pub mod perf;

/// Trace analytics over merged fleet traces (critical path, stage
/// totals, daemon utilization) — re-exported so bench-side tooling and
/// experiments can analyze the traces their fleet runs produce without
/// depending on `psdacc-obs` directly.
pub use psdacc_obs::analyze;

pub use compare::{compare, parse_latest, parse_report, Comparison, ProbeDelta};
pub use harness::{Args, Table};
pub use perf::{
    run_baseline, run_baseline_profiled, BenchMeta, BenchReport, BenchResult, SCHEMA_VERSION,
};
