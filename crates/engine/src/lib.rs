//! # psdacc-engine
//!
//! Parallel batch-evaluation engine for the `psdacc` workspace — the
//! paper's `tau_pp` / `tau_eval` split, industrialized.
//!
//! The PSD method's pitch (DATE 2016, Section IV) is that graph
//! preprocessing is paid **once** per system and every subsequent
//! word-length configuration costs only a cheap spectral sum. A word-length
//! exploration campaign therefore wants three things this crate provides:
//!
//! * an **open scenario API** ([`scenario`], [`provider`], [`graphspec`])
//!   — named, parameterized generators for every builtin system family
//!   (Table I filter banks, FIR/IIR cascades, the Fig. 2 frequency filter,
//!   CDF 9/7 wavelet pipelines, decimated codecs, seeded random SFGs)
//!   and the measured-signal families, declared in one family table and
//!   parsed by a [`ScenarioRegistry`], plus **runtime-defined**
//!   scenarios: any [`psdacc_sfg::GraphSpec`] is a scenario, inline in
//!   spec files (`scenario graph={...}`) or registered by name
//!   ([`ScenarioRegistry::define_graph`] — the serve `define_scenario`
//!   verb), identified everywhere by the content hash of its canonical
//!   JSON;
//! * an **executor** owned by each [`Engine`], one of two by its
//!   `threads` execution slots ([`Engine::execute`]). A one-thread
//!   engine starts no thread: the threads that hand it work run it
//!   themselves, with no hand-off, taking turns in arrival order. With
//!   more threads, as many workers started once take jobs from one
//!   FIFO, so no call pays a thread spawn and an idle worker takes the
//!   next job — job costs are wildly non-uniform (a cache miss pays a
//!   whole preprocessing pass, a hit pays microseconds). The
//!   `psdacc-serve` daemon hands it each connection's units;
//! * a **shared preprocessing cache** ([`cache`]) keyed by
//!   `(scenario, npsd)` behind `Arc`, guaranteeing exactly one
//!   `AccuracyEvaluator::new` per key no matter how many workers race.
//!
//! Jobs ([`job`]) are single estimates (`psd` / `agnostic` / `flat`) or
//! whole refinement loops ([`psdacc_core::greedy_refinement`],
//! [`psdacc_core::minimum_uniform_wordlength`]) riding the same cache.
//! Batches ([`batch`]) expand compact text specs into job lists; the
//! `psdacc-engine` binary streams results as JSON lines.
//!
//! ```
//! use psdacc_engine::{BatchSpec, Engine};
//!
//! let spec = BatchSpec::parse(
//!     "scenario fir-cascade stages=2 taps=15 cutoff=0.2\n\
//!      scenario iir-cascade stages=1 order=4 cutoff=0.2\n\
//!      batch npsd=128 bits=8..11 methods=psd,flat\n",
//! )?;
//! let engine = Engine::new(4);
//! let report = engine.run(spec.jobs());
//! assert_eq!(report.results.len(), 2 * 4 * 2);
//! assert_eq!(report.cache.builds, 2); // one preprocessing pass per scenario
//! # Ok::<(), psdacc_engine::EngineError>(())
//! ```
//!
//! Specs expand through one shared path: [`BatchSpec::units`] lazily
//! yields [`units::WorkUnit`]s (id-tagged [`JobSpec`]s) in submission
//! order, so the local CLI and the `psdacc-sched` fleet coordinator see
//! the identical ordered job list.

pub mod batch;
pub mod cache;
pub mod engine;
pub mod error;
pub mod graphspec;
pub mod job;
mod pool;
pub mod provider;
pub mod scenario;
pub mod units;

// The JSON machinery moved to `psdacc-obs` (the observability layer needs
// it below the engine); this re-export keeps `psdacc_engine::json` paths
// working unchanged.
pub use psdacc_obs::json;

// Re-exported so the serve/sched CLIs can resolve `"trace":"<hash>"`
// references in measured GraphSpec nodes without depending on
// `psdacc-estim` directly.
pub use psdacc_estim::TraceStore;

pub use batch::{demo_spec, BatchSpec};
pub use cache::{CacheStats, EvaluatorCache, FillSource, PreprocessCache, ScenarioCacheStats};
pub use engine::{BatchReport, Engine};
pub use error::EngineError;
pub use graphspec::{canonical_json, graph_spec_from_str, resolve_trace_refs, GraphScenario};
pub use job::{run_job, run_job_traced, EstimateMethod, JobKind, JobResult, JobSpec, UnitTrace};
pub use pool::Slot;
pub use provider::{FamilyInfo, ParamSpec, ScenarioRegistry};
pub use scenario::Scenario;
pub use units::{Units, WorkUnit};

// The engine shares evaluators across worker threads; if a refactor ever
// makes `AccuracyEvaluator` (or a job/result type) non-thread-safe, fail
// the build here rather than deep inside the pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<psdacc_core::AccuracyEvaluator>();
    assert_send_sync::<EvaluatorCache>();
    assert_send_sync::<JobSpec>();
    assert_send_sync::<JobResult>();
};
