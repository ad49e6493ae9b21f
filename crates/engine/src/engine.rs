//! The engine: jobs in, ordered results out, cache and pool accounted.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::cache::{CacheStats, EvaluatorCache, PreprocessCache};
use crate::error::EngineError;
use crate::job::{run_job, JobResult, JobSpec};
use crate::pool::Pool;

/// Parallel batch-evaluation engine with a shared preprocessing cache.
///
/// The cache lives as long as the engine, so successive batches keep
/// amortizing preprocessing — a long-running service evaluates its first
/// batch slowly and everything after at `tau_eval` cost. Any
/// [`PreprocessCache`] implementation can back the engine; the default is
/// the in-memory [`EvaluatorCache`], and `psdacc-store` provides a
/// disk-persistent one that survives process restarts.
///
/// Each engine owns one executor: `threads` workers started with the
/// engine, which exit once it drops and their queue is empty. Batches
/// ([`Engine::run`]) and single tasks ([`Engine::submit`]) share them.
#[derive(Debug)]
pub struct Engine {
    cache: Arc<dyn PreprocessCache>,
    pool: Pool,
}

/// Everything a batch run produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, in job order.
    pub results: Vec<JobResult>,
    /// Cache counters after the batch.
    pub cache: CacheStats,
    /// Workers of the engine that ran the batch.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl BatchReport {
    /// Jobs that failed.
    pub fn failures(&self) -> impl Iterator<Item = &JobResult> {
        self.results.iter().filter(|r| r.error.is_some())
    }

    /// Noise powers of every job, in job order — the error-returning path
    /// for callers that need all powers present (batches mixing job kinds
    /// or containing failures get a [`EngineError::Result`] naming the
    /// first offending job instead of a panic).
    ///
    /// # Errors
    ///
    /// [`EngineError::Result`] for the first job without a power.
    pub fn powers(&self) -> Result<Vec<f64>, EngineError> {
        self.results.iter().map(JobResult::require_power).collect()
    }

    /// Human summary line (the CLI prints this to stderr).
    pub fn summary(&self) -> String {
        let failed = self.failures().count();
        format!(
            "{} jobs on {} workers in {:.3}s | cache: {} keys, {} builds, {} hits | {} failed",
            self.results.len(),
            self.workers,
            self.wall_seconds,
            self.cache.entries,
            self.cache.builds,
            self.cache.hits,
            failed
        )
    }
}

impl Engine {
    /// Engine with `threads` workers and a fresh cache.
    pub fn new(threads: usize) -> Self {
        Self::with_shared_cache(threads, Arc::new(EvaluatorCache::new()))
    }

    /// Engine sharing an existing in-memory cache (e.g. across batches or
    /// with sequential callers that want the same amortization).
    pub fn with_cache(threads: usize, cache: Arc<EvaluatorCache>) -> Self {
        Self::with_shared_cache(threads, cache)
    }

    /// Engine over any [`PreprocessCache`] implementation — the hook that
    /// lets `psdacc-serve` daemons run on a disk-persistent store.
    pub fn with_shared_cache(threads: usize, cache: Arc<dyn PreprocessCache>) -> Self {
        Engine { cache, pool: Pool::new(threads) }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The shared preprocessing cache.
    pub fn cache(&self) -> &Arc<dyn PreprocessCache> {
        &self.cache
    }

    /// Queues `task` on the engine's workers, behind every task and batch
    /// job submitted before it. A task that panics loses only itself.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.pool.submit(task);
    }

    /// Runs a batch to completion and reports results in job order.
    ///
    /// # Panics
    ///
    /// When a job panics — after every other job of the batch has run.
    pub fn run(&self, jobs: Vec<JobSpec>) -> BatchReport {
        self.run_streaming(jobs, |_result| {})
    }

    /// Like [`Engine::run`], invoking `on_result` on the calling thread as
    /// each job completes (completion order — [`JobResult::job`] carries the
    /// batch index), so callers can stream output while the batch is still
    /// executing.
    ///
    /// # Panics
    ///
    /// When a job panics — after every other job of the batch has run.
    pub fn run_streaming(
        &self,
        jobs: Vec<JobSpec>,
        mut on_result: impl FnMut(&JobResult),
    ) -> BatchReport {
        let t0 = Instant::now();
        let njobs = jobs.len();
        let (tx, rx) = mpsc::channel();
        for (idx, spec) in jobs.into_iter().enumerate() {
            let (cache, tx) = (Arc::clone(&self.cache), tx.clone());
            self.submit(move || {
                // The caller stops listening only when it is unwinding.
                let _ = tx.send(run_job(cache.as_ref(), idx, &spec));
            });
        }
        drop(tx);
        // Each task drops its sender when it returns or panics, so this
        // ends once the whole batch has run.
        let mut results: Vec<JobResult> = rx.iter().inspect(|r| on_result(r)).collect();
        let panicked = njobs - results.len();
        assert_eq!(panicked, 0, "{panicked} of {njobs} jobs panicked");
        results.sort_unstable_by_key(|r| r.job);
        BatchReport {
            results,
            cache: self.cache.stats(),
            workers: self.threads(),
            wall_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use crate::scenario::Scenario;
    use psdacc_core::Method;
    use psdacc_fixed::RoundingMode;

    #[test]
    fn batch_over_one_scenario_builds_once() {
        let engine = Engine::new(4);
        let scenario = Scenario::FirCascade { stages: 1, taps: 15, cutoff: 0.25 };
        let jobs: Vec<JobSpec> = (6..18)
            .map(|bits| JobSpec {
                scenario: scenario.clone(),
                npsd: 128,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Estimate { method: Method::PsdMethod, frac_bits: bits },
            })
            .collect();
        let report = engine.run(jobs);
        assert_eq!(report.results.len(), 12);
        assert_eq!(report.cache.builds, 1, "preprocessing amortized");
        assert_eq!(report.failures().count(), 0);
        // Monotone: more bits, less noise. `powers()` is the error-returning
        // accessor — a failed job surfaces as an EngineError, not a panic.
        let powers = report.powers().expect("all jobs succeeded");
        assert!(powers.windows(2).all(|w| w[1] < w[0]), "{powers:?}");
        // Job order preserved.
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.job, i);
            assert_eq!(r.frac_bits, Some(6 + i as i32));
        }
    }

    #[test]
    fn cache_survives_across_batches() {
        let engine = Engine::new(2);
        let scenario = Scenario::FreqFilter;
        let job = JobSpec {
            scenario,
            npsd: 128,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: Method::PsdMethod, frac_bits: 12 },
        };
        let first = engine.run(vec![job.clone()]);
        assert_eq!(first.cache.builds, 1);
        assert!(!first.results[0].cache_hit);
        let second = engine.run(vec![job]);
        assert_eq!(second.cache.builds, 1, "second batch reuses the cache");
        assert!(second.results[0].cache_hit);
    }

    #[test]
    fn streaming_observer_sees_the_full_batch() {
        let engine = Engine::new(4);
        let scenario = Scenario::FirCascade { stages: 1, taps: 15, cutoff: 0.25 };
        let jobs: Vec<JobSpec> = (6..14)
            .map(|bits| JobSpec {
                scenario: scenario.clone(),
                npsd: 128,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Estimate { method: Method::PsdMethod, frac_bits: bits },
            })
            .collect();
        let mut streamed: Vec<(usize, Option<f64>)> = Vec::new();
        let report = engine.run_streaming(jobs, |r| streamed.push((r.job, r.power)));
        assert_eq!(streamed.len(), report.results.len());
        for (job, power) in streamed {
            assert_eq!(report.results[job].power, power, "streamed copy matches final");
        }
    }

    #[test]
    fn powers_surfaces_failures_as_errors_not_panics() {
        let engine = Engine::new(2);
        // One good estimate, one job kind that never yields a power.
        let scenario = Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 };
        let report = engine.run(vec![
            JobSpec {
                scenario: scenario.clone(),
                npsd: 64,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Estimate { method: Method::PsdMethod, frac_bits: 10 },
            },
            JobSpec {
                scenario,
                npsd: 64,
                rounding: RoundingMode::Truncate,
                kind: JobKind::MinUniform { budget: 1e-6, min_bits: 2, max_bits: 24 },
            },
        ]);
        let err = report.powers().unwrap_err();
        assert!(matches!(err, crate::error::EngineError::Result(_)), "{err}");
        assert!(err.to_string().contains("job 1"), "{err}");
        // A failing scenario also lands in the error path, not a panic.
        let bad = engine.run(vec![JobSpec {
            scenario: Scenario::FirBank { index: 9999 },
            npsd: 64,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: Method::PsdMethod, frac_bits: 10 },
        }]);
        assert_eq!(bad.failures().count(), 1);
        assert!(bad.powers().is_err());
    }

    /// Panics on one `npsd`, delegates every other lookup.
    #[derive(Debug)]
    struct PanicsOnNpsd13(EvaluatorCache);

    impl PreprocessCache for PanicsOnNpsd13 {
        fn get_or_build_traced(
            &self,
            scenario: &Scenario,
            npsd: usize,
        ) -> Result<(Arc<psdacc_core::AccuracyEvaluator>, bool), EngineError> {
            assert_ne!(npsd, 13, "deliberate job panic");
            self.0.get_or_build_traced(scenario, npsd)
        }

        fn stats(&self) -> CacheStats {
            self.0.stats()
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller_and_spares_the_engine() {
        let engine = Engine::with_shared_cache(1, Arc::new(PanicsOnNpsd13(EvaluatorCache::new())));
        let job = |npsd| JobSpec {
            scenario: Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 },
            npsd,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: Method::Flat, frac_bits: 10 },
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(vec![job(32), job(13), job(32)])
        }));
        let payload = caught.expect_err("the job's panic reaches the caller");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("1 of 3 jobs panicked"), "{message}");
        // The engine's only worker survived and serves the next batch.
        let report = engine.run(vec![job(32), job(64)]);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.failures().count(), 0);
    }

    #[test]
    fn the_last_owner_may_drop_the_engine_inside_its_own_task() {
        let engine = Arc::new(Engine::new(1));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let last = Arc::clone(&engine);
        engine.submit(move || {
            release_rx.recv().expect("the test releases the task");
            // The final owner: the engine and its pool drop on their own
            // (only) worker.
            drop(last);
            done_tx.send(()).expect("the test waits");
        });
        drop(engine);
        release_tx.send(()).expect("the task waits");
        let done = done_rx.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(done, Ok(()), "dropping the engine inside its own task returned");
    }

    #[test]
    fn summary_mentions_the_load() {
        let engine = Engine::new(2);
        let report = engine.run(vec![JobSpec {
            scenario: Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 },
            npsd: 64,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: Method::Flat, frac_bits: 10 },
        }]);
        let s = report.summary();
        assert!(s.contains("1 jobs"), "{s}");
        assert!(s.contains("0 failed"), "{s}");
    }
}
