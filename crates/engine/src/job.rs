//! Job specifications and results.
//!
//! A job is one unit of engine work: a single `tau_eval` estimate, or a
//! whole refinement loop riding on the shared preprocessing cache. Results
//! are flat records that serialize to JSON lines (the CLI's stream format).

use std::sync::Arc;
use std::time::Instant;

use psdacc_core::{greedy_refinement_observed, minimum_uniform_wordlength_from};
use psdacc_core::{metrics, AccuracyEvaluator, Method, NoiseBudget, WordLengthPlan};
use psdacc_fixed::RoundingMode;
use psdacc_sim::SimulationPlan;

use psdacc_obs::{BudgetReportRow, Severity, SpanId, Tracer};

use crate::cache::PreprocessCache;
use crate::error::EngineError;
use crate::json::JsonWriter;
use crate::scenario::Scenario;

/// What a job computes.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// One analytical estimate of one uniform word-length plan.
    Estimate {
        /// The analytical method (`Simulation` is not an engine job).
        method: Method,
        /// Uniform fractional bits.
        frac_bits: i32,
    },
    /// Greedy per-node word-length descent under a noise budget.
    GreedyRefine {
        /// Output noise-power budget.
        budget: f64,
        /// Uniform starting word-length.
        start_bits: i32,
        /// Per-node floor.
        min_bits: i32,
    },
    /// Binary search for the smallest feasible uniform word-length.
    MinUniform {
        /// Output noise-power budget.
        budget: f64,
        /// Search floor.
        min_bits: i32,
        /// Search ceiling.
        max_bits: i32,
    },
    /// Noise-budget attribution: one PSD-method evaluation whose total
    /// power is decomposed into a per-node ledger that folds back to it
    /// bit-exactly (`psdacc_core::NoiseBudget`).
    Budget {
        /// Uniform fractional bits.
        frac_bits: i32,
    },
    /// Seeded Monte-Carlo reference measurement (`psdacc-sim`), averaged
    /// over a fixed number of independent trials — the formerly sequential
    /// bottleneck, now an ordinary pool job riding the shared cache.
    Simulate {
        /// Uniform fractional bits.
        frac_bits: i32,
        /// Input samples per trial.
        samples: usize,
        /// Welch PSD resolution of the measured error spectrum.
        nfft: usize,
        /// Base RNG seed; trial `t` runs with `seed + t`.
        seed: u64,
        /// Number of independent trials averaged.
        trials: usize,
    },
}

impl JobKind {
    /// Short label used in result records.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Estimate { method: Method::PsdMethod, .. } => "psd",
            JobKind::Estimate { method: Method::PsdAgnostic, .. } => "agnostic",
            JobKind::Estimate { method: Method::Flat, .. } => "flat",
            JobKind::Estimate { method: Method::Simulation, .. } => "simulation",
            JobKind::GreedyRefine { .. } => "greedy-refine",
            JobKind::MinUniform { .. } => "min-uniform",
            JobKind::Budget { .. } => "budget",
            JobKind::Simulate { .. } => "simulate",
        }
    }
}

/// One fully-specified unit of engine work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The system under evaluation.
    pub scenario: Scenario,
    /// PSD grid size (part of the preprocessing-cache key).
    pub npsd: usize,
    /// Rounding mode of every quantizer in the plan.
    pub rounding: RoundingMode,
    /// The computation.
    pub kind: JobKind,
}

impl JobSpec {
    /// The uniform word-length plan this job evaluates at `frac_bits`,
    /// honoring the scenario's word-length-plan roles (graph-scenario
    /// nodes declared `exact` carry no quantizer; builtin scenarios have
    /// none, so their plans are the plain uniform plan as always).
    pub fn plan(&self, frac_bits: i32) -> WordLengthPlan {
        WordLengthPlan::uniform(frac_bits, self.rounding)
            .with_exact_nodes(self.scenario.exact_nodes())
    }
}

/// Flat result record of one job (JSON-lines friendly).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the job within its batch (results keep batch order).
    pub job: usize,
    /// Canonical scenario key.
    pub scenario: String,
    /// PSD grid size.
    pub npsd: usize,
    /// Job label (`psd`, `agnostic`, `flat`, `greedy-refine`, `min-uniform`,
    /// `budget`, `simulate`).
    pub kind: &'static str,
    /// Uniform fractional bits (estimate jobs).
    pub frac_bits: Option<i32>,
    /// Estimated output noise power.
    pub power: Option<f64>,
    /// Estimated output noise mean.
    pub mean: Option<f64>,
    /// Estimated output noise variance.
    pub variance: Option<f64>,
    /// SQNR in dB against a unit-power white input carried to the output.
    pub sqnr_db: Option<f64>,
    /// Preprocessing seconds paid for this scenario (amortized when cached).
    pub tau_pp_seconds: Option<f64>,
    /// Seconds spent in this job's evaluation stage.
    pub tau_eval_seconds: f64,
    /// Whether the evaluator came from an already-initialized cache slot.
    pub cache_hit: bool,
    /// Refinement: total fractional bits of the refined plan.
    pub total_bits: Option<i64>,
    /// Refinement: `tau_eval` calls spent.
    pub evaluations: Option<usize>,
    /// Min-uniform: the smallest feasible `d` (absent when infeasible).
    pub min_frac_bits: Option<i32>,
    /// Simulate: number of Monte-Carlo trials averaged.
    pub trials: Option<usize>,
    /// Budget: the per-node attribution rows as a canonical JSON array
    /// (the `psdacc-obs` budget-report row schema), already serialized so
    /// the record stays a flat string-friendly struct.
    pub budget: Option<String>,
    /// Failure description when the job errored.
    pub error: Option<String>,
}

impl JobResult {
    /// The result of a job that failed with `error` before measuring
    /// anything.
    pub fn failed(job: usize, spec: &JobSpec, error: String) -> Self {
        JobResult { error: Some(error), ..Self::empty(job, spec) }
    }

    fn empty(job: usize, spec: &JobSpec) -> Self {
        JobResult {
            job,
            scenario: spec.scenario.key(),
            npsd: spec.npsd,
            kind: spec.kind.label(),
            frac_bits: None,
            power: None,
            mean: None,
            variance: None,
            sqnr_db: None,
            tau_pp_seconds: None,
            tau_eval_seconds: 0.0,
            cache_hit: false,
            total_bits: None,
            evaluations: None,
            min_frac_bits: None,
            trials: None,
            budget: None,
            error: None,
        }
    }

    /// The job's noise power, or a descriptive [`EngineError::Result`] —
    /// the non-panicking accessor for batch post-processing (a failed job,
    /// or a kind like `min-uniform` that reports no power, must not crash
    /// the whole batch).
    ///
    /// # Errors
    ///
    /// [`EngineError::Result`] naming the job and why the power is absent.
    pub fn require_power(&self) -> Result<f64, EngineError> {
        match (self.power, &self.error) {
            (Some(p), _) => Ok(p),
            (None, Some(e)) => Err(EngineError::Result(format!(
                "job {} ({} on {}) failed: {e}",
                self.job, self.kind, self.scenario
            ))),
            (None, None) => Err(EngineError::Result(format!(
                "job {} ({} on {}) reports no power",
                self.job, self.kind, self.scenario
            ))),
        }
    }

    /// Serializes the record as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_usize("job", self.job);
        w.field_str("scenario", &self.scenario);
        w.field_usize("npsd", self.npsd);
        w.field_str("kind", self.kind);
        if let Some(v) = self.frac_bits {
            w.field_i64("frac_bits", v as i64);
        }
        if let Some(v) = self.power {
            w.field_f64("power", v);
        }
        if let Some(v) = self.mean {
            w.field_f64("mean", v);
        }
        if let Some(v) = self.variance {
            w.field_f64("variance", v);
        }
        if let Some(v) = self.sqnr_db {
            w.field_f64("sqnr_db", v);
        }
        if let Some(v) = self.tau_pp_seconds {
            w.field_f64("tau_pp_seconds", v);
        }
        w.field_f64("tau_eval_seconds", self.tau_eval_seconds);
        w.field_bool("cache_hit", self.cache_hit);
        if let Some(v) = self.total_bits {
            w.field_i64("total_bits", v);
        }
        if let Some(v) = self.evaluations {
            w.field_usize("evaluations", v);
        }
        if let Some(v) = self.min_frac_bits {
            w.field_i64("min_frac_bits", v as i64);
        }
        if let Some(v) = self.trials {
            w.field_usize("trials", v);
        }
        if let Some(rows) = &self.budget {
            w.field_raw("budget", rows);
        }
        if let Some(e) = &self.error {
            w.field_str("error", e);
        }
        w.finish()
    }
}

/// Trace context for one job: where its spans hang in a larger trace.
#[derive(Debug, Clone, Copy)]
pub struct UnitTrace<'a> {
    /// The collecting tracer.
    pub tracer: &'a Tracer,
    /// Parent span for this job's spans (e.g. the daemon's per-unit span).
    pub parent: Option<SpanId>,
    /// Unit id stamped on every span, for cross-process correlation.
    pub unit: Option<u64>,
}

/// Executes one job against the shared cache. Never panics on job-level
/// failures — they land in [`JobResult::error`].
pub fn run_job(cache: &dyn PreprocessCache, job_index: usize, spec: &JobSpec) -> JobResult {
    run_job_traced(cache, job_index, spec, None)
}

/// [`run_job`] with per-stage tracing: a `unit.cache_lookup` span (with
/// the hit flag), a `unit.preprocess` span on misses — reconstructed from
/// the evaluator's recorded `tau_pp` rather than re-measured, so it is
/// the historical build cost when the miss was served by a disk load —
/// and a `unit.tau_eval` span around the job body. Tracing is
/// observational only: the computation is byte-for-byte `run_job`.
pub fn run_job_traced(
    cache: &dyn PreprocessCache,
    job_index: usize,
    spec: &JobSpec,
    trace: Option<&UnitTrace<'_>>,
) -> JobResult {
    let _frame = psdacc_obs::profile::frame_with(|| format!("job[{}]", spec.kind.label()));
    let mut out = JobResult::empty(job_index, spec);
    let lookup = trace.and_then(|t| t.tracer.start("unit.cache_lookup", t.parent, t.unit));
    let (evaluator, hit) = match cache.get_or_build_traced(&spec.scenario, spec.npsd) {
        Ok(pair) => pair,
        Err(e) => {
            out.error = Some(e.to_string());
            if let Some(t) = trace {
                t.tracer.end_with(lookup, vec![("error".to_string(), "true".to_string())]);
            }
            return out;
        }
    };
    out.cache_hit = hit;
    out.tau_pp_seconds = Some(evaluator.preprocess_seconds());
    if let Some(t) = trace {
        let lookup_id = lookup.as_ref().map(|s| s.id);
        t.tracer.end_with(lookup, vec![("cache_hit".to_string(), hit.to_string())]);
        if !hit {
            let dur_ns = (evaluator.preprocess_seconds().max(0.0) * 1e9) as u64;
            let start_ns = t.tracer.now_ns().saturating_sub(dur_ns);
            t.tracer.span_at(
                "unit.preprocess",
                lookup_id,
                t.unit,
                start_ns,
                dur_ns,
                vec![("recorded".to_string(), "true".to_string())],
            );
        }
    }
    let eval = trace.and_then(|t| t.tracer.start("unit.tau_eval", t.parent, t.unit));
    execute_kind(&mut out, &evaluator, spec, trace);
    if let Some(t) = trace {
        t.tracer.end_with(eval, vec![("kind".to_string(), out.kind.to_string())]);
    }
    out
}

/// The job body shared by the traced and untraced paths: runs `spec.kind`
/// against the resolved evaluator, filling `out`. The trace context is
/// used for *events only* (per-step refinement provenance); span
/// structure stays in [`run_job_traced`], and the computation is
/// byte-for-byte identical with tracing on or off.
fn execute_kind(
    out: &mut JobResult,
    evaluator: &Arc<AccuracyEvaluator>,
    spec: &JobSpec,
    trace: Option<&UnitTrace<'_>>,
) {
    match spec.kind {
        JobKind::Estimate { method, frac_bits } => {
            out.frac_bits = Some(frac_bits);
            let plan = spec.plan(frac_bits);
            let estimate = match method {
                Method::PsdMethod => Ok(evaluator.estimate_psd(&plan)),
                Method::PsdAgnostic => {
                    evaluator.estimate_agnostic(&plan).map_err(EngineError::from)
                }
                Method::Flat => evaluator.estimate_flat(&plan).map_err(EngineError::from),
                Method::Simulation => Err(EngineError::Spec(
                    "simulation is not an engine job; use psdacc-sim directly".to_string(),
                )),
            };
            match estimate {
                Ok(est) => {
                    out.tau_eval_seconds = est.elapsed.as_secs_f64();
                    out.power = Some(est.power);
                    out.mean = Some(est.mean);
                    out.variance = Some(est.variance);
                    out.sqnr_db = Some(metrics::sqnr_db(signal_power(evaluator), est.power));
                }
                Err(e) => out.error = Some(e.to_string()),
            }
        }
        JobKind::GreedyRefine { budget, start_bits, min_bits } => {
            let t0 = Instant::now();
            // The template plan carries the scenario's exact-node roles, so
            // refinement and the estimate jobs of the same scenario agree
            // on which nodes are noise sources. Each committed descent step
            // becomes a `refine.step` trace event, so a campaign's whole
            // trajectory is reconstructable from the merged trace.
            let result = greedy_refinement_observed(
                evaluator,
                budget,
                &spec.plan(start_bits),
                start_bits,
                min_bits,
                &mut |step| {
                    if let Some(t) = trace {
                        t.tracer.event(
                            "refine.step",
                            Severity::Info,
                            t.parent,
                            t.unit,
                            vec![
                                ("step".to_string(), step.step.to_string()),
                                ("node".to_string(), step.node.0.to_string()),
                                ("bits_before".to_string(), step.bits_before.to_string()),
                                ("bits_after".to_string(), step.bits_after.to_string()),
                                (
                                    "predicted_delta".to_string(),
                                    format!("{:e}", step.power_after - step.power_before),
                                ),
                                ("power".to_string(), format!("{:e}", step.power_after)),
                            ],
                        );
                    }
                },
            );
            out.tau_eval_seconds = t0.elapsed().as_secs_f64();
            out.power = Some(result.noise_power);
            out.total_bits = Some(result.total_bits);
            out.evaluations = Some(result.evaluations);
        }
        JobKind::Budget { frac_bits } => {
            out.frac_bits = Some(frac_bits);
            let plan = spec.plan(frac_bits);
            let t0 = Instant::now();
            let budget = evaluator.evaluate_budget(&plan);
            out.tau_eval_seconds = t0.elapsed().as_secs_f64();
            out.power = Some(budget.power);
            out.mean = Some(budget.mean);
            out.variance = Some(budget.variance);
            out.sqnr_db = Some(metrics::sqnr_db(signal_power(evaluator), budget.power));
            out.budget = Some(budget_rows_json(&budget));
        }
        JobKind::MinUniform { budget, min_bits, max_bits } => {
            let t0 = Instant::now();
            let d = minimum_uniform_wordlength_from(
                evaluator,
                budget,
                &spec.plan(min_bits),
                min_bits,
                max_bits,
            );
            out.tau_eval_seconds = t0.elapsed().as_secs_f64();
            match d {
                Some(d) => out.min_frac_bits = Some(d),
                None => out.error = Some("budget infeasible within max_bits".to_string()),
            }
        }
        JobKind::Simulate { frac_bits, samples, nfft, seed, trials } => {
            out.frac_bits = Some(frac_bits);
            out.trials = Some(trials);
            if trials == 0 {
                out.error = Some("simulate needs at least one trial".to_string());
                return;
            }
            let plan = spec.plan(frac_bits);
            let t0 = Instant::now();
            // Fixed trial count with per-trial derived seeds: deterministic
            // regardless of which worker (or machine) runs the job.
            let mut power = 0.0;
            let mut mean = 0.0;
            let mut variance = 0.0;
            let mut failed = None;
            for trial in 0..trials {
                let sim = SimulationPlan {
                    samples,
                    nfft,
                    seed: seed.wrapping_add(trial as u64),
                    ..SimulationPlan::default()
                };
                match evaluator.simulate(&plan, &sim) {
                    Ok(est) => {
                        power += est.power;
                        mean += est.mean;
                        variance += est.variance;
                    }
                    Err(e) => {
                        failed = Some(e.to_string());
                        break;
                    }
                }
            }
            out.tau_eval_seconds = t0.elapsed().as_secs_f64();
            match failed {
                Some(e) => out.error = Some(e),
                None => {
                    let n = trials as f64;
                    out.power = Some(power / n);
                    out.mean = Some(mean / n);
                    out.variance = Some(variance / n);
                    out.sqnr_db = Some(metrics::sqnr_db(signal_power(evaluator), power / n));
                }
            }
        }
    }
}

/// Serializes a core noise budget's ledger as the canonical JSON rows
/// array of the `psdacc-obs` budget-report schema — via the obs row type,
/// so the engine result line and the standalone report render the rows
/// byte-identically.
fn budget_rows_json(budget: &NoiseBudget) -> String {
    let rows: Vec<String> = budget
        .rows
        .iter()
        .map(|r| {
            BudgetReportRow {
                node: r.node.0 as u64,
                block: r.block.to_string(),
                role: r.role.as_str().to_string(),
                frac_bits: r.frac_bits.map(i64::from),
                variance_term: r.variance_term,
                mean_term: r.mean_term,
                contribution: r.contribution,
                share: r.share,
            }
            .to_json()
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Output-referred power of a unit-power white input — the signal side of
/// the reported SQNR. `Preprocessed::energy` covers both the single-rate
/// and the multirate (folded/imaged) path gain.
fn signal_power(evaluator: &Arc<AccuracyEvaluator>) -> f64 {
    evaluator.sfg().inputs().iter().map(|&input| evaluator.preprocessed().energy(input)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EvaluatorCache;

    fn spec(kind: JobKind) -> JobSpec {
        JobSpec {
            scenario: Scenario::FirCascade { stages: 1, taps: 15, cutoff: 0.2 },
            npsd: 128,
            rounding: RoundingMode::Truncate,
            kind,
        }
    }

    #[test]
    fn estimate_job_matches_direct_evaluator_call() {
        let cache = EvaluatorCache::new();
        let s = spec(JobKind::Estimate { method: Method::PsdMethod, frac_bits: 12 });
        let result = run_job(&cache, 0, &s);
        assert!(result.error.is_none(), "{:?}", result.error);
        let sfg = s.scenario.build().unwrap();
        let eval = AccuracyEvaluator::new(&sfg, 128).unwrap();
        let direct = eval.estimate_psd(&WordLengthPlan::uniform(12, RoundingMode::Truncate));
        assert_eq!(result.power, Some(direct.power), "bit-identical to sequential");
        assert!(result.sqnr_db.unwrap() > 0.0);
    }

    #[test]
    fn refine_jobs_run() {
        let cache = EvaluatorCache::new();
        let probe = run_job(
            &cache,
            0,
            &spec(JobKind::Estimate { method: Method::PsdMethod, frac_bits: 12 }),
        );
        let budget = probe.power.unwrap() * 1.05;
        let greedy = run_job(
            &cache,
            1,
            &spec(JobKind::GreedyRefine { budget, start_bits: 12, min_bits: 4 }),
        );
        assert!(greedy.error.is_none());
        assert!(greedy.power.unwrap() <= budget);
        assert!(greedy.evaluations.unwrap() >= 1);
        let mu =
            run_job(&cache, 2, &spec(JobKind::MinUniform { budget, min_bits: 2, max_bits: 24 }));
        assert!(mu.min_frac_bits.unwrap() <= 12);
        // All three jobs shared one preprocessing pass.
        assert_eq!(cache.stats().builds, 1);
    }

    #[test]
    fn infeasible_min_uniform_reports_error() {
        let cache = EvaluatorCache::new();
        let r = run_job(
            &cache,
            0,
            &spec(JobKind::MinUniform { budget: 1e-300, min_bits: 2, max_bits: 8 }),
        );
        assert!(r.error.is_some());
        assert!(r.min_frac_bits.is_none());
    }

    #[test]
    fn json_lines_are_well_formed() {
        let cache = EvaluatorCache::new();
        let r =
            run_job(&cache, 3, &spec(JobKind::Estimate { method: Method::Flat, frac_bits: 10 }));
        let line = r.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"job\":3"));
        assert!(line.contains("\"kind\":\"flat\""));
        assert!(line.contains("\"cache_hit\":false"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn simulate_job_matches_direct_evaluator_call() {
        let cache = EvaluatorCache::new();
        let kind =
            JobKind::Simulate { frac_bits: 10, samples: 20_000, nfft: 64, seed: 77, trials: 2 };
        let r = run_job(&cache, 0, &spec(kind));
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.kind, "simulate");
        assert_eq!(r.trials, Some(2));

        // Reproduce sequentially with the same derived seeds.
        let s = spec(JobKind::Estimate { method: Method::PsdMethod, frac_bits: 10 });
        let sfg = s.scenario.build().unwrap();
        let eval = AccuracyEvaluator::new(&sfg, 128).unwrap();
        let plan = WordLengthPlan::uniform(10, RoundingMode::Truncate);
        let mut power = 0.0;
        for trial in 0..2u64 {
            let sim = SimulationPlan {
                samples: 20_000,
                nfft: 64,
                seed: 77 + trial,
                ..SimulationPlan::default()
            };
            power += eval.simulate(&plan, &sim).unwrap().power;
        }
        assert_eq!(r.power, Some(power / 2.0), "bit-identical to sequential simulation");

        // The measured power agrees with the analytic PSD estimate within
        // Monte-Carlo tolerance (the paper's Ed is small for FIR chains).
        let analytic = eval.estimate_psd(&plan).power;
        let ratio = r.power.unwrap() / analytic;
        assert!((0.5..2.0).contains(&ratio), "sim/psd ratio {ratio}");
    }

    #[test]
    fn zero_trial_simulate_is_an_error_not_a_zero() {
        let cache = EvaluatorCache::new();
        let r = run_job(
            &cache,
            0,
            &spec(JobKind::Simulate { frac_bits: 10, samples: 1000, nfft: 32, seed: 1, trials: 0 }),
        );
        assert!(r.error.is_some());
        assert!(r.power.is_none());
        assert!(r.require_power().is_err());
    }

    #[test]
    fn budget_job_matches_estimate_and_ledger_folds_to_power() {
        let cache = EvaluatorCache::new();
        let est = run_job(
            &cache,
            0,
            &spec(JobKind::Estimate { method: Method::PsdMethod, frac_bits: 10 }),
        );
        let bud = run_job(&cache, 1, &spec(JobKind::Budget { frac_bits: 10 }));
        assert!(bud.error.is_none(), "{:?}", bud.error);
        assert_eq!(bud.kind, "budget");
        // The budget job reports the evaluate-path numbers bit-exactly.
        assert_eq!(bud.power, est.power);
        assert_eq!(bud.mean, est.mean);
        assert_eq!(bud.variance, est.variance);
        assert_eq!(bud.sqnr_db, est.sqnr_db);
        // The result line parses into the obs report schema, and the rows
        // ledger folds back to the reported power bit-exactly.
        let report = psdacc_obs::BudgetReport::from_result_line(&bud.to_json_line()).unwrap();
        assert!(!report.rows.is_empty());
        let folded = report.rows.iter().fold(0.0, |acc, r| acc + r.contribution);
        assert_eq!(folded.to_bits(), report.power.to_bits(), "ledger folds to power");
        assert_eq!(report.power.to_bits(), est.power.unwrap().to_bits());
    }

    #[test]
    fn traced_refine_emits_steps_without_perturbing_the_result() {
        let cache = EvaluatorCache::new();
        let probe = run_job(
            &cache,
            0,
            &spec(JobKind::Estimate { method: Method::PsdMethod, frac_bits: 12 }),
        );
        let budget = probe.power.unwrap() * 4.0;
        let kind = JobKind::GreedyRefine { budget, start_bits: 12, min_bits: 4 };
        let silent = run_job(&cache, 1, &spec(kind.clone()));
        let tracer = Tracer::new("refine-prov");
        let trace = UnitTrace { tracer: &tracer, parent: None, unit: Some(7) };
        let traced = run_job_traced(&cache, 1, &spec(kind), Some(&trace));
        // Behavior-neutral: everything but the wall-clock timing matches.
        assert_eq!(silent.power, traced.power, "tracing is behavior-neutral");
        assert_eq!(silent.total_bits, traced.total_bits);
        assert_eq!(silent.evaluations, traced.evaluations);
        let steps: Vec<_> =
            tracer.snapshot().into_iter().filter(|e| e.name == "refine.step").collect();
        assert!(!steps.is_empty(), "budget above start power must admit descent steps");
        for (i, e) in steps.iter().enumerate() {
            let field = |k: &str| {
                e.fields.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone()).unwrap()
            };
            assert_eq!(field("step"), i.to_string(), "steps are dense and ordered");
            assert_eq!(
                field("bits_before").parse::<i32>().unwrap() - 1,
                field("bits_after").parse::<i32>().unwrap()
            );
            assert!(field("power").parse::<f64>().unwrap() <= budget);
            assert_eq!(e.unit, Some(7), "events carry the unit id");
        }
        // The last committed step lands exactly on the reported power.
        let last = steps.last().unwrap();
        let power = last.fields.iter().find(|(k, _)| k == "power").unwrap().1.clone();
        assert_eq!(power.parse::<f64>().unwrap().to_bits(), silent.power.unwrap().to_bits());
    }

    #[test]
    fn require_power_reports_absence_with_context() {
        let cache = EvaluatorCache::new();
        let ok =
            run_job(&cache, 0, &spec(JobKind::Estimate { method: Method::Flat, frac_bits: 9 }));
        assert_eq!(ok.require_power().unwrap(), ok.power.unwrap());
        let mu = run_job(
            &cache,
            4,
            &spec(JobKind::MinUniform { budget: 1e-3, min_bits: 2, max_bits: 24 }),
        );
        let err = mu.require_power().unwrap_err().to_string();
        assert!(err.contains("job 4") && err.contains("min-uniform"), "{err}");
    }
}
