//! Engine-vs-sequential parity: batch results must be **bit-identical** to
//! direct `AccuracyEvaluator` calls for every method and scenario — the
//! engine may reorder and parallelize work, never change the numbers.

use psdacc_core::{AccuracyEvaluator, Method, WordLengthPlan};
use psdacc_engine::{Engine, JobKind, JobSpec, Scenario};
use psdacc_fixed::RoundingMode;

const NPSD: usize = 256;

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::FirBank { index: 5 },
        Scenario::IirBank { index: 8 },
        Scenario::FirCascade { stages: 2, taps: 21, cutoff: 0.2 },
        Scenario::FreqFilter,
        Scenario::DwtPipeline { levels: 2 },
        Scenario::RandomSfg { nodes: 14, seed: 9 },
    ]
}

#[test]
fn batch_results_bit_identical_to_sequential_for_all_methods() {
    let methods = [Method::PsdMethod, Method::PsdAgnostic, Method::Flat];
    let bits = [8, 12, 16];
    let mut jobs = Vec::new();
    for scenario in scenarios() {
        for &frac_bits in &bits {
            for &method in &methods {
                jobs.push(JobSpec {
                    scenario: scenario.clone(),
                    npsd: NPSD,
                    rounding: RoundingMode::Truncate,
                    kind: JobKind::Estimate { method, frac_bits },
                });
            }
        }
    }
    let engine = Engine::new(4);
    let report = engine.run(jobs.clone());
    assert_eq!(report.results.len(), jobs.len());
    assert_eq!(report.failures().count(), 0, "no job may fail");

    for (spec, result) in jobs.iter().zip(&report.results) {
        let JobKind::Estimate { method, frac_bits } = spec.kind else {
            unreachable!("only estimate jobs in this batch")
        };
        let sfg = spec.scenario.build().expect("scenario builds");
        let evaluator = AccuracyEvaluator::new(&sfg, NPSD).expect("preprocessing succeeds");
        let plan = WordLengthPlan::uniform(frac_bits, RoundingMode::Truncate);
        let expected = match method {
            Method::PsdMethod => evaluator.estimate_psd(&plan),
            Method::PsdAgnostic => evaluator.estimate_agnostic(&plan).unwrap(),
            Method::Flat => evaluator.estimate_flat(&plan).unwrap(),
            Method::Simulation => unreachable!(),
        };
        assert_eq!(
            result.power,
            Some(expected.power),
            "{} {} d={}: engine and sequential powers must be bit-identical",
            spec.scenario.key(),
            method,
            frac_bits
        );
        assert_eq!(result.mean, Some(expected.mean), "{}", spec.scenario.key());
        assert_eq!(result.variance, Some(expected.variance), "{}", spec.scenario.key());
    }
}

#[test]
fn refinement_jobs_match_sequential_refinement() {
    let scenario = Scenario::FirCascade { stages: 2, taps: 21, cutoff: 0.2 };
    let sfg = scenario.build().unwrap();
    let evaluator = AccuracyEvaluator::new(&sfg, NPSD).unwrap();
    let rounding = RoundingMode::RoundNearest;
    let budget = evaluator.estimate_psd(&WordLengthPlan::uniform(12, rounding)).power * 1.02;

    let engine = Engine::new(4);
    let report = engine.run(vec![
        JobSpec {
            scenario: scenario.clone(),
            npsd: NPSD,
            rounding,
            kind: JobKind::GreedyRefine { budget, start_bits: 12, min_bits: 4 },
        },
        JobSpec {
            scenario: scenario.clone(),
            npsd: NPSD,
            rounding,
            kind: JobKind::MinUniform { budget, min_bits: 2, max_bits: 32 },
        },
    ]);
    assert_eq!(report.failures().count(), 0);

    let greedy = psdacc_core::greedy_refinement(&evaluator, budget, rounding, 12, 4);
    assert_eq!(report.results[0].power, Some(greedy.noise_power));
    assert_eq!(report.results[0].total_bits, Some(greedy.total_bits));
    assert_eq!(report.results[0].evaluations, Some(greedy.evaluations));

    let direct = psdacc_core::minimum_uniform_wordlength(&evaluator, budget, rounding, 2, 32);
    assert_eq!(report.results[1].min_frac_bits, direct);
}

/// The acceptance-criteria demo shape: >= 100 jobs, >= 3 distinct
/// scenarios, >= 4 workers, results identical to sequential evaluation,
/// exactly one preprocessing pass per distinct `(scenario, npsd)` key.
#[test]
fn demo_batch_acceptance() {
    let spec = psdacc_engine::demo_spec(100);
    let jobs = spec.jobs();
    assert!(jobs.len() >= 100);
    let distinct: std::collections::HashSet<(String, usize)> =
        jobs.iter().map(|j| (j.scenario.key(), j.npsd)).collect();
    assert!(distinct.len() >= 3);

    let engine = Engine::new(4);
    let report = engine.run(jobs.clone());
    assert_eq!(report.workers, 4);
    assert_eq!(report.failures().count(), 0);
    assert_eq!(
        report.cache.builds,
        distinct.len(),
        "exactly one preprocessing pass per distinct (scenario, npsd) key"
    );

    // Spot-check parity on every 10th job to keep runtime modest.
    for (spec, result) in jobs.iter().zip(&report.results).step_by(10) {
        let JobKind::Estimate { method, frac_bits } = spec.kind else { continue };
        let sfg = spec.scenario.build().unwrap();
        let evaluator = AccuracyEvaluator::new(&sfg, spec.npsd).unwrap();
        let plan = WordLengthPlan::uniform(frac_bits, spec.rounding);
        let expected = match method {
            Method::PsdMethod => evaluator.estimate_psd(&plan).power,
            Method::PsdAgnostic => evaluator.estimate_agnostic(&plan).unwrap().power,
            Method::Flat => evaluator.estimate_flat(&plan).unwrap().power,
            Method::Simulation => unreachable!(),
        };
        assert_eq!(result.power, Some(expected), "job {}", result.job);
    }
}
