//! Cross-validation of the decimated-DWT scenario families, two
//! independent ways (the acceptance criteria of the multirate subsystem):
//!
//! 1. against `psdacc-wavelet`'s [`AliasExactModel`] — an independently
//!    derived analytical model of the 1-level 9/7 codec. Its Eq. 14 mode
//!    implements the same paper-faithful uncorrelated-branch bookkeeping
//!    as `psdacc_sfg::multirate` (agreement must be tight, bounded only by
//!    that model's same-grid interpolation); its alias-exact mode bounds
//!    the method's one approximation (agreement within the paper's
//!    residual-DWT tolerance);
//! 2. against seeded Monte-Carlo `simulate` jobs on the engine pool — the
//!    bit-true multirate simulator measuring the very graphs the kernels
//!    describe, across a (family, depth, word-length) parameter sweep.

use psdacc_engine::{Engine, EstimateMethod, EvaluatorCache, JobKind, JobSpec, Scenario};
use psdacc_fixed::{NoiseMoments, RoundingMode};
use psdacc_wavelet::AliasExactModel;

fn estimate_power(scenario: Scenario, npsd: usize, rounding: RoundingMode, bits: i32) -> f64 {
    let cache = EvaluatorCache::new();
    let evaluator = cache.get_or_build(&scenario, npsd).expect("builds");
    evaluator.estimate_psd(&psdacc_core::WordLengthPlan::uniform(bits, rounding)).power
}

/// The 1-level decimated codec has exactly the alias model's quantizer set
/// (input, both subband filters, both synthesis filters), so the engine's
/// kernel-based estimate must reproduce the model's Eq. 14 total almost
/// exactly — the small gap is the model's linear interpolation on its
/// shared grid, which the per-rate-region grids avoid.
#[test]
fn one_level_codec_matches_alias_model_eq14_total() {
    let npsd = 256;
    for (rounding, bits) in [
        (RoundingMode::RoundNearest, 10),
        (RoundingMode::Truncate, 10),
        (RoundingMode::Truncate, 6),
    ] {
        let engine_power =
            estimate_power(Scenario::DwtDecimated { levels: 1 }, npsd, rounding, bits);
        let moments = NoiseMoments::continuous(rounding, bits);
        let model = AliasExactModel::new(npsd);
        let eq14 = model.eq14_total(moments).power();
        let gap = (engine_power - eq14).abs() / eq14;
        assert!(
            gap < 0.02,
            "{rounding:?} d={bits}: engine {engine_power} vs eq14 {eq14} (gap {gap})"
        );
        // And within the paper's residual tolerance of the alias-exact
        // total (the one approximation Eq. 14 makes on multirate graphs).
        let exact = model.exact_total(moments).power();
        let exact_gap = (engine_power - exact).abs() / exact;
        assert!(
            exact_gap < 0.15,
            "{rounding:?} d={bits}: engine {engine_power} vs exact {exact} (gap {exact_gap})"
        );
    }
}

/// Sweep both decimated families across depths, word-lengths, *and both
/// rounding modes*: the analytic prediction and a seeded Monte-Carlo
/// `simulate` job (sharing one preprocessing cache on the engine's worker
/// pool) agree within the stated 15% tolerance — the paper's multirate
/// accuracy class, plus Monte-Carlo sampling noise. The Truncate points
/// exercise the mean-path kernels (`dc` and the upsampler image lines)
/// against the bit-true simulator, which the zero-mean RoundNearest
/// points cannot.
#[test]
fn decimated_families_match_monte_carlo_across_sweep() {
    let npsd = 128;
    let scenarios = vec![
        Scenario::DwtDecimated { levels: 1 },
        Scenario::DwtDecimated { levels: 2 },
        Scenario::DwtDecimated { levels: 3 },
        Scenario::DwtPacket { depth: 1 },
        Scenario::DwtPacket { depth: 2 },
    ];
    let points = [
        (RoundingMode::RoundNearest, 8i32),
        (RoundingMode::RoundNearest, 12),
        (RoundingMode::Truncate, 10),
    ];
    let mut jobs = Vec::new();
    for scenario in &scenarios {
        for &(rounding, frac_bits) in &points {
            jobs.push(JobSpec {
                scenario: scenario.clone(),
                npsd,
                rounding,
                kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits },
            });
            jobs.push(JobSpec {
                scenario: scenario.clone(),
                npsd,
                rounding,
                kind: JobKind::Simulate {
                    frac_bits,
                    samples: 60_000,
                    nfft: 128,
                    seed: 0xD3C1,
                    trials: 1,
                },
            });
        }
    }
    let engine = Engine::new(4);
    let report = engine.run(jobs);
    assert_eq!(report.failures().count(), 0, "{:?}", report.failures().next());
    assert_eq!(
        report.cache.builds,
        scenarios.len(),
        "analytic and simulate jobs share one preprocessing per scenario"
    );
    for pair in report.results.chunks(2) {
        let (analytic, simulated) = (&pair[0], &pair[1]);
        assert_eq!(analytic.scenario, simulated.scenario);
        let est = analytic.power.unwrap();
        let meas = simulated.power.unwrap();
        let ed = (est - meas) / meas;
        assert!(
            ed.abs() < 0.15,
            "{} d={:?}: Ed {ed} (est {est}, meas {meas})",
            analytic.scenario,
            analytic.frac_bits
        );
    }
}

/// The multirate word-length loop end to end: greedy refinement and
/// min-uniform search run on kernel-based `tau_eval` exactly like
/// single-rate scenarios.
#[test]
fn refinement_jobs_run_on_multirate_scenarios() {
    let scenario = Scenario::DwtDecimated { levels: 2 };
    let engine = Engine::new(2);
    let probe = JobSpec {
        scenario: scenario.clone(),
        npsd: 64,
        rounding: RoundingMode::RoundNearest,
        kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 12 },
    };
    let budget = engine.run(vec![probe.clone()]).results[0].power.unwrap() * 1.1;
    let report = engine.run(vec![
        JobSpec {
            kind: JobKind::GreedyRefine { budget, start_bits: 12, min_bits: 4 },
            ..probe.clone()
        },
        JobSpec {
            kind: JobKind::MinUniform { budget, min_bits: 2, max_bits: 24 },
            ..probe.clone()
        },
    ]);
    assert_eq!(report.failures().count(), 0);
    assert!(report.results[0].power.unwrap() <= budget);
    assert!(report.results[1].min_frac_bits.unwrap() <= 12);
    // Flat jobs refuse deterministically instead of probing one phase.
    let flat = engine.run(vec![JobSpec {
        kind: JobKind::Estimate { method: EstimateMethod::Flat, frac_bits: 12 },
        ..probe
    }]);
    assert_eq!(flat.failures().count(), 1);
    assert!(
        flat.results[0].error.as_deref().unwrap().contains("multirate"),
        "{:?}",
        flat.results[0].error
    );
}

/// `npsd` not divisible by the rate tree is a described job error, not a
/// panic on a pool worker.
#[test]
fn indivisible_npsd_is_a_job_error() {
    let engine = Engine::new(2);
    let report = engine.run(vec![JobSpec {
        scenario: Scenario::DwtDecimated { levels: 3 },
        npsd: 100, // not divisible by 8
        rounding: RoundingMode::Truncate,
        kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 10 },
    }]);
    assert_eq!(report.failures().count(), 1);
    let err = report.results[0].error.as_deref().unwrap();
    assert!(err.contains("npsd"), "{err}");
}
