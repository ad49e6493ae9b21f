//! The shared-cache guarantee under contention: preprocessing runs exactly
//! once per `(scenario, npsd)` key no matter how many threads demand the
//! same evaluator at the same instant.

use std::sync::Arc;

use psdacc_engine::{Engine, EstimateMethod, EvaluatorCache, JobKind, JobSpec, Scenario};
use psdacc_fixed::RoundingMode;

#[test]
fn preprocessing_runs_once_per_key_under_concurrency() {
    let cache = Arc::new(EvaluatorCache::new());
    let scenarios = [
        Scenario::FirCascade { stages: 2, taps: 21, cutoff: 0.2 },
        Scenario::IirCascade { stages: 1, order: 4, cutoff: 0.15 },
        Scenario::DwtPipeline { levels: 2 },
    ];
    let npsds = [128usize, 256];
    // 8 threads all hammer every (scenario, npsd) key simultaneously.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let scenarios = &scenarios;
            scope.spawn(move || {
                for _ in 0..5 {
                    for scenario in scenarios {
                        for &npsd in &npsds {
                            let evaluator = cache.get_or_build(scenario, npsd).expect("builds");
                            assert_eq!(evaluator.npsd(), npsd);
                        }
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.entries, scenarios.len() * npsds.len());
    assert_eq!(
        stats.builds,
        scenarios.len() * npsds.len(),
        "every key preprocessed exactly once across 8 threads x 5 rounds"
    );
    // 8 threads x 5 rounds x 6 keys = 240 lookups. A lookup that arrives
    // while the key's single build is still in flight blocks without
    // counting as a hit, so per key at most all 8 threads' first lookups
    // miss; everything else must be a hit.
    assert!(stats.hits >= 240 - 8 * stats.builds, "hits: {}", stats.hits);
}

#[test]
fn engine_batch_hammering_one_key_still_builds_once() {
    let scenario = Scenario::FirBank { index: 12 };
    let jobs: Vec<JobSpec> = (0..64)
        .map(|i| JobSpec {
            scenario: scenario.clone(),
            npsd: 256,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate {
                method: match i % 3 {
                    0 => EstimateMethod::PsdMethod,
                    1 => EstimateMethod::PsdAgnostic,
                    _ => EstimateMethod::Flat,
                },
                frac_bits: 6 + (i % 12),
            },
        })
        .collect();
    let engine = Engine::new(8);
    let report = engine.run(jobs);
    assert_eq!(report.failures().count(), 0);
    assert_eq!(report.cache.builds, 1, "one key, one preprocessing pass");
    assert_eq!(report.cache.entries, 1);
    let hit_count = report.results.iter().filter(|r| r.cache_hit).count();
    assert!(hit_count >= 56, "most of the 64 jobs hit the cache: {hit_count}");
}

#[test]
fn shared_cache_across_engines() {
    let cache = Arc::new(EvaluatorCache::new());
    let scenario = Scenario::FreqFilter;
    let job = |bits| JobSpec {
        scenario: scenario.clone(),
        npsd: 128,
        rounding: RoundingMode::Truncate,
        kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: bits },
    };
    let a = Engine::with_cache(2, Arc::clone(&cache));
    let b = Engine::with_cache(2, Arc::clone(&cache));
    a.run(vec![job(8), job(10)]);
    b.run(vec![job(12), job(14)]);
    assert_eq!(cache.stats().builds, 1, "both engines amortize one preprocessing");
}
