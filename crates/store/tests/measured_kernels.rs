//! Store behavior for measured-signal scenarios (PR 10): preprocessed
//! responses of graphs with estimated-PSD sources persist and warm-start
//! like any other kernel, keyed by the scenario's full parameter set —
//! seed included, since the seed determines the trace and therefore the
//! spectrum.

use std::sync::Arc;

use psdacc_engine::{
    Engine, EstimateMethod, GraphScenario, JobKind, JobSpec, PreprocessCache, Scenario,
    ScenarioRegistry,
};
use psdacc_fixed::RoundingMode;
use psdacc_store::{PersistentCache, Store};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("psdacc-meas-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn estim_scenarios() -> Vec<Scenario> {
    let registry = ScenarioRegistry::new();
    [
        "measured-welch samples=1024 nfft=128 seed=5",
        "cross-spectrum samples=2048 nfft=64 snr=12",
        "sigma-delta order=2 osr=8 samples=4096 nfft=256",
    ]
    .iter()
    .map(|line| registry.parse_spec_line(line).unwrap())
    .collect()
}

fn job(s: Scenario) -> JobSpec {
    JobSpec {
        scenario: s,
        npsd: 128,
        rounding: RoundingMode::RoundNearest,
        kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 12 },
    }
}

#[test]
fn estim_scenario_addresses_are_seed_sensitive_and_collision_free() {
    let store = Store::open(tmp_dir("addr")).unwrap();
    let registry = ScenarioRegistry::new();
    let mut paths = std::collections::HashSet::new();
    // The seed is part of the key: two daemons disagreeing on it would
    // compute different spectra under the same disk address otherwise.
    for seed in 0..32 {
        let s = registry
            .parse_spec_line(&format!("measured-welch samples=512 nfft=64 seed={seed}"))
            .unwrap();
        assert!(s.key().contains(&format!("seed={seed}")), "{}", s.key());
        assert!(paths.insert(store.path_for(&s.key(), 64)), "collision at seed {seed}");
    }
    for line in
        ["cross-spectrum snr=3", "sigma-delta osr=8", "sigma-delta osr=16", "fir-bank index=3"]
    {
        let s = registry.parse_spec_line(line).unwrap();
        assert!(paths.insert(store.path_for(&s.key(), 64)), "{line}");
    }
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn measured_kernels_warm_start_with_zero_builds() {
    let dir = tmp_dir("warm");
    let scenarios = estim_scenarios();

    // Cold: build, evaluate, persist one kernel record per scenario.
    let cold_powers: Vec<f64> = {
        let cache = Arc::new(PersistentCache::open(&dir).unwrap());
        let engine = Engine::with_shared_cache(2, cache.clone());
        let report = engine.run(scenarios.iter().cloned().map(job).collect());
        assert_eq!(report.failures().count(), 0);
        let stats = PreprocessCache::stats(cache.as_ref());
        assert_eq!((stats.builds, stats.disk_writes, stats.disk_hits), (3, 3, 0));
        report.results.iter().map(|r| r.power.unwrap()).collect()
    };

    // Warm: a fresh engine over the same store re-estimates nothing —
    // the responses load from disk and the measured bins rebuild from
    // the scenario seed, meeting bit-identically in the evaluator.
    let cache = Arc::new(PersistentCache::open(&dir).unwrap());
    let engine = Engine::with_shared_cache(2, cache.clone());
    let report = engine.run(scenarios.iter().cloned().map(job).collect());
    assert_eq!(report.failures().count(), 0);
    let stats = PreprocessCache::stats(cache.as_ref());
    assert_eq!(stats.builds, 0, "warm start must not preprocess");
    assert_eq!(stats.disk_hits, 3);
    for (r, want) in report.results.iter().zip(&cold_powers) {
        assert_eq!(r.power, Some(*want), "cold/warm powers must be bit-identical");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graph_spec_with_inline_samples_persists_by_content_hash() {
    let dir = tmp_dir("inline");
    // Two graphs differing in exactly one recorded sample must land at
    // different addresses; identical content re-registered warm-starts.
    let graph = |last: f64| {
        format!(
            r#"{{"nodes":[{{"name":"x","block":"input"}},
                {{"name":"m","block":"measured","samples":[0.01,-0.02,0.015,0.03,-0.01,0.02,0.01,{last}],"nfft":8}},
                {{"name":"s","block":"add","inputs":["x","m"]}}],
                "outputs":["s"]}}"#
        )
    };
    let a = Scenario::Graph(GraphScenario::from_json(&graph(0.005), None).unwrap());
    let b = Scenario::Graph(GraphScenario::from_json(&graph(0.006), None).unwrap());
    assert_ne!(a.key(), b.key(), "one sample flipped, new content hash");

    let cold_power = {
        let cache = Arc::new(PersistentCache::open(&dir).unwrap());
        let engine = Engine::with_shared_cache(1, cache.clone());
        let report = engine.run(vec![job(a.clone())]);
        assert_eq!(report.failures().count(), 0);
        report.results[0].power.unwrap()
    };
    let cache = Arc::new(PersistentCache::open(&dir).unwrap());
    let engine = Engine::with_shared_cache(1, cache.clone());
    let report = engine.run(vec![job(a)]);
    let stats = PreprocessCache::stats(cache.as_ref());
    assert_eq!((stats.builds, stats.disk_hits), (0, 1), "identical content warm-starts");
    assert_eq!(report.results[0].power, Some(cold_power));
    let _ = std::fs::remove_dir_all(&dir);
}
