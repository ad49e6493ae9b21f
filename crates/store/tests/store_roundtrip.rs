//! Golden round-trip and engine-level persistence tests: whatever the
//! preprocessing computed, the store must return **bit-identically**, and
//! an engine over a warm store must do zero preprocessing work.

use std::path::PathBuf;
use std::sync::Arc;

use psdacc_core::AccuracyEvaluator;
use psdacc_engine::{Engine, EstimateMethod, JobKind, JobSpec, PreprocessCache, Scenario};
use psdacc_fixed::RoundingMode;
use psdacc_sfg::SourceKernel;
use psdacc_store::{PersistentCache, Record, Store};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psdacc-store-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A kernel's cells in record order, as raw bits.
fn cells(kernel: &SourceKernel) -> Vec<u64> {
    kernel.variance.iter().chain(&kernel.mean_sq).chain([&kernel.dc]).map(|v| v.to_bits()).collect()
}

/// Every kernel cell of every node of a real preprocessing pass survives
/// the encode → disk → decode cycle with identical bits.
#[test]
fn golden_round_trip_is_bit_identical() {
    let scenarios = [
        Scenario::FirBank { index: 7 },
        Scenario::IirCascade { stages: 2, order: 4, cutoff: 0.15 },
        Scenario::DwtPipeline { levels: 2 },
        Scenario::DwtDecimated { levels: 2 },
        Scenario::DwtPacket { depth: 1 },
        Scenario::RandomSfg { nodes: 18, seed: 3 },
    ];
    let dir = tmp_dir("golden");
    let store = Store::open(&dir).unwrap();
    for scenario in &scenarios {
        let key = scenario.key();
        let sfg = scenario.build().unwrap();
        let evaluator = AccuracyEvaluator::new(&sfg, 128).unwrap();
        let original = Record::from_preprocessed(
            &key,
            evaluator.preprocessed(),
            evaluator.preprocess_seconds(),
        );
        store.save(&original).unwrap();
        let record = store.load(&key, 128).unwrap().expect("saved record loads");
        assert_eq!(record.scenario_key, key);
        assert_eq!(record.npsd(), 128);
        assert_eq!(record.kernels.white_bins(), original.kernels.white_bins());
        assert_eq!(record.preprocess_seconds.to_bits(), evaluator.preprocess_seconds().to_bits());
        assert_eq!(record.kernels.len(), original.kernels.len(), "{key}: node count");
        let pairs = record.kernels.kernels().iter().zip(original.kernels.kernels());
        for (node, (got, want)) in pairs.enumerate() {
            assert_eq!(cells(got).len(), cells(want).len(), "{key} node {node}: row width");
            for (cell, (g, w)) in cells(got).iter().zip(&cells(want)).enumerate() {
                assert_eq!(g, w, "{key} node {node} cell {cell}");
            }
        }
    }
    assert_eq!(store.record_count().unwrap(), scenarios.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncations and corruptions of a real on-disk record are rejected, and
/// the persistent cache recovers by rebuilding.
#[test]
fn real_record_rejects_truncation_and_corruption() {
    let dir = tmp_dir("reject");
    let store = Store::open(&dir).unwrap();
    let scenario = Scenario::FreqFilter;
    let sfg = scenario.build().unwrap();
    let evaluator = AccuracyEvaluator::new(&sfg, 64).unwrap();
    store
        .save(&Record::from_preprocessed(&scenario.key(), evaluator.preprocessed(), 0.25))
        .unwrap();
    let path = store.path_for(&scenario.key(), 64);
    let bytes = std::fs::read(&path).unwrap();

    // Truncations at a spread of prefix lengths (every length is covered
    // by the codec unit tests; here we prove the store surface rejects).
    for frac in [0, 1, 7, 8, 20, 99] {
        let len = bytes.len() * frac / 100;
        std::fs::write(&path, &bytes[..len]).unwrap();
        assert!(store.load(&scenario.key(), 64).is_err(), "accepted {len}-byte truncation");
    }
    // Single-bit corruption deep in the payload.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    assert!(store.load(&scenario.key(), 64).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance-criteria shape at the engine level: a cold engine builds
/// and persists; a "restarted" engine over the same directory serves the
/// same batch bit-identically with zero preprocessing builds.
#[test]
fn warm_engine_serves_bit_identical_results_with_zero_builds() {
    let dir = tmp_dir("engine");
    let jobs: Vec<JobSpec> = [
        Scenario::FirCascade { stages: 2, taps: 15, cutoff: 0.2 },
        Scenario::FreqFilter,
        Scenario::DwtPipeline { levels: 1 },
        Scenario::DwtDecimated { levels: 2 },
    ]
    .into_iter()
    .flat_map(|scenario| {
        (8..12).map(move |bits| JobSpec {
            scenario: scenario.clone(),
            npsd: 128,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: bits },
        })
    })
    .collect();

    let cold_cache = Arc::new(PersistentCache::open(&dir).unwrap());
    let cold = Engine::with_shared_cache(4, cold_cache.clone()).run(jobs.clone());
    assert_eq!(cold.failures().count(), 0);
    assert_eq!(cold.cache.builds, 4, "one build per distinct scenario");
    assert_eq!(cold.cache.disk_writes, 4);
    assert_eq!(cold_cache.store().record_count().unwrap(), 4);

    let warm_cache = Arc::new(PersistentCache::open(&dir).unwrap());
    let warm = Engine::with_shared_cache(4, warm_cache).run(jobs);
    assert_eq!(warm.failures().count(), 0);
    assert_eq!(warm.cache.builds, 0, "warm restart: zero preprocessing builds");
    assert_eq!(warm.cache.disk_hits, 4);

    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a.power, b.power, "job {}", a.job);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.variance, b.variance);
        assert_eq!(a.sqnr_db, b.sqnr_db);
        assert_eq!(a.tau_pp_seconds, b.tau_pp_seconds, "tau_pp metadata restored from disk");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two caches over one directory (concurrent daemons on shared storage):
/// racing writers must never produce a torn record.
#[test]
fn concurrent_caches_share_one_store_safely() {
    let dir = tmp_dir("race");
    let scenario = Scenario::FirCascade { stages: 1, taps: 21, cutoff: 0.25 };
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let dir = dir.clone();
            let scenario = scenario.clone();
            scope.spawn(move || {
                let cache = PersistentCache::open(&dir).unwrap();
                let evaluator = cache.get_or_build(&scenario, 96).unwrap();
                assert_eq!(evaluator.npsd(), 96);
            });
        }
    });
    // Whoever won the race, the surviving record is valid and loadable.
    let store = Store::open(&dir).unwrap();
    let record = store.load(&scenario.key(), 96).unwrap().expect("record exists");
    assert_eq!(record.npsd(), 96);
    assert_eq!(store.record_count().unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record in the previous format (`PSDRSP02`, whose single-rate records
/// held complex responses) with a valid checksum is a miss, not an error:
/// the cache rebuilds once, serves the powers a fresh engine computes, and
/// leaves a current-format record behind.
#[test]
fn format_02_record_is_a_miss_not_an_error() {
    let dir = tmp_dir("format02");
    let scenario = Scenario::FirCascade { stages: 2, taps: 15, cutoff: 0.2 };
    let (key, npsd) = (scenario.key(), 64usize);
    let nodes = scenario.build().unwrap().len();
    let mut bytes = b"PSDRSP02".to_vec();
    bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
    bytes.extend_from_slice(key.as_bytes());
    // npsd, flavor 0 (single-rate), node count, row width in complex cells.
    for field in [npsd, 0, nodes, npsd] {
        bytes.extend_from_slice(&(field as u32).to_le_bytes());
    }
    bytes.extend_from_slice(&0.25f64.to_le_bytes());
    for _ in 0..nodes * npsd {
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        bytes.extend_from_slice(&0.0f64.to_le_bytes());
    }
    let checksum = psdacc_store::codec::fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    let store = Store::open(&dir).unwrap();
    let path = store.path_for(&key, npsd);
    std::fs::write(&path, &bytes).unwrap();

    let jobs: Vec<JobSpec> = (8..12)
        .map(|bits| JobSpec {
            scenario: scenario.clone(),
            npsd,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: bits },
        })
        .collect();
    let cache = Arc::new(PersistentCache::open(&dir).unwrap());
    let served = Engine::with_shared_cache(1, cache).run(jobs.clone());
    assert_eq!(served.failures().count(), 0);
    assert_eq!((served.cache.builds, served.cache.disk_hits), (1, 0), "the old record is a miss");
    let fresh = Engine::new(1).run(jobs);
    for (a, b) in served.results.iter().zip(&fresh.results) {
        assert_eq!(a.power.map(f64::to_bits), b.power.map(f64::to_bits), "job {}", a.job);
    }
    assert_eq!(&std::fs::read(&path).unwrap()[..8], b"PSDRSP03");
    assert!(store.load(&key, npsd).unwrap().is_some(), "the rebuilt record loads");
    let _ = std::fs::remove_dir_all(&dir);
}
