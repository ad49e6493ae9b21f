//! Store behavior for runtime-defined (`GraphSpec`) scenarios: keying by
//! canonical content hash, warm restarts, and eviction parity with the
//! builtin families.

use std::sync::Arc;

use psdacc_engine::{
    Engine, EstimateMethod, GraphScenario, JobKind, JobSpec, PreprocessCache, Scenario,
    ScenarioRegistry,
};
use psdacc_fixed::RoundingMode;
use psdacc_store::{PersistentCache, Store};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("psdacc-dyn-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn graph_json(gain: f64) -> String {
    format!(
        r#"{{"nodes":[{{"name":"x","block":"input"}},
                      {{"name":"lp","block":"fir","taps":[0.5,0.25,0.125],"inputs":["x"]}},
                      {{"name":"d","block":"downsample","factor":2,"inputs":["lp"]}},
                      {{"name":"u","block":"upsample","factor":2,"inputs":["d"]}},
                      {{"name":"post","block":"gain","gain":{gain},"inputs":["u"]}}],
            "outputs":["post"]}}"#
    )
}

fn scenario(gain: f64) -> Scenario {
    Scenario::Graph(GraphScenario::from_json(&graph_json(gain), None).unwrap())
}

#[test]
fn distinct_graph_specs_never_collide_on_disk() {
    let store = Store::open(tmp_dir("collide")).unwrap();
    let mut paths = std::collections::HashSet::new();
    // Many near-identical specs (one coefficient sweeping) plus npsd
    // variants: every (content hash, npsd) address must be unique.
    for i in 0..64 {
        let s = scenario(0.25 + i as f64 * 1e-6);
        for npsd in [64usize, 128] {
            assert!(
                paths.insert(store.path_for(&s.key(), npsd)),
                "address collision for {} npsd={npsd}",
                s.key()
            );
        }
    }
    // And distinct from every builtin family's addresses.
    for family in ["fir-bank[index=3]", "dwt-decimated[levels=2]", "freq-filter"] {
        assert!(paths.insert(store.path_for(family, 64)));
    }
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn re_registered_identical_spec_warm_starts_with_zero_builds() {
    let dir = tmp_dir("warm");
    let job = |s: Scenario| JobSpec {
        scenario: s,
        npsd: 64,
        rounding: RoundingMode::Truncate,
        kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 10 },
    };

    // Cold daemon: define the scenario (via one registry), evaluate, let
    // the preprocessing persist.
    let cold_power = {
        let registry = ScenarioRegistry::new();
        registry.define_graph_json("codec", &graph_json(0.25)).unwrap();
        let s = registry.parse_spec_line("codec").unwrap();
        let cache = Arc::new(PersistentCache::open(&dir).unwrap());
        let engine = Engine::with_shared_cache(1, cache.clone());
        let report = engine.run(vec![job(s)]);
        assert_eq!(report.failures().count(), 0);
        let stats = PreprocessCache::stats(cache.as_ref());
        assert_eq!((stats.builds, stats.disk_writes, stats.disk_hits), (1, 1, 0));
        report.results[0].power.unwrap()
    };

    // "Restart": a fresh registry (the definition re-registered, as a
    // daemon restart + re-define would do) over the same store directory.
    // Identical content -> identical hash -> disk warm, zero builds.
    let registry = ScenarioRegistry::new();
    registry.define_graph_json("renamed-codec", &graph_json(0.25)).unwrap();
    let s = registry.parse_spec_line("renamed-codec").unwrap();
    let cache = Arc::new(PersistentCache::open(&dir).unwrap());
    let engine = Engine::with_shared_cache(1, cache.clone());
    let report = engine.run(vec![job(s)]);
    assert_eq!(report.failures().count(), 0);
    let stats = PreprocessCache::stats(cache.as_ref());
    assert_eq!(stats.builds, 0, "re-registered identical spec performs zero builds");
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(report.results[0].power.unwrap(), cold_power, "bit-identical across restart");

    // A one-coefficient change is a different identity: cold again.
    let changed = Scenario::Graph(GraphScenario::from_json(&graph_json(0.26), None).unwrap());
    let report = engine.run(vec![job(changed)]);
    assert_eq!(report.failures().count(), 0);
    let stats = PreprocessCache::stats(cache.as_ref());
    assert_eq!(stats.builds, 1, "changed content rebuilds");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_eviction_treats_dynamic_entries_like_builtins() {
    let dir = tmp_dir("lru");
    let cache = PersistentCache::open_with_limit(&dir, Some(2)).unwrap();
    let dynamic = scenario(0.5);
    let builtin = Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 };
    let builtin2 = Scenario::FreqFilter;

    // Fill: dynamic first, then two builtins -> the cap of 2 must evict
    // the *oldest* record (the dynamic one), not privilege either kind.
    cache.get_or_build(&dynamic, 64).unwrap();
    let set_mtime = |key: &str, secs: u64| {
        let path = cache.store().path_for(key, 64);
        let file = std::fs::File::options().append(true).open(path).unwrap();
        file.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs)).unwrap();
    };
    set_mtime(&dynamic.key(), 1000);
    cache.get_or_build(&builtin, 64).unwrap();
    set_mtime(&builtin.key(), 2000);
    cache.get_or_build(&builtin2, 64).unwrap();
    assert_eq!(cache.store().record_count().unwrap(), 2);
    assert!(
        cache.store().load(&dynamic.key(), 64).unwrap().is_none(),
        "oldest (dynamic) evicted under pressure"
    );

    // Mirror-image: builtin oldest, dynamic hot -> builtin evicted.
    let dir2 = tmp_dir("lru2");
    let cache2 = PersistentCache::open_with_limit(&dir2, Some(2)).unwrap();
    cache2.get_or_build(&builtin, 64).unwrap();
    let set_mtime2 = |key: &str, secs: u64| {
        let path = cache2.store().path_for(key, 64);
        let file = std::fs::File::options().append(true).open(path).unwrap();
        file.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs)).unwrap();
    };
    cache2.get_or_build(&dynamic, 64).unwrap();
    set_mtime2(&builtin.key(), 1000);
    set_mtime2(&dynamic.key(), 2000);
    cache2.get_or_build(&builtin2, 64).unwrap();
    assert_eq!(cache2.store().record_count().unwrap(), 2);
    assert!(cache2.store().load(&builtin.key(), 64).unwrap().is_none(), "builtin evicted");
    assert!(cache2.store().load(&dynamic.key(), 64).unwrap().is_some(), "dynamic survived");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn multirate_dynamic_records_round_trip_the_codec() {
    // The demo graph is true multirate (downsample/upsample), so this also
    // proves dynamic scenarios persist multirate kernels (with their
    // mean-image rows).
    let dir = tmp_dir("multirate");
    let s = scenario(0.75);
    {
        let cache = PersistentCache::open(&dir).unwrap();
        cache.get_or_build(&s, 64).unwrap();
    }
    let store = Store::open(&dir).unwrap();
    let record = store.load(&s.key(), 64).unwrap().expect("record persisted");
    assert_eq!(record.scenario_key, s.key());
    let warm = PersistentCache::open(&dir).unwrap();
    warm.get_or_build(&s, 64).unwrap();
    let stats = PreprocessCache::stats(&warm);
    assert_eq!((stats.builds, stats.disk_hits), (0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
