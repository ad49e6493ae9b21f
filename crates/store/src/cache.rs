//! The memory → disk → build cache chain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use psdacc_core::AccuracyEvaluator;
use psdacc_engine::{
    CacheStats, EngineError, EvaluatorCache, FillSource, PreprocessCache, Scenario,
};

use crate::error::StoreError;
use crate::layout::Store;
use crate::Record;

/// A [`PreprocessCache`] that layers the disk [`Store`] underneath the
/// in-memory [`EvaluatorCache`]: lookups hit memory first, then disk, and
/// only build (and persist) as a last resort. Drop-in for
/// `Engine::with_shared_cache`, so a daemon restart warm-starts from disk
/// with **zero** preprocessing builds.
#[derive(Debug)]
pub struct PersistentCache {
    memory: EvaluatorCache,
    store: Store,
    disk_hits: AtomicUsize,
    disk_writes: AtomicUsize,
}

impl PersistentCache {
    /// Opens (creating if needed) a persistent cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_limit(dir, None)
    }

    /// Like [`PersistentCache::open`], capping the on-disk record count:
    /// when a write pushes the store past `max_entries`, the
    /// least-recently-used records (by modification time — loads touch it)
    /// are evicted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open_with_limit(
        dir: impl Into<std::path::PathBuf>,
        max_entries: Option<usize>,
    ) -> Result<Self, StoreError> {
        Ok(PersistentCache {
            memory: EvaluatorCache::new(),
            store: Store::open_with_limit(dir, max_entries)?,
            disk_hits: AtomicUsize::new(0),
            disk_writes: AtomicUsize::new(0),
        })
    }

    /// The underlying disk store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Attempts the disk layer; any failure degrades to a miss. Corrupt or
    /// mismatched records are deleted so the rebuild can replace them.
    fn try_load(&self, scenario: &Scenario, npsd: usize) -> Option<Arc<AccuracyEvaluator>> {
        let key = scenario.key();
        let record = match self.store.load(&key, npsd) {
            Ok(Some(record)) => record,
            Ok(None) => return None,
            Err(e) => {
                eprintln!("psdacc-store: discarding unreadable record for {key}#{npsd}: {e}");
                let _ = self.store.remove(&key, npsd);
                return None;
            }
        };
        // Rebuilding the graph is cheap (filter design), unlike the
        // per-bin solve or multirate kernel propagation the record spares
        // us. `from_cached` verifies the kernels fit the graph.
        let sfg = scenario.build().ok()?;
        match AccuracyEvaluator::from_cached(&sfg, record.kernels, record.preprocess_seconds) {
            Ok(evaluator) => Some(Arc::new(evaluator)),
            Err(e) => {
                eprintln!("psdacc-store: record for {key}#{npsd} does not fit its graph: {e}");
                let _ = self.store.remove(&key, npsd);
                None
            }
        }
    }
}

impl PreprocessCache for PersistentCache {
    fn get_or_build_traced(
        &self,
        scenario: &Scenario,
        npsd: usize,
    ) -> Result<(Arc<AccuracyEvaluator>, bool), EngineError> {
        self.memory.get_or_fill_traced(scenario, npsd, || {
            let loaded = {
                let _frame = psdacc_obs::profile::frame("cache.disk_load");
                self.try_load(scenario, npsd)
            };
            if let Some(evaluator) = loaded {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((evaluator, FillSource::Loaded));
            }
            let _frame = psdacc_obs::profile::frame("cache.build");
            let sfg = scenario.build()?;
            let evaluator = Arc::new(AccuracyEvaluator::new(&sfg, npsd)?);
            let record = Record::from_preprocessed(
                &scenario.key(),
                evaluator.preprocessed(),
                evaluator.preprocess_seconds(),
            );
            match self.store.save(&record) {
                Ok(()) => {
                    self.disk_writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    // A write failure must not fail the job: the evaluator
                    // is valid, only the amortization across restarts is
                    // lost.
                    eprintln!("psdacc-store: could not persist {}#{npsd}: {e}", scenario.key());
                }
            }
            Ok((evaluator, FillSource::Built))
        })
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            evictions: self.store.evictions(),
            ..self.memory.stats()
        }
    }

    fn scenario_stats(&self) -> Vec<psdacc_engine::ScenarioCacheStats> {
        self.memory.scenario_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("psdacc-pcache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cold_build_persists_then_warm_process_loads() {
        let dir = tmp_dir("warm");
        let scenario = Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 };

        let cold = PersistentCache::open(&dir).unwrap();
        let a = cold.get_or_build(&scenario, 64).unwrap();
        let stats = PreprocessCache::stats(&cold);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.disk_writes, 1);
        assert_eq!(cold.store().record_count().unwrap(), 1);

        // "Restart": a fresh cache over the same directory.
        let warm = PersistentCache::open(&dir).unwrap();
        let b = warm.get_or_build(&scenario, 64).unwrap();
        let stats = PreprocessCache::stats(&warm);
        assert_eq!(stats.builds, 0, "warm start performs zero preprocessing builds");
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_writes, 0);

        // The loaded evaluator is bit-identical in behavior.
        use psdacc_core::WordLengthPlan;
        use psdacc_fixed::RoundingMode;
        let plan = WordLengthPlan::uniform(11, RoundingMode::Truncate);
        assert_eq!(a.estimate_psd(&plan).power, b.estimate_psd(&plan).power);
        assert_eq!(a.preprocess_seconds(), b.preprocess_seconds(), "tau_pp metadata restored");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_lookup_in_process_is_a_memory_hit() {
        let dir = tmp_dir("memhit");
        let cache = PersistentCache::open(&dir).unwrap();
        let scenario = Scenario::FreqFilter;
        let (_, hit) = cache.get_or_build_traced(&scenario, 32).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_build_traced(&scenario, 32).unwrap();
        assert!(hit, "second lookup never touches disk");
        let stats = PreprocessCache::stats(&cache);
        assert_eq!((stats.builds, stats.disk_hits, stats.hits), (1, 0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_degrades_to_a_rebuild() {
        let dir = tmp_dir("degrade");
        let scenario = Scenario::FreqFilter;
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.get_or_build(&scenario, 32).unwrap();
        }
        // Corrupt the one record on disk.
        let store = Store::open(&dir).unwrap();
        let path = store.path_for(&scenario.key(), 32);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();

        let cache = PersistentCache::open(&dir).unwrap();
        cache.get_or_build(&scenario, 32).unwrap();
        let stats = PreprocessCache::stats(&cache);
        assert_eq!(stats.builds, 1, "corrupt record rebuilt, not trusted");
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.disk_writes, 1, "fresh record rewritten");
        // And the rewritten record is valid again.
        assert!(store.load(&scenario.key(), 32).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_scenarios_do_not_touch_disk() {
        let dir = tmp_dir("fail");
        let cache = PersistentCache::open(&dir).unwrap();
        assert!(cache.get_or_build(&Scenario::FirBank { index: 9999 }, 32).is_err());
        assert_eq!(cache.store().record_count().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
