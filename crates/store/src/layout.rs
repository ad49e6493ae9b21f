//! Content-addressed on-disk layout and atomic file I/O.
//!
//! One record per `(scenario key, npsd)` pair. The address is derived from
//! the canonical key text — `<root>/<h1><h2>.npr` where `h1`/`h2` are two
//! independent 64-bit FNV-1a hashes of `"<key>#<npsd>"` (128 address bits;
//! the full key is also embedded in the record and verified on load, so a
//! hash collision degrades to a cache miss, never to wrong data).
//!
//! # Atomicity under concurrent daemons
//!
//! Writers never touch the final path directly: the record goes to a
//! uniquely-named `.tmp-*` sibling, is flushed, then `rename(2)`d into
//! place. Readers therefore observe either no file or a complete record;
//! two daemons racing on the same key both write valid files and the last
//! rename wins — both contents are equivalent by construction (the codec
//! is deterministic and the responses are a pure function of the key).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{fnv1a64, Record};
use crate::error::StoreError;

/// File extension for store records ("node-response preprocessing").
pub const EXTENSION: &str = "npr";

/// A directory of persisted preprocessing records, optionally capped to a
/// maximum record count with least-recently-used eviction (recency =
/// modification time; loads touch it, so hot entries survive).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    max_entries: Option<usize>,
    evictions: AtomicU64,
}

/// Distinguishes tmp files written by this process (pid alone is not
/// enough: two threads of one daemon may race on the same key).
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens (creating if needed) an uncapped store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_limit(root, None)
    }

    /// Opens a store capped at `max_entries` records (LRU by mtime). A cap
    /// of `Some(0)` is treated as unlimited (a store that can hold nothing
    /// is a misconfiguration, not a useful mode).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open_with_limit(
        root: impl Into<PathBuf>,
        max_entries: Option<usize>,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", root.display())))?;
        Ok(Store {
            root,
            max_entries: max_entries.filter(|&n| n > 0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The configured record-count cap, if any.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// Records evicted by this store instance (LRU cap enforcement).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed) as usize
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The record path for one `(scenario key, npsd)` address.
    pub fn path_for(&self, scenario_key: &str, npsd: usize) -> PathBuf {
        let address = format!("{scenario_key}#{npsd}");
        let h1 = fnv1a64(address.as_bytes());
        // Second, independent hash: same function over the reversed bytes
        // with the first hash mixed in, decorrelating the two words.
        let reversed: Vec<u8> = address.bytes().rev().collect();
        let h2 = fnv1a64(&reversed) ^ h1.rotate_left(32);
        self.root.join(format!("{h1:016x}{h2:016x}.{EXTENSION}"))
    }

    /// Loads the record for `(scenario_key, npsd)`.
    ///
    /// Returns `Ok(None)` when no record exists. A record that exists but
    /// fails verification (corrupt, truncated, or carrying a different
    /// key) is an error — callers decide whether to treat it as a miss.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Codec`] / [`StoreError::WrongKey`].
    pub fn load(&self, scenario_key: &str, npsd: usize) -> Result<Option<Record>, StoreError> {
        let path = self.path_for(scenario_key, npsd);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(format!("read {}: {e}", path.display()))),
        };
        let record = Record::decode(&bytes)?;
        if record.scenario_key != scenario_key || record.npsd() != npsd {
            return Err(StoreError::WrongKey {
                expected: format!("{scenario_key}#{npsd}"),
                found: format!("{}#{}", record.scenario_key, record.npsd()),
            });
        }
        // Touch the record so LRU eviction sees it as recently used
        // (best-effort: a read-only store still serves loads).
        if self.max_entries.is_some() {
            if let Ok(file) = std::fs::File::options().append(true).open(&path) {
                let _ = file.set_modified(std::time::SystemTime::now());
            }
        }
        Ok(Some(record))
    }

    /// Persists a record atomically (tmp file + rename).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Codec`].
    pub fn save(&self, record: &Record) -> Result<(), StoreError> {
        let path = self.path_for(&record.scenario_key, record.npsd());
        let bytes = record.encode()?;
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        // The tmp suffix comes last so a crash-leftover tmp file has a
        // non-`npr` extension and is never counted (or loaded) as a record.
        let tmp = self.root.join(format!(
            "{}.tmp-{}-{nonce}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or(EXTENSION),
            std::process::id(),
        ));
        let write = (|| -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, &bytes)?;
            // Flush to stable storage before the rename publishes the file,
            // so a crash cannot leave a published-but-empty record.
            file.sync_all()?;
            std::fs::rename(&tmp, &path)
        })();
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::Io(format!("write {}: {e}", path.display())));
        }
        self.enforce_limit(&path);
        Ok(())
    }

    /// Evicts the least-recently-used records (by mtime) until the store
    /// is back within `max_entries`. Best-effort: eviction failures cost
    /// disk space, never correctness, so they are logged and swallowed.
    /// The record just written is never evicted — under a cap of 1 the
    /// newest entry is the one worth keeping.
    fn enforce_limit(&self, just_written: &Path) {
        let Some(cap) = self.max_entries else { return };
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("psdacc-store: cannot scan {} for eviction: {e}", self.root.display());
                return;
            }
        };
        let mut records: Vec<(std::time::SystemTime, PathBuf)> = entries
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                if path.extension().and_then(|x| x.to_str()) != Some(EXTENSION)
                    || path == just_written
                {
                    return None;
                }
                let mtime = path.metadata().and_then(|m| m.modified()).ok()?;
                Some((mtime, path))
            })
            .collect();
        // `records` excludes the protected fresh write, so the cap leaves
        // room for it: keep at most `cap - 1` others.
        let keep = cap.saturating_sub(1);
        if records.len() <= keep {
            return;
        }
        records.sort_by_key(|(mtime, _)| *mtime);
        for (_, path) in records.drain(..records.len() - keep) {
            match std::fs::remove_file(&path) {
                Ok(()) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => eprintln!("psdacc-store: cannot evict {}: {e}", path.display()),
            }
        }
    }

    /// Removes the record for one address (used to clear corrupt files so
    /// the next build can rewrite them). Missing files are fine.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for anything except "not found".
    pub fn remove(&self, scenario_key: &str, npsd: usize) -> Result<(), StoreError> {
        let path = self.path_for(scenario_key, npsd);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(format!("remove {}: {e}", path.display()))),
        }
    }

    /// Number of records currently on disk (scans the root directory).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be read.
    pub fn record_count(&self) -> Result<usize, StoreError> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| StoreError::Io(format!("read {}: {e}", self.root.display())))?;
        let mut count = 0;
        for entry in entries {
            let entry =
                entry.map_err(|e| StoreError::Io(format!("scan {}: {e}", self.root.display())))?;
            if entry.path().extension().and_then(|x| x.to_str()) == Some(EXTENSION) {
                count += 1;
            }
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_sfg::{Preprocessed, SourceKernel};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("psdacc-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: &str, npsd: usize) -> Record {
        let kernel = SourceKernel { variance: vec![1.0; npsd], mean_sq: Vec::new(), dc: -2.0 };
        Record {
            scenario_key: key.to_string(),
            preprocess_seconds: 0.5,
            kernels: Preprocessed::new(vec![kernel; 2], npsd, npsd, npsd).unwrap(),
        }
    }

    /// Pins a record file's mtime (so LRU ordering is deterministic in
    /// tests, no sleeps).
    fn set_mtime(store: &Store, key: &str, npsd: usize, seconds: u64) {
        let path = store.path_for(key, npsd);
        let file = std::fs::File::options().append(true).open(path).unwrap();
        file.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(seconds)).unwrap();
    }

    #[test]
    fn save_load_remove_cycle() {
        let store = Store::open(tmp_root("cycle")).unwrap();
        assert!(store.load("k", 8).unwrap().is_none(), "empty store misses");
        store.save(&record("k", 8)).unwrap();
        let back = store.load("k", 8).unwrap().expect("record exists");
        assert_eq!(back.scenario_key, "k");
        assert_eq!(store.record_count().unwrap(), 1);
        // npsd is part of the address.
        assert!(store.load("k", 16).unwrap().is_none());
        store.remove("k", 8).unwrap();
        assert!(store.load("k", 8).unwrap().is_none());
        store.remove("k", 8).unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn distinct_addresses_do_not_collide_in_practice() {
        let store = Store::open(tmp_root("addr")).unwrap();
        let mut paths = std::collections::HashSet::new();
        for i in 0..147 {
            for npsd in [128usize, 256] {
                assert!(paths.insert(store.path_for(&format!("fir-bank[index={i}]"), npsd)));
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_file_is_an_error_not_wrong_data() {
        let store = Store::open(tmp_root("corrupt")).unwrap();
        store.save(&record("k", 4)).unwrap();
        let path = store.path_for("k", 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load("k", 4), Err(StoreError::Codec(_))));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn foreign_key_in_the_slot_is_rejected() {
        let store = Store::open(tmp_root("foreign")).unwrap();
        // Simulate a collision: write a record for key `a` into `b`'s path.
        let rec = record("a", 4);
        let bytes = rec.encode().unwrap();
        std::fs::write(store.path_for("b", 4), bytes).unwrap();
        assert!(matches!(store.load("b", 4), Err(StoreError::WrongKey { .. })));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn no_tmp_litter_after_saves() {
        let store = Store::open(tmp_root("litter")).unwrap();
        for i in 0..5 {
            store.save(&record(&format!("k{i}"), 4)).unwrap();
        }
        let leftovers: Vec<_> = std::fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn max_entries_cap_is_enforced_lru() {
        let store = Store::open_with_limit(tmp_root("evict"), Some(2)).unwrap();
        assert_eq!(store.max_entries(), Some(2));
        store.save(&record("k0", 4)).unwrap();
        set_mtime(&store, "k0", 4, 1000);
        store.save(&record("k1", 4)).unwrap();
        set_mtime(&store, "k1", 4, 2000);
        store.save(&record("k2", 4)).unwrap();
        assert_eq!(store.record_count().unwrap(), 2, "cap enforced");
        assert!(store.load("k0", 4).unwrap().is_none(), "oldest evicted");
        assert!(store.load("k1", 4).unwrap().is_some());
        assert!(store.load("k2", 4).unwrap().is_some());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn loads_keep_hot_entries_alive() {
        let store = Store::open_with_limit(tmp_root("hot"), Some(2)).unwrap();
        store.save(&record("hot", 4)).unwrap();
        set_mtime(&store, "hot", 4, 1000);
        store.save(&record("cold", 4)).unwrap();
        set_mtime(&store, "cold", 4, 2000);
        // Touch the older record: the load bumps its mtime past "cold".
        assert!(store.load("hot", 4).unwrap().is_some());
        store.save(&record("k2", 4)).unwrap();
        assert_eq!(store.record_count().unwrap(), 2);
        assert!(store.load("hot", 4).unwrap().is_some(), "hot entry survived");
        assert!(store.load("cold", 4).unwrap().is_none(), "cold entry evicted");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn zero_cap_means_unlimited() {
        let store = Store::open_with_limit(tmp_root("zerocap"), Some(0)).unwrap();
        assert_eq!(store.max_entries(), None);
        for i in 0..4 {
            store.save(&record(&format!("k{i}"), 4)).unwrap();
        }
        assert_eq!(store.record_count().unwrap(), 4);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn crash_leftover_tmp_files_are_not_counted_as_records() {
        let store = Store::open(tmp_root("leftover")).unwrap();
        store.save(&record("k", 4)).unwrap();
        // Simulate a crash between create and rename.
        let stranded = store.root().join("deadbeef.npr.tmp-1-0");
        std::fs::write(&stranded, b"partial").unwrap();
        assert_eq!(store.record_count().unwrap(), 1, "tmp litter is not a record");
        let _ = std::fs::remove_dir_all(store.root());
    }
}
