//! # psdacc-store
//!
//! Disk persistence for the paper's expensive half. The PSD method's
//! economics rest on paying `tau_pp` (the per-bin graph solve, reduced to
//! [`psdacc_sfg::Preprocessed`] kernels) once and amortizing it over thousands of
//! cheap `tau_eval` queries — but an in-memory cache amortizes only within
//! one process lifetime. This crate makes the amortization durable:
//!
//! * [`codec`] — a versioned, checksummed, hand-rolled binary format for
//!   one preprocessing record (no serde in the workspace; bit-exactness of
//!   the `f64` payload is the contract and raw little-endian bits deliver
//!   it). See the module docs for the exact byte layout, the FNV-1a
//!   checksum, and the verification order.
//! * [`layout`] — a content-addressed directory: records live at
//!   `<root>/<hash128>.npr` where the hash is derived from the canonical
//!   `(scenario key, npsd)` text; the key is also embedded in the record
//!   and verified on load, so collisions degrade to misses. Writes are
//!   tmp-file-then-rename, atomic under concurrent daemons.
//! * [`cache`] — [`PersistentCache`], an `EvaluatorCache`-compatible
//!   implementation of [`psdacc_engine::PreprocessCache`] chaining
//!   memory → disk → build. `psdacc-engine` (and the `psdacc-serve`
//!   daemon) run against it unchanged, and a restarted process serves its
//!   first batch with zero preprocessing builds.
//!
//! ```
//! use psdacc_engine::{Engine, PreprocessCache, Scenario};
//! use psdacc_store::PersistentCache;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("psdacc-store-doc-{}", std::process::id()));
//! let cache = Arc::new(PersistentCache::open(&dir)?);
//! let engine = Engine::with_shared_cache(2, cache.clone());
//! // ... engine.run(jobs) builds once, persists, and every later process
//! // opening the same directory loads instead of building.
//! # let _ = engine;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), psdacc_store::StoreError>(())
//! ```

pub mod cache;
pub mod codec;
pub mod error;
pub mod layout;

pub use cache::PersistentCache;
pub use codec::Record;
pub use error::StoreError;
pub use layout::Store;
