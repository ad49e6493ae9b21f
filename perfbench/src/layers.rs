//! The traced run's time split by crate.
//!
//! The traced run installs the program's hierarchical profiler and drains
//! it after every request. Each recorded frame's *self* time is charged to
//! the crate that opens the frame; because the engine and each daemon run
//! one worker and the client waits for every reply, no two charged
//! intervals overlap, so the parts add up to at most the request's wall
//! time. What no frame covers (pool thread start, the wire, the daemon's
//! protocol handling, the coordinator) is reported as `unattributed`.

use psdacc_obs::profile::ProfileSnapshot;

/// Crates the request path opens frames in, in report order.
pub const CRATES: [&str; 4] = ["estim", "sfg", "core", "engine"];

/// The crate that opens a frame with this name, if known. Unknown frames
/// stay unattributed rather than guessed.
fn crate_of(name: &str) -> Option<usize> {
    let bracketed = |prefix: &str| name.starts_with(prefix) && name.ends_with(']');
    if name.starts_with("estim.") {
        Some(0)
    } else if matches!(
        name,
        "preprocess" | "single_rate" | "block_response" | "solve" | "multirate" | "kernels"
    ) || bracketed("node[")
        || bracketed("bins[")
        || bracketed("region[")
        || bracketed("source[")
    {
        Some(1)
    } else if matches!(name, "tau_eval" | "budget_eval") {
        Some(2)
    } else if name.starts_with("cache.")
        || name.starts_with("engine.")
        || name == "graphspec.compile"
        || bracketed("job[")
    {
        Some(3)
    } else {
        None
    }
}

/// Self time per crate and request wall time, summed over a run.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Self nanoseconds charged to each of [`CRATES`].
    pub crate_ns: [u64; CRATES.len()],
    /// Summed wall nanoseconds of the traced requests.
    pub request_ns: u64,
    /// Traced requests.
    pub requests: u64,
}

impl LayerTotals {
    /// Charges one request's drained profile.
    pub fn add(&mut self, snapshot: &ProfileSnapshot, request_ns: u64) {
        for frame in &snapshot.frames {
            if let Some(c) = crate_of(frame.name()) {
                self.crate_ns[c] += frame.self_ns;
            }
        }
        self.request_ns += request_ns;
        self.requests += 1;
    }

    /// Request wall time no crate's frames account for.
    pub fn unattributed_ns(&self) -> u64 {
        self.request_ns.saturating_sub(self.crate_ns.iter().sum())
    }

    /// Mean milliseconds per request of `ns` summed over the run.
    pub fn per_request_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.requests.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_frames_map_to_their_crates() {
        assert_eq!(crate_of("estim.welch"), Some(0));
        assert_eq!(crate_of("bins[0..64]"), Some(1));
        assert_eq!(crate_of("region[1/2]"), Some(1));
        assert_eq!(crate_of("preprocess"), Some(1));
        assert_eq!(crate_of("tau_eval"), Some(2));
        assert_eq!(crate_of("job[psd]"), Some(3));
        assert_eq!(crate_of("cache.lookup"), Some(3));
        assert_eq!(crate_of("graphspec.compile"), Some(3));
        assert_eq!(crate_of("store.encode"), None);
    }
}
