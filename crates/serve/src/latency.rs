//! Per-verb service-latency histograms for the daemon `stats` reply.
//!
//! Each verb's histogram is a [`psdacc_obs::Histogram`] registered in the
//! daemon's [`MetricsRegistry`] under `serve_latency_ns{verb=...}`, so the
//! `stats` reply and the `metrics` exposition render the *same* cells —
//! there is one source of truth for service latency. Buckets are
//! log-spaced in nanoseconds (see the `psdacc_obs::metrics` docs for the
//! bucket and quantile conventions); log bucketing keeps the histogram a
//! fixed, tiny array while still resolving the spread that matters here —
//! cache hits are microseconds, preprocessing misses are seconds, and a
//! fleet scheduler sizing in-flight windows wants to see both modes, not
//! their useless average.

use std::sync::Arc;
use std::time::Duration;

use psdacc_engine::json::JsonWriter;
use psdacc_engine::JobKind;
use psdacc_obs::{Histogram, MetricsRegistry};

/// The job verbs of the wire protocol, in stats-reply order.
pub const VERBS: [&str; 5] = ["evaluate", "greedy", "min-uniform", "budget", "simulate"];

/// Histograms for every job verb of the protocol.
#[derive(Debug)]
pub struct LatencyRegistry {
    per_verb: [Arc<Histogram>; VERBS.len()],
}

impl LatencyRegistry {
    /// Registers one histogram per verb in `metrics` (named
    /// `serve_latency_ns{verb=...}`); the returned registry holds the hot
    /// handles so recording never takes the registry lock.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        LatencyRegistry {
            per_verb: std::array::from_fn(|i| {
                metrics.histogram(&format!("serve_latency_ns{{verb={}}}", VERBS[i]))
            }),
        }
    }

    /// Records the service time of one executed job.
    pub fn record(&self, kind: &JobKind, elapsed: Duration) {
        self.per_verb[verb_index(kind)].record(elapsed);
    }

    /// The histogram for one verb (by [`VERBS`] index).
    pub fn verb(&self, index: usize) -> &Histogram {
        &self.per_verb[index]
    }

    /// Renders the `latency` field value of the `stats` reply: one object
    /// per verb (all verbs always present, so clients can rely on the
    /// shape), each with `count`, `total_ns`, derived `p50_ns` / `p95_ns`
    /// / `p99_ns` (linear sub-bucket interpolation), and the full bucket
    /// array.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = VERBS
            .iter()
            .zip(&self.per_verb)
            .map(|(verb, hist)| {
                let mut w = JsonWriter::new();
                w.field_str("verb", verb);
                hist.snapshot().write_fields(&mut w);
                w.finish()
            })
            .collect();
        format!("[{}]", entries.join(","))
    }
}

/// The protocol verb a job kind records under — shared by the daemon's
/// latency registry and the fleet coordinator's roundtrip histograms, so
/// both layers bucket by the same names.
pub fn verb_of(kind: &JobKind) -> &'static str {
    VERBS[verb_index(kind)]
}

/// Maps a job kind to its verb's [`VERBS`] index.
fn verb_index(kind: &JobKind) -> usize {
    match kind {
        JobKind::Estimate { .. } => 0,
        JobKind::GreedyRefine { .. } => 1,
        JobKind::MinUniform { .. } => 2,
        JobKind::Budget { .. } => 3,
        JobKind::Simulate { .. } => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::json::{self, Json};

    #[test]
    fn registry_renders_every_verb_with_percentiles() {
        let metrics = MetricsRegistry::new();
        let reg = LatencyRegistry::new(&metrics);
        reg.record(
            &JobKind::Estimate { method: psdacc_core::Method::PsdMethod, frac_bits: 12 },
            Duration::from_micros(40),
        );
        reg.record(
            &JobKind::Simulate { frac_bits: 8, samples: 1024, nfft: 64, seed: 1, trials: 1 },
            Duration::from_millis(12),
        );
        let v = json::parse(&reg.to_json()).unwrap();
        let entries = v.as_array().unwrap();
        assert_eq!(entries.len(), VERBS.len());
        let by_verb = |name: &str| {
            entries
                .iter()
                .find(|e| e.get("verb").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("verb {name} missing"))
        };
        assert_eq!(by_verb("evaluate").get("count").unwrap().as_u64(), Some(1));
        assert_eq!(by_verb("simulate").get("count").unwrap().as_u64(), Some(1));
        assert_eq!(by_verb("greedy").get("count").unwrap().as_u64(), Some(0));
        let buckets = by_verb("evaluate").get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), psdacc_obs::NUM_BUCKETS);
        // 40 µs = 40000 ns -> bucket 15 ([32768, 65536)).
        assert_eq!(buckets[15].as_u64(), Some(1));
        assert_eq!(by_verb("evaluate").get("total_ns").unwrap().as_u64(), Some(40_000));
        // One observation: every derived percentile is that observation
        // (interpolation is clamped to the exact extremes).
        for p in ["p50_ns", "p95_ns", "p99_ns"] {
            assert_eq!(by_verb("evaluate").get(p).unwrap().as_f64(), Some(40_000.0), "{p}");
        }
        // Empty verbs render zero percentiles, not nulls.
        assert_eq!(by_verb("greedy").get("p99_ns").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn stats_reply_and_metrics_exposition_share_cells() {
        let metrics = MetricsRegistry::new();
        let reg = LatencyRegistry::new(&metrics);
        reg.record(
            &JobKind::Estimate { method: psdacc_core::Method::PsdMethod, frac_bits: 12 },
            Duration::from_nanos(100),
        );
        assert_eq!(metrics.histogram("serve_latency_ns{verb=evaluate}").count(), 1);
        assert!(metrics.to_prometheus().contains("serve_latency_ns_count{verb=\"evaluate\"} 1\n"));
    }
}
