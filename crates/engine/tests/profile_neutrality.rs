//! The self-profiler is observational only: engine batches run with a
//! profiler installed must be **bit-identical** (on every stable result
//! field) to unprofiled runs, across a grid of scenario families, word
//! lengths, and PSD resolutions — including a multirate family, whose
//! preprocess path is the most heavily framed code in the workspace.
//!
//! The same profiled run also has to be *useful*: on the multirate
//! family the frame tree must account for every nanosecond exactly once,
//! every rate region must carry per-node / per-source frames, every noise
//! source must be attributed to exactly one region, and the folded
//! rendering must parse under the flamegraph input grammar.
//!
//! The profiler global is process-wide and first-install-wins, so the
//! unprofiled phase, the install, and the profiled phase are ordered
//! inside a single test body.

use std::sync::Arc;

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, Engine};
use psdacc_obs::profile::{self, Profiler};

/// Drops the run-dependent fields (timings, cache flags), keeping
/// everything profiling must preserve.
fn stable_fields(line: &str) -> Vec<(String, Json)> {
    let Json::Obj(fields) = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}")) else {
        panic!("result line is not an object: {line}");
    };
    fields
        .into_iter()
        .filter(|(k, _)| !matches!(k.as_str(), "tau_pp_seconds" | "tau_eval_seconds" | "cache_hit"))
        .collect()
}

/// Runs `spec_text` through a fresh engine (fresh preprocessing cache,
/// so profiled and unprofiled phases do the same work) and returns the
/// stable fields of every result line.
fn run_spec(spec_text: &str) -> Vec<Vec<(String, Json)>> {
    let spec = BatchSpec::parse(spec_text).unwrap_or_else(|e| panic!("{spec_text}: {e}"));
    let report = Engine::new(4).run(spec.jobs());
    report.results.iter().map(|r| stable_fields(&r.to_json_line())).collect()
}

#[test]
fn profiled_runs_are_bit_identical_and_attribute_preprocess_time() {
    // (family, npsd) grid, two word lengths and three methods per cell.
    // dwt-decimated is the multirate family; flat-on-multirate produces
    // deterministic error rows, which must also be preserved verbatim.
    let families = [
        "fir-cascade stages=2 taps=21 cutoff=0.2",
        "iir-bank index=10",
        "dwt-decimated levels=2",
        "random-sfg nodes=16 seed=42",
    ];
    let specs: Vec<String> = families
        .iter()
        .flat_map(|family| {
            [64usize, 128].map(|npsd| {
                format!(
                    "scenario {family}\nbatch npsd={npsd} bits=8,12 methods=psd,agnostic,flat\n"
                )
            })
        })
        .collect();

    // Phase 1: unprofiled. Nothing may have installed a profiler yet in
    // this process — this test binary owns the global.
    assert!(!profile::enabled(), "test binary must start unprofiled");
    let unprofiled: Vec<_> = specs.iter().map(|s| run_spec(s)).collect();

    let profiler = Arc::new(Profiler::new());
    assert!(profile::install(Arc::clone(&profiler)), "first install wins");

    // Phase 2: identical specs, fresh engines, profiler armed.
    let profiled: Vec<_> = specs.iter().map(|s| run_spec(s)).collect();
    for ((spec, base), with) in specs.iter().zip(&unprofiled).zip(&profiled) {
        assert_eq!(base.len(), with.len(), "{spec}: job count changed under profiling");
        for (job, (b, w)) in base.iter().zip(with).enumerate() {
            assert_eq!(b, w, "{spec}: job {job} diverged under profiling");
        }
    }
    let grid = profiler.take();
    assert!(!grid.is_empty(), "the profiled grid recorded frames");

    // Attribution, checked on the frame tree's structure rather than on
    // wall-clock shares (which the OS scheduler can skew on a loaded
    // machine): one multirate batch, one preprocess build.
    run_spec("scenario dwt-decimated levels=2\nbatch npsd=512 bits=10 methods=psd\n");
    let snap = profiler.take();
    let preprocess: Vec<_> = snap.frames.iter().filter(|f| f.name() == "preprocess").collect();
    assert_eq!(preprocess.len(), 1, "one preprocess path:\n{}", snap.to_text());
    assert_eq!(preprocess[0].count, 1, "one key, one build:\n{}", snap.to_text());
    // No time is lost or double-counted: every frame's total is exactly
    // its self time plus its direct children's totals.
    for frame in &snap.frames {
        let prefix = format!("{}{}", frame.path, profile::PATH_SEPARATOR);
        let children: u64 = snap
            .frames
            .iter()
            .filter(|f| {
                f.path
                    .strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains(profile::PATH_SEPARATOR))
            })
            .map(|f| f.total_ns)
            .sum();
        assert_eq!(frame.total_ns, frame.self_ns + children, "{}:\n{}", frame.path, snap.to_text());
    }
    // Every noise source's kernel is collected exactly once, inside
    // exactly one rate region.
    let mut sources: Vec<usize> = snap
        .frames
        .iter()
        .filter(|f| f.path.contains(";kernels;region[") && f.name().starts_with("source["))
        .map(|f| {
            assert_eq!(f.count, 1, "{}", f.path);
            f.name()["source[".len()..f.name().len() - 1].parse().unwrap()
        })
        .collect();
    sources.sort_unstable();
    assert!(!sources.is_empty(), "no per-source frames:\n{}", snap.to_text());
    assert_eq!(sources, (0..sources.len()).collect::<Vec<_>>(), "{}", snap.to_text());
    // Every rate region of the two-level decimated pipeline shows up by
    // name, each with per-node (block responses) or per-source (kernel
    // collection) children underneath.
    for region in ["region[1/1]", "region[1/2]", "region[1/4]"] {
        assert!(
            snap.frames.iter().any(|f| f.path.contains(region)
                && (f.name().starts_with("node[") || f.name().starts_with("source["))),
            "no per-node/per-source frame under {region}:\n{}",
            snap.to_text(),
        );
    }

    // The folded rendering obeys the flamegraph input grammar:
    // `path self_ns` per line, space-delimited, u64 sample value.
    let folded = snap.to_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (path, ns) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no space: {line}"));
        assert!(!path.is_empty() && !path.contains(' '), "bad path: {line}");
        ns.parse::<u64>().unwrap_or_else(|e| panic!("bad sample count {line}: {e}"));
    }
}
