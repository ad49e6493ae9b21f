//! Redesign parity: every builtin family must evaluate **bit-identically**
//! through the registry scenario path.
//!
//! `golden/builtins.jsonl` was captured by running `golden/builtins.spec`
//! through the engine *before* the open-scenario-API redesign (all 9
//! families x psd/agnostic/flat x two word-lengths, plus seeded simulate
//! and min-uniform jobs — 72 rows including the deterministic
//! flat-on-multirate error rows). This test re-runs the identical spec
//! through `BatchSpec::parse` (which now resolves scenarios through the
//! `ScenarioRegistry` family table) and demands equality on every
//! stable field — powers, means, variances, and SQNRs compared as exact
//! `f64` values, error strings verbatim.
//!
//! `golden/families.jsonl` extends that proof past the 64-bin grid: all 12
//! families (the 9 above plus the three measured-source families) at
//! npsd 64, 96, 256 and 1000 over word-lengths 6..24, plus noise budgets
//! and a min-uniform search — 948 rows, captured from `golden/families.spec`
//! before the preprocessing was reduced to per-source kernels.
//!
//! `golden/describe.jsonl` and `golden/scenarios.jsonl` pin the
//! introspection wire lines (every family's schema and defaults) as they
//! were before the family table replaced the per-provider parsers.

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, Engine, Scenario, ScenarioRegistry};

const GOLDEN_SPEC: &str = include_str!("golden/builtins.spec");
const GOLDEN_ROWS: &str = include_str!("golden/builtins.jsonl");
const FAMILIES_SPEC: &str = include_str!("golden/families.spec");
const FAMILIES_ROWS: &str = include_str!("golden/families.jsonl");
const DESCRIBE_LINE: &str = include_str!("golden/describe.jsonl");
const SCENARIOS_LINE: &str = include_str!("golden/scenarios.jsonl");

/// Drops the run-dependent fields (timings, cache flags), keeping
/// everything the redesign must preserve.
fn stable_fields(line: &str) -> Vec<(String, Json)> {
    let Json::Obj(fields) = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}")) else {
        panic!("result line is not an object: {line}");
    };
    fields
        .into_iter()
        .filter(|(k, _)| !matches!(k.as_str(), "tau_pp_seconds" | "tau_eval_seconds" | "cache_hit"))
        .collect()
}

/// Runs `spec` through the engine and demands every result line equal its
/// golden line on the stable fields.
fn assert_matches_golden(spec: &str, rows: &str, families: usize) {
    let spec = BatchSpec::parse(spec).expect("golden spec parses through the registry");
    assert_eq!(spec.scenarios.len(), families, "one scenario per family");
    let report = Engine::new(4).run(spec.jobs());
    let golden: Vec<&str> = rows.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(report.results.len(), golden.len(), "same job count as the golden capture");
    for (result, golden_line) in report.results.iter().zip(&golden) {
        let ours = stable_fields(&result.to_json_line());
        let theirs = stable_fields(golden_line);
        assert_eq!(
            ours, theirs,
            "job {} ({} on {}) diverged from the golden capture",
            result.job, result.kind, result.scenario
        );
    }
}

#[test]
fn all_builtin_families_match_pre_redesign_golden_outputs() {
    assert_matches_golden(GOLDEN_SPEC, GOLDEN_ROWS, 9);
}

#[test]
fn all_families_match_the_pre_kernel_golden_at_every_grid() {
    assert_matches_golden(FAMILIES_SPEC, FAMILIES_ROWS, 12);
}

#[test]
fn introspection_lines_match_the_golden_capture() {
    let registry = ScenarioRegistry::new();
    assert_eq!(registry.describe_json_line(None).unwrap(), DESCRIBE_LINE.trim_end());
    assert_eq!(registry.scenarios_json_line(), SCENARIOS_LINE.trim_end());
}

#[test]
fn registry_parse_equals_direct_enum_construction() {
    let registry = ScenarioRegistry::new();
    let pairs: Vec<(&str, Scenario)> = vec![
        ("fir-bank index=3", Scenario::FirBank { index: 3 }),
        ("iir-bank index=10", Scenario::IirBank { index: 10 }),
        (
            "fir-cascade stages=2 taps=21 cutoff=0.2",
            Scenario::FirCascade { stages: 2, taps: 21, cutoff: 0.2 },
        ),
        (
            "iir-cascade stages=2 order=4 cutoff=0.15",
            Scenario::IirCascade { stages: 2, order: 4, cutoff: 0.15 },
        ),
        ("freq-filter", Scenario::FreqFilter),
        ("dwt-pipeline levels=2", Scenario::DwtPipeline { levels: 2 }),
        ("dwt-decimated levels=2", Scenario::DwtDecimated { levels: 2 }),
        ("dwt-packet depth=2", Scenario::DwtPacket { depth: 2 }),
        ("random-sfg nodes=16 seed=42", Scenario::RandomSfg { nodes: 16, seed: 42 }),
    ];
    for (line, direct) in pairs {
        let parsed = registry.parse_spec_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(parsed, direct, "{line}");
        assert_eq!(parsed.key(), direct.key());
        // The graphs they build are structurally identical.
        let a = psdacc_sfg::to_dot(&parsed.build().unwrap(), "g");
        let b = psdacc_sfg::to_dot(&direct.build().unwrap(), "g");
        assert_eq!(a, b, "{line}");
    }
}
