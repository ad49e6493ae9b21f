//! Batch specifications: declare workloads as data.
//!
//! A spec is a line-oriented text document (CLI `--spec` files and inline
//! strings):
//!
//! ```text
//! # Scenario declarations accumulate; job lines expand over all of them.
//! scenario fir-bank index=0
//! scenario iir-cascade stages=2 order=4 cutoff=0.2
//! scenario dwt-pipeline levels=2
//!
//! # Parameter sweeps are first-class: integer params take inclusive
//! # ranges (`0..146` = 147 scenarios) and any param takes comma lists.
//! # Multi-valued params expand as a cross product.
//! scenario fir-bank index=0..146
//! scenario fir-cascade stages=1..4 cutoff=0.1,0.2,0.3
//!
//! # scenarios x bits x methods estimate jobs:
//! batch npsd=256 bits=8..14 methods=psd,agnostic,flat rounding=truncate
//!
//! # one refinement job per scenario:
//! refine npsd=256 budget=1e-8 start=16 min=4 rounding=nearest
//! min-uniform npsd=256 budget=1e-8 min=2 max=24 rounding=nearest
//!
//! # per-node noise-budget attribution jobs (scenarios x bits):
//! budget npsd=256 bits=8,12 rounding=truncate
//!
//! # seeded Monte-Carlo reference jobs (scenarios x bits):
//! simulate npsd=256 bits=8,12 samples=20000 nfft=256 seed=7 trials=2
//!
//! # optional worker override (CLI --threads wins):
//! threads 8
//! ```
//!
//! `bits` accepts a single value (`12`), an inclusive range (`8..14`), or a
//! comma list (`8,10,12`) — the same sweep syntax scenario parameters use.
//! `methods` is a comma list over `psd`/`agnostic`/`flat`.

use std::collections::BTreeMap;

use psdacc_fixed::RoundingMode;

use crate::error::EngineError;
use crate::job::{self, Bound, EstimateMethod};
use crate::provider::{self, key_values, ScenarioRegistry};
use crate::scenario::Scenario;
use crate::units::{DirectiveKind, JobDirective};

/// A parsed batch: scenario declarations plus job directives.
///
/// Directives stay **unexpanded**; [`BatchSpec::units`] walks the
/// `scenario x bits x method` cross products lazily, and
/// [`BatchSpec::jobs`] collects them (see [`crate::units`]).
#[derive(Debug, Clone, Default)]
pub struct BatchSpec {
    /// Scenarios declared so far (directives reference them by position).
    pub scenarios: Vec<Scenario>,
    /// Parsed job directives, in declaration order.
    directives: Vec<JobDirective>,
    /// Worker-thread count requested by the spec, if any.
    pub threads: Option<usize>,
}

impl BatchSpec {
    /// Parses a spec document against a fresh [`ScenarioRegistry`] (the
    /// family table plus inline `graph={...}` lines). Specs that
    /// reference *named* runtime-defined scenarios need
    /// [`BatchSpec::parse_with`] and a populated registry.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] / [`EngineError::Scenario`] with the offending
    /// 1-based line number and line text.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        Self::parse_with(text, &ScenarioRegistry::new())
    }

    /// [`BatchSpec::parse`] against an explicit [`ScenarioRegistry`], so
    /// spec lines may reference scenarios registered at runtime
    /// (`scenario my-codec` after a `define_scenario` / `--graph`).
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] / [`EngineError::Scenario`] with the offending
    /// 1-based line number and line text.
    pub fn parse_with(text: &str, registry: &ScenarioRegistry) -> Result<Self, EngineError> {
        let mut spec = BatchSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            spec.parse_line(line, registry).map_err(|e| {
                // Unwrap the inner message so the line-number wrapper does
                // not stutter ("batch spec error: ... batch spec error:").
                let msg = match &e {
                    EngineError::Spec(m) | EngineError::Scenario(m) => m.clone(),
                    other => other.to_string(),
                };
                // Multi-line specs are debugged from this one string: name
                // the line *and* show its text, so the fix needs no
                // cross-referencing against the spec file.
                EngineError::Spec(format!("line {}: {msg} [in `{line}`]", lineno + 1))
            })?;
        }
        if spec.directives.is_empty() {
            return Err(EngineError::Spec(
                "spec declares no jobs (add a `batch`, `refine`, `min-uniform`, `budget`, or \
                 `simulate` line)"
                    .to_string(),
            ));
        }
        Ok(spec)
    }

    /// The parsed job directives (crate-internal: [`crate::units`] expands
    /// them).
    pub(crate) fn directives(&self) -> &[JobDirective] {
        &self.directives
    }

    fn parse_line(&mut self, line: &str, registry: &ScenarioRegistry) -> Result<(), EngineError> {
        let (verb, remainder) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let rest: Vec<&str> = remainder.split_whitespace().collect();
        let kv = |tokens: &[&str]| key_values(tokens.iter().copied()).map_err(EngineError::Spec);
        match verb {
            "scenario" => {
                // Inline graph declarations take the raw remainder of the
                // line (the JSON may contain spaces) — no sweep syntax.
                if provider::inline_graph_json(remainder).is_some() {
                    self.scenarios.push(registry.parse_spec_line(remainder)?);
                    return Ok(());
                }
                let name = rest
                    .first()
                    .ok_or_else(|| EngineError::Spec("scenario line needs a name".to_string()))?;
                let params = kv(&rest[1..])?;
                // Sweeps (`index=0..146`, `cutoff=0.1,0.2`) expand into one
                // scenario per point of the parameter cross product.
                for point in expand_param_sweeps(&params)? {
                    self.scenarios.push(registry.parse(name, &point)?);
                }
                Ok(())
            }
            "batch" => self.expand_batch(&kv(&rest)?),
            "refine" => self.expand_refine(&kv(&rest)?),
            "min-uniform" => self.expand_min_uniform(&kv(&rest)?),
            "budget" => self.expand_budget(&kv(&rest)?),
            "simulate" => self.expand_simulate(&kv(&rest)?),
            "threads" => {
                let n = rest
                    .first()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        EngineError::Spec("threads needs a positive integer".to_string())
                    })?;
                self.threads = Some(n);
                Ok(())
            }
            other => Err(EngineError::Spec(format!(
                "unknown directive `{other}`; known: scenario, batch, refine, min-uniform, \
                 budget, simulate, threads"
            ))),
        }
    }

    fn require_scenarios(&self) -> Result<(), EngineError> {
        if self.scenarios.is_empty() {
            return Err(EngineError::Spec(
                "job line before any `scenario` declaration".to_string(),
            ));
        }
        Ok(())
    }

    fn push_directive(
        &mut self,
        params: &BTreeMap<String, String>,
        kind: DirectiveKind,
    ) -> Result<(), EngineError> {
        self.directives.push(JobDirective {
            scenario_end: self.scenarios.len(),
            npsd: parse_bounded(params, &job::NPSD)?,
            rounding: parse_rounding(params)?,
            kind,
        });
        Ok(())
    }

    fn expand_batch(&mut self, params: &BTreeMap<String, String>) -> Result<(), EngineError> {
        self.require_scenarios()?;
        known_keys(params, &["npsd", "bits", "methods", "rounding"])?;
        let bits = parse_bits_list(params.get("bits").map(String::as_str).unwrap_or("12"))?;
        let methods = parse_methods(params.get("methods").map(String::as_str).unwrap_or("psd"))?;
        self.push_directive(params, DirectiveKind::Estimates { bits, methods })
    }

    fn expand_refine(&mut self, params: &BTreeMap<String, String>) -> Result<(), EngineError> {
        self.require_scenarios()?;
        known_keys(params, &["npsd", "budget", "start", "min", "rounding"])?;
        let kind = DirectiveKind::Refine {
            budget: parse_f64(params, "budget")?,
            start_bits: parse_i32(params, "start", job::DEFAULT_START_BITS)?,
            min_bits: parse_i32(params, "min", job::DEFAULT_MIN_BITS)?,
        };
        self.push_directive(params, kind)
    }

    fn expand_budget(&mut self, params: &BTreeMap<String, String>) -> Result<(), EngineError> {
        self.require_scenarios()?;
        known_keys(params, &["npsd", "bits", "rounding"])?;
        let bits = parse_bits_list(params.get("bits").map(String::as_str).unwrap_or("12"))?;
        self.push_directive(params, DirectiveKind::Budget { bits })
    }

    fn expand_simulate(&mut self, params: &BTreeMap<String, String>) -> Result<(), EngineError> {
        self.require_scenarios()?;
        known_keys(params, &["npsd", "bits", "samples", "nfft", "seed", "trials", "rounding"])?;
        let kind = DirectiveKind::Simulate {
            bits: parse_bits_list(params.get("bits").map(String::as_str).unwrap_or("12"))?,
            samples: parse_bounded(params, &job::SAMPLES)?,
            nfft: parse_bounded(params, &job::NFFT)?,
            seed: match params.get("seed") {
                None => job::DEFAULT_SEED,
                Some(v) => v.parse::<u64>().map_err(|_| {
                    EngineError::Spec(format!("`seed` must be a non-negative integer, got `{v}`"))
                })?,
            },
            trials: parse_bounded(params, &job::TRIALS)?,
        };
        self.push_directive(params, kind)
    }

    fn expand_min_uniform(&mut self, params: &BTreeMap<String, String>) -> Result<(), EngineError> {
        self.require_scenarios()?;
        known_keys(params, &["npsd", "budget", "min", "max", "rounding"])?;
        let min_bits = parse_i32(params, "min", job::DEFAULT_MIN_BITS)?;
        let max_bits = parse_i32(params, "max", job::DEFAULT_MAX_BITS)?;
        if min_bits > max_bits {
            return Err(EngineError::Spec("min-uniform: min > max".to_string()));
        }
        let kind =
            DirectiveKind::MinUniform { budget: parse_f64(params, "budget")?, min_bits, max_bits };
        self.push_directive(params, kind)
    }
}

fn known_keys(params: &BTreeMap<String, String>, allowed: &[&str]) -> Result<(), EngineError> {
    for key in params.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(EngineError::Spec(format!(
                "unknown key `{key}` (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn parse_rounding(params: &BTreeMap<String, String>) -> Result<RoundingMode, EngineError> {
    match params.get("rounding").map(String::as_str) {
        None | Some("truncate") => Ok(RoundingMode::Truncate),
        Some("nearest") => Ok(RoundingMode::RoundNearest),
        Some(other) => Err(EngineError::Spec(format!(
            "rounding must be `truncate` or `nearest`, got `{other}`"
        ))),
    }
}

fn parse_f64(params: &BTreeMap<String, String>, key: &str) -> Result<f64, EngineError> {
    let v = params
        .get(key)
        .ok_or_else(|| EngineError::Spec(format!("missing required key `{key}`")))?;
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x > 0.0)
        .ok_or_else(|| EngineError::Spec(format!("`{key}` must be a positive number, got `{v}`")))
}

fn parse_i32(
    params: &BTreeMap<String, String>,
    key: &str,
    default: i32,
) -> Result<i32, EngineError> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<i32>()
            .map_err(|_| EngineError::Spec(format!("`{key}` must be an integer, got `{v}`"))),
    }
}

fn parse_bounded(params: &BTreeMap<String, String>, bound: &Bound) -> Result<usize, EngineError> {
    let Bound { key, default, range } = bound;
    match params.get(*key) {
        None => Ok(*default),
        Some(v) => v.parse::<usize>().ok().filter(|n| range.contains(n)).ok_or_else(|| {
            EngineError::Spec(format!(
                "`{key}` must be an integer in {}..={}, got `{v}`",
                range.start(),
                range.end()
            ))
        }),
    }
}

/// Hard ceiling on what one sweep may expand to — typos like `0..1000000`
/// become parse errors instead of memory exhaustion.
const MAX_SWEEP: usize = 10_000;

/// Expands one spec value into its sweep members: `a..b` is an inclusive
/// integer range (`0..146` = 147 values), `x,y,z` a comma list (any scalar
/// type), anything else a single value.
fn expand_values(text: &str) -> Result<Vec<String>, EngineError> {
    if let Some((lo, hi)) = text.split_once("..") {
        let parse = |tok: &str| -> Result<i64, EngineError> {
            tok.parse::<i64>().map_err(|_| {
                EngineError::Spec(format!(
                    "bad range bound `{tok}` in `{text}` (sweep ranges are integer-only and \
                     inclusive, e.g. `0..146`)"
                ))
            })
        };
        let (lo, hi) = (parse(lo)?, parse(hi)?);
        if lo > hi {
            return Err(EngineError::Spec(format!("empty range `{text}`")));
        }
        if (hi - lo) as usize >= MAX_SWEEP {
            return Err(EngineError::Spec(format!(
                "range `{text}` expands to more than {MAX_SWEEP} values"
            )));
        }
        return Ok((lo..=hi).map(|v| v.to_string()).collect());
    }
    Ok(text.split(',').map(|tok| tok.trim().to_string()).collect())
}

/// Cross product of every parameter's sweep values, in deterministic
/// (key-sorted, value-declared) order.
fn expand_param_sweeps(
    params: &BTreeMap<String, String>,
) -> Result<Vec<BTreeMap<String, String>>, EngineError> {
    let mut points: Vec<BTreeMap<String, String>> = vec![BTreeMap::new()];
    for (key, value) in params {
        let values = expand_values(value)?;
        if points.len() * values.len() > MAX_SWEEP {
            return Err(EngineError::Spec(format!(
                "scenario sweep expands to more than {MAX_SWEEP} scenarios"
            )));
        }
        let mut next = Vec::with_capacity(points.len() * values.len());
        for base in &points {
            for v in &values {
                let mut point = base.clone();
                point.insert(key.clone(), v.clone());
                next.push(point);
            }
        }
        points = next;
    }
    Ok(points)
}

/// `12`, `8..14` (inclusive), or `8,10,12` — [`expand_values`] sweep syntax
/// narrowed to the supported [`job::BITS`] range.
fn parse_bits_list(text: &str) -> Result<Vec<i32>, EngineError> {
    expand_values(text)?
        .iter()
        .map(|tok| {
            let d = tok
                .parse::<i32>()
                .map_err(|_| EngineError::Spec(format!("bad bits value `{tok}`")))?;
            if job::BITS.contains(&d) {
                Ok(d)
            } else {
                Err(EngineError::Spec(format!(
                    "bits value {d} outside the supported {}..={} range",
                    job::BITS.start(),
                    job::BITS.end()
                )))
            }
        })
        .collect()
}

fn parse_methods(text: &str) -> Result<Vec<EstimateMethod>, EngineError> {
    text.split(',')
        .map(|tok| {
            EstimateMethod::from_name(tok.trim()).ok_or_else(|| {
                EngineError::Spec(format!(
                    "unknown method `{}` (known: psd, agnostic, flat)",
                    tok.trim()
                ))
            })
        })
        .collect()
}

/// The built-in demonstration batch: `>= 3` distinct scenario families, a
/// word-length sweep, all three analytical methods — sized to produce at
/// least `min_jobs` jobs (by widening the bit sweep).
pub fn demo_spec(min_jobs: usize) -> BatchSpec {
    let mut text = String::from(
        "scenario fir-bank index=3\n\
         scenario iir-bank index=10\n\
         scenario fir-cascade stages=2 taps=21 cutoff=0.2\n\
         scenario iir-cascade stages=2 order=4 cutoff=0.15\n\
         scenario freq-filter\n\
         scenario dwt-pipeline levels=2\n\
         scenario random-sfg nodes=16 seed=42\n",
    );
    // 7 scenarios x 3 methods x B bit settings >= min_jobs, with the sweep
    // capped at the supported bits ceiling (a demo cannot exceed 7 x 3 x 58
    // = 1218 jobs; larger requests get the maximal sweep, not a panic).
    let sweeps = min_jobs.div_ceil(7 * 3).max(2);
    let hi = (7 + sweeps as i32 - 1).min(*job::BITS.end());
    text.push_str(&format!("batch npsd=256 bits=7..{hi} methods=psd,agnostic,flat\n"));
    BatchSpec::parse(&text).expect("demo spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    #[test]
    fn full_spec_parses_and_expands() {
        let spec = BatchSpec::parse(
            "# demo\n\
             scenario fir-bank index=0\n\
             scenario iir-cascade stages=2 order=4 cutoff=0.2\n\
             batch npsd=128 bits=8..10 methods=psd,flat rounding=nearest\n\
             refine npsd=128 budget=1e-6 start=14 min=4\n\
             min-uniform npsd=128 budget=1e-6 min=2 max=20\n\
             threads 6\n",
        )
        .unwrap();
        assert_eq!(spec.scenarios.len(), 2);
        // 2 scenarios x 3 bits x 2 methods + 2 refine + 2 min-uniform.
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2 * 3 * 2 + 2 + 2);
        assert_eq!(spec.num_units(), jobs.len());
        assert_eq!(spec.threads, Some(6));
        assert!(matches!(jobs[0].kind, JobKind::Estimate { .. }));
        assert!(matches!(jobs.last().unwrap().kind, JobKind::MinUniform { .. }));
    }

    #[test]
    fn bits_syntaxes() {
        assert_eq!(parse_bits_list("12").unwrap(), vec![12]);
        assert_eq!(parse_bits_list("8..11").unwrap(), vec![8, 9, 10, 11]);
        assert_eq!(parse_bits_list("8,12,16").unwrap(), vec![8, 12, 16]);
        assert!(parse_bits_list("14..8").is_err());
        assert!(parse_bits_list("x").is_err());
    }

    #[test]
    fn absurd_bits_are_parse_errors_not_inf_results() {
        assert!(parse_bits_list("-2000").is_err());
        assert!(parse_bits_list("0..4000").is_err());
        assert!(parse_bits_list("8,9,1000").is_err());
        // The documented extremes stay legal.
        assert!(parse_bits_list("-16..64").is_ok());
        let err =
            BatchSpec::parse("scenario freq-filter\nbatch bits=-2000\n").unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn grids_past_the_job_bound_are_spec_errors() {
        let err =
            BatchSpec::parse("scenario freq-filter\nbatch npsd=2097152\n").unwrap_err().to_string();
        assert!(err.contains("line 2") && err.contains("`npsd` must be"), "{err}");
        assert!(BatchSpec::parse("scenario freq-filter\nbatch npsd=1048576\n").is_ok());
        assert!(BatchSpec::parse("scenario freq-filter\nbatch npsd=1\n").is_err());
    }

    #[test]
    fn scenario_sweeps_expand_as_cross_products() {
        let spec = BatchSpec::parse(
            "scenario fir-bank index=0..3\n\
             batch npsd=64 bits=12 methods=psd\n",
        )
        .unwrap();
        assert_eq!(spec.scenarios.len(), 4);
        assert_eq!(spec.num_units(), 4);
        assert_eq!(spec.scenarios[0], Scenario::FirBank { index: 0 });
        assert_eq!(spec.scenarios[3], Scenario::FirBank { index: 3 });

        let spec = BatchSpec::parse(
            "scenario fir-cascade stages=1..2 cutoff=0.1,0.25 taps=9\n\
             batch npsd=64 bits=12 methods=psd\n",
        )
        .unwrap();
        assert_eq!(spec.scenarios.len(), 4, "2 stages x 2 cutoffs");
        let cutoffs: Vec<f64> = spec
            .scenarios
            .iter()
            .map(|s| match s {
                Scenario::FirCascade { cutoff, .. } => *cutoff,
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(cutoffs.contains(&0.1) && cutoffs.contains(&0.25));
    }

    #[test]
    fn sweep_misuse_is_rejected_with_context() {
        // Float ranges are not a thing; the error says so.
        let err = BatchSpec::parse("scenario fir-cascade cutoff=0.1..0.3\nbatch bits=12\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("integer-only"), "{err}");
        // Oversized sweeps are parse errors, not OOM.
        assert!(BatchSpec::parse("scenario random-sfg seed=0..99999\nbatch bits=12\n").is_err());
        // Sweep points are validated individually (index 147 is out of range).
        assert!(BatchSpec::parse("scenario fir-bank index=140..147\nbatch bits=12\n").is_err());
    }

    #[test]
    fn simulate_directive_expands_scenarios_by_bits() {
        let spec = BatchSpec::parse(
            "scenario freq-filter\n\
             scenario dwt-pipeline levels=1\n\
             simulate npsd=128 bits=8,12 samples=5000 nfft=64 seed=9 trials=3\n",
        )
        .unwrap();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        for job in &jobs {
            match job.kind {
                JobKind::Simulate { samples, nfft, seed, trials, frac_bits } => {
                    assert_eq!(samples, 5000);
                    assert_eq!(nfft, 64);
                    assert_eq!(seed, 9);
                    assert_eq!(trials, 3);
                    assert!(frac_bits == 8 || frac_bits == 12);
                }
                ref other => panic!("{other:?}"),
            }
        }
        // Defaults parse too.
        let spec = BatchSpec::parse("scenario freq-filter\nsimulate\n").unwrap();
        assert!(matches!(
            spec.jobs()[0].kind,
            JobKind::Simulate { samples: 20_000, nfft: 256, seed: 0xC0FFEE, trials: 1, .. }
        ));
        // Bad values are rejected.
        assert!(BatchSpec::parse("scenario freq-filter\nsimulate trials=0\n").is_err());
        assert!(BatchSpec::parse("scenario freq-filter\nsimulate samples=10\n").is_err());
        assert!(BatchSpec::parse("scenario freq-filter\nsimulate seed=-1\n").is_err());
    }

    #[test]
    fn budget_directive_expands_scenarios_by_bits() {
        let spec = BatchSpec::parse(
            "scenario freq-filter\n\
             scenario fir-bank index=1\n\
             budget npsd=128 bits=8,12 rounding=nearest\n",
        )
        .unwrap();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4, "2 scenarios x 2 bits");
        for job in &jobs {
            match job.kind {
                JobKind::Budget { frac_bits } => assert!(frac_bits == 8 || frac_bits == 12),
                ref other => panic!("{other:?}"),
            }
        }
        // Defaults parse; unknown keys are rejected with the allowed list.
        let spec = BatchSpec::parse("scenario freq-filter\nbudget\n").unwrap();
        assert!(matches!(spec.jobs()[0].kind, JobKind::Budget { frac_bits: 12 }));
        let err =
            BatchSpec::parse("scenario freq-filter\nbudget samples=5\n").unwrap_err().to_string();
        assert!(err.contains("unknown key `samples`"), "{err}");
    }

    #[test]
    fn errors_carry_line_numbers_and_offending_text() {
        let err = BatchSpec::parse("scenario fir-bank index=0\nbogus directive\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2"), "{text}");
        assert!(text.contains("`bogus directive`"), "offending text quoted: {text}");
        // Scenario-level defects carry the same context.
        let err = BatchSpec::parse("scenario fir-bank index=banana\nbatch bits=12\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 1") && text.contains("`scenario fir-bank index=banana`"));
        assert!(text.contains("must be an integer"), "{text}");
    }

    #[test]
    fn inline_graph_scenarios_parse_with_spaces_in_the_json() {
        let spec = BatchSpec::parse(
            "scenario graph={\"nodes\": [ {\"name\":\"x\",\"block\":\"input\"}, \
             {\"name\":\"g\",\"block\":\"gain\",\"gain\":0.5,\"inputs\":[\"x\"]} ], \
             \"outputs\": [\"g\"] }\n\
             batch npsd=64 bits=10 methods=psd\n",
        )
        .unwrap();
        assert_eq!(spec.scenarios.len(), 1);
        assert!(matches!(spec.scenarios[0], Scenario::Graph(_)));
        assert!(spec.scenarios[0].key().starts_with("graph["));
        // A defective inline graph is a line-numbered error, not a panic.
        let err = BatchSpec::parse("scenario graph={\"nodes\":[]}\nbatch bits=12\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn named_dynamic_scenarios_resolve_through_the_registry() {
        let registry = ScenarioRegistry::new();
        registry
            .define_graph_json(
                "my-codec",
                r#"{"nodes":[{"name":"x","block":"input"},
                             {"name":"g","block":"gain","gain":0.25,"inputs":["x"]}],
                    "outputs":["g"]}"#,
            )
            .unwrap();
        let spec = BatchSpec::parse_with(
            "scenario my-codec\nscenario freq-filter\nbatch npsd=64 bits=10 methods=psd\n",
            &registry,
        )
        .unwrap();
        assert_eq!(spec.scenarios.len(), 2);
        assert_eq!(spec.scenarios[0].to_spec_line(), "my-codec");
        // Without the registry the name is an error naming the line.
        let err = BatchSpec::parse("scenario my-codec\nbatch bits=12\n").unwrap_err().to_string();
        assert!(err.contains("line 1") && err.contains("my-codec"), "{err}");
    }

    #[test]
    fn job_before_scenario_rejected() {
        assert!(BatchSpec::parse("batch bits=12\n").is_err());
    }

    #[test]
    fn empty_spec_rejected() {
        assert!(BatchSpec::parse("# nothing\n").is_err());
        assert!(BatchSpec::parse("scenario freq-filter\n").is_err(), "no jobs");
    }

    #[test]
    fn demo_spec_meets_acceptance_shape() {
        let spec = demo_spec(100);
        assert!(spec.num_units() >= 100, "{} jobs", spec.num_units());
        let distinct: std::collections::HashSet<String> =
            spec.scenarios.iter().map(Scenario::key).collect();
        assert!(distinct.len() >= 3);
    }

    #[test]
    fn demo_spec_caps_oversized_requests_instead_of_panicking() {
        for n in [1219, 100_000] {
            let spec = demo_spec(n);
            assert_eq!(spec.num_units(), 7 * 3 * 58, "maximal sweep for request {n}");
        }
    }
}
