//! The newline-delimited JSON wire protocol.
//!
//! Every request and response is one JSON object per line. A client
//! connection writes requests, half-closes its write side when done, and
//! reads responses until EOF. Request kinds:
//!
//! ```text
//! {"kind":"evaluate","scenario":"fir-bank index=3","npsd":256,
//!  "method":"psd","bits":12,"rounding":"truncate","id":0}
//! {"kind":"greedy","scenario":"freq-filter","budget":1e-8,"start":16,"min":4}
//! {"kind":"min-uniform","scenario":"freq-filter","budget":1e-8,"min":2,"max":24}
//! {"kind":"budget","scenario":"freq-filter","bits":12}
//! {"kind":"simulate","scenario":"freq-filter","bits":12,"samples":20000,
//!  "nfft":256,"seed":"7","trials":2}
//! {"kind":"define_scenario","name":"my-codec","graph":{"nodes":[...],"outputs":[...]}}
//! {"kind":"scenarios"}
//! {"kind":"describe","family":"fir-cascade"}
//! {"kind":"stats"}
//! {"kind":"metrics"}
//! {"kind":"hello"}
//! {"kind":"evaluate_units","trace":{"batch":"fleet-1a2b","span":"00c0ffee00000001"}}
//! {"kind":"trace","batch":"fleet-1a2b"}
//! ```
//!
//! `scenario` is the engine's spec-line syntax (`name key=value ...` for a
//! registered family — builtin or `define_scenario`-registered — or
//! `graph={...}` with an inline `GraphSpec`). `id` tags the response
//! (`"job"` field) so a coordinator can merge streams back into
//! submission order; when omitted, the daemon numbers requests per
//! connection. `seed` may be a JSON number or a string (a string preserves
//! full `u64` range; JSON numbers are doubles).
//!
//! `define_scenario` validates a declarative graph and registers it on the
//! daemon under `name` (acknowledged with one
//! `{"kind":"scenario_defined","name":...,"scenario":"graph[<hash>]",...}`
//! line); subsequent job requests — on *any* connection — may then name
//! it in their `scenario` field. Identity is the content hash of the
//! graph's canonical JSON, so two daemons given the same definition agree
//! on every cache key and store address without coordination.
//!
//! Control kinds (`scenarios`, `describe`, `stats`, `hello`,
//! `define_scenario`) are answered immediately. Every connection is a
//! **unit stream** (since protocol revision 6): each job request executes as
//! soon as it arrives, up to the daemon's worker count concurrently, with
//! its result written back the moment it completes, in completion order.
//! After the client half-closes, the stream ends with one
//! `{"kind":"summary","mode":"units",...}` line. The `psdacc-sched`
//! coordinator drives this stream to keep a bounded in-flight window per
//! daemon and refill it on every burst of completions. `hello` answers
//! `{"kind":"hello","protocol":8,"workers":W,"window":16W}`: the window is
//! the most units a coordinator keeps in flight on one connection.
//!
//! `evaluate_units` is an optional opener: sent before any job request, it
//! opens the unit stream early and may carry a trace context. After a job
//! request it is answered with an error line.
//!
//! The optional `trace` object on `evaluate_units` (protocol revision 4)
//! carries the coordinator's trace context: `batch` names the fleet batch
//! and `span` is the 16-hex-digit coordinator root span. The daemon then
//! records per-unit spans parented under that root and retains them until
//! the coordinator fetches them with `{"kind":"trace","batch":...}` —
//! answered with one `{"kind":"trace","batch":...,"events":[...]}` line
//! whose `events` are [`psdacc_obs::TraceEvent`] objects. `metrics` (also
//! revision 4) returns the daemon's metrics registry as canonical JSON
//! plus the Prometheus text exposition escaped into a `text` field.
//!
//! `budget` (protocol revision 5) is a job kind like `evaluate`: one
//! PSD-method evaluation whose result line additionally carries the
//! per-node noise-budget attribution rows under `budget` (the
//! `psdacc-obs` budget-report schema) — the ledger folds back to the
//! reported `power` bit-exactly.

use psdacc_engine::graphspec::parse_graph_spec;
use psdacc_engine::job::{self, Bound};
use psdacc_engine::json::{self, Json, JsonWriter};
use psdacc_engine::{EstimateMethod, JobKind, JobSpec, ScenarioRegistry};
use psdacc_fixed::RoundingMode;
use psdacc_obs::{SpanId, TraceEvent};
use psdacc_sfg::GraphSpec;

use crate::error::ServeError;

/// Per-line size cap on both sides of the wire. Real protocol lines are
/// hundreds of bytes; a peer streaming gigabytes with no `\n` must hit an
/// error, not grow an unbounded buffer.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// Reads one newline-terminated line, enforcing [`MAX_LINE_BYTES`].
/// Returns `Ok(None)` at EOF.
///
/// # Errors
///
/// I/O errors, plus `InvalidData` for an oversized line.
pub fn read_capped_line<R: std::io::BufRead>(reader: &mut R) -> std::io::Result<Option<String>> {
    use std::io::{BufRead as _, Read as _};
    let mut take = reader.by_ref().take(MAX_LINE_BYTES);
    let mut line = String::new();
    let n = take.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line exceeds the {MAX_LINE_BYTES}-byte protocol limit"),
        ));
    }
    Ok(Some(line))
}

/// The coordinator-side trace context carried on an `evaluate_units`
/// line: which fleet batch the units belong to and which coordinator
/// span the daemon's per-unit spans should parent under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Fleet batch id — the key the coordinator later fetches the
    /// daemon-side trace by.
    pub batch: String,
    /// Coordinator root span for the batch, if the coordinator traces.
    pub span: Option<SpanId>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A unit of engine work tagged with the response id.
    Job {
        /// Echoed as the result's `job` field.
        id: usize,
        /// The work.
        spec: JobSpec,
    },
    /// List the scenario registry.
    Scenarios,
    /// Report per-family parameter schemas (optionally one family).
    Describe {
        /// Narrow to one family, when given.
        family: Option<String>,
    },
    /// Register a declarative graph scenario under a name.
    DefineScenario {
        /// Registration name (spec-line addressable afterwards).
        name: String,
        /// The shape-checked spec (full structural validation happens at
        /// registration).
        spec: GraphSpec,
    },
    /// Report engine/cache/store counters.
    Stats,
    /// Report the metrics registry (canonical JSON + Prometheus text).
    Metrics,
    /// Advertise daemon capacity (worker count, protocol revision).
    Hello,
    /// Switch the connection into unit-streaming mode: subsequent job
    /// requests execute as they arrive (up to the daemon's worker count
    /// concurrently) and results stream back the moment each completes —
    /// the mode the `psdacc-sched` coordinator drives. The optional
    /// trace context makes the daemon record per-unit spans for the
    /// named batch.
    EvaluateUnits {
        /// Coordinator trace context, when the fleet run traces.
        trace: Option<TraceContext>,
    },
    /// Fetch the retained daemon-side trace of one batch.
    Trace {
        /// The batch id given in the `evaluate_units` trace context.
        batch: String,
    },
}

/// Parses one request line; `default_id` tags job requests that carry no
/// explicit `id`. Scenario fields resolve against `registry`, so jobs may
/// name scenarios registered earlier via `define_scenario`.
///
/// # Errors
///
/// A human-readable message (sent back to the client verbatim).
pub fn parse_request(
    line: &str,
    default_id: usize,
    registry: &ScenarioRegistry,
) -> Result<Request, String> {
    let value = json::parse(line)?;
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string `kind` field".to_string())?;
    match kind {
        "scenarios" => Ok(Request::Scenarios),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "hello" => Ok(Request::Hello),
        "evaluate_units" => {
            let trace = match value.get("trace") {
                None => None,
                Some(t) => {
                    let batch = t
                        .get("batch")
                        .and_then(Json::as_str)
                        .ok_or_else(|| "`trace` needs a string `batch` field".to_string())?
                        .to_string();
                    let span = match t.get("span") {
                        None => None,
                        Some(s) => Some(
                            s.as_str()
                                .and_then(SpanId::from_hex)
                                .ok_or_else(|| "`trace.span` must be a hex span id".to_string())?,
                        ),
                    };
                    Some(TraceContext { batch, span })
                }
            };
            Ok(Request::EvaluateUnits { trace })
        }
        "trace" => {
            let batch = value
                .get("batch")
                .and_then(Json::as_str)
                .ok_or_else(|| "trace needs a string `batch` field".to_string())?
                .to_string();
            Ok(Request::Trace { batch })
        }
        "describe" => {
            let family = match value.get("family") {
                None => None,
                Some(v) => Some(
                    v.as_str().ok_or_else(|| "`family` must be a string".to_string())?.to_string(),
                ),
            };
            Ok(Request::Describe { family })
        }
        "define_scenario" => {
            let name = value
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| "define_scenario needs a string `name` field".to_string())?
                .to_string();
            let graph = value
                .get("graph")
                .ok_or_else(|| "define_scenario needs a `graph` object".to_string())?;
            let spec = parse_graph_spec(graph).map_err(|e| e.to_string())?;
            Ok(Request::DefineScenario { name, spec })
        }
        "evaluate" | "greedy" | "min-uniform" | "budget" | "simulate" => {
            let id = match value.get("id") {
                None => default_id,
                Some(v) => v
                    .as_u64()
                    .map(|v| v as usize)
                    .ok_or_else(|| "`id` must be a non-negative integer".to_string())?,
            };
            let spec = parse_job_spec(kind, &value, registry)?;
            Ok(Request::Job { id, spec })
        }
        other => Err(format!(
            "unknown kind `{other}` (known: budget, evaluate, greedy, min-uniform, simulate, \
             define_scenario, describe, evaluate_units, hello, metrics, scenarios, stats, trace)"
        )),
    }
}

fn parse_job_spec(
    kind: &str,
    value: &Json,
    registry: &ScenarioRegistry,
) -> Result<JobSpec, String> {
    let scenario_text = value
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or_else(|| "job request needs a string `scenario` field".to_string())?;
    let scenario = registry.parse_spec_line(scenario_text).map_err(|e| e.to_string())?;
    // Name indirection is pinned by content: clients send the hash they
    // expect alongside a graph scenario's name, so a definition replaced
    // between registration and this job is a loud error instead of a
    // silently different system.
    if let Some(expected) = value.get("scenario_sha") {
        let expected =
            expected.as_str().ok_or_else(|| "`scenario_sha` must be a string".to_string())?;
        match &scenario {
            psdacc_engine::Scenario::Graph(g) if g.hash() == expected => {}
            psdacc_engine::Scenario::Graph(g) => {
                return Err(format!(
                    "scenario `{scenario_text}` resolves to graph[{}] on this daemon, but the \
                     request expects graph[{expected}] — was the definition replaced mid-batch?",
                    g.hash()
                ))
            }
            _ => {
                return Err(format!(
                    "`scenario_sha` given for `{scenario_text}`, which is not a graph scenario"
                ))
            }
        }
    }
    // The daemon faces untrusted peers, so the wire enforces the bounds
    // the batch-spec parser does — nfft=0 would panic a pool worker, and
    // absurd sizes are resource exhaustion, not jobs.
    let npsd = opt_bounded(value, &job::NPSD)?;
    let rounding = match value.get("rounding").map(|v| v.as_str()) {
        None | Some(Some("truncate")) => RoundingMode::Truncate,
        Some(Some("nearest")) => RoundingMode::RoundNearest,
        _ => return Err("`rounding` must be \"truncate\" or \"nearest\"".to_string()),
    };
    let kind = match kind {
        "evaluate" => {
            let method = match value.get("method").map(|v| v.as_str()) {
                None => Some(EstimateMethod::PsdMethod),
                Some(name) => name.and_then(EstimateMethod::from_name),
            }
            .ok_or("`method` must be \"psd\", \"agnostic\", or \"flat\"")?;
            JobKind::Estimate { method, frac_bits: req_bits(value)? }
        }
        "greedy" => JobKind::GreedyRefine {
            budget: req_budget(value)?,
            start_bits: opt_i32(value, "start", job::DEFAULT_START_BITS)?,
            min_bits: opt_i32(value, "min", job::DEFAULT_MIN_BITS)?,
        },
        "min-uniform" => {
            let min_bits = opt_i32(value, "min", job::DEFAULT_MIN_BITS)?;
            let max_bits = opt_i32(value, "max", job::DEFAULT_MAX_BITS)?;
            if min_bits > max_bits {
                return Err("`min` must not exceed `max`".to_string());
            }
            JobKind::MinUniform { budget: req_budget(value)?, min_bits, max_bits }
        }
        "budget" => JobKind::Budget { frac_bits: req_bits(value)? },
        "simulate" => JobKind::Simulate {
            frac_bits: req_bits(value)?,
            samples: opt_bounded(value, &job::SAMPLES)?,
            nfft: opt_bounded(value, &job::NFFT)?,
            seed: opt_seed(value)?,
            trials: opt_bounded(value, &job::TRIALS)?,
        },
        _ => unreachable!("caller matched job kinds"),
    };
    Ok(JobSpec { scenario, npsd, rounding, kind })
}

fn req_bits(value: &Json) -> Result<i32, String> {
    value
        .get("bits")
        .and_then(Json::as_i64)
        .and_then(|v| i32::try_from(v).ok())
        .filter(|v| job::BITS.contains(v))
        .ok_or_else(|| {
            format!("`bits` must be an integer in {}..={}", job::BITS.start(), job::BITS.end())
        })
}

fn opt_i32(value: &Json, key: &str, default: i32) -> Result<i32, String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_i64()
            .and_then(|v| i32::try_from(v).ok())
            .ok_or_else(|| format!("`{key}` must be an integer")),
    }
}

fn opt_bounded(value: &Json, bound: &Bound) -> Result<usize, String> {
    let Bound { key, default, range } = bound;
    match value.get(key) {
        None => Ok(*default),
        Some(v) => v.as_u64().map(|v| v as usize).filter(|v| range.contains(v)).ok_or_else(|| {
            format!("`{key}` must be an integer in {}..={}", range.start(), range.end())
        }),
    }
}

fn req_budget(value: &Json) -> Result<f64, String> {
    value
        .get("budget")
        .and_then(Json::as_f64)
        .filter(|b| b.is_finite() && *b > 0.0)
        .ok_or_else(|| "`budget` must be a positive number".to_string())
}

/// `seed` travels as a string to preserve the full `u64` range (JSON
/// numbers are doubles); plain numbers are accepted for hand-written
/// requests.
fn opt_seed(value: &Json) -> Result<u64, String> {
    match value.get("seed") {
        None => Ok(job::DEFAULT_SEED),
        Some(Json::Str(s)) => {
            s.parse::<u64>().map_err(|_| "`seed` string must be a u64".to_string())
        }
        Some(v) => v.as_u64().ok_or_else(|| "`seed` must be a non-negative integer".to_string()),
    }
}

/// Renders a [`JobSpec`] as the request line the daemon will parse back
/// into an identical spec — the client side of the unit stream. Every
/// spec has a wire form.
pub fn job_request_line(id: usize, spec: &JobSpec) -> String {
    let mut w = JsonWriter::new();
    w.field_usize("id", id);
    let kind = match &spec.kind {
        JobKind::Estimate { .. } => "evaluate",
        JobKind::GreedyRefine { .. } => "greedy",
        JobKind::MinUniform { .. } => "min-uniform",
        JobKind::Budget { .. } => "budget",
        JobKind::Simulate { .. } => "simulate",
    };
    w.field_str("kind", kind);
    w.field_str("scenario", &spec.scenario.to_spec_line());
    if let psdacc_engine::Scenario::Graph(g) = &spec.scenario {
        // Pin the content identity: the daemon rejects the job if its
        // registry resolves the name to a different graph (see
        // `parse_job_spec`). Redundant-but-harmless for the inline form.
        w.field_str("scenario_sha", g.hash());
    }
    w.field_usize("npsd", spec.npsd);
    w.field_str(
        "rounding",
        match spec.rounding {
            RoundingMode::Truncate => "truncate",
            RoundingMode::RoundNearest => "nearest",
        },
    );
    match &spec.kind {
        JobKind::Estimate { method, frac_bits } => {
            w.field_str("method", method.name());
            w.field_i64("bits", *frac_bits as i64);
        }
        JobKind::GreedyRefine { budget, start_bits, min_bits } => {
            w.field_f64("budget", *budget);
            w.field_i64("start", *start_bits as i64);
            w.field_i64("min", *min_bits as i64);
        }
        JobKind::MinUniform { budget, min_bits, max_bits } => {
            w.field_f64("budget", *budget);
            w.field_i64("min", *min_bits as i64);
            w.field_i64("max", *max_bits as i64);
        }
        JobKind::Budget { frac_bits } => {
            w.field_i64("bits", *frac_bits as i64);
        }
        JobKind::Simulate { frac_bits, samples, nfft, seed, trials } => {
            w.field_i64("bits", *frac_bits as i64);
            w.field_usize("samples", *samples);
            w.field_usize("nfft", *nfft);
            w.field_str("seed", &seed.to_string());
            w.field_usize("trials", *trials);
        }
    }
    w.finish()
}

/// Renders the `define_scenario` request line for a named graph
/// definition (`graph_json` must be a valid `GraphSpec` document —
/// [`psdacc_engine::canonical_json`] output round-trips exactly).
pub fn define_request_line(name: &str, graph_json: &str) -> String {
    let mut w = JsonWriter::new();
    w.field_str("kind", "define_scenario");
    w.field_str("name", name);
    w.field_raw("graph", graph_json);
    w.finish()
}

/// Parses a daemon's `scenario_defined` acknowledgement, returning the
/// content-addressed scenario key it registered.
///
/// # Errors
///
/// [`ServeError::Protocol`] for rejections or unexpected lines.
pub fn parse_define_ack(line: &str) -> Result<String, ServeError> {
    let value = json::parse(line)
        .map_err(|e| ServeError::Protocol(format!("bad define_scenario reply: {e}")))?;
    match value.get("kind").and_then(Json::as_str) {
        Some("scenario_defined") => value
            .get("scenario")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::Protocol("scenario_defined without a key".to_string())),
        Some("error") => Err(ServeError::Protocol(format!(
            "daemon rejected definition: {}",
            value.get("error").and_then(Json::as_str).unwrap_or("unspecified")
        ))),
        _ => Err(ServeError::Protocol(format!("unexpected define_scenario reply: {line}"))),
    }
}

/// Renders the `evaluate_units` request line, with the coordinator trace
/// context when the fleet run traces.
pub fn evaluate_units_line(trace: Option<&TraceContext>) -> String {
    let mut w = JsonWriter::new();
    w.field_str("kind", "evaluate_units");
    if let Some(ctx) = trace {
        let mut tw = JsonWriter::new();
        tw.field_str("batch", &ctx.batch);
        if let Some(span) = ctx.span {
            tw.field_str("span", &span.to_hex());
        }
        w.field_raw("trace", &tw.finish());
    }
    w.finish()
}

/// Renders the `trace` request line fetching one batch's daemon-side
/// trace.
pub fn trace_request_line(batch: &str) -> String {
    let mut w = JsonWriter::new();
    w.field_str("kind", "trace");
    w.field_str("batch", batch);
    w.finish()
}

/// Parses a daemon's `trace` reply into the carried events.
///
/// # Errors
///
/// [`ServeError::Protocol`] for rejections, malformed events, or
/// unexpected lines.
pub fn parse_trace_reply(line: &str) -> Result<Vec<TraceEvent>, ServeError> {
    let value =
        json::parse(line).map_err(|e| ServeError::Protocol(format!("bad trace reply: {e}")))?;
    match value.get("kind").and_then(Json::as_str) {
        Some("trace") => value
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| ServeError::Protocol("trace reply without events".to_string()))?
            .iter()
            .map(|e| {
                TraceEvent::from_json(e)
                    .map_err(|err| ServeError::Protocol(format!("bad trace event: {err}")))
            })
            .collect(),
        Some("error") => Err(ServeError::Protocol(format!(
            "daemon rejected trace fetch: {}",
            value.get("error").and_then(Json::as_str).unwrap_or("unspecified")
        ))),
        _ => Err(ServeError::Protocol(format!("unexpected trace reply: {line}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::Scenario;

    fn reg() -> ScenarioRegistry {
        ScenarioRegistry::new()
    }

    fn parse_request_reg(line: &str, default_id: usize) -> Result<Request, String> {
        parse_request(line, default_id, &ScenarioRegistry::new())
    }

    fn specs() -> Vec<JobSpec> {
        let scenario = Scenario::FirCascade { stages: 2, taps: 15, cutoff: 0.2 };
        vec![
            JobSpec {
                scenario: scenario.clone(),
                npsd: 128,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Estimate { method: EstimateMethod::PsdAgnostic, frac_bits: -3 },
            },
            JobSpec {
                scenario: Scenario::FirBank { index: 9 },
                npsd: 256,
                rounding: RoundingMode::RoundNearest,
                kind: JobKind::GreedyRefine { budget: 1.25e-9, start_bits: 16, min_bits: 4 },
            },
            JobSpec {
                scenario: Scenario::FreqFilter,
                npsd: 64,
                rounding: RoundingMode::Truncate,
                kind: JobKind::MinUniform { budget: 3.0e-7, min_bits: 2, max_bits: 24 },
            },
            JobSpec {
                scenario: scenario.clone(),
                npsd: 128,
                rounding: RoundingMode::RoundNearest,
                kind: JobKind::Simulate {
                    frac_bits: 10,
                    samples: 50_000,
                    nfft: 128,
                    seed: u64::MAX - 7,
                    trials: 3,
                },
            },
            JobSpec {
                scenario,
                npsd: 64,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Budget { frac_bits: 11 },
            },
        ]
    }

    #[test]
    fn every_job_kind_round_trips_exactly() {
        for (i, spec) in specs().into_iter().enumerate() {
            let line = job_request_line(40 + i, &spec);
            match parse_request(&line, 0, &reg()).unwrap_or_else(|e| panic!("{line}: {e}")) {
                Request::Job { id, spec: back } => {
                    assert_eq!(id, 40 + i);
                    assert_eq!(back, spec, "{line}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    const DEMO_GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},{"name":"g","block":"gain","gain":0.3,"inputs":["x"]}],"outputs":["g"]}"#;

    #[test]
    fn define_scenario_and_describe_parse() {
        let line = define_request_line("my-codec", DEMO_GRAPH);
        match parse_request_reg(&line, 0).unwrap() {
            Request::DefineScenario { name, spec } => {
                assert_eq!(name, "my-codec");
                assert_eq!(spec.nodes.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request_reg(r#"{"kind":"describe"}"#, 0),
            Ok(Request::Describe { family: None })
        );
        assert_eq!(
            parse_request_reg(r#"{"kind":"describe","family":"fir-bank"}"#, 0),
            Ok(Request::Describe { family: Some("fir-bank".to_string()) })
        );
        // Malformed graphs are parse errors, not daemon panics.
        for bad in [
            r#"{"kind":"define_scenario","graph":{}}"#,
            r#"{"kind":"define_scenario","name":"x"}"#,
            r#"{"kind":"define_scenario","name":"x","graph":{"nodes":[{"name":"n","block":"warp"}],"outputs":[]}}"#,
        ] {
            assert!(parse_request_reg(bad, 0).is_err(), "{bad}");
        }
    }

    #[test]
    fn named_and_inline_graph_scenarios_round_trip_on_the_wire() {
        let registry = reg();
        let defined = registry.define_graph_json("my-codec", DEMO_GRAPH).unwrap();
        // Named: the job line carries the name; the daemon-side registry
        // resolves it back to the same content identity.
        let spec = JobSpec {
            scenario: Scenario::Graph(defined.clone()),
            npsd: 64,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 9 },
        };
        let line = job_request_line(3, &spec);
        assert!(line.contains("\"scenario\":\"my-codec\""), "{line}");
        match parse_request(&line, 0, &registry).unwrap() {
            Request::Job { id, spec: back } => {
                assert_eq!(id, 3);
                assert_eq!(back, spec, "content identity survives the name indirection");
            }
            other => panic!("{other:?}"),
        }
        // A daemon missing the definition rejects with a clear error.
        let err = parse_request(&line, 0, &reg()).unwrap_err();
        assert!(err.contains("my-codec"), "{err}");
        // A daemon whose definition was *replaced* rejects too: the job
        // line pins the content hash, so name indirection can never
        // silently evaluate a different system.
        let replaced = reg();
        replaced.define_graph_json("my-codec", &DEMO_GRAPH.replace("0.3", "0.31")).unwrap();
        let err = parse_request(&line, 0, &replaced).unwrap_err();
        assert!(err.contains("replaced mid-batch"), "{err}");
        // Anonymous: self-contained inline JSON, no registry state needed.
        let anon = JobSpec {
            scenario: Scenario::Graph(
                psdacc_engine::GraphScenario::from_json(DEMO_GRAPH, None).unwrap(),
            ),
            ..spec.clone()
        };
        let line = job_request_line(4, &anon);
        assert!(line.contains("graph={"), "{line}");
        match parse_request(&line, 0, &reg()).unwrap() {
            Request::Job { spec: back, .. } => assert_eq!(back, anon),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scenario_sha_is_checked_against_memoized_inline_graphs() {
        let registry = reg();
        let anon = JobSpec {
            scenario: Scenario::Graph(
                psdacc_engine::GraphScenario::from_json(DEMO_GRAPH, None).unwrap(),
            ),
            npsd: 64,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 9 },
        };
        let line = job_request_line(0, &anon);
        // Twice: the second parse is served by the registry's memo.
        for _ in 0..2 {
            assert!(matches!(parse_request(&line, 0, &registry), Ok(Request::Job { .. })));
        }
        // A forged hash never selects a memo entry: the memo is keyed by
        // the graph text, and the hash is checked against what it holds.
        let Scenario::Graph(g) = &anon.scenario else { unreachable!() };
        let forged = line.replace(g.hash(), &"0".repeat(32));
        let err = parse_request(&forged, 0, &registry).unwrap_err();
        assert!(err.contains("replaced mid-batch"), "{err}");
    }

    #[test]
    fn define_ack_round_trip() {
        let mut w = JsonWriter::new();
        w.field_str("kind", "scenario_defined");
        w.field_str("name", "my-codec");
        w.field_str("scenario", "graph[abc]");
        let ack = w.finish();
        assert_eq!(parse_define_ack(&ack).unwrap(), "graph[abc]");
        assert!(parse_define_ack(r#"{"kind":"error","error":"bad graph"}"#).is_err());
        assert!(parse_define_ack("garbage").is_err());
    }

    #[test]
    fn control_kinds_parse() {
        assert_eq!(parse_request_reg(r#"{"kind":"scenarios"}"#, 0), Ok(Request::Scenarios));
        assert_eq!(parse_request_reg(r#"{"kind":"stats"}"#, 0), Ok(Request::Stats));
        assert_eq!(parse_request_reg(r#"{"kind":"metrics"}"#, 0), Ok(Request::Metrics));
        assert_eq!(parse_request_reg(r#"{"kind":"hello"}"#, 0), Ok(Request::Hello));
        assert_eq!(
            parse_request_reg(r#"{"kind":"evaluate_units"}"#, 0),
            Ok(Request::EvaluateUnits { trace: None })
        );
        assert_eq!(
            parse_request_reg(r#"{"kind":"trace","batch":"b7"}"#, 0),
            Ok(Request::Trace { batch: "b7".to_string() })
        );
        assert!(parse_request_reg(r#"{"kind":"trace"}"#, 0).is_err());
    }

    #[test]
    fn evaluate_units_trace_context_round_trips() {
        // Bare: no trace context on the wire.
        let line = evaluate_units_line(None);
        assert_eq!(line, r#"{"kind":"evaluate_units"}"#);
        assert_eq!(parse_request_reg(&line, 0), Ok(Request::EvaluateUnits { trace: None }));
        // Full context: batch and coordinator root span survive.
        let ctx = TraceContext {
            batch: "fleet-1a2b".to_string(),
            span: Some(SpanId(0x00c0_ffee_0000_0001)),
        };
        let line = evaluate_units_line(Some(&ctx));
        assert_eq!(
            parse_request_reg(&line, 0),
            Ok(Request::EvaluateUnits { trace: Some(ctx.clone()) })
        );
        // Batch-only context (coordinator not tracing spans itself).
        let ctx = TraceContext { batch: "b".to_string(), span: None };
        let line = evaluate_units_line(Some(&ctx));
        assert_eq!(parse_request_reg(&line, 0), Ok(Request::EvaluateUnits { trace: Some(ctx) }));
        // Malformed contexts are loud errors.
        for bad in [
            r#"{"kind":"evaluate_units","trace":{}}"#,
            r#"{"kind":"evaluate_units","trace":{"batch":"b","span":"zz"}}"#,
        ] {
            assert!(parse_request_reg(bad, 0).is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_reply_round_trips() {
        let event = TraceEvent {
            ts_ns: 5,
            name: "serve.unit".to_string(),
            kind: psdacc_obs::EventKind::Span { dur_ns: 9 },
            span: SpanId(3),
            parent: Some(SpanId(1)),
            batch: "b".to_string(),
            unit: Some(0),
            daemon: None,
            severity: psdacc_obs::Severity::Info,
            fields: Vec::new(),
        };
        let reply =
            format!(r#"{{"kind":"trace","batch":"b","events":[{}]}}"#, event.to_json_line());
        assert_eq!(parse_trace_reply(&reply).unwrap(), vec![event]);
        assert!(parse_trace_reply(r#"{"kind":"error","error":"no such batch"}"#).is_err());
        assert!(parse_trace_reply("garbage").is_err());
        assert_eq!(trace_request_line("b"), r#"{"kind":"trace","batch":"b"}"#);
    }

    #[test]
    fn defaults_fill_in() {
        let r = parse_request_reg(r#"{"kind":"evaluate","scenario":"freq-filter","bits":12}"#, 5)
            .unwrap();
        match r {
            Request::Job { id, spec } => {
                assert_eq!(id, 5, "default id used");
                assert_eq!(spec.npsd, 256);
                assert_eq!(spec.rounding, RoundingMode::Truncate);
                assert_eq!(
                    spec.kind,
                    JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 12 }
                );
            }
            other => panic!("{other:?}"),
        }
        let r = parse_request_reg(r#"{"kind":"simulate","scenario":"freq-filter","bits":8}"#, 0)
            .unwrap();
        match r {
            Request::Job { spec, .. } => assert_eq!(
                spec.kind,
                JobKind::Simulate {
                    frac_bits: 8,
                    samples: 20_000,
                    nfft: 256,
                    seed: 0xC0FFEE,
                    trials: 1
                }
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("not json", "bad literal"),
            (r#"{"no":"kind"}"#, "kind"),
            (r#"{"kind":"bogus"}"#, "unknown kind"),
            (r#"{"kind":"evaluate","bits":12}"#, "scenario"),
            (r#"{"kind":"evaluate","scenario":"freq-filter"}"#, "bits"),
            (r#"{"kind":"evaluate","scenario":"no-such","bits":12}"#, "unknown scenario"),
            (r#"{"kind":"budget","scenario":"freq-filter"}"#, "bits"),
            (r#"{"kind":"greedy","scenario":"freq-filter","budget":-1}"#, "budget"),
            (r#"{"kind":"greedy","scenario":"freq-filter"}"#, "budget"),
            (
                r#"{"kind":"min-uniform","scenario":"freq-filter","budget":1e-9,"min":9,"max":3}"#,
                "min",
            ),
            (r#"{"kind":"evaluate","scenario":"freq-filter","bits":12,"id":-1}"#, "id"),
            (r#"{"kind":"evaluate","scenario":"freq-filter","bits":12,"npsd":1}"#, "npsd"),
            (
                r#"{"kind":"evaluate","scenario":"freq-filter","bits":12,"rounding":"up"}"#,
                "rounding",
            ),
        ] {
            let err = parse_request(line, 0, &reg()).unwrap_err();
            assert!(err.contains(needle), "`{line}` -> `{err}` (wanted `{needle}`)");
        }
    }

    #[test]
    fn hostile_sizes_are_rejected_at_the_wire() {
        // nfft=0 would panic a pool worker deep in the Welch PSD; absurd
        // sample/npsd counts are resource exhaustion; word lengths past
        // the batch-spec bounds are typos. All parse errors.
        for line in [
            r#"{"kind":"simulate","scenario":"freq-filter","bits":8,"nfft":0}"#,
            r#"{"kind":"simulate","scenario":"freq-filter","bits":8,"trials":0}"#,
            r#"{"kind":"simulate","scenario":"freq-filter","bits":8,"samples":10}"#,
            r#"{"kind":"simulate","scenario":"freq-filter","bits":8,"samples":999999999999}"#,
            r#"{"kind":"evaluate","scenario":"freq-filter","bits":8,"npsd":1000000000}"#,
            r#"{"kind":"evaluate","scenario":"freq-filter","bits":65}"#,
            r#"{"kind":"budget","scenario":"freq-filter","bits":-17}"#,
            r#"{"kind":"simulate","scenario":"freq-filter","bits":2147483647}"#,
        ] {
            assert!(parse_request(line, 0, &reg()).is_err(), "{line}");
        }
        // The bounds' extremes are the batch spec's, and legal.
        for bits in [-16, 64] {
            let line = format!(r#"{{"kind":"evaluate","scenario":"freq-filter","bits":{bits}}}"#);
            assert!(parse_request(&line, 0, &reg()).is_ok(), "{line}");
        }
    }

    #[test]
    fn oversized_lines_are_errors_not_allocations() {
        let mut input = std::io::Cursor::new(vec![b'x'; 2 * 1024 * 1024]);
        let err = read_capped_line(&mut std::io::BufReader::new(&mut input)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Normal lines and EOF behave like BufRead::lines.
        let mut ok = std::io::BufReader::new(std::io::Cursor::new(b"a\nb".to_vec()));
        assert_eq!(read_capped_line(&mut ok).unwrap().as_deref(), Some("a\n"));
        assert_eq!(read_capped_line(&mut ok).unwrap().as_deref(), Some("b"));
        assert_eq!(read_capped_line(&mut ok).unwrap(), None);
    }

    #[test]
    fn result_line_carries_the_request_id() {
        use psdacc_engine::EvaluatorCache;
        let cache = EvaluatorCache::new();
        let spec = &specs()[0];
        // The daemon runs each unit under its request id, so the rendered
        // result carries it.
        let line = psdacc_engine::job::run_job(&cache, 991, spec).to_json_line();
        let v = psdacc_engine::json::parse(&line).unwrap();
        assert_eq!(v.get("job").unwrap().as_u64(), Some(991));
    }
}
