//! `psdacc-sched` — the fleet-coordinator CLI.
//!
//! ```text
//! psdacc-sched submit --daemons HOST:PORT[,HOST:PORT...] SPECFILE
//!                     [--graph NAME=FILE]... [--window-factor N]
//!                     [--timeout-seconds N] [--stats-json PATH]
//! ```
//!
//! Expands a batch spec locally and dispatches it across the daemons with
//! pull-based work stealing (each daemon's in-flight window sized by its
//! advertised worker count; stragglers' queued units re-routed to idle
//! daemons; a dead daemon's units retried once elsewhere). Merged result
//! lines stream to stdout in submission order — bit-identical to a local
//! `psdacc-engine run` on every stable field — and one `{"kind":"fleet"}`
//! stats line (steal / re-dispatch counters, per-daemon accounting) goes
//! to stderr, or to `--stats-json PATH` for scripts.
//!
//! `--graph NAME=FILE` (repeatable) registers a declarative `GraphSpec`
//! JSON file as a named scenario: locally (so the spec parses) and on
//! **every** daemon via `define_scenario` before any unit streams — work
//! stealing may hand any unit to any daemon, so definitions must be
//! fleet-wide.

use std::process::ExitCode;
use std::time::Duration;

use psdacc_engine::{BatchSpec, ScenarioRegistry};
use psdacc_obs::analyze;
use psdacc_sched::{fetch_fleet_trace, run_fleet, FleetConfig};
use psdacc_serve::client;

const USAGE: &str = "usage:
  psdacc-sched submit --daemons HOST:PORT[,HOST:PORT...] SPECFILE
                      [--graph NAME=FILE]... [--trace-dir DIR]
                      [--window-factor N]
                      [--timeout-seconds N] [--stats-json PATH]
                      [--trace PATH] [--batch ID]
  psdacc-sched trace  --daemons HOST:PORT[,HOST:PORT...] --batch ID
                      [--timeout-seconds N]
  psdacc-sched analyze --trace PATH [--json]

Dispatches a batch spec across psdacc-serve daemons with pull-based work
stealing: per-daemon in-flight windows sized by advertised capacity,
idle daemons stealing stragglers' queued units, dead daemons' units
retried once elsewhere, results merged back in submission order
(bit-identical to a single-process run). --graph NAME=FILE (repeatable)
registers a GraphSpec JSON file as scenario NAME locally and on every
daemon (define_scenario) before units stream; --trace-dir DIR resolves
\"trace\":\"<hash>\" references in measured nodes to inline samples from
a content-addressed trace store before definitions ship, so daemons
never hold trace state.

--trace PATH records an end-to-end trace of the run: coordinator spans
(fleet.batch root, per-unit roundtrips, dispatch/steal events) merged
with every daemon's per-unit stage spans, written to PATH as JSONL.
--batch ID names the trace batch (default: derived from the wall clock).
`trace` fetches the daemons' retained trace for a batch id after the
fact and prints it as JSONL to stdout.

`analyze` reads a merged fleet trace (the --trace PATH output) and
reports where the time went: the critical path bounding wall-clock,
per-stage totals (parse/cache_lookup/preprocess/tau_eval/serialize),
and per-daemon utilization with dispatch/steal/queue-wait attribution.
Human text by default; --json emits the single-line machine report.
";

struct SubmitArgs {
    daemons: Vec<String>,
    spec_path: String,
    graphs: Vec<String>,
    trace_dir: Option<String>,
    window_factor: usize,
    timeout: Duration,
    stats_json: Option<String>,
    trace: Option<String>,
    batch: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("submit") => match parse_submit(&args[1..]) {
            Ok(args) => cmd_submit(&args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("trace") => cmd_trace(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Fetches the daemons' retained traces for one batch id and prints the
/// merged JSONL to stdout.
fn cmd_trace(args: &[String]) -> ExitCode {
    let mut daemons: Vec<String> = Vec::new();
    let mut batch: Option<String> = None;
    let mut timeout = Duration::from_secs(30);
    let mut i = 0;
    while i < args.len() {
        let token = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("missing value for {name}"))
        };
        let parsed = match token {
            "--daemons" => value("--daemons").map(|v| {
                daemons = v
                    .split(',')
                    .map(str::trim)
                    .filter(|d| !d.is_empty())
                    .map(String::from)
                    .collect();
            }),
            "--batch" => value("--batch").map(|v| batch = Some(v)),
            "--timeout-seconds" => value("--timeout-seconds").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| timeout = Duration::from_secs(n))
                    .map_err(|_| "--timeout-seconds must be a non-negative integer".to_string())
            }),
            other => Err(format!(
                "unknown argument `{other}` (allowed: --daemons, --batch, \
                                  --timeout-seconds)"
            )),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let Some(batch) = batch else {
        eprintln!("trace needs --batch ID\n{USAGE}");
        return ExitCode::FAILURE;
    };
    if daemons.is_empty() {
        eprintln!("missing --daemons HOST:PORT[,HOST:PORT...]\n{USAGE}");
        return ExitCode::FAILURE;
    }
    match fetch_fleet_trace(&daemons, &batch, timeout) {
        Ok(events) => {
            let mut out = String::new();
            for event in &events {
                out.push_str(&event.to_json_line());
                out.push('\n');
            }
            print!("{out}");
            eprintln!("{} events from {} daemons for batch {batch}", events.len(), daemons.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Analyzes a merged fleet trace file: critical path, stage totals, and
/// daemon utilization, as human text or a single JSON line.
fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut trace_path: Option<String> = None;
    let mut json_out = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(v) => trace_path = Some(v.clone()),
                    None => {
                        eprintln!("missing value for --trace\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => json_out = true,
            other => {
                eprintln!("unknown argument `{other}` (allowed: --trace, --json)\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(path) = trace_path else {
        eprintln!("analyze needs --trace PATH\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = match analyze::parse_trace(&text).and_then(|events| analyze::analyze(&events)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json_out {
        println!("{}", analysis.to_json_line());
    } else {
        print!("{}", analysis.to_text());
    }
    ExitCode::SUCCESS
}

fn parse_submit(args: &[String]) -> Result<SubmitArgs, String> {
    let mut daemons: Vec<String> = Vec::new();
    let mut spec_path: Option<String> = None;
    let mut window_factor = 2usize;
    let mut timeout = Duration::from_secs(30);
    let mut stats_json = None;
    let mut graphs: Vec<String> = Vec::new();
    let mut trace_dir: Option<String> = None;
    let mut trace = None;
    let mut batch = None;
    let mut i = 0;
    while i < args.len() {
        let token = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("missing value for {name}"))
        };
        match token {
            "--daemons" => {
                daemons = value("--daemons")?
                    .split(',')
                    .map(str::trim)
                    .filter(|d| !d.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--window-factor" => {
                window_factor = value("--window-factor")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--window-factor must be a positive integer")?;
            }
            "--timeout-seconds" => {
                timeout = Duration::from_secs(
                    value("--timeout-seconds")?
                        .parse::<u64>()
                        .map_err(|_| "--timeout-seconds must be a non-negative integer")?,
                );
            }
            "--stats-json" => stats_json = Some(value("--stats-json")?),
            "--graph" => graphs.push(value("--graph")?),
            "--trace-dir" => trace_dir = Some(value("--trace-dir")?),
            "--trace" => trace = Some(value("--trace")?),
            "--batch" => batch = Some(value("--batch")?),
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown argument `{other}` (allowed: --daemons, --graph, --trace-dir, \
                     --window-factor, --timeout-seconds, --stats-json, --trace, --batch)"
                ));
            }
            positional => {
                if spec_path.is_some() {
                    return Err("more than one SPECFILE given".to_string());
                }
                spec_path = Some(positional.to_string());
            }
        }
        i += 1;
    }
    if daemons.is_empty() {
        return Err("missing --daemons HOST:PORT[,HOST:PORT...]".to_string());
    }
    if batch.is_some() && trace.is_none() {
        return Err("--batch names the trace batch and needs --trace PATH".to_string());
    }
    let spec_path = spec_path.ok_or("submit needs a SPECFILE")?;
    Ok(SubmitArgs {
        daemons,
        spec_path,
        graphs,
        trace_dir,
        window_factor,
        timeout,
        stats_json,
        trace,
        batch,
    })
}

fn cmd_submit(args: &SubmitArgs) -> ExitCode {
    let text = match std::fs::read_to_string(&args.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };
    let registry = ScenarioRegistry::new();
    // Trace references resolve client-side; daemons only see inline
    // samples, keeping content identity supply-independent.
    let traces = match args.trace_dir.as_ref().map(psdacc_engine::TraceStore::open).transpose() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--trace-dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let definitions = match registry.define_graph_files_resolved(&args.graphs, traces.as_ref()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match BatchSpec::parse_with(&text, &registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };
    let jobs = spec.jobs();
    // Wait for every daemon concurrently; a dead fleet fails fast with
    // every unreachable address named.
    if let Err(e) = client::wait_all_ready(&args.daemons, args.timeout) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    // The trace batch id: caller-chosen, or derived from the wall clock
    // so concurrent submits against the same daemons stay distinct.
    let batch = args.trace.as_ref().map(|_| {
        args.batch.clone().unwrap_or_else(|| {
            let wall = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            format!("fleet-{:08x}", (wall ^ u64::from(std::process::id())) & 0xffff_ffff)
        })
    });
    let config = FleetConfig {
        window_factor: args.window_factor,
        definitions,
        trace: batch.clone(),
        ..FleetConfig::default()
    };
    let outcome = {
        let mut out = std::io::stdout().lock();
        run_fleet(&args.daemons, &jobs, &config, |line| {
            use std::io::Write as _;
            let _ = writeln!(out, "{line}");
        })
    };
    match outcome {
        Ok(outcome) => {
            let stats_line = outcome.stats.to_json_line();
            eprintln!("{stats_line}");
            if let Some(path) = &args.stats_json {
                if let Err(e) = std::fs::write(path, format!("{stats_line}\n")) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = &args.trace {
                let mut body = String::new();
                for event in &outcome.trace {
                    body.push_str(&event.to_json_line());
                    body.push('\n');
                }
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "trace: {} events for batch {} -> {path}",
                    outcome.trace.len(),
                    batch.as_deref().unwrap_or("?")
                );
            }
            eprintln!(
                "{} units across {} daemons | {} steals, {} re-dispatched | {} failed",
                outcome.stats.units,
                args.daemons.len(),
                outcome.stats.steals,
                outcome.stats.redispatched,
                outcome.stats.failed
            );
            if outcome.stats.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
