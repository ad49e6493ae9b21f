//! The fleet coordinator: live connection per daemon, pull-based
//! dispatch against the shared [`queue`](crate::queue), and the in-order
//! merge that keeps fleet output bit-identical to a single-process run.
//!
//! Per daemon, two threads share one TCP connection driven in the serve
//! protocol's `evaluate_units` mode:
//!
//! * the **sender** pulls units from the queue (own deque, then steals)
//!   whenever the daemon's in-flight window has room, and half-closes the
//!   write side when the run concludes;
//! * the **reader** forwards result lines to the merger and, on a
//!   premature EOF or read error, declares the daemon dead — which
//!   re-routes its queued units and retries its in-flight units once on
//!   the surviving daemons.
//!
//! The merger (the calling thread) re-assembles results by unit id,
//! emitting each line the moment the next-in-order id completes. Since
//! unit ids are the spec's submission order and every daemon computes
//! `run_job` deterministically, the merged stream equals the local
//! engine's output on every stable field, regardless of which daemon
//! served which unit, how many units were stolen, or whether a daemon
//! died mid-batch.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use psdacc_engine::json::{self, Json, JsonWriter};
use psdacc_engine::JobSpec;
use psdacc_obs::{Histogram, MetricsRegistry, Severity, SpanId, TraceEvent, Tracer};
use psdacc_serve::latency::{verb_of, VERBS};
use psdacc_serve::protocol::{
    define_request_line, evaluate_units_line, job_request_line, parse_define_ack,
    parse_trace_reply, read_capped_line, trace_request_line, TraceContext,
};
use psdacc_serve::{client, PROTOCOL_REVISION};

use crate::error::SchedError;
use crate::queue::{FleetQueue, QueueCounters, Unit};

/// One named graph definition to forward to daemons: `(name, canonical
/// GraphSpec JSON)`.
pub type ScenarioDefinition = (String, String);

/// Coordinator policy knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// In-flight window per daemon = advertised workers x this factor.
    /// Factor 2 (default) keeps every daemon worker busy while a refill
    /// is on the wire; factor 1 is strict one-unit-per-worker.
    pub window_factor: usize,
    /// Per-candidate TCP connect bound and `hello` reply deadline — an
    /// unreachable daemon is a fast, named setup error, never a hang.
    pub connect_timeout: Duration,
    /// Named graph definitions forwarded to **every** daemon (via
    /// `define_scenario`) during the handshake, before any unit streams.
    /// Work stealing and death re-dispatch may hand any unit to any
    /// daemon, so a unit referencing a runtime-defined scenario by name
    /// must resolve on the whole fleet — forwarding up front is what
    /// makes that unconditional.
    pub definitions: Vec<ScenarioDefinition>,
    /// Batch id to trace under. `Some(batch)` makes the coordinator
    /// record a `fleet.batch` root span, dispatch/completion spans, and
    /// structured warning events; the batch id and root span id travel on
    /// the `evaluate_units` line so every daemon's per-unit spans parent
    /// under the same root, and the daemons' retained traces are fetched
    /// and merged after the run. `None` (default) records nothing —
    /// results are bit-identical either way.
    pub trace: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            window_factor: 2,
            connect_timeout: Duration::from_secs(5),
            definitions: Vec::new(),
            trace: None,
        }
    }
}

/// One daemon's view in the fleet stats.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Daemon address as given.
    pub addr: String,
    /// Worker count the daemon advertised in its `hello`.
    pub workers: usize,
    /// In-flight window the coordinator granted it.
    pub window: usize,
    /// Units this daemon completed.
    pub served: usize,
    /// Whether the daemon died mid-batch.
    pub dead: bool,
}

/// One structured scheduling incident (daemon death, displaced unit),
/// surfaced in the fleet stats and `--stats-json` so scripts can react to
/// *which* daemon failed and *which* units moved, not just counters.
#[derive(Debug, Clone)]
pub struct FleetEvent {
    /// Incident kind: `daemon_dead`, `unit_redispatched`, `unit_rerouted`,
    /// or `trace_fetch_failed`.
    pub name: String,
    /// The daemon address involved.
    pub daemon: String,
    /// The displaced unit, for per-unit incidents.
    pub unit: Option<u64>,
    /// Human-readable context (the failure reason).
    pub detail: String,
}

impl FleetEvent {
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_str("name", &self.name);
        w.field_str("daemon", &self.daemon);
        if let Some(unit) = self.unit {
            w.field_u64("unit", unit);
        }
        w.field_str("detail", &self.detail);
        w.finish()
    }
}

/// Derived roundtrip-latency percentiles for one protocol verb, computed
/// from the coordinator's log-bucketed histogram with linear sub-bucket
/// interpolation (`quantile_interp_ns` — see `psdacc_obs::metrics`).
#[derive(Debug, Clone)]
pub struct VerbLatency {
    /// Protocol verb (`evaluate`, `greedy`, `min-uniform`, `budget`,
    /// `simulate`).
    pub verb: &'static str,
    /// Completed roundtrips recorded for this verb.
    pub count: u64,
    /// Median roundtrip, ns (interpolated).
    pub p50_ns: f64,
    /// 95th-percentile roundtrip, ns (interpolated).
    pub p95_ns: f64,
    /// 99th-percentile roundtrip, ns (interpolated).
    pub p99_ns: f64,
}

impl VerbLatency {
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_str("verb", self.verb);
        w.field_u64("count", self.count);
        w.field_f64("p50_ns", self.p50_ns);
        w.field_f64("p95_ns", self.p95_ns);
        w.field_f64("p99_ns", self.p99_ns);
        w.finish()
    }
}

/// Scheduling outcome counters (the proof of dynamic behavior).
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Total units dispatched.
    pub units: usize,
    /// Units served from a daemon other than the one they were dealt to.
    pub steals: usize,
    /// In-flight units of dead daemons retried elsewhere.
    pub redispatched: usize,
    /// Queued units of dead daemons re-routed elsewhere.
    pub rerouted: usize,
    /// Results carrying an `error` field.
    pub failed: usize,
    /// Per-daemon accounting, in the order the daemons were given.
    pub daemons: Vec<DaemonReport>,
    /// Structured incidents (deaths, displaced units), in occurrence order.
    pub events: Vec<FleetEvent>,
    /// Coordinator-side roundtrip percentiles per verb (always all four
    /// verbs, unused ones with zero counts).
    pub latency: Vec<VerbLatency>,
}

impl FleetStats {
    /// One-line JSON rendering (the CLI's stderr / `--stats-json` shape).
    pub fn to_json_line(&self) -> String {
        let daemons: Vec<String> = self
            .daemons
            .iter()
            .map(|d| {
                let mut w = JsonWriter::new();
                w.field_str("addr", &d.addr);
                w.field_usize("workers", d.workers);
                w.field_usize("window", d.window);
                w.field_usize("served", d.served);
                w.field_bool("dead", d.dead);
                w.finish()
            })
            .collect();
        let events: Vec<String> = self.events.iter().map(FleetEvent::to_json).collect();
        let latency: Vec<String> = self.latency.iter().map(VerbLatency::to_json).collect();
        let mut w = JsonWriter::new();
        w.field_str("kind", "fleet");
        w.field_usize("units", self.units);
        w.field_usize("steals", self.steals);
        w.field_usize("redispatched", self.redispatched);
        w.field_usize("rerouted", self.rerouted);
        w.field_usize("failed", self.failed);
        w.field_raw("daemons", &format!("[{}]", daemons.join(",")));
        w.field_raw("events", &format!("[{}]", events.join(",")));
        w.field_raw("latency", &format!("[{}]", latency.join(",")));
        w.finish()
    }
}

/// What a fleet run produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Result JSON lines, in submission (unit-id) order.
    pub lines: Vec<String>,
    /// Scheduling stats.
    pub stats: FleetStats,
    /// The merged end-to-end trace (coordinator spans plus every live
    /// daemon's fetched spans, stamped with their daemon address). Empty
    /// unless [`FleetConfig::trace`] was set.
    pub trace: Vec<TraceEvent>,
}

/// A connected, capacity-advertised daemon (post-`hello`).
struct DaemonLink {
    addr: String,
    stream: TcpStream,
    workers: usize,
}

/// Messages the per-daemon threads emit toward the merger. Death notices
/// travel through the same channel as results so the merger processes a
/// daemon's already-delivered results **before** its death — mpsc
/// preserves per-sender order, so a unit whose result beat the crash is
/// never miscounted as lost.
enum Msg {
    Result { daemon: usize, id: usize, line: String, failed: bool },
    Dead { daemon: usize, reason: String },
}

/// Runs `jobs` across the fleet, streaming merged result lines through
/// `on_line` in submission order.
///
/// # Errors
///
/// [`SchedError::Io`] listing **every** unreachable daemon during setup;
/// [`SchedError::Protocol`] for malformed daemon traffic;
/// [`SchedError::Fleet`] when the run cannot complete (a unit lost two
/// daemons, or no live daemon remains).
pub fn run_fleet(
    daemons: &[String],
    jobs: &[JobSpec],
    config: &FleetConfig,
    mut on_line: impl FnMut(&str),
) -> Result<FleetOutcome, SchedError> {
    if daemons.is_empty() {
        return Err(SchedError::Protocol("no daemons given".to_string()));
    }
    if jobs.is_empty() {
        return Err(SchedError::Protocol("empty job list".to_string()));
    }
    // Render every request line up front: an unshippable job is a setup
    // error, not a mid-batch surprise.
    let units: Vec<Unit> = jobs
        .iter()
        .enumerate()
        .map(|(id, spec)| Ok(Unit::new(id, job_request_line(id, spec)?, verb_of(&spec.kind))))
        .collect::<Result<_, SchedError>>()?;
    let links = connect_fleet(daemons, config)?;
    let windows: Vec<usize> =
        links.iter().map(|l| l.workers.max(1) * config.window_factor.max(1)).collect();
    let queue = FleetQueue::new(units, windows.clone());

    // Observability is opt-in and observational: a disabled tracer makes
    // every recording call a no-op branch, and nothing below feeds back
    // into scheduling decisions.
    let tracer = match &config.trace {
        Some(batch) => Tracer::new(batch),
        None => Tracer::disabled(),
    };
    let root = tracer.start("fleet.batch", None, None);
    let root_id = root.as_ref().map(|s| s.id);
    let open_line = evaluate_units_line(
        config
            .trace
            .as_ref()
            .map(|batch| TraceContext { batch: batch.clone(), span: root_id })
            .as_ref(),
    );
    let metrics = MetricsRegistry::new();
    let roundtrip: [Arc<Histogram>; VERBS.len()] = std::array::from_fn(|i| {
        metrics.histogram(&format!("fleet_roundtrip_ns{{verb={}}}", VERBS[i]))
    });

    let (tx, rx) = mpsc::channel::<Msg>();
    let mut lines: Vec<Option<String>> = vec![None; jobs.len()];
    let mut next_to_emit = 0usize;
    let mut failed = 0usize;
    let mut completed = 0usize;
    let mut events: Vec<FleetEvent> = Vec::new();
    std::thread::scope(|scope| {
        for (d, link) in links.iter().enumerate() {
            let queue = &queue;
            let sender_tx = tx.clone();
            let reader_tx = tx.clone();
            let tracer = &tracer;
            let open_line = open_line.as_str();
            scope
                .spawn(move || sender_loop(d, link, queue, &sender_tx, tracer, root_id, open_line));
            scope.spawn(move || reader_loop(d, link, queue, &reader_tx));
        }
        drop(tx);
        // The merger: emit the contiguous prefix as it becomes available.
        for msg in rx {
            let (daemon, id, line, f) = match msg {
                Msg::Result { daemon, id, line, failed } => (daemon, id, line, failed),
                Msg::Dead { daemon, reason } => {
                    let report = queue.mark_dead(daemon, &reason);
                    let addr = &links[daemon].addr;
                    events.push(FleetEvent {
                        name: "daemon_dead".to_string(),
                        daemon: addr.clone(),
                        unit: None,
                        detail: reason.clone(),
                    });
                    tracer.event(
                        "fleet.daemon_dead",
                        Severity::Warn,
                        root_id,
                        None,
                        vec![
                            ("daemon".to_string(), addr.clone()),
                            ("reason".to_string(), reason.clone()),
                        ],
                    );
                    for (name, ids) in [
                        ("unit_redispatched", &report.redispatched),
                        ("unit_rerouted", &report.rerouted),
                    ] {
                        for &unit in ids {
                            events.push(FleetEvent {
                                name: name.to_string(),
                                daemon: addr.clone(),
                                unit: Some(unit as u64),
                                detail: format!("displaced by death of {addr}"),
                            });
                            tracer.event(
                                &format!("fleet.{name}"),
                                Severity::Warn,
                                root_id,
                                Some(unit as u64),
                                vec![("daemon".to_string(), addr.clone())],
                            );
                        }
                    }
                    continue;
                }
            };
            if id >= lines.len() {
                queue.set_fatal(format!("{}: result id {id} out of range", links[daemon].addr));
                continue;
            }
            let fresh = lines[id].is_none();
            let completion = queue.complete(daemon, id, fresh);
            if let Some(done) = &completion {
                let verb = VERBS.iter().position(|&v| v == done.verb).unwrap_or(0);
                roundtrip[verb].record(done.roundtrip);
            }
            if !fresh {
                // A re-dispatched unit's first answer raced in already;
                // deterministic jobs make the copies identical, so drop it.
                continue;
            }
            if let Some(done) = &completion {
                // The coordinator's view of the unit: send to merged
                // result, covering the wire both ways plus daemon-side
                // queueing and execution (whose finer spans the daemon
                // records under the same root).
                let rt_ns = done.roundtrip.as_nanos().min(u128::from(psdacc_obs::MAX_TS_NS)) as u64;
                tracer.span_at(
                    "fleet.unit",
                    root_id,
                    Some(id as u64),
                    tracer.now_ns().saturating_sub(rt_ns),
                    rt_ns,
                    vec![
                        ("daemon".to_string(), links[daemon].addr.clone()),
                        ("verb".to_string(), done.verb.to_string()),
                    ],
                );
            }
            if f {
                failed += 1;
            }
            completed += 1;
            lines[id] = Some(line);
            while next_to_emit < lines.len() {
                match &lines[next_to_emit] {
                    Some(line) => {
                        on_line(line);
                        next_to_emit += 1;
                    }
                    None => break,
                }
            }
        }
    });
    if let Some(fatal) = queue.fatal() {
        return Err(SchedError::Fleet(fatal));
    }
    if completed != jobs.len() {
        return Err(SchedError::Fleet(format!(
            "run ended with {completed} of {} units complete",
            jobs.len()
        )));
    }
    let counters: QueueCounters = queue.counters();
    let served = queue.served();
    tracer.end_with(root, vec![("units".to_string(), jobs.len().to_string())]);
    // Merge: coordinator events first, then each live daemon's retained
    // trace stamped with its address. A fetch failure downgrades to a
    // structured event — the run itself already succeeded.
    let mut trace = tracer.snapshot();
    if tracer.is_enabled() {
        let batch = tracer.batch().to_string();
        for (d, link) in links.iter().enumerate() {
            if queue.is_dead(d) {
                continue;
            }
            match fetch_daemon_trace(&link.addr, &batch, config.connect_timeout) {
                Ok(fetched) => trace.extend(fetched),
                Err(e) => events.push(FleetEvent {
                    name: "trace_fetch_failed".to_string(),
                    daemon: link.addr.clone(),
                    unit: None,
                    detail: e.to_string(),
                }),
            }
        }
    }
    let stats = FleetStats {
        units: jobs.len(),
        steals: counters.steals,
        redispatched: counters.redispatched,
        rerouted: counters.rerouted,
        failed,
        daemons: links
            .iter()
            .enumerate()
            .map(|(d, link)| DaemonReport {
                addr: link.addr.clone(),
                workers: link.workers,
                window: windows[d],
                served: served[d],
                dead: queue.is_dead(d),
            })
            .collect(),
        events,
        latency: VERBS
            .iter()
            .zip(&roundtrip)
            .map(|(&verb, hist)| {
                let snap = hist.snapshot();
                VerbLatency {
                    verb,
                    count: snap.count,
                    p50_ns: snap.quantile_interp_ns(0.50).unwrap_or(0.0),
                    p95_ns: snap.quantile_interp_ns(0.95).unwrap_or(0.0),
                    p99_ns: snap.quantile_interp_ns(0.99).unwrap_or(0.0),
                }
            })
            .collect(),
    };
    Ok(FleetOutcome { lines: lines.into_iter().flatten().collect(), stats, trace })
}

/// Fetches the retained daemon-side trace for `batch` from one daemon,
/// stamping every event with the daemon's address.
///
/// # Errors
///
/// [`SchedError::Io`] when the daemon is unreachable;
/// [`SchedError::Protocol`] when it does not retain the batch or answers
/// malformed.
pub fn fetch_daemon_trace(
    addr: &str,
    batch: &str,
    timeout: Duration,
) -> Result<Vec<TraceEvent>, SchedError> {
    let stream = client::connect_with_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    {
        let mut writer = BufWriter::new(&stream);
        writeln!(writer, "{}", trace_request_line(batch))?;
        writer.flush()?;
    }
    let mut reader = BufReader::new(stream);
    let line = read_capped_line(&mut reader)?
        .ok_or_else(|| SchedError::Protocol(format!("{addr}: closed during trace fetch")))?;
    let mut events = parse_trace_reply(line.trim_end())
        .map_err(|e| SchedError::Protocol(format!("{addr}: {e}")))?;
    for event in &mut events {
        event.daemon = Some(addr.to_string());
    }
    Ok(events)
}

/// Fetches and merges the retained traces for `batch` from every daemon —
/// the standalone path behind `psdacc-sched trace`, for scraping a trace
/// after the submitting process is gone.
///
/// # Errors
///
/// The first per-daemon failure (see [`fetch_daemon_trace`]).
pub fn fetch_fleet_trace(
    daemons: &[String],
    batch: &str,
    timeout: Duration,
) -> Result<Vec<TraceEvent>, SchedError> {
    let mut merged = Vec::new();
    for addr in daemons {
        merged.extend(fetch_daemon_trace(addr, batch, timeout)?);
    }
    Ok(merged)
}

/// Connects and `hello`-handshakes every daemon, collecting **all**
/// failures so a half-dead fleet reports every dead address at once.
fn connect_fleet(daemons: &[String], config: &FleetConfig) -> Result<Vec<DaemonLink>, SchedError> {
    let mut results: Vec<Option<Result<DaemonLink, SchedError>>> =
        (0..daemons.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            daemons.iter().map(|addr| scope.spawn(move || connect_daemon(addr, config))).collect();
        for (slot, handle) in results.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("connect thread"));
        }
    });
    let mut links = Vec::with_capacity(daemons.len());
    let mut failures = Vec::new();
    for result in results.into_iter().flatten() {
        match result {
            Ok(link) => links.push(link),
            Err(e) => failures.push(e.to_string()),
        }
    }
    if !failures.is_empty() {
        return Err(SchedError::Io(format!(
            "{} of {} daemons failed setup: {}",
            failures.len(),
            daemons.len(),
            failures.join("; ")
        )));
    }
    Ok(links)
}

fn connect_daemon(addr: &str, config: &FleetConfig) -> Result<DaemonLink, SchedError> {
    let stream = client::connect_with_timeout(addr, config.connect_timeout)?;
    // Bound the handshake too: a listener that accepts but never answers
    // must not hang the whole fleet.
    stream.set_read_timeout(Some(config.connect_timeout))?;
    {
        let mut writer = BufWriter::new(&stream);
        writeln!(writer, "{{\"kind\":\"hello\"}}")?;
        writer.flush()?;
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let line = read_capped_line(&mut reader)?
        .ok_or_else(|| SchedError::Protocol(format!("{addr}: closed during hello")))?;
    let reply = json::parse(line.trim_end())
        .map_err(|e| SchedError::Protocol(format!("{addr}: bad hello reply: {e}")))?;
    if reply.get("kind").and_then(Json::as_str) != Some("hello") {
        return Err(SchedError::Protocol(format!(
            "{addr}: expected a hello reply, got: {}",
            line.trim_end()
        )));
    }
    let workers = reply
        .get("workers")
        .and_then(Json::as_u64)
        .ok_or_else(|| SchedError::Protocol(format!("{addr}: hello reply without workers")))?
        as usize;
    if let Some(protocol) = reply.get("protocol").and_then(Json::as_u64) {
        if protocol < PROTOCOL_REVISION as u64 {
            return Err(SchedError::Protocol(format!(
                "{addr}: daemon speaks protocol {protocol}, coordinator needs \
                 {PROTOCOL_REVISION} (evaluate_units, define_scenario)"
            )));
        }
    }
    // Forward every named graph definition before any unit may reference
    // it — still under the handshake read deadline, so a daemon that
    // swallows definitions without answering is a fast, named error.
    if !config.definitions.is_empty() {
        {
            let mut writer = BufWriter::new(&stream);
            for (name, json) in &config.definitions {
                writeln!(writer, "{}", define_request_line(name, json))?;
            }
            writer.flush()?;
        }
        for (name, _) in &config.definitions {
            let line = read_capped_line(&mut reader)?.ok_or_else(|| {
                SchedError::Protocol(format!("{addr}: closed before acknowledging `{name}`"))
            })?;
            parse_define_ack(line.trim_end())
                .map_err(|e| SchedError::Protocol(format!("{addr}: define `{name}`: {e}")))?;
        }
    }
    // Unit execution may legitimately take long (cold preprocessing).
    stream.set_read_timeout(None)?;
    Ok(DaemonLink { addr: addr.to_string(), stream, workers })
}

/// Feeds one daemon: the `evaluate_units` opener (carrying the trace
/// context when tracing), then units as the window allows, then
/// half-close. Every dispatch records a `fleet.dispatch` event with the
/// unit's queue wait and whether it was stolen. A write failure declares
/// the daemon dead (through the merger channel, so in-transit results
/// are counted first).
fn sender_loop(
    d: usize,
    link: &DaemonLink,
    queue: &FleetQueue,
    tx: &mpsc::Sender<Msg>,
    tracer: &Tracer,
    root: Option<SpanId>,
    open_line: &str,
) {
    let run = || -> std::io::Result<()> {
        let mut writer = BufWriter::new(link.stream.try_clone()?);
        writeln!(writer, "{open_line}")?;
        writer.flush()?;
        while let Some(dispatch) = queue.acquire(d) {
            writeln!(writer, "{}", dispatch.line)?;
            writer.flush()?;
            tracer.event(
                "fleet.dispatch",
                Severity::Info,
                root,
                Some(dispatch.id as u64),
                vec![
                    ("daemon".to_string(), link.addr.clone()),
                    ("stolen".to_string(), dispatch.stolen.to_string()),
                    ("queue_wait_ns".to_string(), dispatch.queue_wait.as_nanos().to_string()),
                ],
            );
        }
        writer.flush()?;
        link.stream.shutdown(Shutdown::Write)?;
        Ok(())
    };
    if let Err(e) = run() {
        let _ =
            tx.send(Msg::Dead { daemon: d, reason: format!("write to {} failed: {e}", link.addr) });
    }
}

/// Drains one daemon's result stream into the merger. EOF before the run
/// concluded — or any read/parse failure — declares the daemon dead.
fn reader_loop(d: usize, link: &DaemonLink, queue: &FleetQueue, tx: &mpsc::Sender<Msg>) {
    let dead = |reason: String| {
        let _ = tx.send(Msg::Dead { daemon: d, reason });
    };
    let mut reader = match link.stream.try_clone() {
        Ok(stream) => BufReader::new(stream),
        Err(e) => {
            dead(format!("clone of {} failed: {e}", link.addr));
            return;
        }
    };
    loop {
        match read_capped_line(&mut reader) {
            Ok(Some(line)) => {
                let trimmed = line.trim_end();
                if trimmed.is_empty() {
                    continue;
                }
                let value = match json::parse(trimmed) {
                    Ok(v) => v,
                    Err(e) => {
                        queue.set_fatal(format!("{}: bad response line: {e}", link.addr));
                        return;
                    }
                };
                match value.get("kind").and_then(Json::as_str) {
                    // The merger counts results itself; the stream's own
                    // tally adds nothing.
                    Some("summary") => {}
                    Some("error") => {
                        let detail = value
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unspecified")
                            .to_string();
                        queue.set_fatal(format!("{}: daemon rejected: {detail}", link.addr));
                        return;
                    }
                    _ => {
                        let Some(id) = value.get("job").and_then(Json::as_u64) else {
                            queue.set_fatal(format!(
                                "{}: result line without job id: {trimmed}",
                                link.addr
                            ));
                            return;
                        };
                        let failed = value.get("error").is_some();
                        let _ = tx.send(Msg::Result {
                            daemon: d,
                            id: id as usize,
                            line: trimmed.to_string(),
                            failed,
                        });
                    }
                }
            }
            Ok(None) => {
                if !queue.is_finished() {
                    dead(format!("{} closed mid-batch", link.addr));
                }
                return;
            }
            Err(e) => {
                if !queue.is_finished() {
                    dead(format!("read from {} failed: {e}", link.addr));
                }
                return;
            }
        }
    }
}
