//! The fleet coordinator: one live connection per daemon, pull-based
//! dispatch from the shared [`queue`](crate::queue), and the in-order
//! merge that keeps fleet output bit-identical to a single-process run.
//!
//! One thread owns each daemon link, in the serve protocol's
//! `evaluate_units` mode, and does all of its work. It runs the `hello`
//! handshake, which must name the daemon's protocol revision, worker count
//! and window, and claims its first window of units (the floor: nothing is
//! measured yet) off the front of the queue; no link sends a unit until
//! every handshake has finished, so a half-dead fleet names every
//! unreachable daemon at once. Then it sends its window in one write,
//! reads a result and every further result already buffered, merges them,
//! and refills the window in one write at once: no other thread stands
//! between a result and the next dispatch. The queue times each refill
//! from its hand-out, just before the write, to its last result, and sizes
//! the daemon's next window by that time per unit (see
//! [`queue`](crate::queue)): a fast daemon takes up to its advertised
//! window per write, a straggler stays at the floor. With nothing in
//! flight it waits on the queue, which wakes it when a dead daemon's
//! units return or the run ends. A premature EOF or an I/O
//! error declares its daemon dead, which puts the daemon's in-flight units
//! back at the front of the queue for one retry on the survivors. When the
//! run concludes the link half-closes and reads its daemon's stream to the
//! end. The caller's thread drives the first link, so a one-daemon batch
//! starts no thread and N daemons start N−1.
//!
//! The merge re-assembles results by unit id under one lock, handing each
//! line to `on_line` — on whichever link thread completed it — the moment
//! the next-in-order id completes. Since unit ids are the spec's
//! submission order and every daemon computes `run_job`
//! deterministically, the merged stream equals the local engine's output
//! on every stable field, regardless of which daemon served which unit or
//! whether a daemon died mid-batch.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::Duration;

use psdacc_engine::json::{self, Json, JsonWriter};
use psdacc_engine::JobSpec;
use psdacc_obs::{Histogram, OpenSpan, Severity, SpanId, TraceEvent, Tracer};
use psdacc_serve::latency::{verb_index, VERBS};
use psdacc_serve::protocol::{
    define_request_line, evaluate_units_line, job_request_line, parse_define_ack,
    parse_trace_reply, read_capped_line, trace_request_line, TraceContext,
};
use psdacc_serve::{client, PROTOCOL_REVISION};

use crate::error::SchedError;
use crate::queue::{Capacity, Dispatch, FleetQueue, Step, Unit};

/// One named graph definition to forward to daemons: `(name, canonical
/// GraphSpec JSON)`.
pub type ScenarioDefinition = (String, String);

/// Coordinator policy knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-candidate TCP connect bound and `hello` reply deadline — an
    /// unreachable daemon is a fast, named setup error, never a hang.
    pub connect_timeout: Duration,
    /// Named graph definitions forwarded to **every** daemon (via
    /// `define_scenario`) during the handshake, before any unit streams.
    /// Any daemon may take any unit off the queue, first dispatch or
    /// retry, so a unit referencing a runtime-defined scenario by name
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
    /// The largest in-flight window the coordinator granted it.
    pub window: usize,
    /// Writes of unit lines to this daemon: one per refill.
    pub refills: usize,
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
    /// Incident kind: `daemon_dead`, `unit_redispatched`, or
    /// `trace_fetch_failed`.
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
    /// In-flight units of dead daemons retried elsewhere.
    pub redispatched: usize,
    /// Results carrying an `error` field.
    pub failed: usize,
    /// Per-daemon accounting, in the order the daemons were given.
    pub daemons: Vec<DaemonReport>,
    /// Structured incidents (deaths, displaced units), in occurrence order.
    pub events: Vec<FleetEvent>,
    /// Coordinator-side roundtrip percentiles per verb (always every verb
    /// of `VERBS`, unused ones with zero counts).
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
                w.field_usize("refills", d.refills);
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
        w.field_usize("redispatched", self.redispatched);
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

/// Runs `jobs` across the fleet, streaming merged result lines through
/// `on_line` in submission order. `on_line` runs on the link threads, one
/// call at a time.
///
/// # Errors
///
/// [`SchedError::Io`] listing **every** unreachable daemon during setup;
/// [`SchedError::Protocol`] for malformed daemon traffic, or listing every
/// failed daemon when one of them answered its handshake malformed or with
/// an older protocol;
/// [`SchedError::Fleet`] when the run cannot complete (a unit lost two
/// daemons, or no live daemon remains).
pub fn run_fleet(
    daemons: &[String],
    jobs: &[JobSpec],
    config: &FleetConfig,
    on_line: impl FnMut(&str) + Send,
) -> Result<FleetOutcome, SchedError> {
    if daemons.is_empty() {
        return Err(SchedError::Protocol("no daemons given".to_string()));
    }
    if jobs.is_empty() {
        return Err(SchedError::Protocol("empty job list".to_string()));
    }
    let units: Vec<Unit> = jobs
        .iter()
        .enumerate()
        .map(|(id, spec)| Unit::new(id, job_request_line(id, spec), verb_index(&spec.kind)))
        .collect();
    let batch = Batch {
        daemons,
        config,
        hellos: daemons.iter().map(|_| OnceLock::new()).collect(),
        handshakes: Barrier::new(daemons.len()),
        queue: FleetQueue::new(units, daemons.len()),
        run: OnceLock::new(),
        merge: Mutex::new(Merge {
            lines: vec![None; jobs.len()],
            next: 0,
            failed: 0,
            completed: 0,
            events: Vec::new(),
            on_line,
        }),
        roundtrip: Default::default(),
    };
    std::thread::scope(|scope| {
        let batch = &batch;
        for d in 1..daemons.len() {
            scope.spawn(move || batch.link(d));
        }
        batch.link(0);
    });
    let Batch { hellos, queue, run, merge, roundtrip, .. } = batch;
    let Some(run) = run.into_inner().flatten() else {
        let failures: Vec<SchedError> =
            hellos.into_iter().filter_map(|h| h.into_inner().and_then(Result::err)).collect();
        let listed: Vec<String> = failures.iter().map(ToString::to_string).collect();
        let message = format!(
            "{} of {} daemons failed setup: {}",
            failures.len(),
            daemons.len(),
            listed.join("; ")
        );
        return Err(if failures.iter().any(|e| matches!(e, SchedError::Protocol(_))) {
            SchedError::Protocol(message)
        } else {
            SchedError::Io(message)
        });
    };
    let Merge { lines, failed, completed, mut events, .. } =
        merge.into_inner().expect("no link panics holding the merge");
    let Run { tracer, root, .. } = run;
    if let Some(fatal) = queue.fatal() {
        return Err(SchedError::Fleet(fatal));
    }
    if completed != jobs.len() {
        return Err(SchedError::Fleet(format!(
            "run ended with {completed} of {} units complete",
            jobs.len()
        )));
    }
    let tallies = queue.tallies();
    tracer.end_with(root, vec![("units".to_string(), jobs.len().to_string())]);
    // Merge: coordinator events first, then each live daemon's retained
    // trace stamped with its address. A fetch failure downgrades to a
    // structured event — the run itself already succeeded.
    let mut trace = tracer.snapshot();
    if tracer.is_enabled() {
        let batch = tracer.batch().to_string();
        for (d, addr) in daemons.iter().enumerate() {
            if queue.is_dead(d) {
                continue;
            }
            match fetch_daemon_trace(addr, &batch, config.connect_timeout) {
                Ok(fetched) => trace.extend(fetched),
                Err(e) => events.push(FleetEvent {
                    name: "trace_fetch_failed".to_string(),
                    daemon: addr.clone(),
                    unit: None,
                    detail: e.to_string(),
                }),
            }
        }
    }
    let stats = FleetStats {
        units: jobs.len(),
        redispatched: queue.redispatched(),
        failed,
        daemons: daemons
            .iter()
            .zip(hellos)
            .enumerate()
            .map(|(d, (addr, hello))| DaemonReport {
                addr: addr.clone(),
                workers: hello.into_inner().and_then(Result::ok).map_or(0, |c| c.workers),
                window: tallies[d].window,
                refills: tallies[d].refills,
                served: tallies[d].served,
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

/// One batch as its link threads share it.
struct Batch<'a, F> {
    daemons: &'a [String],
    config: &'a FleetConfig,
    /// Each link's handshake outcome: the advertised capacity, or why the
    /// daemon failed setup.
    hellos: Vec<OnceLock<Result<Capacity, SchedError>>>,
    /// Every link waits here after its handshake.
    handshakes: Barrier,
    queue: FleetQueue,
    /// The trace state, built once every handshake has finished; `None`
    /// when one failed.
    run: OnceLock<Option<Run>>,
    merge: Mutex<Merge<F>>,
    /// Roundtrip histograms, by [`VERBS`] index.
    roundtrip: [Histogram; VERBS.len()],
}

/// What the links share once every handshake has succeeded.
struct Run {
    /// Observability is opt-in and observational: a disabled tracer makes
    /// every recording call a no-op branch, and nothing feeds back into
    /// scheduling decisions.
    tracer: Tracer,
    root: Option<OpenSpan>,
    /// The `evaluate_units` opener, carrying the trace context.
    open_line: String,
}

/// The in-order merge.
struct Merge<F> {
    lines: Vec<Option<String>>,
    /// The first id not yet handed to `on_line`.
    next: usize,
    failed: usize,
    completed: usize,
    events: Vec<FleetEvent>,
    on_line: F,
}

impl<F: FnMut(&str) + Send> Batch<'_, F> {
    /// Drives daemon `d`'s link from handshake to the end of its stream.
    fn link(&self, d: usize) {
        let (stream, hello) = match connect_daemon(&self.daemons[d], self.config) {
            Ok((stream, capacity)) => (Some(stream), Ok(capacity)),
            Err(e) => (None, Err(e)),
        };
        // Claim the first window before the barrier: a thread scheduled late
        // after it still finds units of its own.
        let claimed = match &hello {
            Ok(capacity) => self.queue.claim(d, *capacity),
            Err(_) => Vec::new(),
        };
        self.hellos[d].set(hello).expect("one handshake per link");
        self.handshakes.wait();
        let (Some(run), Some(stream)) = (self.run.get_or_init(|| self.start()), stream) else {
            return;
        };
        if let Err(reason) = self.stream(d, &stream, run, claimed) {
            // After the run concluded a failing link is no death.
            if !self.queue.is_finished() {
                self.declare_dead(d, run, reason);
            }
        }
    }

    /// Opens the trace's root span once every handshake has succeeded.
    fn start(&self) -> Option<Run> {
        if !self.hellos.iter().all(|h| h.get().is_some_and(Result::is_ok)) {
            return None;
        }
        let tracer = match &self.config.trace {
            Some(batch) => Tracer::new(batch),
            None => Tracer::disabled(),
        };
        let root = tracer.start("fleet.batch", None, None);
        let context = self
            .config
            .trace
            .as_ref()
            .map(|batch| TraceContext { batch: batch.clone(), span: root.as_ref().map(|s| s.id) });
        let open_line = evaluate_units_line(context.as_ref());
        Some(Run { tracer, root, open_line })
    }

    /// The unit loop on one link: send the `claimed` units, read and merge
    /// one result and every further result already buffered, send what the
    /// window then allows in one write, and repeat until the run stops.
    /// `Err` says why the daemon is dead.
    fn stream(
        &self,
        d: usize,
        stream: &TcpStream,
        run: &Run,
        claimed: Vec<Dispatch>,
    ) -> Result<(), String> {
        let addr = &self.daemons[d];
        let mut writer = stream;
        // Room for a whole refill's result lines, so the link reads them
        // as one burst before it decides the next refill.
        let mut reader = BufReader::with_capacity(1 << 16, stream);
        let mut out = format!("{}\n", run.open_line);
        self.queue.start_clocks(d);
        let mut step = Step::Send(claimed);
        loop {
            match step {
                Step::Send(units) => {
                    for unit in &units {
                        out.push_str(&unit.line);
                        out.push('\n');
                    }
                    writer
                        .write_all(out.as_bytes())
                        .map_err(|e| format!("write to {addr} failed: {e}"))?;
                    out.clear();
                    for unit in units {
                        run.tracer.event(
                            "fleet.dispatch",
                            Severity::Info,
                            root_id(run),
                            Some(unit.id as u64),
                            vec![
                                ("daemon".to_string(), addr.clone()),
                                (
                                    "queue_wait_ns".to_string(),
                                    unit.queue_wait.as_nanos().to_string(),
                                ),
                            ],
                        );
                    }
                }
                // Refill once per burst of results, not once per line.
                Step::Read => loop {
                    match read_capped_line(&mut reader) {
                        Ok(Some(line)) => {
                            if !self.accept(d, line, run) {
                                // This daemon's traffic poisoned the run:
                                // drop the link rather than wait on a
                                // misbehaving peer.
                                return Ok(());
                            }
                        }
                        Ok(None) => return Err(format!("{addr} closed mid-batch")),
                        Err(e) => return Err(format!("read from {addr} failed: {e}")),
                    }
                    if !reader.buffer().contains(&b'\n') {
                        break;
                    }
                },
                Step::Stop => break,
            }
            step = self.queue.next(d);
        }
        // The run is over: half-close, then read to the daemon's end of
        // stream, so every unit it holds has finished when the batch
        // returns.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
        Ok(())
    }

    /// Merges one line from daemon `d`. `false` when the line poisoned the
    /// run: malformed, a daemon-side rejection, or an id out of range.
    fn accept(&self, d: usize, mut line: String, run: &Run) -> bool {
        let addr = &self.daemons[d];
        line.truncate(line.trim_end().len());
        if line.is_empty() {
            return true;
        }
        let (id, failed) = match json::scan_result(&line) {
            Err(e) => {
                self.queue.set_fatal(format!("{addr}: bad response line: {e}"));
                return false;
            }
            // The merge counts results itself; the stream's own tally
            // adds nothing.
            Ok(fields) if fields.kind.as_deref() == Some("summary") => return true,
            Ok(fields) if fields.kind.as_deref() == Some("error") => {
                let value = json::parse(&line).unwrap_or(Json::Null);
                let detail = value.get("error").and_then(Json::as_str).unwrap_or("unspecified");
                self.queue.set_fatal(format!("{addr}: daemon rejected: {detail}"));
                return false;
            }
            Ok(fields) => match fields.job {
                Some(id) => (id as usize, fields.has_error),
                None => {
                    self.queue.set_fatal(format!("{addr}: result line without job id: {line}"));
                    return false;
                }
            },
        };
        let mut merge = self.merge.lock().expect("no link panics holding the merge");
        if id >= merge.lines.len() {
            self.queue.set_fatal(format!("{addr}: result id {id} out of range"));
            return false;
        }
        let fresh = merge.lines[id].is_none();
        let completion = self.queue.complete(d, id, fresh);
        if let Some(done) = &completion {
            self.roundtrip[done.verb].record(done.roundtrip);
        }
        if !fresh {
            // The id is merged already: a daemon answered it twice.
            // Deterministic jobs make the copies identical, so drop it.
            return true;
        }
        if let Some(done) = &completion {
            // The coordinator's view of the unit: send to merged result,
            // covering the wire both ways plus daemon-side queueing and
            // execution (whose finer spans the daemon records under the
            // same root).
            let rt_ns = done.roundtrip.as_nanos().min(u128::from(psdacc_obs::MAX_TS_NS)) as u64;
            run.tracer.span_at(
                "fleet.unit",
                root_id(run),
                Some(id as u64),
                run.tracer.now_ns().saturating_sub(rt_ns),
                rt_ns,
                vec![
                    ("daemon".to_string(), addr.clone()),
                    ("verb".to_string(), VERBS[done.verb].to_string()),
                ],
            );
        }
        merge.failed += usize::from(failed);
        merge.completed += 1;
        merge.lines[id] = Some(line);
        // Emit the contiguous prefix as it becomes available.
        let Merge { lines, next, on_line, .. } = &mut *merge;
        while let Some(Some(line)) = lines.get(*next) {
            on_line(line);
            *next += 1;
        }
        true
    }

    /// Declares daemon `d` dead and records the death and every unit it
    /// displaced as structured events.
    fn declare_dead(&self, d: usize, run: &Run, reason: String) {
        let addr = &self.daemons[d];
        let mut merge = self.merge.lock().expect("no link panics holding the merge");
        let redispatched = self.queue.mark_dead(d, &reason);
        run.tracer.event(
            "fleet.daemon_dead",
            Severity::Warn,
            root_id(run),
            None,
            vec![("daemon".to_string(), addr.clone()), ("reason".to_string(), reason.clone())],
        );
        merge.events.push(FleetEvent {
            name: "daemon_dead".to_string(),
            daemon: addr.clone(),
            unit: None,
            detail: reason,
        });
        for unit in redispatched {
            merge.events.push(FleetEvent {
                name: "unit_redispatched".to_string(),
                daemon: addr.clone(),
                unit: Some(unit as u64),
                detail: format!("displaced by death of {addr}"),
            });
            run.tracer.event(
                "fleet.unit_redispatched",
                Severity::Warn,
                root_id(run),
                Some(unit as u64),
                vec![("daemon".to_string(), addr.clone())],
            );
        }
    }
}

/// The trace's root span id (`None` when not tracing).
fn root_id(run: &Run) -> Option<SpanId> {
    run.root.as_ref().map(|s| s.id)
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

/// Connects to one daemon and runs the handshake: `hello` (returning the
/// advertised capacity) and every forwarded definition. A reply without
/// `protocol`, `workers` or `window`, or from an older protocol revision,
/// is a [`SchedError::Protocol`] naming the daemon.
fn connect_daemon(addr: &str, config: &FleetConfig) -> Result<(TcpStream, Capacity), SchedError> {
    let stream = client::connect_with_timeout(addr, config.connect_timeout)?;
    // Bound the handshake too: a listener that accepts but never answers
    // must not hang the whole fleet.
    stream.set_read_timeout(Some(config.connect_timeout))?;
    {
        let mut writer = BufWriter::new(&stream);
        writeln!(writer, "{{\"kind\":\"hello\"}}")?;
        writer.flush()?;
    }
    let mut reader = BufReader::new(&stream);
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
    let field = |name: &str| {
        reply.get(name).and_then(Json::as_u64).map(|v| v as usize).ok_or_else(|| {
            SchedError::Protocol(format!(
                "{addr}: hello reply without {name} (a daemon older than protocol \
                 {PROTOCOL_REVISION}?): {}",
                line.trim_end()
            ))
        })
    };
    let protocol = field("protocol")?;
    if protocol < PROTOCOL_REVISION {
        return Err(SchedError::Protocol(format!(
            "{addr}: daemon speaks protocol {protocol}, coordinator needs \
             {PROTOCOL_REVISION} (hello window, evaluate_units, define_scenario)"
        )));
    }
    let capacity = Capacity { workers: field("workers")?, window: field("window")? };
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
    Ok((stream, capacity))
}
