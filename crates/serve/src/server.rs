//! The TCP daemon: accept loop, the per-connection unit-stream driver, and
//! the graceful-shutdown handle used by tests and the CLI.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use psdacc_engine::job::{run_job_traced, UnitTrace};
use psdacc_engine::json::JsonWriter;
use psdacc_engine::{Engine, JobResult, JobSpec, ScenarioRegistry, Slot};
use psdacc_obs::{Counter, Gauge, MetricsRegistry, OpenSpan, SpanId, TraceStore, Tracer};
use psdacc_sfg::GraphSpec;

use crate::error::ServeError;
use crate::latency::LatencyRegistry;
use crate::protocol::{parse_request, read_capped_line, Request, TraceContext};

/// Revision of the wire protocol this daemon speaks (`hello` advertises
/// it; revision 2 added `hello` / `evaluate_units`, revision 3 added
/// `define_scenario` / `describe` and registry-resolved scenario fields,
/// revision 4 added `metrics` / `trace` and the `evaluate_units` trace
/// context, revision 5 added the `budget` job kind with its per-node
/// attribution rows on the result line, revision 6 made every connection a
/// unit stream: job lines execute as they arrive and half-close yields the
/// `mode:"units"` summary, with or without an `evaluate_units` opener —
/// the batch mode that ran a connection's jobs only after half-close is
/// gone), revision 7 dropped the `jobs_served` field from the `stats`
/// reply (and the `serve_jobs_total` metric): with every connection a
/// unit stream it always equalled `units_served`, revision 8 added the
/// `window` field to the `hello` reply, which a coordinator now requires.
pub const PROTOCOL_REVISION: usize = 8;

/// Units per worker a connection may keep in flight, as `hello` advertises
/// it (its `window`). A coordinator sizes each daemon's window by the
/// daemon's measured time per unit up to this bound; a connection that
/// holds one unit per worker beyond it stops being read until a unit
/// finishes.
pub const WINDOW_PER_WORKER: usize = 16;

/// Default retention bound for per-batch daemon-side traces (older
/// batches evict FIFO); override with [`ServerConfig::trace_limit`].
pub const TRACE_BATCH_CAP: usize = 8;

/// Daemon-level service policy plus fault-injection knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Accept limit: connections beyond this many concurrently-served ones
    /// are answered with one `{"kind":"error",...}` line and closed
    /// immediately — explicit backpressure instead of an unbounded thread
    /// pile-up. `None` = unlimited.
    pub max_connections: Option<usize>,
    /// Fault injection: artificial delay before every unit executes.
    /// Models a slow/overloaded machine so schedulers and CI can prove
    /// load actually shifts away from stragglers.
    pub chaos_unit_delay: Duration,
    /// Fault injection: after this many units served (daemon lifetime
    /// total), abruptly shut both socket directions of the serving
    /// connection — a mid-batch crash, as seen by the peer.
    pub chaos_die_after_units: Option<usize>,
    /// How many batches' traces the daemon retains for coordinator fetch
    /// (`--trace-limit N`); `None` = [`TRACE_BATCH_CAP`]. Sizing this to
    /// the coordinator's batch concurrency prevents a busy fleet from
    /// evicting a trace before its merge.
    pub trace_limit: Option<usize>,
}

/// Shared daemon state: the engine (whose cache may be disk-persistent)
/// plus the metrics registry every service counter lives in.
#[derive(Debug)]
pub struct ServerState {
    engine: Engine,
    registry: ScenarioRegistry,
    config: ServerConfig,
    metrics: Arc<MetricsRegistry>,
    units_served: Arc<Counter>,
    connections: Arc<Counter>,
    active_connections: Arc<Gauge>,
    rejected_connections: Arc<Counter>,
    latency: LatencyRegistry,
    traces: TraceStore,
    shutdown: AtomicBool,
}

impl ServerState {
    fn new(engine: Engine, config: ServerConfig) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let latency = LatencyRegistry::new(&metrics);
        let trace_cap = config.trace_limit.unwrap_or(TRACE_BATCH_CAP);
        ServerState {
            engine,
            registry: ScenarioRegistry::new(),
            config,
            units_served: metrics.counter("serve_units_total"),
            connections: metrics.counter("serve_connections_total"),
            active_connections: metrics.gauge("serve_active_connections"),
            rejected_connections: metrics.counter("serve_rejected_connections_total"),
            latency,
            traces: TraceStore::new(trace_cap),
            metrics,
            shutdown: AtomicBool::new(false),
        }
    }

    /// The engine serving this daemon.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The daemon-wide scenario registry: definitions registered on one
    /// connection are visible to every other (clones share the definitions).
    pub fn registry(&self) -> &ScenarioRegistry {
        &self.registry
    }

    /// The daemon-wide metrics registry (service counters and per-verb
    /// latency).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The retained per-batch daemon-side traces.
    pub fn trace_store(&self) -> &TraceStore {
        &self.traces
    }

    /// Mirrors the engine/store cache counters into the metrics registry
    /// as gauges (they are sampled snapshots of another layer's cells,
    /// not counters the daemon owns), so one exposition covers every
    /// layer.
    fn sync_layer_metrics(&self) {
        let cache = self.engine.cache().stats();
        let m = &self.metrics;
        m.gauge("engine_cache_builds").set(cache.builds as i64);
        m.gauge("engine_cache_hits").set(cache.hits as i64);
        m.gauge("engine_cache_entries").set(cache.entries as i64);
        m.gauge("store_disk_hits").set(cache.disk_hits as i64);
        m.gauge("store_disk_writes").set(cache.disk_writes as i64);
        m.gauge("store_evictions").set(cache.evictions as i64);
    }

    /// Renders the `metrics` response line: the registry's canonical JSON
    /// object under `metrics`, plus the Prometheus text exposition
    /// escaped into `text` (one line on the wire, newline-separated once
    /// unescaped).
    pub fn metrics_line(&self) -> String {
        self.sync_layer_metrics();
        let mut w = JsonWriter::new();
        w.field_str("kind", "metrics");
        w.field_usize("protocol", PROTOCOL_REVISION);
        w.field_raw("metrics", &self.metrics.to_json_line());
        w.field_str("text", &self.metrics.to_prometheus());
        w.finish()
    }

    /// Renders the `trace` response line for one batch: every retained
    /// daemon-side event, as the JSONL objects inlined into an array. An
    /// unknown (or already-evicted) batch is an error line, so a
    /// coordinator fetching too late learns why the trace is incomplete.
    pub fn trace_line(&self, lineno: usize, batch: &str) -> String {
        match self.traces.get(batch) {
            Some(tracer) => {
                let events: Vec<String> =
                    tracer.snapshot().iter().map(|e| e.to_json_line()).collect();
                let mut w = JsonWriter::new();
                w.field_str("kind", "trace");
                w.field_str("batch", batch);
                w.field_raw("events", &format!("[{}]", events.join(",")));
                w.finish()
            }
            None => error_line(lineno, &format!("no trace retained for batch `{batch}`")),
        }
    }

    /// Registers a graph definition and renders the acknowledgement (or
    /// rejection) line.
    fn define_scenario_line(&self, lineno: usize, name: &str, spec: GraphSpec) -> String {
        match self.registry.define_graph(name, spec) {
            Ok(defined) => {
                let mut w = JsonWriter::new();
                w.field_str("kind", "scenario_defined");
                w.field_str("name", name);
                w.field_str("scenario", &defined.key());
                w.field_usize("nodes", defined.spec().nodes.len());
                w.field_usize("dynamic", self.registry.dynamic_count());
                w.finish()
            }
            Err(e) => error_line(lineno, &e.to_string()),
        }
    }

    /// Renders the `describe` reply (or rejection) line.
    fn describe_line(&self, lineno: usize, family: Option<&str>) -> String {
        match self.registry.describe_json_line(family) {
            Ok(line) => line,
            Err(e) => error_line(lineno, &e.to_string()),
        }
    }

    /// Renders the `hello` response line: capacity advertisement for
    /// schedulers (the worker count sets a coordinator's window floor, and
    /// `window` the most units one connection may keep in flight).
    pub fn hello_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_str("kind", "hello");
        w.field_usize("protocol", PROTOCOL_REVISION);
        w.field_usize("workers", self.engine.threads());
        w.field_usize("window", self.window());
        w.finish()
    }

    /// The in-flight window `hello` advertises: [`WINDOW_PER_WORKER`] units
    /// per worker.
    pub fn window(&self) -> usize {
        WINDOW_PER_WORKER * self.engine.threads()
    }

    /// Renders the `stats` response line: protocol revision and the count
    /// of dynamically registered scenarios, per-scenario cache hit/miss
    /// counts (sorted by scenario key; empty until the daemon has served a
    /// job), per-verb log-bucketed latency histograms, and trace-ring
    /// retention accounting (`trace_limit` / retained / dropped), so a
    /// coordinator can tell when a missing trace was evicted rather than
    /// never recorded.
    pub fn stats_line(&self) -> String {
        let cache = self.engine.cache().stats();
        let mut w = JsonWriter::new();
        w.field_str("kind", "stats");
        w.field_usize("protocol", PROTOCOL_REVISION);
        w.field_usize("threads", self.engine.threads());
        w.field_usize("dynamic_scenarios", self.registry.dynamic_count());
        w.field_u64("units_served", self.units_served.get());
        w.field_u64("connections", self.connections.get());
        w.field_i64("active_connections", self.active_connections.get());
        if let Some(max) = self.config.max_connections {
            w.field_usize("max_connections", max);
            w.field_u64("rejected_connections", self.rejected_connections.get());
        }
        let traces = self.traces.stats();
        w.field_usize("trace_limit", traces.cap);
        w.field_usize("trace_batches", traces.batches);
        w.field_usize("trace_events_retained", traces.events_retained);
        w.field_u64("trace_batches_dropped", traces.batches_dropped);
        w.field_u64("trace_events_dropped", traces.events_dropped);
        w.field_usize("cache_builds", cache.builds);
        w.field_usize("cache_hits", cache.hits);
        w.field_usize("cache_entries", cache.entries);
        w.field_usize("disk_hits", cache.disk_hits);
        w.field_usize("disk_writes", cache.disk_writes);
        w.field_usize("evictions", cache.evictions);
        let per_scenario: Vec<String> = self
            .engine
            .cache()
            .scenario_stats()
            .iter()
            .map(|s| {
                let mut entry = JsonWriter::new();
                entry.field_str("scenario", &s.scenario);
                entry.field_usize("hits", s.hits);
                entry.field_usize("misses", s.misses);
                entry.finish()
            })
            .collect();
        w.field_raw("scenario_cache", &format!("[{}]", per_scenario.join(",")));
        w.field_raw("latency", &self.latency.to_json());
        w.finish()
    }
}

/// A bound-but-not-yet-serving daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Handle over a daemon running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7341`, port 0 for ephemeral) over an
    /// engine whose cache decides the persistence story, with default
    /// service policy.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind(addr: &str, engine: Engine) -> Result<Self, ServeError> {
        Self::bind_with(addr, engine, ServerConfig::default())
    }

    /// [`Server::bind`] with an explicit [`ServerConfig`] (connection
    /// limits, fault injection).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind_with(addr: &str, engine: Engine, config: ServerConfig) -> Result<Self, ServeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Io(format!("bind {addr}: {e}")))?;
        Ok(Server { listener, state: Arc::new(ServerState::new(engine, config)) })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(|e| ServeError::Io(e.to_string()))
    }

    /// Serves until the shutdown flag is raised (never, unless a
    /// [`ServerHandle`] exists). Connection handlers run on their own
    /// threads and run their units in the engine's execution slots.
    /// Connections beyond `max_connections` are refused with one error
    /// line.
    pub fn run(&self) {
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    // The accept loop is the only incrementer, so this
                    // load-then-add admission check cannot over-admit.
                    if let Some(max) = state.config.max_connections {
                        if state.active_connections.get() >= max as i64 {
                            state.rejected_connections.inc();
                            refuse_connection(stream, max);
                            continue;
                        }
                    }
                    // Best effort: a socket that refuses the options is
                    // already dead, and its handler's first read says so.
                    let _ = stream.set_nodelay(true);
                    state.active_connections.add(1);
                    std::thread::spawn(move || {
                        state.connections.inc();
                        let result = handle_connection(&state, stream);
                        state.active_connections.add(-1);
                        if let Err(e) = result {
                            eprintln!("psdacc-serve: connection error: {e}");
                        }
                    });
                }
                Err(e) => eprintln!("psdacc-serve: accept error: {e}"),
            }
        }
    }

    /// Moves the daemon onto a background thread, returning the handle
    /// that can stop it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the local address cannot be read.
    pub fn spawn(self) -> Result<ServerHandle, ServeError> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let accept_thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, state, accept_thread })
    }
}

impl ServerHandle {
    /// Where the daemon listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Daemon state (stats, engine access).
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Raises the shutdown flag, wakes the accept loop, and joins it.
    /// In-flight connections finish on their own threads.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
    }
}

/// Answers an over-limit connection with one error line and closes it —
/// the peer learns *why* instead of seeing an unexplained hang.
fn refuse_connection(mut stream: TcpStream, max: usize) {
    let mut w = JsonWriter::new();
    w.field_str("kind", "error");
    w.field_str("error", &format!("connection limit ({max}) reached, retry later"));
    let _ = writeln!(stream, "{}", w.finish());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Renders the one `{"kind":"error",...}` line shape the daemon speaks.
fn error_line(lineno: usize, error: &str) -> String {
    let mut w = JsonWriter::new();
    w.field_str("kind", "error");
    w.field_usize("line", lineno);
    w.field_str("error", error);
    w.finish()
}

/// How long a result or reply line may wait to reach the peer's socket
/// before the daemon gives up on the peer. It counts from the moment the
/// line may first be written (for a result line held for its burst, the
/// moment it is let go) and covers every `write` call the line takes, so a
/// peer that reads a trickle cannot stretch it. The thread that finishes a unit
/// may write its connection's lines, and a peer that stops reading would
/// otherwise hold that thread in `write` for as long as it likes. A live
/// reader never meets it: a write blocks only once the kernel's socket
/// buffers are full.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// One connection as its unit tasks see it: its lines, the lock held by
/// whichever thread writes them, and the connection's fate.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    writing: Mutex<()>,
    lines: Mutex<Lines>,
    died: AtomicBool,
    executed: AtomicUsize,
    failed: AtomicUsize,
}

/// A connection's units that have not started, and its lines not yet
/// written.
#[derive(Debug, Default)]
struct Lines {
    /// Units handed to the engine that have not started.
    queued: usize,
    /// Finished units' lines, held while a unit is queued, each with its
    /// open `unit.held` span.
    held: Vec<(String, Arc<Finished>, Option<OpenSpan>)>,
    /// Lines waiting for the peer.
    waiting: Vec<Line>,
}

/// A line waiting for the peer, with the unit it completes.
#[derive(Debug)]
struct Line {
    text: String,
    ready: Instant,
    /// Held, not read: dropping it releases the unit.
    _unit: Option<Arc<Finished>>,
}

impl Conn {
    /// Queues `text` and writes the queue, unless another thread is already
    /// writing: that thread writes this line too, so at most one thread per
    /// connection ever waits on the peer. Errors only if this call's own
    /// write failed.
    fn send(&self, text: String) -> Result<(), ServeError> {
        self.lines().waiting.push(Line { text, ready: Instant::now(), _unit: None });
        self.write_queued()
    }

    /// Counts `n` units handed to the engine.
    fn enqueue(&self, n: usize) {
        self.lines().queued += n;
    }

    /// Marks a queued unit as started.
    fn start(&self) {
        self.lines().queued -= 1;
    }

    /// Takes a finished unit's line (`None` when the unit did not run),
    /// with the `unit.held` span opened when the unit's own span ended, and
    /// says whether lines wait for the peer. The line is held while another
    /// unit of the connection is queued, so a burst's lines leave in one
    /// write; once none is, or on `release`, every held line is let go,
    /// its span ends and its write deadline starts now. A line let go at
    /// once was never held and records no span.
    fn finish(
        &self,
        line: Option<(String, Option<OpenSpan>)>,
        unit: Arc<Finished>,
        release: bool,
        tracer: &Tracer,
    ) -> bool {
        let mut lines = self.lines();
        if lines.queued > 0 && !release {
            if let Some((text, wait)) = line {
                lines.held.push((text, unit, wait));
            }
            return !lines.waiting.is_empty();
        }
        let ready = Instant::now();
        let held = std::mem::take(&mut lines.held).into_iter().map(|(text, unit, wait)| {
            tracer.end(wait);
            (text, unit)
        });
        let own = line.map(|(text, _)| (text, unit));
        let let_go = held.chain(own).map(|(text, unit)| Line { text, ready, _unit: Some(unit) });
        lines.waiting.extend(let_go);
        !lines.waiting.is_empty()
    }

    /// Writes what is queued unless another thread is writing (see
    /// [`Conn::send`]).
    fn write_queued(&self) -> Result<(), ServeError> {
        self.drain(self.writing.try_lock().ok())
    }

    /// Waits for any thread writing, then writes what is queued.
    fn flush(&self) -> Result<(), ServeError> {
        self.drain(Some(self.writing.lock().expect("no thread panics while writing")))
    }

    fn lines(&self) -> MutexGuard<'_, Lines> {
        self.lines.lock().expect("no thread panics holding the lines")
    }

    fn drain<'a>(&'a self, mut writing: Option<MutexGuard<'a, ()>>) -> Result<(), ServeError> {
        let mut result = Ok(());
        while let Some(guard) = writing {
            let lines = std::mem::take(&mut self.lines().waiting);
            if let (Some(first), false) = (lines.first(), self.died.load(Ordering::SeqCst)) {
                let text: String = lines.iter().flat_map(|l| [l.text.as_str(), "\n"]).collect();
                if let Err(e) =
                    write_by(&self.stream, text.as_bytes(), first.ready + WRITE_DEADLINE)
                {
                    self.kill();
                    result = Err(e.into());
                }
            }
            drop(guard);
            drop(lines);
            // A line queued while this thread wrote found the lock taken.
            writing =
                if self.lines().waiting.is_empty() { None } else { self.writing.try_lock().ok() };
        }
        result
    }

    /// Tears both socket directions down, once: the peer sees the
    /// connection die, the handler's next read ends, and units still
    /// queued return without executing.
    fn kill(&self) {
        if !self.died.swap(true, Ordering::SeqCst) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Writes all of `bytes` by `deadline`, however many `write` calls that
/// takes.
fn write_by(mut stream: &TcpStream, mut bytes: &[u8], deadline: Instant) -> std::io::Result<()> {
    use std::io::ErrorKind;
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Tells the connection handler that one of its units has ended, once
/// the unit's task has returned (or panicked) and its line is written (or
/// dropped), so the in-flight count never leaks and the summary follows
/// every result.
#[derive(Debug)]
struct Finished(mpsc::Sender<()>);

impl Drop for Finished {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// A parsed job line waiting for its burst to run.
#[derive(Debug)]
struct Unit {
    id: usize,
    spec: JobSpec,
    span: Option<OpenSpan>,
    /// Tracer clock when the unit was parsed: its `unit.queue` span starts
    /// here.
    queued_ns: u64,
}

/// Drives one connection. Control requests are answered as soon as they
/// are read. Job lines are collected into a burst: every complete line
/// already buffered from the socket, handed to the engine in one call
/// ([`Engine::execute`]). A one-worker daemon runs the burst on the
/// handler's own thread, during its turn on the one execution slot
/// (handlers take turns in arrival order): no other slot could run a unit
/// meanwhile, so no thread hand-off buys anything. With more workers the
/// engine's worker pool runs it and the handler goes back to reading, so
/// the units that arrive meanwhile reach free workers. Slots are shared by
/// every connection, so at most `workers` units execute at once
/// daemon-wide, and a handler never runs another connection's unit.
///
/// A unit's result line is held while another unit of the connection is
/// still queued (not started); whichever thread finishes a unit when none
/// is gives its slot back and writes every held line in one write. Results
/// carry their request id, so their order is free. One thread at a time
/// writes a connection's lines: one that finds another writing leaves its
/// lines to it and moves on.
///
/// The unit stream opens with the first job line, or earlier with an
/// optional `evaluate_units` opener that may carry a trace context; an
/// opener after the stream has opened is an error line. Backpressure is
/// per connection: at most the advertised window plus one unit per worker
/// are in flight (([`WINDOW_PER_WORKER`] + 1) × workers), and a peer that
/// outruns the daemon blocks in the kernel's TCP window instead of growing
/// an unbounded queue. A unit stays in flight until its result
/// line is written. A line not written within [`WRITE_DEADLINE`] of being
/// let go kills the connection, so a peer that reads slowly or not at all
/// holds at most one thread, and only until one of its lines is that late.
/// On client half-close every unit finishes, then one
/// `{"kind":"summary","mode":"units",...}` line ends an opened stream (a
/// connection that only sent control requests gets no summary). A unit
/// whose job panics answers with an error result and counts as failed.
///
/// With a trace context, every unit records a `serve.unit` span parented
/// under the coordinator's root span, with `unit.parse` / `unit.queue` /
/// `unit.cache_lookup` / `unit.preprocess` / `unit.tau_eval` /
/// `unit.serialize` children — the per-unit timing breakdown the merged
/// fleet trace is built from. A line held while another unit of the
/// connection is queued adds a `unit.held` span beside `serve.unit`, from
/// the unit's end until the line is let go. Tracing never alters results:
/// the tracer only ever *observes* timings around the identical execution
/// path.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) -> Result<(), ServeError> {
    let max_in_flight = state.window() + state.engine.threads();
    // Room for a coordinator's whole refill (up to the advertised window of
    // lines) in one read, so it runs as one burst.
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let conn = Arc::new(Conn {
        stream,
        writing: Mutex::new(()),
        lines: Mutex::new(Lines::default()),
        died: AtomicBool::new(false),
        executed: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
    });
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut in_flight = 0usize;
    let mut burst: Vec<Unit> = Vec::new();
    // The opened unit stream: its tracer (disabled without a trace
    // context) and the coordinator span its units parent under.
    let mut opened: Option<(Arc<Tracer>, Option<SpanId>)> = None;
    let open = |trace: Option<TraceContext>| match trace {
        Some(trace) => (state.traces.create(&trace.batch), trace.span),
        None => (Arc::new(Tracer::disabled()), None),
    };
    let run_burst = |burst: &mut Vec<Unit>, tracer: &Arc<Tracer>| {
        if burst.is_empty() {
            return;
        }
        conn.enqueue(burst.len());
        state.engine.execute(burst.drain(..).map(|unit| {
            let (state, conn, tracer) = (Arc::clone(state), Arc::clone(&conn), Arc::clone(tracer));
            let finished = Arc::new(Finished(done_tx.clone()));
            move |slot: &mut Slot<'_>| run_unit(&state, &conn, &tracer, unit, finished, slot)
        }));
    };
    let mut auto_id = 0usize;
    let mut lineno = 0usize;
    let mut read_error: Option<std::io::Error> = None;
    while !conn.died.load(Ordering::SeqCst) {
        // The burst is every complete line the socket had delivered: run it
        // before a read that may block.
        if let (Some((tracer, _)), false) = (&opened, reader.buffer().contains(&b'\n')) {
            run_burst(&mut burst, tracer);
        }
        let line = match read_capped_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            // Read failures (I/O, or the MAX_LINE_BYTES protocol cap)
            // must not masquerade as a clean half-close; stop reading
            // and report below.
            Err(e) => {
                read_error = Some(e);
                break;
            }
        };
        lineno += 1;
        if line.trim().is_empty() {
            continue;
        }
        let parse_start = opened.as_ref().map_or(0, |(tracer, _)| tracer.now_ns());
        let reply = match parse_request(line.trim_end(), auto_id, &state.registry) {
            Ok(Request::Job { id, spec }) => {
                auto_id += 1;
                let (tracer, root_span) = opened.get_or_insert_with(|| open(None));
                let span = tracer.start("serve.unit", *root_span, Some(id as u64));
                let mut queued_ns = 0;
                if let Some(span) = &span {
                    // The parse happened before the span could exist;
                    // record it as a measured child ending now.
                    queued_ns = tracer.now_ns();
                    tracer.span_at(
                        "unit.parse",
                        Some(span.id),
                        Some(id as u64),
                        parse_start,
                        queued_ns.saturating_sub(parse_start),
                        Vec::new(),
                    );
                }
                // Block only at the bound, which a coordinator never
                // reaches: it keeps at most the advertised window in flight.
                in_flight -= done_rx.try_iter().count();
                if in_flight == max_in_flight {
                    run_burst(&mut burst, tracer);
                    done_rx.recv().expect("the handler holds a sender");
                    in_flight -= 1;
                }
                in_flight += 1;
                burst.push(Unit { id, spec, span, queued_ns });
                continue;
            }
            Ok(Request::EvaluateUnits { trace }) => {
                if opened.is_some() {
                    error_line(lineno, "evaluate_units must precede job requests")
                } else {
                    opened = Some(open(trace));
                    continue;
                }
            }
            Ok(Request::Stats) => state.stats_line(),
            Ok(Request::Metrics) => state.metrics_line(),
            Ok(Request::Trace { batch }) => state.trace_line(lineno, &batch),
            Ok(Request::Hello) => state.hello_line(),
            Ok(Request::Scenarios) => state.registry.scenarios_json_line(),
            Ok(Request::Describe { family }) => state.describe_line(lineno, family.as_deref()),
            Ok(Request::DefineScenario { name, spec }) => {
                state.define_scenario_line(lineno, &name, spec)
            }
            Err(e) => error_line(lineno, &e),
        };
        // A failed write has killed the connection; the units still in
        // flight see that and return unexecuted.
        conn.send(reply)?;
    }
    if let Some((tracer, _)) = &opened {
        run_burst(&mut burst, tracer);
    }
    for _ in 0..in_flight {
        done_rx.recv().expect("the handler holds a sender");
    }
    if conn.died.load(Ordering::SeqCst) {
        // Chaos kill, write failure or missed write deadline: the socket
        // is already torn down; no summary.
        return Ok(());
    }
    if let Some(e) = read_error {
        // Tell the peer (best effort) and the daemon log why the stream
        // ended without a summary.
        let _ = conn.send(error_line(lineno + 1, &e.to_string())).and_then(|()| conn.flush());
        return Err(ServeError::Io(format!("connection read failed: {e}")));
    }
    if opened.is_some() {
        let mut w = JsonWriter::new();
        w.field_str("kind", "summary");
        w.field_str("mode", "units");
        w.field_usize("jobs", conn.executed.load(Ordering::Relaxed));
        w.field_usize("failed", conn.failed.load(Ordering::Relaxed));
        conn.send(w.finish())?;
    }
    conn.flush()
}

/// One unit in an execution slot: (chaos-)execute, hand the result line to
/// the connection, count it, and — when lines are let go — give the slot
/// back and write them. A unit of a dead connection returns without
/// executing; a job that panics answers with an error result.
fn run_unit(
    state: &ServerState,
    conn: &Conn,
    tracer: &Tracer,
    unit: Unit,
    finished: Arc<Finished>,
    slot: &mut Slot<'_>,
) {
    let Unit { id, spec, span, queued_ns } = unit;
    conn.start();
    let line = (!conn.died.load(Ordering::SeqCst)).then(|| {
        let parent = span.as_ref().map(|s| s.id);
        if parent.is_some() {
            let waited = tracer.now_ns().saturating_sub(queued_ns);
            tracer.span_at("unit.queue", parent, Some(id as u64), queued_ns, waited, Vec::new());
        }
        if !state.config.chaos_unit_delay.is_zero() {
            std::thread::sleep(state.config.chaos_unit_delay);
        }
        let unit_trace = UnitTrace { tracer, parent, unit: Some(id as u64) };
        let t0 = Instant::now();
        let cache = state.engine.cache().as_ref();
        let run = || run_job_traced(cache, id, &spec, Some(&unit_trace));
        let result = panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
            let what = panic.downcast_ref::<&str>().copied();
            let what = what.or_else(|| panic.downcast_ref::<String>().map(String::as_str));
            JobResult::failed(id, &spec, format!("job panicked: {}", what.unwrap_or("no message")))
        });
        state.latency.record(&spec.kind, t0.elapsed());
        if result.error.is_some() {
            conn.failed.fetch_add(1, Ordering::Relaxed);
        }
        let serialize = tracer.start("unit.serialize", parent, Some(id as u64));
        let line = result.to_json_line();
        // Close the spans before the line can reach the peer: the peer's
        // roundtrip ends when it reads the line, and the unit's span must
        // fit inside it. A held line's wait is a span beside the unit's,
        // ended when the line is let go; the hand-off to the socket after
        // that counts as wire time.
        tracer.end(serialize);
        let root = span.as_ref().map(OpenSpan::parent);
        tracer.end(span);
        let wait = root.and_then(|root| tracer.start("unit.held", root, Some(id as u64)));
        (line, wait)
    });
    let mut chaos = false;
    if line.is_some() {
        state.units_served.inc();
        conn.executed.fetch_add(1, Ordering::Relaxed);
        let served = state.units_served.get() as usize;
        chaos = state.config.chaos_die_after_units.is_some_and(|limit| served >= limit);
    }
    if !conn.finish(line, finished, chaos, tracer) {
        return;
    }
    slot.release();
    if chaos {
        // Simulated crash once the result is out: both directions down,
        // mid-stream.
        let _ = conn.flush();
        conn.kill();
    } else {
        // A failed write has killed the connection.
        let _ = conn.write_queued();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::json;

    const DEMO_GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},{"name":"g","block":"gain","gain":0.3,"inputs":["x"]}],"outputs":["g"]}"#;

    #[test]
    fn scenarios_line_is_valid_json_covering_the_registry() {
        let state = ServerState::new(Engine::new(1), ServerConfig::default());
        let v = json::parse(&state.registry().scenarios_json_line()).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("scenarios"));
        let entries = v.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 12, "9 builtin + 3 estim");
        assert_eq!(v.get("dynamic").unwrap().as_u64(), Some(0));
        for name in ["fir-bank", "measured-welch", "cross-spectrum", "sigma-delta"] {
            assert!(entries
                .iter()
                .any(|e| e.get("name").and_then(json::Json::as_str) == Some(name)));
        }
        assert!(entries.iter().all(|e| {
            let p = e.get("provider").and_then(json::Json::as_str);
            p == Some("builtin") || p == Some("estim")
        }));
    }

    #[test]
    fn stats_line_reflects_engine_shape() {
        let state = ServerState::new(Engine::new(3), ServerConfig::default());
        state.units_served.add(17);
        state.connections.add(2);
        let v = json::parse(&state.stats_line()).unwrap();
        assert_eq!(v.get("protocol").unwrap().as_u64(), Some(PROTOCOL_REVISION as u64));
        assert_eq!(v.get("threads").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("dynamic_scenarios").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("units_served").unwrap().as_u64(), Some(17));
        assert!(v.get("jobs_served").is_none(), "revision 7 dropped jobs_served");
        // Trace retention accounting: default cap, nothing retained or
        // dropped yet.
        assert_eq!(v.get("trace_limit").unwrap().as_u64(), Some(TRACE_BATCH_CAP as u64));
        assert_eq!(v.get("trace_batches").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("trace_events_retained").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("trace_batches_dropped").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("trace_events_dropped").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("cache_builds").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("disk_hits").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("evictions").unwrap().as_u64(), Some(0));
        assert!(v.get("scenario_cache").unwrap().as_array().unwrap().is_empty());
        // Latency histograms are always present, one entry per verb, with
        // derived percentiles.
        let latency = v.get("latency").unwrap().as_array().unwrap();
        assert_eq!(latency.len(), crate::latency::VERBS.len());
        assert!(latency.iter().all(|e| e.get("p95_ns").is_some()));
        // No limit configured: the cap fields stay absent.
        assert!(v.get("max_connections").is_none());
    }

    #[test]
    fn stats_line_reports_trace_retention_under_a_configured_limit() {
        let config = ServerConfig { trace_limit: Some(2), ..ServerConfig::default() };
        let state = ServerState::new(Engine::new(1), config);
        let store = state.trace_store();
        store.create("b1").event("e", psdacc_obs::Severity::Info, None, None, Vec::new());
        store.create("b2");
        store.create("b3"); // evicts b1 and its one event
        let v = json::parse(&state.stats_line()).unwrap();
        assert_eq!(v.get("trace_limit").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("trace_batches").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("trace_events_retained").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("trace_batches_dropped").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("trace_events_dropped").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn metrics_line_carries_json_registry_and_prometheus_text() {
        let state = ServerState::new(Engine::new(2), ServerConfig::default());
        state.units_served.add(4);
        state.latency.record(
            &psdacc_engine::JobKind::Estimate {
                method: psdacc_engine::EstimateMethod::PsdMethod,
                frac_bits: 8,
            },
            Duration::from_micros(50),
        );
        let v = json::parse(&state.metrics_line()).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("metrics"));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("serve_units_total").unwrap().as_u64(), Some(4));
        assert!(m.get("serve_jobs_total").is_none());
        // Engine/store counters are mirrored into the same exposition.
        assert_eq!(m.get("engine_cache_builds").unwrap().as_i64(), Some(0));
        assert_eq!(m.get("store_evictions").unwrap().as_i64(), Some(0));
        let hist = m.get("serve_latency_ns{verb=evaluate}").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        // The Prometheus text rides along escaped; unescaped it is
        // line-oriented and label-bearing.
        let text = v.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("serve_units_total 4\n"), "{text}");
        assert!(text.contains("serve_latency_ns_count{verb=\"evaluate\"} 1\n"), "{text}");
    }

    #[test]
    fn trace_line_returns_retained_batches_and_rejects_unknown() {
        let state = ServerState::new(Engine::new(1), ServerConfig::default());
        let tracer = state.traces.create("batch-1");
        let span = tracer.start("serve.unit", None, Some(0));
        tracer.end(span);
        let v = json::parse(&state.trace_line(1, "batch-1")).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("trace"));
        assert_eq!(v.get("batch").unwrap().as_str(), Some("batch-1"));
        let events = v.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("serve.unit"));
        let err = json::parse(&state.trace_line(2, "no-such-batch")).unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn define_scenario_registers_and_counts_in_stats() {
        let state = ServerState::new(Engine::new(1), ServerConfig::default());
        let spec = psdacc_engine::graph_spec_from_str(DEMO_GRAPH).unwrap();
        let ack = state.define_scenario_line(1, "my-codec", spec.clone());
        let v = json::parse(&ack).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("scenario_defined"));
        assert_eq!(v.get("nodes").unwrap().as_u64(), Some(2));
        assert!(v.get("scenario").unwrap().as_str().unwrap().starts_with("graph["));
        let stats = json::parse(&state.stats_line()).unwrap();
        assert_eq!(stats.get("dynamic_scenarios").unwrap().as_u64(), Some(1));
        // Registered scenarios appear in the scenarios listing as dynamic.
        let list = json::parse(&state.registry().scenarios_json_line()).unwrap();
        assert_eq!(list.get("dynamic").unwrap().as_u64(), Some(1));
        // Reserved names are rejected with an error line, not a panic.
        let rejected = state.define_scenario_line(2, "fir-bank", spec);
        let v = json::parse(&rejected).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn describe_line_reports_schemas_and_rejects_unknowns() {
        let state = ServerState::new(Engine::new(1), ServerConfig::default());
        let v = json::parse(&state.describe_line(1, Some("fir-cascade"))).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("describe"));
        let fam = &v.get("families").unwrap().as_array().unwrap()[0];
        assert_eq!(fam.get("params").unwrap().as_array().unwrap().len(), 3);
        let err = json::parse(&state.describe_line(2, Some("nope"))).unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("error"));
        let all = json::parse(&state.describe_line(3, None)).unwrap();
        assert_eq!(all.get("count").unwrap().as_u64(), Some(12), "9 builtin + 3 estim");
    }

    #[test]
    fn hello_line_advertises_capacity() {
        let state = ServerState::new(Engine::new(5), ServerConfig::default());
        let v = json::parse(&state.hello_line()).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("hello"));
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("window").unwrap().as_u64(), Some(5 * WINDOW_PER_WORKER as u64));
        assert_eq!(v.get("protocol").unwrap().as_u64(), Some(PROTOCOL_REVISION as u64));
    }

    #[test]
    fn stats_line_carries_per_scenario_counters_and_latency() {
        use psdacc_engine::{JobKind, JobSpec, Scenario};
        use psdacc_fixed::RoundingMode;
        // One worker keeps the hit/miss split deterministic (racing
        // workers may both see an uninitialized slot as a miss).
        let state = ServerState::new(Engine::new(1), ServerConfig::default());
        let scenario = Scenario::FirCascade { stages: 1, taps: 9, cutoff: 0.3 };
        let job = |bits| JobSpec {
            scenario: scenario.clone(),
            npsd: 32,
            rounding: RoundingMode::Truncate,
            kind: JobKind::Estimate {
                method: psdacc_engine::EstimateMethod::PsdMethod,
                frac_bits: bits,
            },
        };
        state.engine.run(vec![job(8), job(10), job(12)]);
        // The engine ran directly (not through a connection), so feed the
        // histogram the way a connection would.
        state.latency.record(&job(8).kind, Duration::from_micros(120));
        let v = json::parse(&state.stats_line()).unwrap();
        let entries = v.get("scenario_cache").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].get("scenario").and_then(json::Json::as_str),
            Some(scenario.key().as_str())
        );
        let hits = entries[0].get("hits").unwrap().as_u64().unwrap();
        let misses = entries[0].get("misses").unwrap().as_u64().unwrap();
        assert_eq!(hits + misses, 3, "one lookup per job");
        assert_eq!(misses, 1, "single build, rest hits");
        let latency = v.get("latency").unwrap().as_array().unwrap();
        let evaluate = latency
            .iter()
            .find(|e| e.get("verb").and_then(json::Json::as_str) == Some("evaluate"))
            .unwrap();
        assert_eq!(evaluate.get("count").unwrap().as_u64(), Some(1));
    }

    /// The deadline bounds a whole write, not each `write` call: a peer
    /// that keeps reading, only slowly, still runs it out. Read at ~2.5 MB/s,
    /// the 32 MiB below would take over ten seconds to deliver, with every
    /// call making progress.
    #[test]
    fn write_deadline_covers_every_call_of_a_write() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut buf, mut total) = (vec![0u8; 64 * 1024], 0usize);
            loop {
                match (&peer).read(&mut buf) {
                    Ok(0) | Err(_) => return total,
                    Ok(n) => total += n,
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let started = Instant::now();
        let deadline = started + Duration::from_millis(500);
        assert!(write_by(&stream, &vec![b'x'; 32 << 20], deadline).is_err());
        let took = started.elapsed();
        stream.shutdown(Shutdown::Both).unwrap();
        let delivered = reader.join().unwrap();
        assert!(took >= Duration::from_millis(500), "gave up early, after {took:?}");
        assert!(took < Duration::from_secs(5), "the deadline stretched to {took:?}");
        assert!(delivered > 0, "the peer read nothing");
    }

    #[test]
    fn configured_limit_appears_in_stats() {
        let config = ServerConfig { max_connections: Some(7), ..ServerConfig::default() };
        let state = ServerState::new(Engine::new(1), config);
        let v = json::parse(&state.stats_line()).unwrap();
        assert_eq!(v.get("max_connections").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("rejected_connections").unwrap().as_u64(), Some(0));
    }
}
