//! Structured tracing: spans and events as single-line JSON (JSONL).
//!
//! # Trace format
//!
//! Each line is one [`TraceEvent`]:
//!
//! ```json
//! {"ts_ns":12345,"kind":"span","name":"serve.unit","span":"00c0ffee00000001",
//!  "parent":"00c0ffee00000000","dur_ns":678,"batch":"fleet-1a2b",
//!  "unit":4,"daemon":"127.0.0.1:7455","severity":"warn","fields":{"k":"v"}}
//! ```
//!
//! * `ts_ns` — start time in nanoseconds on the emitting process's
//!   monotonic clock (each process has its own epoch; ordering is only
//!   meaningful per process, parentage is meaningful fleet-wide).
//! * `kind` — `span` (has `dur_ns`) or `event` (instantaneous, no
//!   `dur_ns`).
//! * `span` / `parent` — 16-hex-digit ids. Ids embed a per-process seed
//!   so daemon- and coordinator-generated ids never collide in a merged
//!   trace.
//! * `batch` — the fleet batch id the event belongs to.
//! * `unit`, `daemon`, `severity`, `fields` — optional context. A span is
//!   written once, on completion (no separate begin/end records), which
//!   keeps a trace a set of lines rather than a stateful stream.
//!
//! Timestamps and durations must stay below 2^53 ns (≈ 104 days of
//! process uptime) to round-trip exactly through JSON numbers; the
//! serializer clamps to that bound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, Json, JsonWriter};

/// Largest timestamp/duration that survives a JSON `f64` round trip.
pub const MAX_TS_NS: u64 = (1u64 << 53) - 1;

/// A span/event id: 64 bits, rendered as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The 16-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire form (any-length hex accepted).
    pub fn from_hex(s: &str) -> Option<SpanId> {
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }
}

/// `span` (with duration) or `event` (instantaneous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span with its duration in nanoseconds.
    Span {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// An instantaneous event.
    Event,
}

/// Event severity; `Info` is the default and is omitted on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// Normal operation.
    #[default]
    Info,
    /// Something degraded (daemon death, re-dispatch, fallback).
    Warn,
}

/// One trace line. See the module docs for the wire schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Start time, ns on the emitting process's monotonic clock.
    pub ts_ns: u64,
    /// Span/event name, dot-scoped (`fleet.batch`, `serve.unit`, ...).
    pub name: String,
    /// Span vs event, with the span duration.
    pub kind: EventKind,
    /// This record's id.
    pub span: SpanId,
    /// Parent span id, if any.
    pub parent: Option<SpanId>,
    /// Owning batch id.
    pub batch: String,
    /// Unit id within the batch, if unit-scoped.
    pub unit: Option<u64>,
    /// Emitting daemon address (stamped at merge time).
    pub daemon: Option<String>,
    /// Severity (`Info` omitted on the wire).
    pub severity: Severity,
    /// Free-form string key/value context, in emission order.
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_u64("ts_ns", self.ts_ns.min(MAX_TS_NS));
        w.field_str(
            "kind",
            match self.kind {
                EventKind::Span { .. } => "span",
                EventKind::Event => "event",
            },
        );
        w.field_str("name", &self.name);
        w.field_str("span", &self.span.to_hex());
        if let Some(parent) = self.parent {
            w.field_str("parent", &parent.to_hex());
        }
        if let EventKind::Span { dur_ns } = self.kind {
            w.field_u64("dur_ns", dur_ns.min(MAX_TS_NS));
        }
        w.field_str("batch", &self.batch);
        if let Some(unit) = self.unit {
            w.field_u64("unit", unit.min(MAX_TS_NS));
        }
        if let Some(daemon) = &self.daemon {
            w.field_str("daemon", daemon);
        }
        if self.severity == Severity::Warn {
            w.field_str("severity", "warn");
        }
        if !self.fields.is_empty() {
            let mut fw = JsonWriter::new();
            for (k, v) in &self.fields {
                fw.field_str(k, v);
            }
            w.field_raw("fields", &fw.finish());
        }
        w.finish()
    }

    /// Parses one trace line; the exact inverse of
    /// [`TraceEvent::to_json_line`] (proptested as a fixpoint).
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed line.
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        Self::from_json(&json::parse(line)?)
    }

    /// Parses an already-parsed JSON value — the shape a `trace` protocol
    /// reply carries inside its `events` array.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed value.
    pub fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let ts_ns = v.get("ts_ns").and_then(Json::as_u64).ok_or("missing ts_ns")?;
        let name = v.get("name").and_then(Json::as_str).ok_or("missing name")?.to_string();
        let span = v
            .get("span")
            .and_then(Json::as_str)
            .and_then(SpanId::from_hex)
            .ok_or("missing span id")?;
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("span") => EventKind::Span {
                dur_ns: v.get("dur_ns").and_then(Json::as_u64).ok_or("span without dur_ns")?,
            },
            Some("event") => EventKind::Event,
            other => return Err(format!("bad kind {other:?}")),
        };
        let parent = match v.get("parent") {
            Some(p) => Some(p.as_str().and_then(SpanId::from_hex).ok_or("bad parent id")?),
            None => None,
        };
        let batch = v.get("batch").and_then(Json::as_str).ok_or("missing batch")?.to_string();
        let unit = match v.get("unit") {
            Some(u) => Some(u.as_u64().ok_or("bad unit id")?),
            None => None,
        };
        let daemon = v.get("daemon").and_then(Json::as_str).map(str::to_string);
        let severity = match v.get("severity").and_then(Json::as_str) {
            Some("warn") => Severity::Warn,
            _ => Severity::Info,
        };
        let fields = match v.get("fields") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("non-string field `{k}`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("fields is not an object".to_string()),
            None => Vec::new(),
        };
        Ok(TraceEvent { ts_ns, name, kind, span, parent, batch, unit, daemon, severity, fields })
    }
}

/// A span that has started but not yet completed. Plain data — it may be
/// ended from a different thread than it was started on.
#[derive(Debug)]
pub struct OpenSpan {
    /// The span's id (usable as a parent for children started meanwhile).
    pub id: SpanId,
    name: String,
    parent: Option<SpanId>,
    unit: Option<u64>,
    start_ns: u64,
}

impl OpenSpan {
    /// The span's parent.
    pub fn parent(&self) -> Option<SpanId> {
        self.parent
    }
}

/// A per-batch trace collector. Disabled tracers make every call a cheap
/// no-op (one branch), which is how observability stays out of the hot
/// path when not requested.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    batch: String,
    epoch: Instant,
    next: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// An enabled tracer for `batch`. Span ids are seeded from wall-clock
    /// nanoseconds and the pid so ids from different processes (daemons
    /// vs coordinator) never collide in a merged trace.
    pub fn new(batch: &str) -> Tracer {
        let wall = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seed = wall ^ (u64::from(std::process::id()) << 32) | 1;
        Tracer {
            enabled: true,
            batch: batch.to_string(),
            epoch: Instant::now(),
            next: AtomicU64::new(seed),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A disabled tracer: every recording call is a no-op.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            batch: String::new(),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The batch id this tracer collects for.
    pub fn batch(&self) -> &str {
        &self.batch
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(MAX_TS_NS)) as u64
    }

    /// A fresh id (also used by callers that pre-allocate parent ids).
    pub fn next_id(&self) -> SpanId {
        SpanId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts a span; `None` when disabled.
    pub fn start(&self, name: &str, parent: Option<SpanId>, unit: Option<u64>) -> Option<OpenSpan> {
        if !self.enabled {
            return None;
        }
        Some(OpenSpan {
            id: self.next_id(),
            name: name.to_string(),
            parent,
            unit,
            start_ns: self.now_ns(),
        })
    }

    /// Completes a span (no-op for `None`, so call sites stay branchless).
    pub fn end(&self, span: Option<OpenSpan>) {
        self.end_with(span, Vec::new());
    }

    /// Completes a span with extra context fields.
    pub fn end_with(&self, span: Option<OpenSpan>, fields: Vec<(String, String)>) {
        let Some(span) = span else { return };
        let dur_ns = self.now_ns().saturating_sub(span.start_ns);
        self.push(TraceEvent {
            ts_ns: span.start_ns,
            name: span.name,
            kind: EventKind::Span { dur_ns },
            span: span.id,
            parent: span.parent,
            batch: self.batch.clone(),
            unit: span.unit,
            daemon: None,
            severity: Severity::Info,
            fields,
        });
    }

    /// Records a span from externally measured times — used where the
    /// duration was measured by existing instrumentation (e.g. a
    /// preprocessing build's `tau_pp`) rather than by this tracer.
    /// Returns the span's id when enabled.
    pub fn span_at(
        &self,
        name: &str,
        parent: Option<SpanId>,
        unit: Option<u64>,
        start_ns: u64,
        dur_ns: u64,
        fields: Vec<(String, String)>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id();
        self.push(TraceEvent {
            ts_ns: start_ns,
            name: name.to_string(),
            kind: EventKind::Span { dur_ns },
            span: id,
            parent,
            batch: self.batch.clone(),
            unit,
            daemon: None,
            severity: Severity::Info,
            fields,
        });
        Some(id)
    }

    /// Records an instantaneous event.
    pub fn event(
        &self,
        name: &str,
        severity: Severity,
        parent: Option<SpanId>,
        unit: Option<u64>,
        fields: Vec<(String, String)>,
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            ts_ns: self.now_ns(),
            name: name.to_string(),
            kind: EventKind::Event,
            span: self.next_id(),
            parent,
            batch: self.batch.clone(),
            unit,
            daemon: None,
            severity,
            fields,
        });
    }

    /// Appends a pre-built event (merging daemon-side traces).
    pub fn push(&self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.events.lock().expect("trace lock").push(event);
    }

    /// A copy of every event recorded so far, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace lock").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A bounded ring of per-batch tracers, newest last — a daemon keeps the
/// last few batches' traces so the coordinator can fetch them after the
/// batch completes.
#[derive(Debug)]
pub struct TraceStore {
    batches: Mutex<VecDeque<Arc<Tracer>>>,
    cap: usize,
    dropped_batches: AtomicU64,
    dropped_events: AtomicU64,
}

/// Point-in-time retention accounting for a [`TraceStore`] — what the
/// daemon still holds versus what eviction has already cost, so an
/// operator fetching an incomplete trace can see *that* (and how much)
/// was dropped rather than guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Retention bound (batches).
    pub cap: usize,
    /// Batches currently retained.
    pub batches: usize,
    /// Events across all retained batches.
    pub events_retained: usize,
    /// Batches evicted over the store's lifetime.
    pub batches_dropped: u64,
    /// Events lost with those evictions.
    pub events_dropped: u64,
}

impl TraceStore {
    /// A store retaining at most `cap` batches.
    pub fn new(cap: usize) -> TraceStore {
        TraceStore {
            batches: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            dropped_batches: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
        }
    }

    /// Registers (or returns the existing) tracer for `batch`.
    pub fn create(&self, batch: &str) -> Arc<Tracer> {
        let mut ring = self.batches.lock().expect("trace store lock");
        if let Some(t) = ring.iter().find(|t| t.batch() == batch) {
            return Arc::clone(t);
        }
        let tracer = Arc::new(Tracer::new(batch));
        if ring.len() == self.cap {
            if let Some(evicted) = ring.pop_front() {
                self.dropped_batches.fetch_add(1, Ordering::Relaxed);
                self.dropped_events.fetch_add(evicted.len() as u64, Ordering::Relaxed);
            }
        }
        ring.push_back(Arc::clone(&tracer));
        tracer
    }

    /// Looks up the tracer for `batch`, if still retained.
    pub fn get(&self, batch: &str) -> Option<Arc<Tracer>> {
        let ring = self.batches.lock().expect("trace store lock");
        ring.iter().find(|t| t.batch() == batch).map(Arc::clone)
    }

    /// Retention accounting (see [`TraceStoreStats`]).
    pub fn stats(&self) -> TraceStoreStats {
        let ring = self.batches.lock().expect("trace store lock");
        TraceStoreStats {
            cap: self.cap,
            batches: ring.len(),
            events_retained: ring.iter().map(|t| t.len()).sum(),
            batches_dropped: self.dropped_batches.load(Ordering::Relaxed),
            events_dropped: self.dropped_events.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lines_round_trip() {
        let e = TraceEvent {
            ts_ns: 12345,
            name: "serve.unit".to_string(),
            kind: EventKind::Span { dur_ns: 678 },
            span: SpanId(0x00c0_ffee_0000_0001),
            parent: Some(SpanId(7)),
            batch: "fleet-1a2b".to_string(),
            unit: Some(4),
            daemon: Some("127.0.0.1:7455".to_string()),
            severity: Severity::Warn,
            fields: vec![("cache_hit".to_string(), "true".to_string())],
        };
        let line = e.to_json_line();
        assert_eq!(TraceEvent::parse(&line).unwrap(), e);
        assert_eq!(TraceEvent::parse(&line).unwrap().to_json_line(), line, "fixpoint");
    }

    #[test]
    fn optional_fields_stay_absent() {
        let e = TraceEvent {
            ts_ns: 0,
            name: "e".to_string(),
            kind: EventKind::Event,
            span: SpanId(1),
            parent: None,
            batch: String::new(),
            unit: None,
            daemon: None,
            severity: Severity::Info,
            fields: Vec::new(),
        };
        let line = e.to_json_line();
        for absent in ["parent", "dur_ns", "unit", "daemon", "severity", "fields"] {
            assert!(!line.contains(absent), "{line}");
        }
        assert_eq!(TraceEvent::parse(&line).unwrap(), e);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::parse("{}").is_err());
        assert!(TraceEvent::parse("not json").is_err());
        // A span without a duration.
        let line = r#"{"ts_ns":1,"kind":"span","name":"x","span":"01","batch":"b"}"#;
        assert!(TraceEvent::parse(line).unwrap_err().contains("dur_ns"));
    }

    #[test]
    fn tracer_records_spans_and_events_in_order() {
        let t = Tracer::new("b1");
        let root = t.start("root", None, None);
        let root_id = root.as_ref().unwrap().id;
        let child = t.start("child", Some(root_id), Some(3));
        t.end_with(child, vec![("k".to_string(), "v".to_string())]);
        t.event("dispatch", Severity::Info, Some(root_id), Some(3), Vec::new());
        t.end(root);
        let events = t.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "child");
        assert_eq!(events[0].parent, Some(root_id));
        assert_eq!(events[1].kind, EventKind::Event);
        assert_eq!(events[2].name, "root");
        assert!(matches!(events[2].kind, EventKind::Span { .. }));
        // Every line parses back to itself.
        for e in &events {
            assert_eq!(&TraceEvent::parse(&e.to_json_line()).unwrap(), e);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let span = t.start("x", None, None);
        assert!(span.is_none());
        t.end(span);
        t.event("e", Severity::Warn, None, None, Vec::new());
        assert!(t.span_at("s", None, None, 0, 1, Vec::new()).is_none());
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn trace_store_evicts_oldest_batch() {
        let store = TraceStore::new(2);
        let a = store.create("a");
        assert!(Arc::ptr_eq(&a, &store.create("a")), "same batch, same tracer");
        a.event("warm", Severity::Info, None, None, Vec::new());
        a.event("warm2", Severity::Info, None, None, Vec::new());
        store.create("b");
        let before = store.stats();
        assert_eq!(before.cap, 2);
        assert_eq!(before.batches, 2);
        assert_eq!(before.events_retained, 2);
        assert_eq!(before.batches_dropped, 0);
        assert_eq!(before.events_dropped, 0);
        store.create("c");
        assert!(store.get("a").is_none(), "oldest evicted");
        assert!(store.get("b").is_some());
        assert!(store.get("c").is_some());
        let after = store.stats();
        assert_eq!(after.batches, 2);
        assert_eq!(after.events_retained, 0, "surviving batches are empty");
        assert_eq!(after.batches_dropped, 1);
        assert_eq!(after.events_dropped, 2, "eviction accounts the lost events");
    }
}
