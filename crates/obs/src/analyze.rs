//! Trace analytics: turn a merged fleet JSONL trace into answers.
//!
//! PR 6 made the fleet emit structured traces; this module consumes
//! them. Given the parsed events of one batch it reconstructs the span
//! tree and derives the three things an operator actually asks of a
//! trace:
//!
//! * **Critical path** — which unit/stage chain bounds wall-clock. The
//!   walk starts at the `fleet.batch` root, picks the last-finishing
//!   `fleet.unit` roundtrip (coordinator clock, so end times are
//!   comparable), crosses to that unit's daemon-side `serve.unit` span,
//!   then repeatedly descends into the longest child stage. Clocks are
//!   per-process, so the walk never compares timestamps across
//!   processes — only durations and parent links, which are meaningful
//!   fleet-wide.
//! * **Stage totals** — time aggregated per `unit.*` stage (parse,
//!   cache_lookup, preprocess, tau_eval, serialize) across every unit,
//!   with the worst single span attributed to its unit.
//! * **Wire time** — per unit, the coordinator's `fleet.unit` roundtrip
//!   minus the daemon-side `serve.unit` span of the same unit on the
//!   daemon it was dispatched to, and minus its `unit.held` span (the
//!   daemon holding the finished line while another unit of the
//!   connection is queued, a stage row of its own): what the sockets,
//!   the kernel and both ends' hand-offs cost. Aggregated like a stage,
//!   and the batch wall-clock is reconciled against the critical
//!   roundtrip, with the residue reported as unattributed.
//! * **Daemon utilization** — per-daemon busy time from `serve.unit`
//!   spans against batch wall-clock, joined with dispatch and queue-wait
//!   attribution from the coordinator's `fleet.dispatch` events.
//! * **Refinement trajectories** — every greedy-refinement unit's
//!   committed descent, reconstructed step by step from the `refine.step`
//!   events the engine emits, so a campaign's "why did it land on these
//!   word-lengths" is answerable from the merged trace alone.
//!
//! The result renders as a single JSON line (`"kind":"trace_analysis"`,
//! machine-diffable, CI-artifact-friendly) and as a human text
//! breakdown. Exposed to operators as `psdacc-sched analyze --trace`
//! and to the bench harness as a library.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::json::JsonWriter;
use crate::trace::{EventKind, Severity, SpanId, TraceEvent};

/// One hop of the critical path, root first.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Span name (`fleet.batch`, `fleet.unit`, `serve.unit`, `unit.*`).
    pub name: String,
    /// Unit id, when the hop is unit-scoped.
    pub unit: Option<u64>,
    /// Daemon the hop ran on (dispatch target for `fleet.unit`, merge
    /// stamp for daemon-side spans).
    pub daemon: Option<String>,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregated time for one `unit.*` stage across the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotal {
    /// Stage span name (`unit.preprocess`, ...).
    pub name: String,
    /// Number of spans aggregated.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
    /// Unit id of that longest span, if unit-scoped.
    pub max_unit: Option<u64>,
}

/// The batch wall-clock split along the critical unit, all on the
/// coordinator's clock: `wall = dispatch_offset + roundtrip +
/// unattributed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconciliation {
    /// Batch wall-clock (`fleet.batch` duration), ns.
    pub wall_ns: u64,
    /// From the batch start to the critical unit's dispatch, ns.
    pub dispatch_offset_ns: u64,
    /// The critical unit's `fleet.unit` roundtrip, ns.
    pub roundtrip_ns: u64,
    /// What neither explains (merge tail, stream shutdown), saturated at
    /// zero, ns.
    pub unattributed_ns: u64,
}

/// Per-daemon work attribution for the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonUtilization {
    /// Daemon address (merge stamp / dispatch field).
    pub addr: String,
    /// Units whose `serve.unit` span landed on this daemon.
    pub units: u64,
    /// Time spent running units, ns: the `serve.unit` durations less
    /// their `unit.queue` children (the wait for an execution slot).
    pub busy_ns: u64,
    /// `busy_ns` over batch wall-clock. Exceeds 1.0 only when the daemon
    /// runs units concurrently, in more than one execution slot.
    pub utilization: f64,
    /// `fleet.dispatch` events targeting this daemon.
    pub dispatches: u64,
    /// Summed dispatch queue wait, ns.
    pub queue_wait_ns: u64,
}

/// One committed descent step of a greedy refinement, reconstructed
/// from a `refine.step` trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineStepView {
    /// Zero-based step index within the unit's trajectory.
    pub step: u64,
    /// Node whose word-length the step shrank.
    pub node: u64,
    /// Fractional bits at that node before the step.
    pub bits_before: i64,
    /// Fractional bits at that node after the step.
    pub bits_after: i64,
    /// Total noise power after committing the step.
    pub power: f64,
}

/// The refinement trajectory of one unit: its committed steps in
/// descent order, reconstructed from the merged trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineTrajectory {
    /// Unit id that ran the refinement (`None` for unit-less traces).
    pub unit: Option<u64>,
    /// Committed steps, ordered by step index.
    pub steps: Vec<RefineStepView>,
}

/// The full analysis of one merged fleet trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Batch id of the analyzed trace.
    pub batch: String,
    /// Batch wall-clock (`fleet.batch` root duration), ns.
    pub wall_ns: u64,
    /// Units the coordinator round-tripped (`fleet.unit` span count).
    pub units: u64,
    /// Events at warn severity (daemon death, re-dispatch, fallback).
    pub warnings: u64,
    /// Critical path, root first.
    pub critical_path: Vec<CriticalHop>,
    /// Per-stage totals, heaviest first.
    pub stages: Vec<StageTotal>,
    /// Per-unit wire time (`fleet.unit` roundtrip − matching
    /// `serve.unit` − matching `unit.held`, saturated at zero) aggregated
    /// like a stage, named `wire`. Units without a `serve.unit` span are
    /// not counted.
    pub wire: StageTotal,
    /// Wall-clock reconciliation along the critical unit.
    pub reconciliation: Reconciliation,
    /// Per-daemon attribution, sorted by address.
    pub daemons: Vec<DaemonUtilization>,
    /// Refinement trajectories, sorted by unit id.
    pub refinements: Vec<RefineTrajectory>,
}

/// Parses a JSONL trace (one [`TraceEvent`] per line; blank lines
/// skipped), reporting the first offending line on failure. An empty
/// trace — zero events — is its own named error rather than a
/// confusing "no root span" downstream: it usually means the run was
/// never traced, not that the merge was truncated.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(TraceEvent::parse(line).map_err(|e| format!("trace line {}: {e}", i + 1))?);
    }
    if events.is_empty() {
        return Err("trace line 1: empty trace — no events to analyze (was the run \
                    submitted with --trace, and is this the merged trace file?)"
            .to_string());
    }
    Ok(events)
}

fn field<'a>(ev: &'a TraceEvent, key: &str) -> Option<&'a str> {
    ev.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn span_dur(ev: &TraceEvent) -> Option<u64> {
    match ev.kind {
        EventKind::Span { dur_ns } => Some(dur_ns),
        EventKind::Event => None,
    }
}

fn hop(ev: &TraceEvent, dur_ns: u64, daemon: Option<String>) -> CriticalHop {
    CriticalHop { name: ev.name.clone(), unit: ev.unit, daemon, dur_ns }
}

/// Analyzes the events of one merged fleet trace.
///
/// Requires a `fleet.batch` root span — a daemon-local trace (or a
/// truncated merge) is rejected with an explanatory error rather than
/// silently producing a wall-clock-free report.
pub fn analyze(events: &[TraceEvent]) -> Result<TraceAnalysis, String> {
    let root = events
        .iter()
        .filter(|e| e.name == "fleet.batch")
        .find_map(|e| span_dur(e).map(|d| (e, d)))
        .ok_or_else(|| {
            "not a merged fleet trace: no fleet.batch root span (did you pass a \
             daemon-local trace, or was the batch evicted before the merge?)"
                .to_string()
        })?;
    let (root_ev, wall_ns) = root;

    // Index spans by parent for the descent, and collect the layers.
    let mut children: HashMap<SpanId, Vec<&TraceEvent>> = HashMap::new();
    let mut fleet_units: Vec<(&TraceEvent, u64)> = Vec::new();
    let mut serve_units: Vec<(&TraceEvent, u64)> = Vec::new();
    let mut held_units: Vec<(&TraceEvent, u64)> = Vec::new();
    let mut stages: BTreeMap<&str, StageTotal> = BTreeMap::new();
    let mut daemons: BTreeMap<String, DaemonUtilization> = BTreeMap::new();
    let mut refinements: BTreeMap<Option<u64>, Vec<RefineStepView>> = BTreeMap::new();
    let mut warnings = 0u64;

    for ev in events {
        if ev.severity == Severity::Warn {
            warnings += 1;
        }
        let Some(dur) = span_dur(ev) else {
            if ev.name == "fleet.dispatch" {
                let addr = field(ev, "daemon").unwrap_or("unknown").to_string();
                let d = daemons.entry(addr.clone()).or_insert_with(|| blank_daemon(addr));
                d.dispatches += 1;
                d.queue_wait_ns +=
                    field(ev, "queue_wait_ns").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            } else if ev.name == "refine.step" {
                if let Some(step) = refine_step(ev) {
                    refinements.entry(ev.unit).or_default().push(step);
                }
            }
            continue;
        };
        if let Some(parent) = ev.parent {
            children.entry(parent).or_default().push(ev);
        }
        match ev.name.as_str() {
            "fleet.unit" => fleet_units.push((ev, dur)),
            "serve.unit" => serve_units.push((ev, dur)),
            name if name.starts_with("unit.") => {
                if name == "unit.held" {
                    held_units.push((ev, dur));
                }
                stages.entry(&ev.name).or_insert_with(|| blank_total(name)).add(dur, ev.unit);
            }
            _ => {}
        }
    }

    // A unit waiting for an execution slot is not work.
    for &(ev, dur) in &serve_units {
        let queued: u64 = children
            .get(&ev.span)
            .into_iter()
            .flatten()
            .filter(|k| k.name == "unit.queue")
            .filter_map(|k| span_dur(k))
            .sum();
        let addr = ev.daemon.clone().unwrap_or_else(|| "unknown".to_string());
        let d = daemons.entry(addr.clone()).or_insert_with(|| blank_daemon(addr));
        d.units += 1;
        d.busy_ns += dur.saturating_sub(queued);
    }

    // Wire: each roundtrip minus the daemon-side spans of the same unit on
    // the daemon it was dispatched to (a re-dispatched unit's loser ran
    // elsewhere and must not match): the run, and the held line's wait.
    let mut serve_ns: HashMap<(Option<u64>, Option<&str>), u64> = HashMap::new();
    for &(ev, dur) in &serve_units {
        let slot = serve_ns.entry((ev.unit, ev.daemon.as_deref())).or_default();
        *slot = (*slot).max(dur);
    }
    for &(ev, dur) in &held_units {
        if let Some(slot) = serve_ns.get_mut(&(ev.unit, ev.daemon.as_deref())) {
            *slot += dur;
        }
    }
    let mut wire = blank_total("wire");
    for &(ev, dur) in &fleet_units {
        if let Some(&served) = serve_ns.get(&(ev.unit, field(ev, "daemon"))) {
            wire.add(dur.saturating_sub(served), ev.unit);
        }
    }

    // Critical path: root, last-finishing roundtrip (coordinator clock),
    // its daemon-side span, then longest-child descent.
    let mut critical_path = vec![hop(root_ev, wall_ns, None)];
    let last = fleet_units.iter().max_by_key(|(ev, dur)| (ev.ts_ns.saturating_add(*dur), *dur));
    // The root and every `fleet.unit` carry the coordinator's clock.
    let (dispatch_offset_ns, roundtrip_ns) =
        last.map_or((0, 0), |&(funit, fdur)| (funit.ts_ns.saturating_sub(root_ev.ts_ns), fdur));
    let reconciliation = Reconciliation {
        wall_ns,
        dispatch_offset_ns,
        roundtrip_ns,
        unattributed_ns: wall_ns.saturating_sub(dispatch_offset_ns.saturating_add(roundtrip_ns)),
    };
    if let Some(&(funit, fdur)) = last {
        let target_daemon = field(funit, "daemon").map(str::to_string);
        critical_path.push(hop(funit, fdur, target_daemon.clone()));
        let served = serve_units
            .iter()
            .filter(|(ev, _)| ev.unit == funit.unit)
            .max_by_key(|(ev, dur)| (ev.daemon == target_daemon, *dur));
        if let Some(&(sunit, sdur)) = served {
            critical_path.push(hop(sunit, sdur, sunit.daemon.clone()));
            let mut cursor = sunit.span;
            while let Some(next) = children
                .get(&cursor)
                .and_then(|kids| kids.iter().max_by_key(|k| span_dur(k).unwrap_or(0)))
            {
                let dur = span_dur(next).unwrap_or(0);
                critical_path.push(hop(next, dur, next.daemon.clone()));
                cursor = next.span;
            }
        }
    }

    for d in daemons.values_mut() {
        d.utilization = if wall_ns == 0 { 0.0 } else { d.busy_ns as f64 / wall_ns as f64 };
    }
    let mut stages: Vec<StageTotal> = stages.into_values().collect();
    stages.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then_with(|| a.name.cmp(&b.name)));
    // A merged trace interleaves daemons, so a unit's steps can arrive
    // out of order; the step index restores the descent order.
    let refinements: Vec<RefineTrajectory> = refinements
        .into_iter()
        .map(|(unit, mut steps)| {
            steps.sort_by_key(|s| s.step);
            RefineTrajectory { unit, steps }
        })
        .collect();

    Ok(TraceAnalysis {
        batch: root_ev.batch.clone(),
        wall_ns,
        units: fleet_units.len() as u64,
        warnings,
        critical_path,
        stages,
        wire,
        reconciliation,
        daemons: daemons.into_values().collect(),
        refinements,
    })
}

/// Decodes one `refine.step` event; events missing a numeric field are
/// dropped rather than poisoning the whole analysis.
fn refine_step(ev: &TraceEvent) -> Option<RefineStepView> {
    Some(RefineStepView {
        step: field(ev, "step")?.parse().ok()?,
        node: field(ev, "node")?.parse().ok()?,
        bits_before: field(ev, "bits_before")?.parse().ok()?,
        bits_after: field(ev, "bits_after")?.parse().ok()?,
        power: field(ev, "power")?.parse().ok()?,
    })
}

fn blank_total(name: &str) -> StageTotal {
    StageTotal { name: name.to_string(), count: 0, total_ns: 0, max_ns: 0, max_unit: None }
}

impl StageTotal {
    fn add(&mut self, dur_ns: u64, unit: Option<u64>) {
        self.count += 1;
        self.total_ns += dur_ns;
        if dur_ns > self.max_ns {
            self.max_ns = dur_ns;
            self.max_unit = unit;
        }
    }

    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_str("name", &self.name);
        w.field_u64("count", self.count);
        w.field_u64("total_ns", self.total_ns);
        w.field_u64("max_ns", self.max_ns);
        if let Some(u) = self.max_unit {
            w.field_u64("max_unit", u);
        }
        w.finish()
    }

    fn to_text_row(&self) -> String {
        let max_unit = self.max_unit.map(|u| format!(" (unit {u})")).unwrap_or_default();
        format!(
            "  {:<20} count={:<4} total={:>10}  max={}{}\n",
            self.name,
            self.count,
            fmt_ns(self.total_ns),
            fmt_ns(self.max_ns),
            max_unit,
        )
    }
}

fn blank_daemon(addr: String) -> DaemonUtilization {
    DaemonUtilization {
        addr,
        units: 0,
        busy_ns: 0,
        utilization: 0.0,
        dispatches: 0,
        queue_wait_ns: 0,
    }
}

/// Formats a nanosecond duration for the text report (`ns`/`us`/`ms`/`s`
/// with three significant-ish digits).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns} ns"),
        1_000..=999_999 => format!("{:.1} us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

impl TraceAnalysis {
    fn pct(&self, dur_ns: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            dur_ns as f64 / self.wall_ns as f64 * 100.0
        }
    }

    /// Renders the machine report as one JSON line
    /// (`"kind":"trace_analysis"`).
    pub fn to_json_line(&self) -> String {
        let hops: Vec<String> = self
            .critical_path
            .iter()
            .map(|h| {
                let mut w = JsonWriter::new();
                w.field_str("name", &h.name);
                if let Some(u) = h.unit {
                    w.field_u64("unit", u);
                }
                if let Some(d) = &h.daemon {
                    w.field_str("daemon", d);
                }
                w.field_u64("dur_ns", h.dur_ns);
                w.field_f64("pct", self.pct(h.dur_ns));
                w.finish()
            })
            .collect();
        let stages: Vec<String> = self.stages.iter().map(StageTotal::to_json).collect();
        let r = &self.reconciliation;
        let mut reconciliation = JsonWriter::new();
        reconciliation.field_u64("wall_ns", r.wall_ns);
        reconciliation.field_u64("dispatch_offset_ns", r.dispatch_offset_ns);
        reconciliation.field_u64("roundtrip_ns", r.roundtrip_ns);
        reconciliation.field_u64("unattributed_ns", r.unattributed_ns);
        let daemons: Vec<String> = self
            .daemons
            .iter()
            .map(|d| {
                let mut w = JsonWriter::new();
                w.field_str("addr", &d.addr);
                w.field_u64("units", d.units);
                w.field_u64("busy_ns", d.busy_ns);
                w.field_f64("utilization", d.utilization);
                w.field_u64("dispatches", d.dispatches);
                w.field_u64("queue_wait_ns", d.queue_wait_ns);
                w.finish()
            })
            .collect();
        let refinements: Vec<String> = self
            .refinements
            .iter()
            .map(|t| {
                let steps: Vec<String> = t
                    .steps
                    .iter()
                    .map(|s| {
                        let mut w = JsonWriter::new();
                        w.field_u64("step", s.step);
                        w.field_u64("node", s.node);
                        w.field_i64("bits_before", s.bits_before);
                        w.field_i64("bits_after", s.bits_after);
                        w.field_f64("power", s.power);
                        w.finish()
                    })
                    .collect();
                let mut w = JsonWriter::new();
                if let Some(u) = t.unit {
                    w.field_u64("unit", u);
                }
                w.field_raw("steps", &format!("[{}]", steps.join(",")));
                w.finish()
            })
            .collect();
        let mut w = JsonWriter::new();
        w.field_str("kind", "trace_analysis");
        w.field_str("batch", &self.batch);
        w.field_u64("wall_ns", self.wall_ns);
        w.field_u64("units", self.units);
        w.field_u64("warnings", self.warnings);
        w.field_raw("critical_path", &format!("[{}]", hops.join(",")));
        w.field_raw("stages", &format!("[{}]", stages.join(",")));
        w.field_raw("wire", &self.wire.to_json());
        w.field_raw("reconciliation", &reconciliation.finish());
        w.field_raw("daemons", &format!("[{}]", daemons.join(",")));
        w.field_raw("refinements", &format!("[{}]", refinements.join(",")));
        w.finish()
    }

    /// Renders the human breakdown (multi-line text).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "batch {}: {} units, wall {}, {} warning(s)\n",
            self.batch,
            self.units,
            fmt_ns(self.wall_ns),
            self.warnings
        ));
        out.push_str("critical path (longest chain bounding wall-clock):\n");
        for (depth, h) in self.critical_path.iter().enumerate() {
            let mut label = h.name.clone();
            if let Some(u) = h.unit {
                label.push_str(&format!(" #{u}"));
            }
            if let Some(d) = &h.daemon {
                label.push_str(&format!(" @{d}"));
            }
            out.push_str(&format!(
                "  {:indent$}{label:<40} {:>10}  {:>5.1}%\n",
                "",
                fmt_ns(h.dur_ns),
                self.pct(h.dur_ns),
                indent = depth * 2,
            ));
        }
        if !self.refinements.is_empty() {
            out.push_str("refinement trajectories (committed greedy descent steps):\n");
            for t in &self.refinements {
                let unit = t.unit.map(|u| format!("unit {u}")).unwrap_or_else(|| "-".to_string());
                let final_power =
                    t.steps.last().map(|s| format!("{:.4e}", s.power)).unwrap_or_default();
                out.push_str(&format!(
                    "  {unit}: {} step(s), final power {final_power}\n",
                    t.steps.len()
                ));
                for s in &t.steps {
                    out.push_str(&format!(
                        "    step {:<3} node {:<4} {:>3} -> {:<3} bits  power {:.4e}\n",
                        s.step, s.node, s.bits_before, s.bits_after, s.power,
                    ));
                }
            }
        }
        out.push_str(concat!(
            "stage totals (all units, heaviest first; ",
            "wire = roundtrip - serve.unit - unit.held):\n"
        ));
        for s in self.stages.iter().chain([&self.wire]) {
            out.push_str(&s.to_text_row());
        }
        let r = &self.reconciliation;
        out.push_str(&format!(
            "reconciliation: wall {} = dispatch offset {} + critical roundtrip {} + unattributed {}\n",
            fmt_ns(r.wall_ns),
            fmt_ns(r.dispatch_offset_ns),
            fmt_ns(r.roundtrip_ns),
            fmt_ns(r.unattributed_ns),
        ));
        out.push_str("daemons:\n");
        for d in &self.daemons {
            out.push_str(&format!(
                "  {:<24} units={:<4} busy={:>10}  util={:>5.1}%  dispatches={} queue_wait={}\n",
                d.addr,
                d.units,
                fmt_ns(d.busy_ns),
                d.utilization * 100.0,
                d.dispatches,
                fmt_ns(d.queue_wait_ns),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[allow(clippy::too_many_arguments)]
    fn span(
        name: &str,
        span: u64,
        parent: Option<u64>,
        ts_ns: u64,
        dur_ns: u64,
        unit: Option<u64>,
        daemon: Option<&str>,
        fields: Vec<(&str, &str)>,
    ) -> TraceEvent {
        TraceEvent {
            ts_ns,
            name: name.to_string(),
            kind: EventKind::Span { dur_ns },
            span: SpanId(span),
            parent: parent.map(SpanId),
            batch: "fix".to_string(),
            unit,
            daemon: daemon.map(str::to_string),
            severity: Severity::Info,
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    fn dispatch(unit: u64, daemon: &str, wait: &str) -> TraceEvent {
        TraceEvent {
            ts_ns: 0,
            name: "fleet.dispatch".to_string(),
            kind: EventKind::Event,
            span: SpanId(900 + unit),
            parent: Some(SpanId(1)),
            batch: "fix".to_string(),
            unit: Some(unit),
            daemon: None,
            severity: Severity::Info,
            fields: vec![
                ("daemon".to_string(), daemon.to_string()),
                ("queue_wait_ns".to_string(), wait.to_string()),
            ],
        }
    }

    fn refine(unit: u64, step: u64, node: u64, bits: i64, power: &str) -> TraceEvent {
        TraceEvent {
            ts_ns: 0,
            name: "refine.step".to_string(),
            kind: EventKind::Event,
            span: SpanId(800 + 10 * unit + step),
            parent: Some(SpanId(11)),
            batch: "fix".to_string(),
            unit: Some(unit),
            daemon: Some("b".to_string()),
            severity: Severity::Info,
            fields: vec![
                ("step".to_string(), step.to_string()),
                ("node".to_string(), node.to_string()),
                ("bits_before".to_string(), bits.to_string()),
                ("bits_after".to_string(), (bits - 1).to_string()),
                ("predicted_delta".to_string(), "1e-9".to_string()),
                ("power".to_string(), power.to_string()),
            ],
        }
    }

    /// A two-daemon fixture with hand-computed answers: unit 1 on
    /// daemon `b` finishes last (coordinator end 700 vs 400) and its
    /// preprocess stage dominates, so the critical path must be
    /// fleet.batch -> fleet.unit#1 -> serve.unit#1@b -> unit.preprocess.
    /// Unit 1 also committed two refinement steps, merged out of order.
    fn fixture() -> Vec<TraceEvent> {
        let mut warn = dispatch(1, "b", "75");
        warn.name = "fleet.redispatch".to_string();
        warn.severity = Severity::Warn;
        warn.span = SpanId(950);
        vec![
            span("fleet.batch", 1, None, 0, 1000, None, None, vec![]),
            span("fleet.unit", 2, Some(1), 100, 300, Some(0), None, vec![("daemon", "a")]),
            span("fleet.unit", 3, Some(1), 200, 500, Some(1), None, vec![("daemon", "b")]),
            span("serve.unit", 10, Some(1), 5, 250, Some(0), Some("a"), vec![]),
            span("serve.unit", 11, Some(1), 5, 450, Some(1), Some("b"), vec![]),
            span("unit.parse", 20, Some(10), 6, 5, Some(0), Some("a"), vec![]),
            span("unit.tau_eval", 21, Some(10), 12, 150, Some(0), Some("a"), vec![]),
            span("unit.parse", 30, Some(11), 6, 10, Some(1), Some("b"), vec![]),
            span("unit.cache_lookup", 31, Some(11), 17, 20, Some(1), Some("b"), vec![]),
            span("unit.preprocess", 32, Some(11), 38, 300, Some(1), Some("b"), vec![]),
            span("unit.tau_eval", 33, Some(11), 340, 100, Some(1), Some("b"), vec![]),
            span("unit.serialize", 34, Some(11), 441, 5, Some(1), Some("b"), vec![]),
            dispatch(0, "a", "50"),
            dispatch(1, "b", "75"),
            warn,
            // Merged out of order: the analyzer must restore step order.
            refine(1, 1, 7, 11, "2.5e-7"),
            refine(1, 0, 4, 12, "4.5e-7"),
        ]
    }

    #[test]
    fn analyzer_finds_the_hand_computed_critical_path() {
        let a = analyze(&fixture()).unwrap();
        assert_eq!(a.batch, "fix");
        assert_eq!(a.wall_ns, 1000);
        assert_eq!(a.units, 2);
        assert_eq!(a.warnings, 1);
        let path: Vec<(&str, Option<u64>, u64)> =
            a.critical_path.iter().map(|h| (h.name.as_str(), h.unit, h.dur_ns)).collect();
        assert_eq!(
            path,
            vec![
                ("fleet.batch", None, 1000),
                ("fleet.unit", Some(1), 500),
                ("serve.unit", Some(1), 450),
                ("unit.preprocess", Some(1), 300),
            ]
        );
        assert_eq!(a.critical_path[1].daemon.as_deref(), Some("b"), "dispatch-target daemon");
        assert_eq!(a.critical_path[2].daemon.as_deref(), Some("b"), "merge-stamp daemon");
    }

    #[test]
    fn analyzer_aggregates_stages_and_daemons() {
        let a = analyze(&fixture()).unwrap();
        let stages: Vec<(&str, u64, u64, u64, Option<u64>)> = a
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.count, s.total_ns, s.max_ns, s.max_unit))
            .collect();
        assert_eq!(
            stages,
            vec![
                ("unit.preprocess", 1, 300, 300, Some(1)),
                ("unit.tau_eval", 2, 250, 150, Some(0)),
                ("unit.cache_lookup", 1, 20, 20, Some(1)),
                ("unit.parse", 2, 15, 10, Some(1)),
                ("unit.serialize", 1, 5, 5, Some(1)),
            ]
        );
        assert_eq!(a.daemons.len(), 2);
        let a_d = &a.daemons[0];
        assert_eq!((a_d.addr.as_str(), a_d.units, a_d.busy_ns), ("a", 1, 250));
        assert!((a_d.utilization - 0.25).abs() < 1e-12);
        assert_eq!((a_d.dispatches, a_d.queue_wait_ns), (1, 50));
        let b_d = &a.daemons[1];
        assert_eq!((b_d.addr.as_str(), b_d.units, b_d.busy_ns), ("b", 1, 450));
        assert!((b_d.utilization - 0.45).abs() < 1e-12);
        assert_eq!((b_d.dispatches, b_d.queue_wait_ns), (1, 75));
    }

    /// Two units parsed together on a one-slot daemon: the second waits
    /// for the first, and its wait is not busy time.
    #[test]
    fn queued_units_on_one_slot_never_exceed_full_utilization() {
        let events = vec![
            span("fleet.batch", 1, None, 0, 1000, None, None, vec![]),
            span("serve.unit", 10, Some(1), 0, 450, Some(0), Some("a"), vec![]),
            span("unit.queue", 20, Some(10), 0, 10, Some(0), Some("a"), vec![]),
            span("serve.unit", 11, Some(1), 0, 900, Some(1), Some("a"), vec![]),
            span("unit.queue", 21, Some(11), 0, 450, Some(1), Some("a"), vec![]),
            span("unit.tau_eval", 22, Some(11), 450, 440, Some(1), Some("a"), vec![]),
        ];
        let a = analyze(&events).unwrap();
        let d = &a.daemons[0];
        assert_eq!((d.addr.as_str(), d.units, d.busy_ns), ("a", 2, 440 + 450));
        assert!(d.utilization <= 1.0, "utilization {} on one slot", d.utilization);
        let queue = a.stages.iter().find(|s| s.name == "unit.queue").unwrap();
        assert_eq!((queue.count, queue.total_ns), (2, 460), "the queue is a layer of its own");
    }

    #[test]
    fn wire_is_roundtrip_minus_the_matching_serve_span() {
        // Unit 0: roundtrip 300 on `a`, serve 250 on `a` -> wire 50.
        // Unit 1: roundtrip 500 on `b`, serve 450 on `b` -> wire 50.
        let a = analyze(&fixture()).unwrap();
        let w = &a.wire;
        assert_eq!((w.name.as_str(), w.count, w.total_ns, w.max_ns), ("wire", 2, 100, 50));
        assert_eq!(w.max_unit, Some(0), "first unit to reach the max keeps it");
        // The critical unit 1 was dispatched at 200 of a 1000 ns batch
        // and round-tripped in 500: 300 ns are nobody's.
        assert_eq!(
            a.reconciliation,
            Reconciliation {
                wall_ns: 1000,
                dispatch_offset_ns: 200,
                roundtrip_ns: 500,
                unattributed_ns: 300
            }
        );

        let mut events = fixture();
        // A re-dispatched loser of unit 0 on `b` must not match the
        // roundtrip dispatched to `a`.
        events.push(span("serve.unit", 12, Some(1), 5, 100, Some(0), Some("b"), vec![]));
        // A roundtrip without a daemon-side span is not wire time.
        events.push(span("fleet.unit", 4, Some(1), 50, 80, Some(2), None, vec![("daemon", "a")]));
        // A daemon span longer than its roundtrip saturates at zero.
        events.push(span("fleet.unit", 5, Some(1), 60, 90, Some(3), None, vec![("daemon", "a")]));
        events.push(span("serve.unit", 13, Some(1), 5, 95, Some(3), Some("a"), vec![]));
        let w = analyze(&events).unwrap().wire;
        assert_eq!((w.count, w.total_ns, w.max_ns, w.max_unit), (3, 100, 50, Some(0)));
    }

    /// A finished line the daemon holds while another unit of its
    /// connection is queued is a `unit.held` span beside `serve.unit`:
    /// its own stage row, neither wire nor busy time.
    #[test]
    fn held_line_wait_is_its_own_row_not_wire_or_busy() {
        let mut events = fixture();
        // Unit 0 on `a`: roundtrip 300 = serve 250 + held 30 + wire 20.
        events.push(span("unit.held", 40, Some(1), 255, 30, Some(0), Some("a"), vec![]));
        // A held span of unit 1 on the wrong daemon does not match.
        events.push(span("unit.held", 41, Some(1), 455, 40, Some(1), Some("a"), vec![]));
        let a = analyze(&events).unwrap();
        let held = a.stages.iter().find(|s| s.name == "unit.held").unwrap();
        assert_eq!((held.count, held.total_ns, held.max_ns, held.max_unit), (2, 70, 40, Some(1)));
        let w = &a.wire;
        assert_eq!((w.count, w.total_ns, w.max_ns, w.max_unit), (2, 70, 50, Some(1)));
        let busy: Vec<(&str, u64)> =
            a.daemons.iter().map(|d| (d.addr.as_str(), d.busy_ns)).collect();
        assert_eq!(busy, vec![("a", 250), ("b", 450)], "a held line is not busy time");
        assert!(a.to_text().contains("unit.held"), "{}", a.to_text());
    }

    #[test]
    fn reports_round_trip_through_jsonl_and_render_both_formats() {
        let jsonl: String =
            fixture().iter().map(|e| e.to_json_line() + "\n").collect::<String>() + "\n";
        let events = parse_trace(&jsonl).unwrap();
        let a = analyze(&events).unwrap();
        assert_eq!(a, analyze(&fixture()).unwrap(), "JSONL round trip is lossless");

        let line = a.to_json_line();
        assert!(!line.contains('\n'), "machine report is one line");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("trace_analysis"));
        assert_eq!(v.get("wall_ns").and_then(Json::as_u64), Some(1000));
        assert_eq!(v.get("critical_path").and_then(Json::as_array).map(|a| a.len()), Some(4));
        assert_eq!(v.get("stages").and_then(Json::as_array).map(|a| a.len()), Some(5));
        assert_eq!(v.get("daemons").and_then(Json::as_array).map(|a| a.len()), Some(2));
        assert_eq!(v.get("refinements").and_then(Json::as_array).map(|a| a.len()), Some(1));
        let wire = v.get("wire").unwrap();
        assert_eq!(wire.get("name").and_then(Json::as_str), Some("wire"));
        assert_eq!(wire.get("max_ns").and_then(Json::as_u64), Some(50));
        let r = v.get("reconciliation").unwrap();
        let ns = |k: &str| r.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(
            ns("dispatch_offset_ns") + ns("roundtrip_ns") + ns("unattributed_ns"),
            ns("wall_ns")
        );

        let text = a.to_text();
        assert!(text.contains("unit.preprocess"));
        assert!(text.contains("@b"));
        assert!(text.contains("util= 45.0%"));
        assert!(text.contains("wire                 count=2"), "{text}");
        assert!(
            text.contains(
                "reconciliation: wall 1.0 us = dispatch offset 200 ns + critical roundtrip \
                 500 ns + unattributed 300 ns"
            ),
            "{text}"
        );
        assert!(text.contains("refinement trajectories"), "{text}");
        assert!(text.contains("unit 1: 2 step(s), final power 2.5000e-7"), "{text}");
    }

    #[test]
    fn reconstructs_refinement_trajectories_in_step_order() {
        let a = analyze(&fixture()).unwrap();
        assert_eq!(a.refinements.len(), 1);
        let t = &a.refinements[0];
        assert_eq!(t.unit, Some(1));
        let steps: Vec<(u64, u64, i64, i64)> =
            t.steps.iter().map(|s| (s.step, s.node, s.bits_before, s.bits_after)).collect();
        assert_eq!(
            steps,
            vec![(0, 4, 12, 11), (1, 7, 11, 10)],
            "out-of-order merge is restored to descent order"
        );
        assert_eq!(t.steps[0].power, 4.5e-7);
        assert_eq!(t.steps[1].power, 2.5e-7);

        // A step event with a missing numeric field is dropped, not fatal.
        let mut events = fixture();
        let mut broken = refine(0, 0, 1, 8, "1e-8");
        broken.fields.retain(|(k, _)| k != "node");
        events.push(broken);
        let a = analyze(&events).unwrap();
        assert_eq!(a.refinements.len(), 1, "the broken unit-0 event contributes nothing");
    }

    #[test]
    fn empty_traces_are_named_line_numbered_errors() {
        for text in ["", "\n", "  \n\n  \n"] {
            let err = parse_trace(text).unwrap_err();
            assert!(err.starts_with("trace line 1:"), "{err}");
            assert!(err.contains("empty trace"), "{err}");
        }
    }

    #[test]
    fn rejects_traces_without_a_fleet_root() {
        let daemon_only = vec![span("serve.unit", 10, None, 5, 250, Some(0), Some("a"), vec![])];
        let err = analyze(&daemon_only).unwrap_err();
        assert!(err.contains("no fleet.batch root"), "{err}");
    }

    #[test]
    fn parse_trace_points_at_the_offending_line() {
        let err = parse_trace("\n{\"ts_ns\":0}\n").unwrap_err();
        assert!(err.starts_with("trace line 2:"), "{err}");
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.5 us");
        assert_eq!(fmt_ns(2_500_000), "2.5 ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21 s");
    }
}
