//! Hierarchical self-profiler: scoped frames aggregated into a call tree.
//!
//! This module answers *where* the time went. A harness installs one
//! process-global [`Profiler`], and instrumented code opens scoped
//! [`frame`]s. Each thread keeps its own frame stack; a frame's path is
//! the `;`-joined chain of open frame names on that thread
//! (`preprocess;multirate;kernels;region[1/2];source[3]`), and on exit
//! the guard folds (count, total ns, self ns) into a process-wide call
//! tree keyed by path. `self ns` is total minus time attributed to child
//! frames, so the hotspot ranking points at the code that actually burns
//! the cycles, not just the roots above it.
//!
//! The install contract is first-install-wins: the first [`install`]
//! call wins for the process lifetime, later calls return `false` and
//! leave the original in place, and when nothing is installed every
//! [`frame`] call is a single relaxed atomic load returning `None` — no
//! `Instant::now()`, no allocation, no lock. Profiling is observational
//! only: it never feeds back into evaluation, so profiled and unprofiled
//! runs are bit-identical (asserted end-to-end by the engine's profile
//! tests and the `psdacc-engine profile` subcommand itself).
//!
//! Snapshots render three ways: a ranked hotspot table
//! ([`ProfileSnapshot::to_text`]), a canonical `"kind":"profile"` JSON
//! line ([`ProfileSnapshot::to_json_line`]), and folded-stack lines
//! (`root;child;leaf <self_ns>`, [`ProfileSnapshot::to_folded`]) directly
//! consumable by standard flamegraph tooling.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::analyze::fmt_ns;
use crate::json::JsonWriter;

/// Separator between frame names in a path. Frame names must not contain
/// it (or whitespace/newlines — the folded grammar is line- and
/// space-delimited); [`frame`] sanitizes offending characters to `_`.
pub const PATH_SEPARATOR: char = ';';

// ---------------------------------------------------------------------------
// Aggregated call tree
// ---------------------------------------------------------------------------

/// Per-path aggregate: how many times the frame closed, total wall time,
/// and self time (total minus time inside child frames).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FrameTotals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// The process-wide aggregation target for scoped frames.
///
/// Threads record into it through the global installed via [`install`];
/// harnesses read it back with [`Profiler::snapshot`] (non-destructive)
/// or [`Profiler::take`] (snapshot + reset, for per-probe dumps).
#[derive(Debug, Default)]
pub struct Profiler {
    frames: Mutex<BTreeMap<String, FrameTotals>>,
}

impl Profiler {
    /// An empty profiler, ready to be installed.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, path: &str, total_ns: u64, self_ns: u64) {
        let mut frames = self.frames.lock().unwrap();
        let cell = match frames.get_mut(path) {
            Some(cell) => cell,
            None => frames.entry(path.to_string()).or_default(),
        };
        cell.count += 1;
        cell.total_ns = cell.total_ns.saturating_add(total_ns);
        cell.self_ns = cell.self_ns.saturating_add(self_ns);
    }

    /// A point-in-time copy of the aggregated call tree.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let frames = self.frames.lock().unwrap();
        ProfileSnapshot {
            frames: frames
                .iter()
                .map(|(path, totals)| ProfileFrame {
                    path: path.clone(),
                    count: totals.count,
                    total_ns: totals.total_ns,
                    self_ns: totals.self_ns,
                })
                .collect(),
        }
    }

    /// Snapshot and reset, so consecutive probes profile independently.
    pub fn take(&self) -> ProfileSnapshot {
        let mut frames = self.frames.lock().unwrap();
        let taken = std::mem::take(&mut *frames);
        drop(frames);
        ProfileSnapshot {
            frames: taken
                .into_iter()
                .map(|(path, totals)| ProfileFrame {
                    path,
                    count: totals.count,
                    total_ns: totals.total_ns,
                    self_ns: totals.self_ns,
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Global install (first-install-wins)
// ---------------------------------------------------------------------------

static PROFILER: OnceLock<Arc<Profiler>> = OnceLock::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs the process-global profiler. **First install wins**: later
/// calls return `false` and leave the original in place for the process
/// lifetime (there is no uninstall). When several harness layers race,
/// exactly one `install` returns `true`, and every subsequent frame from
/// any thread aggregates into that winner.
pub fn install(profiler: Arc<Profiler>) -> bool {
    let won = PROFILER.set(profiler).is_ok();
    if won {
        INSTALLED.store(true, Ordering::Release);
    }
    won
}

/// Whether a profiler is installed (one relaxed load — the hot-path
/// guard).
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// The installed profiler, if any.
pub fn profiler() -> Option<&'static Arc<Profiler>> {
    if enabled() {
        PROFILER.get()
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Scoped frames (thread-local stack + RAII guards)
// ---------------------------------------------------------------------------

struct OpenFrame {
    path: String,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<OpenFrame>> = const { RefCell::new(Vec::new()) };
}

/// An open profiling frame; closing (dropping) it records the frame into
/// the installed [`Profiler`]. Guards are strictly scope-shaped: they are
/// `!Send` and must drop in LIFO order on the thread that opened them,
/// which Rust's drop order guarantees for the intended
/// `let _frame = profile::frame("name");` usage.
#[must_use = "a profiling frame closes when the guard drops; an unbound guard closes immediately"]
pub struct FrameGuard {
    _not_send: PhantomData<*const ()>,
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c == PATH_SEPARATOR || c.is_whitespace() { '_' } else { c }).collect()
}

fn enter(name: &str) -> FrameGuard {
    let name = if name.contains(|c: char| c == PATH_SEPARATOR || c.is_whitespace()) {
        sanitize(name)
    } else {
        name.to_string()
    };
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}{PATH_SEPARATOR}{name}", parent.path),
            None => name,
        };
        stack.push(OpenFrame { path, start: Instant::now(), child_ns: 0 });
    });
    FrameGuard { _not_send: PhantomData }
}

/// Opens a scoped frame named `name` under the calling thread's current
/// frame path. Returns `None` (cost: one relaxed load) when no profiler
/// is installed, so the idiomatic call site is just
/// `let _frame = profile::frame("solve");`.
pub fn frame(name: &str) -> Option<FrameGuard> {
    if !enabled() {
        return None;
    }
    Some(enter(name))
}

/// Like [`frame`] but with a lazily built name: the closure only runs
/// when a profiler is installed, so dynamic names
/// (`format!("node[{i}]")`) cost nothing on the uninstalled path.
pub fn frame_with(name: impl FnOnce() -> String) -> Option<FrameGuard> {
    if !enabled() {
        return None;
    }
    Some(enter(&name()))
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(open) = stack.pop() else {
                return;
            };
            let total_ns = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = total_ns.saturating_sub(open.child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total_ns);
            }
            drop(stack);
            if let Some(profiler) = profiler() {
                profiler.record(&open.path, total_ns, self_ns);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshot + renderings
// ---------------------------------------------------------------------------

/// One aggregated frame in a [`ProfileSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileFrame {
    /// `;`-joined chain of frame names from root to this frame.
    pub path: String,
    /// How many times the frame closed.
    pub count: u64,
    /// Total wall time across all closes, in nanoseconds.
    pub total_ns: u64,
    /// Total minus time attributed to child frames, in nanoseconds.
    pub self_ns: u64,
}

impl ProfileFrame {
    /// The frame's own name (last path segment).
    pub fn name(&self) -> &str {
        self.path.rsplit(PATH_SEPARATOR).next().unwrap_or(&self.path)
    }
}

/// A point-in-time copy of a [`Profiler`]'s call tree, path-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Aggregated frames, sorted by path.
    pub frames: Vec<ProfileFrame>,
}

impl ProfileSnapshot {
    /// True when no frame closed while the profiler was collecting.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total profiled wall time: the sum of every frame's self time,
    /// which equals the summed totals of the root frames.
    pub fn total_self_ns(&self) -> u64 {
        self.frames.iter().map(|f| f.self_ns).sum()
    }

    /// Frames ranked by self time, descending (ties broken by path so
    /// the ordering is deterministic).
    pub fn hotspots(&self) -> Vec<&ProfileFrame> {
        let mut ranked: Vec<&ProfileFrame> = self.frames.iter().collect();
        ranked.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        ranked
    }

    /// The ranked hotspot table: one row per frame path, ordered by self
    /// time descending, with self share of the profiled total.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("profile: no frames recorded\n");
            return out;
        }
        let total = self.total_self_ns().max(1);
        out.push_str(&format!(
            "profile: {} across {} frame paths\n",
            fmt_ns(self.total_self_ns()),
            self.frames.len()
        ));
        out.push_str(&format!(
            "  {:>9} {:>6}  {:>9} {:>9}  frame\n",
            "self", "self%", "total", "count"
        ));
        for frame in self.hotspots() {
            let share = frame.self_ns as f64 / total as f64 * 100.0;
            out.push_str(&format!(
                "  {:>9} {:>5.1}%  {:>9} {:>9}  {}\n",
                fmt_ns(frame.self_ns),
                share,
                fmt_ns(frame.total_ns),
                frame.count,
                frame.path
            ));
        }
        out
    }

    /// The canonical `"kind":"profile"` JSON line: top-level totals plus
    /// every frame (hotspot-ranked) with path/count/total_ns/self_ns.
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_str("kind", "profile");
        w.field_u64("total_self_ns", self.total_self_ns());
        w.field_usize("frames", self.frames.len());
        let mut rows = String::from("[");
        for (i, frame) in self.hotspots().iter().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            let mut fw = JsonWriter::new();
            fw.field_str("path", &frame.path);
            fw.field_u64("count", frame.count);
            fw.field_u64("total_ns", frame.total_ns);
            fw.field_u64("self_ns", frame.self_ns);
            rows.push_str(&fw.finish());
        }
        rows.push(']');
        w.field_raw("hotspots", &rows);
        w.finish()
    }

    /// Folded-stack lines (`root;child;leaf <self_ns>`, path-sorted, one
    /// per frame path) — the input grammar of standard flamegraph
    /// tooling (`flamegraph.pl`, inferno, speedscope).
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for frame in &self.frames {
            out.push_str(&format!("{} {}\n", frame.path, frame.self_ns));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // One test process shares the global profiler, so lifecycle behaviors
    // are exercised in a single body ordered around one install (the
    // concurrent-install race lives in the `install_race` integration
    // test, which owns its own process).
    #[test]
    fn profiler_lifecycle() {
        // Before install: frames cost one load and return None.
        assert!(!enabled());
        assert!(frame("nope").is_none());
        let mut built = false;
        assert!(frame_with(|| {
            built = true;
            String::from("nope")
        })
        .is_none());
        assert!(!built, "frame_with must not build the name when uninstalled");

        let profiler = Arc::new(Profiler::new());
        assert!(install(Arc::clone(&profiler)));
        assert!(enabled());

        {
            let _outer = frame("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = frame_with(|| String::from("inner"));
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snap = profiler.snapshot();
        let paths: Vec<&str> = snap.frames.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["outer", "outer;inner"]);
        let outer = &snap.frames[0];
        let inner = &snap.frames[1];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.total_ns <= outer.total_ns);
        // self + child == total by construction.
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(snap.total_self_ns(), outer.total_ns);

        // Renderings agree on content and grammar.
        let text = snap.to_text();
        assert!(text.contains("outer;inner"));
        let folded = snap.to_folded();
        for line in folded.lines() {
            let (path, ns) = line.rsplit_once(' ').expect("folded line has a space");
            assert!(!path.is_empty() && !path.contains(' '));
            ns.parse::<u64>().expect("folded value is a u64");
        }
        let json = snap.to_json_line();
        assert!(json.starts_with("{\"kind\":\"profile\""));
        assert!(json.contains("\"path\":\"outer;inner\""));

        // Second install loses; the original keeps receiving.
        assert!(!install(Arc::new(Profiler::new())));
        drop(frame("after"));
        assert_eq!(profiler.snapshot().frames.iter().filter(|f| f.path == "after").count(), 1);

        // take() drains; a fresh snapshot is empty.
        let taken = profiler.take();
        assert!(!taken.is_empty());
        assert!(profiler.snapshot().is_empty());
        assert_eq!(profiler.snapshot().to_text(), "profile: no frames recorded\n");

        // Names that would break the `;`-joined path or the space- and
        // line-delimited folded grammar are sanitized on entry.
        drop(frame("bad;name with\nstuff"));
        let snap = profiler.take();
        assert!(snap.frames.iter().any(|f| f.path == "bad_name_with_stuff"), "{snap:?}");

        // Frames from every thread aggregate into the one installed tree.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _root = frame("worker");
                    let _leaf = frame("leaf");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = profiler.snapshot();
        let worker = snap.frames.iter().find(|f| f.path == "worker").unwrap();
        let leaf = snap.frames.iter().find(|f| f.path == "worker;leaf").unwrap();
        assert_eq!(worker.count, 4);
        assert_eq!(leaf.count, 4);
    }
}
