//! Span-based tracing with Chrome trace-event JSONL export.
//!
//! A [`SpanGuard`] is a scoped RAII span: creation records the start,
//! drop records the end and appends one complete (`"ph":"X"`) Chrome
//! trace event to the sink as a single JSON line. Spans form a
//! parent/child tree: within a thread, nesting follows a thread-local
//! stack; across threads the parent is linked explicitly with
//! [`span_child_of`] using the parent guard's [`SpanGuard::id`].
//! Timeline lanes (`tid`) are `khaos-par` worker lane ids (`1 + lane`)
//! on pool threads and stable per-thread ids (`>= 1000`) elsewhere.
//!
//! ## Enabling
//!
//! Tracing is off by default and costs two relaxed atomic loads per
//! span site. `KHAOS_TRACE=path` (checked once, at the first span)
//! opens `path` in append mode; `KHAOS_TRACE=1` uses
//! `khaos-trace.jsonl` in the current directory. Each event is
//! written with one `write_all` on an append-mode file, so multiple
//! processes can safely share a trace file (lines never interleave).
//! [`install`] redirects the sink programmatically — how benches and
//! tests trace without touching the environment.
//!
//! ## The invariant
//!
//! Span creation and export are pure observation: no value on any
//! ranked path may depend on them. CI runs tier-1 with and without
//! `KHAOS_TRACE` and asserts identical output.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
/// Span ids are process-unique and never zero (0 = "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Timeline ids for threads outside the `khaos-par` pool.
static NEXT_FREE_TID: AtomicU64 = AtomicU64::new(1000);

thread_local! {
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's assigned timeline id when off the worker pool
    /// (0 = not yet assigned).
    static FREE_TID: Cell<u64> = const { Cell::new(0) };
}

fn sink() -> &'static Mutex<Option<File>> {
    static SINK: OnceLock<Mutex<Option<File>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// The process trace epoch: all timestamps are microseconds since the
/// first tracer touch, so one process's events share one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(raw) = std::env::var("KHAOS_TRACE") else {
            return;
        };
        let v = raw.trim();
        if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
            return;
        }
        let path = if v == "1" || v.eq_ignore_ascii_case("true") {
            "khaos-trace.jsonl"
        } else {
            v
        };
        match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => {
                epoch();
                *sink().lock().expect("trace sink poisoned") = Some(f);
                ENABLED.store(true, Ordering::Release);
            }
            Err(e) => {
                eprintln!("khaos-obs: cannot open KHAOS_TRACE `{path}`: {e}; tracing disabled")
            }
        }
    });
}

/// Whether spans are currently recorded. The disabled fast path is
/// two relaxed atomic loads — the cost bench-gated by the `obs`
/// section of `BENCH_similarity.json`.
#[inline]
pub fn enabled() -> bool {
    if !ENV_INIT.is_completed() {
        init_from_env();
    }
    ENABLED.load(Ordering::Relaxed)
}

/// Points the tracer at `path` (append mode), enabling it. Claims the
/// one-shot environment initialization, so a later `KHAOS_TRACE`
/// check cannot override the explicit sink. Benches and tests use
/// this to trace without touching process-global environment state.
pub fn install(path: &Path) -> std::io::Result<()> {
    ENV_INIT.call_once(|| {});
    let f = OpenOptions::new().create(true).append(true).open(path)?;
    epoch();
    *sink().lock().expect("trace sink poisoned") = Some(f);
    ENABLED.store(true, Ordering::Release);
    Ok(())
}

/// Pauses (`false`) or resumes (`true`) recording; resuming requires
/// a sink (from the environment or [`install`]) and reports whether
/// recording is now on. Benches use the pause path to measure the
/// disabled-tracer cost with instrumentation still compiled in.
pub fn set_enabled(on: bool) -> bool {
    if !ENV_INIT.is_completed() {
        init_from_env();
    }
    let can = on && sink().lock().expect("trace sink poisoned").is_some();
    ENABLED.store(can, Ordering::Release);
    can
}

/// The timeline id of the calling thread (see the module docs).
fn tid() -> u64 {
    if let Some(lane) = khaos_par::worker_id() {
        return 1 + lane as u64;
    }
    FREE_TID.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        let fresh = NEXT_FREE_TID.fetch_add(1, Ordering::Relaxed);
        c.set(fresh);
        fresh
    })
}

/// Opens a span named `name`; the span ends (and its trace event is
/// written) when the returned guard drops. Nested calls on one thread
/// form a tree via a thread-local stack; guards must drop in LIFO
/// order (the natural scoping).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    enter(Cow::Borrowed(name), None)
}

/// [`span`] with a lazily built name: `make` runs only when tracing
/// is enabled, so dynamic span names (`embed:bsdiff`, `pass:fission`)
/// cost nothing on the disabled path.
#[inline]
pub fn span_with(make: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    enter(Cow::Owned(make()), None)
}

/// [`span`] with an explicit parent span id — the cross-thread edge
/// (pass the parent guard's [`SpanGuard::id`] through the work item).
/// With `parent = None` this is exactly [`span`].
#[inline]
pub fn span_child_of(name: &'static str, parent: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    enter(Cow::Borrowed(name), parent)
}

fn enter(name: Cow<'static, str>, explicit_parent: Option<u64>) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = explicit_parent
        .or_else(|| STACK.with(|s| s.borrow().last().copied()))
        .unwrap_or(0);
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    SpanGuard {
        data: Some(SpanData {
            name,
            id,
            parent,
            start_ns,
        }),
    }
}

struct SpanData {
    name: Cow<'static, str>,
    id: u64,
    parent: u64,
    start_ns: u64,
}

/// An open span; dropping it closes the span and writes its trace
/// event. Inert (a `None` payload) when tracing is disabled.
pub struct SpanGuard {
    data: Option<SpanData>,
}

impl SpanGuard {
    /// The span's process-unique id, for explicit cross-thread
    /// parent links ([`span_child_of`]); `None` when tracing is
    /// disabled.
    pub fn id(&self) -> Option<u64> {
        self.data.as_ref().map(|d| d.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        let end_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            if let Some(pos) = st.iter().rposition(|&x| x == data.id) {
                let popped = st.remove(pos);
                debug_assert_eq!(
                    pos,
                    st.len(),
                    "span `{}` ({popped}) dropped out of LIFO order",
                    data.name
                );
            }
        });
        let dur_ns = end_ns.saturating_sub(data.start_ns);
        // One JSON object per line; a single write_all on an
        // append-mode file keeps concurrent writers (threads and
        // processes) from interleaving within a line.
        let line = format!(
            "{{\"name\":\"{}\",\"cat\":\"khaos\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}\n",
            escape(&data.name),
            std::process::id(),
            tid(),
            data.start_ns as f64 / 1000.0,
            dur_ns as f64 / 1000.0,
            data.id,
            data.parent,
        );
        if let Some(f) = sink().lock().expect("trace sink poisoned").as_mut() {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// JSON string escaping for span names.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracer state is process-global; tests that flip it serialize
    // here so they compose with any ambient KHAOS_TRACE setting (the
    // CI bit-identity job runs this suite with tracing on).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_guards_are_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        let was = enabled();
        set_enabled(false);
        let s = span("inert");
        assert_eq!(s.id(), None);
        drop(s);
        set_enabled(was);
    }

    #[test]
    fn spans_nest_and_export_jsonl() {
        let _g = TEST_LOCK.lock().unwrap();
        let was = enabled();
        let path =
            std::env::temp_dir().join(format!("khaos-obs-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        install(&path).expect("install trace sink");

        let root = span("root");
        let root_id = root.id().expect("enabled span has an id");
        {
            let child = span_with(|| format!("child-{}", 1));
            assert_ne!(child.id(), Some(root_id));
            let _grand = span_child_of("grand", child.id());
        }
        drop(root);
        set_enabled(was);

        let text = std::fs::read_to_string(&path).expect("trace file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "three spans → three events:\n{text}");
        // Events are written at close: grand, child-1, root.
        assert!(lines[0].contains("\"name\":\"grand\""));
        assert!(lines[1].contains("\"name\":\"child-1\""));
        assert!(lines[2].contains("\"name\":\"root\""));
        // Every line is a complete X event with our schema fields.
        for line in &lines {
            for needle in [
                "\"ph\":\"X\"",
                "\"ts\":",
                "\"dur\":",
                "\"id\":",
                "\"parent\":",
            ] {
                assert!(line.contains(needle), "`{needle}` missing in {line}");
            }
        }
        // child-1's parent is root (thread-local stack), grand's is
        // child-1 (explicit).
        let child_line = lines[1];
        assert!(
            child_line.contains(&format!("\"parent\":{root_id}")),
            "{child_line}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn names_are_json_escaped() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("q\"b\\s"), "q\\\"b\\\\s");
        assert_eq!(escape("n\nl"), "n\\u000al");
    }
}
