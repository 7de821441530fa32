//! Structured tracing: lightweight spans with enter/exit timestamps,
//! parent linkage, and per-task-class annotation, recorded into striped
//! bounded ring buffers and drained through a [`TraceSink`].
//!
//! A span is opened with [`crate::span()`] (or the [`span!`](crate::span!)
//! macro, which also attaches `key = value` attributes) and closed by
//! dropping the returned [`SpanGuard`]. While observability is disabled
//! the guard is inert: no clock read, no thread-local traffic, no record.
//!
//! Parent linkage is thread-scoped: a span opened while another span is
//! live on the same thread records that span as its parent. The
//! scheduler opens a `task` span around every task it executes and tags
//! the thread with the task's class ([`set_task_class`]), so every span
//! opened inside a task — query execution, tuning measurements —
//! carries both its position in
//! the span tree and the `kgdual_sched::TaskClass`-style class name it
//! ran under (the annotation is a plain string so this crate stays
//! dependency-free).
//!
//! Records are fixed-size (`&'static str` names, up to
//! [`MAX_ATTRS`] `u64` attributes): nothing on the recording path
//! allocates. Ring buffers drop the oldest record when full and count the
//! drops, so tracing can stay on indefinitely with bounded memory.

use crate::metrics::now_ns;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum attributes a span record carries.
pub const MAX_ATTRS: usize = 3;

/// Per-stripe ring capacity. 16 stripes × 4096 records ≈ 64k spans of
/// look-back before the oldest are dropped.
pub const RING_CAPACITY: usize = 4096;

const TRACE_STRIPES: usize = 16;

/// One completed span. Fixed-size; `name`/`class`/attribute keys are
/// `&'static str` so recording never allocates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id on the same thread, 0 for roots.
    pub parent: u64,
    /// Span name (e.g. `"query"`, `"hash_join"`, `"task"`).
    pub name: &'static str,
    /// Scheduler task-class name the span ran under, when inside a task.
    pub class: Option<&'static str>,
    /// Enter timestamp, nanoseconds since the process's obs anchor.
    pub start_ns: u64,
    /// Exit timestamp (guard drop).
    pub end_ns: u64,
    /// `key = value` attributes; only the first `attr_len` are set.
    pub attrs: [(&'static str, u64); MAX_ATTRS],
    /// Number of valid entries in `attrs`.
    pub attr_len: u8,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The valid attributes.
    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..self.attr_len as usize]
    }

    /// One JSON object, the line format [`JsonLinesSink`] writes.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"class\":",
            self.id, self.parent, self.name
        );
        match self.class {
            Some(c) => out.push_str(&format!("\"{c}\"")),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"start_ns\":{},\"end_ns\":{}",
            self.start_ns, self.end_ns
        ));
        for (k, v) in self.attrs() {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push('}');
        out
    }
}

/// Where drained spans go. Implementations: [`JsonLinesSink`] (file),
/// [`MemorySink`] (tests), [`NoopRecorder`] (discard).
pub trait TraceSink {
    /// Receive one span.
    fn record(&mut self, span: &SpanRecord);
}

/// The discard sink: receives spans and drops them. This is the sink the
/// recorder conceptually drains into while observability is off — the
/// recording calls themselves already short-circuit, so nothing reaches
/// it; it exists for call sites that need *a* sink unconditionally.
#[derive(Default)]
pub struct NoopRecorder;

impl TraceSink for NoopRecorder {
    fn record(&mut self, _span: &SpanRecord) {}
}

/// In-memory sink for tests and programmatic inspection.
#[derive(Default)]
pub struct MemorySink {
    /// Spans received, in drain order (sorted by `(start_ns, id)`).
    pub spans: Vec<SpanRecord>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, span: &SpanRecord) {
        self.spans.push(*span);
    }
}

/// JSON-lines file sink: one [`SpanRecord::to_json_line`] per line.
pub struct JsonLinesSink {
    w: std::io::BufWriter<std::fs::File>,
}

impl JsonLinesSink {
    /// Create (truncate) `path` and write spans to it as JSON lines.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonLinesSink {
            w: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }

    /// Flush buffered lines to the file.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&mut self, span: &SpanRecord) {
        let _ = writeln!(self.w, "{}", span.to_json_line());
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        let _ = self.w.flush();
    }
}

struct Ring {
    buf: VecDeque<SpanRecord>,
}

/// Striped bounded span storage: workers record into per-stripe rings
/// (same round-robin stripe assignment as the metrics), a drain merges
/// and time-orders them.
pub struct TraceRecorder {
    stripes: Vec<Mutex<Ring>>,
    dropped: AtomicU64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            stripes: (0..TRACE_STRIPES)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: VecDeque::with_capacity(RING_CAPACITY),
                    })
                })
                .collect(),
            dropped: AtomicU64::new(0),
        }
    }
}

impl TraceRecorder {
    /// A fresh recorder (the global one lives in [`crate::Obs`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, rec: SpanRecord) {
        let mut ring = self.stripes[stripe_for_thread()].lock().unwrap();
        if ring.buf.len() >= RING_CAPACITY {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(rec);
    }

    /// Spans dropped to ring-buffer pressure since process start.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take every buffered span, merged across stripes and sorted by
    /// `(start_ns, id)`. The rings are left empty.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for s in &self.stripes {
            out.extend(s.lock().unwrap().buf.drain(..));
        }
        out.sort_by_key(|r| (r.start_ns, r.id));
        out
    }

    /// [`drain`](TraceRecorder::drain) into `sink`, returning the number
    /// of spans delivered.
    pub fn drain_to(&self, sink: &mut dyn TraceSink) -> usize {
        let spans = self.drain();
        for s in &spans {
            sink.record(s);
        }
        spans.len()
    }
}

// The trace stripe mirrors the metrics stripe assignment but is its own
// thread-local so the two subsystems stay independently testable.
fn stripe_for_thread() -> usize {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % TRACE_STRIPES;
    }
    STRIPE.with(|s| *s)
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost live span on this thread (0 = none): the parent of the
    /// next span opened here.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// Task-class annotation for spans opened on this thread.
    static TASK_CLASS: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Tag this thread with the scheduler task class it is currently
/// executing (the scheduler calls this around every task). Returns the
/// previous tag so nested (inline) execution can restore it.
pub fn set_task_class(class: Option<&'static str>) -> Option<&'static str> {
    TASK_CLASS.with(|c| c.replace(class))
}

/// The task-class tag of the current thread, if any.
pub fn current_task_class() -> Option<&'static str> {
    TASK_CLASS.with(|c| c.get())
}

/// The innermost live span id on this thread (0 when none, or when
/// observability is off). Capture this at task-submission time and
/// replay it with [`set_current_parent`] on the executing worker to
/// extend parent linkage across threads — the cross-task half of the
/// causal tree the scheduler builds around every submitted task.
pub fn current_span_id() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    CURRENT_SPAN.with(|c| c.get())
}

/// Install `parent` as this thread's current span context, returning the
/// previous value so the caller can restore it when the borrowed context
/// ends. The next span opened on this thread records `parent` as its
/// parent id, linking work executed here (e.g. a scheduler task body)
/// under the span that submitted it on another thread.
pub fn set_current_parent(parent: u64) -> u64 {
    CURRENT_SPAN.with(|c| c.replace(parent))
}

struct ActiveSpan {
    rec: SpanRecord,
}

/// RAII guard for one span: records enter time at creation, exit time and
/// the finished [`SpanRecord`] at drop. Inert (all no-ops) when
/// observability was disabled at creation.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    pub(crate) fn start(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { active: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        SpanGuard {
            active: Some(ActiveSpan {
                rec: SpanRecord {
                    id,
                    parent,
                    name,
                    class: current_task_class(),
                    start_ns: now_ns(),
                    end_ns: 0,
                    attrs: [("", 0); MAX_ATTRS],
                    attr_len: 0,
                },
            }),
        }
    }

    /// Attach a `key = value` attribute (ignored beyond [`MAX_ATTRS`],
    /// and entirely when the guard is inert).
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            let i = a.rec.attr_len as usize;
            if i < MAX_ATTRS {
                a.rec.attrs[i] = (key, value);
                a.rec.attr_len += 1;
            }
        }
    }

    /// This span's id (0 when inert) — for cross-thread correlation
    /// attributes.
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.rec.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut a) = self.active.take() {
            CURRENT_SPAN.with(|c| c.set(a.rec.parent));
            a.rec.end_ns = now_ns();
            crate::global().trace().push(a.rec);
        }
    }
}

/// Open a span on the global recorder. Prefer the [`span!`](crate::span!)
/// macro, which also attaches attributes.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::start(name)
}

/// Open a named span, optionally with `key = value` attributes (values
/// are cast to `u64`). Returns a [`SpanGuard`]; bind it (`let _span =`)
/// so the span closes at end of scope, not immediately.
///
/// ```
/// kgdual_obs::global().set_enabled(true);
/// let _outer = kgdual_obs::span!("query", qid = 7u64, batch = 2u64);
/// let inner = kgdual_obs::span!("scan");
/// drop(inner);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {{
        let mut __kgdual_span = $crate::span($name);
        $( __kgdual_span.attr(stringify!($k), ($v) as u64); )+
        __kgdual_span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that drain the global recorder serialize on this lock so a
    /// concurrent drain cannot take another test's spans.
    fn on() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        crate::global().set_enabled(true);
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let _g = on();
        let recorder = crate::global().trace();
        let (outer_id, inner_id);
        {
            let mut outer = span("outer");
            outer.attr("qid", 9);
            outer_id = outer.id();
            {
                let inner = crate::span!("inner", shard = 3u64);
                inner_id = inner.id();
                assert_ne!(inner_id, 0);
            }
        }
        let spans = recorder.drain();
        let inner = spans.iter().find(|s| s.id == inner_id).unwrap();
        let outer = spans.iter().find(|s| s.id == outer_id).unwrap();
        assert_eq!(inner.parent, outer_id, "nesting links parent ids");
        assert_eq!(inner.attrs(), &[("shard", 3)]);
        assert_eq!(outer.attrs(), &[("qid", 9)]);
        assert!(outer.end_ns >= outer.start_ns);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn task_class_annotates_spans() {
        let _g = on();
        let prev = set_task_class(Some("offline_tuning"));
        let s = span("measure");
        let id = s.id();
        drop(s);
        set_task_class(prev);
        let spans = crate::global().trace().drain();
        let rec = spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(rec.class, Some("offline_tuning"));
        assert_eq!(current_task_class(), prev);
    }

    #[test]
    fn json_line_is_well_formed() {
        let rec = SpanRecord {
            id: 5,
            parent: 2,
            name: "query",
            class: Some("query"),
            start_ns: 10,
            end_ns: 40,
            attrs: [("qid", 7), ("", 0), ("", 0)],
            attr_len: 1,
        };
        assert_eq!(
            rec.to_json_line(),
            "{\"id\":5,\"parent\":2,\"name\":\"query\",\"class\":\"query\",\
             \"start_ns\":10,\"end_ns\":40,\"qid\":7}"
        );
        assert_eq!(rec.duration_ns(), 30);
        let root = SpanRecord { class: None, ..rec };
        assert!(root.to_json_line().contains("\"class\":null"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let rec = TraceRecorder::new();
        let blank = SpanRecord {
            id: 0,
            parent: 0,
            name: "x",
            class: None,
            start_ns: 0,
            end_ns: 0,
            attrs: [("", 0); MAX_ATTRS],
            attr_len: 0,
        };
        for i in 0..(RING_CAPACITY as u64 + 10) {
            rec.push(SpanRecord {
                id: i + 1,
                start_ns: i,
                ..blank
            });
        }
        assert_eq!(rec.dropped(), 10);
        let spans = rec.drain();
        assert_eq!(spans.len(), RING_CAPACITY);
        assert_eq!(spans.first().unwrap().id, 11, "oldest were dropped");
        assert!(rec.drain().is_empty(), "drain empties the rings");
    }

    #[test]
    fn memory_sink_receives_drained_spans() {
        let _g = on();
        let recorder = crate::global().trace();
        recorder.drain(); // isolate from other tests' leftovers
        let marker = {
            let s = span("sink_test");
            s.id()
        };
        let mut sink = MemorySink::default();
        let n = recorder.drain_to(&mut sink);
        assert!(n >= 1);
        assert!(sink.spans.iter().any(|s| s.id == marker));
        let mut noop = NoopRecorder;
        noop.record(&sink.spans[0]); // discard path is callable
    }
}
