//! Span recording around calls into the layers, from kgbench's own code.
//!
//! Spans stay in memory and are written as JSON lines when the run ends. A
//! disabled recorder does nothing, so the same code path drives the
//! untraced reference pass that `obs.trace_overhead_pct` is measured against.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder (also the id written out).
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation this span belongs to.
    pub op: u64,
    /// Layer-boundary name, e.g. `sparql.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder (single-threaded: the traced pass is serial).
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; disabled ones drop everything.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Set the operation id attached to spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// [`Recorder::span`] that also returns the wall time of `f`, measured
    /// whether or not the recorder is enabled.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (u64, R) {
        let t0 = Instant::now();
        let out = self.span(name, f);
        (t0.elapsed().as_nanos() as u64, out)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of all spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time per span: its duration minus the part its direct children
    /// cover (children of one parent are sequential, so their durations add).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(true);
        // Hand-built spans so the arithmetic is exact.
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            op: 7,
            name: "x",
            start_ns,
            end_ns,
        };
        r.spans = vec![
            mk(0, None, 0, 100),
            mk(1, Some(0), 10, 40),
            mk(2, Some(0), 50, 70),
            mk(3, Some(2), 55, 60),
        ];
        assert_eq!(r.self_times(), vec![50, 30, 15, 5]);
    }

    #[test]
    fn nesting_and_op_ids_are_recorded() {
        let mut r = Recorder::new(true);
        r.set_op(3);
        r.span("outer", |r| {
            r.span("inner", |_| ());
        });
        r.set_op(4);
        r.span("next", |_| ());
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), 3));
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("next", None, 4));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
        assert_eq!(r.durations("inner").len(), 1);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("a", |_| 5), 5);
        assert!(r.spans().is_empty());
    }
}
