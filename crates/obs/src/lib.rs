//! # kgdual-obs
//!
//! The observability substrate for the kgdual stack: a lock-free metrics
//! registry (striped counters/gauges, log2-bucketed mergeable latency
//! histograms), structured tracing spans with parent linkage and
//! task-class annotation, and stable-ordered snapshot exporters
//! (Prometheus-style text and JSON).
//!
//! The paper's entire evaluation is about where time and resources go —
//! TTI, tuning cost, resource consumption — but the repo's deterministic
//! counters (`ExecStats`, `SchedStats`, work units) are end-of-run
//! aggregates by design. This crate adds the *wall-clock* and
//! *distributional* view: per-query latency histograms, per-task-class
//! timings, tuning-phase durations — the
//! operational surface a serving front-end exposes.
//!
//! ## The determinism contract
//!
//! Metrics and traces are **observational only**: no digest, route,
//! work-unit count, or DOTIL decision ever reads them, and recording
//! never perturbs execution order (everything is relaxed atomics and
//! per-thread buffers). The equivalence suite in `kgdual-bench` runs
//! with recording on and off and requires byte-identical results.
//!
//! ## On/off switch
//!
//! One process-wide flag gates every record call. It initializes from the
//! `KGDUAL_OBS` env var (`on`/`1`/`true` enable) and can be flipped at
//! runtime with [`Obs::set_enabled`] — tests compare enabled and disabled
//! runs in one process. While disabled, every metric record is a single
//! relaxed load and an untaken branch, span guards are inert (no clock
//! read, no allocation), and [`timer`] returns a no-op timer: the
//! "noop recorder" mode. kgbench runs with recording off, so that cost
//! is inside every end-to-end metric it reports; its
//! `obs.trace_overhead_pct` measures its own layer spans.
//!
//! ## Shape
//!
//! * [`global()`] — the process-wide [`Obs`] instance (registry, trace
//!   recorder, enable flag).
//! * [`MetricsRegistry::counter`]/[`gauge`](MetricsRegistry::gauge)/
//!   [`histogram`](MetricsRegistry::histogram) — register-once typed
//!   handles; each instrumented crate keeps its handles in a `OnceLock`
//!   struct so the hot path is a field access.
//! * [`span!`] / [`span()`] — RAII span guards feeding per-worker ring
//!   buffers, drained by a [`TraceSink`] ([`JsonLinesSink`] for files,
//!   [`MemorySink`] for tests).
//! * [`MetricsRegistry::snapshot`] → [`MetricsSnapshot`] →
//!   [`to_prometheus`](MetricsSnapshot::to_prometheus) /
//!   [`to_json`](MetricsSnapshot::to_json); every bench binary dumps the
//!   JSON form with `--obs-out <path>`.
//!
//! ```
//! let obs = kgdual_obs::global();
//! obs.set_enabled(true);
//! let lat = obs.metrics().histogram("doc_query_wall_ns");
//! let t = kgdual_obs::timer();
//! {
//!     let _span = kgdual_obs::span!("query", qid = 1u64);
//! }
//! lat.record_timer(t);
//! assert!(lat.snapshot().count >= 1);
//! ```

pub mod export;
pub mod metrics;
pub mod trace;

pub use export::MetricsSnapshot;
pub use metrics::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    BUCKETS,
};
pub use trace::{
    current_span_id, current_task_class, set_current_parent, set_task_class, span, JsonLinesSink,
    MemorySink, NoopRecorder, SpanGuard, SpanRecord, TraceRecorder, TraceSink,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide observability state: enable flag, metric registry,
/// trace recorder. One per process, via [`global`].
pub struct Obs {
    enabled: AtomicBool,
    metrics: MetricsRegistry,
    trace: TraceRecorder,
}

impl Obs {
    fn from_env() -> Self {
        Obs {
            enabled: AtomicBool::new(env_enabled()),
            metrics: MetricsRegistry::new(),
            trace: TraceRecorder::new(),
        }
    }

    /// Is recording currently on?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording at runtime. Metrics registered while off keep
    /// their handles; only the record calls are gated.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span recorder.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }
}

/// What `KGDUAL_OBS` selects at process start (`on`/`1`/`true` enable;
/// anything else, or unset, disables). Exposed so tests that flip the
/// flag can restore the environment's choice.
pub fn env_enabled() -> bool {
    matches!(
        std::env::var("KGDUAL_OBS").as_deref(),
        Ok("on") | Ok("1") | Ok("true")
    )
}

/// The process-wide [`Obs`] instance, initialized from `KGDUAL_OBS` on
/// first touch.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::from_env)
}

/// The hot-path gate: one relaxed load. Every record call in this crate
/// checks it first; instrumented code can check it directly to skip
/// building attribute values.
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// A started wall-clock timer, or an inert one when observability was off
/// at creation — pair with [`Histogram::record_timer`].
#[derive(Debug)]
pub struct Timer(Option<std::time::Instant>);

impl Timer {
    /// Elapsed nanoseconds, or `None` for an inert timer.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|t| t.elapsed().as_nanos() as u64)
    }
}

/// Start a [`Timer`] — inert (no clock read) while observability is off.
#[inline]
pub fn timer() -> Timer {
    Timer(if enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_flag_flips_at_runtime() {
        let obs = global();
        obs.set_enabled(true);
        assert!(enabled());
        let t = timer();
        assert!(t.elapsed_ns().is_some());
        obs.set_enabled(true); // leave on for sibling tests
    }

    #[test]
    fn timer_feeds_histograms() {
        global().set_enabled(true);
        let h = global().metrics().histogram("lib_timer_test_ns");
        let t = timer();
        h.record_timer(t);
        assert_eq!(h.snapshot().count, 1);
    }
}
