//! Serving-path instruments registered with `kgdual-obs`.
//!
//! Same shape as the scheduler's `SchedObs`: one lazily-initialised
//! handle struct holding every serve metric, fetched through a
//! [`OnceLock`] so the hot path pays one pointer load after first use.
//! All recording sites honour the global `KGDUAL_OBS` kill switch —
//! with observability off these calls reduce to a relaxed flag check,
//! so kgbench, which serves with recording off, carries their cost in
//! every serving metric it reports (its `obs.trace_overhead_pct` covers
//! its own layer spans, not these).
//!
//! These metrics are *observational only*. Admission decisions and the
//! serve fingerprint read the deterministic [`crate::server::ServeStats`]
//! atomics, never these instruments, so enabling or disabling
//! `KGDUAL_OBS` can never change what the server admits or returns.

use kgdual_obs::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Handles for every serve-path instrument.
pub struct ServeObs {
    /// Requests admitted and executed (or at least scheduled).
    pub accepted: Counter,
    /// 429s from a full pending queue.
    pub rejected_queue_full: Counter,
    /// 429s from per-client fair-share enforcement.
    pub rejected_fair_share: Counter,
    /// 504s from deadlines that expired before execution.
    pub rejected_deadline: Counter,
    /// 503s issued while draining for shutdown.
    pub rejected_draining: Counter,
    /// Protocol-level failures (malformed HTTP/JSON, unknown endpoint).
    pub http_errors: Counter,
    /// Admitted-but-unfinished requests right now.
    pub queue_depth: Gauge,
    /// End-to-end request wall time (arrival to response write), ns.
    pub request_wall_ns: Histogram,
    /// Admission-to-execution queue wait, ns: from buying the admission
    /// ticket to the Query task starting on a scheduler worker.
    pub queue_wait_ns: Histogram,
}

/// The serve instrument handles, registering them on first call.
///
/// `GET /metrics` calls this before snapshotting, so a scrape that races
/// the first query still sees the serve metric family (at zero).
pub fn serve_obs() -> &'static ServeObs {
    static OBS: OnceLock<ServeObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = kgdual_obs::global().metrics();
        ServeObs {
            accepted: m.counter("serve_accepted"),
            rejected_queue_full: m.counter("serve_rejected_queue_full"),
            rejected_fair_share: m.counter("serve_rejected_fair_share"),
            rejected_deadline: m.counter("serve_rejected_deadline"),
            rejected_draining: m.counter("serve_rejected_draining"),
            http_errors: m.counter("serve_http_errors"),
            queue_depth: m.gauge("serve_queue_depth"),
            request_wall_ns: m.histogram("serve_request_wall_ns"),
            queue_wait_ns: m.histogram("serve_queue_wait_ns"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_named() {
        let a = serve_obs();
        let b = serve_obs();
        assert!(std::ptr::eq(a, b), "OnceLock must hand out one instance");
        assert_eq!(a.accepted.name(), "serve_accepted");
        assert_eq!(a.queue_depth.name(), "serve_queue_depth");
        assert_eq!(a.request_wall_ns.name(), "serve_request_wall_ns");
    }
}
