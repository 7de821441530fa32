//! The lock-free metrics registry: striped counters and gauges, plus
//! log-bucketed mergeable latency histograms.
//!
//! Handle types ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones registered once — typically into a per-crate `OnceLock` handle
//! struct — and recorded from any thread without locks or allocation.
//! Every record call first checks the process-wide enable flag
//! ([`crate::enabled`]); when observability is off the call is a single
//! relaxed load and an untaken branch (the no-op recorder path), so
//! instrumented hot loops cost next to nothing in kgbench's runs, which
//! leave the flag off.
//!
//! Contention model: counters and gauges stripe their cells across
//! [`STRIPES`] cache-line-padded atomics, with each thread pinned to one
//! stripe round-robin, so concurrent workers never bounce a shared line.
//! Histograms keep one stripe of fixed log2 buckets per slot and merge
//! the stripes at snapshot time — the same merge the per-worker
//! histogram-aggregation property test exercises.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Stripe count for counters, gauges, and histograms. A power of two a
/// little above typical worker-pool sizes: enough to make same-cell
/// collisions rare without bloating snapshot cost.
pub const STRIPES: usize = 16;

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i - 1]` — 64 log2 buckets covering the
/// full `u64` range with fixed HDR-style resolution (no allocation, no
/// rescale on the hot path).
pub const BUCKETS: usize = 65;

/// One atomic on its own cache line (padded to 128 bytes so adjacent
/// stripes never false-share, including on prefetch-pair architectures).
#[repr(align(128))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

#[repr(align(128))]
#[derive(Default)]
struct PaddedI64(AtomicI64);

/// The stripe this thread records into, assigned round-robin on first
/// use. Workers therefore spread across stripes even when the pool is
/// larger than [`STRIPES`] (two workers sharing a stripe is correct,
/// just marginally more contended).
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

struct CounterCore {
    name: &'static str,
    cells: [PaddedU64; STRIPES],
}

/// A monotonically increasing striped counter.
#[derive(Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    fn new(name: &'static str) -> Self {
        Counter(Arc::new(CounterCore {
            name,
            cells: Default::default(),
        }))
    }

    /// Registered metric name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Add `n`. No-op while observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1. No-op while observability is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum over all stripes.
    pub fn get(&self) -> u64 {
        self.0
            .cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

struct GaugeCore {
    name: &'static str,
    cells: [PaddedI64; STRIPES],
}

/// A striped up/down gauge (e.g. queue depth). Increments and decrements
/// may land on different stripes; only the sum is meaningful.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    fn new(name: &'static str) -> Self {
        Gauge(Arc::new(GaugeCore {
            name,
            cells: Default::default(),
        }))
    }

    /// Registered metric name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Add `n` (negative to decrement). No-op while disabled — a gauge is
    /// therefore only meaningful over a window in which the enable flag
    /// did not change.
    #[inline]
    pub fn add(&self, n: i64) {
        if !crate::enabled() {
            return;
        }
        self.0.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Sum over all stripes.
    pub fn get(&self) -> i64 {
        self.0
            .cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// The log2 bucket a value falls into: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: 0, 1, 3, 7, … , `u64::MAX`.
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    if i == 0 {
        0
    } else {
        u64::MAX >> (64 - i)
    }
}

/// One stripe of histogram state. `min` starts at `u64::MAX` and is
/// normalized away in the snapshot when the stripe is empty.
struct HistStripe {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

struct HistogramCore {
    name: &'static str,
    stripes: [HistStripe; STRIPES],
}

/// A fixed-bucket log2 latency histogram, striped per worker and merged
/// at snapshot time. Values are whatever unit the metric name declares
/// (the kgdual convention is nanoseconds, suffix `_ns`).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(name: &'static str) -> Self {
        Histogram(Arc::new(HistogramCore {
            name,
            stripes: std::array::from_fn(|_| HistStripe::default()),
        }))
    }

    /// Registered metric name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Record one value. No-op while observability is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let s = &self.0.stripes[stripe()];
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.min.fetch_min(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record the elapsed nanoseconds of a [`crate::Timer`], if it was
    /// started (the timer is inert when observability was off at
    /// creation).
    #[inline]
    pub fn record_timer(&self, t: crate::Timer) {
        if let Some(ns) = t.elapsed_ns() {
            self.record(ns);
        }
    }

    /// Merge every stripe into one [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for s in &self.0.stripes {
            let mut part = HistogramSnapshot::default();
            for (b, v) in part.buckets.iter_mut().zip(&s.buckets) {
                *b = v.load(Ordering::Relaxed);
            }
            part.count = s.count.load(Ordering::Relaxed);
            part.sum = s.sum.load(Ordering::Relaxed);
            part.min = s.min.load(Ordering::Relaxed);
            part.max = s.max.load(Ordering::Relaxed);
            out.merge(&part);
        }
        out
    }
}

/// A point-in-time, mergeable view of a histogram — also usable directly
/// as a single-threaded reference recorder in tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bound`] for bounds).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values (wrapping at `u64::MAX`).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one value into this snapshot (single-threaded reference
    /// path; the concurrent path is [`Histogram::record`]).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` in. Commutative and associative — per-worker
    /// histograms merge in any order to the same result (the property
    /// test in `tests/histogram_merge.rs` pins exactly this).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// No samples recorded yet?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 when empty. Log2 buckets make this exact
    /// to within a factor of two — the honest resolution of the scheme.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `min`, normalized to 0 for empty histograms (for exposition).
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn name(&self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name(),
            Metric::Gauge(g) => g.name(),
            Metric::Histogram(h) => h.name(),
        }
    }
}

/// The process-wide metric registry. Registration (cold path, once per
/// metric at startup) takes a mutex; recording through the returned
/// handles never does.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (the global one lives in [`crate::Obs`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T: Clone>(
        &self,
        name: &'static str,
        make: impl FnOnce() -> Metric,
        pick: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut inner = self.inner.lock().unwrap();
        if let Some(existing) = inner.iter().find(|m| m.name() == name) {
            return pick(existing).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with a different type")
            });
        }
        let metric = make();
        let out = pick(&metric).expect("freshly made metric matches its own kind");
        inner.push(metric);
        out
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.register(
            name,
            || Metric::Counter(Counter::new(name)),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.register(
            name,
            || Metric::Gauge(Gauge::new(name)),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Register (or look up) a histogram by name.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.register(
            name,
            || Metric::Histogram(Histogram::new(name)),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// A stable-ordered (sorted by name) snapshot of every registered
    /// metric, ready for the text/JSON exporters.
    pub fn snapshot(&self) -> crate::export::MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut out = crate::export::MetricsSnapshot::default();
        for m in inner.iter() {
            match m {
                Metric::Counter(c) => out.counters.push((c.name().to_owned(), c.get())),
                Metric::Gauge(g) => out.gauges.push((g.name().to_owned(), g.get())),
                Metric::Histogram(h) => out.histograms.push((h.name().to_owned(), h.snapshot())),
            }
        }
        out.counters.sort_by(|a, b| a.0.cmp(&b.0));
        out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Global monotonic clock anchor: span timestamps and timer readings are
/// nanoseconds since the first observability call in the process.
pub(crate) fn now_ns() -> u64 {
    static ANCHOR: OnceLock<std::time::Instant> = OnceLock::new();
    ANCHOR
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() {
        crate::global().set_enabled(true);
    }

    #[test]
    fn bucket_index_and_bounds_agree() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every bucket's bound maps back into its own bucket, and the
        // next value up maps into the next bucket — the boundaries are
        // exact.
        for i in 0..BUCKETS {
            let b = bucket_bound(i);
            assert_eq!(bucket_index(b), i, "bound of bucket {i}");
            if b < u64::MAX {
                assert_eq!(bucket_index(b + 1), i + 1, "bound+1 of bucket {i}");
            }
        }
    }

    #[test]
    fn counter_sums_across_stripes_and_threads() {
        on();
        let r = MetricsRegistry::new();
        let c = r.counter("t_counter");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_tracks_up_and_down() {
        on();
        let r = MetricsRegistry::new();
        let g = r.gauge("t_gauge");
        g.add(10);
        g.dec();
        g.dec();
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn histogram_snapshot_merges_stripes() {
        on();
        let r = MetricsRegistry::new();
        let h = r.histogram("t_hist");
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..100u64 {
                        h.record(v + t * 1000);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 400);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 3099);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 400);
    }

    #[test]
    fn quantiles_respect_log_resolution() {
        let mut s = HistogramSnapshot::default();
        for v in 1..=1000u64 {
            s.record(v);
        }
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.5);
        // Rank 500 lands in bucket [256, 511]: the reported quantile is
        // the bucket's upper bound.
        assert_eq!(p50, 511);
        assert_eq!(s.quantile(1.0), 1000, "p100 clamps to the true max");
        assert_eq!(s.quantile(0.0), 1, "p0 is the first non-empty bucket");
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn registry_dedupes_by_name_and_panics_on_kind_clash() {
        on();
        let r = MetricsRegistry::new();
        let a = r.counter("same");
        let b = r.counter("same");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same handle behind both registrations");
        let clash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.gauge("same")));
        assert!(clash.is_err(), "a name cannot change metric kind");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        on();
        let r = MetricsRegistry::new();
        r.counter("z_last").inc();
        r.counter("a_first").add(5);
        r.gauge("mid").add(-3);
        r.histogram("lat_ns").record(42);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a_first", "z_last"]
        );
        assert_eq!(snap.counters[0].1, 5);
        assert_eq!(snap.gauges[0], ("mid".to_owned(), -3));
        assert_eq!(snap.histograms[0].1.count, 1);
    }
}
