//! Execution context: statistics, the work limit, and errors.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calibrated simulated latency per relational work unit, in nanoseconds.
///
/// Both substrates here are embedded, in-memory engines, so raw wall-clock
/// compresses the gap the paper measured between a disk-based,
/// client-server MySQL and Neo4j. The paper's own Table 1 provides the
/// calibration target: at equal data size MySQL answers the complex query
/// 18–25× slower than Neo4j, while our operator-count ratio for the same
/// query is ≈2.2×. Charging relational work ~8× more per unit reproduces
/// the published gap (README, "Simulated cost and ablations"). The absolute
/// scale (nanoseconds) is arbitrary — only the ratio carries meaning.
pub const REL_NANOS_PER_WORK_UNIT: f64 = 50.0;
/// Calibrated simulated latency per graph-store work unit (see
/// [`REL_NANOS_PER_WORK_UNIT`]).
pub const GRAPH_NANOS_PER_WORK_UNIT: f64 = 6.0;

/// Counters describing the physical work one execution performed.
///
/// `work_units` is the deterministic cost surrogate used by tests and by
/// DOTIL's virtual-cost mode: wall-clock measurements on shared hardware are
/// noisy, whereas operator counters are exact and reproducible.
#[derive(Clone, Copy, Default, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Rows read by full partition scans (relational) or edge-seed scans
    /// (graph).
    pub rows_scanned: u64,
    /// Sorted-index or adjacency probes.
    pub index_probes: u64,
    /// Rows inserted into join hash tables.
    pub rows_hashed: u64,
    /// Rows produced by join/extension steps (intermediate cardinality).
    pub rows_joined: u64,
    /// Rows in the final result.
    pub rows_output: u64,
    /// Partitions/tables touched.
    pub tables_touched: u64,
}

impl ExecStats {
    /// Deterministic cost surrogate. Weights reflect that a scanned row is
    /// an IO-ish unit while probe/hash/join rows are CPU-ish units; the
    /// absolute scale is arbitrary but consistent across both stores.
    pub fn work_units(&self) -> u64 {
        self.io_units()
            + self.index_probes * 3
            + self.rows_hashed * 2
            + self.rows_joined
            + self.rows_output
    }

    /// The IO share of [`work_units`](Self::work_units): scanned rows.
    pub fn io_units(&self) -> u64 {
        self.rows_scanned * 2
    }

    /// The CPU share of [`work_units`](Self::work_units): probes, hashed,
    /// joined and output rows.
    pub fn cpu_units(&self) -> u64 {
        self.work_units() - self.io_units()
    }

    /// Simulated latency of this work at `nanos_per_unit` (use the
    /// calibrated [`REL_NANOS_PER_WORK_UNIT`] / [`GRAPH_NANOS_PER_WORK_UNIT`]).
    pub fn simulated(&self, nanos_per_unit: f64) -> std::time::Duration {
        std::time::Duration::from_nanos((self.work_units() as f64 * nanos_per_unit) as u64)
    }

    /// Merge another execution's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
        self.rows_hashed += other.rows_hashed;
        self.rows_joined += other.rows_joined;
        self.rows_output += other.rows_output;
        self.tables_touched += other.tables_touched;
    }
}

/// Errors surfaced by query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The run reached its [`ExecContext::work_limit`]. Carries the work
    /// done up to that point so the counterfactual runner can report a
    /// partial cost.
    Cancelled {
        /// Work units accumulated before the cancellation was observed.
        partial_work: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Cancelled { partial_work } => {
                write!(f, "execution cancelled after {partial_work} work units")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Inert: it exists only because the `kgbench` benchmark links
/// [`ExecContext::with_governor`]; ROADMAP item 14's benchmark change
/// deletes it.
#[derive(Debug, Default)]
pub struct ResourceGovernor;

/// Everything an executor needs besides the query: a work limit and a
/// place to accumulate statistics.
#[derive(Default)]
pub struct ExecContext {
    /// Accumulated statistics.
    pub stats: ExecStats,
    /// Self-cancel at the first poll where `stats.work_units()` reaches
    /// the value behind this bound. This is the deterministic form of
    /// DOTIL's λ cutoff (Algorithm 2 stops the counterfactual relational
    /// run once its cost reaches `λ · c1`). The value is shared so that it
    /// can be published while the run is under way: the counterfactual
    /// starts its relational side at `u64::MAX`, which nothing reaches,
    /// and its graph side stores `λ · c1` once it knows `c1`.
    pub work_limit: Option<Arc<AtomicU64>>,
}

impl ExecContext {
    /// Context with no work limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`ExecContext::new`]. It exists only because the `kgbench`
    /// benchmark links it; ROADMAP item 14's benchmark change deletes it.
    pub fn with_governor(_governor: Arc<ResourceGovernor>) -> Self {
        Self::new()
    }

    /// Charge `n` scanned rows (IO-ish work) and poll the work limit.
    #[inline]
    pub fn charge_scan(&mut self, n: u64) -> Result<(), ExecError> {
        self.stats.rows_scanned += n;
        self.poll()
    }

    /// Charge `n` index/adjacency probes (CPU-ish work) and poll.
    #[inline]
    pub fn charge_probe(&mut self, n: u64) -> Result<(), ExecError> {
        self.stats.index_probes += n;
        self.poll()
    }

    /// Charge `n` hash-table build rows and poll.
    #[inline]
    pub fn charge_hash(&mut self, n: u64) -> Result<(), ExecError> {
        self.stats.rows_hashed += n;
        self.poll()
    }

    /// Charge `n` join-output rows and poll.
    #[inline]
    pub fn charge_join(&mut self, n: u64) -> Result<(), ExecError> {
        self.stats.rows_joined += n;
        self.poll()
    }

    /// Context that self-cancels once it has charged `limit` work units.
    pub fn with_work_limit(limit: u64) -> Self {
        Self::with_shared_work_limit(Arc::new(AtomicU64::new(limit)))
    }

    /// Context that self-cancels once it has charged whatever `limit`
    /// holds at the time of each poll.
    pub fn with_shared_work_limit(limit: Arc<AtomicU64>) -> Self {
        ExecContext {
            work_limit: Some(limit),
            ..Self::default()
        }
    }

    /// Check the work limit.
    #[inline]
    pub fn poll(&self) -> Result<(), ExecError> {
        if let Some(limit) = &self.work_limit {
            let done = self.stats.work_units();
            if done >= limit.load(Ordering::Relaxed) {
                return Err(ExecError::Cancelled { partial_work: done });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_work_units_weighting() {
        let s = ExecStats {
            rows_scanned: 10,
            index_probes: 1,
            rows_hashed: 2,
            rows_joined: 3,
            rows_output: 4,
            tables_touched: 1,
        };
        assert_eq!(s.work_units(), 20 + 3 + 4 + 3 + 4);
        assert_eq!((s.io_units(), s.cpu_units()), (20, 3 + 4 + 3 + 4));
        assert_eq!(s.io_units() + s.cpu_units(), s.work_units());
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = ExecStats {
            rows_scanned: 1,
            ..Default::default()
        };
        let b = ExecStats {
            rows_scanned: 2,
            rows_output: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 3);
        assert_eq!(a.rows_output, 5);
    }

    #[test]
    fn context_charges_accumulate() {
        let mut ctx = ExecContext::new();
        ctx.charge_scan(100).unwrap();
        ctx.charge_probe(5).unwrap();
        ctx.charge_hash(7).unwrap();
        ctx.charge_join(9).unwrap();
        assert_eq!(ctx.stats.rows_scanned, 100);
        assert_eq!(ctx.stats.index_probes, 5);
        assert_eq!(ctx.stats.rows_hashed, 7);
        assert_eq!(ctx.stats.rows_joined, 9);
    }

    #[test]
    fn cancelled_context_errors_with_partial_work() {
        let mut ctx = ExecContext::with_work_limit(0);
        match ctx.charge_scan(10) {
            Err(ExecError::Cancelled { partial_work }) => assert_eq!(partial_work, 20),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn work_limit_self_cancels() {
        let mut ctx = ExecContext::with_work_limit(100);
        ctx.charge_scan(10).unwrap(); // 20 units — fine
        assert!(ctx.charge_scan(100).is_err(), "220 units reach the limit");
    }

    #[test]
    fn a_shared_work_limit_applies_from_the_next_poll() {
        let limit = Arc::new(AtomicU64::new(u64::MAX));
        let mut ctx = ExecContext::with_shared_work_limit(Arc::clone(&limit));
        ctx.charge_scan(100).unwrap(); // 200 units, nothing published yet
        limit.store(150, Ordering::Relaxed);
        match ctx.poll() {
            Err(ExecError::Cancelled { partial_work }) => assert_eq!(partial_work, 200),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn work_limit_none_never_cancels() {
        let mut ctx = ExecContext::new();
        ctx.charge_scan(u32::MAX as u64).unwrap();
        assert!(ctx.poll().is_ok());
    }
}
