//! The sharded relational substrate: `N` independent shard stores under
//! one router.
//!
//! [`ShardedRelStore`] owns the physical tables of the relational store,
//! split across [`RelShard`]s by the predicate-keyed [`ShardRouter`]. A
//! shard owns *whole* partitions, so every per-partition operation
//! (insert, delete, lookup, stats, bulk load) routes to exactly one shard
//! and is indistinguishable from the monolithic layout. The only
//! multi-shard operations are enumerations — `preds`, the
//! variable-predicate union scan — and those are defined to run in
//! **canonical (ascending predicate) order across all shards**, which is
//! exactly the monolithic table order. That is the determinism contract:
//! for every shard count, every deterministic metric (rows, row order
//! under `LIMIT`, work units, simulated TTI) is byte-identical to the
//! single-shard store.
//!
//! Shard scans are independent by construction, so they can be fanned out
//! across threads: [`ShardDispatch`] is the pluggable execution hook
//! ([`SerialDispatch`] runs jobs inline; `kgdual-exec` installs a pooled
//! implementation over its worker threads), and [`ShardScanPart`] is the
//! per-shard result — per-predicate row blocks plus that shard's own
//! [`ExecStats`], which the facade merges in canonical order so the
//! parallel path reproduces the serial numbers exactly.

use crate::exec::{Bindings, ExecStats};
use crate::router::ShardRouter;
use crate::table::{PredTable, TableStats};
use kgdual_model::{NodeId, PredId, SharedPairs};

/// One shard: the partitions the router assigned here, sorted by
/// predicate so in-shard enumeration is canonical by construction.
#[derive(Debug, Default)]
pub struct RelShard {
    tables: Vec<(PredId, PredTable)>,
    rows: usize,
}

impl RelShard {
    /// The partition table for `pred`, if this shard has ever stored it.
    pub fn table(&self, pred: PredId) -> Option<&PredTable> {
        self.tables
            .binary_search_by_key(&pred, |&(p, _)| p)
            .ok()
            .map(|i| &self.tables[i].1)
    }

    /// The table for `pred`, created empty on first touch.
    fn table_mut(&mut self, pred: PredId) -> &mut PredTable {
        match self.tables.binary_search_by_key(&pred, |&(p, _)| p) {
            Ok(i) => &mut self.tables[i].1,
            Err(i) => {
                self.tables.insert(i, (pred, PredTable::new()));
                &mut self.tables[i].1
            }
        }
    }

    /// Rows stored in this shard (its share of `total_triples`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// This shard's partitions in ascending predicate order.
    pub fn tables(&self) -> impl Iterator<Item = (PredId, &PredTable)> + '_ {
        self.tables.iter().map(|(p, t)| (*p, t))
    }

    /// Build the secondary indexes and statistics of every non-empty
    /// partition in this shard (see [`PredTable::warm`]). Shards are
    /// disjoint, so per-shard warm jobs are independent — the facade fans
    /// them out through the installed [`ShardDispatch`]. Returns how many
    /// tables actually had something to build.
    pub fn warm_indexes(&self) -> usize {
        self.tables()
            .filter(|(_, t)| !t.is_empty())
            .filter(|(_, t)| t.warm())
            .count()
    }
}

/// The sharded relational substrate: a [`ShardRouter`] plus its shards.
#[derive(Debug)]
pub struct ShardedRelStore {
    router: ShardRouter,
    shards: Vec<RelShard>,
    total_rows: usize,
}

impl Default for ShardedRelStore {
    /// The monolithic single-shard layout.
    fn default() -> Self {
        Self::new(ShardRouter::new(1))
    }
}

impl ShardedRelStore {
    /// An empty store sharded by `router`.
    pub fn new(router: ShardRouter) -> Self {
        let shards = (0..router.shard_count())
            .map(|_| RelShard::default())
            .collect();
        ShardedRelStore {
            router,
            shards,
            total_rows: 0,
        }
    }

    /// The routing configuration.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `pred`.
    pub fn shard_of(&self, pred: PredId) -> usize {
        self.router.assign(pred)
    }

    /// One shard, by index.
    pub fn shard(&self, i: usize) -> &RelShard {
        &self.shards[i]
    }

    /// Per-shard row counts; sums to [`Self::total_triples`]. This is the
    /// shard-aware accounting surface: each shard's share of `T_R` is
    /// exact, and the monolithic total is recovered by summation.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(RelShard::rows).collect()
    }

    /// Total rows across all shards.
    pub fn total_triples(&self) -> usize {
        self.total_rows
    }

    /// The partition table for `pred`, routed to its owning shard.
    #[inline]
    pub fn table(&self, pred: PredId) -> Option<&PredTable> {
        self.shards[self.router.assign(pred)].table(pred)
    }

    /// Statistics for a partition.
    pub fn stats(&self, pred: PredId) -> Option<TableStats> {
        self.table(pred).map(PredTable::stats)
    }

    /// Rows in one partition (0 if absent).
    pub fn partition_len(&self, pred: PredId) -> usize {
        self.table(pred).map_or(0, PredTable::len)
    }

    /// Append one row to `pred`'s partition.
    pub fn insert(&mut self, pred: PredId, s: NodeId, o: NodeId) {
        let shard = &mut self.shards[self.router.assign(pred)];
        shard.table_mut(pred).insert(s, o);
        shard.rows += 1;
        self.total_rows += 1;
    }

    /// Bulk-append a shared run of rows to `pred`'s partition (an empty
    /// partition adopts the run, see [`PredTable::insert_shared`]).
    pub fn insert_batch(&mut self, pred: PredId, pairs: &SharedPairs) {
        let shard = &mut self.shards[self.router.assign(pred)];
        shard.table_mut(pred).insert_shared(pairs);
        shard.rows += pairs.len();
        self.total_rows += pairs.len();
    }

    /// Delete every `(s, o)` row of `pred`; returns the number removed.
    pub fn delete(&mut self, pred: PredId, s: NodeId, o: NodeId) -> usize {
        let shard = &mut self.shards[self.router.assign(pred)];
        let Some(i) = shard.tables.binary_search_by_key(&pred, |&(p, _)| p).ok() else {
            return 0;
        };
        let removed = shard.tables[i].1.delete(s, o);
        shard.rows -= removed;
        self.total_rows -= removed;
        removed
    }

    /// Non-empty predicates across all shards, ascending — the canonical
    /// enumeration order shared with the monolithic store.
    pub fn preds_sorted(&self) -> Vec<PredId> {
        let mut out: Vec<PredId> = self
            .shards
            .iter()
            .flat_map(|s| s.tables())
            .filter(|(_, t)| !t.is_empty())
            .map(|(p, _)| p)
            .collect();
        if self.shards.len() > 1 {
            out.sort_unstable();
        }
        out
    }

    /// All non-empty partitions across all shards in canonical (ascending
    /// predicate) order — the serial union-scan path. Each shard's list
    /// is already ascending, so the monolithic layout needs no sort.
    pub fn tables_canonical(&self) -> Vec<(PredId, &PredTable)> {
        let mut out: Vec<(PredId, &PredTable)> = self
            .shards
            .iter()
            .flat_map(|s| s.tables())
            .filter(|(_, t)| !t.is_empty())
            .collect();
        if self.shards.len() > 1 {
            out.sort_unstable_by_key(|&(p, _)| p);
        }
        out
    }
}

/// What one shard's scan job produced: per-predicate row blocks (each
/// sharing the caller's schema, in ascending predicate order) plus the
/// shard's own execution counters. The facade merges parts across shards
/// in canonical predicate order, so concatenated rows and summed stats
/// are byte-identical to the serial scan.
#[derive(Debug, Default)]
pub struct ShardScanPart {
    /// Row blocks per non-empty partition scanned, ascending by predicate.
    pub per_pred: Vec<(PredId, Bindings)>,
    /// Work this shard's scan charged (merged into the caller's context).
    /// On cancellation this carries the partial work done before the
    /// shard stopped — the merge's `partial_work` is recovered from the
    /// summed stats.
    pub stats: ExecStats,
    /// Whether the scan observed a cancellation and stopped early.
    pub cancelled: bool,
}

/// Executes independent per-shard scan jobs — possibly in parallel.
///
/// The contract: `run_jobs(n, job)` calls `job(i)` exactly once for every
/// `i in 0..n` and returns the results **indexed by job** (`out[i]` is
/// `job(i)`'s result). Jobs are independent and side-effect-free on the
/// store (they only read tables and charge their private stats), so any
/// execution order — or full concurrency — is observationally identical.
/// `kgdual-exec` provides the pooled implementation that fans jobs over
/// its worker threads; [`SerialDispatch`] is the inline fallback.
pub trait ShardDispatch: Send + Sync + std::fmt::Debug {
    /// Run `jobs` jobs, returning their results in job order.
    fn run_jobs(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> ShardScanPart + Sync),
    ) -> Vec<ShardScanPart>;
}

/// Runs shard jobs inline, one after another (the serial reference
/// implementation of [`ShardDispatch`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialDispatch;

impl ShardDispatch for SerialDispatch {
    fn run_jobs(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> ShardScanPart + Sync),
    ) -> Vec<ShardScanPart> {
        (0..jobs).map(job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn filled(shards: usize) -> ShardedRelStore {
        let mut s = ShardedRelStore::new(ShardRouter::new(shards));
        for p in 0..6u32 {
            for r in 0..(p + 1) {
                s.insert(PredId(p), n(r), n(r + 1));
            }
        }
        s
    }

    #[test]
    fn routing_keeps_partitions_whole() {
        let s = filled(4);
        for p in 0..6u32 {
            let pred = PredId(p);
            let owner = s.shard_of(pred);
            assert_eq!(s.partition_len(pred), (p + 1) as usize);
            assert!(s.shard(owner).table(pred).is_some());
            for other in 0..s.shard_count() {
                if other != owner {
                    assert!(s.shard(other).table(pred).is_none());
                }
            }
        }
    }

    #[test]
    fn shard_rows_sum_to_total() {
        for shards in [1, 2, 4, 8] {
            let s = filled(shards);
            assert_eq!(s.total_triples(), 21);
            assert_eq!(s.shard_rows().iter().sum::<usize>(), 21);
            assert_eq!(s.shard_rows().len(), shards);
        }
    }

    #[test]
    fn canonical_enumeration_is_shard_invariant() {
        let mono = filled(1);
        for shards in [2, 4, 8] {
            let sharded = filled(shards);
            assert_eq!(mono.preds_sorted(), sharded.preds_sorted());
            let mono_tables: Vec<(PredId, usize)> = mono
                .tables_canonical()
                .iter()
                .map(|&(p, t)| (p, t.len()))
                .collect();
            let sharded_tables: Vec<(PredId, usize)> = sharded
                .tables_canonical()
                .iter()
                .map(|&(p, t)| (p, t.len()))
                .collect();
            assert_eq!(mono_tables, sharded_tables);
        }
    }

    #[test]
    fn delete_updates_shard_accounting() {
        let mut s = filled(4);
        let before = s.shard_rows();
        let owner = s.shard_of(PredId(5));
        assert_eq!(s.delete(PredId(5), n(0), n(1)), 1);
        assert_eq!(s.total_triples(), 20);
        assert_eq!(s.shard_rows()[owner], before[owner] - 1);
        // Deleting from a predicate no shard has ever stored is a no-op.
        assert_eq!(s.delete(PredId(99), n(0), n(1)), 0);
    }

    #[test]
    fn emptied_partitions_drop_out_of_enumeration() {
        let mut s = filled(2);
        s.delete(PredId(0), n(0), n(1));
        assert!(!s.preds_sorted().contains(&PredId(0)));
        assert!(s.table(PredId(0)).is_some(), "entry survives for reuse");
        assert_eq!(s.partition_len(PredId(0)), 0);
    }

    #[test]
    fn serial_dispatch_runs_every_job_in_order() {
        let parts = SerialDispatch.run_jobs(4, &|i| ShardScanPart {
            stats: ExecStats {
                rows_scanned: i as u64,
                ..Default::default()
            },
            ..Default::default()
        });
        let got: Vec<u64> = parts.iter().map(|p| p.stats.rows_scanned).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
