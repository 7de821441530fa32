//! The graph-store contract the rest of the system uses.
//!
//! The dual store treats its native graph side as an abstract
//! budget-constrained accelerator: the query processor only ever asks
//! *"do you cover these predicates?"* and *"execute this subquery"*, the
//! tuner only ever loads and evicts whole partitions under a triple
//! budget, and update propagation only ever mirrors single edges into
//! resident partitions. [`GraphBackend`] captures exactly that contract;
//! `DualStore<B>`, the query processor, `PhysicalTuner`s (DOTIL and the
//! baselines), and the concurrent executor of `kgdual-exec` are written
//! against it. [`GraphStore`](crate::GraphStore) is its one
//! implementation.
//!
//! # Determinism contract
//!
//! All deterministic harness metrics (work units, simulated TTI, result
//! digests, DOTIL's tuning trail) are functions of the *logical* store
//! content, not of memory layout: the matcher charges work from reported
//! sizes only, and enumeration follows the canonical order the
//! [enumeration-order](kgdual_relstore::runs) contract fixes (ascending ids), so even
//! LIMIT-truncated queries pick the same rows whatever the layout.
//! Import effort is billed at
//! [`BULK_IMPORT_COST_PER_TRIPLE`](crate::store::BULK_IMPORT_COST_PER_TRIPLE)
//! per bulk-loaded triple and
//! [`SINGLE_UPDATE_COST`](crate::store::SINGLE_UPDATE_COST) per online
//! edge write.

use crate::store::{GraphExecError, GraphStoreError, ImportStats};
use kgdual_model::{NodeId, PredId, Triple};
use kgdual_relstore::{Bindings, ExecContext, SortedRuns};
use kgdual_sparql::EncodedQuery;
use std::sync::Arc;

/// A budget-constrained native graph substrate, holding a subset of the
/// knowledge graph's triple partitions (`T_G` in the paper) and answering
/// complex subqueries over them.
///
/// `Send + Sync` is part of the contract: the online phase executes
/// queries from many worker threads over a shared `&B` (all `&mut self`
/// methods are confined to the offline tuning phase by `kgdual-exec`'s
/// epoch lock).
pub trait GraphBackend: Send + Sync + std::fmt::Debug {
    /// An empty store with triple budget `B_G`.
    fn with_budget(budget: usize) -> Self
    where
        Self: Sized;

    /// The configured budget in triples.
    fn budget(&self) -> usize;

    /// Triples currently resident.
    fn used(&self) -> usize;

    /// Budget headroom in triples.
    fn available(&self) -> usize {
        self.budget().saturating_sub(self.used())
    }

    /// Residency check for one partition.
    fn is_loaded(&self, pred: PredId) -> bool;

    /// Residency check for a predicate set (`T_c ⊆ T_G` in Algorithm 1).
    fn covers(&self, preds: &[PredId]) -> bool {
        preds.iter().all(|p| self.is_loaded(*p))
    }

    /// Resident partitions and their sizes, ascending by predicate id
    /// (canonical order, like every [`CsrView`](kgdual_relstore::CsrView)
    /// enumeration — callers compare designs byte for byte).
    fn resident_partitions(&self) -> Vec<(PredId, usize)>;

    /// Size of one resident partition (0 if absent).
    fn partition_len(&self, pred: PredId) -> usize;

    /// Import/update effort spent so far.
    fn import_stats(&self) -> ImportStats;

    /// Bulk-load a whole partition (the tuner's `migrate` operation),
    /// enforcing the budget: the store holds `runs` itself. Migration
    /// hands in the relational table's own `Arc`, so no edge is copied;
    /// the first single-edge write to either store's copy un-shares it.
    fn load_runs(&mut self, pred: PredId, runs: Arc<SortedRuns>) -> Result<(), GraphStoreError>;

    /// Bulk-load a whole partition from `(s, o)` pairs in any order: builds
    /// its runs and hands them to [`load_runs`](Self::load_runs).
    fn load_partition(
        &mut self,
        pred: PredId,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<(), GraphStoreError> {
        self.load_runs(pred, Arc::new(SortedRuns::from_pairs(pairs)))
    }

    /// Evict a partition (the tuner's `evict` operation); returns its size.
    fn evict_partition(&mut self, pred: PredId) -> usize;

    /// Evict every resident partition, returning the number of triples
    /// dropped. Design restore uses this to reset `T_G` before replaying a
    /// persisted residency set.
    fn evict_all(&mut self) -> usize {
        let resident = self.resident_partitions();
        let mut dropped = 0;
        for (pred, _) in resident {
            dropped += self.evict_partition(pred);
        }
        dropped
    }

    /// Online single-edge insert into a resident partition (update
    /// propagation keeps mirrored partitions fresh). Returns `false` when
    /// the partition is not resident (a no-op, not an error).
    fn insert_edge(&mut self, t: Triple) -> Result<bool, GraphStoreError>;

    /// Online single-edge delete; returns removed count (0 when the
    /// partition is not resident).
    fn delete_edge(&mut self, t: Triple) -> usize;

    /// Execute a compiled query by traversal. Every bound predicate must
    /// be resident; otherwise the result would silently miss data, so
    /// [`GraphExecError::MissingPartition`] is returned instead.
    fn execute(&self, q: &EncodedQuery, ctx: &mut ExecContext) -> Result<Bindings, GraphExecError>;
}
