//! The graph-store contract the rest of the system uses.
//!
//! The dual store treats its native graph side as an abstract
//! budget-constrained accelerator: the query processor only ever asks
//! *"do you cover these predicates?"* and *"execute this subquery"*, the
//! tuner only ever admits and evicts whole partitions under a triple
//! budget, and a write to a resident partition only ever adjusts its
//! length and bill — the triples themselves live in `T_R`, which the
//! graph side reads. [`GraphBackend`] captures exactly that contract;
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
//! per admitted triple and
//! [`SINGLE_UPDATE_COST`](crate::store::SINGLE_UPDATE_COST) per online
//! write to a resident partition.

use crate::store::{GraphExecError, GraphStoreError, ImportStats};
use kgdual_model::PredId;
use kgdual_relstore::{Bindings, ExecContext, RelStore};
use kgdual_sparql::EncodedQuery;

/// A budget-constrained native graph substrate: the residency set of the
/// knowledge graph's triple partitions (`T_G` in the paper, always a
/// subset of `T_R`), answering complex subqueries over them.
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

    /// Admit a whole partition of `len` triples (the tuner's `migrate`
    /// operation), enforcing the budget and billing
    /// [`BULK_IMPORT_COST_PER_TRIPLE`](crate::store::BULK_IMPORT_COST_PER_TRIPLE)
    /// per triple. A refusal changes nothing.
    fn admit(&mut self, pred: PredId, len: usize) -> Result<(), GraphStoreError>;

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

    /// Account one triple about to be inserted into `pred`'s partition:
    /// a resident partition grows by one and bills
    /// [`SINGLE_UPDATE_COST`](crate::store::SINGLE_UPDATE_COST). Returns
    /// `false` when the partition is not resident (a no-op, not an error),
    /// and refuses with [`GraphStoreError::BudgetExceeded`], changing
    /// nothing, when the budget has no headroom — so the caller asks
    /// before it writes `T_R`.
    fn record_insert(&mut self, pred: PredId) -> Result<bool, GraphStoreError>;

    /// Account `removed` triples deleted from `pred`'s partition: a
    /// resident partition shrinks by `removed` and, if that is nonzero,
    /// bills one [`SINGLE_UPDATE_COST`](crate::store::SINGLE_UPDATE_COST).
    fn record_delete(&mut self, pred: PredId, removed: usize);

    /// Execute a compiled query by traversal of `rel`'s runs for the
    /// resident partitions. Every bound predicate must be resident;
    /// otherwise the result would silently miss data, so
    /// [`GraphExecError::MissingPartition`] is returned instead.
    fn execute(
        &self,
        rel: &RelStore,
        q: &EncodedQuery,
        ctx: &mut ExecContext,
    ) -> Result<Bindings, GraphExecError>;
}
