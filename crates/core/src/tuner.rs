//! The tuning interface between the dual store and physical design tuners.
//!
//! §3.2: "The dual-store tuner is invoked periodically to decide which
//! triple partitions to transfer from the relational store to the graph
//! store." The concrete reinforcement-learning tuner (DOTIL) lives in
//! `kgdual-dotil`; baselines live there too. This trait is what the batch
//! runner calls in the offline phase between batches.

use crate::dual::DualStore;
use kgdual_graphstore::{AdjacencyBackend, GraphBackend};
use kgdual_model::DesignError;
use kgdual_sched::Scheduler;
use kgdual_sparql::Query;
use serde::{Deserialize, Serialize};

/// Summary of one offline tuning phase.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Partitions migrated into the graph store.
    pub migrated: usize,
    /// Partitions evicted.
    pub evicted: usize,
    /// Triples moved in (bulk import volume).
    pub triples_in: u64,
    /// Triples moved out.
    pub triples_out: u64,
    /// Offline work units spent (training + migration), excluded from TTI
    /// per the paper's offline-tuning model. This is Algorithm 2's
    /// accounting: every cost pair a Q-update uses bills its `c1 + c2`,
    /// even when a tuner served the pair from a memo instead of executing
    /// it again.
    pub offline_work: u64,
}

/// A physical design tuner invoked between batches.
///
/// Generic over the graph-store substrate: a tuner drives the design of a
/// `DualStore<B>` through the [`GraphBackend`] contract only (residency,
/// budget, migrate/evict), so one tuner implementation serves every
/// backend — `impl<B: GraphBackend> PhysicalTuner<B> for MyTuner` is the
/// usual shape (DOTIL and the baselines in `kgdual-dotil` do exactly
/// that). The `B = AdjacencyBackend` default keeps concrete
/// `impl PhysicalTuner for MyTuner` blocks source-compatible.
pub trait PhysicalTuner<B: GraphBackend = AdjacencyBackend> {
    /// Human-readable name (used in experiment output).
    fn name(&self) -> &str;

    /// Offline phase: observe the most recent batch (the marked complex
    /// queries are inside `batch`) and adjust `T_G`.
    fn tune(&mut self, dual: &mut DualStore<B>, batch: &[Query]) -> TuningOutcome;

    /// Offline phase with access to the worker pool
    /// ([`kgdual_sched::Scheduler`]). The concurrent runner calls this
    /// inside the epoch barrier (the store's write lock), handing the
    /// tuner the query workers — idle for exactly that window — so
    /// independent offline work (DOTIL's counterfactual graph and
    /// relational runs) can run on them as
    /// [`kgdual_sched::TaskClass::OfflineTuning`] tasks.
    ///
    /// **Determinism contract:** `tune_with(dual, batch, sched)` must
    /// produce exactly the same design changes, outcome, and learned
    /// state as `tune(dual, batch)` for every `sched` — parallelism may
    /// change wall clock only. The default ignores the scheduler and
    /// delegates to [`tune`](PhysicalTuner::tune), which is trivially
    /// conforming; tuners that override it (DOTIL) restructure their
    /// work into order-preserving waves.
    fn tune_with(
        &mut self,
        dual: &mut DualStore<B>,
        batch: &[Query],
        sched: Option<&Scheduler>,
    ) -> TuningOutcome {
        let _ = sched;
        self.tune(dual, batch)
    }

    /// Serialize the tuner's learned state (Q-matrices, counters, …) for a
    /// design checkpoint ([`crate::persist`]). `None` — the default —
    /// means the tuner is stateless and a checkpoint records only the
    /// physical design.
    fn export_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state previously produced by
    /// [`export_state`](PhysicalTuner::export_state). Implementations must
    /// be **atomic**: decode and validate the whole payload before
    /// mutating any state, so a corrupt checkpoint leaves the tuner
    /// exactly as it was. The default refuses (stateless tuners have
    /// nothing to restore into).
    fn import_state(&mut self, _state: &[u8]) -> Result<(), DesignError> {
        Err(DesignError::Mismatch(format!(
            "tuner `{}` does not support state import",
            self.name()
        )))
    }
}

/// A tuner that never changes the design (the `RDB-only` behaviour).
#[derive(Default, Debug, Clone, Copy)]
pub struct NoopTuner;

impl<B: GraphBackend> PhysicalTuner<B> for NoopTuner {
    fn name(&self) -> &str {
        "noop"
    }

    fn tune(&mut self, _dual: &mut DualStore<B>, _batch: &[Query]) -> TuningOutcome {
        TuningOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::DatasetBuilder;
    use kgdual_model::Term;

    #[test]
    fn noop_tuner_changes_nothing() {
        let mut b = DatasetBuilder::new();
        b.add_terms(&Term::iri("a"), "p", &Term::iri("b"));
        let mut dual = DualStore::from_dataset(b.build(), 10);
        let mut t = NoopTuner;
        let out = t.tune(&mut dual, &[]);
        assert_eq!(out, TuningOutcome::default());
        assert_eq!(dual.graph().used(), 0);
        assert_eq!(PhysicalTuner::<AdjacencyBackend>::name(&t), "noop");
    }
}
