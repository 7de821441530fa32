//! The workload runner: online batches between tuning epochs.
//!
//! The paper's protocol (§4.2, §6.1): run a batch, measure its TTI, tune
//! offline, run the next. The online phase of each batch fans out over
//! the [`BatchExecutor`]'s worker pool while the offline phase runs inside
//! [`SharedStore::reconfigure`] — the epoch barrier that keeps the
//! online/offline separation intact under concurrency. The tuner sees
//! exactly the same store state and batch content at every worker count
//! (online execution is read-only, so nothing a worker does can perturb
//! the design DOTIL trains against), which is why Q-matrix updates and
//! migration decisions are identical at every thread count.
//!
//! All three of the paper's store variants run here, as one
//! ([`ExecMode`](crate::ExecMode), tuner, [`TuningSchedule`]) triple
//! each: `RDB-only` is `RelationalOnly` with no tuning, `RDB-views` is
//! `ViewAssisted` with the view advisor rebuilding the store's catalog
//! after each batch, and `RDB-GDB` is `Routed` with DOTIL or a baseline
//! tuner.
//!
//! The runner is also where the *one* worker pool gets shared: the tuner
//! is handed the executor's scheduler inside the epoch barrier, so
//! independent offline work runs on the query workers idling there (no
//! second pool, no oversubscription).

use crate::executor::{BatchExecutor, ParallelBatchReport};
use crate::shared::SharedStore;
use kgdual_core::batch::TuningSchedule;
use kgdual_core::PhysicalTuner;
use kgdual_graphstore::GraphBackend;
use kgdual_sparql::Query;
use std::time::Duration;

/// Runs workloads batch by batch with concurrent online phases and
/// exclusive tuning epochs.
pub struct ParallelRunner {
    /// When tuning happens relative to batches.
    pub schedule: TuningSchedule,
    /// The executor driving each batch's online phase.
    pub executor: BatchExecutor,
}

impl ParallelRunner {
    /// A runner with the given schedule and executor.
    pub fn new(schedule: TuningSchedule, executor: BatchExecutor) -> Self {
        ParallelRunner { schedule, executor }
    }

    /// Run all batches, returning one report per batch. Tuning runs under
    /// the write lock between batches; queries run under a shared read
    /// guard within each batch.
    pub fn run<B: GraphBackend>(
        &self,
        store: &SharedStore<B>,
        tuner: &mut dyn PhysicalTuner<B>,
        batches: &[Vec<Query>],
    ) -> Vec<ParallelBatchReport> {
        let sched = self.executor.scheduler();

        // Tuning epochs get the same pool: the query workers are idle
        // for exactly the write-lock window, so the tuner's offline work
        // (DOTIL's counterfactual runs, two per cost pair) borrows them
        // as OfflineTuning-class tasks. Deterministically identical to
        // the serial tune() at every worker count (see PhysicalTuner
        // docs).
        self.schedule
            .drive(
                tuner,
                batches,
                |tuner, queries| {
                    store.reconfigure(|dual| tuner.tune_with(dual, queries, Some(sched)))
                },
                |_, i, batch| {
                    let mut report = self.executor.execute_batch(store, batch);
                    report.batch_index = i;
                    report
                },
            )
            .into_iter()
            .map(|(mut report, tuning)| {
                report.tuning = tuning;
                report
            })
            .collect()
    }

    /// Total parallel wall-clock TTI across reports.
    pub fn total_wall(reports: &[ParallelBatchReport]) -> Duration {
        reports.iter().map(|r| r.wall).sum()
    }

    /// Total simulated TTI across reports (thread-count-invariant).
    pub fn total_sim_tti(reports: &[ParallelBatchReport]) -> Duration {
        reports.iter().map(|r| r.sim_tti).sum()
    }

    /// Total online work units across reports.
    pub fn total_work(reports: &[ParallelBatchReport]) -> u64 {
        reports.iter().map(|r| r.total_work()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_core::{DualStore, NoopTuner, TuningOutcome};
    use kgdual_model::{DatasetBuilder, Term};
    use kgdual_sparql::parse;

    fn store() -> SharedStore {
        let mut b = DatasetBuilder::new();
        for i in 0..20 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:bornIn",
                &Term::iri(format!("y:c{}", i % 4)),
            );
            if i < 10 {
                b.add_terms(
                    &Term::iri(format!("y:p{i}")),
                    "y:advisor",
                    &Term::iri(format!("y:p{}", i + 10)),
                );
            }
        }
        SharedStore::new(DualStore::from_dataset(b.build(), 1000))
    }

    fn batches() -> Vec<Vec<Query>> {
        let complex =
            parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap();
        let simple = parse("SELECT ?p WHERE { ?p y:bornIn ?c }").unwrap();
        vec![vec![complex.clone(), simple.clone()], vec![complex, simple]]
    }

    /// A tuner that migrates every partition it sees in the batch.
    struct GreedyAll;
    impl PhysicalTuner for GreedyAll {
        fn name(&self) -> &str {
            "greedy-all"
        }
        fn tune(&mut self, dual: &mut DualStore, batch: &[Query]) -> TuningOutcome {
            let mut out = TuningOutcome::default();
            for q in batch {
                for pred in q.predicate_set() {
                    if let Some(p) = dual.dict().pred_id(pred) {
                        if !dual.graph().is_loaded(p) && dual.migrate_partition(p).is_ok() {
                            out.migrated += 1;
                        }
                    }
                }
            }
            out
        }
    }

    #[test]
    fn after_batch_schedule_shifts_routes_to_graph() {
        let store = store();
        let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(2));
        let reports = runner.run(&store, &mut GreedyAll, &batches());
        assert_eq!(reports.len(), 2);
        // Batch 0 runs cold under epoch 0; the tuner migrates between
        // batches; batch 1 hits the graph under epoch 1.
        assert_eq!(reports[0].epoch, 0);
        assert_eq!(reports[0].routes.graph, 0);
        assert!(reports[0].tuning.migrated > 0);
        assert_eq!(reports[1].epoch, 1);
        assert!(reports[1].routes.graph > 0);
        assert!(reports[1].graph_work_share() > 0.0);
        assert!(ParallelRunner::total_work(&reports) > 0);
        let _ = ParallelRunner::total_wall(&reports);
        let _ = ParallelRunner::total_sim_tti(&reports);
    }

    #[test]
    fn ideal_schedule_tunes_before_first_batch() {
        let store = store();
        let runner = ParallelRunner::new(
            TuningSchedule::BeforeEachBatchWithUpcoming,
            BatchExecutor::new(2),
        );
        let reports = runner.run(&store, &mut GreedyAll, &batches());
        assert!(reports[0].routes.graph > 0, "already tuned for batch 0");
        assert_eq!(reports[0].epoch, 1);
    }

    #[test]
    fn one_off_schedule_tunes_once_upfront() {
        let store = store();
        let runner = ParallelRunner::new(TuningSchedule::OnceUpfrontWithAll, BatchExecutor::new(2));
        let reports = runner.run(&store, &mut GreedyAll, &batches());
        assert!(reports[0].routes.graph > 0);
        assert_eq!(reports[0].tuning.migrated, 0, "no per-batch tuning");
        assert_eq!(reports[1].epoch, 1, "single upfront epoch");
    }

    #[test]
    fn never_schedule_stays_relational() {
        let store = store();
        let runner = ParallelRunner::new(TuningSchedule::Never, BatchExecutor::new(2));
        let reports = runner.run(&store, &mut NoopTuner, &batches());
        assert_eq!(reports.len(), 2, "one report per batch");
        assert_eq!(reports[0].queries, 2);
        assert_eq!(reports[0].errors, 0);
        assert!(reports[0].total_work() > 0);
        assert_eq!(reports[0].routes.relational, 2);
        assert_eq!(reports[1].routes.graph, 0);
        assert_eq!(reports[1].graph_work_share(), 0.0);
        assert_eq!(reports[1].epoch, 0, "no tuning, no epochs");
    }

    #[test]
    fn noop_tuner_keeps_everything_relational() {
        let store = store();
        let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(2));
        let reports = runner.run(&store, &mut NoopTuner, &batches());
        assert_eq!(reports[0].tuning, TuningOutcome::default());
        assert_eq!(reports[1].routes.graph, 0);
        assert_eq!(reports[1].graph_work_share(), 0.0);
        assert_eq!(
            reports[1].epoch, 1,
            "a tuning epoch ran and changed nothing"
        );
    }
}
