//! The vocabulary of batch-oriented workload execution.
//!
//! The paper's evaluation processes workloads in batches (one batch = 1/5
//! of a workload) and measures **TTI** — "the total elapsed time from a
//! batch of workload submission to completion" — with physical design
//! tuning happening offline between batches (§4.2, §6.1). The runner that
//! does so is `kgdual_exec::ParallelRunner`; this module holds what it and
//! the tuners share: when tuning happens ([`TuningSchedule::drive`]), and
//! how a batch's queries were routed.

use crate::processor::Route;
use crate::tuner::TuningOutcome;
use kgdual_sparql::Query;
use serde::{Deserialize, Serialize};

/// How tuning phases interleave with batches; this is what distinguishes
/// the paper's tuner *modes* (§6.4).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuningSchedule {
    /// Tune after each batch with that batch as history (DOTIL, LRU).
    AfterEachBatch,
    /// Tune before each batch with that batch's queries — the "ideal mode"
    /// oracle that foresees the next batch.
    BeforeEachBatchWithUpcoming,
    /// Tune once before everything with the whole workload — "one-off
    /// mode".
    OnceUpfrontWithAll,
    /// Never tune.
    Never,
}

impl TuningSchedule {
    /// Interleave the online and offline phases of a batched workload.
    /// `online(state, i, batch)` runs batch `i`; `offline(state, queries)`
    /// tunes against `queries`. Returns one `(report, tuning)` pair per
    /// batch, where `tuning` is the outcome of the offline phase that ran
    /// right after that batch (the default for schedules that do not tune
    /// after batches).
    pub fn drive<S: ?Sized, R>(
        self,
        state: &mut S,
        batches: &[Vec<Query>],
        mut offline: impl FnMut(&mut S, &[Query]) -> TuningOutcome,
        mut online: impl FnMut(&mut S, usize, &[Query]) -> R,
    ) -> Vec<(R, TuningOutcome)> {
        if self == TuningSchedule::OnceUpfrontWithAll {
            let all: Vec<Query> = batches.iter().flatten().cloned().collect();
            offline(state, &all);
        }
        let mut out = Vec::with_capacity(batches.len());
        for (i, batch) in batches.iter().enumerate() {
            if self == TuningSchedule::BeforeEachBatchWithUpcoming {
                offline(state, batch);
            }
            let report = online(state, i, batch);
            let tuning = if self == TuningSchedule::AfterEachBatch {
                offline(state, batch)
            } else {
                TuningOutcome::default()
            };
            out.push((report, tuning));
        }
        out
    }
}

/// Per-route query counts in one batch.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteCounts {
    /// Queries answered fully relationally.
    pub relational: usize,
    /// Queries answered fully in the graph store (Case 1).
    pub graph: usize,
    /// Queries spanning both stores (Case 2).
    pub dual: usize,
    /// Queries answered via materialized views.
    pub view_assisted: usize,
    /// Compile-time-empty queries.
    pub empty: usize,
}

impl RouteCounts {
    /// Count one query's route.
    pub fn record(&mut self, route: Route) {
        match route {
            Route::Relational => self.relational += 1,
            Route::Graph => self.graph += 1,
            Route::Dual => self.dual += 1,
            Route::ViewAssisted => self.view_assisted += 1,
            Route::Empty => self.empty += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::DualStore;
    use crate::error::CoreError;
    use crate::processor::{process, process_relational, QueryOutcome};
    use crate::tuner::{NoopTuner, PhysicalTuner};
    use kgdual_graphstore::GraphBackend;
    use kgdual_model::{DatasetBuilder, Term};
    use kgdual_sparql::parse;

    fn dataset() -> kgdual_model::Dataset {
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
        b.build()
    }

    fn batches() -> Vec<Vec<Query>> {
        let complex =
            parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap();
        let simple = parse("SELECT ?p WHERE { ?p y:bornIn ?c }").unwrap();
        vec![vec![complex.clone(), simple.clone()], vec![complex, simple]]
    }

    /// What one batch's online phase measured.
    #[derive(Default)]
    struct Online {
        queries: usize,
        errors: usize,
        rel_work: u64,
        graph_work: u64,
        routes: RouteCounts,
    }

    impl Online {
        fn graph_work_share(&self) -> f64 {
            match self.rel_work + self.graph_work {
                0 => 0.0,
                total => self.graph_work as f64 / total as f64,
            }
        }
    }

    type Processor = fn(&DualStore, &Query) -> Result<QueryOutcome, CoreError>;

    /// Drive the two test batches through `schedule`, running each batch's
    /// queries one by one with `processor` and tuning with `tuner`.
    fn run(
        schedule: TuningSchedule,
        threshold: usize,
        tuner: &mut dyn PhysicalTuner,
        processor: Processor,
    ) -> Vec<(Online, TuningOutcome)> {
        let mut dual = DualStore::from_dataset(dataset(), threshold);
        schedule.drive(
            &mut dual,
            &batches(),
            |dual, queries| tuner.tune(dual, queries),
            |dual, _, batch| {
                let mut online = Online {
                    queries: batch.len(),
                    ..Default::default()
                };
                for query in batch {
                    match processor(dual, query) {
                        Ok(out) => {
                            online.rel_work += out.rel_stats.work_units();
                            online.graph_work += out.graph_stats.work_units();
                            online.routes.record(out.route);
                        }
                        Err(_) => online.errors += 1,
                    }
                }
                online
            },
        )
    }

    #[test]
    fn runner_produces_one_report_per_batch() {
        let reports = run(
            TuningSchedule::AfterEachBatch,
            10,
            &mut NoopTuner,
            process_relational,
        );
        assert_eq!(reports.len(), 2);
        let (first, _) = &reports[0];
        assert_eq!(first.queries, 2);
        assert_eq!(first.errors, 0);
        assert!(first.rel_work + first.graph_work > 0);
        assert_eq!(first.routes.relational, 2);
        assert_eq!(first.graph_work, 0);
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
        let reports = run(
            TuningSchedule::AfterEachBatch,
            1000,
            &mut GreedyAll,
            process,
        );
        // Batch 0 runs cold (relational), the tuner migrates, batch 1 hits
        // the graph.
        assert_eq!(reports[0].0.routes.graph, 0);
        assert!(reports[0].1.migrated > 0);
        assert!(reports[1].0.routes.graph > 0);
        assert!(reports[1].0.graph_work_share() > 0.0);
    }

    #[test]
    fn ideal_schedule_tunes_before_first_batch() {
        let reports = run(
            TuningSchedule::BeforeEachBatchWithUpcoming,
            1000,
            &mut GreedyAll,
            process,
        );
        assert!(reports[0].0.routes.graph > 0, "already tuned for batch 0");
    }

    #[test]
    fn one_off_schedule_tunes_once_upfront() {
        let reports = run(
            TuningSchedule::OnceUpfrontWithAll,
            1000,
            &mut GreedyAll,
            process,
        );
        assert!(reports[0].0.routes.graph > 0);
        assert_eq!(reports[0].1.migrated, 0, "no per-batch tuning recorded");
    }

    #[test]
    fn never_schedule_stays_relational() {
        let reports = run(TuningSchedule::Never, 1000, &mut GreedyAll, process);
        assert_eq!(reports[1].0.routes.graph, 0);
    }

    #[test]
    fn noop_tuner_keeps_everything_relational() {
        let reports = run(
            TuningSchedule::AfterEachBatch,
            1000,
            &mut NoopTuner,
            process,
        );
        assert_eq!(reports[1].0.routes.graph, 0);
        assert_eq!(reports[1].0.graph_work_share(), 0.0);
    }
}
