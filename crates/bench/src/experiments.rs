//! The two kinds of run the report's grid cells make: one store variant
//! over one batched workload, and the Fig 6 restart comparison. Every run
//! drives [`ParallelRunner`] on one shared pool; [`crate::report`]
//! memoises them.

use kgdual_core::batch::TuningSchedule;
use kgdual_core::{DualStore, NoopTuner, PhysicalTuner, Policy};
use kgdual_dotil::{Dotil, DotilConfig, FrequencyTuner, IdealTuner, OneOffTuner, ViewTuner};
use kgdual_exec::{BatchExecutor, ParallelBatchReport, ParallelRunner, Scheduler, SharedStore};
use kgdual_model::Dataset;
use kgdual_sparql::Query;
use std::sync::Arc;

/// Workload selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// YAGO-like, 20 queries.
    Yago,
    /// WatDiv linear sub-workload, 35 queries.
    WatDivL,
    /// WatDiv star sub-workload, 25 queries.
    WatDivS,
    /// WatDiv snowflake sub-workload, 25 queries.
    WatDivF,
    /// WatDiv complex sub-workload, 15 queries.
    WatDivC,
    /// All WatDiv families, 100 queries.
    WatDivAll,
    /// Bio2RDF-like, 25 queries.
    Bio2Rdf,
}

impl WorkloadKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Yago => "YAGO",
            WorkloadKind::WatDivL => "WatDiv-L",
            WorkloadKind::WatDivS => "WatDiv-S",
            WorkloadKind::WatDivF => "WatDiv-F",
            WorkloadKind::WatDivC => "WatDiv-C",
            WorkloadKind::WatDivAll => "WatDiv",
            WorkloadKind::Bio2Rdf => "Bio2RDF",
        }
    }
}

/// Store-variant selector for comparisons.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum VariantKind {
    /// Plain relational store.
    RdbOnly,
    /// Relational + materialized views.
    RdbViews,
    /// Dual store tuned by DOTIL.
    RdbGdbDotil,
    /// Dual store tuned once upfront.
    RdbGdbOneOff,
    /// Dual store tuned by partition frequency.
    RdbGdbLru,
    /// Dual store tuned by the next-batch oracle.
    RdbGdbIdeal,
}

impl VariantKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            VariantKind::RdbOnly => "RDB-only",
            VariantKind::RdbViews => "RDB-views",
            VariantKind::RdbGdbDotil => "RDB-GDB",
            VariantKind::RdbGdbOneOff => "one-off",
            VariantKind::RdbGdbLru => "LRU",
            VariantKind::RdbGdbIdeal => "ideal",
        }
    }

    /// The tuning schedule this variant needs.
    pub fn schedule(self) -> TuningSchedule {
        match self {
            VariantKind::RdbGdbOneOff => TuningSchedule::OnceUpfrontWithAll,
            VariantKind::RdbGdbIdeal => TuningSchedule::BeforeEachBatchWithUpcoming,
            _ => TuningSchedule::AfterEachBatch,
        }
    }

    /// The store variant its online phase runs.
    pub fn policy(self) -> Policy {
        match self {
            VariantKind::RdbOnly => Policy::RelationalOnly,
            VariantKind::RdbViews => Policy::ViewAssisted,
            _ => Policy::Routed,
        }
    }

    /// A fresh tuner for its offline phases.
    pub fn tuner(self) -> Box<dyn PhysicalTuner> {
        match self {
            VariantKind::RdbOnly => Box::new(NoopTuner),
            VariantKind::RdbViews => Box::new(ViewTuner::new()),
            VariantKind::RdbGdbDotil => Box::new(Dotil::with_config(DotilConfig::default())),
            VariantKind::RdbGdbOneOff => Box::new(OneOffTuner::new()),
            VariantKind::RdbGdbLru => Box::new(FrequencyTuner::new()),
            VariantKind::RdbGdbIdeal => Box::new(IdealTuner::new()),
        }
    }

    /// Its runner: its schedule and mode, on `pool`.
    pub fn runner(self, pool: &Arc<Scheduler>) -> ParallelRunner {
        let executor = BatchExecutor::with_scheduler(Arc::clone(pool)).with_mode(self.policy());
        ParallelRunner::new(self.schedule(), executor)
    }
}

/// A fresh store over (a clone of) `dataset` with Table 4's default
/// graph/view budget `r_BG` (a quarter of the triples).
pub fn build_store(dataset: &Dataset) -> SharedStore {
    let budget = (dataset.len() as f64 * 0.25) as usize;
    SharedStore::new(DualStore::from_dataset(dataset.clone(), budget))
}

/// One variant's run: the final repetition's reports (deterministic)
/// and the mean wall TTI of the kept repetitions.
#[derive(Clone, Debug)]
pub struct VariantResult {
    /// Variant name.
    pub variant: &'static str,
    /// Per-batch reports of the final repetition.
    pub reports: Vec<ParallelBatchReport>,
    /// Mean total wall TTI (seconds) of the kept repetitions.
    pub wall_tti_secs: f64,
}

impl VariantResult {
    /// Per-batch simulated TTI (seconds).
    pub fn sim_batch_secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.reports.iter().map(|r| r.sim_tti.as_secs_f64())
    }

    /// Total simulated TTI (seconds).
    pub fn sim_tti_secs(&self) -> f64 {
        self.sim_batch_secs().sum()
    }
}

/// Run `runner` over `batches` `reps` times on one persistent store and
/// tuner, keeping the mean wall TTI of all but the first repetition (the
/// paper warms stores up with one run and averages the rest). Returns the
/// final repetition's reports and that mean.
pub fn run_reps(
    runner: &ParallelRunner,
    store: &SharedStore,
    tuner: &mut dyn PhysicalTuner,
    batches: &[Vec<Query>],
    reps: usize,
) -> (Vec<ParallelBatchReport>, f64) {
    let (mut reports, mut wall) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        reports = runner.run(store, tuner, batches);
        if rep > 0 || reps == 1 {
            wall.push(ParallelRunner::total_wall(&reports).as_secs_f64());
        }
    }
    (reports, wall.iter().sum::<f64>() / wall.len() as f64)
}

/// Run one store variant, on a fresh store over `dataset`, through
/// [`run_reps`] with its own mode, tuner and schedule on `pool`.
pub fn run_variant(
    vk: VariantKind,
    dataset: &Dataset,
    batches: &[Vec<Query>],
    reps: usize,
    pool: &Arc<Scheduler>,
) -> VariantResult {
    let store = build_store(dataset);
    let runner = vk.runner(pool);
    let (reports, wall_tti_secs) = run_reps(&runner, &store, vk.tuner().as_mut(), batches, reps);
    VariantResult {
        variant: vk.name(),
        reports,
        wall_tti_secs,
    }
}

/// One column of the Fig 6 restart experiment.
#[derive(Clone, Debug)]
pub struct RestartColumn {
    /// Column name (`cold`, `warm-restart`, `oracle`).
    pub name: &'static str,
    /// Per-batch reports of the measured run.
    pub reports: Vec<ParallelBatchReport>,
    /// Total deterministic work units.
    pub total_work: u64,
    /// Total simulated TTI (seconds), the deterministic comparison metric.
    pub sim_tti_secs: f64,
    /// Total result rows (must agree across all columns).
    pub result_rows: u64,
    /// Graph-store share of online work in the *first* batch — the
    /// cold-start signature (≈0 cold, high after a warm restart).
    pub first_batch_graph_share: f64,
}

fn restart_column(name: &'static str, reports: Vec<ParallelBatchReport>) -> RestartColumn {
    RestartColumn {
        name,
        total_work: ParallelRunner::total_work(&reports),
        sim_tti_secs: ParallelRunner::total_sim_tti(&reports).as_secs_f64(),
        result_rows: reports.iter().map(|r| r.result_rows).sum(),
        first_batch_graph_share: reports
            .first()
            .map_or(0.0, ParallelBatchReport::graph_work_share),
        reports,
    }
}

/// The Fig 6 **restart** experiment: does persisting the learned design
/// actually erase the cold start?
///
/// Three single-pass runs over the same workload:
///
/// * `cold` — fresh store, fresh DOTIL (the paper's Fig 6 setting).
/// * `warm-restart` — the cold run's learned design + tuner state is
///   checkpointed, a **fresh** store over the same dataset restores it
///   (residency replayed through the backend), and the workload runs
///   again: what a restarted process sees with persistence.
/// * `oracle` — the ideal next-batch tuner, the floor no online tuner
///   beats.
///
/// As a built-in restart-equivalence gate, the driver also runs a second
/// uninterrupted pass on the cold store and asserts the warm-restart run
/// matches it on every deterministic metric: a restored process is
/// indistinguishable from one that never exited. It also asserts that
/// the restart leaves the result rows alone and that the warm run's
/// simulated TTI sits strictly below the cold one's.
pub fn run_restart_comparison(
    dataset: &Dataset,
    batches: &[Vec<Query>],
    pool: &Arc<Scheduler>,
) -> Vec<RestartColumn> {
    let dotil = VariantKind::RdbGdbDotil;
    let runner = dotil.runner(pool);

    // Cold start: one pass from nothing, learning as it goes.
    let (cold, mut cold_tuner) = (build_store(dataset), dotil.tuner());
    let cold_reports = runner.run(&cold, cold_tuner.as_mut(), batches);

    // Persist the learned design + DOTIL state, then restart: a fresh
    // store over the same dataset, a fresh tuner, state rehydrated.
    let snapshot = cold.checkpoint(Some(cold_tuner.as_ref()));
    let (warm, mut warm_tuner) = (build_store(dataset), dotil.tuner());
    warm.restore(Some(warm_tuner.as_mut()), &snapshot)
        .expect("restart restore must succeed on the same dataset");
    let warm_reports = runner.run(&warm, warm_tuner.as_mut(), batches);

    // Restart-equivalence gate: the uninterrupted process's second pass
    // must be indistinguishable from the restarted one.
    let resumed_reports = runner.run(&cold, cold_tuner.as_mut(), batches);
    for (w, u) in warm_reports.iter().zip(&resumed_reports) {
        assert_eq!(
            (w.total_work(), w.sim_tti, w.result_rows, w.routes),
            (u.total_work(), u.sim_tti, u.result_rows, u.routes),
            "batch {}: a restored store must be deterministically \
             indistinguishable from one that never restarted",
            w.batch_index
        );
    }

    // Oracle: the ideal mode, for the floor column.
    let ideal = VariantKind::RdbGdbIdeal;
    let oracle = build_store(dataset);
    let oracle_reports = ideal
        .runner(pool)
        .run(&oracle, ideal.tuner().as_mut(), batches);

    let columns = vec![
        restart_column("cold", cold_reports),
        restart_column("warm-restart", warm_reports),
        restart_column("oracle", oracle_reports),
    ];
    let (cold, warm) = (&columns[0], &columns[1]);
    assert_eq!(
        cold.result_rows, warm.result_rows,
        "restart must not change results"
    );
    assert!(
        warm.sim_tti_secs < cold.sim_tti_secs,
        "warm restart ({:.6}s) must beat the cold start ({:.6}s): \
         the persisted design failed to erase the cold start",
        warm.sim_tti_secs,
        cold.sim_tti_secs
    );
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_batches, build_dataset, build_workload, Order};
    use crate::BenchArgs;

    #[test]
    fn variant_comparison_runs_end_to_end() {
        let args = BenchArgs {
            scale: 0.0005,
            ..Default::default()
        };
        let dataset = build_dataset(WorkloadKind::Yago, &args);
        let workload = build_workload(WorkloadKind::Yago, &args);
        let batches = build_batches(&workload, Order::Ordered, args.seed);
        let pool = Arc::new(Scheduler::new(1));
        let results: Vec<VariantResult> = [VariantKind::RdbOnly, VariantKind::RdbGdbDotil]
            .into_iter()
            .map(|vk| run_variant(vk, &dataset, &batches, 2, &pool))
            .collect();
        for r in &results {
            assert_eq!(r.reports.len(), 5, "five batches");
            assert!(r.wall_tti_secs > 0.0);
            assert!(ParallelRunner::total_work(&r.reports) > 0);
            assert_eq!(r.reports.iter().map(|b| b.errors).sum::<usize>(), 0);
        }
        // Same result rows regardless of variant.
        let rows: Vec<u64> = results
            .iter()
            .map(|r| r.reports.iter().map(|b| b.result_rows).sum::<u64>())
            .collect();
        assert_eq!(rows[0], rows[1], "variants must agree on results");
    }
}
