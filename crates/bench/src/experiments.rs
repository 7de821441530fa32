//! The two kinds of run the report's grid cells make: one store variant
//! over one batched workload, and the Fig 6 restart comparison.
//! [`crate::report`] memoises them.

use kgdual_core::batch::TuningSchedule;
use kgdual_core::{
    BatchReport, DualStore, PhysicalTuner, StoreVariant, TuningOutcome, WorkloadRunner,
};
use kgdual_dotil::{Dotil, DotilConfig, FrequencyTuner, IdealTuner, OneOffTuner};
use kgdual_graphstore::GraphBackend;
use kgdual_model::Dataset;
use kgdual_sparql::Query;
use parking_lot::Mutex;
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
}

/// A [`Dotil`] shared between the variant (which owns the tuner box) and
/// the harness (which wants to read Q-matrices afterwards).
#[derive(Clone)]
pub struct SharedDotil(pub Arc<Mutex<Dotil>>);

impl SharedDotil {
    /// Wrap a configured DOTIL instance.
    pub fn new(cfg: DotilConfig) -> Self {
        SharedDotil(Arc::new(Mutex::new(Dotil::with_config(cfg))))
    }

    /// Cell-wise Q-matrix sum (Table 5's training-effect metric).
    pub fn q_matrix_sum(&self) -> [f64; 4] {
        self.0.lock().q_matrix_sum()
    }
}

impl<B: GraphBackend> PhysicalTuner<B> for SharedDotil {
    fn name(&self) -> &str {
        "dotil"
    }

    fn tune(&mut self, dual: &mut DualStore<B>, batch: &[Query]) -> TuningOutcome {
        self.0.lock().tune(dual, batch)
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        Some(self.0.lock().export_state_bytes())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), kgdual_model::DesignError> {
        self.0.lock().import_state_bytes(state)
    }
}

/// Build a fresh store variant over (a clone of) `dataset` with Table 4's
/// default graph/view budget `r_BG` (a quarter of the triples), the
/// relational store sharded `shards` ways.
pub fn build_variant(kind: VariantKind, dataset: &Dataset, shards: usize) -> StoreVariant {
    let budget = (dataset.len() as f64 * 0.25) as usize;
    let dual = DualStore::from_dataset_sharded(dataset.clone(), budget, shards);
    match kind {
        VariantKind::RdbOnly => StoreVariant::rdb_only(dual),
        VariantKind::RdbViews => StoreVariant::rdb_views(dual),
        VariantKind::RdbGdbDotil => {
            StoreVariant::rdb_gdb(dual, Box::new(Dotil::with_config(DotilConfig::default())))
        }
        VariantKind::RdbGdbOneOff => StoreVariant::rdb_gdb(dual, Box::new(OneOffTuner::new())),
        VariantKind::RdbGdbLru => StoreVariant::rdb_gdb(dual, Box::new(FrequencyTuner::new())),
        VariantKind::RdbGdbIdeal => StoreVariant::rdb_gdb(dual, Box::new(IdealTuner::new())),
    }
}

/// One variant's run: the final repetition's reports (deterministic)
/// and the mean wall TTI of the kept repetitions.
#[derive(Clone, Debug)]
pub struct VariantResult {
    /// Variant name.
    pub variant: &'static str,
    /// Per-batch reports of the final repetition.
    pub reports: Vec<BatchReport>,
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

/// Run `variant` over `batches` `reps` times on one persistent store,
/// keeping the mean wall TTI of all but the first repetition (the paper
/// warms stores up with one run and averages the rest). Returns the
/// final repetition's reports and that mean.
pub fn run_reps(
    variant: &mut StoreVariant,
    schedule: TuningSchedule,
    batches: &[Vec<Query>],
    reps: usize,
) -> (Vec<BatchReport>, f64) {
    let runner = WorkloadRunner::new(schedule);
    let (mut reports, mut wall) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        reports = runner.run(variant, batches).expect("workload run failed");
        if rep > 0 || reps == 1 {
            wall.push(WorkloadRunner::total_tti(&reports).as_secs_f64());
        }
    }
    (reports, wall.iter().sum::<f64>() / wall.len() as f64)
}

/// Run one store variant, freshly built over `dataset`, through
/// [`run_reps`] with its own tuning schedule.
pub fn run_variant(
    vk: VariantKind,
    dataset: &Dataset,
    batches: &[Vec<Query>],
    reps: usize,
    shards: usize,
) -> VariantResult {
    let mut variant = build_variant(vk, dataset, shards);
    let (reports, wall_tti_secs) = run_reps(&mut variant, vk.schedule(), batches, reps);
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
    pub reports: Vec<BatchReport>,
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

fn restart_column(name: &'static str, reports: Vec<BatchReport>) -> RestartColumn {
    RestartColumn {
        name,
        total_work: WorkloadRunner::total_work(&reports),
        sim_tti_secs: WorkloadRunner::total_sim_tti(&reports).as_secs_f64(),
        result_rows: reports.iter().map(|r| r.result_rows).sum(),
        first_batch_graph_share: reports.first().map_or(0.0, BatchReport::graph_work_share),
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
    shards: usize,
) -> Vec<RestartColumn> {
    let runner = WorkloadRunner::new(TuningSchedule::AfterEachBatch);

    // Cold start: one pass from nothing, learning as it goes.
    let mut cold = build_variant(VariantKind::RdbGdbDotil, dataset, shards);
    let cold_reports = runner.run(&mut cold, batches).expect("cold run failed");

    // Persist the learned design + DOTIL state, then restart: a fresh
    // store over the same dataset, a fresh tuner, state rehydrated.
    let snapshot = kgdual_core::persist::save_checkpoint(cold.dual(), cold.tuner(), 0);
    let mut warm = build_variant(VariantKind::RdbGdbDotil, dataset, shards);
    {
        let (dual, tuner) = warm.dual_and_tuner_mut();
        let tuner = tuner.map(|t| t as &mut dyn PhysicalTuner);
        kgdual_core::persist::restore_checkpoint(dual, tuner, &snapshot)
            .expect("restart restore must succeed on the same dataset");
    }
    let warm_reports = runner.run(&mut warm, batches).expect("warm run failed");

    // Restart-equivalence gate: the uninterrupted process's second pass
    // must be indistinguishable from the restarted one.
    let resumed_reports = runner
        .run(&mut cold, batches)
        .expect("uninterrupted second pass failed");
    for (w, u) in warm_reports.iter().zip(&resumed_reports) {
        assert_eq!(
            (w.total_work, w.sim_tti, w.result_rows, w.routes),
            (u.total_work, u.sim_tti, u.result_rows, u.routes),
            "batch {}: a restored store must be deterministically \
             indistinguishable from one that never restarted",
            w.batch_index
        );
    }

    // Oracle: the ideal mode, for the floor column.
    let mut oracle = build_variant(VariantKind::RdbGdbIdeal, dataset, shards);
    let oracle_reports = WorkloadRunner::new(VariantKind::RdbGdbIdeal.schedule())
        .run(&mut oracle, batches)
        .expect("oracle run failed");

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
        let results: Vec<VariantResult> = [VariantKind::RdbOnly, VariantKind::RdbGdbDotil]
            .into_iter()
            .map(|vk| run_variant(vk, &dataset, &batches, 2, 1))
            .collect();
        for r in &results {
            assert_eq!(r.reports.len(), 5, "five batches");
            assert!(r.wall_tti_secs > 0.0);
            assert!(WorkloadRunner::total_work(&r.reports) > 0);
            assert_eq!(r.reports.iter().map(|b| b.errors).sum::<usize>(), 0);
        }
        // Same result rows regardless of variant.
        let rows: Vec<u64> = results
            .iter()
            .map(|r| r.reports.iter().map(|b| b.result_rows).sum::<u64>())
            .collect();
        assert_eq!(rows[0], rows[1], "variants must agree on results");
    }

    #[test]
    fn shared_dotil_exposes_q_matrices() {
        let shared = SharedDotil::new(DotilConfig::default());
        assert_eq!(shared.q_matrix_sum(), [0.0; 4]);
    }
}
