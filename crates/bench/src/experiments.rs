//! Experiment drivers shared across harness binaries.

use crate::args::BenchArgs;
use crate::setup::{build_batches, build_dataset, build_workload};
use kgdual_core::batch::TuningSchedule;
use kgdual_core::{
    BatchReport, DualStore, PhysicalTuner, StoreVariant, TuningOutcome, WorkloadRunner,
};
use kgdual_dotil::{Dotil, DotilConfig, FrequencyTuner, IdealTuner, OneOffTuner};
use kgdual_exec::{BatchExecutor, ExecMode, ParallelRunner, SharedStore};
use kgdual_graphstore::GraphBackend;
use kgdual_sparql::Query;
use parking_lot::Mutex;
use std::sync::Arc;

/// Workload selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
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

    /// The six per-figure workloads of Figures 3 and 4.
    pub fn figure34_set() -> [WorkloadKind; 6] {
        [
            WorkloadKind::Yago,
            WorkloadKind::WatDivL,
            WorkloadKind::WatDivS,
            WorkloadKind::WatDivF,
            WorkloadKind::WatDivC,
            WorkloadKind::Bio2Rdf,
        ]
    }
}

/// Store-variant selector for comparisons.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
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

/// Build a fresh store variant over (a clone of) `dataset` with graph/view
/// budget `budget` triples, with the relational store sharded `shards`
/// ways.
pub fn build_variant(
    kind: VariantKind,
    dataset: kgdual_model::Dataset,
    budget: usize,
    dotil_cfg: DotilConfig,
    shards: usize,
) -> StoreVariant {
    let dual = DualStore::from_dataset_sharded(dataset, budget, shards);
    match kind {
        VariantKind::RdbOnly => StoreVariant::rdb_only(dual),
        VariantKind::RdbViews => StoreVariant::rdb_views(dual),
        VariantKind::RdbGdbDotil => {
            StoreVariant::rdb_gdb(dual, Box::new(Dotil::with_config(dotil_cfg)))
        }
        VariantKind::RdbGdbOneOff => StoreVariant::rdb_gdb(dual, Box::new(OneOffTuner::new())),
        VariantKind::RdbGdbLru => StoreVariant::rdb_gdb(dual, Box::new(FrequencyTuner::new())),
        VariantKind::RdbGdbIdeal => StoreVariant::rdb_gdb(dual, Box::new(IdealTuner::new())),
    }
}

/// One variant's measured reports, averaged over the kept repetitions.
#[derive(Clone, Debug)]
pub struct VariantResult {
    /// Variant name.
    pub variant: &'static str,
    /// Per-batch reports of the final kept repetition (TTI averaged over
    /// kept repetitions is in `avg_batch_tti_secs`).
    pub reports: Vec<BatchReport>,
    /// Average per-batch wall TTI (seconds) over the kept repetitions.
    pub avg_batch_tti_secs: Vec<f64>,
    /// Per-batch simulated TTI (seconds), final repetition (deterministic).
    pub sim_batch_tti_secs: Vec<f64>,
    /// Average total wall TTI (seconds).
    pub total_tti_secs: f64,
    /// Total simulated TTI (seconds), final repetition.
    pub total_sim_tti_secs: f64,
    /// Total deterministic work units (final repetition).
    pub total_work: u64,
}

/// Run `variants` over one workload, repeating `reps` times and keeping
/// the average of all but the first repetition (the paper warms stores up
/// with one run and averages the rest). Store/tuner state persists across
/// repetitions, exactly like the paper's warm-up.
pub fn run_variant_comparison(
    kind: WorkloadKind,
    variants: &[VariantKind],
    args: &BenchArgs,
) -> Vec<VariantResult> {
    let dataset = build_dataset(kind, args);
    let workload = build_workload(kind, args);
    let batches = build_batches(&workload, &args.order, args.seed);
    let budget = (dataset.len() as f64 * 0.25) as usize; // Table 4 default r_BG

    let mut out = Vec::with_capacity(variants.len());
    for &vk in variants {
        let mut variant = build_variant(
            vk,
            dataset.clone(),
            budget,
            DotilConfig::default(),
            args.shards,
        );
        let runner = WorkloadRunner::new(vk.schedule());
        let mut kept: Vec<Vec<f64>> = Vec::new();
        let mut last_reports: Vec<BatchReport> = Vec::new();
        for rep in 0..args.reps {
            let reports = runner
                .run(&mut variant, &batches)
                .expect("workload run failed");
            if rep > 0 || args.reps == 1 {
                kept.push(reports.iter().map(|r| r.tti.as_secs_f64()).collect());
            }
            last_reports = reports;
        }
        let n_batches = last_reports.len();
        let avg_batch: Vec<f64> = (0..n_batches)
            .map(|b| kept.iter().map(|r| r[b]).sum::<f64>() / kept.len() as f64)
            .collect();
        let sim_batch: Vec<f64> = last_reports
            .iter()
            .map(|r| r.sim_tti.as_secs_f64())
            .collect();
        out.push(VariantResult {
            variant: vk.name(),
            total_tti_secs: avg_batch.iter().sum(),
            total_sim_tti_secs: sim_batch.iter().sum(),
            total_work: WorkloadRunner::total_work(&last_reports),
            avg_batch_tti_secs: avg_batch,
            sim_batch_tti_secs: sim_batch,
            reports: last_reports,
        });
    }
    out
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
/// indistinguishable from one that never exited.
pub fn run_restart_comparison(kind: WorkloadKind, args: &BenchArgs) -> Vec<RestartColumn> {
    let dataset = build_dataset(kind, args);
    let workload = build_workload(kind, args);
    let batches = build_batches(&workload, &args.order, args.seed);
    let budget = (dataset.len() as f64 * 0.25) as usize;
    let runner = WorkloadRunner::new(TuningSchedule::AfterEachBatch);

    // Cold start: one pass from nothing, learning as it goes.
    let mut cold = build_variant(
        VariantKind::RdbGdbDotil,
        dataset.clone(),
        budget,
        DotilConfig::default(),
        args.shards,
    );
    let cold_reports = runner.run(&mut cold, &batches).expect("cold run failed");

    // Persist the learned design + DOTIL state, then restart: a fresh
    // store over the same dataset, a fresh tuner, state rehydrated.
    let snapshot = kgdual_core::persist::save_checkpoint(cold.dual(), cold.tuner(), 0);
    let mut warm = build_variant(
        VariantKind::RdbGdbDotil,
        dataset.clone(),
        budget,
        DotilConfig::default(),
        args.shards,
    );
    {
        let (dual, tuner) = warm.dual_and_tuner_mut();
        let tuner = tuner.map(|t| t as &mut dyn PhysicalTuner);
        kgdual_core::persist::restore_checkpoint(dual, tuner, &snapshot)
            .expect("restart restore must succeed on the same dataset");
    }
    let warm_reports = runner.run(&mut warm, &batches).expect("warm run failed");

    // Restart-equivalence gate: the uninterrupted process's second pass
    // must be indistinguishable from the restarted one.
    let resumed_reports = runner
        .run(&mut cold, &batches)
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
    let mut oracle = build_variant(
        VariantKind::RdbGdbIdeal,
        dataset,
        budget,
        DotilConfig::default(),
        args.shards,
    );
    let oracle_reports = WorkloadRunner::new(TuningSchedule::BeforeEachBatchWithUpcoming)
        .run(&mut oracle, &batches)
        .expect("oracle run failed");

    vec![
        restart_column("cold", cold_reports),
        restart_column("warm-restart", warm_reports),
        restart_column("oracle", oracle_reports),
    ]
}

/// One variant's serial-vs-parallel TTI measurement.
#[derive(Clone, Debug)]
pub struct ParallelTti {
    /// Variant name.
    pub variant: &'static str,
    /// Worker threads of the parallel run.
    pub threads: usize,
    /// Wall-clock TTI of the 1-thread run through the same executor
    /// (kept repetitions averaged), in seconds.
    pub serial_wall_secs: f64,
    /// Wall-clock TTI of the `threads`-worker run, in seconds.
    pub parallel_wall_secs: f64,
    /// Simulated TTI in seconds — identical for both runs by
    /// construction; reported once as the deterministic reference.
    pub sim_tti_secs: f64,
    /// Total deterministic work units — also thread-count-invariant.
    pub total_work: u64,
}

impl ParallelTti {
    /// Measured wall-clock speedup of concurrent submission.
    pub fn speedup(&self) -> f64 {
        if self.parallel_wall_secs > 0.0 {
            self.serial_wall_secs / self.parallel_wall_secs
        } else {
            f64::NAN
        }
    }
}

/// Run one workload through the concurrent executor at 1 thread and at
/// `args.threads` threads, for the `RDB-only` and `RDB-GDB` variants
/// (`RDB-views` mutates its advisor state online and stays serial).
///
/// Both runs start from identical fresh stores and identically seeded
/// tuners; the driver asserts that every deterministic total (work units,
/// simulated TTI, result rows) matches between them — the executor's
/// correctness contract — and reports the wall-clock pair. Repetitions
/// follow the harness convention: `args.reps` runs over a persistent
/// store, the first dropped as warm-up when more than one.
pub fn run_parallel_comparison(kind: WorkloadKind, args: &BenchArgs) -> Vec<ParallelTti> {
    let dataset = build_dataset(kind, args);
    let workload = build_workload(kind, args);
    let batches = build_batches(&workload, &args.order, args.seed);
    let budget = (dataset.len() as f64 * 0.25) as usize;

    let configs: [(&'static str, ExecMode); 2] = [
        ("RDB-only", ExecMode::RelationalOnly),
        ("RDB-GDB", ExecMode::Routed),
    ];
    let mut out = Vec::with_capacity(configs.len());
    for (name, mode) in configs {
        let measure = |threads: usize| -> (u64, u64, f64, f64) {
            let store = SharedStore::new(DualStore::from_dataset_sharded(
                dataset.clone(),
                budget,
                args.shards,
            ));
            let mut tuner: Box<dyn PhysicalTuner> = match mode {
                ExecMode::Routed => Box::new(Dotil::with_config(DotilConfig::default())),
                ExecMode::RelationalOnly => Box::new(kgdual_core::NoopTuner),
            };
            let runner = ParallelRunner::new(
                VariantKind::RdbGdbDotil.schedule(),
                BatchExecutor::new(threads).with_mode(mode),
            );
            let mut wall = Vec::new();
            let (mut work, mut rows, mut sim) = (0u64, 0u64, 0.0f64);
            for rep in 0..args.reps {
                let reports = runner.run(&store, tuner.as_mut(), &batches);
                if rep > 0 || args.reps == 1 {
                    wall.push(ParallelRunner::total_wall(&reports).as_secs_f64());
                }
                work = ParallelRunner::total_work(&reports);
                rows = reports.iter().map(|r| r.result_rows).sum();
                sim = ParallelRunner::total_sim_tti(&reports).as_secs_f64();
            }
            let avg_wall = wall.iter().sum::<f64>() / wall.len() as f64;
            (work, rows, sim, avg_wall)
        };
        let (work_1, rows_1, sim_1, wall_1) = measure(1);
        let (work_n, rows_n, sim_n, wall_n) = measure(args.threads);
        assert_eq!(
            work_1, work_n,
            "{name}: parallel execution must not change total work"
        );
        assert_eq!(
            rows_1, rows_n,
            "{name}: parallel execution must not change result rows"
        );
        assert_eq!(
            sim_1, sim_n,
            "{name}: parallel execution must not change simulated TTI"
        );
        out.push(ParallelTti {
            variant: name,
            threads: args.threads,
            serial_wall_secs: wall_1,
            parallel_wall_secs: wall_n,
            sim_tti_secs: sim_1,
            total_work: work_1,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_comparison_runs_end_to_end() {
        let args = BenchArgs {
            scale: 0.0005,
            reps: 2,
            ..Default::default()
        };
        let results = run_variant_comparison(
            WorkloadKind::Yago,
            &[VariantKind::RdbOnly, VariantKind::RdbGdbDotil],
            &args,
        );
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.reports.len(), 5, "five batches");
            assert_eq!(r.avg_batch_tti_secs.len(), 5);
            assert!(r.total_work > 0);
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
    fn parallel_comparison_is_deterministic_and_reports_both_walls() {
        let args = BenchArgs {
            scale: 0.0005,
            reps: 1,
            threads: 4,
            ..Default::default()
        };
        // The driver itself asserts work/rows/sim equality between the
        // 1-thread and 4-thread runs; reaching the assertions below means
        // the determinism contract held.
        let results = run_parallel_comparison(WorkloadKind::Yago, &args);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.threads, 4);
            assert!(r.total_work > 0);
            assert!(r.serial_wall_secs > 0.0);
            assert!(r.parallel_wall_secs > 0.0);
            assert!(r.speedup().is_finite());
        }
        let gdb = results.iter().find(|r| r.variant == "RDB-GDB").unwrap();
        let only = results.iter().find(|r| r.variant == "RDB-only").unwrap();
        assert!(
            gdb.total_work < only.total_work,
            "tuned dual store must do less online work than RDB-only"
        );
    }

    #[test]
    fn shared_dotil_exposes_q_matrices() {
        let shared = SharedDotil::new(DotilConfig::default());
        assert_eq!(shared.q_matrix_sum(), [0.0; 4]);
    }
}
