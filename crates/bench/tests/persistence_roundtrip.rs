//! Acceptance: the design-persistence round trip is lossless, serial and
//! concurrent.
//!
//! Save → restore onto a fresh process image must yield deterministic
//! metrics (result digests, routes, work units, simulated TTI, and the
//! DOTIL tuning trail) identical to a run that never restarted — the
//! restart-equivalence property `fig6_cold_start --restart true` and CI's
//! release-stress persistence leg gate on.

use kgdual_bench::{build_batches, build_dataset, build_workload, BenchArgs, WorkloadKind};
use kgdual_core::batch::TuningSchedule;
use kgdual_core::{persist, DualStore, PhysicalTuner, StoreVariant, WorkloadRunner};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, ParallelRunner, SharedStore};
use kgdual_sparql::Query;

fn small_args() -> BenchArgs {
    BenchArgs {
        scale: 0.0005,
        reps: 1,
        ..Default::default()
    }
}

fn setup(args: &BenchArgs) -> (kgdual_model::Dataset, Vec<Vec<Query>>, usize) {
    let dataset = build_dataset(WorkloadKind::Yago, args);
    let workload = build_workload(WorkloadKind::Yago, args);
    let batches = build_batches(&workload, &args.order, args.seed);
    let budget = (dataset.len() as f64 * 0.25) as usize;
    (dataset, batches, budget)
}

/// Serial path: run `cut` batches, checkpoint through the StoreVariant
/// accessors, restart into a fresh variant, finish — then compare every
/// deterministic per-batch metric and the tuner's final Q-state with the
/// uninterrupted run.
#[test]
fn serial_roundtrip_is_lossless_on_adjacency() {
    let args = small_args();
    let (dataset, batches, budget) = setup(&args);
    let runner = WorkloadRunner::new(TuningSchedule::AfterEachBatch);
    let fresh_variant = || {
        StoreVariant::rdb_gdb(
            DualStore::from_dataset(dataset.clone(), budget),
            Box::new(Dotil::with_config(DotilConfig::default())),
        )
    };
    let fingerprint = |r: &kgdual_core::BatchReport| {
        (
            r.total_work,
            r.sim_tti,
            r.result_rows,
            r.routes,
            format!("{:?}", r.tuning),
        )
    };

    let mut uninterrupted = fresh_variant();
    let reference: Vec<_> = runner
        .run(&mut uninterrupted, &batches)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();

    let cut = batches.len() / 2;
    let mut first_life = fresh_variant();
    let head = runner.run(&mut first_life, &batches[..cut]).unwrap();
    let snapshot = persist::save_checkpoint(first_life.dual(), first_life.tuner(), 0);

    let mut second_life = fresh_variant();
    {
        let (dual, tuner) = second_life.dual_and_tuner_mut();
        let report = persist::restore_checkpoint(
            dual,
            tuner.map(|t| t as &mut dyn PhysicalTuner),
            &snapshot,
        )
        .expect("restore onto the same dataset must succeed");
        assert!(report.tuner_restored);
    }
    let tail = runner.run(&mut second_life, &batches[cut..]).unwrap();

    let resumed: Vec<_> = head.iter().chain(&tail).map(fingerprint).collect();
    assert_eq!(resumed, reference, "serial restart equivalence");
    assert_eq!(
        second_life.dual().design(),
        uninterrupted.dual().design(),
        "final physical design must match"
    );
}

/// Concurrent path: same property through `SharedStore::checkpoint` /
/// `restore` with a multi-threaded executor, comparing the per-batch
/// result digests too.
#[test]
fn concurrent_roundtrip_is_lossless_on_adjacency() {
    let args = small_args();
    let (dataset, batches, budget) = setup(&args);
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(4));
    let fresh_store = || SharedStore::new(DualStore::from_dataset(dataset.clone(), budget));

    let store = fresh_store();
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let reference = runner.run(&store, &mut tuner, &batches);

    let cut = batches.len() / 2;
    let store = fresh_store();
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let head = runner.run(&store, &mut tuner, &batches[..cut]);
    let snapshot = store.checkpoint(Some(&tuner));

    let store = fresh_store();
    let mut tuner = Dotil::new();
    store
        .restore(Some(&mut tuner as &mut dyn PhysicalTuner), &snapshot)
        .expect("restore must succeed");
    let tail = runner.run(&store, &mut tuner, &batches[cut..]);

    for (resumed, reference) in head.iter().chain(&tail).zip(&reference) {
        assert_eq!(resumed.results_digest, reference.results_digest);
        assert_eq!(resumed.total_work(), reference.total_work());
        assert_eq!(resumed.sim_tti, reference.sim_tti);
        assert_eq!(resumed.routes, reference.routes);
        assert_eq!(
            format!("{:?}", resumed.tuning),
            format!("{:?}", reference.tuning),
            "DOTIL trail must survive the restart"
        );
    }
}
