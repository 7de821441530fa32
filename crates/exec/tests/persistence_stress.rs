//! Restart-equivalence stress: checkpoint mid-workload under the
//! concurrent executor, "restart" into a fresh store + tuner, and finish
//! the workload — every deterministic metric (per-batch result digests,
//! work units, simulated TTI, routes, and the DOTIL tuning trail) must be
//! byte-identical to the uninterrupted run.
//!
//! Like `stress.rs`, these run in CI's release-mode job, where optimized
//! codegen is most likely to expose an unsound checkpoint taken against a
//! store that was not actually quiesced.

use kgdual_core::batch::TuningSchedule;
use kgdual_core::{DualStore, PhysicalTuner};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, ParallelBatchReport, ParallelRunner, SharedStore};
use kgdual_model::DesignError;
use kgdual_sparql::Query;
use kgdual_workloads::{Workload, YagoGen};

const SEED: u64 = 42;
const TRIPLES: usize = 4_000;
const THREADS: usize = 4;

/// Relational shard count CI selects via `KGDUAL_SHARDS` (default: 1,
/// the monolithic layout). Every deterministic assertion in this file is
/// shard-invariant by the sharding determinism contract, so the same
/// expectations hold on every axis value.
fn env_shards() -> usize {
    std::env::var("KGDUAL_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

fn fresh_store() -> SharedStore {
    let dataset = YagoGen::with_target_triples(TRIPLES, SEED).generate();
    let budget = dataset.len() / 4;
    SharedStore::new(DualStore::from_dataset_sharded(
        dataset,
        budget,
        env_shards(),
    ))
}

fn batches() -> Vec<Vec<Query>> {
    let workload = YagoGen::with_target_triples(TRIPLES, SEED).workload();
    Workload::batches(&workload.ordered(), 5)
}

/// The deterministic face of one batch: everything a restart must not
/// perturb, including the tuning outcome (the DOTIL trail).
fn fingerprint(r: &ParallelBatchReport) -> (Vec<u8>, u64, u128, u64, String) {
    (
        r.results_digest.clone(),
        r.total_work(),
        r.sim_tti.as_nanos(),
        r.result_rows,
        format!("{:?}", r.tuning),
    )
}

/// Checkpoint after `cut` batches, restore into a fresh process image, and
/// run the rest; compare batch by batch with the uninterrupted run.
#[test]
fn restart_at_every_batch_boundary_matches_uninterrupted() {
    let all = batches();
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(THREADS));

    // Uninterrupted reference run.
    let store = fresh_store();
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let uninterrupted = runner.run(&store, &mut tuner, &all);
    assert_eq!(uninterrupted.iter().map(|r| r.errors).sum::<usize>(), 0);

    for cut in 1..all.len() {
        // First process lifetime: batches [0, cut), then checkpoint.
        let store = fresh_store();
        let mut tuner = Dotil::with_config(DotilConfig::default());
        let head = runner.run(&store, &mut tuner, &all[..cut]);
        let snapshot = store.checkpoint(Some(&tuner));

        // "Restart": fresh store over the same dataset, fresh tuner,
        // state rehydrated from the snapshot.
        let store = fresh_store();
        let mut tuner = Dotil::new();
        let report = store
            .restore(Some(&mut tuner as &mut dyn PhysicalTuner), &snapshot)
            .expect("checkpoint must restore onto the same dataset");
        assert!(report.tuner_restored, "DOTIL state must ride along");
        assert_eq!(
            report.epoch,
            store.epoch(),
            "restored store resumes the checkpointed epoch"
        );
        let tail = runner.run(&store, &mut tuner, &all[cut..]);

        let resumed: Vec<_> = head.iter().chain(&tail).map(fingerprint).collect();
        let reference: Vec<_> = uninterrupted.iter().map(fingerprint).collect();
        assert_eq!(
            resumed, reference,
            "cut after batch {cut}: restart must not change any deterministic metric"
        );
    }
}

/// A checkpoint taken while readers are in flight must wait for them (the
/// quiesce contract) and still capture a consistent design.
#[test]
fn checkpoints_quiesce_and_stay_restorable_under_concurrency() {
    let store = fresh_store();
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(THREADS));
    let all = batches();
    runner.run(&store, &mut tuner, &all[..2]);

    // Hammer checkpoints from another thread while the online phase runs;
    // every captured snapshot must be a valid, restorable design.
    let snapshots = std::thread::scope(|scope| {
        let store_ref = &store;
        let grabber = scope.spawn(move || {
            let mut grabbed = Vec::new();
            for _ in 0..8 {
                grabbed.push(store_ref.checkpoint(None));
                std::thread::yield_now();
            }
            grabbed
        });
        let exec = BatchExecutor::new(THREADS);
        for batch in &all[2..] {
            let r = exec.execute_batch(store_ref, batch);
            assert_eq!(r.errors, 0);
        }
        grabber.join().expect("checkpoint thread must not panic")
    });

    for snapshot in snapshots {
        let fresh = fresh_store();
        fresh
            .restore(None, &snapshot)
            .expect("every concurrently captured snapshot must restore");
    }
}

/// Misuse: a snapshot is dataset-bound, so restoring onto a *different
/// dataset* must fail typed.
#[test]
fn restoring_onto_a_different_dataset_is_a_typed_mismatch() {
    let store = fresh_store();
    let snapshot = store.checkpoint(None);

    let other_data = YagoGen::with_target_triples(TRIPLES / 2, SEED + 1).generate();
    let budget = other_data.len() / 4;
    let other = SharedStore::new(DualStore::from_dataset(other_data, budget));
    let before_epoch = other.epoch();
    match other.restore(None, &snapshot) {
        Err(DesignError::Mismatch(_)) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
    assert_eq!(other.epoch(), before_epoch, "failed restore moves nothing");
}
