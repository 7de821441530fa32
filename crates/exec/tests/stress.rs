//! Concurrency stress tests: full workload batches at 1, 2, and 8
//! worker threads must be indistinguishable in everything but wall
//! clock.
//!
//! These run in CI's release-mode job too (`cargo test --release -p
//! kgdual-exec`), where the optimizer is most likely to surface a data
//! race the debug build happens to mask.

use kgdual_core::batch::TuningSchedule;
use kgdual_core::DualStore;
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, ExecMode, ParallelRunner, SharedStore};
use kgdual_sparql::Query;
use kgdual_workloads::{Workload, YagoGen};

const SEED: u64 = 42;
const TRIPLES: usize = 4_000;

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

/// Run the full workload through the parallel runner with a fresh,
/// identically seeded store + DOTIL tuner, returning the per-batch digest
/// of sorted results and the deterministic totals.
fn run_at(threads: usize, mode: ExecMode) -> (Vec<Vec<u8>>, u64, u128, u64, usize) {
    let store = fresh_store();
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let runner = ParallelRunner::new(
        TuningSchedule::AfterEachBatch,
        BatchExecutor::new(threads).with_mode(mode),
    );
    let reports = runner.run(&store, &mut tuner, &batches());
    let digests = reports.iter().map(|r| r.results_digest.clone()).collect();
    let work = ParallelRunner::total_work(&reports);
    let sim = ParallelRunner::total_sim_tti(&reports).as_nanos();
    let rows: u64 = reports.iter().map(|r| r.result_rows).sum();
    let errors: usize = reports.iter().map(|r| r.errors).sum();
    (digests, work, sim, rows, errors)
}

#[test]
fn routed_batches_identical_across_1_2_8_threads() {
    let (d1, w1, s1, r1, e1) = run_at(1, ExecMode::Routed);
    assert_eq!(e1, 0, "healthy run");
    assert!(w1 > 0 && r1 > 0);
    for threads in [2, 8] {
        let (dn, wn, sn, rn, en) = run_at(threads, ExecMode::Routed);
        assert_eq!(en, 0, "{threads} threads: no errors");
        assert_eq!(
            d1, dn,
            "{threads} threads: sorted per-query results must be byte-identical to serial"
        );
        assert_eq!(
            w1, wn,
            "{threads} threads: aggregated work units must equal the serial total"
        );
        assert_eq!(s1, sn, "{threads} threads: simulated TTI must be identical");
        assert_eq!(r1, rn, "{threads} threads: result rows must be identical");
    }
}

#[test]
fn relational_only_batches_identical_across_thread_counts() {
    let (d1, w1, s1, r1, _) = run_at(1, ExecMode::RelationalOnly);
    let (d8, w8, s8, r8, e8) = run_at(8, ExecMode::RelationalOnly);
    assert_eq!(e8, 0);
    assert_eq!(d1, d8);
    assert_eq!(w1, w8);
    assert_eq!(s1, s8);
    assert_eq!(r1, r8);
}

#[test]
fn parallel_run_matches_serial_workload_runner() {
    // The concurrent executor against the serial WorkloadRunner over a
    // StoreVariant: same workload, same seed, same tuner config — the
    // deterministic totals DOTIL trains on must agree exactly.
    use kgdual_core::{StoreVariant, WorkloadRunner};

    let dataset = YagoGen::with_target_triples(TRIPLES, SEED).generate();
    let budget = dataset.len() / 4;
    let mut variant = StoreVariant::rdb_gdb(
        DualStore::from_dataset_sharded(dataset, budget, env_shards()),
        Box::new(Dotil::with_config(DotilConfig::default())),
    );
    let serial = WorkloadRunner::default()
        .run(&mut variant, &batches())
        .unwrap();

    let (_, work, sim, rows, errors) = run_at(8, ExecMode::Routed);
    assert_eq!(errors, 0);
    assert_eq!(WorkloadRunner::total_work(&serial), work);
    assert_eq!(WorkloadRunner::total_sim_tti(&serial).as_nanos(), sim);
    assert_eq!(serial.iter().map(|r| r.result_rows).sum::<u64>(), rows);
}

#[test]
fn tuning_decisions_are_thread_count_invariant() {
    // The migration trail (graph-store residency after every batch) must
    // not depend on how many workers executed the online phase.
    let residency = |threads: usize| -> Vec<Vec<(u32, usize)>> {
        let store = fresh_store();
        let mut tuner = Dotil::with_config(DotilConfig::default());
        let runner =
            ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(threads));
        let mut trail = Vec::new();
        for batch in batches() {
            let _ = runner.run(&store, &mut tuner, std::slice::from_ref(&batch));
            let design = store.read().design();
            trail.push(
                design
                    .graph_partitions
                    .iter()
                    .map(|&(p, sz)| (p.0, sz))
                    .collect(),
            );
        }
        trail
    };
    assert_eq!(residency(1), residency(8));
}
