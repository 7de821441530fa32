//! Shard-equivalence suite: the relational shard count must be invisible
//! in every deterministic harness metric.
//!
//! The sharded `RelStore` routes whole partitions to shards and runs all
//! multi-shard enumerations in canonical (ascending predicate) order, so
//! seeded workloads at the baseline parameters must produce identical
//! sorted result digests, work units, simulated TTI, routing decisions,
//! and DOTIL tuning trails for every shard count — serial and through the
//! concurrent executor. *Nothing* is allowed to differ here, not even
//! `offline_work`.
//!
//! CI runs this suite in the release-stress matrix with
//! `KGDUAL_SHARDS={1,4}`; the tests below sweep shard counts explicitly
//! so every leg checks the full set.

use kgdual_bench::{
    build_batches, build_dataset, build_workload, run_variant_comparison, BenchArgs, VariantKind,
    WorkloadKind,
};
use kgdual_core::batch::{RouteCounts, TuningSchedule};
use kgdual_core::{DualStore, PhysicalTuner, TuningOutcome};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, ParallelRunner, SchedShardDispatch, SharedStore};
use kgdual_model::PredId;
use kgdual_relstore::ShardRouter;
use proptest::prelude::*;
use std::sync::Arc;

/// The committed-baseline parameters plus a shard count.
fn args_with_shards(shards: usize) -> BenchArgs {
    BenchArgs {
        scale: 0.002,
        shards,
        ..BenchArgs::default()
    }
}

/// Everything deterministic one serial workload run produces, tuning
/// trail included verbatim (`offline_work` and all — shard layout must
/// not perturb even the offline numbers).
#[derive(Debug, PartialEq)]
struct SerialFingerprint {
    routes: Vec<RouteCounts>,
    tuning: Vec<TuningOutcome>,
    result_rows: Vec<u64>,
    sim_batch_tti_secs: Vec<f64>,
    total_work: u64,
}

fn serial_fingerprint(shards: usize, variant: VariantKind) -> SerialFingerprint {
    let args = args_with_shards(shards);
    let results = run_variant_comparison(WorkloadKind::Yago, &[variant], &args);
    let r = &results[0];
    SerialFingerprint {
        routes: r.reports.iter().map(|b| b.routes).collect(),
        tuning: r.reports.iter().map(|b| b.tuning).collect(),
        result_rows: r.reports.iter().map(|b| b.result_rows).collect(),
        sim_batch_tti_secs: r.sim_batch_tti_secs.clone(),
        total_work: r.total_work,
    }
}

#[test]
fn serial_workloads_identical_across_shard_counts() {
    for variant in [VariantKind::RdbOnly, VariantKind::RdbGdbDotil] {
        let mono = serial_fingerprint(1, variant);
        assert!(mono.total_work > 0, "healthy run");
        for shards in [2, 8] {
            let sharded = serial_fingerprint(shards, variant);
            assert_eq!(
                mono, sharded,
                "{variant:?}: {shards} shards must be deterministically \
                 indistinguishable from the monolithic store"
            );
        }
    }
}

/// Everything deterministic a concurrent run produces: per-batch digests
/// of sorted results, the DOTIL residency trail, and the work totals.
#[derive(Debug, PartialEq)]
struct ParallelFingerprint {
    digests: Vec<Vec<u8>>,
    residency_trail: Vec<Vec<(u32, usize)>>,
    work: u64,
    sim_nanos: u128,
    rows: u64,
}

fn parallel_fingerprint(shards: usize, threads: usize) -> ParallelFingerprint {
    let args = args_with_shards(shards);
    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let workload = build_workload(WorkloadKind::Yago, &args);
    let batches = build_batches(&workload, &args.order, args.seed);
    let budget = dataset.len() / 4;
    let store = SharedStore::new(DualStore::from_dataset_sharded(dataset, budget, shards));
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(threads));

    let mut out = ParallelFingerprint {
        digests: Vec::new(),
        residency_trail: Vec::new(),
        work: 0,
        sim_nanos: 0,
        rows: 0,
    };
    for batch in &batches {
        let reports = runner.run(&store, &mut tuner, std::slice::from_ref(batch));
        for r in &reports {
            assert_eq!(r.errors, 0, "healthy run");
            out.digests.push(r.results_digest.clone());
            out.rows += r.result_rows;
        }
        out.work += ParallelRunner::total_work(&reports);
        out.sim_nanos += ParallelRunner::total_sim_tti(&reports).as_nanos();
        let design = store.read().design();
        out.residency_trail.push(
            design
                .graph_partitions
                .iter()
                .map(|&(p, sz)| (p.0, sz))
                .collect(),
        );
    }
    out
}

#[test]
fn concurrent_digests_and_tuning_trail_identical_across_shard_counts() {
    let mono = parallel_fingerprint(1, 1);
    assert!(mono.work > 0 && mono.rows > 0, "healthy run");
    assert!(
        mono.residency_trail.iter().any(|d| !d.is_empty()),
        "DOTIL must have loaded at least one partition"
    );
    for shards in [2, 8] {
        for threads in [1, 4] {
            let sharded = parallel_fingerprint(shards, threads);
            assert_eq!(
                mono, sharded,
                "{shards} shards / {threads} threads must match 1 shard / 1 thread"
            );
        }
    }
}

/// Multi-thread multi-shard runs must actually dispatch per-shard scans
/// through `kgdual-exec`'s pool — and still match the monolithic store
/// byte for byte. Variable-predicate queries are the union scans that
/// fan out; a LIMIT case pins the canonical-order merge.
#[test]
fn parallel_shard_scans_dispatch_through_exec_and_match() {
    use kgdual_sparql::parse;

    let args = args_with_shards(1);
    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let budget = dataset.len() / 4;
    let queries = vec![
        parse("SELECT ?s ?o WHERE { ?s ?anypred ?o } LIMIT 50").unwrap(),
        parse("SELECT ?s ?p2 WHERE { ?s ?p2 ?o }").unwrap(),
    ];
    let exec = BatchExecutor::new(4);

    let mono = SharedStore::new(DualStore::from_dataset(dataset.clone(), budget));
    let reference = exec.execute_batch(&mono, &queries);
    assert_eq!(reference.errors, 0);

    let sharded = SharedStore::new(DualStore::from_dataset_sharded(dataset, budget, 8));
    let pool = Arc::new(SchedShardDispatch::new(Arc::clone(exec.scheduler())));
    sharded.install_shard_dispatch(pool.clone());
    let got = exec.execute_batch(&sharded, &queries);
    assert_eq!(got.errors, 0);
    assert_eq!(reference.results_digest, got.results_digest);
    assert_eq!(reference.total_work(), got.total_work());
    assert_eq!(reference.sim_tti, got.sim_tti);
    assert_eq!(reference.result_rows, got.result_rows);
    assert!(
        pool.dispatches() >= queries.len() as u64,
        "union scans must fan out through the pooled dispatcher"
    );
    assert_eq!(pool.jobs_run(), pool.dispatches() * 8, "one job per shard");
}

/// Checkpoint/restore round-trips the shard layout, and refuses to
/// restore across layouts.
#[test]
fn checkpoint_roundtrips_shard_layout() {
    let args = args_with_shards(4);
    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let workload = build_workload(WorkloadKind::Yago, &args);
    let batches = build_batches(&workload, &args.order, args.seed);
    let budget = dataset.len() / 4;

    let store = SharedStore::new(DualStore::from_dataset_sharded(dataset.clone(), budget, 4));
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(2));
    let head = runner.run(&store, &mut tuner, &batches[..2]);
    assert_eq!(head.iter().map(|r| r.errors).sum::<usize>(), 0);
    let snapshot = store.checkpoint(Some(&tuner));

    // Same layout: restores and continues identically.
    let restored = SharedStore::new(DualStore::from_dataset_sharded(dataset.clone(), budget, 4));
    let mut fresh_tuner = Dotil::new();
    restored
        .restore(Some(&mut fresh_tuner as &mut dyn PhysicalTuner), &snapshot)
        .expect("same shard layout must restore");
    assert_eq!(restored.read().design(), store.read().design());
    let tail_restored = runner.run(&restored, &mut fresh_tuner, &batches[2..]);
    let tail_original = runner.run(&store, &mut tuner, &batches[2..]);
    for (a, b) in tail_restored.iter().zip(&tail_original) {
        assert_eq!(a.results_digest, b.results_digest);
        assert_eq!(a.total_work(), b.total_work());
    }

    // Different shard count: typed refusal, no mutation.
    let wrong = SharedStore::new(DualStore::from_dataset_sharded(dataset, budget, 2));
    let before = wrong.read().design();
    assert!(wrong.restore(None, &snapshot).is_err());
    assert_eq!(wrong.read().design(), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Router assignment is total (< shard count), stable (pure function
    /// of config), and the monolithic router maps everything to shard 0.
    #[test]
    fn router_assignment_is_total_and_stable(
        shards in 1usize..32,
        preds in prop::collection::vec(0u32..10_000, 1..64),
    ) {
        let router = ShardRouter::new(shards);
        let twin = ShardRouter::new(shards);
        for &p in &preds {
            let a = router.assign(PredId(p));
            prop_assert!(a < shards, "assignment must land in 0..{shards}");
            prop_assert_eq!(a, router.assign(PredId(p)), "stable across calls");
            prop_assert_eq!(a, twin.assign(PredId(p)), "stable across instances");
            prop_assert_eq!(ShardRouter::new(1).assign(PredId(p)), 0);
        }
    }

    /// Overrides always win; everything else keeps the hash assignment.
    #[test]
    fn router_respects_overrides(
        shards in 2usize..16,
        pins in prop::collection::vec((0u32..500, 0usize..16), 0..8),
        probes in prop::collection::vec(0u32..500, 1..32),
    ) {
        // Deduplicate pins by predicate and clamp targets into range so
        // the config is valid; the router itself rejects invalid ones.
        let mut seen = Vec::new();
        let pins: Vec<(PredId, usize)> = pins
            .into_iter()
            .filter(|&(p, _)| seen.iter().all(|&q| q != p) && { seen.push(p); true })
            .map(|(p, s)| (PredId(p), s % shards))
            .collect();
        let router = ShardRouter::with_overrides(shards, pins.clone()).unwrap();
        let plain = ShardRouter::new(shards);
        for &p in &probes {
            let pred = PredId(p);
            match pins.iter().find(|&&(q, _)| q == pred) {
                Some(&(_, shard)) => prop_assert_eq!(router.assign(pred), shard),
                None => prop_assert_eq!(router.assign(pred), plain.assign(pred)),
            }
        }
    }
}
