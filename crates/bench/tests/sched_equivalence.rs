//! Scheduler-equivalence suite: the unified work-stealing pool must be
//! invisible in every deterministic harness metric.
//!
//! All concurrent work — query tasks, per-shard union scans, DOTIL's
//! counterfactual waves, checkpoint I/O — now runs on one
//! `kgdual_sched::Scheduler`, so this suite pins the tentpole contract:
//! seeded workloads must produce identical result digests, rows, work
//! units, simulated TTI, route counts, and DOTIL tuning trails (exported
//! learned state included, byte for byte) across worker counts {1,2,8}
//! × shard counts {1,4}. Only wall clock may change with the pool size.
//!
//! CI runs this suite in the release-stress matrix with
//! `KGDUAL_THREADS={1,8}` composed with `KGDUAL_SHARDS`; the tests below
//! sweep the axes explicitly so every leg checks the full set.

use kgdual_bench::{build_batches, build_dataset, build_workload, BenchArgs, WorkloadKind};
use kgdual_core::batch::{RouteCounts, TuningSchedule};
use kgdual_core::DualStore;
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, ParallelRunner, SchedStats, SharedStore, TaskClass};

/// The committed-baseline parameters plus a shard count.
fn args_with_shards(shards: usize) -> BenchArgs {
    BenchArgs {
        scale: 0.002,
        shards,
        ..BenchArgs::default()
    }
}

/// The CI matrix's `KGDUAL_THREADS` selection (1 when unset): folded into
/// the swept worker counts so a matrix leg can push the sweep beyond the
/// built-in {1, 2, 8}.
fn env_threads() -> Option<usize> {
    std::env::var("KGDUAL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
}

/// Everything deterministic a scheduled run produces. The DOTIL trail is
/// carried twice: the per-batch graph-residency snapshots and the
/// tuner's full exported learned state (Q-matrices, staleness ages, RNG
/// position) — if any scheduling path perturbed a single Q-update or
/// coin flip, the state bytes would diverge.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    digests: Vec<Vec<u8>>,
    routes: Vec<RouteCounts>,
    residency_trail: Vec<Vec<(u32, usize)>>,
    tuner_state: Vec<u8>,
    work: u64,
    sim_nanos: u128,
    rows: u64,
}

fn scheduled_fingerprint(shards: usize, threads: usize) -> (Fingerprint, SchedStats) {
    let args = args_with_shards(shards);
    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let workload = build_workload(WorkloadKind::Yago, &args);
    let batches = build_batches(&workload, &args.order, args.seed);
    let budget = dataset.len() / 4;
    let store = SharedStore::new(DualStore::from_dataset_sharded(dataset, budget, shards));
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let executor = BatchExecutor::new(threads);
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, executor);

    let mut out = Fingerprint {
        digests: Vec::new(),
        routes: Vec::new(),
        residency_trail: Vec::new(),
        tuner_state: Vec::new(),
        work: 0,
        sim_nanos: 0,
        rows: 0,
    };
    for batch in &batches {
        let reports = runner.run(&store, &mut tuner, std::slice::from_ref(batch));
        for r in &reports {
            assert_eq!(r.errors, 0, "healthy run");
            out.digests.push(r.results_digest.clone());
            out.routes.push(r.routes);
            out.rows += r.result_rows;
        }
        out.work += ParallelRunner::total_work(&reports);
        out.sim_nanos += ParallelRunner::total_sim_tti(&reports).as_nanos();
        out.residency_trail.push(
            store
                .read()
                .design()
                .graph_partitions
                .iter()
                .map(|&(p, sz)| (p.0, sz))
                .collect(),
        );
    }
    out.tuner_state = tuner.export_state_bytes();
    (out, runner.executor.scheduler().stats())
}

#[test]
fn scheduled_runs_identical_across_threads_shards_adjacency() {
    let (reference, _) = scheduled_fingerprint(1, 1);
    assert!(reference.work > 0 && reference.rows > 0, "healthy run");
    assert!(
        reference.residency_trail.iter().any(|d| !d.is_empty()),
        "DOTIL must have loaded at least one partition"
    );
    let mut thread_counts = vec![1, 2, 8];
    if let Some(extra) = env_threads() {
        if !thread_counts.contains(&extra) {
            thread_counts.push(extra);
        }
    }
    for shards in [1, 4] {
        for &threads in &thread_counts {
            let (got, stats) = scheduled_fingerprint(shards, threads);
            assert_eq!(
                reference, got,
                "{threads} threads / {shards} shards must be \
                 deterministically identical to 1 thread / 1 shard"
            );
            if threads > 1 {
                // The pool really carried the work: every query ran as a
                // Query-class task, and DOTIL's covered waves went
                // through as OfflineTuning tasks.
                assert_eq!(stats.threads, threads);
                assert!(
                    stats.executed.get(TaskClass::Query) > 0,
                    "queries must run as Query-class tasks"
                );
                assert!(
                    stats.executed.get(TaskClass::OfflineTuning) > 0,
                    "covered waves must run as OfflineTuning tasks"
                );
                if shards > 1 {
                    assert!(
                        stats.executed.get(TaskClass::ShardScan) > 0,
                        "union scans must fan out as ShardScan tasks"
                    );
                }
            }
        }
    }
}

/// Observability must be purely observational: the same seeded parallel
/// run with the recorder off and on yields byte-identical digests,
/// routes, and DOTIL trails. CI drives the same property through its
/// release-stress legs with `KGDUAL_OBS=on`.
#[test]
fn observability_on_does_not_perturb_determinism() {
    let obs = kgdual_obs::global();
    let before = obs.enabled();
    obs.set_enabled(false);
    let (off, _) = scheduled_fingerprint(4, 4);
    obs.set_enabled(true);
    let (on, _) = scheduled_fingerprint(4, 4);
    obs.set_enabled(before);
    assert!(off.work > 0 && off.rows > 0, "healthy run");
    assert_eq!(
        off, on,
        "recording on must be byte-identical to recording off"
    );
}
