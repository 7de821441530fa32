//! Serve-equivalence suite: the online serving front-end must be a pure
//! transport over the batch execution path.
//!
//! A seeded workload replayed serially through one wire connection must
//! produce — per query — the same rows (order included), work units,
//! simulated latency, and route as `BatchExecutor` on an identical
//! store, and the wire-side digest must be byte-identical to the batch
//! path's `results_digest`. The grid sweeps shard counts {1, 4} × worker
//! counts {1, 4}, with the CI matrix's `KGDUAL_THREADS` folded in so
//! release-stress legs extend the sweep.
//!
//! Server and executor share one scheduler per cell: served queries run
//! on their connection thread and fan their shard scans out on the same
//! pool the batch path uses, so any scheduling-order sensitivity would
//! surface here.

use kgdual_bench::serve_load::{query_pool, serial_replay};
use kgdual_bench::{build_dataset, BenchArgs, WorkloadKind};
use kgdual_core::DualStore;
use kgdual_exec::{results_digest, BatchExecutor, SchedShardDispatch, Scheduler, SharedStore};
use kgdual_serve::{route_name, ServeConfig, Server};
use std::sync::Arc;

fn args_with_shards(shards: usize) -> BenchArgs {
    BenchArgs {
        scale: 0.002,
        shards,
        ..BenchArgs::default()
    }
}

/// The CI matrix's `KGDUAL_THREADS` selection, folded into the swept
/// worker counts (same convention as the sched-equivalence suite).
fn env_threads() -> Option<usize> {
    std::env::var("KGDUAL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
}

/// One grid cell: identical store + shared scheduler, serve the pool
/// serially over the wire, and require field-level and digest-level
/// identity with the batch executor.
fn cell_equivalent(label: &str, shards: usize, threads: usize) {
    let args = args_with_shards(shards);
    let queries = query_pool(&args);
    assert!(
        !queries.is_empty(),
        "{label}: workload pool must be non-empty"
    );
    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let budget = dataset.len() / 4;
    let store = Arc::new(SharedStore::new(DualStore::from_dataset_sharded(
        dataset, budget, shards,
    )));
    let sched = Arc::new(Scheduler::new(threads));
    if threads > 1 {
        store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));
        store.read().warm_rel_indexes();
    }

    let server = Server::start(
        Arc::clone(&store),
        Arc::clone(&sched),
        ServeConfig::default(),
    )
    .expect("bind equivalence server");
    let (wire_digest, replies) =
        serial_replay(server.local_addr(), &queries).expect("serial wire replay");

    let parsed: Vec<_> = queries
        .iter()
        .map(|q| kgdual_sparql::parse(q).expect("pool query parses"))
        .collect();
    let executor = BatchExecutor::with_scheduler(Arc::clone(&sched)).with_outcomes(true);
    let report = executor.execute_batch(&store, &parsed);
    server.shutdown();
    assert_eq!(report.errors, 0, "{label}: batch path must be healthy");

    let batch_digest = results_digest(&report.outcomes);
    assert_eq!(
        wire_digest, batch_digest,
        "{label}: wire digest must be byte-identical to the batch digest"
    );
    let mut rows_served = 0u64;
    for (i, (reply, outcome)) in replies.iter().zip(&report.outcomes).enumerate() {
        let out = outcome.as_ref().expect("no batch errors");
        assert!(reply.is_ok(), "{label}: query {i} must serve");
        let rows: Vec<Vec<u32>> = out
            .results
            .rows()
            .map(|r| r.iter().map(|c| c.0).collect())
            .collect();
        assert_eq!(
            reply.rows, rows,
            "{label}: query {i} row mismatch (order included)"
        );
        assert_eq!(
            reply.work_units,
            out.total_work(),
            "{label}: query {i} work"
        );
        assert_eq!(
            reply.sim_latency_ns,
            out.simulated_latency().as_nanos() as u64,
            "{label}: query {i} simulated latency"
        );
        assert_eq!(
            reply.route,
            route_name(out.route),
            "{label}: query {i} route"
        );
        rows_served += rows.len() as u64;
    }
    assert!(rows_served > 0, "{label}: replay must produce result rows");
}

#[test]
fn served_replies_match_batch_execution_adjacency() {
    let mut thread_counts = vec![1, 4];
    if let Some(extra) = env_threads() {
        if !thread_counts.contains(&extra) {
            thread_counts.push(extra);
        }
    }
    for shards in [1, 4] {
        for &threads in &thread_counts {
            cell_equivalent(
                &format!("{shards} shards/{threads} threads"),
                shards,
                threads,
            );
        }
    }
}
