//! EXPLAIN-determinism suite: the deterministic half of a query profile
//! must be a pure function of the dataset and the query.
//!
//! For every pool query, `PlanDesc::deterministic_json()` (route +
//! operator sequence + estimated cardinalities) and
//! `QueryProfile::deterministic_json()` (per-operator actual rows and
//! work units + total work) must be **byte-identical** across the full
//! configuration grid: shard counts {1, 4} × worker counts {1, 4,
//! `KGDUAL_THREADS`}. Wall time, batch
//! counts, and the `shards` field are observational/config and
//! deliberately excluded — that split is what this suite pins.
//!
//! A second test drives the same plans over the serve wire
//! (`"explain": "analyze"`) and requires the wire JSON to agree with
//! the in-process plan structurally.

use kgdual_bench::serve_load::query_pool;
use kgdual_bench::{build_dataset, BenchArgs, WorkloadKind};
use kgdual_core::{process_shared_explain, DualStore, PhysicalTuner};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, SchedShardDispatch, Scheduler, SharedStore};
use kgdual_relstore::TempSpace;
use std::sync::Arc;

fn env_threads() -> Option<usize> {
    std::env::var("KGDUAL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
}

/// Run the pool through `process_shared_explain` in one configuration and
/// return each query's concatenated deterministic plan + profile JSON.
fn cell_canonical(shards: usize, threads: usize) -> Vec<String> {
    let args = BenchArgs {
        scale: 0.002,
        shards,
        ..BenchArgs::default()
    };
    let queries = query_pool(&args);
    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let budget = dataset.len() / 4;
    let store = SharedStore::new(DualStore::from_dataset_sharded(dataset, budget, shards));
    let sched = Arc::new(Scheduler::new(threads));
    if threads > 1 {
        store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));
        store.read().warm_rel_indexes();
    }

    // One tuned pass so graph/dual routes appear in the plans. `prob: 1.0`
    // pins the cold-start transfer coin flip, keeping the resulting
    // residency — and therefore routing — identical across the grid.
    let parsed: Vec<_> = queries
        .iter()
        .map(|q| kgdual_sparql::parse(q).expect("pool query parses"))
        .collect();
    let executor = BatchExecutor::with_scheduler(Arc::clone(&sched));
    let mut tuner = Dotil::with_config(DotilConfig {
        prob: 1.0,
        ..DotilConfig::default()
    });
    let report = executor.execute_batch(&store, &parsed);
    assert_eq!(report.errors, 0, "tuning pass must be healthy");
    store.reconfigure(|d| tuner.tune_with(d, &parsed, Some(&sched)));

    let guard = store.read();
    let mut temp = TempSpace::new();
    parsed
        .iter()
        .map(|query| {
            let out =
                process_shared_explain(&guard, &mut temp, query, true).expect("pool query runs");
            let plan = out.plan.expect("explain run attaches a plan");
            let profile = out.profile.expect("explain run attaches a profile");
            format!(
                "{}|{}",
                plan.deterministic_json(),
                profile.deterministic_json()
            )
        })
        .collect()
}

#[test]
fn deterministic_plan_fields_are_identical_across_grid() {
    let reference = cell_canonical(1, 1);
    assert!(!reference.is_empty(), "pool must be non-empty");
    assert!(
        reference.iter().any(|c| c.contains("\"route\":\"graph\""))
            || reference.iter().any(|c| c.contains("\"route\":\"dual\"")),
        "pool must exercise the graph planner too"
    );

    let mut thread_counts = vec![1, 4];
    if let Some(extra) = env_threads() {
        if !thread_counts.contains(&extra) {
            thread_counts.push(extra);
        }
    }
    let mut cells = 0usize;
    for shards in [1usize, 4] {
        for &threads in &thread_counts {
            let got = cell_canonical(shards, threads);
            let label = format!("{shards} shards/{threads} threads");
            assert_eq!(got.len(), reference.len(), "{label}: pool size");
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g, r,
                    "{label}: query {i} deterministic plan/profile fields diverged"
                );
            }
            cells += 1;
        }
    }
    assert!(cells >= 4, "grid must sweep at least 4 cells, got {cells}");
}

/// The wire exposure must agree with the in-process plan: same route,
/// same operator sequence, same actual rows/work per operator.
#[test]
fn served_explain_analyze_matches_in_process_plan() {
    use kgdual_serve::json::Json;
    use kgdual_serve::{ServeClient, ServeConfig, Server};

    let args = BenchArgs {
        scale: 0.002,
        shards: 4,
        ..BenchArgs::default()
    };
    let queries = query_pool(&args);
    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let budget = dataset.len() / 4;
    let store = Arc::new(SharedStore::new(DualStore::from_dataset_sharded(
        dataset, budget, 4,
    )));
    let sched = Arc::new(Scheduler::new(4));
    store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));
    store.read().warm_rel_indexes();

    let server = Server::start(
        Arc::clone(&store),
        Arc::clone(&sched),
        ServeConfig::default(),
    )
    .expect("bind explain server");
    let mut client = ServeClient::connect(server.local_addr(), "explain-eq").expect("connect");

    let guard = store.read();
    let mut temp = TempSpace::new();
    for (i, text) in queries.iter().enumerate() {
        let reply = client
            .query_explain(text, None, Some("analyze"))
            .expect("wire explain");
        assert!(reply.is_ok(), "query {i} must serve");
        let plan = reply.plan.as_ref().expect("analyze reply carries a plan");
        let profile = reply
            .profile
            .as_ref()
            .expect("analyze reply carries a profile");

        let query = kgdual_sparql::parse(text).expect("pool query parses");
        let out = process_shared_explain(&guard, &mut temp, &query, true).expect("local run");
        let local_plan = out.plan.expect("local plan");
        let local_profile = out.profile.expect("local profile");

        assert_eq!(
            plan.get("route").and_then(Json::as_str),
            Some(local_plan.route),
            "query {i}: wire route"
        );
        assert_eq!(
            reply.route, local_plan.route,
            "query {i}: reply route field"
        );
        let steps = plan.get("steps").and_then(Json::as_arr).expect("steps");
        assert_eq!(steps.len(), local_plan.steps.len(), "query {i}: step count");
        for (j, (wire, local)) in steps.iter().zip(&local_plan.steps).enumerate() {
            assert_eq!(
                wire.get("op").and_then(Json::as_str),
                Some(local.op),
                "query {i} step {j}: op"
            );
            assert_eq!(
                wire.get("pattern").and_then(Json::as_u64),
                Some(local.pattern as u64),
                "query {i} step {j}: pattern"
            );
        }
        let ops = profile.get("ops").and_then(Json::as_arr).expect("ops");
        assert_eq!(ops.len(), local_profile.ops.len(), "query {i}: op count");
        for (j, (wire, local)) in ops.iter().zip(&local_profile.ops).enumerate() {
            assert_eq!(
                wire.get("actual_rows").and_then(Json::as_u64),
                Some(local.actual_rows),
                "query {i} op {j}: actual rows"
            );
            assert_eq!(
                wire.get("work").and_then(Json::as_u64),
                Some(local.work),
                "query {i} op {j}: work units"
            );
        }
        assert_eq!(
            profile.get("total_work").and_then(Json::as_u64),
            Some(reply.work_units),
            "query {i}: profile total_work must equal the reply's work_units"
        );
    }
    drop(guard);
    server.shutdown();
}
