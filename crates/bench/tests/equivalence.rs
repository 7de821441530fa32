//! The equivalence suite: one fingerprint over one declared axis grid.
//!
//! The grid, the fingerprint and the runner of one cell live in
//! [`grid`]; this file checks most of the grid's blocks, one `#[test]`
//! each, and shows that the grid covers every axis value. The checks
//! that are not grid checks follow at the end as plain tests: checkpoint
//! misuse, concurrent checkpoints and wire EXPLAIN.

mod grid;

use grid::*;
use kgdual_bench::{build_dataset, BenchArgs, WorkloadKind};
use kgdual_core::batch::TuningSchedule;
use kgdual_core::{process_shared_explain, DualStore};
use kgdual_dotil::Dotil;
use kgdual_exec::{BatchExecutor, ParallelRunner, Scheduler, SharedStore};
use kgdual_model::DesignError;
use kgdual_relstore::TempSpace;
use kgdual_serve::{ServeConfig, Server};
use std::sync::Arc;

#[test]
fn relational_only_pooled() {
    check(&RELATIONAL_ONLY_POOLED);
}

#[test]
fn view_assisted_pooled() {
    check(&VIEW_ASSISTED_POOLED);
}

/// The three store variants answer every batch alike: the result digests
/// of the policies' reference cells are equal batch for batch.
#[test]
fn policies_agree_on_results_digests() {
    let routed = &reference(Policy::Routed).digests;
    assert_eq!(routed.len(), workload().1.len(), "one digest per batch");
    for &policy in POLICIES {
        let digests = &reference(policy).digests;
        for (batch, (got, want)) in digests.iter().zip(routed).enumerate() {
            assert!(
                got == want,
                "{policy:?} differs from Routed on batch {batch}"
            );
        }
    }
}

#[test]
fn wire_transport() {
    check(&WIRE_TRANSPORT);
}

#[test]
fn mid_run_restart_two_workers() {
    check(&MID_RUN_RESTART_TWO_WORKERS);
}

#[test]
fn restart_at_every_batch_boundary() {
    check(&RESTART_AT_EVERY_BATCH_BOUNDARY);
}

#[test]
fn recording_on() {
    check(&RECORDING_ON);
}

#[test]
fn recording_on_across_a_restart() {
    check(&RECORDING_ON_ACROSS_A_RESTART);
}

#[test]
fn recording_on_served_and_restarted() {
    check(&RECORDING_ON_SERVED_AND_RESTARTED);
}

#[test]
fn recording_on_relational_only() {
    check(&RECORDING_ON_RELATIONAL_ONLY);
}

/// Every value of every axis appears in some cell, every policy runs on
/// several workers (its reference cell runs on one), and the wire meets
/// recording and a restart.
#[test]
fn grid_covers_every_axis_value() {
    let cells: Vec<Cell> = GRID.iter().flat_map(Block::cells).collect();
    let covered = |pred: &dyn Fn(&Cell) -> bool| cells.iter().any(pred);
    for &policy in POLICIES {
        assert!(
            covered(&|c| c.policy == policy && c.workers > 1),
            "{policy:?}"
        );
    }
    for &workers in WORKERS {
        assert!(covered(&|c| c.workers == workers), "{workers} workers");
    }
    for restart in EVERY_BOUNDARY {
        assert!(covered(&|c| c.restart == *restart), "{restart:?}");
    }
    assert!(covered(&|c| c.obs && c.transport == Transport::Wire));
    assert!(covered(&|c| c.obs && c.restart != Restart::No));
    assert!(covered(
        &|c| c.transport == Transport::Wire && c.restart != Restart::No
    ));
}

#[test]
fn mismatch_names_the_field_and_the_axis() {
    let reference = Fingerprint {
        work: vec![10, 20],
        ..Fingerprint::default()
    };
    let got = Fingerprint {
        work: vec![10, 21],
        ..Fingerprint::default()
    };
    assert_eq!(reference.first_difference(&reference.clone()), None);
    let field = reference.first_difference(&got).expect("work differs");
    let reference_cell = Cell::reference(Policy::Routed);
    let cell = Cell {
        workers: 8,
        ..reference_cell
    };
    let message = mismatch(&reference_cell, &cell, field);
    assert!(message.contains("`work`"), "{message}");
    assert!(message.contains("workers 1 → 8"), "{message}");
    assert!(
        !message.contains("policy "),
        "only differing axes: {message}"
    );
}

// ---------------------------------------------------------------------------
// Plain tests.

/// A snapshot is dataset-bound: restoring onto a different dataset fails
/// typed and moves nothing.
#[test]
fn restoring_onto_a_different_dataset_is_a_typed_mismatch() {
    let store = SharedStore::new(fresh_dual());
    let snapshot = store.checkpoint(None);

    let args = BenchArgs {
        scale: 0.001,
        seed: 43,
        ..BenchArgs::default()
    };
    let other_data = build_dataset(WorkloadKind::Yago, &args);
    let budget = other_data.len() / 4;
    let other = SharedStore::new(DualStore::from_dataset(other_data, budget));
    let before_epoch = other.epoch();
    match other.restore(None, &snapshot) {
        Err(DesignError::Mismatch(_)) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
    assert_eq!(other.epoch(), before_epoch, "failed restore moves nothing");
}

/// A checkpoint taken while readers are in flight waits for them (the
/// write lock drains every batch) and still captures a restorable design.
#[test]
fn checkpoints_drain_readers_and_stay_restorable_under_concurrency() {
    const THREADS: usize = 4;
    let all = &workload().1;
    let store = SharedStore::new(fresh_dual());
    let mut tuner = Dotil::new();
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(THREADS));
    runner.run(&store, &mut tuner, &all[..2]);

    // Hammer checkpoints from another thread while the online phase runs.
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
        SharedStore::new(fresh_dual())
            .restore(None, &snapshot)
            .expect("every concurrently captured snapshot must restore");
    }
}

/// The wire's `"explain": "analyze"` agrees with the in-process plan:
/// same route, same operator sequence, same actual rows and work per
/// operator.
#[test]
fn served_explain_analyze_matches_in_process_plan() {
    use kgdual_serve::json::Json;
    use kgdual_serve::ServeClient;

    let queries: Vec<String> = workload()
        .1
        .iter()
        .flatten()
        .map(|q| q.to_string())
        .collect();
    let store = Arc::new(SharedStore::new(fresh_dual()));
    let sched = Arc::new(Scheduler::new(4));

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
