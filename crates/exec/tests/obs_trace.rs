//! End-to-end observability coverage: a seeded parallel run (queries,
//! a dispatched hash-join probe, DOTIL tuning epochs, a scheduled checkpoint)
//! must leave a JSON-lines trace whose `task` spans cover all four
//! [`kgdual_sched::TaskClass`]es, with real parent linkage, and must
//! populate the serving-layer per-query latency histogram.

use kgdual_core::DualStore;
use kgdual_dotil::Dotil;
use kgdual_exec::{BatchExecutor, SchedShardDispatch, SharedStore};
use kgdual_model::{DatasetBuilder, Term};
use kgdual_sparql::parse;
use std::sync::{Arc, Mutex, MutexGuard};

/// The tests flip the process-global obs flag and drain the shared trace
/// recorder, so they must not interleave.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Graph with two disjoint complex motifs (so DOTIL sees two shapes and
/// measures them as one covered wave) plus a relational join whose probe
/// side (20 000 `y:big` rows against 2 500 `y:tag` rows) is large enough
/// to fan out as `ShardScan` jobs. Both motifs start graph-resident, so
/// the first tuning pass is that wave, measured on an empty cost-pair
/// memo.
fn dual() -> DualStore {
    let mut b = DatasetBuilder::new();
    for i in 0..120 {
        b.add_terms(
            &Term::iri(format!("y:p{i}")),
            "y:bornIn",
            &Term::iri(format!("y:c{}", i % 10)),
        );
    }
    for i in 0..60 {
        b.add_terms(
            &Term::iri(format!("y:p{i}")),
            "y:advisor",
            &Term::iri(format!("y:p{}", i + 50)),
        );
    }
    for i in 0..60 {
        b.add_terms(
            &Term::iri(format!("y:w{i}")),
            "y:worksAt",
            &Term::iri(format!("y:u{}", i % 6)),
        );
    }
    for i in 0..60 {
        b.add_terms(
            &Term::iri(format!("y:u{}", i % 6)),
            "y:locatedIn",
            &Term::iri(format!("y:c{}", i % 10)),
        );
    }
    for i in 0..60 {
        b.add_terms(
            &Term::iri(format!("y:w{i}")),
            "y:livesIn",
            &Term::iri(format!("y:c{}", i % 10)),
        );
    }
    for i in 0..20_000 {
        b.add_terms(
            &Term::iri(format!("y:x{i}")),
            "y:big",
            &Term::iri(format!("y:h{}", i % 1_000)),
        );
    }
    for j in 0..2_500 {
        b.add_terms(
            &Term::iri(format!("y:h{}", j % 1_000)),
            "y:tag",
            &Term::iri(format!("y:t{j}")),
        );
    }
    let mut d = DualStore::from_dataset(b.build(), 100_000);
    for pred in [
        "y:bornIn",
        "y:advisor",
        "y:worksAt",
        "y:locatedIn",
        "y:livesIn",
    ] {
        let p = d.dict().pred_id(pred).unwrap();
        d.migrate_partition(p).unwrap();
    }
    d
}

#[test]
fn seeded_run_traces_all_four_task_classes() {
    let _g = obs_lock();
    let obs = kgdual_obs::global();
    obs.trace().drain(); // discard spans from earlier tests
    obs.set_enabled(true);

    let store = SharedStore::new(dual());
    let exec = BatchExecutor::new(4);
    let sched = Arc::clone(exec.scheduler());
    store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));

    // Two distinct complex shapes (a wave of 2), variable-predicate
    // union scans and the relational join whose probe fans out.
    let batch = vec![
        parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap(),
        parse("SELECT ?w WHERE { ?w y:worksAt ?u . ?u y:locatedIn ?c . ?w y:livesIn ?c }").unwrap(),
        parse("SELECT ?s ?o WHERE { ?s ?p ?o } LIMIT 50").unwrap(),
        parse("SELECT ?s WHERE { ?s ?p y:c0 }").unwrap(),
        parse("SELECT ?x ?z WHERE { ?x y:big ?y . ?y y:tag ?z }").unwrap(),
    ];
    // The first pass measures the wave as OfflineTuning tasks; the second
    // takes both cost pairs from the memo.
    let mut tuner = Dotil::new();
    for _ in 0..2 {
        let report = exec.execute_batch(&store, &batch);
        assert_eq!(report.errors, 0);
        store.reconfigure(|d| {
            use kgdual_core::PhysicalTuner;
            tuner.tune_with(d, &batch, Some(&sched))
        });
    }
    let snapshot = store.checkpoint_on(&sched, None);
    assert!(!snapshot.is_empty());

    // Drain to a JSON-lines file — the dump a trace consumer would read.
    let path = std::env::temp_dir().join(format!("kgdual_trace_{}.jsonl", std::process::id()));
    let mut sink = kgdual_obs::JsonLinesSink::create(&path).unwrap();
    let drained = obs.trace().drain_to(&mut sink);
    sink.flush().unwrap();
    assert!(drained > 0, "the run must have recorded spans");

    let dump = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), drained, "one JSON line per span");

    for class in ["shard_scan", "query", "checkpoint_io", "offline_tuning"] {
        let needle = format!("\"class\":\"{class}\"");
        assert!(
            lines.iter().any(|l| l.contains(&needle)),
            "trace must cover task class {class}; got {} spans:\n{}",
            lines.len(),
            &dump[..dump.len().min(2000)]
        );
    }
    // Named spans from every instrumented layer.
    for name in ["task", "batch", "query", "hash_join", "tune", "checkpoint"] {
        let needle = format!("\"name\":\"{name}\"");
        assert!(
            lines.iter().any(|l| l.contains(&needle)),
            "trace must contain a `{name}` span"
        );
    }
    // Parent linkage: spans opened inside a task body (e.g. `query`
    // under `task`) carry their enclosing span's id.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"name\":\"query\"") && !l.contains("\"parent\":0")),
        "query spans must be linked to their enclosing task span"
    );

    // The serving-layer latency histogram saw every query of both passes.
    let snap = obs.metrics().snapshot();
    let h = snap.histogram("exec_query_wall_ns").unwrap();
    assert!(h.count >= 10, "10 query executions, saw {}", h.count);

    obs.set_enabled(kgdual_obs::env_enabled());
}

#[test]
fn query_latency_histogram_covers_every_bucket_boundary() {
    let _g = obs_lock();
    let obs = kgdual_obs::global();
    obs.set_enabled(true);

    // The registry dedupes by name, so this is the same histogram the
    // executor records into.
    let h = obs.metrics().histogram("exec_query_wall_ns");
    let before = h.snapshot();
    for i in 0..kgdual_obs::BUCKETS {
        h.record(kgdual_obs::bucket_bound(i));
    }
    let after = h.snapshot();
    for i in 0..kgdual_obs::BUCKETS {
        assert!(
            after.buckets[i] > before.buckets[i],
            "bucket {i} (le={}) must hold the boundary sample",
            kgdual_obs::bucket_bound(i)
        );
    }
    assert_eq!(after.count, before.count + kgdual_obs::BUCKETS as u64);
    assert_eq!(after.max, u64::MAX, "the top boundary is u64::MAX");

    obs.set_enabled(kgdual_obs::env_enabled());
}
