//! End-to-end observability coverage: a seeded parallel run (queries,
//! DOTIL tuning epochs, a checkpoint) must leave a JSON-lines trace whose
//! `task` spans cover both [`kgdual_sched::TaskClass`]es and parent
//! across threads onto the span that submitted them, and must populate
//! the serving-layer per-query latency histogram.

use kgdual_core::DualStore;
use kgdual_dotil::Dotil;
use kgdual_exec::{BatchExecutor, SharedStore};
use kgdual_model::{DatasetBuilder, Term};
use kgdual_obs::{SpanRecord, TraceSink};
use kgdual_sparql::parse;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The tests flip the process-global obs flag and drain the shared trace
/// recorder, so they must not interleave.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Graph with two disjoint complex motifs (so DOTIL sees two shapes and
/// measures them as one covered wave). Both motifs start graph-resident,
/// so the first tuning pass is that wave, measured on an empty cost-pair
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

/// Whether some ancestor of `span` (itself excluded) is named `name`.
fn has_ancestor_named(span: &SpanRecord, name: &str, by_id: &HashMap<u64, &SpanRecord>) -> bool {
    let mut parent = span.parent;
    while let Some(s) = by_id.get(&parent) {
        if s.name == name {
            return true;
        }
        parent = s.parent;
    }
    false
}

#[test]
fn seeded_run_traces_both_task_classes_onto_their_submitters() {
    let _g = obs_lock();
    let obs = kgdual_obs::global();
    obs.trace().drain(); // discard spans from earlier tests
    obs.set_enabled(true);

    let store = SharedStore::new(dual());
    let exec = BatchExecutor::new(4);
    let sched = Arc::clone(exec.scheduler());

    // Two distinct complex shapes (a wave of 2) and variable-predicate
    // union scans.
    let batch = vec![
        parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap(),
        parse("SELECT ?w WHERE { ?w y:worksAt ?u . ?u y:locatedIn ?c . ?w y:livesIn ?c }").unwrap(),
        parse("SELECT ?s ?o WHERE { ?s ?p ?o } LIMIT 50").unwrap(),
        parse("SELECT ?s WHERE { ?s ?p y:c0 }").unwrap(),
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
    let snapshot = store.checkpoint(None);
    assert!(!snapshot.is_empty());

    // Write the spans as JSON lines — the dump a trace consumer would read.
    let spans = obs.trace().drain();
    assert!(!spans.is_empty(), "the run must have recorded spans");
    let path = std::env::temp_dir().join(format!("kgdual_trace_{}.jsonl", std::process::id()));
    let mut sink = kgdual_obs::JsonLinesSink::create(&path).unwrap();
    for span in &spans {
        sink.record(span);
    }
    sink.flush().unwrap();
    let dump = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), spans.len(), "one JSON line per span");
    for class in ["query", "offline_tuning"] {
        let needle = format!("\"class\":\"{class}\"");
        assert!(
            lines.iter().any(|l| l.contains(&needle)),
            "trace must cover task class {class}; got {} spans:\n{}",
            lines.len(),
            &dump[..dump.len().min(2000)]
        );
    }
    // Named spans from every instrumented layer.
    for name in ["task", "batch", "query", "tune", "checkpoint"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "trace must contain a `{name}` span"
        );
    }

    // Cross-thread parent linkage: the batch and the tuning epoch run on
    // this thread, which executes no pool task, so every `task` span
    // parents onto them only through the id captured at spawn time.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let tasks = |class: &str| {
        spans
            .iter()
            .filter(move |s| s.name == "task" && s.class == Some(class))
            .collect::<Vec<_>>()
    };
    let queries = tasks("query");
    assert_eq!(
        queries.len(),
        2 * batch.len(),
        "one task per query per pass"
    );
    for task in &queries {
        let parent = by_id
            .get(&task.parent)
            .expect("task parent is in the trace");
        assert_eq!(parent.name, "batch", "a query task parents onto its batch");
    }
    let tuning = tasks("offline_tuning");
    assert!(
        tuning.len() >= 4,
        "the first pass measures two cost pairs as four tasks, saw {}",
        tuning.len()
    );
    for task in &tuning {
        assert!(
            has_ancestor_named(task, "tune", &by_id),
            "an offline_tuning task hangs under its `tune` span"
        );
    }
    // Spans opened inside a task body carry the task span as parent.
    for query in spans.iter().filter(|s| s.name == "query") {
        let parent = by_id
            .get(&query.parent)
            .expect("query parent is in the trace");
        assert_eq!(parent.name, "task");
        assert_eq!(query.class, Some("query"));
    }

    // The serving-layer latency histogram saw every query of both passes.
    let snap = obs.metrics().snapshot();
    let h = snap.histogram("exec_query_wall_ns").unwrap();
    assert!(h.count >= 8, "8 query executions, saw {}", h.count);

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
