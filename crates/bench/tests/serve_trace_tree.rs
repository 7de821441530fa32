//! Cross-task request tracing: one `POST /query` must leave one rooted
//! span tree.
//!
//! A seeded served run replays the workload pool. Afterwards the drained
//! trace must show, for every request, a single root `request` span whose
//! descendants cover admission and the `query`-class execution on the
//! connection thread. No span may reference a parent that is not in the
//! trace.

use kgdual_bench::serve_load::query_pool;
use kgdual_bench::{build_dataset, BenchArgs, WorkloadKind};
use kgdual_core::DualStore;
use kgdual_exec::{Scheduler, SharedStore};
use kgdual_graphstore::AdjacencyBackend;
use kgdual_obs::SpanRecord;
use kgdual_serve::{ServeClient, ServeConfig, Server};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Transitive descendants of `root` in the drained span set.
fn subtree(root: u64, children: &HashMap<u64, Vec<&SpanRecord>>) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        for child in children.get(&id).into_iter().flatten() {
            out.push(**child);
            stack.push(child.id);
        }
    }
    out
}

#[test]
fn served_request_spans_form_one_rooted_tree_across_task_classes() {
    let obs = kgdual_obs::global();
    obs.set_enabled(true);

    let args = BenchArgs {
        scale: 0.002,
        ..BenchArgs::default()
    };
    let queries = query_pool(&args);

    let dataset = build_dataset(WorkloadKind::Yago, &args);
    let budget = dataset.len() / 4;
    let store = Arc::new(SharedStore::new(
        DualStore::<AdjacencyBackend>::from_dataset_in(dataset, budget),
    ));
    let sched = Arc::new(Scheduler::new(4));

    let server = Server::start(
        Arc::clone(&store),
        Arc::clone(&sched),
        ServeConfig::default(),
    )
    .expect("bind trace server");
    obs.trace().drain(); // isolate from setup spans and earlier tests
    let mut client = ServeClient::connect(server.local_addr(), "trace-tree").expect("connect");
    for (i, q) in queries.iter().enumerate() {
        let reply = client.query(q, None).expect("wire query");
        assert!(reply.is_ok(), "query {i} must serve");
    }
    server.shutdown();

    let spans = obs.trace().drain();
    assert!(!spans.is_empty(), "the run must have recorded spans");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in &spans {
        // No orphans: every non-root parent reference must resolve.
        if s.parent != 0 {
            assert!(
                by_id.contains_key(&s.parent),
                "span {} ({}) references parent {} absent from the trace",
                s.id,
                s.name,
                s.parent
            );
            children.entry(s.parent).or_default().push(s);
        }
    }

    let requests: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "request").collect();
    assert_eq!(
        requests.len(),
        queries.len(),
        "one root `request` span per served query"
    );
    for req in &requests {
        assert_eq!(req.parent, 0, "request spans are tree roots");
        let tree = subtree(req.id, &children);
        let names: HashSet<&str> = tree.iter().map(|s| s.name).collect();
        let classes: HashSet<&str> = tree.iter().filter_map(|s| s.class).collect();
        assert!(
            names.contains("admission"),
            "request {} tree must include the admission span",
            req.id
        );
        assert!(
            classes.contains("query"),
            "request {} tree must reach the query-class execution (classes: {classes:?})",
            req.id
        );
    }

    obs.set_enabled(kgdual_obs::env_enabled());
}
