//! **Table 1** — query latency of the relational vs the native graph store
//! for the paper's advisor-born-in-same-city query, varying the number of
//! triples (paper: 500k → 5M in 10 steps; here scaled by `--scale`).
//!
//! Expected shape: relational latency grows steeply with data size
//! (scan + hash join), graph latency grows slowly (traversal bounded by
//! candidate edges), with a roughly constant 10–25× gap — matching the
//! paper's MySQL/Neo4j contrast.
//!
//! The relational side is measured on both of its layouts: the
//! monolithic store and the predicate-sharded store (`rel-shard(s)`,
//! shard count from `--shards` when > 1, else 4 — a 1-shard column would
//! be the same layout as `relational(s)` and measure nothing). Their
//! rows and work units are asserted equal in-binary — sharding is a
//! physical layout choice, invisible in every deterministic metric.

use kgdual_bench::table::secs;
use kgdual_bench::{BenchArgs, TablePrinter};
use kgdual_core::DualStore;
use kgdual_graphstore::GraphBackend;
use kgdual_relstore::ExecContext;
use kgdual_sparql::{compile, parse, Compiled, EncodedQuery};
use kgdual_workloads::YagoGen;
use std::time::{Duration, Instant};

const QUERY: &str =
    "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }";

/// Best-of-`reps` wall clock plus the deterministic rows/work pair.
fn measure(reps: usize, f: &dyn Fn() -> (u64, u64)) -> (Duration, u64, u64) {
    let mut best = Duration::MAX;
    let mut rows = 0;
    let mut work = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (r, w) = f();
        rows = r;
        work = w;
        best = best.min(t0.elapsed());
    }
    (best, rows, work)
}

/// A fully mirrored dual store (Table 1 loads the *entire* graph into
/// both stores), with `shards` relational shards.
fn mirrored(dataset: kgdual_model::Dataset, shards: usize) -> DualStore {
    let budget = dataset.len();
    let mut dual = DualStore::from_dataset_sharded(dataset, budget, shards);
    let preds: Vec<_> = dual.rel().preds().collect();
    for p in preds {
        dual.migrate_partition(p)
            .expect("full mirror fits the budget");
    }
    dual
}

fn main() {
    let args = BenchArgs::parse();
    kgdual_bench::init_obs(&args);
    // Paper sweep: 500k..5M; scaled by --scale (default 0.1 here: 50k..500k).
    let scale = if args.scale == 0.01 { 0.1 } else { args.scale };
    let sizes: Vec<usize> = (1..=10)
        .map(|i| ((i * 500_000) as f64 * scale) as usize)
        .collect();
    // The sharded-relational column's shard count: --shards when > 1,
    // else a representative 4-way split (1 would duplicate the
    // monolithic column).
    let shards = if args.shards > 1 { args.shards } else { 4 };

    println!("Table 1: latency (s) of the advisor-same-city query by store and data size");
    println!("(paper: MySQL vs Neo4j, 500k..5M triples; here scaled by {scale};");
    println!(" relational side monolithic and predicate-sharded {shards} ways)\n");

    let mut table = TablePrinter::new(vec![
        "#triples",
        "relational(s)",
        "rel-shard(s)",
        "graph(s)",
        "rel/graph",
        "sim-rel(s)",
        "sim-graph(s)",
        "sim-ratio",
        "rows",
    ]);

    for &target in &sizes {
        let dataset = YagoGen::with_target_triples(target, args.seed).generate();
        let actual = dataset.len();
        let dual = mirrored(dataset.clone(), 1);
        let sharded = mirrored(dataset, shards);

        let query = parse(QUERY).unwrap();
        let compiled = compile(&query, dual.dict()).unwrap();
        let Compiled::Query(eq) = &compiled else {
            panic!("query must compile");
        };
        let eq: &EncodedQuery = eq;

        let (rel_t, rel_rows, rel_work) = measure(args.reps, &|| {
            let mut ctx = ExecContext::new();
            let rows = dual.rel().execute(eq, &mut ctx).unwrap().len() as u64;
            (rows, ctx.stats.work_units())
        });
        let (shard_t, shard_rows, shard_work) = measure(args.reps, &|| {
            let mut ctx = ExecContext::new();
            let rows = sharded.rel().execute(eq, &mut ctx).unwrap().len() as u64;
            (rows, ctx.stats.work_units())
        });
        let (graph_t, graph_rows, graph_work) = measure(args.reps, &|| {
            let mut ctx = ExecContext::new();
            let rows = dual.graph().execute(eq, &mut ctx).unwrap().len() as u64;
            (rows, ctx.stats.work_units())
        });
        assert_eq!(rel_rows, graph_rows, "engines must agree");
        assert_eq!(rel_rows, shard_rows, "shard layouts must agree on rows");
        assert_eq!(
            rel_work, shard_work,
            "shard layouts must charge identical relational work"
        );

        // Calibrated simulated latencies (see DESIGN.md: wall-clock on two
        // embedded engines compresses the disk/IPC gap Table 1 measured).
        use kgdual_relstore::exec::context::{GRAPH_NANOS_PER_WORK_UNIT, REL_NANOS_PER_WORK_UNIT};
        let sim_rel = Duration::from_nanos((rel_work as f64 * REL_NANOS_PER_WORK_UNIT) as u64);
        let sim_graph =
            Duration::from_nanos((graph_work as f64 * GRAPH_NANOS_PER_WORK_UNIT) as u64);

        table.row(vec![
            actual.to_string(),
            secs(rel_t),
            secs(shard_t),
            secs(graph_t),
            format!(
                "{:.1}x",
                rel_t.as_secs_f64() / graph_t.as_secs_f64().max(1e-9)
            ),
            secs(sim_rel),
            secs(sim_graph),
            format!(
                "{:.1}x",
                sim_rel.as_secs_f64() / sim_graph.as_secs_f64().max(1e-12)
            ),
            rel_rows.to_string(),
        ]);
    }
    table.print();
    kgdual_bench::write_obs_profile(&args);
}
