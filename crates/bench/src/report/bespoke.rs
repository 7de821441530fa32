//! The experiments outside the variant grid: Table 1 (relational vs
//! graph store by data size), Table 5 (DOTIL parameter sweep), Table 6
//! and Figure 7 (the graph store under limited spare resources). Each
//! renders markdown and asserts its own invariants in-run.

use super::{Panel, Runs};
use crate::experiments::{run_reps, SharedDotil, WorkloadKind};
use crate::setup::{build_workload, Order};
use crate::table::{pct, secs, TablePrinter};
use kgdual_core::batch::TuningSchedule;
use kgdual_core::processor::process;
use kgdual_core::{DualStore, Route, StoreVariant, WorkloadRunner};
use kgdual_dotil::DotilConfig;
use kgdual_graphstore::GraphBackend;
use kgdual_model::Dataset;
use kgdual_relstore::exec::context::{GRAPH_NANOS_PER_WORK_UNIT, REL_NANOS_PER_WORK_UNIT};
use kgdual_relstore::{ExecContext, GovernorSample, ResourceGovernor};
use kgdual_sparql::{compile, parse, Compiled, Query};
use kgdual_workloads::{Workload, YagoGen};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The ordered YAGO panel, whose dataset Tables 5 and 6 and Figure 7 use.
const YAGO: Panel = Panel(WorkloadKind::Yago, Order::Ordered);
/// The paper's advisor-born-in-same-city query (Table 1).
const ADVISOR_QUERY: &str =
    "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }";
/// Its spouse variant; Table 6 and Figure 7 run both.
const SPOUSE_QUERY: &str =
    "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:isMarriedTo ?m . ?m y:wasBornIn ?c }";

/// A dual store holding every partition in both stores (Table 1 loads
/// the *entire* graph into each), with `shards` relational shards.
fn mirrored(dataset: Dataset, shards: usize) -> DualStore {
    let budget = dataset.len();
    let mut dual = DualStore::from_dataset_sharded(dataset, budget, shards);
    let preds: Vec<_> = dual.rel().preds().collect();
    for p in preds {
        dual.migrate_partition(p)
            .expect("full mirror fits the budget");
    }
    dual
}

/// Best-of-`reps` wall clock of one execution, plus its deterministic
/// result rows and work units.
fn best_of(reps: usize, exec: &dyn Fn(&mut ExecContext) -> usize) -> (Duration, usize, u64) {
    let mut best = Duration::MAX;
    let (mut rows, mut work) = (0, 0);
    for _ in 0..reps {
        let mut ctx = ExecContext::new();
        let t0 = Instant::now();
        rows = exec(&mut ctx);
        best = best.min(t0.elapsed());
        work = ctx.stats.work_units();
    }
    (best, rows, work)
}

/// **Table 1.** Latency of the advisor query on the relational and the
/// graph store, varying the data size (paper: 500k → 5M triples in 10
/// steps, scaled here by `--scale`). The relational side runs on both
/// layouts — monolithic and predicate-sharded (`--shards` when > 1,
/// else 4) — whose rows and work units must be equal: sharding is
/// invisible in every deterministic metric.
pub(super) fn table1(runs: &mut Runs) -> String {
    let args = &runs.args;
    let shards = if args.shards > 1 { args.shards } else { 4 };
    let query = parse(ADVISOR_QUERY).expect("the advisor query parses");
    let mut table = TablePrinter::new(vec![
        "#triples",
        "wall rel (s)",
        "wall rel-shard (s)",
        "wall graph (s)",
        "wall rel/graph",
        "sim-rel (s)",
        "sim-graph (s)",
        "sim-ratio",
        "rows",
    ]);
    for step in 1..=10 {
        let target = ((step * 500_000) as f64 * args.scale) as usize;
        let dataset = YagoGen::with_target_triples(target, args.seed).generate();
        let triples = dataset.len();
        let dual = mirrored(dataset.clone(), 1);
        let sharded = mirrored(dataset, shards);
        let Ok(Compiled::Query(eq)) = compile(&query, dual.dict()) else {
            panic!("the advisor query must compile at {triples} triples");
        };

        let (rel_t, rel_rows, rel_work) = best_of(args.reps, &|ctx| {
            dual.rel().execute(&eq, ctx).expect("query runs").len()
        });
        let (shard_t, shard_rows, shard_work) = best_of(args.reps, &|ctx| {
            sharded.rel().execute(&eq, ctx).expect("query runs").len()
        });
        let (graph_t, graph_rows, graph_work) = best_of(args.reps, &|ctx| {
            dual.graph().execute(&eq, ctx).expect("query runs").len()
        });
        assert_eq!(rel_rows, graph_rows, "engines must agree");
        assert_eq!(rel_rows, shard_rows, "shard layouts must agree on rows");
        assert_eq!(
            rel_work, shard_work,
            "shard layouts must charge identical relational work"
        );

        // Calibrated simulated latencies: wall clock on two embedded
        // engines compresses the disk/IPC gap Table 1 measured.
        let sim_rel = Duration::from_nanos((rel_work as f64 * REL_NANOS_PER_WORK_UNIT) as u64);
        let sim_graph =
            Duration::from_nanos((graph_work as f64 * GRAPH_NANOS_PER_WORK_UNIT) as u64);
        let ratio = |a: Duration, b: Duration, floor: f64| {
            format!("{:.1}x", a.as_secs_f64() / b.as_secs_f64().max(floor))
        };
        table.row(vec![
            triples.to_string(),
            secs(rel_t),
            secs(shard_t),
            secs(graph_t),
            ratio(rel_t, graph_t, 1e-9),
            secs(sim_rel),
            secs(sim_graph),
            ratio(sim_rel, sim_graph, 1e-12),
            rel_rows.to_string(),
        ]);
    }
    format!(
        "Paper: MySQL vs Neo4j, 500k..5M triples; here scaled by {}, the \
         relational side monolithic and predicate-sharded {shards} ways.\n\n{}",
        args.scale,
        table.render()
    )
}

/// Table 5's sweeps: each DOTIL parameter's values, the others at their
/// Table 4 defaults.
const SWEEPS: [(&str, &[f64]); 5] = [
    ("rBG", &[0.20, 0.25, 0.30, 0.35, 0.40]),
    ("prob", &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
    ("alpha", &[0.3, 0.4, 0.5, 0.6, 0.7]),
    ("gamma", &[0.5, 0.6, 0.7, 0.8, 0.9]),
    ("lambda", &[3.0, 3.5, 4.0, 4.5, 5.0]),
];

/// **Table 5.** DOTIL's parameters swept on half of the random YAGO
/// workload: TTI and the summed Q-matrix, in the paper's `[Q00, Q01,
/// Q10, Q11]` order (Q00 and Q11 stay 0 by construction, as in the
/// paper).
pub(super) fn table5(runs: &mut Runs) -> String {
    let args = runs.args.clone();
    let queries = Order::Random.queries(&build_workload(WorkloadKind::Yago, &args), args.seed);
    let batches = Workload::batches(&queries[..queries.len() / 2], 5);
    let (dataset, _) = runs.inputs(YAGO);

    let mut table = TablePrinter::new(vec![
        "parameter",
        "value",
        "sim TTI (s)",
        "wall TTI (s)",
        "Q-matrix [Q00,Q01,Q10,Q11]",
    ]);
    for (name, values) in SWEEPS {
        for &value in values {
            let mut cfg = DotilConfig {
                seed: args.seed,
                ..DotilConfig::paper_defaults()
            };
            let mut r_bg = 0.25;
            match name {
                "rBG" => r_bg = value,
                "prob" => cfg.prob = value,
                "alpha" => cfg.alpha = value,
                "gamma" => cfg.gamma = value,
                _ => cfg.lambda = value,
            }
            let budget = (dataset.len() as f64 * r_bg) as usize;
            let shared = SharedDotil::new(cfg);
            let mut variant = StoreVariant::rdb_gdb(
                DualStore::from_dataset_sharded(dataset.clone(), budget, args.shards),
                Box::new(shared.clone()),
            );
            let (reports, wall) = run_reps(
                &mut variant,
                TuningSchedule::AfterEachBatch,
                &batches,
                args.reps,
            );
            let q = shared.q_matrix_sum();
            table.row(vec![
                name.to_owned(),
                format!("{value}"),
                secs(WorkloadRunner::total_sim_tti(&reports)),
                format!("{wall:.4}"),
                format!("[{:.1}, {:.4}, {:.4}, {:.1}]", q[0], q[1], q[2], q[3]),
            ]);
        }
    }
    table.render()
}

/// A YAGO dual store whose graph budget holds every triple, with the
/// three partitions both resource experiments traverse resident, and the
/// two queries they run.
fn governed_store(runs: &mut Runs) -> (DualStore, [Query; 2]) {
    let shards = runs.args.shards;
    let dataset = runs.inputs(YAGO).0.clone();
    let budget = dataset.len();
    let mut dual = DualStore::from_dataset_sharded(dataset, budget, shards);
    for pred in ["y:wasBornIn", "y:hasAcademicAdvisor", "y:isMarriedTo"] {
        let p = dual.dict().pred_id(pred).expect("predicate exists");
        dual.migrate_partition(p).expect("partitions fit");
    }
    let queries = [ADVISOR_QUERY, SPOUSE_QUERY].map(|q| parse(q).expect("the query parses"));
    (dual, queries)
}

/// **Table 6.** Slowdown of the graph store with 40%/20% spare IO and
/// 40%/20% spare CPU, relative to an unthrottled run of the same
/// complex-query batch. Every query must take the graph route.
pub(super) fn table6(runs: &mut Runs) -> String {
    let reps = runs.args.reps.max(2);
    let (mut dual, queries) = governed_store(runs);
    let run_batch = |dual: &DualStore| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            for q in &queries {
                let out = process(dual, q).expect("query runs");
                assert!(
                    matches!(out.route, Route::Graph),
                    "{q} must run on the graph store"
                );
            }
            best = best.min(t0.elapsed());
        }
        best
    };

    dual.set_governor(ResourceGovernor::unlimited());
    let baseline = run_batch(&dual);
    let mut table = TablePrinter::new(vec!["spare resource", "wall batch (s)", "wall slowdown"]);
    for (label, io, cpu) in [
        ("IO 40%", 0.4, 1.0),
        ("IO 20%", 0.2, 1.0),
        ("CPU 40%", 1.0, 0.4),
        ("CPU 20%", 1.0, 0.2),
    ] {
        dual.set_governor(ResourceGovernor::with_spare(io, cpu));
        let t = run_batch(&dual);
        table.row(vec![
            label.to_owned(),
            secs(t),
            pct((t.as_secs_f64() - baseline.as_secs_f64()) / baseline.as_secs_f64()),
        ]);
    }
    format!(
        "Unthrottled baseline: {} s wall.\n\n{}",
        secs(baseline),
        table.render()
    )
}

/// **Figure 7.** IO/CPU units the graph store consumes over time while
/// it processes a query stream with 40% spare IO, sampled from the
/// shared resource governor every 20 ms on a background thread.
pub(super) fn fig7(runs: &mut Runs) -> String {
    let reps = runs.args.reps.max(5);
    let (mut dual, queries) = governed_store(runs);
    dual.set_governor(ResourceGovernor::with_spare(0.4, 1.0));
    let governor = dual.governor();

    let stop = AtomicBool::new(false);
    let samples: Vec<GovernorSample> = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut out = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                out.push(governor.sample());
                std::thread::sleep(Duration::from_millis(20));
            }
            out.push(governor.sample());
            out
        });
        for _ in 0..reps {
            for q in &queries {
                process(&dual, q).expect("query runs");
            }
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler thread")
    });

    let mut table = TablePrinter::new(vec![
        "wall t (s)",
        "IO units/interval",
        "CPU units/interval",
    ]);
    for pair in samples.windows(2) {
        let (p, s) = (pair[0], pair[1]);
        table.row(vec![
            format!("{:.3}", s.at_secs),
            (s.io_units - p.io_units).to_string(),
            (s.cpu_units - p.cpu_units).to_string(),
        ]);
    }
    let (first, last) = (samples[0], samples[samples.len() - 1]);
    format!(
        "{}\nTotal: {} IO units, {} CPU units over {:.3} s wall.\n",
        table.render(),
        last.io_units - first.io_units,
        last.cpu_units - first.cpu_units,
        last.at_secs - first.at_secs
    )
}
