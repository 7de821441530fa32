//! The experiments outside the variant grid: Table 1 (relational vs
//! graph store by data size), Table 5 (DOTIL parameter sweep), Table 6
//! and Figure 7 (the graph store under limited spare resources). Each
//! renders markdown and asserts its own invariants in-run.

use super::{Panel, Runs};
use crate::experiments::{run_reps, VariantKind, WorkloadKind};
use crate::setup::{build_workload, Order};
use crate::table::{micros, pct, secs, TablePrinter};
use kgdual_core::processor::process;
use kgdual_core::{DualStore, Route};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{ParallelRunner, SharedStore};
use kgdual_graphstore::GraphBackend;
use kgdual_model::Dataset;
use kgdual_relstore::exec::context::{GRAPH_NANOS_PER_WORK_UNIT, REL_NANOS_PER_WORK_UNIT};
use kgdual_relstore::{ExecContext, ExecStats};
use kgdual_sparql::{compile, parse, Compiled, Query};
use kgdual_workloads::{Workload, YagoGen};
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
/// the *entire* graph into each).
fn mirrored(dataset: Dataset) -> DualStore {
    let budget = dataset.len();
    let mut dual = DualStore::from_dataset(dataset, budget);
    let preds: Vec<_> = dual.rel().preds().collect();
    for p in preds {
        dual.migrate_partition(p)
            .expect("full mirror fits the budget");
    }
    dual
}

/// The shortest span one wall-clock reading of Table 1 covers: a single
/// execution takes 5–70 µs, too short to time against scheduler and
/// timer noise.
const MIN_READING: Duration = Duration::from_millis(1);

/// Best-of-`reps` wall clock per execution, plus the deterministic result
/// rows and work units of one execution. Each reading repeats `exec` until
/// [`MIN_READING`] has passed and divides by the executions it ran.
fn best_of(reps: usize, exec: &dyn Fn(&mut ExecContext) -> usize) -> (Duration, usize, u64) {
    let mut best = Duration::MAX;
    let (mut rows, mut work) = (0, 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut runs = 0;
        let elapsed = loop {
            let mut ctx = ExecContext::new();
            rows = exec(&mut ctx);
            work = ctx.stats.work_units();
            runs += 1;
            let elapsed = t0.elapsed();
            if elapsed >= MIN_READING {
                break elapsed;
            }
        };
        best = best.min(elapsed / runs);
    }
    (best, rows, work)
}

/// **Table 1.** Latency of the advisor query on the relational and the
/// graph store, varying the data size (paper: 500k → 5M triples in 10
/// steps, scaled here by `--scale`). Both engines must return the same
/// rows.
pub(super) fn table1(runs: &mut Runs) -> String {
    let args = &runs.args;
    let query = parse(ADVISOR_QUERY).expect("the advisor query parses");
    let mut table = TablePrinter::new(vec![
        "#triples",
        "wall rel (µs)",
        "wall graph (µs)",
        "wall rel/graph",
        "sim-rel (µs)",
        "sim-graph (µs)",
        "sim-ratio",
        "rows",
    ]);
    for step in 1..=10 {
        let target = ((step * 500_000) as f64 * args.scale) as usize;
        let dataset = YagoGen::with_target_triples(target, args.seed).generate();
        let triples = dataset.len();
        let dual = mirrored(dataset);
        let Ok(Compiled::Query(eq)) = compile(&query, dual.dict()) else {
            panic!("the advisor query must compile at {triples} triples");
        };

        let (rel_t, rel_rows, rel_work) = best_of(args.reps, &|ctx| {
            dual.rel().execute(&eq, ctx).expect("query runs").len()
        });
        let (graph_t, graph_rows, graph_work) = best_of(args.reps, &|ctx| {
            dual.graph().execute(&eq, ctx).expect("query runs").len()
        });
        assert_eq!(rel_rows, graph_rows, "engines must agree");

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
            micros(rel_t),
            micros(graph_t),
            ratio(rel_t, graph_t, 1e-9),
            micros(sim_rel),
            micros(sim_graph),
            ratio(sim_rel, sim_graph, 1e-12),
            rel_rows.to_string(),
        ]);
    }
    format!(
        "Paper: MySQL vs Neo4j, 500k..5M triples; here scaled by {}. Wall \
         columns are µs per execution, the best of {} readings that each \
         loop the query for at least 1 ms.\n\n{}",
        args.scale,
        args.reps,
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
    let runner = VariantKind::RdbGdbDotil.runner(&runs.pool);
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
            let store = SharedStore::new(DualStore::from_dataset(dataset.clone(), budget));
            let mut dotil = Dotil::with_config(cfg);
            let (reports, wall) = run_reps(&runner, &store, &mut dotil, &batches, args.reps);
            let q = dotil.q_matrix_sum();
            table.row(vec![
                name.to_owned(),
                format!("{value}"),
                secs(ParallelRunner::total_sim_tti(&reports)),
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
fn resource_store(runs: &mut Runs) -> (DualStore, [Query; 2]) {
    let dataset = runs.inputs(YAGO).0.clone();
    let budget = dataset.len();
    let mut dual = DualStore::from_dataset(dataset, budget);
    for pred in ["y:wasBornIn", "y:hasAcademicAdvisor", "y:isMarriedTo"] {
        let p = dual.dict().pred_id(pred).expect("predicate exists");
        dual.migrate_partition(p).expect("partitions fit");
    }
    let queries = [ADVISOR_QUERY, SPOUSE_QUERY].map(|q| parse(q).expect("the query parses"));
    (dual, queries)
}

/// Each query's graph-store work and result rows, run once in order.
/// Every query must take the graph route.
fn graph_runs(dual: &DualStore, queries: &[Query]) -> Vec<(ExecStats, u64)> {
    let run = |q: &Query| {
        let out = process(dual, q).expect("query runs");
        assert!(
            matches!(out.route, Route::Graph),
            "{q} must run on the graph store"
        );
        (out.graph_stats, out.results.len() as u64)
    };
    queries.iter().map(run).collect()
}

/// Table 6's settings: the TSV variant, then the spare fraction of IO
/// and of CPU.
const SPARE: [(&str, f64, f64); 5] = [
    ("unthrottled", 1.0, 1.0),
    ("IO-40%", 0.4, 1.0),
    ("IO-20%", 0.2, 1.0),
    ("CPU-40%", 1.0, 0.4),
    ("CPU-20%", 1.0, 0.2),
];

/// Work units `stats` takes when IO and CPU have spare fractions `io`
/// and `cpu`. A resource with spare fraction `f` serves its units at `f`
/// of its bandwidth, so each costs `1/f`: work `W` with `W_k` units on
/// throttled resource `k` takes `W + W_k · (1/f − 1)`.
fn throttled_units(stats: &ExecStats, io: f64, cpu: f64) -> f64 {
    stats.io_units() as f64 / io + stats.cpu_units() as f64 / cpu
}

/// The slowdown [`throttled_units`] implies: `W_k / W · (1/f − 1)` for
/// one throttled resource `k`.
fn slowdown(stats: &ExecStats, io: f64, cpu: f64) -> f64 {
    throttled_units(stats, io, cpu) / stats.work_units() as f64 - 1.0
}

/// Simulated graph-store time of `units` work units.
fn graph_sim(units: f64) -> Duration {
    Duration::from_nanos((units * GRAPH_NANOS_PER_WORK_UNIT) as u64)
}

/// Table 6's batch, both queries once: their summed graph-store work and
/// result rows.
fn table6_batch(runs: &mut Runs) -> (ExecStats, u64) {
    let (dual, queries) = resource_store(runs);
    let mut work = ExecStats::default();
    let mut rows = 0;
    for (stats, n) in graph_runs(&dual, &queries) {
        work.merge(&stats);
        rows += n;
    }
    (work, rows)
}

/// Table 6's rows of `deterministic.tsv`, one per setting: variant,
/// total work, throttled simulated time and result rows.
pub(super) fn table6_tsv(runs: &mut Runs) -> Vec<(&'static str, u64, Duration, u64)> {
    let (work, rows) = table6_batch(runs);
    SPARE
        .iter()
        .map(|&(variant, io, cpu)| {
            let sim = graph_sim(throttled_units(&work, io, cpu));
            (variant, work.work_units(), sim, rows)
        })
        .collect()
}

/// **Table 6.** Slowdown of the graph store with 40%/20% spare IO and
/// 40%/20% spare CPU, relative to the unthrottled run of the same
/// complex-query batch, priced from the batch's IO and CPU units.
pub(super) fn table6(runs: &mut Runs) -> String {
    let (work, _) = table6_batch(runs);
    let mut table = TablePrinter::new(vec!["spare resource", "sim batch (µs)", "slowdown"]);
    for (label, io, cpu) in SPARE {
        table.row(vec![
            label.to_owned(),
            micros(graph_sim(throttled_units(&work, io, cpu))),
            pct(slowdown(&work, io, cpu)),
        ]);
    }
    format!(
        "The advisor and spouse queries, once each on the graph store: {} work \
         units, {} IO (2 per scanned row) and {} CPU (probes, hashed, joined and \
         output rows), at {GRAPH_NANOS_PER_WORK_UNIT} ns per unit. A resource \
         with spare fraction f serves its units at f of its bandwidth, so a \
         batch of W units, W_k of them on the throttled resource k, takes \
         W + W_k·(1/f − 1) units: a slowdown of W_k/W·(1/f − 1).\n\n{}",
        work.work_units(),
        work.io_units(),
        work.cpu_units(),
        table.render()
    )
}

/// **Figure 7.** Cumulative IO/CPU units the graph store has consumed
/// after each query of a stream of `max(reps, 5)` passes over both
/// queries, on a work-unit clock at 40% spare IO: each query advances it
/// by its [`throttled_units`].
pub(super) fn fig7(runs: &mut Runs) -> String {
    let passes = runs.args.reps.max(5);
    let (dual, queries) = resource_store(runs);
    let mut table = TablePrinter::new(vec!["queries run", "sim t (µs)", "IO units", "CPU units"]);
    let (mut clock, mut total, mut n) = (0.0, ExecStats::default(), 0);
    for _ in 0..passes {
        for (stats, _) in graph_runs(&dual, &queries) {
            clock += throttled_units(&stats, 0.4, 1.0);
            total.merge(&stats);
            n += 1;
            table.row(vec![
                n.to_string(),
                micros(graph_sim(clock)),
                total.io_units().to_string(),
                total.cpu_units().to_string(),
            ]);
        }
    }
    format!(
        "{}\nTotal: {} IO units, {} CPU units over {} µs simulated.\n",
        table.render(),
        total.io_units(),
        total.cpu_units(),
        micros(graph_sim(clock))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_prices_the_throttled_resource() {
        let mixed = ExecStats {
            rows_scanned: 10,
            index_probes: 4,
            rows_joined: 7,
            ..Default::default()
        };
        assert_eq!(slowdown(&mixed, 1.0, 1.0), 0.0, "f = 1 is unthrottled");
        let io_only = ExecStats {
            rows_scanned: 100,
            ..Default::default()
        };
        assert!((slowdown(&io_only, 0.4, 1.0) - 1.5).abs() < 1e-12, "+150%");
        assert_eq!(slowdown(&io_only, 1.0, 0.2), 0.0, "no CPU work to slow");
        // Only the throttled share slows: 20 of 39 units are IO.
        let s = slowdown(&mixed, 0.2, 1.0);
        assert!((s - 20.0 / 39.0 * 4.0).abs() < 1e-12, "{s}");
    }
}
