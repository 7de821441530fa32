//! The traced in-process replay of one query and the per-layer aggregation.
//!
//! Each layer is timed from outside, around its public entry point, as a
//! child span of the operation being replayed. Spans inside the program are
//! a later issue.

use crate::report::RunOutput;
use crate::stats::{ns_to_us, percentile};
use crate::sut::{self, Dual, OpSample, Query, Route, Temp};
use crate::trace::Recorder;
use crate::Plan;

/// One replayed operation.
#[derive(Copy, Clone, Debug)]
pub struct OpRecord {
    /// Latency of the operation itself (round trip, batch-time elapsed, or
    /// call wall), which the replay explains.
    pub op_ns: u64,
    /// `sparql.parse` span of the replay.
    pub parse_ns: u64,
    /// `core.process` span of the replay.
    pub process_ns: u64,
    /// Store re-run span and the work units it did (pure relational or pure
    /// graph routes only: a dual-route query has no single store call that
    /// public functions expose).
    pub store: Option<(u64, u64)>,
    pub sample: OpSample,
}

/// Replay `text` step by step as child spans of the open span: `sparql.parse`,
/// `sparql.compile`, `core.identify`, `core.process`, then the store alone
/// (`relstore.execute` / `graphstore.execute`) and `core.decode`.
pub fn replay_query(rec: &mut Recorder, dual: &Dual, temp: &mut Temp, text: &str) -> OpRecord {
    let (parse_ns, query): (u64, Query) = rec.timed("sparql.parse", |_| sut::parse(text));
    let encoded = rec.span("sparql.compile", |_| sut::compile(dual, &query));
    rec.span("core.identify", |_| sut::identify(&query));
    let (process_ns, out) = rec.timed("core.process", |_| {
        sut::process(dual, temp, &query).expect("replayed query runs")
    });
    let sample = out.sample();
    let store = encoded.as_ref().and_then(|enc| match sample.route {
        Route::Relational => {
            let (ns, work) = rec.timed("relstore.execute", |_| sut::rel_execute(dual, enc));
            Some((ns, work.units))
        }
        Route::Graph => {
            let (ns, work) = rec.timed("graphstore.execute", |_| sut::graph_execute(dual, enc));
            Some((ns, work.units))
        }
        _ => None,
    });
    rec.span("core.decode", |_| sut::decode(dual, &out));
    OpRecord {
        op_ns: process_ns,
        parse_ns,
        process_ns,
        store,
        sample,
    }
}

fn p50_us(mut ns: Vec<u64>) -> f64 {
    ns_to_us(percentile(&mut ns, 0.5))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// p50 of every span called `span`, as microseconds, into `metric`.
pub fn span_p50(rec: &Recorder, span: &str, metric: &'static str, out: &mut RunOutput) {
    out.set(metric, p50_us(rec.durations(span)));
}

/// Route mix, per-route latency and per-op work of executed queries, each
/// given as `(wall ns, sample)`.
pub fn report_samples(samples: &[(u64, OpSample)], out: &mut RunOutput) {
    let n = samples.len() as f64;
    for (route, time, share) in [
        (
            Route::Relational,
            "core.process_us.relational",
            "core.route_share.relational",
        ),
        (
            Route::Graph,
            "core.process_us.graph",
            "core.route_share.graph",
        ),
        (Route::Dual, "core.process_us.dual", "core.route_share.dual"),
    ] {
        let walls: Vec<u64> = samples
            .iter()
            .filter(|(_, s)| s.route == route)
            .map(|(ns, _)| *ns)
            .collect();
        out.set(share, ratio(walls.len() as f64, n));
        out.set(time, p50_us(walls));
    }
    let sum = |f: &dyn Fn(&(u64, OpSample)) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    out.set(
        "core.sim_tti_ratio",
        ratio(sum(&|s| s.1.sim_ns), sum(&|s| s.0)),
    );
    out.set(
        "relstore.work_units_per_op",
        ratio(sum(&|s| s.1.rel.units), n),
    );
    out.set(
        "relstore.rows_scanned_per_op",
        ratio(sum(&|s| s.1.rel.rows_scanned), n),
    );
    out.set(
        "relstore.index_probes_per_op",
        ratio(sum(&|s| s.1.rel.index_probes), n),
    );
    out.set(
        "graphstore.work_units_per_op",
        ratio(sum(&|s| s.1.graph.units), n),
    );
    out.note("query_samples", samples.len());
}

/// Per-step latencies and the stores' share, from step-by-step replays.
pub fn report_replays(rec: &Recorder, replays: &[OpRecord], out: &mut RunOutput) {
    span_p50(rec, "sparql.parse", "sparql.parse_us", out);
    span_p50(rec, "sparql.compile", "sparql.compile_us", out);
    span_p50(rec, "core.identify", "core.identify_us", out);
    span_p50(rec, "core.decode", "core.decode_us", out);
    span_p50(rec, "relstore.execute", "relstore.execute_us", out);
    span_p50(rec, "graphstore.execute", "graphstore.execute_us", out);
    let self_ns: Vec<u64> = replays
        .iter()
        .filter_map(|o| o.store.map(|(ns, _)| o.process_ns.saturating_sub(ns)))
        .collect();
    out.set("core.process_self_us", p50_us(self_ns));
    let store_of = |r: Route| -> (f64, f64) {
        replays
            .iter()
            .filter(|o| o.sample.route == r)
            .filter_map(|o| o.store)
            .fold((0.0, 0.0), |(ns, wu), (a, b)| {
                (ns + a as f64, wu + b as f64)
            })
    };
    let (rel_ns, rel_wu) = store_of(Route::Relational);
    let (graph_ns, graph_wu) = store_of(Route::Graph);
    out.set("relstore.ns_per_work_unit", ratio(rel_ns, rel_wu));
    out.set("graphstore.ns_per_work_unit", ratio(graph_ns, graph_wu));
    let op_ns: u64 = replays.iter().map(|o| o.op_ns).sum();
    out.set("stores.exec_share", ratio(rel_ns + graph_ns, op_ns as f64));
    out.note("replayed_ops", replays.len());
}

/// Residency metrics of the design the workload ran on.
pub fn report_design(design: &sut::Design, out: &mut RunOutput) {
    out.set("graphstore.resident_triples", design.used as f64);
    out.set(
        "graphstore.budget_used_share",
        ratio(design.used as f64, design.budget as f64),
    );
}

/// Write the run's spans to `<out-dir>/trace-<workload>.jsonl`.
pub fn write_trace(plan: &Plan, rec: &Recorder, out: &mut RunOutput) -> Result<(), String> {
    let path = plan
        .out_dir
        .join(format!("trace-{}.jsonl", plan.workload.name()));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note("trace_file", path.display());
    out.note("trace_spans", rec.spans().len());
    Ok(())
}
