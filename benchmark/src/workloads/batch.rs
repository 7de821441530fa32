//! `batch_adaptive`: the paper's experiment, no wire. Every repetition builds
//! a cold dual store and runs the ordered 20-query workload in 5 batches,
//! two passes, with a fresh DOTIL tuning after each batch.
//!
//! The only workload where DOTIL's counterfactual measurements, partition
//! migration into the graph store and the relational store under a cold
//! design carry the time. TTI excludes the tuning epochs (the paper's
//! definition); `throughput_ops` includes them.

use crate::fixture;
use crate::layers::{self, OpRecord};
use crate::reference::RefGraph;
use crate::report::{Reps, RunOutput};
use crate::stats::{self, percentile, timed};
use crate::sut::{self, BatchRecord, Data, Query, Scheduler, Store, Temp, Tuner};
use crate::trace::Recorder;
use crate::Plan;
use std::sync::Arc;

/// Scheduler threads wanted; clamped to the host.
const POOL_THREADS: usize = 2;
/// Batches per pass (the paper's 5) and passes per repetition.
const BATCHES: usize = 5;
const PASSES: usize = 2;

/// What must be identical between two repetitions of one seed.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    rows: u64,
    work_units: u64,
    routes: [u64; 3],
    trail: Vec<sut::Tuning>,
    trainings: u64,
}

/// One repetition's result.
struct Rep {
    wall_ns: u64,
    records: Vec<BatchRecord>,
    fingerprint: Fingerprint,
    /// The store as the repetition left it.
    store: Arc<Store>,
}

impl Rep {
    fn online_ns(&self) -> u64 {
        self.records.iter().map(|r| r.wall_ns).sum()
    }

    fn errors(&self) -> u64 {
        self.records.iter().map(|r| r.errors).sum()
    }
}

fn fingerprint(records: &[BatchRecord], tuner: &Tuner) -> Fingerprint {
    let mut fp = Fingerprint {
        rows: 0,
        work_units: 0,
        routes: [0; 3],
        trail: records.iter().map(|r| r.tuning).collect(),
        trainings: tuner.trainings(),
    };
    for s in records.iter().flat_map(|r| &r.samples) {
        fp.rows += s.rows;
        fp.work_units += s.rel.units + s.graph.units;
        if let Some(i) = s.route.index() {
            fp.routes[i] += 1;
        }
    }
    fp
}

/// Cold store, then the runner: the measured unit of the plain run.
fn run_rep(data: &Data, sched: &Arc<Scheduler>, batches: &[Vec<Query>]) -> Rep {
    let store = sut::share(data.cold_store());
    let mut tuner = Tuner::new();
    let (wall_ns, records) = timed(|| sut::run_adaptive(&store, sched, &mut tuner, batches));
    let fingerprint = fingerprint(&records, &tuner);
    Rep {
        wall_ns,
        records,
        fingerprint,
        store,
    }
}

/// The runner's loop, step by step, with a span around each batch and each
/// tuning epoch. Returns the repetition and the epoch walls.
fn run_rep_traced(
    data: &Data,
    sched: &Arc<Scheduler>,
    batches: &[Vec<Query>],
    rec: &mut Recorder,
) -> (Rep, Vec<u64>) {
    let store = sut::share(data.cold_store());
    let mut tuner = Tuner::new();
    let mut epochs = Vec::with_capacity(batches.len());
    let (wall_ns, records) = rec.timed("exec.run", |rec| {
        sut::prepare_parallel(&store, sched);
        batches
            .iter()
            .enumerate()
            .map(|(i, batch)| {
                rec.set_op(i as u64);
                let mut record = rec.span("exec.execute_batch", |_| {
                    sut::execute_batch(&store, sched, batch)
                });
                let (ns, tuning) = rec.timed("dotil.tune_with", |_| {
                    sut::tune_epoch(&store, sched, &mut tuner, batch)
                });
                epochs.push(ns);
                record.tuning = tuning;
                record
            })
            .collect::<Vec<_>>()
    });
    let fingerprint = fingerprint(&records, &tuner);
    (
        Rep {
            wall_ns,
            records,
            fingerprint,
            store,
        },
        epochs,
    )
}

/// Check every distinct query of the workload on `store` against the
/// reference; returns the number of checks made.
fn verify(
    reference: &RefGraph,
    data: &Data,
    store: &Store,
    queries: &[Query],
    stage: &str,
    failures: &mut Vec<String>,
) -> u64 {
    let mut temp = Temp::default();
    let mut seen = std::collections::HashSet::new();
    let mut checks = 0;
    for q in queries {
        if !seen.insert(sut::query_text(q)) {
            continue;
        }
        let rows = fixture::process_checked(store, &mut temp, q, failures)
            .map(|p| p.sorted_rows())
            .unwrap_or_default();
        fixture::check_rows(reference, data, q, &[(stage, rows)], failures);
        checks += 1;
    }
    checks
}

pub fn run(plan: &Plan, out: &mut RunOutput) -> Result<(), String> {
    let threads = plan.clamp(POOL_THREADS);
    out.note("clients", 1);
    out.note("pool_threads", threads);
    let (data, times) = fixture::cold(&plan.sizes);
    times.report(&data, out);

    let queries = sut::workload_with_lookups(&data, plan.seed);
    let one_pass = sut::batches(&queries, BATCHES);
    let batches: Vec<Vec<Query>> = (0..PASSES).flat_map(|_| one_pass.iter().cloned()).collect();
    let ops_per_rep = (queries.len() * PASSES) as u64;
    let sched = sut::scheduler(threads);

    // Before timing: the cold design (every query relational) is correct.
    let mut failures = Vec::new();
    let reference = RefGraph::build(data.id_triples());
    let cold = sut::share(data.cold_store());
    out.attempted += verify(&reference, &data, &cold, &queries, "cold", &mut failures);
    drop(cold);

    // Warm-up repetition; its fingerprint is what every later one must equal.
    let warm = run_rep(&data, &sched, &batches);
    out.failed += warm.errors();
    let expected = warm.fingerprint.clone();
    drop(warm);

    let last = if plan.trace {
        traced(plan, &data, &sched, &batches, &expected, out)?
    } else {
        plain(plan, &data, &sched, &batches, &expected, ops_per_rep, out)
    };

    // After timing: the design DOTIL arrived at answers correctly too.
    out.attempted += verify(&reference, &data, &last, &queries, "tuned", &mut failures);
    fixture::report_failures(&failures, out);
    out.note(
        "fingerprint",
        format!(
            "rows={} work_units={} routes(rel/graph/dual)={}/{}/{} trainings={} migrated={} evicted={}",
            expected.rows,
            expected.work_units,
            expected.routes[0],
            expected.routes[1],
            expected.routes[2],
            expected.trainings,
            expected.trail.iter().map(|t| t.migrated).sum::<u64>(),
            expected.trail.iter().map(|t| t.evicted).sum::<u64>(),
        ),
    );
    Ok(())
}

fn plain(
    plan: &Plan,
    data: &Data,
    sched: &Arc<Scheduler>,
    batches: &[Vec<Query>],
    expected: &Fingerprint,
    ops_per_rep: u64,
    out: &mut RunOutput,
) -> Arc<Store> {
    let mut reps = Reps::default();
    let mut last = None;
    for _ in 0..plan.repetitions() {
        drop(last.take());
        let cpu0 = stats::process_cpu();
        let rep = run_rep(data, sched, batches);
        let cpu = stats::process_cpu() - cpu0;
        out.failed += rep.errors() + u64::from(rep.fingerprint != *expected);
        let mut latencies: Vec<u64> = rep
            .records
            .iter()
            .flat_map(|r| &r.samples)
            .map(|s| s.elapsed_ns)
            .collect();
        // TTI is the online share of the wall: tuning epochs are excluded.
        reps.push(
            ops_per_rep,
            rep.wall_ns,
            rep.online_ns(),
            cpu,
            &mut latencies,
        );
        last = Some(rep.store);
    }
    reps.report(out);
    last.expect("at least one repetition")
}

/// One runner repetition as the reference, one step-by-step repetition with
/// spans, then each query replayed on the final design.
fn traced(
    plan: &Plan,
    data: &Data,
    sched: &Arc<Scheduler>,
    batches: &[Vec<Query>],
    expected: &Fingerprint,
    out: &mut RunOutput,
) -> Result<Arc<Store>, String> {
    let reference = run_rep(data, sched, batches);
    out.failed += reference.errors() + u64::from(reference.fingerprint != *expected);
    let reference_ns = reference.wall_ns;
    drop(reference);

    let mut rec = Recorder::new(true);
    let (tasks0, vec0) = (sut::sched_submitted(sched), sut::vec_batches());
    let (rep, epochs) = run_rep_traced(data, sched, batches, &mut rec);
    let (tasks, vec_batches) = (
        sut::sched_submitted(sched) - tasks0,
        sut::vec_batches() - vec0,
    );
    // The step-by-step loop must do exactly what the runner does.
    out.failed += rep.errors() + u64::from(rep.fingerprint != *expected);
    let ops = rep.records.iter().map(|r| r.samples.len()).sum::<usize>() as f64;
    out.attempted += 2 * ops as u64;

    let mut batch_walls: Vec<u64> = rep.records.iter().map(|r| r.wall_ns).collect();
    out.set(
        "exec.batch_wall_ms",
        percentile(&mut batch_walls, 0.5) as f64 / 1e6,
    );
    let epoch_total: u64 = epochs.iter().sum();
    out.set(
        "dotil.tune_s",
        percentile(&mut epochs.clone(), 0.5) as f64 / 1e9,
    );
    out.set(
        "dotil.tune_share",
        epoch_total as f64 / rep.wall_ns.max(1) as f64,
    );
    let trail = &rep.fingerprint.trail;
    out.set("dotil.trainings", rep.fingerprint.trainings as f64);
    out.set(
        "dotil.migrated_partitions",
        trail.iter().map(|t| t.migrated).sum::<u64>() as f64,
    );
    out.set(
        "dotil.evicted_partitions",
        trail.iter().map(|t| t.evicted).sum::<u64>() as f64,
    );
    out.set(
        "dotil.triples_in",
        trail.iter().map(|t| t.triples_in).sum::<u64>() as f64,
    );
    out.set(
        "dotil.offline_work_units",
        trail.iter().map(|t| t.offline_work).sum::<u64>() as f64,
    );
    out.set("sched.tasks_per_op", tasks as f64 / ops);
    out.set("vec.batches_per_op", vec_batches as f64 / ops);
    out.set(
        "obs.trace_overhead_pct",
        (rep.wall_ns as f64 / reference_ns.max(1) as f64 - 1.0) * 100.0,
    );
    let samples: Vec<_> = rep
        .records
        .iter()
        .flat_map(|r| &r.samples)
        .map(|s| (s.elapsed_ns, *s))
        .collect();
    layers::report_samples(&samples, out);
    // The paper's currency next to wall time, over the whole adaptive run.
    let sim_ns: u64 = rep.records.iter().map(|r| r.sim_ns).sum();
    out.set(
        "core.sim_tti_ratio",
        sim_ns as f64 / rep.online_ns().max(1) as f64,
    );

    // What handing one task to the (now idle) pool and waiting for it costs.
    for _ in 0..200 {
        rec.span("sched.handoff", |_| sut::sched_handoff(sched));
    }
    // Step-by-step replay of one pass on the design the run ended with.
    let mut temp = Temp::default();
    let mut replays: Vec<OpRecord> = Vec::new();
    let pass: Vec<&Query> = batches.iter().take(BATCHES).flatten().collect();
    for (op, q) in pass.into_iter().enumerate() {
        rec.set_op(1_000 + op as u64);
        let text = sut::query_text(q);
        replays.push(rec.span("op", |rec| {
            sut::with_dual(&rep.store, |dual| {
                layers::replay_query(rec, dual, &mut temp, &text)
            })
        }));
    }
    layers::report_replays(&rec, &replays, out);
    layers::span_p50(&rec, "sched.handoff", "sched.handoff_us", out);
    layers::report_design(&sut::with_dual(&rep.store, sut::design), out);

    layers::write_trace(plan, &rec, out)?;
    Ok(rep.store)
}
