//! `update_mixed`: reads beside writes on a tuned store, in process, one
//! thread. 80 % reads (bound-subject lookups over four predicates, two of
//! which are written, plus 5 % one graph-route complex query) and 20 % writes
//! (insert, then delete after a fixed lag, so the store's size is steady).
//! The written predicates are graph-resident, so each write lands in both
//! stores.
//!
//! Uses the stores the other way round from the read-only workloads: a
//! read-side gain bought with write-side cost, or an index that writes keep
//! invalidating, shows here. Single-threaded so the op sequence, and with it
//! every count, repeats exactly.

use crate::fixture::{self, Tuned};
use crate::layers::{self, OpRecord};
use crate::ops::{self, UpdateOp, UpdateShape};
use crate::reference::RefGraph;
use crate::report::{Reps, RunOutput};
use crate::stats::{self, ns_to_us, percentile, timed};
use crate::sut::{self, IdTriple, LayerStores, OpSample, Query, Route, Temp};
use crate::trace::Recorder;
use crate::Plan;
use std::collections::HashMap;

/// Read-only predicates looked up beside the two written ones.
const READ_ONLY_PREDS: [&str; 2] = ["y:livesIn", "y:isCitizenOf"];
/// Objects a written triple may point at.
const OBJECTS: usize = 5;

/// The workload's prepared queries and what is known about them.
struct Prepared {
    /// Looked-up predicates: the two written ones first.
    read_preds: Vec<String>,
    written: [u32; 2],
    /// IRI prefix of the objects written under each written predicate,
    /// chosen outside the predicate's natural range so an inserted triple
    /// never coincides with a generated one.
    object_class: [&'static str; 2],
    subjects: usize,
    /// `read_queries[pred * subjects + subject]`.
    read_queries: Vec<Query>,
    base_rows: Vec<u64>,
    complex: Query,
}

impl Prepared {
    fn subject_iri(subject: usize) -> String {
        format!("y:Person{subject}")
    }

    fn read_text(&self, pred: usize, subject: usize) -> String {
        format!(
            "SELECT ?o WHERE {{ {} {} ?o }}",
            Self::subject_iri(subject),
            self.read_preds[pred]
        )
    }

    fn object_iri(&self, pred: usize, object: usize) -> String {
        format!("{}{object}", self.object_class[pred])
    }
}

/// Pick predicates and the complex query from the tuned design, and check
/// every read query against the reference before anything is written.
fn prepare(plan: &Plan, fx: &Tuned, failures: &mut Vec<String>) -> Result<(Prepared, u64), String> {
    // Written: the two largest graph-resident partitions.
    let mut resident = fx.design.resident.clone();
    resident.sort_by_key(|&(pred, size)| (std::cmp::Reverse(size), pred));
    if resident.len() < 2 {
        return Err(format!(
            "tuned design has {} resident partitions",
            resident.len()
        ));
    }
    let written = [resident[0].0, resident[1].0];
    let headroom = fx.design.budget.saturating_sub(fx.design.used);
    if headroom <= plan.sizes.update_lag {
        return Err(format!(
            "graph budget headroom {headroom} cannot hold {} live inserts",
            plan.sizes.update_lag
        ));
    }
    let mut read_preds: Vec<String> = written.iter().map(|&p| fx.data.pred_iri(p)).collect();
    read_preds.extend(READ_ONLY_PREDS.iter().map(|p| p.to_string()));
    let object_class = [0, 1].map(|i| {
        if read_preds[i] == "y:participatedIn" {
            "y:Uni"
        } else {
            "y:Event"
        }
    });
    let subjects = plan.sizes.point_subjects;
    let mut prepared = Prepared {
        read_preds,
        written,
        object_class,
        subjects,
        read_queries: Vec::new(),
        base_rows: Vec::new(),
        complex: fx.data.queries()[0].clone(),
    };

    let reference = RefGraph::build(fx.data.id_triples());
    let mut temp = Temp::default();
    let mut checks = 0;
    for pred in 0..prepared.read_preds.len() {
        for subject in 0..subjects {
            let q = sut::parse(&prepared.read_text(pred, subject));
            let rows = fixture::process_checked(&fx.store, &mut temp, &q, failures)
                .map(|p| p.sorted_rows())
                .unwrap_or_default();
            let expected = fixture::check_rows(
                &reference,
                &fx.data,
                &q,
                &[("process_shared", rows)],
                failures,
            );
            prepared.base_rows.push(expected as u64);
            prepared.read_queries.push(q);
            checks += 1;
        }
    }

    // The complex read: the cheapest graph-route query, preferring one over
    // a written predicate so it reads what the writes change.
    let mut best: Option<(bool, u64, &Query)> = None;
    for q in fx.data.queries() {
        let Some(p) = fixture::process_checked(&fx.store, &mut temp, q, failures) else {
            continue;
        };
        let s = p.sample();
        if s.route != Route::Graph {
            continue;
        }
        let text = sut::query_text(q);
        let touches = prepared.read_preds[..2]
            .iter()
            .any(|p| text.contains(p.as_str()));
        let key = (!touches, s.graph.units);
        if best.is_none_or(|(t, w, _)| key < (t, w)) {
            best = Some((key.0, key.1, q));
            fixture::check_rows(
                &reference,
                &fx.data,
                q,
                &[("process_shared", p.sorted_rows())],
                failures,
            );
            checks += 1;
        }
    }
    prepared.complex = best
        .ok_or("no graph-route query on the tuned store")?
        .2
        .clone();
    Ok((prepared, checks))
}

/// The benchmark's own model of the store's written part.
#[derive(Default)]
struct Model {
    /// Encoded triple of the stream's nth insert.
    inserted: Vec<IdTriple>,
    /// `(read pred, subject)` → live inserted triples a lookup must return.
    live: HashMap<(usize, usize), u64>,
    /// nth inserts currently live / already deleted.
    live_nth: Vec<usize>,
    deleted_nth: Vec<usize>,
    /// A write hit this read predicate since it was last read.
    dirty: [bool; 4],
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Kind {
    /// First read of a predicate after a write to it: pays the re-sort of
    /// the partition's invalidated indexes.
    ReadAfterWrite,
    ReadSteady,
    Complex,
    Write,
}

/// How one operation went.
struct OpResult {
    /// Wall of the call into the store.
    ns: u64,
    ok: bool,
    kind: Kind,
    /// Set for reads that ran.
    sample: Option<OpSample>,
}

/// Runs the stream against the store, keeping the model in step.
struct Executor<'a> {
    prepared: &'a Prepared,
    fx: &'a Tuned,
    /// `(pred, subject, object)` of the stream's nth insert.
    inserts: Vec<(usize, usize, usize)>,
    temp: Temp,
    model: Model,
    /// Traced runs: each store alone, mirroring every write, so a write's
    /// cost can be split by layer.
    layer: Option<LayerStores>,
}

impl Executor<'_> {
    fn read(
        &mut self,
        span: &'static str,
        q: &Query,
        rec: &mut Recorder,
    ) -> (u64, Option<OpSample>) {
        let (store, temp) = (&self.fx.store, &mut self.temp);
        let (ns, out) = rec.timed(span, |_| {
            sut::with_dual(store, |dual| sut::process(dual, temp, q))
        });
        (ns, out.ok().map(|p| p.sample()))
    }

    /// The no-op reconfiguration and the write on each store alone.
    fn mirror_write(&mut self, triple: IdTriple, insert: bool, rec: &mut Recorder) {
        let Some(layer) = self.layer.as_mut() else {
            return;
        };
        rec.span("exec.reconfigure", |_| {
            sut::reconfigure_noop(&self.fx.store)
        });
        if insert {
            rec.span("relstore.insert", |_| layer.rel_insert(triple));
            rec.span("graphstore.insert_edge", |_| layer.graph_insert(triple));
        } else {
            rec.span("relstore.delete", |_| layer.rel_delete(triple));
            rec.span("graphstore.delete_edge", |_| layer.graph_delete(triple));
        }
    }

    fn execute(&mut self, op: UpdateOp, rec: &mut Recorder) -> OpResult {
        let prepared = self.prepared;
        match op {
            UpdateOp::Read { pred, subject } => {
                let at = pred * prepared.subjects + subject;
                let (ns, sample) = self.read("core.read", &prepared.read_queries[at], rec);
                let after_write = std::mem::take(&mut self.model.dirty[pred]);
                let expected = prepared.base_rows[at]
                    + self.model.live.get(&(pred, subject)).copied().unwrap_or(0);
                OpResult {
                    ns,
                    ok: sample.is_some_and(|s| s.rows == expected),
                    kind: if after_write {
                        Kind::ReadAfterWrite
                    } else {
                        Kind::ReadSteady
                    },
                    sample,
                }
            }
            UpdateOp::Complex => {
                let (ns, sample) = self.read("core.read_complex", &prepared.complex, rec);
                OpResult {
                    ns,
                    ok: sample.is_some(),
                    kind: Kind::Complex,
                    sample,
                }
            }
            UpdateOp::Insert {
                pred,
                subject,
                object,
            } => {
                let (s, p, o) = (
                    Prepared::subject_iri(subject),
                    &prepared.read_preds[pred],
                    prepared.object_iri(pred, object),
                );
                let (ns, triple) =
                    rec.timed("core.insert", |_| sut::insert(&self.fx.store, &s, p, &o));
                let ok = triple.is_ok();
                let triple = triple.unwrap_or((0, 0, 0));
                self.mirror_write(triple, true, rec);
                self.model.live_nth.push(self.model.inserted.len());
                self.model.inserted.push(triple);
                *self.model.live.entry((pred, subject)).or_default() += 1;
                self.model.dirty[pred] = true;
                OpResult {
                    ns,
                    ok,
                    kind: Kind::Write,
                    sample: None,
                }
            }
            UpdateOp::Delete { nth } => {
                let triple = self.model.inserted[nth];
                let (ns, removed) =
                    rec.timed("core.delete", |_| sut::delete(&self.fx.store, triple));
                self.mirror_write(triple, false, rec);
                let (pred, subject, _) = self.inserts[nth];
                if let Some(n) = self.model.live.get_mut(&(pred, subject)) {
                    *n -= 1;
                }
                self.model.live_nth.retain(|&n| n != nth);
                self.model.deleted_nth.push(nth);
                self.model.dirty[pred] = true;
                OpResult {
                    ns,
                    ok: removed == 1,
                    kind: Kind::Write,
                    sample: None,
                }
            }
        }
    }

    /// After the last repetition: every live inserted triple is visible and
    /// every deleted one gone, on the routed and on the relational-only
    /// path, and both stores hold the same number of triples of each written
    /// predicate. Returns the number of checks made.
    fn verify_writes(&mut self, failures: &mut Vec<String>) -> u64 {
        let (prepared, fx, model) = (self.prepared, self.fx, &self.model);
        let inserted = &model.inserted;
        let mut checks = 0;
        let targets = model
            .live_nth
            .iter()
            .map(|&nth| (nth, true))
            // A deleted triple may have been inserted again and still live.
            .chain(
                model
                    .deleted_nth
                    .iter()
                    .filter(|&&nth| !model.live_nth.iter().any(|&l| inserted[l] == inserted[nth]))
                    .map(|&nth| (nth, false)),
            );
        for (nth, want) in targets {
            let (pred, subject, _) = self.inserts[nth];
            let object = inserted[nth].2;
            let q = &prepared.read_queries[pred * prepared.subjects + subject];
            let routed = sut::with_dual(&fx.store, |dual| sut::process(dual, &mut self.temp, q));
            let relational = sut::with_dual(&fx.store, |dual| sut::process_relational(dual, q));
            for (path, out) in [
                ("process_shared", routed),
                ("process_relational", relational),
            ] {
                let has = out
                    .map(|p| p.sorted_rows().contains(&vec![object]))
                    .unwrap_or(!want);
                if has != want {
                    failures.push(format!(
                        "{path}: triple {:?} {} after the run",
                        inserted[nth],
                        if want { "missing" } else { "still visible" }
                    ));
                }
                checks += 1;
            }
        }
        for (i, &pred) in prepared.written.iter().enumerate() {
            let live = model
                .live_nth
                .iter()
                .filter(|&&n| inserted[n].1 == pred)
                .count();
            let want = fx.data.partition_len(pred) + live;
            let (rel, graph) = sut::with_dual(&fx.store, |dual| sut::partition_lens(dual, pred));
            if rel != want || graph != want {
                failures.push(format!(
                    "{}: {rel} relational / {graph} graph triples, expected {want}",
                    prepared.read_preds[i]
                ));
            }
            checks += 1;
        }
        checks
    }
}

/// `(pred, subject, object)` of each insert of the stream, in order.
fn stream_inserts(stream: &[UpdateOp]) -> Vec<(usize, usize, usize)> {
    stream
        .iter()
        .filter_map(|op| match *op {
            UpdateOp::Insert {
                pred,
                subject,
                object,
            } => Some((pred, subject, object)),
            _ => None,
        })
        .collect()
}

/// What the measured operations add up to.
#[derive(Default)]
struct Tally {
    failed: u64,
    /// `(call wall, sample)` of every read.
    reads: Vec<(u64, OpSample)>,
    reads_after_write_ns: Vec<u64>,
    reads_steady_ns: Vec<u64>,
    rows: u64,
    work_units: u64,
    routes: [u64; 3],
}

impl Tally {
    fn record(&mut self, r: &OpResult) {
        self.failed += u64::from(!r.ok);
        match r.kind {
            Kind::ReadAfterWrite => self.reads_after_write_ns.push(r.ns),
            Kind::ReadSteady => self.reads_steady_ns.push(r.ns),
            Kind::Complex | Kind::Write => {}
        }
        if let Some(sample) = r.sample {
            self.reads.push((r.ns, sample));
            self.rows += sample.rows;
            self.work_units += sample.rel.units + sample.graph.units;
            if let Some(i) = sample.route.index() {
                self.routes[i] += 1;
            }
        }
    }
}

pub fn run(plan: &Plan, out: &mut RunOutput) -> Result<(), String> {
    out.note("clients", 1);
    out.note("pool_threads", 1);
    let (fx, times) = fixture::tuned(&plan.sizes, 1, false)?;
    times.report(&fx.data, out);

    let mut failures = Vec::new();
    let (prepared, checks) = prepare(plan, &fx, &mut failures)?;
    out.attempted += checks;
    out.note("written_predicates", prepared.read_preds[..2].join(","));
    out.note("complex_query", sut::query_text(&prepared.complex));

    // A warm-up repetition, then the measured ones. A traced run measures
    // two: an untraced reference and the traced one.
    let per_rep = plan.sizes.update_ops;
    let reps = if plan.trace { 2 } else { plan.repetitions() };
    let stream = ops::update_stream(
        plan.seed,
        &UpdateShape {
            ops: per_rep * (reps + 1),
            read_preds: prepared.read_preds.len(),
            written_preds: prepared.written.len(),
            subjects: prepared.subjects,
            objects: OBJECTS,
            lag: plan.sizes.update_lag,
        },
    );
    let mut exec = Executor {
        prepared: &prepared,
        fx: &fx,
        inserts: stream_inserts(&stream),
        temp: Temp::default(),
        model: Model::default(),
        layer: plan
            .trace
            .then(|| LayerStores::load(&fx.data, &prepared.written)),
    };
    let mut rec = Recorder::new(false);
    let mut measured = Reps::default();
    let mut walls_ns = Vec::new();
    let mut tally = Tally::default();
    for (rep, chunk) in stream.chunks(per_rep).enumerate() {
        if plan.trace && rep == reps {
            rec = Recorder::new(true);
        }
        let mut latencies = Vec::with_capacity(chunk.len());
        let cpu0 = stats::process_cpu();
        let (wall_ns, _) = timed(|| {
            for (i, &op) in chunk.iter().enumerate() {
                rec.set_op((rep * per_rep + i) as u64);
                let r = rec.span("op", |rec| exec.execute(op, rec));
                if rep > 0 {
                    latencies.push(r.ns);
                    tally.record(&r);
                }
            }
        });
        if rep > 0 {
            let cpu = stats::process_cpu() - cpu0;
            walls_ns.push(wall_ns);
            measured.push(chunk.len() as u64, wall_ns, wall_ns, cpu, &mut latencies);
        }
    }
    out.failed += tally.failed;
    out.attempted += exec.verify_writes(&mut failures);
    fixture::report_failures(&failures, out);
    out.note(
        "fingerprint",
        format!(
            "rows={} work_units={} routes(rel/graph/dual)={}/{}/{} inserts={} live={}",
            tally.rows,
            tally.work_units,
            tally.routes[0],
            tally.routes[1],
            tally.routes[2],
            exec.model.inserted.len(),
            exec.model.live_nth.len()
        ),
    );
    if !plan.trace {
        measured.report(out);
        return Ok(());
    }
    out.attempted += measured.ops();

    // Replay a sample of the traced repetition's reads step by step.
    let mut replays: Vec<OpRecord> = Vec::new();
    let complex_text = sut::query_text(&prepared.complex);
    let sampled_reads = stream[per_rep * reps..]
        .iter()
        .filter_map(|op| match *op {
            UpdateOp::Read { pred, subject } => Some(prepared.read_text(pred, subject)),
            UpdateOp::Complex => Some(complex_text.clone()),
            _ => None,
        })
        .step_by(plan.sizes.trace_sample.max(1));
    for (n, text) in sampled_reads.enumerate() {
        rec.set_op(1_000_000 + n as u64);
        replays.push(rec.span("replay", |rec| {
            sut::with_dual(&fx.store, |dual| {
                layers::replay_query(rec, dual, &mut exec.temp, &text)
            })
        }));
    }
    layers::report_samples(&tally.reads, out);
    layers::report_replays(&rec, &replays, out);
    layers::report_design(&sut::with_dual(&fx.store, sut::design), out);
    for (span, metric) in [
        ("relstore.insert", "relstore.insert_us"),
        ("relstore.delete", "relstore.delete_us"),
        ("graphstore.insert_edge", "graphstore.insert_edge_us"),
        ("graphstore.delete_edge", "graphstore.delete_edge_us"),
        ("exec.reconfigure", "exec.reconfigure_us"),
    ] {
        layers::span_p50(&rec, span, metric, out);
    }
    out.set(
        "relstore.read_after_write_us",
        ns_to_us(percentile(&mut tally.reads_after_write_ns, 0.5)),
    );
    out.set(
        "relstore.read_steady_us",
        ns_to_us(percentile(&mut tally.reads_steady_ns, 0.5)),
    );
    out.set(
        "obs.trace_overhead_pct",
        (walls_ns[1] as f64 / walls_ns[0].max(1) as f64 - 1.0) * 100.0,
    );
    layers::write_trace(plan, &rec, out)?;
    Ok(())
}
