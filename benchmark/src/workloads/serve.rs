//! `serve_point` and `serve_mixed`: closed-loop clients over keep-alive TCP
//! against `kgdual_serve::Server` on a DOTIL-tuned store.
//!
//! `serve_point` sends bound-subject lookups that return at most a few rows:
//! the stores do almost nothing, so framing, JSON, admission, SPARQL parsing
//! and the scheduler hand-off are what is measured. `serve_mixed` sends the
//! 20 queries of the YAGO workload (graph, dual and relational routes, ~1 450
//! rows per reply): execution and result serialisation dominate.

use crate::client::{complete_reply, RawClient};
use crate::fixture::{self, Tuned};
use crate::layers::{self, OpRecord};
use crate::reference::RefGraph;
use crate::report::{Reps, RunOutput};
use crate::stats::{self, ns_to_us, percentile, timed};
use crate::sut::{self, Route, Temp};
use crate::trace::Recorder;
use crate::{ops, Plan, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Closed-loop clients (and connections) and scheduler threads.
///
/// One of each, so a request's latency is the sum of the layers it passes and
/// nothing else. On the 2-core reference host two clients on a 2-thread pool
/// are *slower* (17.6 k vs 27 k req/s on `serve_point`, twice the CPU per
/// request: every hand-off wakes both workers and six threads share two
/// cores) and three to five times noisier from run to run, which would hide
/// any wire, parse or JSON gain. `batch_adaptive` is the workload that runs
/// the pool with two threads. See README, "Host sizing".
const CLIENTS: usize = 1;
const POOL_THREADS: usize = 1;

/// Bound-subject lookups of at most two patterns. `$S` is the subject.
const POINT_TEMPLATES: [&str; 4] = [
    "SELECT ?c WHERE { $S y:wasBornIn ?c }",
    "SELECT ?g ?f WHERE { $S y:hasGivenName ?g . $S y:hasFamilyName ?f }",
    "SELECT ?c WHERE { $S y:isCitizenOf ?c }",
    "SELECT ?c ?k WHERE { $S y:livesIn ?c . ?c y:isLocatedIn ?k }",
];

/// The distinct requests of a workload and what is known about each.
struct Requests {
    texts: Vec<String>,
    /// Wire bytes per client (the client id is part of the body).
    wires: Vec<Vec<Vec<u8>>>,
    /// Reference row count.
    rows: Vec<u64>,
    /// Route and work units of the in-process run (fingerprint only).
    routes: Vec<Route>,
    work: Vec<u64>,
}

fn request_texts(plan: &Plan, fx: &Tuned) -> Vec<String> {
    match plan.workload {
        Workload::ServePoint => POINT_TEMPLATES
            .iter()
            .flat_map(|t| {
                (0..plan.sizes.point_subjects)
                    .map(move |s| t.replace("$S", &format!("y:Person{s}")))
            })
            .collect(),
        _ => fx.data.queries().iter().map(sut::query_text).collect(),
    }
}

/// Request indexes of repetition `rep`: one sequence the clients share, each
/// taking the next unsent request, so they finish within a request of each
/// other and no client runs alone at the end of a repetition.
fn stream(plan: &Plan, clients: usize, rep: usize, distinct: usize) -> Vec<usize> {
    let seed = plan
        .seed
        .wrapping_add(0x517c_c1b7_2722_0a95_u64.wrapping_mul(rep as u64));
    match plan.workload {
        Workload::ServePoint => ops::point_stream(
            seed,
            plan.sizes.point_requests * clients,
            POINT_TEMPLATES.len(),
            plan.sizes.point_subjects,
        )
        .into_iter()
        .map(|(t, s)| t * plan.sizes.point_subjects + s)
        .collect(),
        _ => ops::mixed_stream(seed, plan.sizes.mixed_rounds * clients, distinct),
    }
}

/// Check every distinct request against the reference evaluator, in process
/// and over the wire; returns the request table and the number of checks.
fn verify(
    plan: &Plan,
    fx: &Tuned,
    clients: usize,
    failures: &mut Vec<String>,
) -> Result<(Requests, u64), String> {
    let texts = request_texts(plan, fx);
    let reference = RefGraph::build(fx.data.id_triples());
    let addr = fx.server.as_ref().expect("served fixture").local_addr();
    let mut wire = sut::WireChecker::connect(addr).map_err(|e| format!("verify connect: {e}"))?;
    let mut temp = Temp::default();
    let mut checked: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let (mut rows, mut routes, mut work) = (Vec::new(), Vec::new(), Vec::new());
    for (i, text) in texts.iter().enumerate() {
        // The workload repeats some queries; check each text once.
        if let Some(&first) = checked.get(text.as_str()) {
            rows.push(rows[first]);
            routes.push(routes[first]);
            work.push(work[first]);
            continue;
        }
        checked.insert(text, i);
        let query = sut::parse(text);
        let processed = fixture::process_checked(&fx.store, &mut temp, &query, failures);
        let in_process = processed
            .as_ref()
            .map(|p| p.sorted_rows())
            .unwrap_or_default();
        let over_wire = wire.sorted_rows(text).unwrap_or_else(|e| {
            failures.push(format!("wire: {e}: {text}"));
            Vec::new()
        });
        let expected = fixture::check_rows(
            &reference,
            &fx.data,
            &query,
            &[("process_shared", in_process), ("wire", over_wire)],
            failures,
        );
        let sample = processed.map(|p| p.sample());
        rows.push(expected as u64);
        routes.push(sample.map_or(Route::Other, |s| s.route));
        work.push(sample.map_or(0, |s| s.rel.units + s.graph.units));
    }
    let wires = (0..clients)
        .map(|c| {
            texts
                .iter()
                .map(|t| sut::request_bytes(&format!("c{c}"), t))
                .collect()
        })
        .collect();
    let checks = 2 * checked.len() as u64;
    Ok((
        Requests {
            texts,
            wires,
            rows,
            routes,
            work,
        },
        checks,
    ))
}

/// One client's share of a repetition.
#[derive(Default)]
struct ClientResult {
    latencies_ns: Vec<u64>,
    failed: u64,
    rows: u64,
    bytes: u64,
}

fn client_loop(
    conn: &mut RawClient,
    stream: &[usize],
    next: &AtomicUsize,
    wires: &[Vec<u8>],
    rows: &[u64],
) -> ClientResult {
    let mut res = ClientResult::default();
    while let Some(&i) = stream.get(next.fetch_add(1, Ordering::Relaxed)) {
        let t0 = Instant::now();
        let reply = conn.round_trip(&wires[i]);
        res.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        match reply {
            Ok(r) if r.status == 200 && r.row_count == Some(rows[i]) => {
                res.rows += rows[i];
                res.bytes += r.bytes as u64;
            }
            _ => res.failed += 1,
        }
    }
    res
}

/// One repetition: the clients drain the shared stream back to back.
struct Rep {
    wall_ns: u64,
    clients: Vec<ClientResult>,
}

fn run_rep(conns: &mut [RawClient], stream: &[usize], reqs: &Requests) -> Rep {
    let next = AtomicUsize::new(0);
    let (wall_ns, clients) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&reqs.wires)
                .map(|(conn, wires)| {
                    let next = &next;
                    scope.spawn(move || client_loop(conn, stream, next, wires, &reqs.rows))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load client panicked"))
                .collect()
        })
    });
    Rep { wall_ns, clients }
}

pub fn run(plan: &Plan, out: &mut RunOutput) -> Result<(), String> {
    let clients = plan.clamp(CLIENTS);
    let threads = plan.clamp(POOL_THREADS);
    out.note("clients", clients);
    out.note("pool_threads", threads);
    // One request in flight means one runnable thread at a time: keep them
    // all (server and pool threads inherit the pin) on one core, so the
    // kernel's placement cannot turn hand-offs into cross-core wake-ups.
    let pin = (clients == 1 && threads == 1)
        .then(stats::pin_to_one_cpu)
        .flatten();
    out.note(
        "pinned_cpu",
        pin.as_ref()
            .map_or("none".to_owned(), |p| p.cpu.to_string()),
    );
    let (mut fx, times) = fixture::tuned(&plan.sizes, threads, true)?;
    times.report(&fx.data, out);

    let mut failures = Vec::new();
    let (reqs, checks) = verify(plan, &fx, clients, &mut failures)?;
    out.attempted += checks;
    out.note("distinct_requests", reqs.texts.len());

    let addr = fx.server.as_ref().expect("served fixture").local_addr();
    let mut conns = (0..clients)
        .map(|_| RawClient::connect(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("client connect: {e}"))?;

    let result = if plan.trace {
        traced(plan, &fx, &mut conns, &reqs, out)
    } else {
        plain(plan, &mut conns, &reqs, out);
        Ok(())
    };
    drop(conns);
    let (max_pending, rejected, server_failed) =
        sut::server_counts(fx.server.as_ref().expect("served fixture"));
    out.set("serve.max_pending", max_pending as f64);
    out.set("serve.rejected", rejected as f64);
    out.failed += rejected + server_failed;
    fx.shutdown();
    fixture::report_failures(&failures, out);
    result
}

/// Warm-up repetition, then the measured ones.
fn plain(plan: &Plan, conns: &mut [RawClient], reqs: &Requests, out: &mut RunOutput) {
    run_rep(conns, &stream(plan, conns.len(), 0, reqs.texts.len()), reqs);
    let mut reps = Reps::default();
    let (mut rows, mut bytes, mut work) = (0u64, 0u64, 0u64);
    let mut routes = [0u64; 3];
    for rep in 1..=plan.repetitions() {
        let stream = stream(plan, conns.len(), rep, reqs.texts.len());
        let cpu0 = stats::process_cpu();
        let done = run_rep(conns, &stream, reqs);
        let cpu = stats::process_cpu() - cpu0;
        let mut latencies = Vec::new();
        for c in done.clients {
            out.failed += c.failed;
            rows += c.rows;
            bytes += c.bytes;
            latencies.extend(c.latencies_ns);
        }
        reps.push(
            latencies.len() as u64,
            done.wall_ns,
            done.wall_ns,
            cpu,
            &mut latencies,
        );
        for &i in &stream {
            work += reqs.work[i];
            if let Some(r) = reqs.routes[i].index() {
                routes[r] += 1;
            }
        }
    }
    reps.report(out);
    out.note(
        "fingerprint",
        format!(
            "rows={rows} reply_bytes={bytes} work_units={work} routes(rel/graph/dual)={}/{}/{}",
            routes[0], routes[1], routes[2]
        ),
    );
}

/// One plain repetition (tail latency, admission counters), then every
/// `trace_sample`-th operation of it again through one connection: once
/// untraced, once traced with the in-process replay of each step.
fn traced(
    plan: &Plan,
    fx: &Tuned,
    conns: &mut [RawClient],
    reqs: &Requests,
    out: &mut RunOutput,
) -> Result<(), String> {
    let stream = stream(plan, conns.len(), 1, reqs.texts.len());
    run_rep(conns, &stream, reqs);
    let done = run_rep(conns, &stream, reqs);
    let mut latencies = Vec::new();
    for c in done.clients {
        out.failed += c.failed;
        out.attempted += c.latencies_ns.len() as u64;
        latencies.extend(c.latencies_ns);
    }
    out.set(
        "serve.rtt_p99_us",
        ns_to_us(percentile(&mut latencies, 0.99)),
    );
    out.note("rtt_samples", latencies.len());

    let sample: Vec<usize> = stream
        .iter()
        .copied()
        .step_by(plan.sizes.trace_sample.max(1))
        .collect();
    let conn = &mut conns[0];
    let wires = &reqs.wires[0];

    // Reference pass: the same operations with nothing recorded or replayed.
    let mut untraced_ns = 0u64;
    for &i in &sample {
        let (ns, reply) = timed(|| conn.round_trip(&wires[i]));
        untraced_ns += ns;
        if !matches!(reply, Ok(r) if r.status == 200) {
            out.failed += 1;
        }
    }

    let mut rec = Recorder::new(true);
    let gate = sut::Gate::new();
    let mut temp = Temp::default();
    let mut records: Vec<OpRecord> = Vec::with_capacity(sample.len());
    let mut residuals: Vec<i64> = Vec::with_capacity(sample.len());
    let (mut traced_ns, mut bytes, mut tasks, mut batches) = (0u64, 0u64, 0u64, 0u64);
    for (op, &i) in sample.iter().enumerate() {
        rec.set_op(op as u64);
        rec.span("op", |rec| {
            let (tasks0, batches0) = (sut::sched_submitted(&fx.sched), sut::vec_batches());
            let (rtt_ns, reply) = rec.timed("wire.round_trip", |_| conn.round_trip(&wires[i]));
            tasks += sut::sched_submitted(&fx.sched) - tasks0;
            batches += sut::vec_batches() - batches0;
            traced_ns += rtt_ns;
            match reply {
                Ok(r) if r.status == 200 && r.row_count == Some(reqs.rows[i]) => {
                    bytes += r.bytes as u64
                }
                _ => out.failed += 1,
            }
            // The load generator's own work on this reply.
            rec.span("loadgen.client", |_| {
                std::hint::black_box(complete_reply(conn.last_reply()))
            });
            // The request's path through the server, step by step.
            let (read_ns, body) = rec.timed("serve.proto_read", |_| sut::proto_read(&wires[i]));
            let (json_ns, text) = rec.timed("serve.json_parse", |_| sut::json_parse(&body));
            let (admit_ns, _) = rec.timed("serve.admit", |_| gate.admit_release("c0"));
            let (handoff_ns, _) = rec.timed("sched.handoff", |_| sut::sched_handoff(&fx.sched));
            let mut record = sut::with_dual(&fx.store, |dual| {
                layers::replay_query(rec, dual, &mut temp, &text)
            });
            // What no public function exposes: response serialisation, the
            // socket write and read, and the thread wake-ups in between.
            let blocking =
                read_ns + json_ns + admit_ns + handoff_ns + record.parse_ns + record.process_ns;
            residuals.push(rtt_ns as i64 - blocking as i64);
            record.op_ns = rtt_ns;
            records.push(record);
        });
    }
    out.attempted += 2 * sample.len() as u64;

    let n = sample.len().max(1) as f64;
    let samples: Vec<_> = records.iter().map(|r| (r.process_ns, r.sample)).collect();
    layers::report_samples(&samples, out);
    layers::report_replays(&rec, &records, out);
    layers::report_design(&fx.design, out);
    layers::span_p50(&rec, "serve.proto_read", "serve.proto_read_us", out);
    layers::span_p50(&rec, "serve.json_parse", "serve.json_parse_us", out);
    layers::span_p50(&rec, "serve.admit", "serve.admit_us", out);
    layers::span_p50(&rec, "sched.handoff", "sched.handoff_us", out);
    layers::span_p50(&rec, "loadgen.client", "loadgen.client_us", out);
    out.set("serve.response_bytes_per_op", bytes as f64 / n);
    out.set("sched.tasks_per_op", tasks as f64 / n);
    out.set("vec.batches_per_op", batches as f64 / n);
    residuals.sort_unstable();
    out.set(
        "serve.residual_us",
        residuals
            .get(residuals.len() / 2)
            .map_or(0.0, |&r| r as f64 / 1e3),
    );
    out.set(
        "serve.residual_share",
        residuals.iter().sum::<i64>() as f64 / traced_ns.max(1) as f64,
    );
    out.set(
        "obs.trace_overhead_pct",
        (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0,
    );
    layers::write_trace(plan, &rec, out)?;
    Ok(())
}
