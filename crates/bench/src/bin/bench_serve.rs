//! **BENCH_serve** — the tail-latency trajectory of the serving
//! front-end (captured to `docs/baselines/BENCH_serve.json`).
//!
//! Two arrival regimes, both seeded:
//!
//! - **closed** — `--clients` closed loops over keep-alive connections,
//!   Zipfian query mix, admission sized to fit (`cap = clients`). All
//!   requests complete, so the totals (requests, completed, work,
//!   rows) are deterministic and drift-checked by
//!   `scripts/check_baselines.sh`.
//! - **open-overload** — the same request volume on a fixed arrival
//!   schedule at 2× the measured closed throughput, with the admission
//!   cap strictly below the sender count. Rejections are *required*
//!   (that is the graceful-degradation contract) and the pending
//!   queue's high-water mark must stay at or under the cap — overload
//!   bounds memory instead of growing a queue.
//!
//! Latency percentiles (p50/p95/p99/p999, exact nearest-rank, µs) are
//! wall-clock and therefore machine-dependent: trajectory data, not
//! drift-gated.
//!
//! `--assert-equivalence true` additionally replays the full ordered
//! workload through one serial connection and compares rows, work,
//! route, simulated latency, and the results digest byte-for-byte
//! against the batch executor on an identical store — the
//! serve-equivalence contract, also enforced by the wire cells of
//! `crates/bench/tests/equivalence.rs` and the CI smoke script.
//!
//! `--connect <addr>` skips the in-process server and drives an
//! already-running `serve_store` (the smoke script's mode).

use kgdual_bench::serve_load::{
    closed_admission, overload_admission, query_pool, run_closed, run_open, serial_replay,
    LoadConfig, RegimeResult,
};
use kgdual_bench::{build_dataset, BenchArgs, WorkloadKind};
use kgdual_core::DualStore;
use kgdual_exec::{results_digest, BatchExecutor, SchedShardDispatch, Scheduler, SharedStore};
use kgdual_serve::{route_name, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::Arc;

fn build_store(args: &BenchArgs) -> Arc<SharedStore> {
    let dataset = build_dataset(WorkloadKind::Yago, args);
    let budget = dataset.len() / 4;
    Arc::new(SharedStore::new(DualStore::from_dataset_sharded(
        dataset,
        budget,
        args.shards,
    )))
}

/// Serial wire replay vs the batch executor on `store`: every
/// deterministic field must match, per query and in digest form.
fn assert_equivalence(
    addr: SocketAddr,
    store: &Arc<SharedStore>,
    sched: &Arc<Scheduler>,
    queries: &[String],
) {
    let (wire_digest, replies) = serial_replay(addr, queries).expect("serial replay");
    let parsed: Vec<_> = queries
        .iter()
        .map(|q| kgdual_sparql::parse(q).expect("pool query parses"))
        .collect();
    let executor = BatchExecutor::with_scheduler(Arc::clone(sched)).with_outcomes(true);
    let report = executor.execute_batch(store, &parsed);
    assert_eq!(report.errors, 0, "batch path must be healthy");
    let batch_digest = results_digest(&report.outcomes);
    assert_eq!(
        wire_digest, batch_digest,
        "serve replay digest must be byte-identical to the batch path"
    );
    for (i, (reply, outcome)) in replies.iter().zip(&report.outcomes).enumerate() {
        let out = outcome.as_ref().expect("no batch errors");
        assert!(reply.is_ok(), "query {i} must serve");
        let rows: Vec<Vec<u32>> = out
            .results
            .rows()
            .map(|r| r.iter().map(|c| c.0).collect())
            .collect();
        assert_eq!(reply.rows, rows, "query {i}: row mismatch (order included)");
        assert_eq!(reply.work_units, out.total_work(), "query {i}: work");
        assert_eq!(
            reply.sim_latency_ns,
            out.simulated_latency().as_nanos() as u64,
            "query {i}: simulated latency"
        );
        assert_eq!(reply.route, route_name(out.route), "query {i}: route");
    }
    eprintln!(
        "bench_serve: equivalence ok over {} queries ({} digest bytes)",
        queries.len(),
        wire_digest.len()
    );
}

fn regime_json(name: &str, r: &RegimeResult, queue_cap: usize, max_pending: usize) -> String {
    format!(
        "    {{\"regime\": \"{name}\", \"workload\": \"yago\", \"requests\": {}, \
         \"completed\": {}, \"rejected\": {}, \"deadline_expired\": {}, \"errors\": {}, \
         \"total_work\": {}, \"total_rows\": {}, \"queue_cap\": {queue_cap}, \
         \"max_pending\": {max_pending}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
         \"p999_us\": {}, \"wall_s\": {:.6}, \"throughput_rps\": {:.2}}}",
        r.requests,
        r.completed,
        r.rejected,
        r.deadline_expired,
        r.errors,
        r.total_work,
        r.total_rows,
        r.percentile_us(0.50),
        r.percentile_us(0.95),
        r.percentile_us(0.99),
        r.percentile_us(0.999),
        r.wall_s,
        r.throughput_rps(),
    )
}

fn run(args: &BenchArgs) {
    let queries = query_pool(args);
    let cfg = LoadConfig {
        clients: args.clients,
        requests_per_client: args
            .get("requests")
            .and_then(|v| v.parse().ok())
            .unwrap_or(40),
        seed: args.seed,
    };
    let assert_eq_flag = args.get_bool("assert-equivalence");

    // External-server mode: drive a running serve_store (smoke script).
    if let Some(addr) = args.get("connect") {
        let addr: SocketAddr = addr.parse().expect("--connect host:port");
        if assert_eq_flag {
            let store = build_store(args);
            let sched = Arc::new(Scheduler::new(args.threads));
            if args.threads > 1 {
                store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));
                store.read().warm_rel_indexes();
            }
            assert_equivalence(addr, &store, &sched, &queries);
        }
        let closed = run_closed(addr, &queries, &cfg);
        assert_eq!(
            closed.errors, 0,
            "closed loop must not hit transport errors"
        );
        assert_eq!(
            closed.completed + closed.rejected + closed.deadline_expired,
            closed.requests,
            "every request must get a typed answer"
        );
        eprintln!(
            "bench_serve: connect mode, {} requests, {} completed, p99 {} us",
            closed.requests,
            closed.completed,
            closed.percentile_us(0.99)
        );
        return;
    }

    // In-process mode: one store, one scheduler shared by the server
    // and the batch-equivalence executor.
    let store = build_store(args);
    let sched = Arc::new(Scheduler::new(args.threads));
    if args.threads > 1 {
        store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));
        store.read().warm_rel_indexes();
    }

    // Regime 1: closed loop (admission sized to always fit).
    let closed_cap = closed_admission(cfg.clients).queue_cap;
    let server = Server::start(
        Arc::clone(&store),
        Arc::clone(&sched),
        ServeConfig {
            admission: closed_admission(cfg.clients),
            ..ServeConfig::default()
        },
    )
    .expect("bind closed-regime server");
    if assert_eq_flag {
        assert_equivalence(server.local_addr(), &store, &sched, &queries);
    }
    // Warm-up pass (connection setup, allocator), then the measured run.
    run_closed(server.local_addr(), &queries, &cfg);
    let closed = run_closed(server.local_addr(), &queries, &cfg);
    let closed_max_pending = server.max_pending();
    server.shutdown();
    assert_eq!(closed.errors, 0, "closed regime transport errors");
    assert_eq!(
        closed.completed, closed.requests,
        "closed-loop load must fit its admission cap"
    );
    assert!(
        closed_max_pending <= closed_cap,
        "pending queue exceeded its cap: {closed_max_pending} > {closed_cap}"
    );
    eprintln!(
        "bench_serve: closed {} requests, wall {:.2}s, p50 {} us, p95 {} us, p99 {} us, \
         max_pending {}",
        closed.requests,
        closed.wall_s,
        closed.percentile_us(0.50),
        closed.percentile_us(0.95),
        closed.percentile_us(0.99),
        closed_max_pending
    );

    // Regime 2: open arrival at 2× the closed throughput, cap below the
    // sender count — overload by construction.
    let over_adm = overload_admission(cfg.clients);
    let server = Server::start(
        Arc::clone(&store),
        Arc::clone(&sched),
        ServeConfig {
            admission: over_adm,
            ..ServeConfig::default()
        },
    )
    .expect("bind overload-regime server");
    // Offered load: 2× the sustainable rate estimated from the *median*
    // closed-loop service time. (Mean throughput is dragged down by the
    // heavy tail; an arrival schedule derived from it leaves senders
    // idle between bursts and overload never materializes.)
    let service_us = closed.percentile_us(0.50).max(1);
    let rate = (2.0 * cfg.clients as f64 * 1e6 / service_us as f64).clamp(50.0, 1e6);
    let open = run_open(server.local_addr(), &queries, &cfg, rate);
    let open_max_pending = server.max_pending();
    server.shutdown();
    eprintln!(
        "bench_serve: open-overload {} requests -> {} completed, {} rejected, \
         max_pending {} (cap {}), wall {:.2}s",
        open.requests,
        open.completed,
        open.rejected,
        open_max_pending,
        over_adm.queue_cap,
        open.wall_s
    );
    assert_eq!(open.errors, 0, "open regime transport errors");
    assert!(
        open.rejected > 0,
        "overload must be shed through typed rejections (rate {rate:.0} rps, cap {})",
        over_adm.queue_cap
    );
    assert!(
        open_max_pending <= over_adm.queue_cap,
        "overload grew the queue past its cap: {open_max_pending} > {}",
        over_adm.queue_cap
    );

    println!("{{");
    println!("  \"bench\": \"serve\",");
    println!(
        "  \"meta\": {{\"scale\": {}, \"seed\": {}, \"clients\": {}, \"requests_per_client\": {}, \
         \"threads\": {}, \"shards\": {}, \"distinct_queries\": {}, \
         \"open_rate_rps\": {:.2}, \"equivalence_checked\": {}, \"host_parallelism\": {}}},",
        args.scale,
        args.seed,
        cfg.clients,
        cfg.requests_per_client,
        args.threads,
        args.shards,
        queries.len(),
        rate,
        assert_eq_flag,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("  \"regimes\": [");
    println!(
        "{},",
        regime_json("closed", &closed, closed_cap, closed_max_pending)
    );
    println!(
        "{}",
        regime_json("open-overload", &open, over_adm.queue_cap, open_max_pending)
    );
    println!("  ]");
    println!("}}");
}

fn main() {
    let args = BenchArgs::parse();
    eprintln!("bench_serve: {}", args.describe());
    run(&args);
}
