//! The serving binary end to end: `serve_store` boots on an OS-assigned
//! port, a serial wire replay of the YAGO query pool must equal the
//! batch executor on an identically built local store — field by field
//! and in digest form — while `/health` and `/metrics` answer, and
//! SIGTERM must drain gracefully: exit 0, the final `served:` counters,
//! then `drained`. A second leg runs the child with `KGDUAL_OBS=on` and
//! requires the live serving metrics to have moved. An unknown flag
//! must stop the binary before it builds anything, with status 2.
#![cfg(unix)]

use kgdual_bench::serve_load::{query_pool, serial_replay};
use kgdual_bench::{build_dataset, BenchArgs, WorkloadKind};
use kgdual_core::{DualStore, QueryOutcome};
use kgdual_exec::{results_digest, BatchExecutor, Scheduler, SharedStore};
use kgdual_serve::{route_name, ServeClient};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

/// The store both sides build.
const FLAGS: &str = "--scale 0.002 --seed 42 --threads 4";

/// The `serve_store` child; killed on drop so a failing assertion never
/// leaves it running.
struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Served {
    fn start(obs: bool) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve_store"))
            .args(FLAGS.split_whitespace())
            .args(["--port", "0"])
            .env("KGDUAL_OBS", if obs { "on" } else { "off" })
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve_store");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read the listen line");
        let addr = line
            .trim_end()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("first stdout line must be the listen address: {line:?}"))
            .parse()
            .expect("a socket address");
        Served {
            child,
            stdout,
            addr,
        }
    }

    /// SIGTERM, then the rest of stdout once the child has exited.
    fn terminate(mut self) -> String {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill").args(["-TERM", &pid]).status();
        assert!(sent.expect("run kill").success(), "kill -TERM {pid}");
        let status = self.child.wait().expect("wait for serve_store");
        let mut stderr = String::new();
        if let Some(mut e) = self.child.stderr.take() {
            e.read_to_string(&mut stderr).expect("read stderr");
        }
        assert!(status.success(), "serve_store exited {status}:\n{stderr}");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("read stdout");
        rest
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One Prometheus sample's value.
fn sample(exposition: &str, name: &str) -> Option<u64> {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// `/health` answers ok and `/metrics` carries the serving families.
fn scrape(addr: SocketAddr) -> String {
    let mut ops = ServeClient::connect(addr, "smoke").expect("connect scraper");
    let (code, health) = ops.health().expect("GET /health");
    assert_eq!(code, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    let (code, metrics) = ops.metrics(false).expect("GET /metrics");
    assert_eq!(code, 200);
    for name in ["serve_accepted", "serve_request_wall_ns_p99"] {
        assert!(sample(&metrics, name).is_some(), "/metrics lacks {name}");
    }
    metrics
}

/// The batch executor on a store built as `serve_store` builds its own.
fn local_outcomes(args: &BenchArgs, queries: &[String]) -> Vec<Option<QueryOutcome>> {
    let dataset = build_dataset(WorkloadKind::Yago, args);
    let budget = dataset.len() / 4;
    let store = SharedStore::new(DualStore::from_dataset(dataset, budget));
    let sched = Arc::new(Scheduler::new(args.threads));
    let parsed: Vec<_> = queries
        .iter()
        .map(|q| kgdual_sparql::parse(q).expect("pool query parses"))
        .collect();
    let report = BatchExecutor::with_scheduler(sched)
        .with_outcomes(true)
        .execute_batch(&store, &parsed);
    assert_eq!(report.errors, 0, "batch path must be healthy");
    report.outcomes
}

fn smoke(obs: bool) {
    let args = BenchArgs::parse_from(FLAGS.split_whitespace().map(str::to_owned)).unwrap();
    let queries = query_pool(&args);
    let served = Served::start(obs);

    let (wire_digest, replies) = std::thread::scope(|ts| {
        let replay = ts.spawn(|| serial_replay(served.addr, &queries).expect("serial replay"));
        scrape(served.addr);
        replay.join().expect("replay thread")
    });

    let outcomes = local_outcomes(&args, &queries);
    assert_eq!(
        wire_digest,
        results_digest(&outcomes),
        "the wire replay's digest must equal the batch path's"
    );
    for (i, (reply, out)) in replies.iter().zip(&outcomes).enumerate() {
        let out = out.as_ref().expect("no batch errors");
        assert!(reply.is_ok(), "query {i} must serve: {}", reply.http_status);
        let rows: Vec<Vec<u32>> = out
            .results
            .rows()
            .map(|r| r.iter().map(|c| c.0).collect())
            .collect();
        assert_eq!(reply.rows, rows, "query {i}: rows (order included)");
        assert_eq!(reply.work_units, out.total_work(), "query {i}: work");
        assert_eq!(
            reply.sim_latency_ns,
            out.simulated_latency().as_nanos() as u64,
            "query {i}: simulated latency"
        );
        assert_eq!(reply.route, route_name(out.route), "query {i}: route");
    }
    assert_eq!(replies.len(), queries.len());

    if obs {
        let metrics = scrape(served.addr);
        let accepted = sample(&metrics, "serve_accepted").unwrap();
        assert!(accepted > 0, "serve_accepted never moved");
        let p99 = sample(&metrics, "serve_request_wall_ns_p99").unwrap();
        assert!(p99 > 0, "the serving p99 stayed empty");
    }

    let rest = served.terminate();
    let lines: Vec<&str> = rest.lines().collect();
    assert!(
        lines.iter().any(|l| l.starts_with("served: ")),
        "no final counters:\n{rest}"
    );
    assert_eq!(lines.last(), Some(&"drained"), "no drain line:\n{rest}");
}

#[test]
fn serve_store_replays_like_the_batch_path_and_drains_on_sigterm() {
    smoke(false);
}

#[test]
fn serve_store_with_recording_on_reports_live_serving_metrics() {
    smoke(true);
}

#[test]
fn serve_store_rejects_an_unknown_flag_with_status_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_store"))
        .args(["--shards", "4"])
        .output()
        .expect("run serve_store");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --shards"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may start");
}
