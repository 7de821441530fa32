//! End-to-end tests for the serving front-end: real sockets, real
//! scheduler, small seeded YAGO store. Synchronization is entirely
//! gate/condvar-based — no sleeps.

use kgdual_core::{process, DualStore, Options};
use kgdual_exec::SharedStore;
use kgdual_sched::Scheduler;
use kgdual_serve::proto::{self, Response};
use kgdual_serve::{AdmissionConfig, ServeClient, ServeConfig, Server};
use kgdual_workloads::YagoGen;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

const SEED: u64 = 42;
const TRIPLES: usize = 3_000;

fn small_store() -> Arc<SharedStore> {
    let gen = YagoGen::with_target_triples(TRIPLES, SEED);
    let dataset = gen.generate();
    let budget = dataset.len() / 4;
    Arc::new(SharedStore::new(DualStore::from_dataset(dataset, budget)))
}

fn queries() -> Vec<String> {
    YagoGen::with_target_triples(TRIPLES, SEED)
        .workload()
        .ordered()
        .iter()
        .map(|q| q.to_string())
        .collect()
}

fn start(
    store: Arc<SharedStore>,
    threads: usize,
    admission: AdmissionConfig,
) -> (kgdual_serve::ServeHandle, Arc<Scheduler>) {
    let sched = Arc::new(Scheduler::new(threads));
    let handle = Server::start(
        store,
        Arc::clone(&sched),
        ServeConfig {
            admission,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    (handle, sched)
}

#[test]
fn served_queries_match_direct_execution_and_ops_endpoints_answer() {
    let store = small_store();
    let (handle, _sched) = start(Arc::clone(&store), 2, AdmissionConfig::new(64, 8));
    let mut client = ServeClient::connect(handle.local_addr(), "itest").unwrap();

    let mut served = 0usize;
    for text in queries() {
        let reply = client.query(&text, None).unwrap();
        assert!(reply.is_ok(), "query must serve: {text}");
        let query = kgdual_sparql::parse(&text).unwrap();
        let direct = process(&store.read(), &query, Options::default()).unwrap();
        let direct_rows: Vec<Vec<u32>> = direct
            .results
            .rows()
            .map(|r| r.iter().map(|c| c.0).collect())
            .collect();
        // Rows must match in *execution order* — this is what pins LIMIT
        // semantics through the wire.
        assert_eq!(reply.rows, direct_rows, "rows diverge for {text}");
        assert_eq!(reply.work_units, direct.total_work());
        assert_eq!(
            reply.sim_latency_ns,
            direct.simulated_latency().as_nanos() as u64
        );
        assert_eq!(reply.route, kgdual_serve::route_name(direct.route));
        assert_eq!(
            reply.vars,
            direct
                .vars
                .iter()
                .map(|v| v.name().to_owned())
                .collect::<Vec<_>>()
        );
        served += 1;
    }
    assert!(served >= 5, "yago workload should have several templates");

    let (code, health) = client.health().unwrap();
    assert_eq!(code, 200);
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    assert!(health.contains("\"epoch\":0"), "health: {health}");

    let (code, prom) = client.metrics(false).unwrap();
    assert_eq!(code, 200);
    assert!(
        prom.contains("serve_request_wall_ns_p50"),
        "prometheus exposition must carry serve percentiles: {prom}"
    );
    let (code, json) = client.metrics(true).unwrap();
    assert_eq!(code, 200);
    assert!(json.trim_start().starts_with('{'), "json metrics: {json}");

    // Live checkpoint under the store's write lock, service continues
    // after.
    let (code, ckpt) = client.checkpoint().unwrap();
    assert_eq!(code, 200, "checkpoint: {ckpt}");
    assert!(ckpt.contains("\"status\":\"ok\""));
    let reply = client.query(&queries()[0], None).unwrap();
    assert!(reply.is_ok(), "service must continue after checkpoint");

    let stats = handle.shutdown();
    assert_eq!(stats.completed, served as u64 + 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected_queue_full, 0);
}

/// A hand-driven connection: raw bytes out, responses framed through one
/// read buffer kept for the connection's life. The read timeout turns a
/// server that lost buffered bytes into a failure instead of a hang.
struct RawConn {
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        RawConn {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, wire: &[u8]) {
        self.reader.get_ref().write_all(wire).unwrap();
    }

    fn read(&mut self) -> Response {
        proto::read_response(&mut self.reader).expect("a framed response")
    }

    fn exchange(&mut self, wire: &[u8]) -> Response {
        self.send(wire);
        self.read()
    }
}

#[test]
fn pipelined_requests_in_one_write_answer_in_order() {
    let store = small_store();
    let (handle, _sched) = start(Arc::clone(&store), 1, AdmissionConfig::new(8, 2));
    let texts = queries();
    let query_wire = |text: &str| {
        let body = format!(
            "{{\"client\":\"pipe\",\"query\":{}}}",
            kgdual_serve::json::escape(text)
        );
        format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    // Two queries and a health check, all in a single write: the server
    // reads them in one go, so the second and third requests exist only
    // in the connection's read buffer when the first is answered.
    let wire = format!(
        "{}{}GET /health HTTP/1.1\r\n\r\n",
        query_wire(&texts[0]),
        query_wire(&texts[1])
    );
    let mut raw = RawConn::connect(handle.local_addr());
    raw.send(wire.as_bytes());

    for text in &texts[..2] {
        let r = raw.read();
        assert_eq!(r.status, 200, "{}", r.body_str().unwrap());
        let query = kgdual_sparql::parse(text).unwrap();
        let direct = process(&store.read(), &query, Options::default()).unwrap();
        let body = r.body_str().unwrap();
        assert!(
            body.contains(&format!("\"row_count\":{},", direct.results.len()))
                && body.contains(&format!("\"work_units\":{},", direct.total_work())),
            "reply out of order for {text}: {body}"
        );
    }
    let r = raw.read();
    assert_eq!(r.status, 200);
    assert!(
        r.body_str().unwrap().contains("\"pending\""),
        "health reply last"
    );

    let stats = handle.shutdown();
    assert_eq!(stats.completed, 2);
}

#[test]
fn unknown_endpoints_bad_methods_and_bad_bodies_get_typed_errors() {
    let store = small_store();
    let (handle, _sched) = start(store, 1, AdmissionConfig::new(8, 2));

    // Unknown endpoint and wrong method keep the connection usable.
    let mut raw = RawConn::connect(handle.local_addr());
    assert_eq!(raw.exchange(b"GET /nope HTTP/1.1\r\n\r\n").status, 404);
    assert_eq!(raw.exchange(b"GET /query HTTP/1.1\r\n\r\n").status, 405);
    // Bad JSON body is a 400.
    let r = raw.exchange(b"POST /query HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json");
    assert_eq!(r.status, 400);
    // Unparseable SPARQL is a 400 too (after admission).
    let mut client = ServeClient::connect(handle.local_addr(), "bad").unwrap();
    let reply = client.query("THIS IS NOT SPARQL", None).unwrap();
    assert_eq!(reply.http_status, 400);

    let stats = handle.shutdown();
    assert!(stats.http_errors >= 3);
    assert_eq!(stats.completed, 0);
}

#[test]
fn zero_capacity_queue_rejects_every_query_on_the_wire() {
    let store = small_store();
    let (handle, _sched) = start(store, 1, AdmissionConfig::new(0, 2));
    let mut client = ServeClient::connect(handle.local_addr(), "z").unwrap();
    for text in queries().iter().take(3) {
        let reply = client.query(text, None).unwrap();
        assert_eq!(reply.http_status, 429);
        assert_eq!(reply.reason.as_deref(), Some("queue_full"));
    }
    assert_eq!(
        handle.max_pending(),
        0,
        "nothing may enter a zero-cap queue"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.rejected_queue_full, 3);
}

#[test]
fn overload_sheds_the_excess_as_typed_queue_full_and_bounds_the_queue() {
    const CAP: usize = 4;
    const EXCESS: usize = 3;
    const WAIT: Duration = Duration::from_secs(30);
    let store = small_store();
    let (handle, _sched) = start(
        Arc::clone(&store),
        1,
        AdmissionConfig::new(CAP, CAP + EXCESS),
    );
    let text = queries()[0].clone();
    let addr = handle.local_addr();
    let (held, release) = (Barrier::new(2), Barrier::new(2));

    let (refused, served) = std::thread::scope(|ts| {
        // Hold the store's write lock, so every admitted query parks on
        // the read guard with its admission ticket held.
        ts.spawn(|| {
            store.reconfigure(|_| {
                held.wait();
                release.wait();
            })
        });
        held.wait();
        let (tx, replies) = mpsc::channel();
        for i in 0..CAP + EXCESS {
            let (tx, text) = (tx.clone(), &text);
            // One client id per sender, so each holds at most one slot
            // and only the queue cap can refuse.
            ts.spawn(move || {
                let mut client = ServeClient::connect(addr, &format!("c{i}")).unwrap();
                tx.send(client.query(text, None)).unwrap();
            });
        }
        // While the lock is held nothing admitted can answer, so the
        // first replies are the refusals. Release before asserting, so a
        // failure cannot leave the lock held and the scope hung.
        let refused: Vec<_> = (0..EXCESS).map(|_| replies.recv_timeout(WAIT)).collect();
        release.wait();
        let served: Vec<_> = (0..CAP).map(|_| replies.recv_timeout(WAIT)).collect();
        (refused, served)
    });

    for reply in refused {
        let reply = reply.expect("a reply in time").expect("no transport error");
        assert_eq!(reply.http_status, 429);
        assert_eq!(reply.reason.as_deref(), Some("queue_full"));
    }
    for reply in served {
        let reply = reply.expect("a reply in time").expect("no transport error");
        assert!(
            reply.is_ok(),
            "admitted query answered {}",
            reply.http_status
        );
    }
    assert_eq!(
        handle.max_pending(),
        CAP,
        "the queue filled to its cap, no further"
    );
    let stats = handle.shutdown();
    assert_eq!((stats.accepted, stats.completed), (CAP as u64, CAP as u64));
    assert_eq!(stats.rejected_queue_full, EXCESS as u64);
    assert_eq!(stats.rejected_fair_share, 0);
}

#[test]
fn zero_deadline_expires_before_execution() {
    let store = small_store();
    let (handle, _sched) = start(store, 1, AdmissionConfig::new(8, 2));
    let mut client = ServeClient::connect(handle.local_addr(), "d").unwrap();
    let reply = client.query(&queries()[0], Some(0)).unwrap();
    assert!(reply.is_deadline_expired(), "got {}", reply.http_status);
    assert_eq!(reply.reason.as_deref(), Some("deadline_expired"));
    let stats = handle.shutdown();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.completed, 0, "expired work must never execute");
}

#[test]
fn shutdown_while_queued_drains_inflight_and_refuses_new() {
    let store = small_store();
    let (handle, _sched) = start(Arc::clone(&store), 1, AdmissionConfig::new(8, 2));

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let query_text = queries()[0].clone();

    std::thread::scope(|ts| {
        // Hold the store's write lock until the gate opens, so the
        // client's query is admitted and then genuinely queued on the
        // read guard when shutdown starts.
        let (held_tx, held) = mpsc::channel();
        let gate_reconf = Arc::clone(&gate);
        let store_ref = &store;
        let reconf = ts.spawn(move || {
            store_ref.reconfigure(|_| {
                held_tx.send(()).unwrap();
                let (lock, cv) = &*gate_reconf;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
        });
        held.recv().unwrap();

        // Client 1: admitted, then queued behind the reconfiguration.
        let addr = handle.local_addr();
        let q1 = query_text.clone();
        let inflight = ts.spawn(move || {
            let mut c = ServeClient::connect(addr, "inflight").unwrap();
            c.query(&q1, None).unwrap()
        });
        handle.wait_pending(1);

        // Client 2 connects while the server still accepts...
        let mut late = ServeClient::connect(addr, "late").unwrap();
        // connect() returns once the kernel has the connection, which may
        // still sit in the listen backlog; shutdown drops those unserved,
        // and the unwrap below would then panic with the gate shut and
        // hang the scope. A round trip proves a handler owns the socket.
        assert_eq!(late.health().unwrap().0, 200);

        // ...then shutdown starts; it blocks draining client 1.
        let shutter = ts.spawn(|| handle.shutdown());
        handle.wait_draining();

        // New work after drain began is refused with a typed 503.
        let refused = late.query(&query_text, None).unwrap();
        assert_eq!(refused.http_status, 503);
        assert_eq!(refused.reason.as_deref(), Some("draining"));

        // Open the gate: the reconfiguration finishes, the queued query
        // executes and the drain completes with its response written.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        reconf.join().unwrap();
        let reply = inflight.join().unwrap();
        assert!(reply.is_ok(), "queued query must complete through drain");
        assert_eq!(reply.epoch, 1, "the query ran after the reconfiguration");
        let stats = shutter.join().unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected_draining, 1);
    });
}

#[test]
fn connection_limit_answers_503_immediately() {
    let store = small_store();
    let sched = Arc::new(Scheduler::new(1));
    let handle = Server::start(
        store,
        sched,
        ServeConfig {
            admission: AdmissionConfig::new(8, 2),
            max_connections: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut first = ServeClient::connect(handle.local_addr(), "a").unwrap();
    let (code, _) = first.health().unwrap();
    assert_eq!(code, 200);
    // The second connection is turned away before any request is read.
    let r = RawConn::connect(handle.local_addr()).read();
    assert_eq!(r.status, 503);
    assert!(r.body_str().unwrap().contains("connection_limit"));
    handle.shutdown();
}
