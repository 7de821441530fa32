//! The serving front-end: streaming query arrival over TCP.
//!
//! [`Server::start`] binds a listener and executes each incoming
//! `/query` request on the thread that owns its connection — there is no
//! whole-batch barrier anywhere on this path, which is the point of the
//! subsystem: queries from many concurrent clients interleave freely
//! under one shared read guard.
//!
//! A connection carries one request at a time, so handing its query to
//! a pool worker and waiting for it would buy no concurrency, only a
//! hand-off; the number of queries executing at once is bounded by the
//! admission queue cap instead.
//!
//! Life of a request:
//!
//! 1. a connection-handler thread frames one HTTP request out of the
//!    connection's read buffer (keep-alive; pipelined bytes stay
//!    buffered for the next request);
//! 2. `/query` bodies pass the deadline check, then buy an admission
//!    ticket ([`crate::admission`]) — overload answers with a typed 429
//!    before any parsing or execution happens, so rejected requests
//!    cost O(1) and queue memory stays bounded;
//! 3. the SPARQL text is parsed, a read guard on the [`SharedStore`] is
//!    taken, the deadline is checked once more, and the query runs on
//!    the connection thread — tagged `query`-class, inside a `task`
//!    span — through [`process`] with the routed policy, which keeps its
//!    §3.3 intermediates in locals, so no lock is taken for them;
//! 4. the response (rows + stats) is written, *then* the ticket is
//!    released — so the drain barrier in [`ServeHandle::shutdown`]
//!    also waits for the response bytes.
//!
//! Determinism: request handling introduces no new nondeterminism —
//! rows, row order, work units, simulated latency, and route come
//! straight from [`process`], so a serial replay through a socket is
//! byte-identical to the batch path (pinned by the wire cells of
//! `kgdual-bench`'s equivalence suite).

use crate::admission::{Admission, AdmissionConfig, AdmissionController, RejectReason};
use crate::json::{self, Json};
use crate::obs::serve_obs;
use crate::proto::{self, ProtoError, Request, Status};
use kgdual_core::processor::{process, Options, QueryOutcome, Route};
use kgdual_exec::SharedStore;
use kgdual_graphstore::GraphBackend;
use kgdual_sched::{Scheduler, TaskClass};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for a free port (report it via
    /// [`ServeHandle::local_addr`]).
    pub addr: String,
    /// Admission policy for `/query`.
    pub admission: AdmissionConfig,
    /// Maximum simultaneously open connections; excess accepts are
    /// answered 503 and closed immediately.
    pub max_connections: usize,
    /// Deadline applied when a request carries none. `None` means
    /// unbounded.
    pub default_deadline_ms: Option<u64>,
    /// Where graceful shutdown flushes the trace ring buffers (JSON
    /// lines). `None` skips the flush; with observability off there are
    /// no spans and the file is created empty.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            admission: AdmissionConfig::new(64, 8),
            max_connections: 256,
            default_deadline_ms: None,
            trace_out: None,
        }
    }
}

/// Deterministic serving counters, independent of `KGDUAL_OBS`.
///
/// The obs instruments in [`crate::obs`] mirror these, but admission
/// decisions, the smoke fingerprint, and tests read these plain atomics
/// so observability on/off can never change observable behaviour.
#[derive(Default)]
pub struct ServeStats {
    accepted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_fair_share: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_draining: AtomicU64,
    http_errors: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

/// Point-in-time copy of [`ServeStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStatsSnapshot {
    /// Requests that passed admission.
    pub accepted: u64,
    /// 429s from a full queue.
    pub rejected_queue_full: u64,
    /// 429s from fair-share enforcement.
    pub rejected_fair_share: u64,
    /// 504s from expired deadlines.
    pub rejected_deadline: u64,
    /// 503s while draining.
    pub rejected_draining: u64,
    /// Malformed requests / unknown endpoints.
    pub http_errors: u64,
    /// Queries executed to a 200.
    pub completed: u64,
    /// Queries that reached execution but failed (500).
    pub failed: u64,
}

impl ServeStats {
    fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_fair_share: self.rejected_fair_share.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            http_errors: self.http_errors.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the accept loop, every connection handler, and the
/// [`ServeHandle`] — deliberately non-generic so the handle stays plain.
struct Inner {
    admission: AdmissionController,
    stats: ServeStats,
    /// Handles to every open connection so drain can unblock their
    /// blocking reads with a socket shutdown.
    conns: parking_lot::Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    open_conns: Mutex<usize>,
    conns_changed: Condvar,
    /// Set once shutdown starts: accept loop exits, handlers close.
    stopping: AtomicBool,
    /// Set by `POST /shutdown`; the serving binary polls it and calls
    /// [`ServeHandle::shutdown`] from outside the handler threads.
    shutdown_requested: AtomicBool,
    /// Trace-flush destination for graceful shutdown (from
    /// [`ServeConfig::trace_out`]).
    trace_out: Option<std::path::PathBuf>,
}

/// A running server. Dropping the handle stops accepting and closes
/// connections without waiting for the full drain; call
/// [`ServeHandle::shutdown`] for the graceful path.
pub struct ServeHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

/// The serving front-end. See the module docs; construct via
/// [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `config.addr` and start serving `store`.
    ///
    /// Spawns one accept thread plus one (detached) handler thread per
    /// connection; a query executes on its connection's thread, and
    /// `/checkpoint` serialises on its connection's thread too.
    ///
    /// `_sched` is inert: kgbench links it (`benchmark/src/sut.rs:459`);
    /// ROADMAP 14(c)'s benchmark change deletes it.
    pub fn start<B>(
        store: Arc<SharedStore<B>>,
        _sched: Arc<Scheduler>,
        config: ServeConfig,
    ) -> std::io::Result<ServeHandle>
    where
        B: GraphBackend + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            admission: AdmissionController::new(config.admission),
            stats: ServeStats::default(),
            conns: parking_lot::Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            open_conns: Mutex::new(0),
            conns_changed: Condvar::new(),
            stopping: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            trace_out: config.trace_out.clone(),
        });

        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_inner, store, config);
            })?;

        Ok(ServeHandle {
            inner,
            addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }
}

impl ServeHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Deterministic serving counters so far.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Admitted-but-unfinished requests right now.
    pub fn pending(&self) -> usize {
        self.inner.admission.pending()
    }

    /// High-water mark of the pending queue (must never exceed the
    /// configured cap; the overload bench asserts this).
    pub fn max_pending(&self) -> usize {
        self.inner.admission.max_pending()
    }

    /// Whether a client issued `POST /shutdown`. The serving binary
    /// polls this and then calls [`ServeHandle::shutdown`] itself —
    /// shutting down from inside a handler thread would self-deadlock
    /// on the connection-drain barrier.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::Acquire)
    }

    /// Block until at least `n` requests are pending. Test-ordering aid
    /// for shutdown-while-queued scenarios — no production caller waits
    /// for load to build up.
    pub fn wait_pending(&self, n: usize) {
        self.inner.admission.wait_pending(n);
    }

    /// Block until a shutdown has started refusing new queries. Lets a
    /// test act strictly "after drain began" without sleeping.
    pub fn wait_draining(&self) {
        self.inner.admission.wait_draining();
    }

    /// Gracefully stop: refuse new queries, drain admitted ones (their
    /// responses included), close every connection, join the accept
    /// loop. Safe to call from multiple threads; returns the final
    /// counters.
    pub fn shutdown(&self) -> ServeStatsSnapshot {
        let inner = &self.inner;
        inner.stopping.store(true, Ordering::Release);
        inner.admission.begin_drain();
        // Wake the blocking accept() so the loop observes `stopping`.
        let _ = TcpStream::connect(self.addr);
        // Wait for every admitted request to finish writing its response.
        inner.admission.wait_drained();
        // Unblock handler threads parked in read_request().
        for (_, conn) in inner.conns.lock().iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        {
            let mut open = inner.open_conns.lock().unwrap();
            while *open > 0 {
                open = inner.conns_changed.wait(open).unwrap();
            }
        }
        if let Some(t) = self.accept_thread.lock().unwrap().take() {
            let _ = t.join();
        }
        // All responses are written and every handler is gone: flush the
        // trace ring buffers so the spans of the final requests survive
        // process exit.
        if let Some(path) = &inner.trace_out {
            match kgdual_obs::JsonLinesSink::create(path) {
                Ok(mut sink) => {
                    let n = kgdual_obs::global().trace().drain_to(&mut sink);
                    if let Err(e) = sink.flush() {
                        eprintln!("serve: trace flush to {} failed: {e}", path.display());
                    } else {
                        eprintln!("serve: flushed {n} spans to {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("serve: cannot open trace sink {}: {e}", path.display());
                }
            }
        }
        inner.stats.snapshot()
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        // Fast abort path for handles dropped without shutdown(): stop
        // accepting and cut connections, but do not wait for the drain.
        if let Some(t) = self.accept_thread.lock().unwrap().take() {
            self.inner.stopping.store(true, Ordering::Release);
            self.inner.admission.begin_drain();
            let _ = TcpStream::connect(self.addr);
            for (_, conn) in self.inner.conns.lock().iter() {
                let _ = conn.shutdown(Shutdown::Both);
            }
            let _ = t.join();
        }
    }
}

/// Decrements the open-connection count (and deregisters the socket)
/// even if a handler panics.
struct ConnGuard {
    inner: Arc<Inner>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.inner.conns.lock().remove(&self.id);
        let mut open = self.inner.open_conns.lock().unwrap();
        *open -= 1;
        self.inner.conns_changed.notify_all();
    }
}

fn accept_loop<B>(
    listener: TcpListener,
    inner: Arc<Inner>,
    store: Arc<SharedStore<B>>,
    config: ServeConfig,
) where
    B: GraphBackend + Send + Sync + 'static,
{
    for conn in listener.incoming() {
        if inner.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Responses are small request/reply exchanges; leaving Nagle on
        // costs a delayed-ACK round trip (~40 ms) per reply.
        let _ = stream.set_nodelay(true);
        let at_limit = {
            let mut open = inner.open_conns.lock().unwrap();
            if *open >= config.max_connections {
                true
            } else {
                *open += 1;
                false
            }
        };
        if at_limit {
            inner.stats.http_errors.fetch_add(1, Ordering::Relaxed);
            let _ = proto::write_json(
                &mut stream,
                Status::Unavailable,
                "{\"status\":\"rejected\",\"reason\":\"connection_limit\"}",
                true,
            );
            continue;
        }
        let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            inner.conns.lock().insert(id, clone);
        }
        let guard = ConnGuard {
            inner: Arc::clone(&inner),
            id,
        };
        let served = Served {
            inner: Arc::clone(&inner),
            store: Arc::clone(&store),
            config: config.clone(),
        };
        let spawned = std::thread::Builder::new()
            .name(format!("serve-conn-{id}"))
            .spawn(move || {
                let _guard = guard;
                handle_connection(stream, &served);
            });
        // On spawn failure the unstarted closure is dropped, taking the
        // guard (and the connection accounting) with it.
        if let Err(e) = spawned {
            eprintln!("serve: could not spawn handler: {e}");
        }
    }
}

/// What a connection's requests are served against.
struct Served<B: GraphBackend> {
    inner: Arc<Inner>,
    store: Arc<SharedStore<B>>,
    config: ServeConfig,
}

fn handle_connection<B>(stream: TcpStream, served: &Served<B>)
where
    B: GraphBackend + Send + Sync + 'static,
{
    let inner = &served.inner;
    // One read buffer for the connection's whole life: bytes read past
    // one request are the start of the next.
    let mut reader = BufReader::new(&stream);
    let mut out = &stream;
    loop {
        let request = match proto::read_request(&mut reader) {
            Ok(r) => r,
            Err(ProtoError::Closed) | Err(ProtoError::Io(_)) => return,
            Err(ProtoError::Malformed(what)) | Err(ProtoError::TooLarge(what)) => {
                inner.stats.http_errors.fetch_add(1, Ordering::Relaxed);
                serve_obs().http_errors.inc();
                let body = format!("{{\"status\":\"error\",\"reason\":{}}}", json::escape(what));
                let _ = proto::write_json(&mut out, Status::BadRequest, &body, true);
                return;
            }
        };
        let arrival = Instant::now();
        let draining = inner.stopping.load(Ordering::Acquire) || inner.admission.draining();
        let keep_open = dispatch(&mut out, &request, arrival, draining, served);
        // Honour the client's `Connection: close` (one-shot scrapers):
        // responses carry a Content-Length, so closing after the write
        // is unambiguous regardless of the advertised keep-alive.
        let client_close = request
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if !keep_open || draining || client_close {
            return;
        }
    }
}

/// Route one request; returns whether the connection should stay open.
fn dispatch<B>(
    stream: &mut impl Write,
    request: &Request,
    arrival: Instant,
    draining: bool,
    served: &Served<B>,
) -> bool
where
    B: GraphBackend + Send + Sync + 'static,
{
    let Served {
        inner,
        store,
        config,
    } = served;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => {
            handle_query(stream, request, arrival, inner, store, config, draining)
        }
        ("GET", "/health") => {
            let body = format!(
                "{{\"status\":{},\"epoch\":{},\"pending\":{},\"draining\":{}}}",
                if draining { "\"draining\"" } else { "\"ok\"" },
                store.epoch(),
                inner.admission.pending(),
                draining,
            );
            proto::write_json(stream, Status::Ok, &body, draining).is_ok()
        }
        ("GET", "/metrics") => {
            // Touch the serving instruments first: registration is lazy,
            // and a scrape that races the first query must still see the
            // serve_* families (at zero) in the snapshot.
            let wall = serve_obs().request_wall_ns.snapshot();
            let queue_wait = serve_obs().queue_wait_ns.snapshot();
            let snap = kgdual_obs::global().metrics().snapshot();
            let ok = if request.query_param("format") == Some("json") {
                proto::write_json(stream, Status::Ok, &snap.to_json(), draining)
            } else {
                let mut text = snap.to_prometheus();
                // Latency percentiles as derived gauges, so scrapes see
                // tail latency without client-side bucket math.
                for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)] {
                    text.push_str(&format!(
                        "serve_request_wall_ns_{label} {}\n",
                        wall.quantile(q)
                    ));
                }
                // Same for admission-queue wait, the scheduling-pressure
                // signal the admission controller's cap is tuned against.
                for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                    text.push_str(&format!(
                        "serve_queue_wait_ns_{label} {}\n",
                        queue_wait.quantile(q)
                    ));
                }
                proto::write_response(
                    stream,
                    Status::Ok,
                    "text/plain; version=0.0.4",
                    text.as_bytes(),
                    draining,
                )
            };
            ok.is_ok()
        }
        ("POST", "/checkpoint") => {
            if draining {
                let _ = proto::write_json(
                    stream,
                    Status::Unavailable,
                    "{\"status\":\"rejected\",\"reason\":\"draining\"}",
                    true,
                );
                return false;
            }
            // Takes the store's write lock (waiting out in-flight
            // queries) and serialises on this thread, then service
            // resumes — a live snapshot without stopping the server.
            let snapshot = store.checkpoint(None);
            let body = format!(
                "{{\"status\":\"ok\",\"bytes\":{},\"epoch\":{}}}",
                snapshot.len(),
                store.epoch(),
            );
            proto::write_json(stream, Status::Ok, &body, false).is_ok()
        }
        ("POST", "/shutdown") => {
            inner.shutdown_requested.store(true, Ordering::Release);
            let _ = proto::write_json(
                stream,
                Status::Accepted,
                "{\"status\":\"shutting_down\"}",
                true,
            );
            false
        }
        (_, "/query" | "/health" | "/metrics" | "/checkpoint" | "/shutdown") => {
            inner.stats.http_errors.fetch_add(1, Ordering::Relaxed);
            serve_obs().http_errors.inc();
            let _ = proto::write_json(
                stream,
                Status::MethodNotAllowed,
                "{\"status\":\"error\",\"reason\":\"method not allowed\"}",
                draining,
            );
            true
        }
        _ => {
            inner.stats.http_errors.fetch_add(1, Ordering::Relaxed);
            serve_obs().http_errors.inc();
            let _ = proto::write_json(
                stream,
                Status::NotFound,
                "{\"status\":\"error\",\"reason\":\"no such endpoint\"}",
                draining,
            );
            true
        }
    }
}

/// The `"explain"` request field: return the plan, or the plan plus the
/// execution profile. Either way the query still executes fully — rows,
/// digests, and stats are unchanged; EXPLAIN only adds response fields.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Explain {
    Plan,
    Analyze,
}

/// Releases an admission ticket when the response has been written
/// (or the handler unwound), keeping the obs gauge in lockstep.
struct Ticket<'a> {
    admission: &'a AdmissionController,
    client: &'a str,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.admission.release(self.client);
        serve_obs().queue_depth.dec();
    }
}

fn reject_body(reason: RejectReason) -> (&'static str, Status) {
    match reason {
        RejectReason::QueueFull => (
            "{\"status\":\"rejected\",\"reason\":\"queue_full\"}",
            Status::TooManyRequests,
        ),
        RejectReason::FairShare => (
            "{\"status\":\"rejected\",\"reason\":\"fair_share\"}",
            Status::TooManyRequests,
        ),
        RejectReason::Draining => (
            "{\"status\":\"rejected\",\"reason\":\"draining\"}",
            Status::Unavailable,
        ),
    }
}

fn handle_query<B>(
    stream: &mut impl Write,
    request: &Request,
    arrival: Instant,
    inner: &Arc<Inner>,
    store: &Arc<SharedStore<B>>,
    config: &ServeConfig,
    draining: bool,
) -> bool
where
    B: GraphBackend + Send + Sync + 'static,
{
    let wall = kgdual_obs::timer();
    // The request's root span: everything this request causes — the
    // admission decision and the query-class execution on this thread —
    // hangs off this span id, so a drained trace reconstructs one rooted
    // tree per request.
    let _req_span = kgdual_obs::span!("request");
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(json::parse);
    let body = match parsed {
        Ok(b) => b,
        Err(e) => {
            inner.stats.http_errors.fetch_add(1, Ordering::Relaxed);
            serve_obs().http_errors.inc();
            let msg = format!("{{\"status\":\"error\",\"reason\":{}}}", json::escape(&e));
            let _ = proto::write_json(stream, Status::BadRequest, &msg, draining);
            return true;
        }
    };
    let client = body
        .get("client")
        .and_then(Json::as_str)
        .unwrap_or("anon")
        .to_owned();
    let Some(query_text) = body.get("query").and_then(Json::as_str) else {
        inner.stats.http_errors.fetch_add(1, Ordering::Relaxed);
        serve_obs().http_errors.inc();
        let _ = proto::write_json(
            stream,
            Status::BadRequest,
            "{\"status\":\"error\",\"reason\":\"missing `query` field\"}",
            draining,
        );
        return true;
    };
    let deadline_ms = body
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .or(config.default_deadline_ms);
    let explain = match body.get("explain") {
        None => None,
        Some(v) => match v.as_str() {
            Some("plan") => Some(Explain::Plan),
            Some("analyze") => Some(Explain::Analyze),
            _ => {
                inner.stats.http_errors.fetch_add(1, Ordering::Relaxed);
                serve_obs().http_errors.inc();
                let _ = proto::write_json(
                    stream,
                    Status::BadRequest,
                    "{\"status\":\"error\",\"reason\":\"invalid `explain` (use \\\"plan\\\" or \\\"analyze\\\")\"}",
                    draining,
                );
                return true;
            }
        },
    };

    let expired = |at: Instant| {
        deadline_ms.is_some_and(|d| at.duration_since(arrival).as_millis() as u64 >= d)
    };

    // Deadline gate #1: a request that is already dead never buys a
    // queue slot (a zero deadline expires here deterministically).
    if expired(Instant::now()) {
        inner
            .stats
            .rejected_deadline
            .fetch_add(1, Ordering::Relaxed);
        serve_obs().rejected_deadline.inc();
        let _ = proto::write_json(
            stream,
            Status::DeadlineExpired,
            "{\"status\":\"rejected\",\"reason\":\"deadline_expired\"}",
            draining,
        );
        return true;
    }

    let admitted = {
        let _span = kgdual_obs::span!("admission");
        inner.admission.try_admit(&client)
    };
    match admitted {
        Admission::Admitted => {}
        Admission::Rejected(reason) => {
            match reason {
                RejectReason::QueueFull => {
                    inner
                        .stats
                        .rejected_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                    serve_obs().rejected_queue_full.inc();
                }
                RejectReason::FairShare => {
                    inner
                        .stats
                        .rejected_fair_share
                        .fetch_add(1, Ordering::Relaxed);
                    serve_obs().rejected_fair_share.inc();
                }
                RejectReason::Draining => {
                    inner
                        .stats
                        .rejected_draining
                        .fetch_add(1, Ordering::Relaxed);
                    serve_obs().rejected_draining.inc();
                }
            }
            let (msg, status) = reject_body(reason);
            let _ = proto::write_json(stream, status, msg, draining);
            return !matches!(reason, RejectReason::Draining);
        }
    }
    inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
    serve_obs().accepted.inc();
    serve_obs().queue_depth.inc();
    let ticket = Ticket {
        admission: &inner.admission,
        client: &client,
    };

    let query = match kgdual_sparql::parse(query_text) {
        Ok(q) => q,
        Err(e) => {
            inner.stats.failed.fetch_add(1, Ordering::Relaxed);
            let msg = format!(
                "{{\"status\":\"error\",\"reason\":{}}}",
                json::escape(&format!("parse error: {e:?}"))
            );
            let _ = proto::write_json(stream, Status::BadRequest, &msg, draining);
            drop(ticket);
            return true;
        }
    };

    // Execute right here: the connection has no other request to serve
    // meanwhile. The read guard spans only the execution, so
    // `/checkpoint`'s write acquire interleaves between requests, never
    // inside one.
    let queue_wait = kgdual_obs::timer();
    let outcome = {
        let guard = store.read();
        if let Some(ns) = queue_wait.elapsed_ns() {
            serve_obs().queue_wait_ns.record(ns);
        }
        // Deadline gate #2: the wait for the store counts against the
        // deadline; expired work is dropped before execution.
        if expired(Instant::now()) {
            None
        } else {
            // Tag the thread as the scheduler tags a Query task, so the
            // spans below look the same as a pooled query's.
            let prev_class = kgdual_obs::set_task_class(Some(TaskClass::Query.name()));
            let result = {
                let _task = kgdual_obs::span!("task", class = TaskClass::Query as usize);
                let opts = Options {
                    explain: explain.is_some(),
                    ..Options::default()
                };
                process(&guard, &query, opts)
            };
            kgdual_obs::set_task_class(prev_class);
            Some(result)
        }
    };

    let keep_open = match outcome {
        None => {
            inner
                .stats
                .rejected_deadline
                .fetch_add(1, Ordering::Relaxed);
            serve_obs().rejected_deadline.inc();
            let _ = proto::write_json(
                stream,
                Status::DeadlineExpired,
                "{\"status\":\"rejected\",\"reason\":\"deadline_expired\"}",
                draining,
            );
            true
        }
        Some(Err(e)) => {
            inner.stats.failed.fetch_add(1, Ordering::Relaxed);
            let msg = format!(
                "{{\"status\":\"error\",\"reason\":{}}}",
                json::escape(&format!("{e:?}"))
            );
            let _ = proto::write_json(stream, Status::InternalError, &msg, draining);
            true
        }
        Some(Ok(out)) => {
            inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            let body = outcome_json(&out, store.epoch(), explain);
            proto::write_json(stream, Status::Ok, &body, draining).is_ok()
        }
    };
    drop(ticket);
    if let Some(ns) = wall.elapsed_ns() {
        serve_obs().request_wall_ns.record(ns);
    }
    keep_open
}

/// Route names on the wire (stable; the equivalence suite compares
/// them against the batch path's `Route` values).
pub fn route_name(route: Route) -> &'static str {
    route.name()
}

/// Serialize a successful outcome for the wire. Row values are the raw
/// `NodeId` u32s in execution order — order is part of the determinism
/// contract (it pins `LIMIT` semantics), so no sorting happens here.
fn outcome_json(out: &QueryOutcome, epoch: u64, explain: Option<Explain>) -> String {
    let mut body = String::with_capacity(128 + out.results.len() * out.vars.len() * 8);
    body.push_str("{\"status\":\"ok\",\"vars\":[");
    for (i, v) in out.vars.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&json::escape(v.name()));
    }
    body.push_str("],\"pred_vars\":[");
    for (i, v) in out.pred_vars.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&json::escape(v.name()));
    }
    body.push_str("],\"rows\":[");
    for (i, row) in out.results.rows().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let _ = write!(body, "{}", cell.0);
        }
        body.push(']');
    }
    let _ = write!(
        body,
        "],\"row_count\":{},\"work_units\":{},\"sim_latency_ns\":{},\"route\":\"{}\",\"epoch\":{}",
        out.results.len(),
        out.total_work(),
        out.simulated_latency().as_nanos(),
        route_name(out.route),
        epoch,
    );
    if explain.is_some() {
        if let Some(plan) = &out.plan {
            let _ = write!(body, ",\"plan\":{}", plan.deterministic_json());
        }
        if explain == Some(Explain::Analyze) {
            if let Some(profile) = &out.profile {
                let _ = write!(body, ",\"profile\":{}", profile.to_json());
            }
        }
    }
    body.push('}');
    body
}
