//! `kgdual-serve`: the online serving front-end of the dual-store.
//!
//! The paper (Qi, Wang & Zhang, ICDE 2022) positions the dual-store as
//! a *live* knowledge-graph service; until this crate, the reproduction
//! only accepted whole batches through the bench harness. `kgdual-serve`
//! closes that gap: a std-TCP front-end with a minimal HTTP/1.1 shim
//! (no crates.io access in this environment — see `shims/README.md`)
//! that accepts a continuous stream of queries from many concurrent
//! clients and executes each one on its connection's thread under a
//! shared read guard, with no whole-batch barrier on the serving path.
//!
//! The crate is organised as:
//!
//! - [`proto`] — the HTTP/1.1 subset on the wire (requests in,
//!   fixed-length keep-alive responses out);
//! - [`json`] — a hand-rolled JSON reader/writer for the payloads;
//! - [`admission`] — the bounded, per-client-fair front door;
//! - [`server`] — the accept loop, endpoint dispatch, and the
//!   query execution path ([`Server::start`] / [`ServeHandle`]);
//! - [`client`] — a blocking client + digest helpers for the load
//!   generator and the equivalence suite;
//! - [`obs`] — serve instruments registered with `kgdual-obs`.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/query` | POST | execute one SPARQL query (JSON in, rows + stats out) |
//! | `/health` | GET | liveness: status, epoch, pending depth, drain flag |
//! | `/metrics` | GET | `kgdual-obs` snapshot (Prometheus; `?format=json` for JSON) plus serve latency percentiles |
//! | `/checkpoint` | POST | live design checkpoint under the store's write lock |
//! | `/shutdown` | POST | request a graceful drain-and-exit |
//!
//! ## Overload semantics
//!
//! Admission control ([`AdmissionController`]) bounds the pending queue
//! and enforces per-client fair shares once the system is contended;
//! rejected requests get typed 429/503/504 answers immediately instead
//! of queueing, so memory stays bounded under any offered load.
//!
//! ## Determinism
//!
//! The serving path adds no nondeterminism on top of the executor: a
//! seeded serial replay through a socket returns byte-identical rows,
//! row order, work units, and simulated latency to the batch path. The
//! wire cells of `kgdual-bench`'s equivalence suite pin this across
//! thread counts, with tuning between batches and across a restart.

pub mod admission;
pub mod client;
pub mod json;
pub mod obs;
pub mod proto;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmissionController, RejectReason};
pub use client::{ClientError, DigestBuilder, QueryReply, ServeClient};
pub use obs::{serve_obs, ServeObs};
pub use server::{route_name, ServeConfig, ServeHandle, ServeStatsSnapshot, Server};
