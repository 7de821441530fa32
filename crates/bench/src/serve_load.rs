//! Driving the serving front-end from the harness.
//!
//! Shared by `serve_store`, `kgdual-explain`, the equivalence suite's
//! wire cells and the serving smoke test: the workload's distinct query
//! pool, and a serial replay of it over one connection whose digest is
//! comparable byte for byte with the batch executor's.

use crate::args::BenchArgs;
use kgdual_serve::{ClientError, DigestBuilder, QueryReply, ServeClient};
use std::net::SocketAddr;

/// Single-client serial replay of `queries` in order. Returns the wire
/// digest (the batch path's `results_digest` encoding) plus every reply
/// for field-level comparison — the serve-equivalence fingerprint.
pub fn serial_replay(
    addr: SocketAddr,
    queries: &[String],
) -> Result<(Vec<u8>, Vec<QueryReply>), ClientError> {
    let mut conn = ServeClient::connect(addr, "replay")?;
    let mut digest = DigestBuilder::new();
    let mut replies = Vec::with_capacity(queries.len());
    for q in queries {
        let reply = conn.query(q, None)?;
        digest.push_reply(&reply);
        replies.push(reply);
    }
    Ok((digest.finish(), replies))
}

/// Distinct query texts of the YAGO workload, in template order.
pub fn query_pool(args: &BenchArgs) -> Vec<String> {
    let workload = crate::setup::build_workload(crate::experiments::WorkloadKind::Yago, args);
    workload.ordered().iter().map(|q| q.to_string()).collect()
}
