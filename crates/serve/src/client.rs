//! A blocking client for the serve wire protocol.
//!
//! Used by the equivalence suite's wire cells, the serving smoke test
//! and the server tests — one keep-alive connection, synchronous
//! request/response. The digest helpers mirror the batch executor's
//! encoding exactly so wire results can be fingerprinted against the
//! batch path byte for byte.

use crate::json::{self, Json};
use crate::proto::{self, ProtoError};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// The parsed reply to one `/query` request.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// HTTP status code (200 ok, 429/503 rejected, 504 expired, …).
    pub http_status: u16,
    /// The wire `status` field (`ok`, `rejected`, `error`).
    pub status: String,
    /// Rejection/error reason when not ok.
    pub reason: Option<String>,
    /// Projected variable names.
    pub vars: Vec<String>,
    /// Result rows as raw node-id u32s, in server execution order.
    pub rows: Vec<Vec<u32>>,
    /// Deterministic work units across both stores.
    pub work_units: u64,
    /// Deterministic simulated latency, nanoseconds.
    pub sim_latency_ns: u64,
    /// Route taken (`relational`, `graph`, `dual`, `view_assisted`,
    /// `empty`).
    pub route: String,
    /// Store reconfiguration epoch the query observed.
    pub epoch: u64,
    /// The `EXPLAIN` plan object, when the request asked for one.
    pub plan: Option<Json>,
    /// The `EXPLAIN ANALYZE` profile object (`"explain": "analyze"`).
    pub profile: Option<Json>,
}

impl QueryReply {
    /// Whether the query executed successfully.
    pub fn is_ok(&self) -> bool {
        self.http_status == 200
    }

    /// Whether admission control or drain refused the request.
    pub fn is_rejected(&self) -> bool {
        self.http_status == 429 || self.http_status == 503
    }

    /// Whether the request's deadline expired before execution.
    pub fn is_deadline_expired(&self) -> bool {
        self.http_status == 504
    }
}

/// Errors a client call can surface.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or protocol failure.
    Proto(ProtoError),
    /// The server answered, but the body was not the expected shape.
    BadReply(String),
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::BadReply(what) => write!(f, "bad reply: {what}"),
        }
    }
}

/// One blocking keep-alive connection to a serve front-end.
pub struct ServeClient {
    /// The socket, read through one buffer for the connection's life so
    /// a reply costs one `read(2)`, not one per byte; requests are
    /// written to the socket underneath it.
    reader: BufReader<TcpStream>,
    client_id: String,
}

impl ServeClient {
    /// Connect to `addr`, identifying as `client_id` on every query.
    pub fn connect(addr: SocketAddr, client_id: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Small request/reply frames: Nagle + delayed ACK would add a
        // ~40 ms stall per round trip.
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            reader: BufReader::new(stream),
            client_id: client_id.to_owned(),
        })
    }

    /// The client id sent with each query.
    pub fn client_id(&self) -> &str {
        &self.client_id
    }

    fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<proto::Response, ClientError> {
        let body = body.unwrap_or("");
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: kgdual\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        let mut stream = self.reader.get_ref();
        stream.write_all(&wire)?;
        stream.flush()?;
        Ok(proto::read_response(&mut self.reader)?)
    }

    /// Submit one query; `deadline_ms` of `None` means no deadline.
    pub fn query(
        &mut self,
        query: &str,
        deadline_ms: Option<u64>,
    ) -> Result<QueryReply, ClientError> {
        self.query_explain(query, deadline_ms, None)
    }

    /// Submit one query with an `"explain"` mode (`"plan"` or
    /// `"analyze"`); the reply then carries [`QueryReply::plan`] (and,
    /// for analyze, [`QueryReply::profile`]) alongside the usual rows.
    pub fn query_explain(
        &mut self,
        query: &str,
        deadline_ms: Option<u64>,
        explain: Option<&str>,
    ) -> Result<QueryReply, ClientError> {
        let mut body = format!(
            "{{\"client\":{},\"query\":{}",
            json::escape(&self.client_id),
            json::escape(query),
        );
        if let Some(d) = deadline_ms {
            body.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if let Some(mode) = explain {
            body.push_str(&format!(",\"explain\":{}", json::escape(mode)));
        }
        body.push('}');
        let response = self.roundtrip("POST", "/query", Some(&body))?;
        parse_query_reply(&response)
    }

    /// `GET /health` as `(status_code, body)`.
    pub fn health(&mut self) -> Result<(u16, String), ClientError> {
        let r = self.roundtrip("GET", "/health", None)?;
        Ok((r.status, r.body_str()?.to_owned()))
    }

    /// `GET /metrics` (Prometheus text, or JSON with `json = true`).
    pub fn metrics(&mut self, json_format: bool) -> Result<(u16, String), ClientError> {
        let path = if json_format {
            "/metrics?format=json"
        } else {
            "/metrics"
        };
        let r = self.roundtrip("GET", path, None)?;
        Ok((r.status, r.body_str()?.to_owned()))
    }

    /// `POST /checkpoint` — live snapshot taken under the store's write
    /// lock.
    pub fn checkpoint(&mut self) -> Result<(u16, String), ClientError> {
        let r = self.roundtrip("POST", "/checkpoint", None)?;
        Ok((r.status, r.body_str()?.to_owned()))
    }

    /// `POST /shutdown` — ask the serving binary to drain and exit.
    pub fn shutdown(&mut self) -> Result<(u16, String), ClientError> {
        let r = self.roundtrip("POST", "/shutdown", None)?;
        Ok((r.status, r.body_str()?.to_owned()))
    }
}

fn parse_query_reply(response: &proto::Response) -> Result<QueryReply, ClientError> {
    let body = json::parse(response.body_str()?).map_err(ClientError::BadReply)?;
    let field_str = |k: &str| body.get(k).and_then(Json::as_str).map(str::to_owned);
    let field_u64 = |k: &str| body.get(k).and_then(Json::as_u64).unwrap_or(0);
    let status =
        field_str("status").ok_or_else(|| ClientError::BadReply("missing status".into()))?;
    let mut rows = Vec::new();
    if let Some(wire_rows) = body.get("rows").and_then(Json::as_arr) {
        rows.reserve(wire_rows.len());
        for row in wire_rows {
            let cells = row
                .as_arr()
                .ok_or_else(|| ClientError::BadReply("row is not an array".into()))?;
            let mut out = Vec::with_capacity(cells.len());
            for c in cells {
                let v = c
                    .as_u64()
                    .filter(|v| *v <= u32::MAX as u64)
                    .ok_or_else(|| ClientError::BadReply("cell is not a u32".into()))?;
                out.push(v as u32);
            }
            rows.push(out);
        }
    }
    let vars = body
        .get("vars")
        .and_then(Json::as_arr)
        .map(|vs| {
            vs.iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default();
    Ok(QueryReply {
        http_status: response.status,
        status,
        reason: field_str("reason"),
        vars,
        rows,
        work_units: field_u64("work_units"),
        sim_latency_ns: field_u64("sim_latency_ns"),
        route: field_str("route").unwrap_or_default(),
        epoch: field_u64("epoch"),
        plan: body.get("plan").cloned(),
        profile: body.get("profile").cloned(),
    })
}

/// Incrementally build the batch executor's results digest from wire
/// replies. Encoding (kept byte-identical with
/// `kgdual_exec::executor::results_digest`): per query, rows are sorted,
/// then `row_count as u64` little-endian followed by every cell as a
/// `u32` little-endian; a failed query contributes a `u64::MAX` marker.
#[derive(Default)]
pub struct DigestBuilder {
    bytes: Vec<u8>,
}

impl DigestBuilder {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one successful query's rows (takes them unsorted).
    pub fn push_rows(&mut self, rows: &[Vec<u32>]) {
        let mut sorted: Vec<&Vec<u32>> = rows.iter().collect();
        sorted.sort();
        self.bytes
            .extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for row in sorted {
            for cell in row {
                self.bytes.extend_from_slice(&cell.to_le_bytes());
            }
        }
    }

    /// Fold in one failed query.
    pub fn push_failure(&mut self) {
        self.bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    }

    /// Fold in one wire reply (failure marker unless it is a 200).
    pub fn push_reply(&mut self, reply: &QueryReply) {
        if reply.is_ok() {
            self.push_rows(&reply.rows);
        } else {
            self.push_failure();
        }
    }

    /// The accumulated digest bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_encoding_matches_contract() {
        // Two rows, deliberately out of sorted order on the wire.
        let mut d = DigestBuilder::new();
        d.push_rows(&[vec![7, 2], vec![1, 9]]);
        d.push_failure();
        let bytes = d.finish();
        let mut expect = Vec::new();
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&1u32.to_le_bytes());
        expect.extend_from_slice(&9u32.to_le_bytes());
        expect.extend_from_slice(&7u32.to_le_bytes());
        expect.extend_from_slice(&2u32.to_le_bytes());
        expect.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(bytes, expect);
    }

    #[test]
    fn query_reply_parses_ok_and_rejection_bodies() {
        let ok = proto::Response {
            status: 200,
            headers: vec![],
            body: br#"{"status":"ok","vars":["p","c"],"pred_vars":[],"rows":[[1,2],[3,4]],"row_count":2,"work_units":10,"sim_latency_ns":500,"route":"relational","epoch":0}"#.to_vec(),
        };
        let r = parse_query_reply(&ok).unwrap();
        assert!(r.is_ok());
        assert_eq!(r.vars, vec!["p", "c"]);
        assert_eq!(r.rows, vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(r.work_units, 10);
        assert_eq!(r.route, "relational");

        let rejected = proto::Response {
            status: 429,
            headers: vec![],
            body: br#"{"status":"rejected","reason":"queue_full"}"#.to_vec(),
        };
        let r = parse_query_reply(&rejected).unwrap();
        assert!(r.is_rejected());
        assert_eq!(r.reason.as_deref(), Some("queue_full"));
        assert!(r.rows.is_empty());
    }
}
