//! Load generation against the serving front-end.
//!
//! Shared by the `bench_serve` binary (the tail-latency trajectory in
//! `docs/baselines/BENCH_serve.json`), the equivalence suite's wire
//! cells, and the CI smoke script. Two arrival regimes:
//!
//! - **closed** — `clients` threads, each a closed loop (send, wait for
//!   the response, send the next). Offered load never exceeds the
//!   client count, every request admits, and the deterministic totals
//!   (requests, completed, work units, result rows) are seed-stable —
//!   which is what the baseline drift check keys on.
//! - **open-overload** — requests fire on a precomputed arrival
//!   schedule regardless of completions, with more in-flight senders
//!   than the admission cap. Latency is measured from *scheduled*
//!   arrival to completion (queueing counts), rejections are expected
//!   and asserted, and the pending queue's high-water mark must stay at
//!   or under the configured cap — the bounded-memory guarantee under
//!   overload.
//!
//! The query mix is Zipfian over the workload's distinct queries with a
//! per-client seeded RNG, so client `i` of run `seed` always sends the
//! same request sequence.

use crate::args::BenchArgs;
use kgdual_serve::{ClientError, DigestBuilder, QueryReply, ServeClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Zipf exponent for the query mix (1.0 = classic Zipf; heavier head
/// than uniform, fat enough tail to touch every template).
pub const ZIPF_S: f64 = 1.0;

/// A seeded Zipfian sampler over `0..n` built from the closed-form CDF
/// (the offline `rand` shim has no distribution library).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `0..n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw one index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First bucket whose cumulative mass covers u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Load parameters for one regime run.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Concurrent clients (closed) / concurrent senders (open).
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Seed for the per-client query mixes.
    pub seed: u64,
}

/// What one regime run measured.
#[derive(Clone, Debug)]
pub struct RegimeResult {
    /// Requests sent.
    pub requests: u64,
    /// 200s.
    pub completed: u64,
    /// 429/503 admission rejections.
    pub rejected: u64,
    /// 504 deadline expiries.
    pub deadline_expired: u64,
    /// Transport-level failures (should be zero).
    pub errors: u64,
    /// Sum of work units over completed queries (deterministic).
    pub total_work: u64,
    /// Sum of result rows over completed queries (deterministic).
    pub total_rows: u64,
    /// Per-request end-to-end latencies, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
    /// Wall clock for the whole regime, seconds.
    pub wall_s: f64,
}

impl RegimeResult {
    /// Exact percentile (nearest-rank) over the recorded latencies.
    pub fn percentile_us(&self, q: f64) -> u64 {
        percentile_us(&self.latencies_us, q)
    }

    /// Completed requests per second of wall clock.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.completed as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Exact nearest-rank percentile of an (unsorted) latency sample.
pub fn percentile_us(latencies: &[u64], q: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The per-client request sequence: Zipf-sampled indices into the
/// distinct query pool, seeded per client so replays are exact.
pub fn client_mix(pool_len: usize, cfg: &LoadConfig, client: usize) -> Vec<usize> {
    let zipf = Zipf::new(pool_len, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(client as u64 + 1)),
    );
    (0..cfg.requests_per_client)
        .map(|_| zipf.sample(&mut rng))
        .collect()
}

fn absorb(reply: &Result<QueryReply, ClientError>, result: &ResultCells) {
    match reply {
        Ok(r) if r.is_ok() => {
            result.completed.fetch_add(1, Ordering::Relaxed);
            result.total_work.fetch_add(r.work_units, Ordering::Relaxed);
            result
                .total_rows
                .fetch_add(r.rows.len() as u64, Ordering::Relaxed);
        }
        Ok(r) if r.is_rejected() => {
            result.rejected.fetch_add(1, Ordering::Relaxed);
        }
        Ok(r) if r.is_deadline_expired() => {
            result.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            result.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[derive(Default)]
struct ResultCells {
    completed: AtomicU64,
    rejected: AtomicU64,
    deadline_expired: AtomicU64,
    errors: AtomicU64,
    total_work: AtomicU64,
    total_rows: AtomicU64,
}

impl ResultCells {
    fn into_result(self, requests: u64, latencies_us: Vec<u64>, wall_s: f64) -> RegimeResult {
        RegimeResult {
            requests,
            completed: self.completed.into_inner(),
            rejected: self.rejected.into_inner(),
            deadline_expired: self.deadline_expired.into_inner(),
            errors: self.errors.into_inner(),
            total_work: self.total_work.into_inner(),
            total_rows: self.total_rows.into_inner(),
            latencies_us,
            wall_s,
        }
    }
}

/// Closed-loop run: each client sends its whole mix back-to-back over
/// one keep-alive connection.
pub fn run_closed(addr: SocketAddr, queries: &[String], cfg: &LoadConfig) -> RegimeResult {
    let cells = ResultCells::default();
    let latencies = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|ts| {
        for client in 0..cfg.clients {
            let cells = &cells;
            let latencies = &latencies;
            let mix = client_mix(queries.len(), cfg, client);
            ts.spawn(move || {
                let mut conn =
                    ServeClient::connect(addr, &format!("c{client}")).expect("connect load client");
                let mut local = Vec::with_capacity(mix.len());
                for qi in mix {
                    let sent = Instant::now();
                    let reply = conn.query(&queries[qi], None);
                    local.push(sent.elapsed().as_micros() as u64);
                    absorb(&reply, cells);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let requests = (cfg.clients * cfg.requests_per_client) as u64;
    cells.into_result(requests, latencies.into_inner().unwrap(), wall_s)
}

/// Open-arrival overload run: all requests are placed on one precomputed
/// schedule at `rate_rps`, and `cfg.clients` senders race through it —
/// each waits for its request's scheduled arrival, sends, and moves to
/// the next unsent request. Latency counts from the *scheduled* arrival,
/// so queueing delay (and sender contention — the open-loop signature)
/// is in the number.
pub fn run_open(
    addr: SocketAddr,
    queries: &[String],
    cfg: &LoadConfig,
    rate_rps: f64,
) -> RegimeResult {
    let total = cfg.clients * cfg.requests_per_client;
    let gap = Duration::from_secs_f64(1.0 / rate_rps.max(1.0));
    // One flat schedule: request k arrives at k * gap and carries the
    // query the (seeded) flattened client mixes assigned to slot k.
    let mut slots = Vec::with_capacity(total);
    for client in 0..cfg.clients {
        for qi in client_mix(queries.len(), cfg, client) {
            slots.push((client, qi));
        }
    }
    let cells = ResultCells::default();
    let latencies = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|ts| {
        for sender in 0..cfg.clients {
            let cells = &cells;
            let latencies = &latencies;
            let next = &next;
            let slots = &slots;
            ts.spawn(move || {
                let mut conn = ServeClient::connect(addr, &format!("s{sender}"))
                    .expect("connect open-loop sender");
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= slots.len() {
                        break;
                    }
                    let (_client, qi) = slots[k];
                    let scheduled = t0 + gap * (k as u32);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let reply = conn.query(&queries[qi], None);
                    local.push(scheduled.elapsed().as_micros() as u64);
                    absorb(&reply, cells);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    cells.into_result(slots.len() as u64, latencies.into_inner().unwrap(), wall_s)
}

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

/// The serving admission policy the harness uses for a given client
/// count: closed-loop runs always fit (cap = clients), and the
/// contention threshold sits at half the cap as in `ServeConfig`.
pub fn closed_admission(clients: usize) -> kgdual_serve::AdmissionConfig {
    kgdual_serve::AdmissionConfig::new(clients.max(1), clients.max(1))
}

/// The overload admission policy: a cap strictly below the sender
/// count, so an open-arrival run *must* observe rejections while the
/// queue stays bounded.
pub fn overload_admission(clients: usize) -> kgdual_serve::AdmissionConfig {
    kgdual_serve::AdmissionConfig::new((clients / 2).max(1), clients.max(1))
}

/// Distinct query texts of a workload, in template order — the pool the
/// Zipf mix samples from.
pub fn query_pool(args: &BenchArgs) -> Vec<String> {
    let workload = crate::setup::build_workload(crate::experiments::WorkloadKind::Yago, args);
    workload.ordered().iter().map(|q| q.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_the_head_and_covers_the_domain() {
        let zipf = Zipf::new(16, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 16];
        for _ in 0..4_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8], "head must outweigh the tail");
        assert!(
            counts.iter().filter(|&&c| c > 0).count() >= 12,
            "tail must still be visited: {counts:?}"
        );
    }

    #[test]
    fn client_mix_is_seed_stable_and_per_client_distinct() {
        let cfg = LoadConfig {
            clients: 4,
            requests_per_client: 32,
            seed: 42,
        };
        let a = client_mix(9, &cfg, 0);
        let b = client_mix(9, &cfg, 0);
        assert_eq!(a, b, "same seed, same client, same mix");
        let c = client_mix(9, &cfg, 1);
        assert_ne!(a, c, "different clients get different mixes");
        assert!(a.iter().all(|&i| i < 9));
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&lat, 0.50), 50);
        assert_eq!(percentile_us(&lat, 0.95), 95);
        assert_eq!(percentile_us(&lat, 0.99), 99);
        assert_eq!(percentile_us(&lat, 0.999), 100);
        assert_eq!(percentile_us(&[], 0.5), 0);
        assert_eq!(percentile_us(&[7], 0.999), 7);
    }

    #[test]
    fn admission_presets_shape_the_two_regimes() {
        let closed = closed_admission(8);
        assert_eq!(closed.queue_cap, 8, "closed load always fits");
        let over = overload_admission(8);
        assert!(
            over.queue_cap < 8,
            "overload cap must sit below the sender count"
        );
        assert_eq!(overload_admission(1).queue_cap, 1, "cap never hits zero");
    }
}
