//! The concurrent batch executor.
//!
//! One batch of queries is submitted as [`TaskClass::Query`] tasks on
//! the shared worker pool ([`kgdual_sched::Scheduler`]) — the executor
//! owns no threads of its own. All tasks execute against a single shared
//! read guard on the [`SharedStore`] — the store is immutable for the
//! whole batch — and each task owns everything its query writes, so no
//! online state is shared mutable between workers. The pool's queue
//! hands queries out in submission order; a worker stuck on a heavy
//! query simply stops claiming while the others absorb the remainder.
//!
//! Determinism: each query's execution depends only on the (frozen)
//! store and the query itself, so per-query results, work units, and
//! simulated latencies are **identical at every thread count**. Only
//! the wall-clock reading changes with `threads` — that is the measured
//! parallel TTI.

use crate::shared::SharedStore;
use kgdual_core::batch::RouteCounts;
use kgdual_core::{process, Options, Policy, QueryOutcome, TuningOutcome};
use kgdual_graphstore::GraphBackend;
use kgdual_relstore::ExecStats;
use kgdual_sched::{Scheduler, TaskClass};
use kgdual_sparql::Query;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything measured about one concurrently executed batch.
#[derive(Clone, Debug, Default)]
pub struct ParallelBatchReport {
    /// Batch index (0-based), assigned by [`crate::ParallelRunner`].
    pub batch_index: usize,
    /// Queries submitted.
    pub queries: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Store epoch the batch executed under (design version).
    pub epoch: u64,
    /// Wall-clock TTI of the concurrent submission: time from batch
    /// submission to the last worker finishing.
    pub wall: Duration,
    /// Calibrated simulated TTI: sum of per-query simulated latencies.
    /// Deterministic and thread-count-invariant, it models the *serial*
    /// cost of the batch on the paper's MySQL/Neo4j substrate pair and is
    /// reported alongside `wall` so speedup is visible against a stable
    /// denominator.
    pub sim_tti: Duration,
    /// Aggregated relational-store work, equal to the serial path's sum.
    pub rel_stats: ExecStats,
    /// Aggregated graph-store work, equal to the serial path's sum.
    pub graph_stats: ExecStats,
    /// Result rows across all queries.
    pub result_rows: u64,
    /// Routing breakdown.
    pub routes: RouteCounts,
    /// Queries that failed (stays 0 in healthy runs).
    pub errors: usize,
    /// Outcome of the offline tuning phase attached to this batch by the
    /// runner (zero when the executor is used directly).
    pub tuning: TuningOutcome,
    /// A byte digest of every query's **sorted** result rows, in
    /// submission order (failed queries contribute a sentinel). Two runs
    /// of the same batch on the same design produce byte-identical
    /// digests regardless of thread count; the equivalence suite
    /// compares exactly this.
    pub results_digest: Vec<u8>,
    /// Per-query outcomes in submission order (`None` for failed
    /// queries). Retaining every result set across batches is memory
    /// proportional to the whole workload's output, so this stays empty
    /// unless [`BatchExecutor::with_outcomes`] opted in.
    pub outcomes: Vec<Option<QueryOutcome>>,
}

impl ParallelBatchReport {
    /// Deterministic total work units across both stores.
    pub fn total_work(&self) -> u64 {
        self.rel_stats.work_units() + self.graph_stats.work_units()
    }

    /// Fraction of online work done by the graph store (Figure 6's
    /// "cost proportion of graph store").
    pub fn graph_work_share(&self) -> f64 {
        match self.total_work() {
            0 => 0.0,
            total => self.graph_stats.work_units() as f64 / total as f64,
        }
    }
}

/// A concurrent batch executor submitting query tasks to a shared
/// worker pool. Cloning shares the pool.
#[derive(Clone, Debug)]
pub struct BatchExecutor {
    threads: usize,
    policy: Policy,
    keep_outcomes: bool,
    sched: Arc<Scheduler>,
}

impl BatchExecutor {
    /// An executor backed by a fresh pool of `threads` workers (0 means
    /// "one per available core") driving the routed dual-store path.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Self::with_scheduler(Arc::new(Scheduler::new(threads)))
    }

    /// An executor submitting to an existing pool — the way to share one
    /// worker pool between several executors (or with other subsystems).
    pub fn with_scheduler(sched: Arc<Scheduler>) -> Self {
        BatchExecutor {
            threads: sched.threads(),
            policy: Policy::Routed,
            keep_outcomes: false,
            sched,
        }
    }

    /// Switch the store variant the queries run on (e.g. the `RDB-only`
    /// baseline).
    pub fn with_mode(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Keep the full per-query [`QueryOutcome`]s in the report
    /// (`outcomes`). Off by default: the aggregated totals and the
    /// results digest cover the common consumers, and retained result
    /// sets grow with the workload's entire output.
    pub fn with_outcomes(mut self, keep: bool) -> Self {
        self.keep_outcomes = keep;
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker pool this executor submits to.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Execute one batch concurrently under a single shared-read epoch.
    ///
    /// The read guard is acquired once, before the tasks are submitted,
    /// and held until the last of them completes: the physical design is
    /// frozen for the whole batch, and a concurrent
    /// [`SharedStore::reconfigure`] waits at the write acquire (the
    /// epoch barrier).
    pub fn execute_batch<B: GraphBackend>(
        &self,
        store: &SharedStore<B>,
        queries: &[Query],
    ) -> ParallelBatchReport {
        let t0 = Instant::now();
        let barrier = kgdual_obs::timer();
        let dual = store.read();
        if let Some(ns) = barrier.elapsed_ns() {
            crate::obs::exec_obs().epoch_wait.record(ns);
        }
        // Read the epoch under the guard: reconfigure() bumps it before
        // releasing the write lock, so it cannot move while readers hold
        // the store, and the report attributes the batch to the design it
        // actually ran under.
        let epoch = store.epoch();
        let _batch_span = kgdual_obs::span!("batch", queries = queries.len(), epoch = epoch);
        let workers = self.threads.min(queries.len()).max(1);

        // One slot per query keeps submission order independent of
        // completion order.
        let slots: Vec<Mutex<Option<QueryOutcome>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        let errors = AtomicUsize::new(0);
        let opts = Options {
            policy: self.policy,
            explain: false,
        };
        self.sched.scope(|s| {
            for (qid, (query, slot)) in queries.iter().zip(&slots).enumerate() {
                let (dual, errors) = (&*dual, &errors);
                s.spawn(TaskClass::Query, move || {
                    let wall = kgdual_obs::timer();
                    let _span = kgdual_obs::span!("query", qid = qid);
                    match process(dual, query, opts) {
                        Ok(out) => *slot.lock() = Some(out),
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(ns) = wall.elapsed_ns() {
                        crate::obs::exec_obs().query_wall.record(ns);
                    }
                });
            }
        });
        let wall = t0.elapsed();
        crate::obs::exec_obs()
            .batch_wall
            .record(wall.as_nanos() as u64);
        drop(dual);

        // Post-batch aggregation: merge per-query stats in submission
        // order into totals that match the serial path's sums exactly.
        let mut report = ParallelBatchReport {
            queries: queries.len(),
            threads: workers,
            epoch,
            wall,
            errors: errors.into_inner(),
            outcomes: slots.into_iter().map(|s| s.into_inner()).collect(),
            ..Default::default()
        };
        for out in report.outcomes.iter().flatten() {
            report.rel_stats.merge(&out.rel_stats);
            report.graph_stats.merge(&out.graph_stats);
            report.result_rows += out.results.len() as u64;
            report.sim_tti += out.simulated_latency();
            report.routes.record(out.route);
        }
        report.results_digest = results_digest(&report.outcomes);
        if !self.keep_outcomes {
            report.outcomes = Vec::new();
        }
        report
    }
}

/// Serialize each query's sorted result rows, in submission order, into
/// the report's comparison digest (failed queries contribute a sentinel).
///
/// Public because it defines the cross-path determinism fingerprint:
/// `kgdual-serve`'s `DigestBuilder` reproduces this encoding from wire
/// replies, and the equivalence suite's wire cells compare the two
/// outputs byte for byte.
pub fn results_digest(outcomes: &[Option<QueryOutcome>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for outcome in outcomes {
        match outcome {
            Some(out) => {
                let mut rows = out.results.clone();
                rows.sort_rows();
                bytes.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                for r in 0..rows.len() {
                    for cell in rows.row(r) {
                        bytes.extend_from_slice(&cell.0.to_le_bytes());
                    }
                }
            }
            None => bytes.extend_from_slice(&u64::MAX.to_le_bytes()),
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_core::DualStore;
    use kgdual_model::{DatasetBuilder, Term};
    use kgdual_sparql::parse;

    fn shared(budget: usize) -> SharedStore {
        let mut b = DatasetBuilder::new();
        for i in 0..60 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:bornIn",
                &Term::iri(format!("y:c{}", i % 6)),
            );
        }
        for i in 0..30 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:advisor",
                &Term::iri(format!("y:p{}", i + 30)),
            );
        }
        SharedStore::new(DualStore::from_dataset(b.build(), budget))
    }

    fn batch() -> Vec<Query> {
        let complex =
            parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap();
        let simple = parse("SELECT ?p WHERE { ?p y:bornIn ?c }").unwrap();
        let mut queries = Vec::new();
        for _ in 0..6 {
            queries.push(complex.clone());
            queries.push(simple.clone());
        }
        queries
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(BatchExecutor::new(0).threads() >= 1);
    }

    #[test]
    fn queries_run_as_query_class_tasks() {
        let store = shared(1000);
        let queries = batch();
        let exec = BatchExecutor::new(2);
        let report = exec.execute_batch(&store, &queries);
        assert_eq!(report.errors, 0);
        let stats = exec.scheduler().stats();
        assert_eq!(
            stats.executed.get(TaskClass::Query),
            queries.len() as u64,
            "every query must run as a Query-class task on the pool"
        );
    }

    #[test]
    fn parallel_batch_matches_itself_across_thread_counts() {
        let store = shared(1000);
        store.reconfigure(|dual| {
            for pred in ["y:bornIn", "y:advisor"] {
                let p = dual.dict().pred_id(pred).unwrap();
                dual.migrate_partition(p).unwrap();
            }
        });
        let queries = batch();
        let serial = BatchExecutor::new(1).execute_batch(&store, &queries);
        let parallel = BatchExecutor::new(4).execute_batch(&store, &queries);
        assert_eq!(serial.errors, 0);
        assert_eq!(parallel.errors, 0);
        assert_eq!(parallel.threads, 4);
        assert_eq!(serial.total_work(), parallel.total_work());
        assert_eq!(serial.sim_tti, parallel.sim_tti);
        assert_eq!(serial.result_rows, parallel.result_rows);
        assert_eq!(serial.routes, parallel.routes);
        assert_eq!(serial.results_digest, parallel.results_digest);
        assert!(
            serial.outcomes.is_empty() && parallel.outcomes.is_empty(),
            "outcome retention is opt-in"
        );
        assert!(serial.routes.graph > 0, "complex queries hit the graph");
    }

    #[test]
    fn relational_only_mode_never_touches_graph() {
        let store = shared(1000);
        store.reconfigure(|dual| {
            for pred in ["y:bornIn", "y:advisor"] {
                let p = dual.dict().pred_id(pred).unwrap();
                dual.migrate_partition(p).unwrap();
            }
        });
        let report = BatchExecutor::new(3)
            .with_mode(Policy::RelationalOnly)
            .execute_batch(&store, &batch());
        assert_eq!(report.graph_stats.work_units(), 0);
        assert_eq!(report.routes.graph, 0);
        assert!(report.rel_stats.work_units() > 0);
    }

    #[test]
    fn worker_pool_is_capped_by_batch_size() {
        let store = shared(100);
        let queries = vec![parse("SELECT ?p WHERE { ?p y:bornIn ?c }").unwrap()];
        let report = BatchExecutor::new(8).execute_batch(&store, &queries);
        assert_eq!(report.threads, 1, "one query needs one worker");
        assert_eq!(report.queries, 1);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn executors_can_share_one_pool() {
        let sched = Arc::new(Scheduler::new(2));
        let a = BatchExecutor::with_scheduler(Arc::clone(&sched));
        let b = BatchExecutor::with_scheduler(Arc::clone(&sched)).with_mode(Policy::RelationalOnly);
        let store = shared(1000);
        let ra = a.execute_batch(&store, &batch());
        let rb = b.execute_batch(&store, &batch());
        assert_eq!(ra.errors + rb.errors, 0);
        assert_eq!(
            sched.stats().executed.get(TaskClass::Query),
            2 * batch().len() as u64,
            "both executors' queries ran on the shared pool"
        );
    }

    #[test]
    fn with_outcomes_retains_per_query_outcomes() {
        let store = shared(100);
        let queries = batch();
        let report = BatchExecutor::new(2)
            .with_outcomes(true)
            .execute_batch(&store, &queries);
        assert_eq!(report.outcomes.len(), queries.len());
        let rows: u64 = report
            .outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().results.len() as u64)
            .sum();
        assert_eq!(rows, report.result_rows);
    }

    #[test]
    fn empty_batch_is_a_clean_noop() {
        let store = shared(100);
        let report = BatchExecutor::new(4).execute_batch(&store, &[]);
        assert_eq!(report.queries, 0);
        assert_eq!(report.total_work(), 0);
        assert!(report.results_digest.is_empty());
    }
}
