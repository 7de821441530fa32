//! Scheduled execution of independent relational jobs — intra-query
//! parallelism for the relational store.
//!
//! `RelStore` splits a large hash-join probe into contiguous row ranges,
//! one independent job each, and hands them to whatever
//! [`ShardDispatch`] is installed. [`SchedShardDispatch`] is the
//! concurrent implementation: a thin adapter that submits each job as a
//! [`TaskClass::ShardScan`] task on the unified work-stealing pool
//! ([`kgdual_sched::Scheduler`]) — the *same* pool the
//! [`crate::BatchExecutor`]'s query tasks run on. A query that fans out
//! helps execute its own jobs while idle query workers steal the rest,
//! so total live threads never exceed the pool size. `ShardScan` tasks
//! outrank queued queries in the class-priority policy: finishing
//! in-flight queries beats starting new ones.
//!
//! Results are re-indexed by job before returning, so the caller's
//! canonical-order merge (and with it every deterministic metric) is
//! unaffected by scheduling: the pool changes wall clock only.
//!
//! [`crate::ParallelRunner`] installs an adapter sharing its executor's
//! pool automatically; [`crate::SharedStore::install_shard_dispatch`]
//! is the manual hook.

use kgdual_relstore::{ShardDispatch, ShardScanPart};
use kgdual_sched::{Scheduler, TaskClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`ShardDispatch`] adapter submitting jobs to the unified
/// work-stealing scheduler. The dispatch count makes fan-out observable
/// for tests and diagnostics; per-job accounting lives in the
/// scheduler's own [`kgdual_sched::SchedStats`] — the single source of
/// task accounting — rather than being double-counted here.
#[derive(Debug)]
pub struct SchedShardDispatch {
    sched: Arc<Scheduler>,
    dispatches: AtomicU64,
}

impl SchedShardDispatch {
    /// An adapter fanning jobs onto `sched`'s workers. With a
    /// single-worker pool (or a single job) jobs run inline on the
    /// caller — identical results, no scheduling overhead.
    pub fn new(sched: Arc<Scheduler>) -> Self {
        SchedShardDispatch {
            sched,
            dispatches: AtomicU64::new(0),
        }
    }

    /// A convenience constructor owning a private pool of `threads`
    /// workers — for using a store without a [`crate::BatchExecutor`]
    /// (whose pool [`crate::ParallelRunner`] would otherwise share).
    pub fn with_threads(threads: usize) -> Self {
        Self::new(Arc::new(Scheduler::new(threads)))
    }

    /// The pool this adapter submits to.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Maximum concurrent jobs (the pool's worker count).
    pub fn threads(&self) -> usize {
        self.sched.threads()
    }

    /// How many job batches have been dispatched through this adapter.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Total jobs executed on this adapter's pool, read from the
    /// scheduler's per-class counters ([`TaskClass::ShardScan`] submitted
    /// == executed once a dispatch returns, inline or pooled). On a
    /// shared pool this counts every `ShardScan` task the pool ran, whichever
    /// adapter dispatched it.
    pub fn jobs_run(&self) -> u64 {
        self.sched.stats().executed.get(TaskClass::ShardScan)
    }
}

impl ShardDispatch for SchedShardDispatch {
    fn run_jobs(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> ShardScanPart + Sync),
    ) -> Vec<ShardScanPart> {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        // The contract is out[i] == job(i)'s result; run_indexed returns
        // results in index order by construction.
        self.sched.run_indexed(TaskClass::ShardScan, jobs, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_relstore::ExecStats;

    fn marked(i: usize) -> ShardScanPart {
        ShardScanPart {
            stats: ExecStats {
                rows_scanned: i as u64 + 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn results_come_back_in_job_order() {
        let pool = SchedShardDispatch::with_threads(4);
        for jobs in [1usize, 2, 3, 8, 17] {
            let parts = pool.run_jobs(jobs, &marked);
            let got: Vec<u64> = parts.iter().map(|p| p.stats.rows_scanned).collect();
            let want: Vec<u64> = (1..=jobs as u64).collect();
            assert_eq!(got, want, "{jobs} jobs");
        }
        assert_eq!(pool.dispatches(), 5);
        assert_eq!(pool.jobs_run(), 1 + 2 + 3 + 8 + 17);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = SchedShardDispatch::with_threads(0);
        assert_eq!(pool.threads(), 1);
        let parts = pool.run_jobs(3, &marked);
        assert_eq!(parts.len(), 3);
        // The inline fast path still attributes the work to the
        // scheduler's per-class counters — task accounting is invariant
        // across thread counts.
        let stats = pool.scheduler().stats();
        assert_eq!(stats.submitted.get(TaskClass::ShardScan), 3);
        assert_eq!(stats.executed.get(TaskClass::ShardScan), 3);
        assert_eq!(pool.jobs_run(), 3);
    }

    #[test]
    fn every_job_runs_exactly_once_under_contention() {
        let pool = SchedShardDispatch::with_threads(8);
        let calls = AtomicU64::new(0);
        let parts = pool.run_jobs(64, &|i| {
            calls.fetch_add(1, Ordering::Relaxed);
            marked(i)
        });
        assert_eq!(parts.len(), 64);
        assert_eq!(calls.load(Ordering::Relaxed), 64);
        let stats = pool.scheduler().stats();
        assert_eq!(stats.executed.get(TaskClass::ShardScan), 64);
    }

    #[test]
    fn adapter_shares_an_executor_pool() {
        let sched = Arc::new(Scheduler::new(3));
        let pool = SchedShardDispatch::new(Arc::clone(&sched));
        assert_eq!(pool.threads(), 3);
        let _ = pool.run_jobs(8, &marked);
        assert_eq!(sched.stats().executed.get(TaskClass::ShardScan), 8);
    }
}
