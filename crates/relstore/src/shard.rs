//! The pluggable executor for independent relational jobs.
//!
//! A hash join's probe side splits into contiguous row ranges that read
//! only the shared build table, so the ranges can run concurrently:
//! [`ShardDispatch`] is the execution hook ([`SerialDispatch`] runs jobs
//! inline; `kgdual-exec` installs a pooled implementation over its worker
//! threads), and [`ShardScanPart`] is one job's result — its row block
//! plus its own [`ExecStats`], which the caller merges in job order so
//! the dispatched path reproduces the serial numbers exactly.

use crate::exec::{Bindings, ExecStats};

/// What one job produced: a row block sharing the caller's schema, plus
/// the job's own execution counters. The caller concatenates blocks and
/// sums stats in job order, so the result is byte-identical to the serial
/// run.
#[derive(Debug, Default)]
pub struct ShardScanPart {
    /// The job's output rows.
    pub rows: Bindings,
    /// Work this job charged (merged into the caller's context). On
    /// cancellation this carries the partial work done before the job
    /// stopped — the merge's `partial_work` is recovered from the summed
    /// stats.
    pub stats: ExecStats,
    /// Whether the job observed a cancellation and stopped early.
    pub cancelled: bool,
}

/// Executes independent jobs — possibly in parallel.
///
/// The contract: `run_jobs(n, job)` calls `job(i)` exactly once for every
/// `i in 0..n` and returns the results **indexed by job** (`out[i]` is
/// `job(i)`'s result). Jobs are independent and side-effect-free on the
/// store (they only read tables and charge their private stats), so any
/// execution order — or full concurrency — is observationally identical.
/// `kgdual-exec` provides the pooled implementation that fans jobs over
/// its worker threads; [`SerialDispatch`] is the inline fallback.
pub trait ShardDispatch: Send + Sync + std::fmt::Debug {
    /// Run `jobs` jobs, returning their results in job order.
    fn run_jobs(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> ShardScanPart + Sync),
    ) -> Vec<ShardScanPart>;
}

/// Runs jobs inline, one after another (the serial reference
/// implementation of [`ShardDispatch`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialDispatch;

impl ShardDispatch for SerialDispatch {
    fn run_jobs(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> ShardScanPart + Sync),
    ) -> Vec<ShardScanPart> {
        (0..jobs).map(job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_dispatch_runs_every_job_in_order() {
        let parts = SerialDispatch.run_jobs(4, &|i| ShardScanPart {
            stats: ExecStats {
                rows_scanned: i as u64,
                ..Default::default()
            },
            ..Default::default()
        });
        let got: Vec<u64> = parts.iter().map(|p| p.stats.rows_scanned).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
