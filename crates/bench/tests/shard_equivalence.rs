//! Shard-count invariance: the relational shard count changes nothing
//! deterministic, on one worker or on several. The cells are blocks of the
//! equivalence grid in [`grid`].

mod grid;

use grid::*;

/// One worker: the queries run one at a time.
#[test]
fn serial_workloads_identical_across_shard_counts() {
    check(&ONE_WORKER_SHARDED);
}

#[test]
fn concurrent_digests_and_tuning_trail_identical_across_shard_counts() {
    check(&TWO_WORKERS_SHARDED);
}
