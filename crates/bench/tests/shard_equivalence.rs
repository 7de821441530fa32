//! Shard-count invariance: the relational shard count changes nothing
//! deterministic, serial or pooled. The cells are blocks of the
//! equivalence grid in [`grid`].

mod grid;

use grid::*;

#[test]
fn serial_workloads_identical_across_shard_counts() {
    check(&SERIAL_SHARDED);
}

#[test]
fn concurrent_digests_and_tuning_trail_identical_across_shard_counts() {
    check(&ONE_WORKER_SHARDED);
}
