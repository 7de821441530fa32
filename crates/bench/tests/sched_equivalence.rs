//! Scheduled runs: queries, shard scans and DOTIL's cost pairs run as
//! tasks on the four-worker pool, and the fingerprint (the scheduler's
//! `OfflineTuning` task count included) equals the reference. The cells
//! are a block of the equivalence grid in [`grid`].

mod grid;

use grid::*;

#[test]
fn scheduled_runs_identical_across_threads_shards_adjacency() {
    check(&FOUR_WORKERS_ONE_AND_FOUR_SHARDS);
}
