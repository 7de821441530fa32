//! Restart equivalence: checkpoint after two batches, restore into a
//! fresh store and a fresh `Dotil::new()`, and the finished run equals
//! an uninterrupted one. The cells are blocks of the equivalence grid in
//! [`grid`].

mod grid;

use grid::*;

/// One worker: the queries run one at a time.
#[test]
fn serial_roundtrip_is_lossless_on_adjacency() {
    check(&MID_RUN_RESTART_ONE_WORKER);
}

/// Four workers.
#[test]
fn concurrent_roundtrip_is_lossless_on_adjacency() {
    check(&MID_RUN_RESTART_FOUR_WORKERS);
}
