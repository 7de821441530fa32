//! Worker-count invariance: full workload batches on 2 and 8 workers are
//! indistinguishable from the 1-worker reference in everything but wall
//! clock. The cells are blocks of the equivalence grid in [`grid`].

mod grid;

use grid::*;

/// Digests, rows, work, simulated TTI, the residency trail and DOTIL's
/// state at 2 and 8 workers equal the 1-worker run.
#[test]
fn routed_batches_identical_across_1_2_8_threads() {
    check(&TWO_AND_EIGHT_WORKERS);
}
