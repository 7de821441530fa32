//! Scheduled runs and plan equivalence: queries and DOTIL's cost pairs
//! run as tasks on the four-worker pool, and the fingerprint (the
//! scheduler's `OfflineTuning` task count and the deterministic JSON of
//! every pool query's `PlanDesc` and `QueryProfile` on the final design
//! included) equals the reference. The cells are a block of the
//! equivalence grid in [`grid`].

mod grid;

use grid::*;

#[test]
fn deterministic_plan_fields_are_identical_across_grid() {
    check(&FOUR_WORKERS);
}
