//! Plan equivalence: the deterministic JSON of every pool query's
//! `PlanDesc` and `QueryProfile` on the final design is a fingerprint
//! field, so pooled sharded cells plan exactly as the reference does.
//! The cells are a block of the equivalence grid in [`grid`].

mod grid;

use grid::*;

#[test]
fn deterministic_plan_fields_are_identical_across_grid() {
    check(&FOUR_WORKERS_TWO_AND_EIGHT_SHARDS);
}
