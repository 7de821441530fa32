//! The Selinger-style cost model shared by both substrates.
//!
//! Every planning decision in the stack — greedy join order, the
//! index-vs-scan access path, index-nested-loop vs hash join, hash-join
//! build side — prices patterns with the formulas below, fed **only**
//! from the per-partition statistics both stores report as a [`Card`]:
//! rows and distinct subject and object counts, read off the partition's
//! sorted runs. The relational planner and the graph matcher share these
//! formulas, so the two price a pattern value for value.

/// Cardinality statistics of one predicate partition, as both stores
/// report them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Card {
    /// Total rows (edges) in the partition.
    pub rows: usize,
    /// Distinct subjects.
    pub distinct_s: usize,
    /// Distinct objects.
    pub distinct_o: usize,
}

impl Card {
    /// Average rows per subject (`0.0` for an empty partition).
    pub fn per_subject(&self) -> f64 {
        if self.distinct_s == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct_s as f64
        }
    }

    /// Average rows per object.
    pub fn per_object(&self) -> f64 {
        if self.distinct_o == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct_o as f64
        }
    }
}

/// Crude discount applied to a var-predicate pattern once either
/// endpoint is bound (var-pred queries are rare; see the planner docs).
pub const VAR_PRED_BOUND_DISCOUNT: f64 = 100.0;

/// Selectivity of a const-predicate pattern given which endpoints are
/// bound (by constants or earlier joins): the classic System R
/// per-key-cardinality estimate.
pub fn bound_cardinality(card: Card, s_bound: bool, o_bound: bool) -> f64 {
    match (s_bound, o_bound) {
        (true, true) => 1.0,
        (true, false) => card.per_subject(),
        (false, true) => card.per_object(),
        (false, false) => card.rows as f64,
    }
}

/// Cardinality of a const-predicate pattern with nothing joined yet,
/// considering only its own constant endpoints (the planner's
/// `base_estimate` arithmetic: both-const combines the per-key estimates
/// under independence, floored at one row).
pub fn base_cardinality(card: Card, s_const: bool, o_const: bool) -> f64 {
    let mut est = card.rows as f64;
    if s_const {
        est = card.per_subject();
    }
    if o_const {
        let per_o = card.per_object();
        est = if s_const {
            (est * per_o / card.rows.max(1) as f64).max(1.0)
        } else {
            per_o
        };
    }
    est
}

/// Cardinality of a variable-predicate pattern: every partition is a
/// candidate, with a flat discount once either endpoint is bound.
pub fn var_pred_cardinality(total_rows: usize, any_bound: bool) -> f64 {
    let total = total_rows as f64;
    if any_bound {
        (total / VAR_PRED_BOUND_DISCOUNT).max(1.0)
    } else {
        total
    }
}

/// Which side of a hash join to build the table on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BuildSide {
    /// Build on the left (accumulated) input, probe with the right.
    Left,
    /// Build on the right (delta) input, probe with the left.
    Right,
}

/// Build on the smaller input; ties build left so the choice is
/// deterministic.
pub fn hash_build_side(left_rows: usize, right_rows: usize) -> BuildSide {
    if left_rows <= right_rows {
        BuildSide::Left
    } else {
        BuildSide::Right
    }
}

/// The index-vs-scan cliff: a bound pattern uses a sorted permutation
/// index only when the expected rows per key are at most
/// `threshold · rows` (MySQL-style optimizer behaviour; the threshold is
/// `PlannerConfig::index_selectivity_threshold`).
pub fn use_secondary_index(per_key_rows: f64, table_rows: usize, threshold: f64) -> bool {
    per_key_rows <= threshold * table_rows.max(1) as f64
}

/// Index-nested-loop beats rebuilding a hash table only while the
/// accumulated binding set is small relative to the joined partition
/// (`ratio` is `PlannerConfig::inl_probe_ratio`).
pub fn prefer_index_nested_loop(acc_rows: usize, table_rows: usize, ratio: f64) -> bool {
    acc_rows as f64 <= ratio * table_rows as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn card(rows: usize, ds: usize, dobj: usize) -> Card {
        Card {
            rows,
            distinct_s: ds,
            distinct_o: dobj,
        }
    }

    #[test]
    fn bound_cardinality_matches_system_r() {
        let c = card(1000, 100, 10);
        assert_eq!(bound_cardinality(c, false, false), 1000.0);
        assert_eq!(bound_cardinality(c, true, false), 10.0);
        assert_eq!(bound_cardinality(c, false, true), 100.0);
        assert_eq!(bound_cardinality(c, true, true), 1.0);
    }

    #[test]
    fn base_cardinality_combines_constants() {
        let c = card(1000, 100, 10);
        assert_eq!(base_cardinality(c, false, false), 1000.0);
        assert_eq!(base_cardinality(c, true, false), 10.0);
        assert_eq!(base_cardinality(c, false, true), 100.0);
        // Both const: (10 * 100 / 1000).max(1.0) = 1.0.
        assert_eq!(base_cardinality(c, true, true), 1.0);
    }

    #[test]
    fn empty_partition_estimates_zero_rows_per_key() {
        let c = card(0, 0, 0);
        assert_eq!(c.per_subject(), 0.0);
        assert_eq!(c.per_object(), 0.0);
        assert_eq!(bound_cardinality(c, true, false), 0.0);
    }

    #[test]
    fn degrees_handle_empty_partitions() {
        assert_eq!(Card::default().per_subject(), 0.0);
        assert_eq!(Card::default().per_object(), 0.0);
        let c = card(6, 2, 3);
        assert!((c.per_subject() - 3.0).abs() < 1e-12);
        assert!((c.per_object() - 2.0).abs() < 1e-12);
        assert!((card(4, 3, 3).per_subject() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn var_pred_discount_floors_at_one() {
        assert_eq!(var_pred_cardinality(1000, false), 1000.0);
        assert_eq!(var_pred_cardinality(1000, true), 10.0);
        assert_eq!(var_pred_cardinality(5, true), 1.0);
    }

    #[test]
    fn build_side_prefers_smaller_and_ties_left() {
        assert_eq!(hash_build_side(10, 20), BuildSide::Left);
        assert_eq!(hash_build_side(20, 10), BuildSide::Right);
        assert_eq!(hash_build_side(10, 10), BuildSide::Left);
    }

    #[test]
    fn access_path_cliff() {
        assert!(use_secondary_index(4.0, 100, 0.05));
        assert!(!use_secondary_index(6.0, 100, 0.05));
        // Empty table: threshold * max(1) keeps the comparison finite.
        assert!(use_secondary_index(0.0, 0, 0.05));
    }

    #[test]
    fn inl_threshold() {
        assert!(prefer_index_nested_loop(10, 100, 0.10));
        assert!(!prefer_index_nested_loop(11, 100, 0.10));
    }
}
