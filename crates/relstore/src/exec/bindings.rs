//! Intermediate query results: flat row-major binding tables.

use kgdual_model::fx::FxHashSet;
use kgdual_model::NodeId;
use kgdual_sparql::VarId;
use serde::{Deserialize, Serialize};

/// A table of variable bindings: the schema is a list of [`VarId`]s, the
/// payload a flat row-major `NodeId` buffer.
///
/// This is the currency of the whole system: pattern matches, join inputs
/// and outputs, graph-store results migrated into the relational temp space,
/// and materialized view payloads are all `Bindings`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bindings {
    vars: Vec<VarId>,
    data: Vec<NodeId>,
}

impl Bindings {
    /// An empty table with the given schema.
    pub fn new(vars: Vec<VarId>) -> Self {
        Bindings {
            vars,
            data: Vec::new(),
        }
    }

    /// An empty table pre-sized for `rows` rows.
    pub fn with_capacity(vars: Vec<VarId>, rows: usize) -> Self {
        let width = vars.len();
        Bindings {
            vars,
            data: Vec::with_capacity(rows * width),
        }
    }

    /// The schema (one entry per column).
    #[inline]
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        if self.vars.is_empty() {
            // A zero-column table is either the empty relation or the unit
            // relation; we track the unit case via a sentinel row count in
            // `data` being unrepresentable, so zero-column tables are empty.
            0
        } else {
            self.data.len() / self.vars.len()
        }
    }

    /// True if the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Column index of `var` in the schema.
    #[inline]
    pub fn col_of(&self, var: VarId) -> Option<usize> {
        self.vars.iter().position(|&v| v == var)
    }

    /// Append one row; panics if the arity mismatches (programming error).
    #[inline]
    pub fn push_row(&mut self, row: &[NodeId]) {
        debug_assert_eq!(row.len(), self.vars.len());
        self.data.extend_from_slice(row);
    }

    /// Bulk-append whole rows from a flat cell buffer (the vectorized
    /// gather kernels' output format); panics in debug builds if the
    /// buffer is not a whole number of rows.
    #[inline]
    pub fn extend_cells(&mut self, cells: &[NodeId]) {
        debug_assert!(
            self.vars.is_empty() || cells.len() % self.vars.len() == 0,
            "extend_cells: partial row"
        );
        self.data.extend_from_slice(cells);
    }

    /// Append every row of a same-schema table (block concatenation for
    /// parallel scan/probe merges); panics in debug builds on a schema
    /// mismatch.
    #[inline]
    pub fn append(&mut self, other: &Bindings) {
        debug_assert_eq!(self.vars, other.vars, "append: schema mismatch");
        self.data.extend_from_slice(&other.data);
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[NodeId] {
        let w = self.vars.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// Iterate rows.
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.data.chunks_exact(self.vars.len().max(1))
    }

    /// Project onto `keep` (must all be present), producing a new table.
    pub fn project(&self, keep: &[VarId]) -> Bindings {
        let cols: Vec<usize> = keep
            .iter()
            .map(|&v| {
                self.col_of(v)
                    .expect("projection variable missing from schema")
            })
            .collect();
        let mut out = Bindings::with_capacity(keep.to_vec(), self.len());
        let mut row_buf: Vec<NodeId> = vec![NodeId(0); cols.len()];
        for row in self.rows() {
            for (slot, &c) in row_buf.iter_mut().zip(&cols) {
                *slot = row[c];
            }
            out.data.extend_from_slice(&row_buf);
        }
        out
    }

    /// Remove duplicate rows in place (first occurrence wins, order kept).
    pub fn dedup_rows(&mut self) {
        let w = self.vars.len().max(1);
        let mut seen: FxHashSet<Vec<NodeId>> = FxHashSet::default();
        let mut out = Vec::with_capacity(self.data.len());
        for row in self.data.chunks_exact(w) {
            if seen.insert(row.to_vec()) {
                out.extend_from_slice(row);
            }
        }
        self.data = out;
    }

    /// Keep only the first `limit` rows.
    pub fn truncate(&mut self, limit: usize) {
        let w = self.vars.len().max(1);
        self.data.truncate(limit * w);
    }

    /// Sort rows lexicographically (for deterministic output in tests and
    /// result rendering).
    pub fn sort_rows(&mut self) {
        let w = self.vars.len().max(1);
        let mut rows: Vec<Vec<NodeId>> =
            self.data.chunks_exact(w).map(<[NodeId]>::to_vec).collect();
        rows.sort_unstable();
        self.data.clear();
        for r in rows {
            self.data.extend_from_slice(&r);
        }
    }

    /// Estimated size in "triple-equivalent" storage units: one unit per
    /// cell pair, rounded up. Used to charge materialized views against the
    /// same budget as graph-store triples.
    pub fn storage_units(&self) -> usize {
        (self.len() * self.width()).div_ceil(2)
    }

    /// Rebadge the schema with new variable ids (same arity), keeping the
    /// payload. Used when moving results between id spaces, e.g. from a
    /// view's local variables into a query's variables.
    pub fn renamed(self, vars: Vec<VarId>) -> Bindings {
        assert_eq!(vars.len(), self.vars.len(), "renamed: arity mismatch");
        Bindings {
            vars,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn push_and_read_rows() {
        let mut b = Bindings::new(vec![0, 1]);
        b.push_row(&[n(1), n(2)]);
        b.push_row(&[n(3), n(4)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.width(), 2);
        assert_eq!(b.row(1), &[n(3), n(4)]);
        assert_eq!(b.rows().count(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn col_of_schema_lookup() {
        let b = Bindings::new(vec![3, 7]);
        assert_eq!(b.col_of(7), Some(1));
        assert_eq!(b.col_of(0), None);
    }

    #[test]
    fn project_reorders_columns() {
        let mut b = Bindings::new(vec![0, 1, 2]);
        b.push_row(&[n(1), n(2), n(3)]);
        let p = b.project(&[2, 0]);
        assert_eq!(p.vars(), &[2, 0]);
        assert_eq!(p.row(0), &[n(3), n(1)]);
    }

    #[test]
    #[should_panic(expected = "projection variable missing")]
    fn project_missing_var_panics() {
        let b = Bindings::new(vec![0]);
        let _ = b.project(&[9]);
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let mut b = Bindings::new(vec![0]);
        for i in [1u32, 2, 1, 3, 2] {
            b.push_row(&[n(i)]);
        }
        b.dedup_rows();
        let rows: Vec<u32> = b.rows().map(|r| r[0].0).collect();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn truncate_limits_rows() {
        let mut b = Bindings::new(vec![0, 1]);
        for i in 0..5u32 {
            b.push_row(&[n(i), n(i + 10)]);
        }
        b.truncate(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[n(1), n(11)]);
    }

    #[test]
    fn sort_rows_is_lexicographic() {
        let mut b = Bindings::new(vec![0, 1]);
        b.push_row(&[n(2), n(0)]);
        b.push_row(&[n(1), n(9)]);
        b.push_row(&[n(2), n(0)]);
        b.sort_rows();
        assert_eq!(b.row(0), &[n(1), n(9)]);
        assert_eq!(b.row(1), &[n(2), n(0)]);
    }

    #[test]
    fn extend_cells_appends_whole_rows() {
        let mut b = Bindings::new(vec![0, 1]);
        b.extend_cells(&[n(1), n(2), n(3), n(4)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[n(3), n(4)]);
    }

    #[test]
    fn append_concatenates_same_schema_blocks() {
        let mut a = Bindings::new(vec![0, 1]);
        a.push_row(&[n(1), n(2)]);
        let mut b = Bindings::new(vec![0, 1]);
        b.push_row(&[n(3), n(4)]);
        a.append(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.row(1), &[n(3), n(4)]);
    }

    #[test]
    fn storage_units_rounds_up() {
        let mut b = Bindings::new(vec![0, 1, 2]);
        b.push_row(&[n(1), n(2), n(3)]);
        assert_eq!(b.storage_units(), 2); // 3 cells -> 2 units
        assert_eq!(Bindings::new(vec![0]).storage_units(), 0);
    }
}
