//! Per-predicate two-column tables (vertical partitioning).

use crate::runs::SortedRuns;
use kgdual_model::{NodeId, SharedPairs};
use kgdual_vec::cost::Card;
use std::sync::Arc;

/// One predicate's `(subject, object)` table.
///
/// The base storage is an append-ordered pair vector (cheap inserts — the
/// paper's relational store must be "convenient in updating knowledge").
/// It sits behind an `Arc`: a table loaded empty from a dataset partition
/// adopts the partition's own run ([`insert_shared`](Self::insert_shared)),
/// and the first write copies it once if the dataset still holds it
/// (`Arc::make_mut`).
///
/// Like a real RDBMS's secondary indexes, the by-subject and by-object
/// indexes exist as long as the table does: they are the table's
/// [`SortedRuns`] ([`runs`](Self::runs)), which the graph store also
/// traverses while the partition is resident. Every bulk load
/// ([`from_pairs`](Self::from_pairs), [`insert_batch`](Self::insert_batch),
/// [`insert_shared`](Self::insert_shared)) sorts both runs; a bulk append
/// re-sorts them. Single-row writes keep them valid: [`insert`](Self::insert)
/// and [`delete`](Self::delete) splice the row in or out of each run
/// ([`SortedRuns::insert`], [`SortedRuns::remove_all`]). The statistics
/// are read off the runs. Nothing is built on first use, so there is no warm-up and a
/// lookup borrows a row of a run.
#[derive(Debug, Default)]
pub struct PredTable {
    pairs: SharedPairs,
    runs: SortedRuns,
}

impl PredTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from pairs (bulk load), indexes included.
    pub fn from_pairs(pairs: Vec<(NodeId, NodeId)>) -> Self {
        let mut table = Self::default();
        table.insert_shared(&Arc::new(pairs));
        table
    }

    /// Row count.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The base rows in insertion order (full-scan access path). Deletes
    /// close the gap and keep the order of the surviving rows: it is part
    /// of the LIMIT row-order contract.
    #[inline]
    pub fn scan(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Append a row. Both runs take it at its sorted position.
    pub fn insert(&mut self, s: NodeId, o: NodeId) {
        Arc::make_mut(&mut self.pairs).push((s, o));
        self.runs.insert(s, o);
    }

    /// Append many rows, then re-sort both runs once.
    pub fn insert_batch(&mut self, rows: &[(NodeId, NodeId)]) {
        Arc::make_mut(&mut self.pairs).extend_from_slice(rows);
        self.runs = SortedRuns::from_pairs(&self.pairs);
    }

    /// Append a shared run of rows, like [`insert_batch`](Self::insert_batch).
    /// An empty table adopts the run itself as its base rows, with no copy.
    pub fn insert_shared(&mut self, rows: &SharedPairs) {
        if self.pairs.is_empty() {
            self.pairs = Arc::clone(rows);
            self.runs = SortedRuns::from_pairs(rows);
        } else {
            self.insert_batch(rows);
        }
    }

    /// Delete every `(s, o)` row; returns the number removed. The
    /// surviving rows keep their order. The subject run is asked first,
    /// so deleting an absent row is two binary searches, no scan and no
    /// copy; a present row costs one pass over the base rows plus the
    /// splice in each run.
    pub fn delete(&mut self, s: NodeId, o: NodeId) -> usize {
        let removed = self.runs.remove_all(s, o);
        if removed > 0 {
            Arc::make_mut(&mut self.pairs).retain(|&row| row != (s, o));
        }
        removed
    }

    /// Both sorted runs, as the graph store traverses them while the
    /// partition is resident.
    #[inline]
    pub fn runs(&self) -> &SortedRuns {
        &self.runs
    }

    /// Row count and distinct subjects and objects.
    #[inline]
    pub fn stats(&self) -> Card {
        self.runs.stats()
    }

    /// The objects of subject `s`, ascending (a row of the subject run).
    #[inline]
    pub fn lookup_s(&self, s: NodeId) -> &[NodeId] {
        self.runs.fwd().row(s)
    }

    /// The subjects of object `o`, ascending (a row of the object run).
    #[inline]
    pub fn lookup_o(&self, o: NodeId) -> &[NodeId] {
        self.runs.rev().row(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::CsrView;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn table() -> PredTable {
        PredTable::from_pairs(vec![(n(5), n(1)), (n(1), n(2)), (n(5), n(3)), (n(2), n(2))])
    }

    /// `view`'s rows in key order, as `(key, neighbour)` pairs.
    fn edges(view: CsrView<'_>) -> Vec<(NodeId, NodeId)> {
        (0..view.keys().len())
            .flat_map(|i| view.row_at(i).iter().map(move |&v| (view.keys()[i], v)))
            .collect()
    }

    /// The runs and statistics equal a from-scratch sort and count.
    fn assert_indexed(t: &PredTable) {
        let rows = t.scan();
        let mut by_s = rows.to_vec();
        by_s.sort_unstable();
        let mut by_o: Vec<_> = rows.iter().map(|&(s, o)| (o, s)).collect();
        by_o.sort_unstable();
        let distinct = |key: fn(&(NodeId, NodeId)) -> NodeId| {
            rows.iter()
                .map(key)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        assert_eq!(edges(t.runs().fwd()), by_s);
        assert_eq!(edges(t.runs().rev()), by_o);
        assert_eq!(
            t.stats(),
            Card {
                rows: rows.len(),
                distinct_s: distinct(|r| r.0),
                distinct_o: distinct(|r| r.1),
            }
        );
    }

    #[test]
    fn scan_preserves_insertion_order() {
        let t = table();
        assert_eq!(t.scan()[0], (n(5), n(1)));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn lookup_by_subject() {
        let t = table();
        assert_eq!(t.lookup_s(n(5)), [n(1), n(3)]);
        assert!(t.lookup_s(n(99)).is_empty());
    }

    #[test]
    fn lookup_by_object_returns_o_s() {
        let t = table();
        assert_eq!(t.lookup_o(n(2)), [n(1), n(2)]);
    }

    #[test]
    fn stats_count_distincts() {
        assert_eq!(
            table().stats(),
            Card {
                rows: 4,
                distinct_s: 3,
                distinct_o: 3
            }
        );
    }

    #[test]
    fn stats_empty_table() {
        let st = PredTable::new().stats();
        assert_eq!(st, Card::default());
        assert_eq!(st.per_subject(), 0.0);
        assert_eq!(st.per_object(), 0.0);
    }

    #[test]
    fn writes_keep_indexes_and_stats_valid() {
        let mut t = table();
        t.insert(n(7), n(7));
        assert_eq!(t.stats().rows, 5);
        assert_eq!(t.lookup_s(n(7)), [n(7)]);
        assert_indexed(&t);
        let removed = t.delete(n(7), n(7));
        assert_eq!(removed, 1);
        assert_eq!(t.stats().rows, 4);
        assert!(t.lookup_s(n(7)).is_empty());
        assert_indexed(&t);
    }

    #[test]
    fn distinct_counts_move_only_on_a_key_crossing_zero() {
        let mut t = table();
        let base = t.stats();
        t.insert(n(5), n(2)); // both keys already present
        assert_eq!((t.stats().distinct_s, t.stats().distinct_o), (3, 3));
        t.insert(n(9), n(2)); // new subject, known object
        assert_eq!((t.stats().distinct_s, t.stats().distinct_o), (4, 3));
        t.insert(n(9), n(9)); // self-loop on a known subject, new object
        t.insert(n(9), n(9)); // and a duplicate of it
        assert_eq!((t.stats().distinct_s, t.stats().distinct_o), (4, 4));
        assert_eq!(t.delete(n(9), n(9)), 2, "every copy goes");
        assert_eq!((t.stats().distinct_s, t.stats().distinct_o), (4, 3));
        assert_eq!(t.delete(n(9), n(2)), 1);
        assert_eq!(t.delete(n(5), n(2)), 1);
        assert_eq!(t.stats(), base);
        assert_indexed(&t);
    }

    #[test]
    fn delete_missing_is_noop() {
        let mut t = table();
        assert_eq!(t.delete(n(42), n(42)), 0);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn insert_batch_appends() {
        let mut t = PredTable::new();
        t.insert_batch(&[(n(2), n(2)), (n(1), n(3))]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_indexed(&t);
        // Every bulk load sorts, onto a non-empty table too.
        t.insert_batch(&[(n(0), n(9)), (n(1), n(1))]);
        assert_indexed(&t);
        t.insert_shared(&Arc::new(vec![(n(1), n(9))]));
        assert_indexed(&t);
        assert_eq!(t.lookup_o(n(9)), [n(0), n(1)]);
        assert_indexed(&table());
    }

    #[test]
    fn an_empty_table_adopts_a_shared_run_and_copies_it_on_write() {
        let run: SharedPairs = Arc::new(vec![(n(5), n(1)), (n(1), n(2))]);
        let mut t = PredTable::new();
        t.insert_shared(&run);
        assert!(
            std::ptr::eq(t.scan(), run.as_slice()),
            "adopted, not copied"
        );
        assert_eq!(t.delete(n(9), n(9)), 0);
        assert!(
            std::ptr::eq(t.scan(), run.as_slice()),
            "a miss copies nothing"
        );
        t.insert(n(7), n(7));
        assert_eq!(*run, [(n(5), n(1)), (n(1), n(2))], "the run is untouched");
        assert_eq!(t.scan(), [(n(5), n(1)), (n(1), n(2)), (n(7), n(7))]);
        // A non-empty table appends a copy of the run.
        t.insert_shared(&run);
        assert_eq!(t.len(), 5);
        assert_eq!(t.delete(n(5), n(1)), 2);
        assert_eq!(t.scan(), [(n(1), n(2)), (n(7), n(7)), (n(1), n(2))]);
    }
}
