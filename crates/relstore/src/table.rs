//! Per-predicate two-column tables (vertical partitioning).

use kgdual_model::{sorted, NodeId, SharedPairs};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Cardinality statistics for one partition table, used by the planner.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// Row count.
    pub rows: usize,
    /// Distinct subjects.
    pub distinct_s: usize,
    /// Distinct objects.
    pub distinct_o: usize,
}

impl TableStats {
    /// Estimated rows matching a bound subject.
    pub fn rows_per_subject(&self) -> f64 {
        if self.distinct_s == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct_s as f64
        }
    }

    /// Estimated rows matching a bound object.
    pub fn rows_per_object(&self) -> f64 {
        if self.distinct_o == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct_o as f64
        }
    }
}

/// One predicate's `(subject, object)` table.
///
/// The base storage is an append-ordered pair vector (cheap inserts — the
/// paper's relational store must be "convenient in updating knowledge").
/// It sits behind an `Arc`: a table loaded empty from a dataset partition
/// adopts the partition's own run ([`insert_shared`](Self::insert_shared)),
/// and the first write copies it once if the dataset still holds it
/// (`Arc::make_mut`).
///
/// Like a real RDBMS's secondary indexes, the two sorted permutation
/// indexes (`by subject`, `by object`) and the statistics exist as long as
/// the table does. Every bulk load ([`from_pairs`](Self::from_pairs),
/// [`insert_batch`](Self::insert_batch),
/// [`insert_shared`](Self::insert_shared)) sorts both indexes and counts
/// the statistics. Single-row writes keep them valid:
/// [`insert`](Self::insert) and [`delete`](Self::delete) binary-search each
/// index and splice the row in or out ([`kgdual_model::sorted`]), and move
/// `distinct_s` / `distinct_o` only when that splice took the key's row
/// count across 0 ↔ 1 — the same rule the graph store's adjacency index
/// writes by. A single-row write pays one `memmove` per index behind the
/// splice position (bounded in the [`sorted`] module docs); a bulk append
/// re-sorts both indexes of its table. Nothing is built on first use, so
/// there is no warm-up and a lookup borrows a slice of the index.
#[derive(Debug, Default)]
pub struct PredTable {
    pairs: SharedPairs,
    by_s: Vec<(NodeId, NodeId)>,
    /// Stored as `(object, subject)` so binary search keys on `.0`.
    by_o: Vec<(NodeId, NodeId)>,
    stats: TableStats,
}

impl PredTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from pairs (bulk load), indexes and statistics
    /// included.
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

    /// Append a row. Both indexes take it at its sorted position and the
    /// statistics follow.
    pub fn insert(&mut self, s: NodeId, o: NodeId) {
        Arc::make_mut(&mut self.pairs).push((s, o));
        let new_s = sorted::splice_in(&mut self.by_s, (s, o));
        let new_o = sorted::splice_in(&mut self.by_o, (o, s));
        self.stats.rows += 1;
        self.stats.distinct_s += usize::from(new_s);
        self.stats.distinct_o += usize::from(new_o);
    }

    /// Append many rows, then re-sort both indexes and recount the
    /// statistics once.
    pub fn insert_batch(&mut self, rows: &[(NodeId, NodeId)]) {
        Arc::make_mut(&mut self.pairs).extend_from_slice(rows);
        self.reindex();
    }

    /// Append a shared run of rows, like [`insert_batch`](Self::insert_batch).
    /// An empty table adopts the run itself as its base rows, with no copy.
    pub fn insert_shared(&mut self, rows: &SharedPairs) {
        if self.pairs.is_empty() {
            self.pairs = Arc::clone(rows);
            self.reindex();
        } else {
            self.insert_batch(rows);
        }
    }

    /// Sort both indexes from the base rows and count the statistics,
    /// reusing the indexes' allocations.
    fn reindex(&mut self) {
        self.by_s.clear();
        self.by_s.extend_from_slice(&self.pairs);
        self.by_s.sort_unstable();
        self.by_o.clear();
        self.by_o.extend(self.pairs.iter().map(|&(s, o)| (o, s)));
        self.by_o.sort_unstable();
        self.stats = TableStats {
            rows: self.pairs.len(),
            distinct_s: distinct_keys(&self.by_s),
            distinct_o: distinct_keys(&self.by_o),
        };
    }

    /// Delete every `(s, o)` row; returns the number removed. The
    /// surviving rows keep their order. The subject index is asked first,
    /// so deleting an absent row is two binary searches and no scan; a
    /// present row costs one pass over the base rows plus the splice in
    /// each index. Only a present row copies shared base rows.
    pub fn delete(&mut self, s: NodeId, o: NodeId) -> usize {
        let (removed, gone_s) = sorted::splice_out(&mut self.by_s, (s, o));
        if removed == 0 {
            return 0;
        }
        let (_, gone_o) = sorted::splice_out(&mut self.by_o, (o, s));
        Arc::make_mut(&mut self.pairs).retain(|&row| row != (s, o));
        self.stats.rows -= removed;
        self.stats.distinct_s -= usize::from(gone_s);
        self.stats.distinct_o -= usize::from(gone_o);
        removed
    }

    /// The subject-sorted permutation index.
    #[inline]
    pub fn s_index(&self) -> &[(NodeId, NodeId)] {
        &self.by_s
    }

    /// The object-sorted permutation index (`(o, s)` pairs).
    #[inline]
    pub fn o_index(&self) -> &[(NodeId, NodeId)] {
        &self.by_o
    }

    /// Row count and distinct subjects and objects.
    #[inline]
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Rows with subject `s`, via the subject index (range binary search).
    pub fn lookup_s(&self, s: NodeId) -> &[(NodeId, NodeId)] {
        &self.by_s[key_range(&self.by_s, s)]
    }

    /// Rows with object `o`, returned as `(o, s)` pairs via the object index.
    pub fn lookup_o(&self, o: NodeId) -> &[(NodeId, NodeId)] {
        &self.by_o[key_range(&self.by_o, o)]
    }
}

/// Distinct keys (`.0`) of a key-sorted pair vector.
fn distinct_keys(sorted: &[(NodeId, NodeId)]) -> usize {
    usize::from(!sorted.is_empty()) + sorted.windows(2).filter(|w| w[0].0 != w[1].0).count()
}

/// Index range of a key-sorted pair vector whose `.0` equals `key`.
fn key_range(sorted: &[(NodeId, NodeId)], key: NodeId) -> Range<usize> {
    let lo = sorted.partition_point(|&(k, _)| k < key);
    let hi = sorted.partition_point(|&(k, _)| k <= key);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn table() -> PredTable {
        PredTable::from_pairs(vec![(n(5), n(1)), (n(1), n(2)), (n(5), n(3)), (n(2), n(2))])
    }

    /// The indexes and statistics equal a from-scratch sort and count.
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
        assert_eq!(t.s_index(), by_s);
        assert_eq!(t.o_index(), by_o);
        assert_eq!(
            t.stats(),
            TableStats {
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
        assert_eq!(t.lookup_s(n(5)), [(n(5), n(1)), (n(5), n(3))]);
        assert!(t.lookup_s(n(99)).is_empty());
    }

    #[test]
    fn lookup_by_object_returns_o_s() {
        let t = table();
        assert_eq!(t.lookup_o(n(2)), [(n(2), n(1)), (n(2), n(2))]);
    }

    #[test]
    fn stats_count_distincts() {
        let t = table();
        let st = t.stats();
        assert_eq!(
            st,
            TableStats {
                rows: 4,
                distinct_s: 3,
                distinct_o: 3
            }
        );
        assert!((st.rows_per_subject() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stats_empty_table() {
        let t = PredTable::new();
        let st = t.stats();
        assert_eq!(st.rows, 0);
        assert_eq!(st.rows_per_subject(), 0.0);
        assert_eq!(st.rows_per_object(), 0.0);
    }

    #[test]
    fn writes_keep_indexes_and_stats_valid() {
        let mut t = table();
        t.insert(n(7), n(7));
        assert_eq!(t.stats().rows, 5);
        assert_eq!(t.lookup_s(n(7)), [(n(7), n(7))]);
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
        // Every bulk load sorts and counts, onto a non-empty table too.
        t.insert_batch(&[(n(0), n(9)), (n(1), n(1))]);
        assert_indexed(&t);
        t.insert_shared(&Arc::new(vec![(n(1), n(9))]));
        assert_indexed(&t);
        assert_eq!(t.lookup_o(n(9)), [(n(9), n(0)), (n(9), n(1))]);
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
