//! Per-predicate two-column tables (vertical partitioning).

use kgdual_model::{sorted, NodeId, SharedPairs};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Cardinality statistics for one partition table, used by the planner.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

/// A key-sorted copy of the pairs, shared with readers; `None` until built.
type SortedIndex = RwLock<Option<Arc<Vec<(NodeId, NodeId)>>>>;

/// One predicate's `(subject, object)` table.
///
/// The base storage is an append-ordered pair vector (cheap inserts — the
/// paper's relational store must be "convenient in updating knowledge").
/// It sits behind an `Arc`: a table loaded empty from a dataset partition
/// adopts the partition's own run ([`insert_shared`](Self::insert_shared)),
/// and the first write copies it once if the dataset still holds it
/// (`Arc::make_mut`).
/// Two sorted permutation indexes (`by subject`, `by object`) and the stats
/// are built lazily behind locks on first use, like a real RDBMS's
/// secondary indexes, and from then on **single-row writes keep them
/// valid**: [`insert`](Self::insert) and [`delete`](Self::delete)
/// binary-search each built index and splice the row in or out
/// ([`kgdual_model::sorted`]), and move `distinct_s` / `distinct_o` only
/// when that splice took the key's row count across 0 ↔ 1 — the same rule
/// the graph store's adjacency index writes by. A write never builds an
/// index that is not there (a cold table stays cold and pays only the
/// append), and never recounts or re-sorts one that is; what it pays on a
/// warm table is one `memmove` per index behind the splice position
/// (bounded in the [`sorted`] module docs). Only the bulk append
/// ([`insert_batch`](Self::insert_batch)) drops the indexes, to be rebuilt
/// by the next lookup or [`warm`](Self::warm).
#[derive(Debug, Default)]
pub struct PredTable {
    pairs: SharedPairs,
    by_s: SortedIndex,
    /// Stored as `(object, subject)` so binary search keys on `.0`.
    by_o: SortedIndex,
    stats: RwLock<Option<TableStats>>,
}

impl PredTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from pairs (bulk load).
    pub fn from_pairs(pairs: Vec<(NodeId, NodeId)>) -> Self {
        PredTable {
            pairs: Arc::new(pairs),
            ..Self::default()
        }
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

    /// Append a row. Built indexes take it at its sorted position and the
    /// statistics follow; unbuilt ones stay unbuilt.
    pub fn insert(&mut self, s: NodeId, o: NodeId) {
        Arc::make_mut(&mut self.pairs).push((s, o));
        let new_s = built(&mut self.by_s).map(|idx| sorted::splice_in(idx, (s, o)));
        let new_o = built(&mut self.by_o).map(|idx| sorted::splice_in(idx, (o, s)));
        // Statistics survive only while both indexes vouch for them.
        let stats = self.stats.get_mut();
        *stats = match (*stats, new_s, new_o) {
            (Some(st), Some(new_s), Some(new_o)) => Some(TableStats {
                rows: st.rows + 1,
                distinct_s: st.distinct_s + usize::from(new_s),
                distinct_o: st.distinct_o + usize::from(new_o),
            }),
            _ => None,
        };
    }

    /// Append many rows; drops indexes and stats once (the next lookup or
    /// [`warm`](Self::warm) rebuilds them with one sort each).
    pub fn insert_batch(&mut self, rows: &[(NodeId, NodeId)]) {
        Arc::make_mut(&mut self.pairs).extend_from_slice(rows);
        self.drop_indexes();
    }

    /// Append a shared run of rows, like [`insert_batch`](Self::insert_batch).
    /// An empty table adopts the run itself as its base rows, with no copy.
    pub fn insert_shared(&mut self, rows: &SharedPairs) {
        if self.pairs.is_empty() {
            self.pairs = Arc::clone(rows);
            self.drop_indexes();
        } else {
            self.insert_batch(rows);
        }
    }

    fn drop_indexes(&mut self) {
        *self.by_s.get_mut() = None;
        *self.by_o.get_mut() = None;
        *self.stats.get_mut() = None;
    }

    /// Delete every `(s, o)` row; returns the number removed. The
    /// surviving rows keep their order. A built subject index is asked
    /// first, so deleting an absent row is two binary searches and no
    /// scan; a present row costs one pass over the base rows plus the
    /// splice in each built index. Only a present row copies shared base
    /// rows.
    pub fn delete(&mut self, s: NodeId, o: NodeId) -> usize {
        let gone_s = built(&mut self.by_s).map(|idx| sorted::splice_out(idx, (s, o)));
        if matches!(gone_s, Some((0, _))) {
            return 0;
        }
        let Some(first) = self.pairs.iter().position(|&row| row == (s, o)) else {
            return 0;
        };
        // Close the gaps from the first hit on, keeping the survivors' order.
        let pairs = Arc::make_mut(&mut self.pairs);
        let mut kept = first;
        for i in first + 1..pairs.len() {
            if pairs[i] != (s, o) {
                pairs[kept] = pairs[i];
                kept += 1;
            }
        }
        let removed = pairs.len() - kept;
        pairs.truncate(kept);
        let gone_o = built(&mut self.by_o).map(|idx| sorted::splice_out(idx, (o, s)));
        let stats = self.stats.get_mut();
        *stats = match (*stats, gone_s, gone_o) {
            (Some(st), Some((_, gone_s)), Some((_, gone_o))) => Some(TableStats {
                rows: st.rows - removed,
                distinct_s: st.distinct_s - usize::from(gone_s),
                distinct_o: st.distinct_o - usize::from(gone_o),
            }),
            _ => None,
        };
        removed
    }

    /// The subject-sorted permutation index, building it on first use.
    pub fn s_index(&self) -> Arc<Vec<(NodeId, NodeId)>> {
        if let Some(idx) = self.by_s.read().as_ref() {
            return Arc::clone(idx);
        }
        let mut w = self.by_s.write();
        if let Some(idx) = w.as_ref() {
            return Arc::clone(idx);
        }
        let mut sorted = self.pairs.to_vec();
        sorted.sort_unstable();
        let arc = Arc::new(sorted);
        *w = Some(Arc::clone(&arc));
        arc
    }

    /// The object-sorted permutation index (`(o, s)` pairs), built lazily.
    pub fn o_index(&self) -> Arc<Vec<(NodeId, NodeId)>> {
        if let Some(idx) = self.by_o.read().as_ref() {
            return Arc::clone(idx);
        }
        let mut w = self.by_o.write();
        if let Some(idx) = w.as_ref() {
            return Arc::clone(idx);
        }
        let mut sorted: Vec<(NodeId, NodeId)> = self.pairs.iter().map(|&(s, o)| (o, s)).collect();
        sorted.sort_unstable();
        let arc = Arc::new(sorted);
        *w = Some(Arc::clone(&arc));
        arc
    }

    /// Statistics, computed on first use from the sorted indexes.
    pub fn stats(&self) -> TableStats {
        if let Some(st) = *self.stats.read() {
            return st;
        }
        let s_idx = self.s_index();
        let o_idx = self.o_index();
        let distinct = |v: &[(NodeId, NodeId)]| {
            let mut n = 0usize;
            let mut last: Option<NodeId> = None;
            for &(k, _) in v {
                if last != Some(k) {
                    n += 1;
                    last = Some(k);
                }
            }
            n
        };
        let st = TableStats {
            rows: self.pairs.len(),
            distinct_s: distinct(&s_idx),
            distinct_o: distinct(&o_idx),
        };
        *self.stats.write() = Some(st);
        st
    }

    /// Build both permutation indexes and the statistics now instead of on
    /// first lookup. Idempotent (already-valid caches are reused), and
    /// purely a cache fill: warming changes no query result, row order, or
    /// charged work unit — only where the sort cost lands on the wall
    /// clock. Returns `true` if anything had to be built.
    pub fn warm(&self) -> bool {
        let cold =
            self.by_s.read().is_none() || self.by_o.read().is_none() || self.stats.read().is_none();
        // stats() pulls both indexes through their build-on-miss path.
        let _ = self.stats();
        cold
    }

    /// Rows with subject `s`, via the subject index (range binary search).
    pub fn lookup_s(&self, s: NodeId) -> IndexRange {
        IndexRange::of(self.s_index(), s)
    }

    /// Rows with object `o`, returned as `(o, s)` pairs via the object index.
    pub fn lookup_o(&self, o: NodeId) -> IndexRange {
        IndexRange::of(self.o_index(), o)
    }
}

/// The rows of one key in a built index: a range of the shared index
/// itself, not a copy. Dereferences to the key's pair slice.
#[derive(Clone, Debug)]
pub struct IndexRange {
    index: Arc<Vec<(NodeId, NodeId)>>,
    range: Range<usize>,
}

impl IndexRange {
    fn of(index: Arc<Vec<(NodeId, NodeId)>>, key: NodeId) -> Self {
        let range = key_range(&index, key);
        IndexRange { index, range }
    }
}

impl Deref for IndexRange {
    type Target = [(NodeId, NodeId)];

    fn deref(&self) -> &Self::Target {
        &self.index[self.range.clone()]
    }
}

/// A built index, writable in place: unique under the table's `&mut self`
/// unless a reader still holds the `Arc` from before, who then keeps that
/// version while the table moves on with a copy.
fn built(index: &mut SortedIndex) -> Option<&mut Vec<(NodeId, NodeId)>> {
    index.get_mut().as_mut().map(Arc::make_mut)
}

/// Index range of a key-sorted pair vector whose `.0` equals `key`.
pub(crate) fn key_range(sorted: &[(NodeId, NodeId)], key: NodeId) -> Range<usize> {
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

    #[test]
    fn scan_preserves_insertion_order() {
        let t = table();
        assert_eq!(t.scan()[0], (n(5), n(1)));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn lookup_by_subject() {
        let t = table();
        let rows = t.lookup_s(n(5));
        assert_eq!(*rows, [(n(5), n(1)), (n(5), n(3))]);
        assert!(t.lookup_s(n(99)).is_empty());
    }

    #[test]
    fn lookup_by_object_returns_o_s() {
        let t = table();
        let rows = t.lookup_o(n(2));
        assert_eq!(*rows, [(n(2), n(1)), (n(2), n(2))]);
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
        let _ = t.stats();
        t.insert(n(7), n(7));
        assert_eq!(t.stats().rows, 5);
        assert_eq!(*t.lookup_s(n(7)), [(n(7), n(7))]);
        let removed = t.delete(n(7), n(7));
        assert_eq!(removed, 1);
        assert_eq!(t.stats().rows, 4);
        assert!(t.lookup_s(n(7)).is_empty());
        assert!(!t.warm(), "single-row writes leave a warm table warm");
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
        assert_eq!(*t.s_index(), {
            let mut sorted = t.scan().to_vec();
            sorted.sort_unstable();
            sorted
        });
    }

    #[test]
    fn writes_never_build_an_index() {
        let mut t = table();
        t.insert(n(7), n(7));
        assert_eq!(t.delete(n(5), n(1)), 1);
        assert_eq!(t.delete(n(5), n(1)), 0);
        assert!(t.by_s.get_mut().is_none() && t.by_o.get_mut().is_none());
        assert!(t.stats.get_mut().is_none());
        // A lookup builds one index; stats stay unbuilt until both exist.
        assert_eq!(*t.lookup_s(n(7)), [(n(7), n(7))]);
        t.insert(n(7), n(8));
        assert_eq!(t.lookup_s(n(7)).len(), 2);
        assert!(t.by_o.get_mut().is_none() && t.stats.get_mut().is_none());
        assert_eq!(t.stats().rows, 5);
    }

    #[test]
    fn a_reader_keeps_the_version_it_took() {
        let mut t = table();
        let before = t.s_index();
        t.insert(n(0), n(0));
        assert_eq!(before.len(), 4, "the reader's copy is untouched");
        assert_eq!(t.s_index()[0], (n(0), n(0)));
        drop(before);
        // With no reader left the index is spliced where it lies.
        let at = Arc::as_ptr(&t.s_index());
        t.delete(n(0), n(0));
        assert_eq!(Arc::as_ptr(&t.s_index()), at);
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
        t.insert_batch(&[(n(1), n(1)), (n(2), n(2))]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
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

    #[test]
    fn index_is_cached_until_write() {
        let t = table();
        let a = t.s_index();
        let b = t.s_index();
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the cache");
    }
}
