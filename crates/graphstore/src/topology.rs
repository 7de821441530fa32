//! The matcher's view of a graph store.
//!
//! The frontier matcher ([`crate::matcher`]) needs exactly four things
//! from [`crate::GraphStore`]: each partition's rows in both directions as
//! sorted slices ([`CsrView`]), the resident predicates, cardinality
//! statistics for its degree-aware pattern ordering ([`PartitionStats`]),
//! and the total edge count.
//!
//! # Cost-parity contract
//!
//! The matcher charges work units from the *sizes* of the slices the
//! store hands out (row lengths, partition lengths), never from how it
//! searched or merged them. Any layout holding the same edge multiset
//! therefore produces **identical work units** for the same query, so a
//! change of memory layout or of execution strategy never moves DOTIL's
//! learned designs or a work-unit figure.
//!
//! # Enumeration-order contract
//!
//! Enumeration order is *canonical*, not layout-defined:
//! [`GraphStore::preds`](crate::GraphStore::preds) ascends by predicate
//! id, and every [`CsrView`] ascends by key and, within a row, by
//! neighbour. LIMIT queries exit mid-enumeration, so two layouts
//! enumerating in different orders would return different (individually
//! correct) result subsets and charge different work — canonical order is
//! what keeps *every* deterministic metric layout-invariant, truncated
//! queries included. It is also what lets the matcher close a cycle by
//! merging two sorted runs.

use kgdual_model::NodeId;

/// Per-partition cardinalities, kept current on every mutation. The
/// matcher's degree-aware pattern ordering depends on these.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Edge count.
    pub edges: usize,
    /// Distinct subjects.
    pub distinct_s: usize,
    /// Distinct objects.
    pub distinct_o: usize,
}

impl PartitionStats {
    /// Average out-degree of a subject in this partition.
    pub fn out_degree(&self) -> f64 {
        if self.distinct_s == 0 {
            0.0
        } else {
            self.edges as f64 / self.distinct_s as f64
        }
    }

    /// Average in-degree of an object in this partition.
    pub fn in_degree(&self) -> f64 {
        if self.distinct_o == 0 {
            0.0
        } else {
            self.edges as f64 / self.distinct_o as f64
        }
    }
}

/// One direction of one partition as compressed sparse rows: `keys` are
/// the distinct row nodes, ascending; `offsets[i]..offsets[i + 1]`
/// delimits row `i` in `nbrs`; each row ascends, duplicate edges adjacent.
/// Read in key order the rows are the partition's edges in ascending
/// `(key, neighbour)` order. Only the store builds one, so the three
/// slices always agree.
#[derive(Copy, Clone, Debug, Default)]
pub struct CsrView<'a> {
    pub(crate) keys: &'a [NodeId],
    /// `keys.len() + 1` entries (none when the view is empty).
    pub(crate) offsets: &'a [usize],
    pub(crate) nbrs: &'a [NodeId],
}

impl<'a> CsrView<'a> {
    /// The distinct row nodes, ascending.
    pub fn keys(&self) -> &'a [NodeId] {
        self.keys
    }

    /// Edge count.
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// True when the partition holds no edges.
    pub fn is_empty(&self) -> bool {
        self.nbrs.is_empty()
    }

    /// Row `i` (the neighbours of `keys[i]`).
    pub fn row_at(&self, i: usize) -> &'a [NodeId] {
        &self.nbrs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The neighbours of `key`, found by binary search (empty if absent).
    pub fn row(&self, key: NodeId) -> &'a [NodeId] {
        self.keys
            .binary_search(&key)
            .map_or(&[], |i| self.row_at(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_handle_empty_partitions() {
        let st = PartitionStats::default();
        assert_eq!(st.out_degree(), 0.0);
        assert_eq!(st.in_degree(), 0.0);
        let st = PartitionStats {
            edges: 6,
            distinct_s: 2,
            distinct_o: 3,
        };
        assert!((st.out_degree() - 3.0).abs() < 1e-12);
        assert!((st.in_degree() - 2.0).abs() < 1e-12);
    }
}
