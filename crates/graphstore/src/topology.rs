//! The matcher's substrate-agnostic view of a graph store.
//!
//! The backtracking matcher ([`crate::matcher`]) needs exactly four things
//! from a substrate: neighbour lookups from a bound node, per-predicate
//! seed enumeration, cardinality statistics for its degree-aware pattern
//! ordering, and the total edge count. [`Topology`] captures that contract;
//! [`crate::GraphStore`]'s compressed sparse rows implement it.
//!
//! # Cost-parity contract
//!
//! The matcher charges work units from the *sizes* the topology reports
//! (neighbour-list lengths, seed lengths), never from how the substrate
//! computes them. Any layout holding the same edge multiset therefore
//! produces **identical work units** for the same query, so a change of
//! memory layout never moves DOTIL's learned designs or a work-unit
//! figure.

use kgdual_model::{NodeId, PredId};

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

/// What the backtracking matcher reads from a graph substrate.
///
/// Neighbour iterators are [`ExactSizeIterator`]s because the matcher
/// charges a lookup's cost (`len + 1` probes) *before* enumerating it,
/// mirroring how a real store pays for the whole adjacency page. The
/// `*_all` variants (variable-predicate patterns) stitch per-predicate
/// rows together, so they return a [`std::borrow::Cow`]: borrowed when a
/// substrate holds the pairs contiguously, owned when it must assemble
/// them.
///
/// # Enumeration-order contract
///
/// Enumeration order is *canonical*, not substrate-defined: [`preds`]
/// ascends by predicate id, [`seed_edges`] ascends by `(s, o)` (duplicate
/// edges adjacent), neighbour lists ascend by node id, and the `*_all`
/// variants ascend by `(pred, node)`. LIMIT queries exit mid-enumeration,
/// so two layouts enumerating in different orders would return
/// different (individually correct) result subsets and charge different
/// work — canonical order is what keeps *every* deterministic metric
/// layout-invariant, truncated queries included.
///
/// [`preds`]: Topology::preds
/// [`seed_edges`]: Topology::seed_edges
pub trait Topology {
    /// Total edges currently stored.
    fn edge_count(&self) -> usize;

    /// Cardinality statistics of one predicate's partition (zero if not
    /// loaded).
    fn partition_stats(&self, pred: PredId) -> PartitionStats;

    /// Loaded predicates, in ascending id order.
    fn preds(&self) -> Vec<PredId>;

    /// Out-neighbours of `s` via `pred`, ascending, with edge multiplicity.
    fn out_neighbours(&self, s: NodeId, pred: PredId)
        -> impl ExactSizeIterator<Item = NodeId> + '_;

    /// In-neighbours of `o` via `pred`, ascending, with edge multiplicity.
    fn in_neighbours(&self, o: NodeId, pred: PredId) -> impl ExactSizeIterator<Item = NodeId> + '_;

    /// All out-edges of `s` regardless of predicate (variable-predicate
    /// patterns).
    fn out_all(&self, s: NodeId) -> std::borrow::Cow<'_, [(PredId, NodeId)]>;

    /// All in-edges of `o` regardless of predicate.
    fn in_all(&self, o: NodeId) -> std::borrow::Cow<'_, [(PredId, NodeId)]>;

    /// Number of edges in one predicate's partition (0 if not loaded).
    fn seed_len(&self, pred: PredId) -> usize;

    /// All `(s, o)` edges of one predicate in ascending `(s, o)` order
    /// (duplicates adjacent) — the matcher's seed scan.
    fn seed_edges(&self, pred: PredId) -> impl Iterator<Item = (NodeId, NodeId)> + '_;

    /// Copy up to `cap` seed edges of `pred`, starting at edge index
    /// `start` of the canonical [`seed_edges`] order, into the two column
    /// buffers; returns how many edges were copied. The vectorized tail
    /// scan stages chunks through this instead of driving the pair
    /// iterator row by row. It must preserve the enumeration-order
    /// contract exactly — `seed_chunk(p, k, c)` yields the same edges as
    /// `seed_edges(p).skip(k).take(c)`.
    ///
    /// [`seed_edges`]: Topology::seed_edges
    fn seed_chunk(
        &self,
        pred: PredId,
        start: usize,
        cap: usize,
        s_out: &mut Vec<NodeId>,
        o_out: &mut Vec<NodeId>,
    ) -> usize;
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
