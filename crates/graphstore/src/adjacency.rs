//! Index-free adjacency storage.
//!
//! Every node owns its outgoing and incoming edge lists, sorted by
//! `(predicate, neighbour)` so that a predicate's slice is a binary-search
//! range. Neighbour lookup is `O(log deg + matches)` regardless of the
//! total graph size — the property the paper leans on ("the time
//! complexity of graph traversal \[is\] positively related to the traversal
//! range but irrelevant to the entire graph size").

use crate::topology::Topology;
use kgdual_model::fx::{FxHashMap, FxHashSet};
use kgdual_model::{sorted, NodeId, PredId};
use std::borrow::Cow;

pub use crate::topology::PartitionStats;

/// Out/in edge lists of one node, each sorted by `(pred, neighbour)`.
#[derive(Default, Debug, Clone)]
struct NodeAdj {
    out: Vec<(PredId, NodeId)>,
    inc: Vec<(PredId, NodeId)>,
}

impl NodeAdj {
    /// No edge in either direction: the node map drops such nodes.
    fn is_empty(&self) -> bool {
        self.out.is_empty() && self.inc.is_empty()
    }
}

/// The adjacency index plus per-predicate edge seed lists.
#[derive(Default, Debug)]
pub struct AdjacencyIndex {
    nodes: FxHashMap<NodeId, NodeAdj>,
    /// All `(s, o)` edges of each loaded predicate, kept in ascending
    /// `(s, o)` order; the matcher's seed scan. The ordering is part of
    /// the [`Topology`] contract (LIMIT queries exit mid-scan, so every
    /// substrate must enumerate seeds identically).
    seeds: FxHashMap<PredId, Vec<(NodeId, NodeId)>>,
    stats: FxHashMap<PredId, PartitionStats>,
    edges: usize,
}

impl AdjacencyIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total edges currently stored.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Edges of one predicate in ascending `(s, o)` order (empty slice if
    /// not loaded).
    pub fn seed_edges(&self, pred: PredId) -> &[(NodeId, NodeId)] {
        self.seeds.get(&pred).map_or(&[], Vec::as_slice)
    }

    /// Cardinality statistics of one predicate's partition.
    pub fn partition_stats(&self, pred: PredId) -> PartitionStats {
        self.stats.get(&pred).copied().unwrap_or_default()
    }

    /// Recompute a partition's distinct counts from its seed list (bulk
    /// load only; single-edge writes adjust them in place).
    fn refresh_stats(&mut self, pred: PredId) {
        let Some(seed) = self.seeds.get(&pred) else {
            self.stats.remove(&pred);
            return;
        };
        let mut subjects: Vec<NodeId> = seed.iter().map(|&(s, _)| s).collect();
        let mut objects: Vec<NodeId> = seed.iter().map(|&(_, o)| o).collect();
        subjects.sort_unstable();
        subjects.dedup();
        objects.sort_unstable();
        objects.dedup();
        self.stats.insert(
            pred,
            PartitionStats {
                edges: seed.len(),
                distinct_s: subjects.len(),
                distinct_o: objects.len(),
            },
        );
    }

    /// Loaded predicates.
    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.seeds.keys().copied()
    }

    /// Bulk-insert a whole partition; sorts touched adjacency lists once.
    pub fn insert_partition(&mut self, pred: PredId, pairs: &[(NodeId, NodeId)]) {
        let mut touched: FxHashSet<NodeId> = FxHashSet::default();
        for &(s, o) in pairs {
            self.nodes.entry(s).or_default().out.push((pred, o));
            self.nodes.entry(o).or_default().inc.push((pred, s));
            touched.insert(s);
            touched.insert(o);
        }
        for n in touched {
            let adj = self.nodes.get_mut(&n).expect("touched node exists");
            adj.out.sort_unstable();
            adj.inc.sort_unstable();
        }
        let seed = self.seeds.entry(pred).or_default();
        seed.extend_from_slice(pairs);
        seed.sort_unstable();
        self.edges += pairs.len();
        self.refresh_stats(pred);
    }

    /// Insert a single edge, keeping adjacency lists, the seed list and
    /// the partition's statistics exact. Three binary-searched splices
    /// ([`kgdual_model::sorted`]); the distinct counts move only when `s`
    /// gains its first `pred` out-edge or `o` its first `pred` in-edge,
    /// which the splice into that node's own list reports. The cost left
    /// is the `memmove` behind the seed position (bounded in the
    /// [`sorted`] module docs).
    pub fn insert_edge(&mut self, s: NodeId, pred: PredId, o: NodeId) {
        let new_s = sorted::splice_in(&mut self.nodes.entry(s).or_default().out, (pred, o));
        let new_o = sorted::splice_in(&mut self.nodes.entry(o).or_default().inc, (pred, s));
        sorted::splice_in(self.seeds.entry(pred).or_default(), (s, o));
        self.edges += 1;
        let st = self.stats.entry(pred).or_default();
        st.edges += 1;
        st.distinct_s += usize::from(new_s);
        st.distinct_o += usize::from(new_o);
    }

    /// Remove every copy of one edge; returns how many were removed. The
    /// mirror of [`insert_edge`](Self::insert_edge): an equal range is
    /// drained from each of the three sorted lists, the distinct counts
    /// drop only when a node lost its last `pred` edge on that side, and a
    /// node left with no edges at all leaves the node map. An absent edge
    /// costs two binary searches.
    pub fn remove_edge(&mut self, s: NodeId, pred: PredId, o: NodeId) -> usize {
        let Some(seed) = self.seeds.get_mut(&pred) else {
            return 0;
        };
        let (removed, _) = sorted::splice_out(seed, (s, o));
        if removed == 0 {
            return 0;
        }
        let adj = self.nodes.get_mut(&s).expect("seed edges have nodes");
        let (_, gone_s) = sorted::splice_out(&mut adj.out, (pred, o));
        if adj.is_empty() {
            self.nodes.remove(&s);
        }
        let adj = self.nodes.get_mut(&o).expect("seed edges have nodes");
        let (_, gone_o) = sorted::splice_out(&mut adj.inc, (pred, s));
        if adj.is_empty() {
            self.nodes.remove(&o);
        }
        self.edges -= removed;
        let st = self.stats.get_mut(&pred).expect("seeds imply stats");
        st.edges -= removed;
        st.distinct_s -= usize::from(gone_s);
        st.distinct_o -= usize::from(gone_o);
        removed
    }

    /// Drop an entire predicate's edges; returns how many were removed.
    pub fn remove_partition(&mut self, pred: PredId) -> usize {
        let Some(seed) = self.seeds.remove(&pred) else {
            return 0;
        };
        let mut touched: FxHashSet<NodeId> = FxHashSet::default();
        for &(s, o) in &seed {
            touched.insert(s);
            touched.insert(o);
        }
        for n in touched {
            if let Some(adj) = self.nodes.get_mut(&n) {
                adj.out.retain(|&(p, _)| p != pred);
                adj.inc.retain(|&(p, _)| p != pred);
                if adj.is_empty() {
                    self.nodes.remove(&n);
                }
            }
        }
        self.edges -= seed.len();
        self.stats.remove(&pred);
        seed.len()
    }

    /// Out-neighbours of `s` via `pred` (index-free adjacency lookup).
    pub fn out_neighbours(&self, s: NodeId, pred: PredId) -> &[(PredId, NodeId)] {
        self.nodes
            .get(&s)
            .map_or(&[], |adj| pred_range(&adj.out, pred))
    }

    /// In-neighbours of `o` via `pred`.
    pub fn in_neighbours(&self, o: NodeId, pred: PredId) -> &[(PredId, NodeId)] {
        self.nodes
            .get(&o)
            .map_or(&[], |adj| pred_range(&adj.inc, pred))
    }

    /// All out edges of `s` regardless of predicate (variable-predicate
    /// patterns).
    pub fn out_all(&self, s: NodeId) -> &[(PredId, NodeId)] {
        self.nodes.get(&s).map_or(&[], |adj| adj.out.as_slice())
    }

    /// All in edges of `o` regardless of predicate.
    pub fn in_all(&self, o: NodeId) -> &[(PredId, NodeId)] {
        self.nodes.get(&o).map_or(&[], |adj| adj.inc.as_slice())
    }

    /// Does the edge `(s, pred, o)` exist?
    pub fn has_edge(&self, s: NodeId, pred: PredId, o: NodeId) -> bool {
        self.nodes
            .get(&s)
            .is_some_and(|adj| adj.out.binary_search(&(pred, o)).is_ok())
    }
}

/// The matcher's view of the adjacency index: neighbour slices are held
/// contiguously, so every lookup is borrow-only.
impl Topology for AdjacencyIndex {
    fn edge_count(&self) -> usize {
        AdjacencyIndex::edge_count(self)
    }

    fn partition_stats(&self, pred: PredId) -> PartitionStats {
        AdjacencyIndex::partition_stats(self, pred)
    }

    fn preds(&self) -> Vec<PredId> {
        let mut preds: Vec<PredId> = AdjacencyIndex::preds(self).collect();
        preds.sort_unstable();
        preds
    }

    fn out_neighbours(
        &self,
        s: NodeId,
        pred: PredId,
    ) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        AdjacencyIndex::out_neighbours(self, s, pred)
            .iter()
            .map(|&(_, n)| n)
    }

    fn in_neighbours(&self, o: NodeId, pred: PredId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        AdjacencyIndex::in_neighbours(self, o, pred)
            .iter()
            .map(|&(_, n)| n)
    }

    fn out_all(&self, s: NodeId) -> Cow<'_, [(PredId, NodeId)]> {
        Cow::Borrowed(AdjacencyIndex::out_all(self, s))
    }

    fn in_all(&self, o: NodeId) -> Cow<'_, [(PredId, NodeId)]> {
        Cow::Borrowed(AdjacencyIndex::in_all(self, o))
    }

    fn seed_len(&self, pred: PredId) -> usize {
        self.seed_edges(pred).len()
    }

    fn seed_edges(&self, pred: PredId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        AdjacencyIndex::seed_edges(self, pred).iter().copied()
    }

    fn seed_chunk(
        &self,
        pred: PredId,
        start: usize,
        cap: usize,
        s_out: &mut Vec<NodeId>,
        o_out: &mut Vec<NodeId>,
    ) -> usize {
        // Seeds are one contiguous sorted pair vector: a chunk is a slice.
        let seed = AdjacencyIndex::seed_edges(self, pred);
        let end = seed.len().min(start.saturating_add(cap));
        if start >= end {
            return 0;
        }
        for &(s, o) in &seed[start..end] {
            s_out.push(s);
            o_out.push(o);
        }
        end - start
    }
}

/// Binary-search the `pred` slice of a `(pred, node)`-sorted list.
fn pred_range(sorted: &[(PredId, NodeId)], pred: PredId) -> &[(PredId, NodeId)] {
    let lo = sorted.partition_point(|&(p, _)| p < pred);
    let hi = sorted.partition_point(|&(p, _)| p <= pred);
    &sorted[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn p(i: u32) -> PredId {
        PredId(i)
    }

    fn sample() -> AdjacencyIndex {
        let mut idx = AdjacencyIndex::new();
        idx.insert_partition(p(0), &[(n(1), n(2)), (n(1), n(3)), (n(4), n(2))]);
        idx.insert_partition(p(1), &[(n(2), n(5))]);
        idx
    }

    #[test]
    fn bulk_load_counts_edges() {
        let idx = sample();
        assert_eq!(idx.edge_count(), 4);
        assert_eq!(idx.seed_edges(p(0)).len(), 3);
        assert_eq!(idx.seed_edges(p(9)).len(), 0);
        let mut preds: Vec<_> = idx.preds().collect();
        preds.sort();
        assert_eq!(preds, vec![p(0), p(1)]);
    }

    #[test]
    fn out_and_in_neighbours() {
        let idx = sample();
        let outs: Vec<u32> = idx
            .out_neighbours(n(1), p(0))
            .iter()
            .map(|&(_, o)| o.0)
            .collect();
        assert_eq!(outs, vec![2, 3]);
        let ins: Vec<u32> = idx
            .in_neighbours(n(2), p(0))
            .iter()
            .map(|&(_, s)| s.0)
            .collect();
        assert_eq!(ins, vec![1, 4]);
        assert!(idx.out_neighbours(n(1), p(1)).is_empty());
        assert!(idx.out_neighbours(n(99), p(0)).is_empty());
    }

    #[test]
    fn all_edges_for_var_pred() {
        let idx = sample();
        assert_eq!(idx.out_all(n(2)).len(), 1);
        assert_eq!(idx.in_all(n(2)).len(), 2);
    }

    #[test]
    fn has_edge_lookup() {
        let idx = sample();
        assert!(idx.has_edge(n(1), p(0), n(2)));
        assert!(!idx.has_edge(n(1), p(1), n(2)));
        assert!(!idx.has_edge(n(2), p(0), n(1)), "edges are directed");
    }

    #[test]
    fn single_edge_insert_keeps_sorted_order() {
        let mut idx = sample();
        idx.insert_edge(n(1), p(0), n(0));
        let outs: Vec<u32> = idx
            .out_neighbours(n(1), p(0))
            .iter()
            .map(|&(_, o)| o.0)
            .collect();
        assert_eq!(outs, vec![0, 2, 3]);
        assert_eq!(idx.edge_count(), 5);
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let mut idx = sample();
        assert_eq!(idx.remove_edge(n(1), p(0), n(2)), 1);
        assert!(!idx.has_edge(n(1), p(0), n(2)));
        assert_eq!(idx.in_neighbours(n(2), p(0)).len(), 1);
        assert_eq!(idx.edge_count(), 3);
        assert_eq!(idx.remove_edge(n(1), p(0), n(2)), 0, "already gone");
    }

    #[test]
    fn remove_partition_clears_everything() {
        let mut idx = sample();
        assert_eq!(idx.remove_partition(p(0)), 3);
        assert_eq!(idx.edge_count(), 1);
        assert!(idx.seed_edges(p(0)).is_empty());
        assert!(idx.out_neighbours(n(1), p(0)).is_empty());
        // p(1) untouched.
        assert!(idx.has_edge(n(2), p(1), n(5)));
        assert_eq!(idx.remove_partition(p(0)), 0);
    }

    #[test]
    fn partition_stats_track_mutations() {
        let mut idx = sample();
        let st = idx.partition_stats(p(0));
        assert_eq!(
            st,
            PartitionStats {
                edges: 3,
                distinct_s: 2,
                distinct_o: 2
            }
        );
        assert!((st.out_degree() - 1.5).abs() < 1e-9);
        assert!((st.in_degree() - 1.5).abs() < 1e-9);
        idx.insert_edge(n(1), p(0), n(9));
        assert_eq!(idx.partition_stats(p(0)).distinct_o, 3);
        idx.remove_partition(p(0));
        assert_eq!(idx.partition_stats(p(0)), PartitionStats::default());
        assert_eq!(PartitionStats::default().out_degree(), 0.0);
    }

    #[test]
    fn single_edge_writes_adjust_stats_without_recounting() {
        let mut idx = sample();
        let base = idx.partition_stats(p(0));
        idx.insert_edge(n(1), p(0), n(2)); // duplicate: no key is new
        idx.insert_edge(n(7), p(0), n(7)); // self-loop: new on both sides
        idx.insert_edge(n(2), p(0), n(5)); // both nodes known, but not under p(0)
        assert_eq!(
            idx.partition_stats(p(0)),
            PartitionStats {
                edges: 6,
                distinct_s: 4,
                distinct_o: 4
            }
        );
        assert_eq!(idx.remove_edge(n(1), p(0), n(2)), 2);
        assert_eq!(idx.partition_stats(p(0)).distinct_s, 4, "1 still has 1→3");
        assert_eq!(idx.partition_stats(p(0)).distinct_o, 4, "2 still has 4→2");
        assert_eq!(idx.remove_edge(n(7), p(0), n(7)), 1);
        assert_eq!(idx.remove_edge(n(2), p(0), n(5)), 1);
        idx.insert_edge(n(1), p(0), n(2));
        assert_eq!(idx.partition_stats(p(0)), base);
        assert_eq!(idx.partition_stats(p(1)).edges, 1, "p(1) untouched");
        assert_eq!(
            idx.seed_edges(p(0)),
            [(n(1), n(2)), (n(1), n(3)), (n(4), n(2))]
        );
    }

    #[test]
    fn insert_delete_churn_leaves_no_empty_nodes() {
        let mut idx = sample();
        let nodes = idx.nodes.len();
        for i in 100..200 {
            idx.insert_edge(n(i), p(0), n(i + 1000));
            idx.insert_edge(n(i), p(0), n(i)); // self-loop
            idx.insert_edge(n(i), p(1), n(2)); // onto a node that stays
        }
        assert_eq!(idx.nodes.len(), nodes + 200);
        for i in 100..200 {
            assert_eq!(idx.remove_edge(n(i), p(0), n(i + 1000)), 1);
            assert_eq!(idx.remove_edge(n(i), p(0), n(i)), 1);
            assert_eq!(idx.remove_edge(n(i), p(1), n(2)), 1);
        }
        assert_eq!(idx.nodes.len(), nodes, "churned nodes are pruned");
        assert_eq!(idx.edge_count(), 4);
        assert!(
            idx.has_edge(n(2), p(1), n(5)),
            "surviving nodes keep their edges"
        );
    }

    #[test]
    fn duplicate_edges_both_counted_and_removed() {
        let mut idx = AdjacencyIndex::new();
        idx.insert_edge(n(1), p(0), n(2));
        idx.insert_edge(n(1), p(0), n(2));
        assert_eq!(idx.edge_count(), 2);
        assert_eq!(idx.remove_edge(n(1), p(0), n(2)), 2);
        assert_eq!(idx.edge_count(), 0);
    }
}
