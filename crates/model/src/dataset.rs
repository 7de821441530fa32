//! An encoded knowledge graph: dictionary + partitioned triples.

use crate::dict::Dictionary;
use crate::error::ModelError;
use crate::ids::{NodeId, PredId};
use crate::partition::{PairLists, PartitionSet};
use crate::term::Term;
use crate::triple::Triple;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Summary statistics matching the paper's Table 3 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Total triples.
    pub triples: usize,
    /// Distinct subjects ∪ objects (`#-S∪O`).
    pub nodes: usize,
    /// Distinct predicates (`#-P`).
    pub preds: usize,
}

/// A complete, dictionary-encoded knowledge graph.
///
/// This is the *logical* graph. Its dictionary and every partition's pair
/// run sit behind `Arc`s, so a clone is a handful of reference-count bumps
/// and a dual store built from one shares them: the store keeps the
/// dictionary, and the relational store adopts each run as a table's base
/// rows. Writes copy on write (`Arc::make_mut`): the first write to a
/// shared dictionary or partition copies that one structure, and no holder
/// sees another's writes. The sorted indexes and the graph store's CSR
/// partitions are each store's own.
#[derive(Default, Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    dict: Arc<Dictionary>,
    partitions: PartitionSet,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Share an owned dictionary and owned pair lists, once.
    pub(crate) fn from_owned(dict: Dictionary, pairs: PairLists) -> Self {
        Dataset {
            dict: Arc::new(dict),
            partitions: pairs.into_set(),
        }
    }

    /// The term dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The partitioned triples.
    pub fn partitions(&self) -> &PartitionSet {
        &self.partitions
    }

    /// Encode and insert one `(s, p, o)` statement given as terms.
    pub fn insert_terms(&mut self, s: &Term, p: &str, o: &Term) -> Result<Triple, ModelError> {
        let dict = Arc::make_mut(&mut self.dict);
        let s = dict.encode_node(s)?;
        let p = dict.encode_pred(p)?;
        let o = dict.encode_node(o)?;
        let t = Triple::new(s, p, o);
        self.partitions.insert(t);
        Ok(t)
    }

    /// Insert an already-encoded triple (ids must come from this dataset's
    /// dictionary).
    pub fn insert(&mut self, t: Triple) {
        self.partitions.insert(t);
    }

    /// Remove every copy of an encoded triple.
    pub fn remove(&mut self, t: Triple) -> usize {
        self.partitions.remove(t)
    }

    /// Total triples.
    pub fn len(&self) -> usize {
        self.partitions.total_triples()
    }

    /// True if the dataset holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Table-3 style statistics.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            triples: self.len(),
            nodes: self.dict.node_count(),
            preds: self.dict.pred_count(),
        }
    }

    /// Iterate all triples (partition by partition).
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.partitions.iter().flat_map(|p| p.triples())
    }

    /// Split into parts for handing the dictionary and triples to stores.
    pub fn into_parts(self) -> (Arc<Dictionary>, PartitionSet) {
        (self.dict, self.partitions)
    }
}

/// Incremental builder used by the workload generators; adds interning
/// caches for the common "same subject many predicates" emission pattern.
///
/// The builder enforces RDF **set semantics**: a statement added twice is
/// stored once. (Generators sample with replacement; without this, the
/// bag-semantics stores would legitimately report different duplicate
/// multiplicities depending on plan shape.) It accumulates into an owned
/// dictionary and owned pair lists, and [`build`](Self::build) shares them.
#[derive(Default, Debug)]
pub struct DatasetBuilder {
    dict: Dictionary,
    pairs: PairLists,
    seen: crate::fx::FxHashSet<Triple>,
}

impl DatasetBuilder {
    /// Start building an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a node term ahead of time (useful for entity pools).
    pub fn node(&mut self, term: &Term) -> NodeId {
        self.dict
            .encode_node(term)
            .expect("u32 id space exhausted while building dataset")
    }

    /// Intern a predicate ahead of time.
    pub fn pred(&mut self, iri: &str) -> PredId {
        self.dict
            .encode_pred(iri)
            .expect("u32 id space exhausted while building dataset")
    }

    /// Add an encoded triple (deduplicated); returns `false` on duplicate.
    pub fn add(&mut self, s: NodeId, p: PredId, o: NodeId) -> bool {
        let t = Triple::new(s, p, o);
        if !self.seen.insert(t) {
            return false;
        }
        self.pairs.push(t);
        true
    }

    /// Add a statement given as terms (deduplicated); returns `false` on
    /// duplicate.
    pub fn add_terms(&mut self, s: &Term, p: &str, o: &Term) -> bool {
        let s = self.node(s);
        let p = self.pred(p);
        let o = self.node(o);
        self.add(s, p, o)
    }

    /// Current triple count.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish building.
    pub fn build(self) -> Dataset {
        Dataset::from_owned(self.dict, self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_terms_encodes_and_counts() {
        let mut ds = Dataset::new();
        let t1 = ds
            .insert_terms(&Term::iri("y:Einstein"), "y:wasBornIn", &Term::iri("y:Ulm"))
            .unwrap();
        let t2 = ds
            .insert_terms(&Term::iri("y:Kleiner"), "y:wasBornIn", &Term::iri("y:Ulm"))
            .unwrap();
        assert_eq!(t1.p, t2.p);
        assert_eq!(t1.o, t2.o);
        assert_ne!(t1.s, t2.s);
        let stats = ds.stats();
        assert_eq!(
            stats,
            DatasetStats {
                triples: 2,
                nodes: 3,
                preds: 1
            }
        );
    }

    #[test]
    fn triples_iterates_everything() {
        let mut ds = Dataset::new();
        ds.insert_terms(&Term::iri("a"), "p", &Term::iri("b"))
            .unwrap();
        ds.insert_terms(&Term::iri("a"), "q", &Term::iri("c"))
            .unwrap();
        assert_eq!(ds.triples().count(), 2);
        assert!(!ds.is_empty());
    }

    #[test]
    fn remove_updates_len() {
        let mut ds = Dataset::new();
        let t = ds
            .insert_terms(&Term::iri("a"), "p", &Term::iri("b"))
            .unwrap();
        assert_eq!(ds.remove(t), 1);
        assert!(ds.is_empty());
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = DatasetBuilder::new();
        let s = b.node(&Term::iri("s"));
        let p = b.pred("p");
        let o = b.node(&Term::iri("o"));
        b.add(s, p, o);
        b.add_terms(&Term::iri("s"), "p2", &Term::lit("v"));
        assert_eq!(b.len(), 2);
        let ds = b.build();
        assert_eq!(ds.stats().preds, 2);
        assert_eq!(ds.stats().nodes, 3);
    }
}
