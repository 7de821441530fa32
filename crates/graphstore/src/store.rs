//! The graph store: budgeted partition residency + traversal over
//! per-predicate compressed sparse rows.
//!
//! Every resident partition is held as two **compressed sparse rows** — a
//! forward CSR keyed by subject and a reverse CSR keyed by object, each a
//! sorted key array, an offset array and one packed, sorted neighbour
//! array ([`SortedRuns`]). A neighbour lookup is a binary search over the
//! partition's distinct keys plus a slice, `O(log keys + matches)` however
//! large the rest of the graph is — the property the paper leans on ("the
//! time complexity of graph traversal \[is\] positively related to the
//! traversal range but irrelevant to the entire graph size"). The runs sit
//! behind an `Arc`: migration hands in the relational table's own runs, so
//! a resident partition is the same memory as `T_R`'s indexes until a
//! single-edge write to either store un-shares it (`Arc::make_mut`), and
//! eviction drops one reference.

use crate::backend::GraphBackend;
use crate::matcher;
use kgdual_model::fx::FxHashMap;
use kgdual_model::{PredId, Triple};
use kgdual_relstore::{Bindings, CsrView, ExecContext, ExecError, SortedRuns};
use kgdual_sparql::EncodedQuery;
use kgdual_vec::cost::Card;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Work-unit cost to import one triple during a bulk partition load.
/// Deliberately high relative to a relational append (cost 1): Neo4j-style
/// stores pay for node/relationship materialization and index maintenance.
pub const BULK_IMPORT_COST_PER_TRIPLE: u64 = 8;
/// Work-unit cost of a single online edge insert/delete (a splice into
/// both sorted directions; worse than bulk).
pub const SINGLE_UPDATE_COST: u64 = 24;

/// Cumulative import/update effort spent by this store (the "cumbersome
/// importing process" the paper cites; reported by migration experiments).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImportStats {
    /// Triples bulk-imported.
    pub triples_imported: u64,
    /// Triples evicted.
    pub triples_evicted: u64,
    /// Single-edge online updates.
    pub single_updates: u64,
    /// Total work units charged for imports/updates.
    pub work_units: u64,
}

/// Errors from storage management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphStoreError {
    /// Loading the partition would exceed the budget `B_G`.
    BudgetExceeded {
        /// Partition that was being loaded.
        pred: PredId,
        /// Triples the partition holds.
        needed: usize,
        /// Budget headroom left.
        available: usize,
    },
    /// The partition is already resident (loads are whole-partition).
    AlreadyLoaded(PredId),
}

impl std::fmt::Display for GraphStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphStoreError::BudgetExceeded {
                pred,
                needed,
                available,
            } => write!(
                f,
                "loading partition {pred} needs {needed} triples but only {available} fit in B_G"
            ),
            GraphStoreError::AlreadyLoaded(pred) => {
                write!(f, "partition {pred} is already loaded")
            }
        }
    }
}

impl std::error::Error for GraphStoreError {}

/// Errors from query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphExecError {
    /// Cooperative cancellation fired.
    Cancelled {
        /// Work units done before cancellation.
        partial_work: u64,
    },
    /// The query references a partition that is not resident. The query
    /// processor checks coverage before routing; this is the safety net.
    MissingPartition(PredId),
}

impl From<ExecError> for GraphExecError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Cancelled { partial_work } => GraphExecError::Cancelled { partial_work },
        }
    }
}

impl std::fmt::Display for GraphExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphExecError::Cancelled { partial_work } => {
                write!(
                    f,
                    "graph execution cancelled after {partial_work} work units"
                )
            }
            GraphExecError::MissingPartition(p) => {
                write!(f, "partition {p} is not resident in the graph store")
            }
        }
    }
}

impl std::error::Error for GraphExecError {}

/// The native graph store: holds a budget-constrained subset of the
/// knowledge graph's triple partitions (`T_G` in the paper) and answers
/// complex subqueries over them by traversal. Its interface is its
/// [`GraphBackend`] implementation plus the sorted-rows view the matcher
/// traverses ([`forward`](Self::forward), [`reverse`](Self::reverse) and
/// the statistics beside them).
#[derive(Debug, Default)]
pub struct GraphStore {
    budget: usize,
    parts: FxHashMap<PredId, Arc<SortedRuns>>,
    /// Resident predicates in ascending order, maintained on load/evict:
    /// [`GraphStore::preds`] hands it out, so it is never re-sorted per
    /// lookup.
    preds: Vec<PredId>,
    edges: usize,
    import_stats: ImportStats,
}

/// The graph substrate of `DualStore<B>` (its default `B`), the stand-in
/// for the paper's Neo4j deployment.
pub type AdjacencyBackend = GraphStore;

impl GraphStore {
    /// Total edges currently stored.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Cardinality statistics of one predicate's partition (zero if not
    /// loaded).
    pub fn partition_stats(&self, pred: PredId) -> Card {
        self.parts
            .get(&pred)
            .map_or_else(Card::default, |r| r.stats())
    }

    /// Loaded predicates, in ascending id order.
    pub fn preds(&self) -> &[PredId] {
        &self.preds
    }

    /// `pred`'s edges keyed by subject (empty if not loaded).
    pub fn forward(&self, pred: PredId) -> CsrView<'_> {
        self.parts
            .get(&pred)
            .map_or_else(CsrView::default, |r| r.fwd())
    }

    /// `pred`'s edges keyed by object (empty if not loaded).
    pub fn reverse(&self, pred: PredId) -> CsrView<'_> {
        self.parts
            .get(&pred)
            .map_or_else(CsrView::default, |r| r.rev())
    }
}

impl GraphBackend for GraphStore {
    fn with_budget(budget: usize) -> Self {
        GraphStore {
            budget,
            ..Self::default()
        }
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn used(&self) -> usize {
        self.edges
    }

    fn is_loaded(&self, pred: PredId) -> bool {
        self.parts.contains_key(&pred)
    }

    fn resident_partitions(&self) -> Vec<(PredId, usize)> {
        self.preds
            .iter()
            .map(|&p| (p, self.partition_len(p)))
            .collect()
    }

    fn partition_len(&self, pred: PredId) -> usize {
        self.parts.get(&pred).map_or(0, |r| r.len())
    }

    fn import_stats(&self) -> ImportStats {
        self.import_stats
    }

    fn load_runs(&mut self, pred: PredId, runs: Arc<SortedRuns>) -> Result<(), GraphStoreError> {
        if self.is_loaded(pred) {
            return Err(GraphStoreError::AlreadyLoaded(pred));
        }
        let edges = runs.len();
        if edges > self.available() {
            return Err(GraphStoreError::BudgetExceeded {
                pred,
                needed: edges,
                available: self.available(),
            });
        }
        self.parts.insert(pred, runs);
        let pos = self.preds.partition_point(|&p| p < pred);
        self.preds.insert(pos, pred);
        self.edges += edges;
        self.import_stats.triples_imported += edges as u64;
        self.import_stats.work_units += edges as u64 * BULK_IMPORT_COST_PER_TRIPLE;
        Ok(())
    }

    fn evict_partition(&mut self, pred: PredId) -> usize {
        let Some(runs) = self.parts.remove(&pred) else {
            return 0;
        };
        if let Ok(pos) = self.preds.binary_search(&pred) {
            self.preds.remove(pos);
        }
        let removed = runs.len();
        self.edges -= removed;
        self.import_stats.triples_evicted += removed as u64;
        removed
    }

    fn insert_edge(&mut self, t: Triple) -> Result<bool, GraphStoreError> {
        if !self.is_loaded(t.p) {
            return Ok(false);
        }
        if self.available() == 0 {
            return Err(GraphStoreError::BudgetExceeded {
                pred: t.p,
                needed: 1,
                available: 0,
            });
        }
        SortedRuns::insert(self.parts.get_mut(&t.p).expect("resident"), t.s, t.o);
        self.edges += 1;
        self.import_stats.single_updates += 1;
        self.import_stats.work_units += SINGLE_UPDATE_COST;
        Ok(true)
    }

    fn delete_edge(&mut self, t: Triple) -> usize {
        let Some(runs) = self.parts.get_mut(&t.p) else {
            return 0;
        };
        let removed = SortedRuns::remove_all(runs, t.s, t.o);
        if removed == 0 {
            return 0;
        }
        self.edges -= removed;
        self.import_stats.single_updates += 1;
        self.import_stats.work_units += SINGLE_UPDATE_COST;
        removed
    }

    fn execute(&self, q: &EncodedQuery, ctx: &mut ExecContext) -> Result<Bindings, GraphExecError> {
        for p in q.predicate_set() {
            if !self.is_loaded(p) {
                return Err(GraphExecError::MissingPartition(p));
            }
        }
        matcher::execute(self, q, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::{Dictionary, NodeId, Term};
    use kgdual_sparql::{compile, parse, Compiled};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn p(i: u32) -> PredId {
        PredId(i)
    }

    impl GraphStore {
        fn fwd_row(&self, s: NodeId, pred: PredId) -> &[NodeId] {
            self.forward(pred).row(s)
        }

        fn rev_row(&self, o: NodeId, pred: PredId) -> &[NodeId] {
            self.reverse(pred).row(o)
        }

        /// The partition's edges in seed order: forward rows in key order.
        fn seed_edges(&self, pred: PredId) -> Vec<(NodeId, NodeId)> {
            let fwd = self.forward(pred);
            (0..fwd.keys().len())
                .flat_map(|i| fwd.row_at(i).iter().map(move |&o| (fwd.keys()[i], o)))
                .collect()
        }
    }

    /// Same academic mini-graph as the relstore tests.
    fn academic() -> (GraphStore, Dictionary) {
        let mut dict = Dictionary::new();
        let mut triples: Vec<Triple> = Vec::new();
        let add = |dict: &mut Dictionary, triples: &mut Vec<Triple>, s: &str, pr: &str, o: &str| {
            let s = dict.encode_node(&Term::iri(s)).unwrap();
            let pr = dict.encode_pred(pr).unwrap();
            let o = dict.encode_node(&Term::iri(o)).unwrap();
            triples.push(Triple::new(s, pr, o));
        };
        add(
            &mut dict,
            &mut triples,
            "y:Einstein",
            "y:wasBornIn",
            "y:Ulm",
        );
        add(&mut dict, &mut triples, "y:Weber", "y:wasBornIn", "y:Ulm");
        add(
            &mut dict,
            &mut triples,
            "y:Einstein",
            "y:hasAcademicAdvisor",
            "y:Weber",
        );
        add(&mut dict, &mut triples, "y:Feynman", "y:wasBornIn", "y:NYC");
        add(
            &mut dict,
            &mut triples,
            "y:Wheeler",
            "y:wasBornIn",
            "y:Jacksonville",
        );
        add(
            &mut dict,
            &mut triples,
            "y:Feynman",
            "y:hasAcademicAdvisor",
            "y:Wheeler",
        );

        let mut store = GraphStore::with_budget(1000);
        // Group by predicate and load as partitions.
        let mut by_pred: FxHashMap<PredId, Vec<(NodeId, NodeId)>> = FxHashMap::default();
        for t in &triples {
            by_pred.entry(t.p).or_default().push((t.s, t.o));
        }
        for (pred, pairs) in by_pred {
            store.load_partition(pred, &pairs).unwrap();
        }
        (store, dict)
    }

    fn run(store: &GraphStore, dict: &Dictionary, src: &str) -> Bindings {
        let q = parse(src).unwrap();
        let Compiled::Query(eq) = compile(&q, dict).unwrap() else {
            return Bindings::new(vec![]);
        };
        let mut ctx = ExecContext::new();
        store.execute(&eq, &mut ctx).unwrap()
    }

    #[test]
    fn budget_enforced_on_load() {
        let mut store = GraphStore::with_budget(2);
        let err = store
            .load_partition(p(0), &[(n(1), n(2)), (n(3), n(4)), (n(5), n(6))])
            .unwrap_err();
        assert!(matches!(
            err,
            GraphStoreError::BudgetExceeded {
                needed: 3,
                available: 2,
                ..
            }
        ));
        assert_eq!(store.used(), 0);
        store.load_partition(p(0), &[(n(1), n(2))]).unwrap();
        assert_eq!(store.available(), 1);
    }

    #[test]
    fn double_load_rejected() {
        let mut store = GraphStore::with_budget(10);
        store.load_partition(p(0), &[(n(1), n(2))]).unwrap();
        assert!(matches!(
            store.load_partition(p(0), &[(n(3), n(4))]),
            Err(GraphStoreError::AlreadyLoaded(_))
        ));
    }

    #[test]
    fn evict_frees_budget() {
        let mut store = GraphStore::with_budget(2);
        store
            .load_partition(p(0), &[(n(1), n(2)), (n(3), n(4))])
            .unwrap();
        assert_eq!(store.available(), 0);
        assert_eq!(store.evict_partition(p(0)), 2);
        assert_eq!(store.available(), 2);
        assert!(!store.is_loaded(p(0)));
        assert_eq!(store.import_stats().triples_evicted, 2);
    }

    #[test]
    fn import_stats_accumulate() {
        let mut store = GraphStore::with_budget(100);
        store
            .load_partition(p(0), &[(n(1), n(2)), (n(3), n(4))])
            .unwrap();
        let st = store.import_stats();
        assert_eq!(st.triples_imported, 2);
        assert_eq!(st.work_units, 2 * BULK_IMPORT_COST_PER_TRIPLE);
        store.insert_edge(Triple::new(n(5), p(0), n(6))).unwrap();
        assert_eq!(store.import_stats().single_updates, 1);
        assert_eq!(
            store.import_stats().work_units,
            2 * BULK_IMPORT_COST_PER_TRIPLE + SINGLE_UPDATE_COST
        );
    }

    #[test]
    fn online_updates_only_touch_resident_partitions() {
        let mut store = GraphStore::with_budget(100);
        store.load_partition(p(0), &[(n(1), n(2))]).unwrap();
        // Non-resident partition: no-op, reported as false/0.
        assert!(!store.insert_edge(Triple::new(n(1), p(9), n(2))).unwrap());
        assert_eq!(store.delete_edge(Triple::new(n(1), p(9), n(2))), 0);
        // Resident partition: applied.
        assert!(store.insert_edge(Triple::new(n(7), p(0), n(8))).unwrap());
        assert_eq!(store.partition_len(p(0)), 2);
        assert_eq!(store.delete_edge(Triple::new(n(7), p(0), n(8))), 1);
        assert_eq!(store.partition_len(p(0)), 1);
    }

    #[test]
    fn covers_checks_residency() {
        let mut store = GraphStore::with_budget(100);
        store.load_partition(p(0), &[(n(1), n(2))]).unwrap();
        store.load_partition(p(1), &[(n(1), n(2))]).unwrap();
        assert!(store.covers(&[p(0), p(1)]));
        assert!(!store.covers(&[p(0), p(2)]));
        assert!(store.covers(&[]));
    }

    #[test]
    fn paper_complex_query_by_traversal() {
        let (store, dict) = academic();
        let res = run(
            &store,
            &dict,
            "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }",
        );
        assert_eq!(res.len(), 1);
        let einstein = dict.node_id(&Term::iri("y:Einstein")).unwrap();
        assert_eq!(res.row(0)[0], einstein);
    }

    #[test]
    fn matches_equal_relstore_semantics_on_simple_patterns() {
        let (store, dict) = academic();
        assert_eq!(
            run(&store, &dict, "SELECT ?p WHERE { ?p y:wasBornIn ?c }").len(),
            4
        );
        assert_eq!(
            run(&store, &dict, "SELECT ?p WHERE { ?p y:wasBornIn y:Ulm }").len(),
            2
        );
        assert_eq!(
            run(
                &store,
                &dict,
                "SELECT ?p ?a WHERE { ?p y:hasAcademicAdvisor ?a }"
            )
            .len(),
            2
        );
    }

    #[test]
    fn distinct_and_limit_by_traversal() {
        let (store, dict) = academic();
        let res = run(
            &store,
            &dict,
            "SELECT DISTINCT ?c WHERE { ?p y:wasBornIn ?c }",
        );
        assert_eq!(res.len(), 3);
        let res2 = run(
            &store,
            &dict,
            "SELECT ?p WHERE { ?p y:wasBornIn ?c } LIMIT 2",
        );
        assert_eq!(res2.len(), 2);
    }

    #[test]
    fn variable_predicate_over_resident_partitions() {
        let (store, dict) = academic();
        let res = run(&store, &dict, "SELECT ?s WHERE { ?s ?pr y:Ulm }");
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn missing_partition_is_an_error_not_empty() {
        let (store, mut dict) = academic();
        dict.encode_pred("y:neverLoaded").unwrap();
        let q = parse("SELECT ?s WHERE { ?s y:neverLoaded ?o }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let mut ctx = ExecContext::new();
        assert!(matches!(
            store.execute(&eq, &mut ctx),
            Err(GraphExecError::MissingPartition(_))
        ));
    }

    #[test]
    fn cancellation_propagates() {
        let (store, dict) = academic();
        let q = parse("SELECT ?p WHERE { ?p y:wasBornIn ?c }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let mut ctx = ExecContext::with_work_limit(0);
        assert!(matches!(
            store.execute(&eq, &mut ctx),
            Err(GraphExecError::Cancelled { .. })
        ));
    }

    #[test]
    fn self_loop_traversal() {
        let mut store = GraphStore::with_budget(10);
        store
            .load_partition(p(0), &[(n(1), n(1)), (n(2), n(3))])
            .unwrap();
        let mut dict = Dictionary::new();
        // Rebuild ids to match: n(1) = first node interned, etc.
        let a = dict.encode_node(&Term::iri("a")).unwrap(); // n0
        let _ = a;
        let q = EncodedQuery {
            vars: vec![kgdual_sparql::Var::new("x")],
            patterns: vec![kgdual_sparql::EncPattern {
                s: kgdual_sparql::Slot::Var(0),
                p: kgdual_sparql::PredSlot::Const(p(0)),
                o: kgdual_sparql::Slot::Var(0),
            }],
            projection: vec![0],
            distinct: false,
            limit: None,
        };
        let mut ctx = ExecContext::new();
        let res = store.execute(&q, &mut ctx).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res.row(0)[0], n(1));
    }

    #[test]
    fn traversal_work_scales_with_range_not_graph_size() {
        // Two stores: one with a large unrelated partition, one without.
        // The same bound query must do (nearly) the same work on both —
        // the index-free-adjacency property.
        let build = |extra: usize| {
            let mut store = GraphStore::with_budget(1_000_000);
            store
                .load_partition(p(0), &[(n(1), n(2)), (n(3), n(4))])
                .unwrap();
            if extra > 0 {
                let big: Vec<(NodeId, NodeId)> = (0..extra as u32)
                    .map(|i| (n(1000 + i), n(2000 + i)))
                    .collect();
                store.load_partition(p(1), &big).unwrap();
            }
            store
        };
        let q = EncodedQuery {
            vars: vec![kgdual_sparql::Var::new("o")],
            patterns: vec![kgdual_sparql::EncPattern {
                s: kgdual_sparql::Slot::Const(n(1)),
                p: kgdual_sparql::PredSlot::Const(p(0)),
                o: kgdual_sparql::Slot::Var(0),
            }],
            projection: vec![0],
            distinct: false,
            limit: None,
        };
        let small = build(0);
        let huge = build(50_000);
        let mut ctx_small = ExecContext::new();
        let mut ctx_huge = ExecContext::new();
        small.execute(&q, &mut ctx_small).unwrap();
        huge.execute(&q, &mut ctx_huge).unwrap();
        assert_eq!(
            ctx_small.stats.work_units(),
            ctx_huge.stats.work_units(),
            "bound traversal work must not depend on total graph size"
        );
    }

    #[test]
    fn build_and_row_lookup() {
        let mut store = GraphStore::with_budget(100);
        store
            .load_partition(p(0), &[(n(1), n(3)), (n(1), n(2)), (n(4), n(2))])
            .unwrap();
        store.load_partition(p(1), &[(n(2), n(5))]).unwrap();
        assert_eq!(store.fwd_row(n(1), p(0)), &[n(2), n(3)], "rows are sorted");
        assert_eq!(store.rev_row(n(2), p(0)), &[n(1), n(4)]);
        assert!(store.fwd_row(n(9), p(0)).is_empty());
        assert!(store.fwd_row(n(1), p(9)).is_empty());
        assert!(
            store.fwd_row(n(1), p(1)).is_empty(),
            "rows are per predicate"
        );
        assert_eq!(store.used(), 4);
        assert_eq!(store.edge_count(), 4);
        assert_eq!(store.preds(), [p(0), p(1)]);
        assert_eq!(store.resident_partitions(), vec![(p(0), 3), (p(1), 1)]);
        assert_eq!(
            store.partition_stats(p(0)),
            Card {
                rows: 3,
                distinct_s: 2,
                distinct_o: 2
            }
        );
    }

    #[test]
    fn all_edges_for_var_pred() {
        let mut store = GraphStore::with_budget(100);
        store.load_partition(p(3), &[(n(2), n(7))]).unwrap();
        store
            .load_partition(p(1), &[(n(2), n(9)), (n(2), n(4)), (n(4), n(2))])
            .unwrap();
        // A variable-predicate pattern walks `preds()` in ascending order
        // and reads one row per partition.
        let out_all = |store: &GraphStore, s: NodeId| -> Vec<(PredId, NodeId)> {
            let preds = store.preds();
            preds
                .iter()
                .flat_map(|&pr| store.fwd_row(s, pr).iter().map(move |&o| (pr, o)))
                .collect()
        };
        assert_eq!(
            store.preds(),
            [p(1), p(3)],
            "ascending whatever the load order"
        );
        assert_eq!(
            out_all(&store, n(2)),
            [(p(1), n(4)), (p(1), n(9)), (p(3), n(7))],
            "ascending by (pred, node)"
        );
        assert_eq!(store.rev_row(n(2), p(1)), [n(4)]);
        assert!(store.rev_row(n(2), p(3)).is_empty());
        assert!(out_all(&store, n(99)).is_empty());
        store.evict_partition(p(1));
        assert_eq!(out_all(&store, n(2)), [(p(3), n(7))]);
    }

    #[test]
    fn online_splice_keeps_arrays_sorted() {
        let mut store = GraphStore::with_budget(100);
        store
            .load_partition(p(0), &[(n(5), n(1)), (n(2), n(9))])
            .unwrap();
        store.insert_edge(Triple::new(n(2), p(0), n(3))).unwrap();
        store.insert_edge(Triple::new(n(1), p(0), n(9))).unwrap();
        assert_eq!(store.fwd_row(n(2), p(0)), &[n(3), n(9)]);
        assert_eq!(store.rev_row(n(9), p(0)), &[n(1), n(2)]);
        assert_eq!(store.partition_len(p(0)), 4);
        assert_eq!(
            store.seed_edges(p(0)),
            [(n(1), n(9)), (n(2), n(3)), (n(2), n(9)), (n(5), n(1))]
        );
        // Deletes update both directions and drop empty rows.
        assert_eq!(store.delete_edge(Triple::new(n(5), p(0), n(1))), 1);
        assert!(store.fwd_row(n(5), p(0)).is_empty());
        assert!(store.rev_row(n(1), p(0)).is_empty());
        assert_eq!(store.partition_stats(p(0)).distinct_s, 2);
        assert_eq!(store.partition_stats(p(0)).distinct_o, 2);
        assert_eq!(
            store.delete_edge(Triple::new(n(5), p(0), n(1))),
            0,
            "already gone"
        );
    }

    #[test]
    fn single_edge_writes_adjust_stats_without_recounting() {
        let mut store = GraphStore::with_budget(100);
        store
            .load_partition(p(0), &[(n(1), n(2)), (n(1), n(3)), (n(4), n(2))])
            .unwrap();
        store.load_partition(p(1), &[(n(2), n(5))]).unwrap();
        let base = store.partition_stats(p(0));
        let edge = |s, o| Triple::new(n(s), p(0), n(o));
        store.insert_edge(edge(1, 2)).unwrap(); // duplicate: no key is new
        store.insert_edge(edge(7, 7)).unwrap(); // self-loop: new on both sides
        store.insert_edge(edge(2, 5)).unwrap(); // both nodes known, but not under p(0)
        assert_eq!(
            store.partition_stats(p(0)),
            Card {
                rows: 6,
                distinct_s: 4,
                distinct_o: 4
            }
        );
        assert_eq!(store.delete_edge(edge(1, 2)), 2);
        assert_eq!(store.partition_stats(p(0)).distinct_s, 4, "1 still has 1→3");
        assert_eq!(store.partition_stats(p(0)).distinct_o, 4, "2 still has 4→2");
        assert_eq!(store.delete_edge(edge(7, 7)), 1);
        assert_eq!(store.delete_edge(edge(2, 5)), 1);
        store.insert_edge(edge(1, 2)).unwrap();
        assert_eq!(store.partition_stats(p(0)), base);
        assert_eq!(store.partition_stats(p(1)).rows, 1, "p(1) untouched");
        assert_eq!(
            store.seed_edges(p(0)),
            [(n(1), n(2)), (n(1), n(3)), (n(4), n(2))]
        );
    }

    #[test]
    fn duplicate_edges_both_counted_and_removed() {
        let mut store = GraphStore::with_budget(100);
        store
            .load_partition(p(0), &[(n(1), n(2)), (n(1), n(2))])
            .unwrap();
        assert_eq!(store.fwd_row(n(1), p(0)), &[n(2), n(2)]);
        store.insert_edge(Triple::new(n(1), p(0), n(2))).unwrap();
        assert_eq!(store.used(), 3);
        assert_eq!(store.delete_edge(Triple::new(n(1), p(0), n(2))), 3);
        assert_eq!(store.used(), 0);
        assert!(store.is_loaded(p(0)), "partition stays resident when empty");
        assert_eq!(store.partition_stats(p(0)), Card::default());
    }

    #[test]
    fn single_update_budget_enforced() {
        let mut store = GraphStore::with_budget(1);
        store.load_partition(p(0), &[(n(1), n(2))]).unwrap();
        assert!(matches!(
            store.insert_edge(Triple::new(n(3), p(0), n(4))),
            Err(GraphStoreError::BudgetExceeded { .. })
        ));
        assert_eq!(
            store.partition_len(p(0)),
            1,
            "a refused insert changes nothing"
        );
        assert_eq!(store.import_stats().single_updates, 0);
    }

    /// Two partitions: `p(0)` = {1→2, 1→3, 4→2}, `p(1)` = {2→5}.
    fn sample() -> GraphStore {
        let mut store = GraphStore::with_budget(100);
        store
            .load_partition(p(0), &[(n(1), n(2)), (n(1), n(3)), (n(4), n(2))])
            .unwrap();
        store.load_partition(p(1), &[(n(2), n(5))]).unwrap();
        store
    }

    fn outs(store: &GraphStore, s: u32, pred: PredId) -> Vec<u32> {
        store.fwd_row(n(s), pred).iter().map(|o| o.0).collect()
    }

    fn ins(store: &GraphStore, o: u32, pred: PredId) -> Vec<u32> {
        store.rev_row(n(o), pred).iter().map(|s| s.0).collect()
    }

    #[test]
    fn bulk_load_counts_edges() {
        let store = sample();
        assert_eq!(store.edge_count(), 4);
        assert_eq!(store.forward(p(0)).len(), 3);
        assert_eq!(store.seed_edges(p(0)).len(), 3);
        assert!(store.forward(p(9)).is_empty());
        assert!(store.seed_edges(p(9)).is_empty());
        assert_eq!(store.preds(), [p(0), p(1)]);
    }

    #[test]
    fn out_and_in_neighbours() {
        let store = sample();
        assert_eq!(outs(&store, 1, p(0)), vec![2, 3]);
        assert_eq!(ins(&store, 2, p(0)), vec![1, 4]);
        assert_eq!(store.forward(p(0)).row(n(1)).len(), 2);
        assert!(outs(&store, 1, p(1)).is_empty());
        assert!(outs(&store, 99, p(0)).is_empty());
        assert!(ins(&store, 2, p(9)).is_empty());
    }

    #[test]
    fn single_edge_insert_keeps_sorted_order() {
        let mut store = sample();
        assert!(store.insert_edge(Triple::new(n(1), p(0), n(0))).unwrap());
        assert_eq!(outs(&store, 1, p(0)), vec![0, 2, 3]);
        assert_eq!(ins(&store, 0, p(0)), vec![1]);
        assert_eq!(store.edge_count(), 5);
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let mut store = sample();
        assert_eq!(store.delete_edge(Triple::new(n(1), p(0), n(2))), 1);
        assert_eq!(outs(&store, 1, p(0)), vec![3]);
        assert_eq!(ins(&store, 2, p(0)), vec![4]);
        assert_eq!(store.edge_count(), 3);
        assert_eq!(
            store.delete_edge(Triple::new(n(1), p(0), n(2))),
            0,
            "already gone"
        );
    }

    #[test]
    fn evict_partition_clears_everything() {
        let mut store = sample();
        assert_eq!(store.evict_partition(p(0)), 3);
        assert_eq!(store.edge_count(), 1);
        assert!(store.seed_edges(p(0)).is_empty());
        assert!(outs(&store, 1, p(0)).is_empty());
        assert!(ins(&store, 2, p(0)).is_empty());
        assert_eq!(store.partition_stats(p(0)), Card::default());
        assert_eq!(store.preds(), [p(1)]);
        // p(1) untouched.
        assert_eq!(outs(&store, 2, p(1)), vec![5]);
        assert_eq!(store.evict_partition(p(0)), 0);
    }

    #[test]
    fn partition_stats_track_mutations() {
        let mut store = sample();
        let st = store.partition_stats(p(0));
        assert_eq!(
            st,
            Card {
                rows: 3,
                distinct_s: 2,
                distinct_o: 2
            }
        );
        assert!((st.per_subject() - 1.5).abs() < 1e-9);
        assert!((st.per_object() - 1.5).abs() < 1e-9);
        store.insert_edge(Triple::new(n(1), p(0), n(9))).unwrap();
        assert_eq!(store.partition_stats(p(0)).distinct_o, 3);
        store.evict_partition(p(0));
        assert_eq!(store.partition_stats(p(0)), Card::default());
        assert_eq!(Card::default().per_subject(), 0.0);
    }

    #[test]
    fn duplicate_single_edge_inserts_both_counted_and_removed() {
        let mut store = GraphStore::with_budget(100);
        store.load_partition(p(0), &[]).unwrap();
        store.insert_edge(Triple::new(n(1), p(0), n(2))).unwrap();
        store.insert_edge(Triple::new(n(1), p(0), n(2))).unwrap();
        assert_eq!(store.edge_count(), 2);
        assert_eq!(ins(&store, 2, p(0)), vec![1, 1]);
        assert_eq!(store.delete_edge(Triple::new(n(1), p(0), n(2))), 2);
        assert_eq!(store.edge_count(), 0);
    }

    #[test]
    fn budget_and_double_load_enforced() {
        let mut store = GraphStore::with_budget(2);
        assert!(matches!(
            store.load_partition(p(0), &[(n(1), n(2)), (n(3), n(4)), (n(5), n(6))]),
            Err(GraphStoreError::BudgetExceeded {
                needed: 3,
                available: 2,
                ..
            })
        ));
        store.load_partition(p(0), &[(n(1), n(2))]).unwrap();
        assert!(matches!(
            store.load_partition(p(0), &[(n(3), n(4))]),
            Err(GraphStoreError::AlreadyLoaded(_))
        ));
        assert_eq!(store.available(), 1);
        assert_eq!(
            store.partition_len(p(0)),
            1,
            "a refused load changes nothing"
        );
    }

    /// Migration's path (T_R's own runs into `load_runs`) holds the
    /// table's memory, not a copy, and equals `load_partition` over the
    /// same pairs in any order: same rows, stats and bill.
    #[test]
    fn migrated_runs_equal_load_partition() {
        use kgdual_relstore::PredTable;

        // Partition 0: duplicate edges, self-loops (one duplicated), a hub
        // subject with repeated neighbours and a hub object. Partition 1
        // is empty: both directions have no rows.
        let mut edges = vec![
            (n(1), n(1)),
            (n(2), n(3)),
            (n(2), n(3)),
            (n(3), n(2)),
            (n(4), n(4)),
            (n(4), n(4)),
        ];
        edges.extend((0..50).map(|i| (n(7), n(100 + i % 17))));
        edges.extend((0..20).map(|i| (n(200 + i), n(7))));
        let partitions = [edges, Vec::new()];

        let mut from_runs = GraphStore::with_budget(1_000);
        let mut from_pairs = GraphStore::with_budget(1_000);
        let mut tables = Vec::new();
        for (pred, rows) in (0..).map(p).zip(&partitions) {
            let table = PredTable::from_pairs(rows.clone());
            from_runs.load_runs(pred, Arc::clone(table.runs())).unwrap();
            tables.push(table);
            let mut shuffled = rows.clone();
            for j in (1..shuffled.len()).rev() {
                shuffled.swap(j, (j * 7_919 + 13) % (j + 1));
            }
            from_pairs.load_partition(pred, &shuffled).unwrap();
        }
        for (pred, table) in [p(0), p(1)].into_iter().zip(&tables) {
            let views = [
                (from_runs.forward(pred), from_pairs.forward(pred)),
                (from_runs.reverse(pred), from_pairs.reverse(pred)),
            ];
            for (a, b) in views {
                assert_eq!(
                    (a.keys(), a.offsets(), a.nbrs()),
                    (b.keys(), b.offsets(), b.nbrs())
                );
            }
            assert!(std::ptr::eq(
                from_runs.forward(pred).nbrs(),
                table.runs().fwd().nbrs()
            ));
            assert_eq!(
                from_runs.partition_stats(pred),
                from_pairs.partition_stats(pred)
            );
            assert_eq!(from_runs.partition_stats(pred), table.stats());
        }
        assert_eq!(from_runs.fwd_row(n(7), p(0)).len(), 50);
        assert_eq!(from_runs.rev_row(n(7), p(0)).len(), 20);
        assert!(from_runs.forward(p(1)).keys().is_empty());
        assert_eq!(from_runs.import_stats(), from_pairs.import_stats());
        assert_eq!(
            from_runs.resident_partitions(),
            from_pairs.resident_partitions()
        );
    }

    #[test]
    fn evict_twice_frees_and_bills_once() {
        let mut store = GraphStore::with_budget(2);
        store
            .load_partition(p(0), &[(n(1), n(2)), (n(3), n(4))])
            .unwrap();
        assert_eq!(store.evict_partition(p(0)), 2);
        assert_eq!(store.evict_partition(p(0)), 0, "already gone");
        assert_eq!(store.available(), 2);
        assert!(!store.is_loaded(p(0)));
        assert_eq!(store.import_stats().triples_evicted, 2);
    }

    #[test]
    fn missing_partition_is_an_error_on_an_empty_store() {
        let store = GraphStore::with_budget(10);
        let mut dict = Dictionary::new();
        dict.encode_pred("y:never").unwrap();
        let q = parse("SELECT ?s WHERE { ?s y:never ?o }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let mut ctx = ExecContext::new();
        assert!(matches!(
            store.execute(&eq, &mut ctx),
            Err(GraphExecError::MissingPartition(_))
        ));
    }
}
