//! The graph store: budgeted residency over `T_R`'s sorted runs.
//!
//! The paper keeps the relational copy of a migrated partition (§4.2.1
//! of the full paper), so `T_G ⊆ T_R` always holds and a resident
//! partition carries nothing its relational table lacks. The graph store
//! therefore owns no edges. It is the residency set `T_G` — the resident
//! predicates, ascending, with their lengths — plus the budget `B_G`, the
//! triples the set holds and the import bill ([`ImportStats`]).
//!
//! Traversal ([`crate::matcher`]) reads a resident partition through its
//! relational table's forward and reverse compressed sparse rows
//! ([`kgdual_relstore::runs`]). A neighbour lookup is a binary search
//! over the partition's distinct keys plus a slice, `O(log keys + matches)`
//! however large the rest of the graph is — the property the paper leans
//! on ("the time complexity of graph traversal \[is\] positively related
//! to the traversal range but irrelevant to the entire graph size").
//! Residency gates that access: a query naming a partition outside the
//! set fails with [`GraphExecError::MissingPartition`], and a predicate
//! variable ranges over the set only.

use crate::backend::GraphBackend;
use crate::matcher;
use kgdual_model::{NodeId, PredId, Triple};
use kgdual_relstore::{Bindings, ExecContext, ExecError, RelStore};
use kgdual_sparql::EncodedQuery;
use serde::{Deserialize, Serialize};

/// Work-unit cost to import one triple during a bulk partition load.
/// Deliberately high relative to a relational append (cost 1): Neo4j-style
/// stores pay for node/relationship materialization and index maintenance.
pub const BULK_IMPORT_COST_PER_TRIPLE: u64 = 8;
/// Work-unit cost of a single online write to a resident partition (a
/// splice into both sorted directions; worse than bulk).
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

/// The native graph store: the budget-constrained residency set `T_G` of
/// the knowledge graph's triple partitions, answering complex subqueries
/// over them by traversal of `T_R`'s runs. Its interface is its
/// [`GraphBackend`] implementation.
#[derive(Debug, Default)]
pub struct GraphStore {
    budget: usize,
    /// Resident predicates in ascending order, maintained on admit/evict:
    /// [`GraphStore::preds`] hands it out, so it is never re-sorted per
    /// lookup.
    preds: Vec<PredId>,
    /// `lens[i]` is the length of `preds[i]`'s partition.
    lens: Vec<usize>,
    used: usize,
    import_stats: ImportStats,
}

/// The graph substrate of `DualStore<B>` (its default `B`), the stand-in
/// for the paper's Neo4j deployment.
pub type AdjacencyBackend = GraphStore;

impl GraphStore {
    /// Resident predicates, in ascending id order.
    pub fn preds(&self) -> &[PredId] {
        &self.preds
    }

    /// Bill one online write to a resident partition.
    fn bill_update(&mut self) {
        self.import_stats.single_updates += 1;
        self.import_stats.work_units += SINGLE_UPDATE_COST;
    }

    /// Admit `pred` with as many triples as `pairs` holds. Kept only
    /// because the `kgbench` benchmark links it; the store keeps no pairs.
    pub fn load_partition(
        &mut self,
        pred: PredId,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<(), GraphStoreError> {
        self.admit(pred, pairs.len())
    }

    /// Account one triple inserted into `t`'s partition
    /// ([`GraphBackend::record_insert`]). Kept only because the `kgbench`
    /// benchmark links it.
    pub fn insert_edge(&mut self, t: Triple) -> Result<bool, GraphStoreError> {
        self.record_insert(t.p)
    }

    /// Account one triple deleted from `t`'s partition, if it holds any
    /// ([`GraphBackend::record_delete`]); returns 1 if it did. Kept only
    /// because the `kgbench` benchmark links it.
    pub fn delete_edge(&mut self, t: Triple) -> usize {
        let one = self.partition_len(t.p).min(1);
        self.record_delete(t.p, one);
        one
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
        self.used
    }

    fn is_loaded(&self, pred: PredId) -> bool {
        self.preds.binary_search(&pred).is_ok()
    }

    fn resident_partitions(&self) -> Vec<(PredId, usize)> {
        self.preds
            .iter()
            .copied()
            .zip(self.lens.iter().copied())
            .collect()
    }

    fn partition_len(&self, pred: PredId) -> usize {
        self.preds.binary_search(&pred).map_or(0, |i| self.lens[i])
    }

    fn import_stats(&self) -> ImportStats {
        self.import_stats
    }

    fn admit(&mut self, pred: PredId, len: usize) -> Result<(), GraphStoreError> {
        let Err(pos) = self.preds.binary_search(&pred) else {
            return Err(GraphStoreError::AlreadyLoaded(pred));
        };
        if len > self.available() {
            return Err(GraphStoreError::BudgetExceeded {
                pred,
                needed: len,
                available: self.available(),
            });
        }
        self.preds.insert(pos, pred);
        self.lens.insert(pos, len);
        self.used += len;
        self.import_stats.triples_imported += len as u64;
        self.import_stats.work_units += len as u64 * BULK_IMPORT_COST_PER_TRIPLE;
        Ok(())
    }

    fn evict_partition(&mut self, pred: PredId) -> usize {
        let Ok(pos) = self.preds.binary_search(&pred) else {
            return 0;
        };
        self.preds.remove(pos);
        let removed = self.lens.remove(pos);
        self.used -= removed;
        self.import_stats.triples_evicted += removed as u64;
        removed
    }

    fn record_insert(&mut self, pred: PredId) -> Result<bool, GraphStoreError> {
        let Ok(pos) = self.preds.binary_search(&pred) else {
            return Ok(false);
        };
        if self.available() == 0 {
            return Err(GraphStoreError::BudgetExceeded {
                pred,
                needed: 1,
                available: 0,
            });
        }
        self.lens[pos] += 1;
        self.used += 1;
        self.bill_update();
        Ok(true)
    }

    fn record_delete(&mut self, pred: PredId, removed: usize) {
        let Ok(pos) = self.preds.binary_search(&pred) else {
            return;
        };
        if removed > 0 {
            self.lens[pos] -= removed;
            self.used -= removed;
            self.bill_update();
        }
    }

    fn execute(
        &self,
        rel: &RelStore,
        q: &EncodedQuery,
        ctx: &mut ExecContext,
    ) -> Result<Bindings, GraphExecError> {
        for p in q.predicate_set() {
            if !self.is_loaded(p) {
                return Err(GraphExecError::MissingPartition(p));
            }
        }
        matcher::execute(self, rel, q, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Resident;
    use kgdual_model::{Dictionary, Term};
    use kgdual_relstore::CsrView;
    use kgdual_sparql::{compile, parse, Compiled, EncPattern, PredSlot, Slot, Var};
    use kgdual_vec::cost::Card;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn p(i: u32) -> PredId {
        PredId(i)
    }

    /// `T_R` and a residency set over it, written the way `DualStore`
    /// writes them: the graph side is asked first, because it is the one
    /// that can refuse, and `T_R` then takes the change.
    struct Stores {
        rel: RelStore,
        graph: GraphStore,
    }

    impl Stores {
        fn with_budget(budget: usize) -> Self {
            Stores {
                rel: RelStore::new(),
                graph: GraphStore::with_budget(budget),
            }
        }

        /// Admit `pairs` into `T_G` and load them into `T_R`.
        fn load(
            &mut self,
            pred: PredId,
            pairs: &[(NodeId, NodeId)],
        ) -> Result<(), GraphStoreError> {
            self.graph.admit(pred, pairs.len())?;
            self.rel.load_partition(pred, pairs);
            Ok(())
        }

        fn insert(&mut self, t: Triple) -> Result<bool, GraphStoreError> {
            let resident = self.graph.record_insert(t.p)?;
            self.rel.insert(t);
            Ok(resident)
        }

        fn delete(&mut self, t: Triple) -> usize {
            let removed = self.rel.delete(t);
            self.graph.record_delete(t.p, removed);
            removed
        }

        fn execute(
            &self,
            q: &EncodedQuery,
            ctx: &mut ExecContext,
        ) -> Result<Bindings, GraphExecError> {
            self.graph.execute(&self.rel, q, ctx)
        }

        /// What traversal reads of `pred`: its table's runs while it is
        /// resident, nothing otherwise.
        fn forward(&self, pred: PredId) -> CsrView<'_> {
            Resident::new(&self.graph, &self.rel).views(pred)[0]
        }

        fn reverse(&self, pred: PredId) -> CsrView<'_> {
            Resident::new(&self.graph, &self.rel).views(pred)[1]
        }

        fn stats(&self, pred: PredId) -> Card {
            Resident::new(&self.graph, &self.rel).stats(pred)
        }

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

    /// Same academic mini-graph as the relstore tests, every partition
    /// resident.
    fn academic() -> (Stores, Dictionary) {
        let mut dict = Dictionary::new();
        let mut store = Stores::with_budget(1000);
        for (s, pr, o) in [
            ("y:Einstein", "y:wasBornIn", "y:Ulm"),
            ("y:Weber", "y:wasBornIn", "y:Ulm"),
            ("y:Einstein", "y:hasAcademicAdvisor", "y:Weber"),
            ("y:Feynman", "y:wasBornIn", "y:NYC"),
            ("y:Wheeler", "y:wasBornIn", "y:Jacksonville"),
            ("y:Feynman", "y:hasAcademicAdvisor", "y:Wheeler"),
        ] {
            let s = dict.encode_node(&Term::iri(s)).unwrap();
            let pr = dict.encode_pred(pr).unwrap();
            let o = dict.encode_node(&Term::iri(o)).unwrap();
            store.rel.insert(Triple::new(s, pr, o));
        }
        for pred in store.rel.preds().collect::<Vec<_>>() {
            let len = store.rel.partition_len(pred);
            store.graph.admit(pred, len).unwrap();
        }
        (store, dict)
    }

    fn run(store: &Stores, dict: &Dictionary, src: &str) -> Bindings {
        let q = parse(src).unwrap();
        let Compiled::Query(eq) = compile(&q, dict).unwrap() else {
            return Bindings::new(vec![]);
        };
        let mut ctx = ExecContext::new();
        store.execute(&eq, &mut ctx).unwrap()
    }

    #[test]
    fn budget_enforced_on_load() {
        let mut store = Stores::with_budget(2);
        let err = store
            .load(p(0), &[(n(1), n(2)), (n(3), n(4)), (n(5), n(6))])
            .unwrap_err();
        assert!(matches!(
            err,
            GraphStoreError::BudgetExceeded {
                needed: 3,
                available: 2,
                ..
            }
        ));
        assert_eq!(store.graph.used(), 0);
        store.load(p(0), &[(n(1), n(2))]).unwrap();
        assert_eq!(store.graph.available(), 1);
    }

    #[test]
    fn double_load_rejected() {
        let mut store = Stores::with_budget(10);
        store.load(p(0), &[(n(1), n(2))]).unwrap();
        assert!(matches!(
            store.load(p(0), &[(n(3), n(4))]),
            Err(GraphStoreError::AlreadyLoaded(_))
        ));
    }

    #[test]
    fn evict_frees_budget() {
        let mut store = Stores::with_budget(2);
        store.load(p(0), &[(n(1), n(2)), (n(3), n(4))]).unwrap();
        assert_eq!(store.graph.available(), 0);
        assert_eq!(store.graph.evict_partition(p(0)), 2);
        assert_eq!(store.graph.available(), 2);
        assert!(!store.graph.is_loaded(p(0)));
        assert_eq!(store.graph.import_stats().triples_evicted, 2);
    }

    #[test]
    fn import_stats_accumulate() {
        let mut store = Stores::with_budget(100);
        store.load(p(0), &[(n(1), n(2)), (n(3), n(4))]).unwrap();
        let st = store.graph.import_stats();
        assert_eq!(st.triples_imported, 2);
        assert_eq!(st.work_units, 2 * BULK_IMPORT_COST_PER_TRIPLE);
        store.insert(Triple::new(n(5), p(0), n(6))).unwrap();
        assert_eq!(store.graph.import_stats().single_updates, 1);
        assert_eq!(
            store.graph.import_stats().work_units,
            2 * BULK_IMPORT_COST_PER_TRIPLE + SINGLE_UPDATE_COST
        );
    }

    #[test]
    fn online_updates_only_touch_resident_partitions() {
        let mut store = Stores::with_budget(100);
        store.load(p(0), &[(n(1), n(2))]).unwrap();
        // Non-resident partition: `T_R` takes the write, `T_G` bills
        // nothing and stays out of it.
        assert!(!store.insert(Triple::new(n(1), p(9), n(2))).unwrap());
        assert_eq!(store.delete(Triple::new(n(1), p(9), n(2))), 1);
        assert!(!store.graph.is_loaded(p(9)));
        assert_eq!(store.graph.used(), 1);
        assert_eq!(store.graph.import_stats().single_updates, 0);
        // Resident partition: accounted.
        assert!(store.insert(Triple::new(n(7), p(0), n(8))).unwrap());
        assert_eq!(store.graph.partition_len(p(0)), 2);
        assert_eq!(store.delete(Triple::new(n(7), p(0), n(8))), 1);
        assert_eq!(store.graph.partition_len(p(0)), 1);
    }

    #[test]
    fn covers_checks_residency() {
        let mut store = Stores::with_budget(100);
        store.load(p(0), &[(n(1), n(2))]).unwrap();
        store.load(p(1), &[(n(1), n(2))]).unwrap();
        assert!(store.graph.covers(&[p(0), p(1)]));
        assert!(!store.graph.covers(&[p(0), p(2)]));
        assert!(store.graph.covers(&[]));
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
        let (mut store, dict) = academic();
        let res = run(&store, &dict, "SELECT ?s WHERE { ?s ?pr y:Ulm }");
        assert_eq!(res.len(), 2);
        // `T_R` still holds an evicted partition; the variable does not
        // range over it.
        let born = dict.pred_id("y:wasBornIn").unwrap();
        store.graph.evict_partition(born);
        let res = run(&store, &dict, "SELECT ?s WHERE { ?s ?pr y:Ulm }");
        assert_eq!(res.len(), 0);
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
        let mut store = Stores::with_budget(10);
        store.load(p(0), &[(n(1), n(1)), (n(2), n(3))]).unwrap();
        let q = EncodedQuery {
            vars: vec![Var::new("x")],
            patterns: vec![EncPattern {
                s: Slot::Var(0),
                p: PredSlot::Const(p(0)),
                o: Slot::Var(0),
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
            let mut store = Stores::with_budget(1_000_000);
            store.load(p(0), &[(n(1), n(2)), (n(3), n(4))]).unwrap();
            if extra > 0 {
                let big: Vec<(NodeId, NodeId)> = (0..extra as u32)
                    .map(|i| (n(1000 + i), n(2000 + i)))
                    .collect();
                store.load(p(1), &big).unwrap();
            }
            store
        };
        let q = EncodedQuery {
            vars: vec![Var::new("o")],
            patterns: vec![EncPattern {
                s: Slot::Const(n(1)),
                p: PredSlot::Const(p(0)),
                o: Slot::Var(0),
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
        let mut store = Stores::with_budget(100);
        store
            .load(p(0), &[(n(1), n(3)), (n(1), n(2)), (n(4), n(2))])
            .unwrap();
        store.load(p(1), &[(n(2), n(5))]).unwrap();
        assert_eq!(store.fwd_row(n(1), p(0)), &[n(2), n(3)], "rows are sorted");
        assert_eq!(store.rev_row(n(2), p(0)), &[n(1), n(4)]);
        assert!(store.fwd_row(n(9), p(0)).is_empty());
        assert!(store.fwd_row(n(1), p(9)).is_empty());
        assert!(
            store.fwd_row(n(1), p(1)).is_empty(),
            "rows are per predicate"
        );
        assert_eq!(store.graph.used(), 4);
        assert_eq!(store.graph.preds(), [p(0), p(1)]);
        assert_eq!(
            store.graph.resident_partitions(),
            vec![(p(0), 3), (p(1), 1)]
        );
        assert_eq!(
            store.stats(p(0)),
            Card {
                rows: 3,
                distinct_s: 2,
                distinct_o: 2
            }
        );
    }

    #[test]
    fn all_edges_for_var_pred() {
        let mut store = Stores::with_budget(100);
        store.load(p(3), &[(n(2), n(7))]).unwrap();
        store
            .load(p(1), &[(n(2), n(9)), (n(2), n(4)), (n(4), n(2))])
            .unwrap();
        // A variable-predicate pattern walks `preds()` in ascending order
        // and reads one row per partition.
        let out_all = |store: &Stores, s: NodeId| -> Vec<(PredId, NodeId)> {
            let preds = store.graph.preds();
            preds
                .iter()
                .flat_map(|&pr| store.fwd_row(s, pr).iter().map(move |&o| (pr, o)))
                .collect()
        };
        assert_eq!(
            store.graph.preds(),
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
        store.graph.evict_partition(p(1));
        assert_eq!(out_all(&store, n(2)), [(p(3), n(7))]);
    }

    /// A write splices `T_R` once, and traversal of a resident partition
    /// sees it at once, in order.
    #[test]
    fn online_splice_keeps_arrays_sorted() {
        let mut store = Stores::with_budget(100);
        store.load(p(0), &[(n(5), n(1)), (n(2), n(9))]).unwrap();
        store.insert(Triple::new(n(2), p(0), n(3))).unwrap();
        store.insert(Triple::new(n(1), p(0), n(9))).unwrap();
        assert_eq!(store.rev_row(n(9), p(0)), &[n(1), n(2)]);
        assert_eq!(
            store.seed_edges(p(0)),
            [(n(1), n(9)), (n(2), n(3)), (n(2), n(9)), (n(5), n(1))]
        );
        assert_eq!(store.delete(Triple::new(n(5), p(0), n(1))), 1);
        assert!(store.rev_row(n(1), p(0)).is_empty());
        assert_eq!(store.delete(Triple::new(n(5), p(0), n(1))), 0);
        assert_eq!(store.graph.partition_len(p(0)), 3);
    }

    /// The statistics the matcher orders patterns by are the table's own,
    /// and the resident length follows the table through every write.
    #[test]
    fn single_edge_writes_adjust_stats_without_recounting() {
        let mut store = sample();
        let edge = |s, o| Triple::new(n(s), p(0), n(o));
        for t in [edge(1, 2), edge(7, 7), edge(2, 5)] {
            store.insert(t).unwrap();
        }
        assert_eq!(store.delete(edge(1, 2)), 2);
        let table = store.rel.table(p(0)).unwrap();
        assert_eq!(store.stats(p(0)), table.stats());
        assert_eq!(store.graph.partition_len(p(0)), table.len());
        assert_eq!(store.stats(p(1)).rows, 1, "p(1) untouched");
    }

    #[test]
    fn duplicate_edges_both_counted_and_removed() {
        let mut store = Stores::with_budget(100);
        store.load(p(0), &[(n(1), n(2)), (n(1), n(2))]).unwrap();
        assert_eq!(store.fwd_row(n(1), p(0)), &[n(2), n(2)]);
        store.insert(Triple::new(n(1), p(0), n(2))).unwrap();
        assert_eq!(store.graph.used(), 3);
        assert_eq!(store.delete(Triple::new(n(1), p(0), n(2))), 3);
        assert_eq!(store.graph.used(), 0);
        assert!(
            store.graph.is_loaded(p(0)),
            "partition stays resident when empty"
        );
        assert_eq!(store.stats(p(0)), Card::default());
    }

    #[test]
    fn single_update_budget_enforced() {
        let mut store = Stores::with_budget(1);
        store.load(p(0), &[(n(1), n(2))]).unwrap();
        assert!(matches!(
            store.insert(Triple::new(n(3), p(0), n(4))),
            Err(GraphStoreError::BudgetExceeded { .. })
        ));
        assert_eq!(
            store.graph.partition_len(p(0)),
            1,
            "a refused insert changes nothing"
        );
        assert_eq!(store.rel.partition_len(p(0)), 1, "nor does it reach T_R");
        assert_eq!(store.graph.import_stats().single_updates, 0);
    }

    /// Two partitions: `p(0)` = {1→2, 1→3, 4→2}, `p(1)` = {2→5}.
    fn sample() -> Stores {
        let mut store = Stores::with_budget(100);
        store
            .load(p(0), &[(n(1), n(2)), (n(1), n(3)), (n(4), n(2))])
            .unwrap();
        store.load(p(1), &[(n(2), n(5))]).unwrap();
        store
    }

    fn outs(store: &Stores, s: u32, pred: PredId) -> Vec<u32> {
        store.fwd_row(n(s), pred).iter().map(|o| o.0).collect()
    }

    fn ins(store: &Stores, o: u32, pred: PredId) -> Vec<u32> {
        store.rev_row(n(o), pred).iter().map(|s| s.0).collect()
    }

    #[test]
    fn bulk_load_counts_edges() {
        let store = sample();
        assert_eq!(store.graph.used(), 4);
        assert_eq!(store.forward(p(0)).len(), 3);
        assert_eq!(store.seed_edges(p(0)).len(), 3);
        assert!(store.forward(p(9)).is_empty());
        assert!(store.seed_edges(p(9)).is_empty());
        assert_eq!(store.graph.preds(), [p(0), p(1)]);
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
        assert!(store.insert(Triple::new(n(1), p(0), n(0))).unwrap());
        assert_eq!(outs(&store, 1, p(0)), vec![0, 2, 3]);
        assert_eq!(ins(&store, 0, p(0)), vec![1]);
        assert_eq!(store.graph.used(), 5);
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let mut store = sample();
        assert_eq!(store.delete(Triple::new(n(1), p(0), n(2))), 1);
        assert_eq!(outs(&store, 1, p(0)), vec![3]);
        assert_eq!(ins(&store, 2, p(0)), vec![4]);
        assert_eq!(store.graph.used(), 3);
        assert_eq!(
            store.delete(Triple::new(n(1), p(0), n(2))),
            0,
            "already gone"
        );
    }

    #[test]
    fn evict_partition_clears_everything() {
        let mut store = sample();
        assert_eq!(store.graph.evict_partition(p(0)), 3);
        assert_eq!(store.graph.used(), 1);
        assert!(store.seed_edges(p(0)).is_empty());
        assert!(outs(&store, 1, p(0)).is_empty());
        assert!(ins(&store, 2, p(0)).is_empty());
        assert_eq!(store.stats(p(0)), Card::default());
        assert_eq!(store.graph.preds(), [p(1)]);
        // p(1) untouched.
        assert_eq!(outs(&store, 2, p(1)), vec![5]);
        assert_eq!(store.graph.evict_partition(p(0)), 0);
    }

    #[test]
    fn partition_stats_track_mutations() {
        let mut store = sample();
        let st = store.stats(p(0));
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
        store.insert(Triple::new(n(1), p(0), n(9))).unwrap();
        assert_eq!(store.stats(p(0)).distinct_o, 3);
        store.graph.evict_partition(p(0));
        assert_eq!(store.stats(p(0)), Card::default());
        assert_eq!(Card::default().per_subject(), 0.0);
    }

    #[test]
    fn duplicate_single_edge_inserts_both_counted_and_removed() {
        let mut store = Stores::with_budget(100);
        store.load(p(0), &[]).unwrap();
        store.insert(Triple::new(n(1), p(0), n(2))).unwrap();
        store.insert(Triple::new(n(1), p(0), n(2))).unwrap();
        assert_eq!(store.graph.used(), 2);
        assert_eq!(ins(&store, 2, p(0)), vec![1, 1]);
        assert_eq!(store.delete(Triple::new(n(1), p(0), n(2))), 2);
        assert_eq!(store.graph.used(), 0);
    }

    #[test]
    fn budget_and_double_load_enforced() {
        let mut store = Stores::with_budget(2);
        assert!(matches!(
            store.load(p(0), &[(n(1), n(2)), (n(3), n(4)), (n(5), n(6))]),
            Err(GraphStoreError::BudgetExceeded {
                needed: 3,
                available: 2,
                ..
            })
        ));
        store.load(p(0), &[(n(1), n(2))]).unwrap();
        assert!(matches!(
            store.load(p(0), &[(n(3), n(4))]),
            Err(GraphStoreError::AlreadyLoaded(_))
        ));
        assert_eq!(store.graph.available(), 1);
        assert_eq!(
            store.graph.partition_len(p(0)),
            1,
            "a refused load changes nothing"
        );
    }

    /// Migration's path — admitting a table's length — reads the table's
    /// own runs, not a copy, and bills and sizes exactly as the standalone
    /// `load_partition` over the same pairs.
    #[test]
    fn migrated_runs_equal_load_partition() {
        // Partition 0 has duplicate edges, a self-loop and a hub subject;
        // partition 1 is empty.
        let mut edges = vec![(n(1), n(1)), (n(2), n(3)), (n(2), n(3))];
        edges.extend((0..50).map(|i| (n(7), n(100 + i % 17))));
        let mut migrated = Stores::with_budget(1_000);
        let mut standalone = GraphStore::with_budget(1_000);
        for (pred, rows) in [(p(0), edges), (p(1), Vec::new())] {
            migrated.rel.load_partition(pred, &rows);
            let len = migrated.rel.partition_len(pred);
            migrated.graph.admit(pred, len).unwrap();
            standalone.load_partition(pred, &rows).unwrap();
            let table = migrated.rel.table(pred).unwrap();
            let (fwd, rev) = (table.runs().fwd(), table.runs().rev());
            assert!(std::ptr::eq(migrated.forward(pred).nbrs(), fwd.nbrs()));
            assert!(std::ptr::eq(migrated.reverse(pred).nbrs(), rev.nbrs()));
            assert_eq!(migrated.stats(pred), table.stats());
        }
        assert_eq!(migrated.fwd_row(n(7), p(0)).len(), 50);
        assert_eq!(migrated.graph.import_stats(), standalone.import_stats());
        assert_eq!(
            migrated.graph.resident_partitions(),
            standalone.resident_partitions()
        );
    }

    #[test]
    fn evict_twice_frees_and_bills_once() {
        let mut store = Stores::with_budget(2);
        store.load(p(0), &[(n(1), n(2)), (n(3), n(4))]).unwrap();
        assert_eq!(store.graph.evict_partition(p(0)), 2);
        assert_eq!(store.graph.evict_partition(p(0)), 0, "already gone");
        assert_eq!(store.graph.available(), 2);
        assert!(!store.graph.is_loaded(p(0)));
        assert_eq!(store.graph.import_stats().triples_evicted, 2);
    }

    #[test]
    fn missing_partition_is_an_error_on_an_empty_store() {
        // `T_R` holds the partition, but it is not resident.
        let mut store = Stores::with_budget(10);
        store.rel.load_partition(p(0), &[(n(1), n(2))]);
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
