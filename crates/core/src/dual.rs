//! The dual-store manager: physical design `D = ⟨T_R, T_G⟩`.
//!
//! The graph side is written against [`GraphBackend`]: [`DualStore<B>`]
//! is generic over it, and its default `B` is [`AdjacencyBackend`], the
//! graph store of `kgdual-graphstore`, so `DualStore::from_dataset(ds,
//! 100)` needs no annotation. Generic code constructs through the `*_in`
//! constructors (`DualStore::<B>::from_dataset_in(ds, 100)`).

use crate::error::CoreError;
use kgdual_graphstore::store::BULK_IMPORT_COST_PER_TRIPLE;
use kgdual_graphstore::{AdjacencyBackend, GraphBackend};
use kgdual_model::{Dataset, Dictionary, PredId, Term, Triple};
use kgdual_relstore::{PlannerConfig, RebuildReport, RelStore, ResourceGovernor, ViewCatalog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh data version, unique across every store in the process.
fn next_data_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A snapshot of the current physical design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DualDesign {
    /// Partitions resident in the graph store (`T_G`), with sizes.
    pub graph_partitions: Vec<(PredId, usize)>,
    /// Graph-store budget `B_G` in triples.
    pub budget: usize,
    /// Triples currently occupying the budget.
    pub used: usize,
    /// Total triples in the relational store (`T_R` is always complete).
    pub total_triples: usize,
}

/// The dual store: a complete relational store, a budgeted graph-store
/// accelerator, and a shared dictionary.
///
/// It also holds the `RDB-views` baseline's materialized-view catalog,
/// sized to the same budget `B_G` for the paper's fair comparison. The
/// catalog stays empty until a tuner rebuilds it
/// ([`rebuild_views`](Self::rebuild_views)), and only
/// [`crate::processor::process_with_views`] reads it.
///
/// Built from a [`Dataset`], it keeps the dataset's `Arc`-shared dictionary
/// and its relational tables adopt the dataset's shared pair runs, so a
/// store built from `ds.clone()` adds no copy of either; writes copy the
/// dictionary or a touched partition once, on first write, if the dataset
/// still holds it.
///
/// The online phase only ever *reads* this structure (see
/// [`crate::processor`]): the §3.3 temporary table space for migrated
/// intermediates is caller-owned ([`kgdual_relstore::TempSpace`], one per
/// worker), so a `&DualStore` can be shared across threads for concurrent
/// query execution. All design changes — migration, eviction, inserts,
/// deletes — take `&mut self`, which is what makes the shared-read /
/// exclusive-reconfigure split of `kgdual-exec` sound by construction.
#[derive(Debug)]
pub struct DualStore<B: GraphBackend = AdjacencyBackend> {
    dict: Arc<Dictionary>,
    rel: RelStore,
    graph: B,
    views: ViewCatalog,
    case2_guard: bool,
    data_version: u64,
}

/// Default-backend constructors. These live on the concrete type so that
/// `DualStore::from_dataset(ds, 100)` keeps inferring
/// `B = AdjacencyBackend` at every call site; generic code calls
/// [`from_dataset_in`](DualStore::from_dataset_in).
impl DualStore<AdjacencyBackend> {
    /// Build from a dataset with graph budget `B_G` given in triples.
    pub fn from_dataset(ds: Dataset, budget: usize) -> Self {
        Self::from_dataset_in(ds, budget)
    }

    /// Build with explicit planner settings (ablations).
    pub fn from_dataset_with(ds: Dataset, budget: usize, planner: PlannerConfig) -> Self {
        let mut dual = Self::from_dataset_in(ds, budget);
        dual.rel.set_config(planner);
        dual
    }
}

impl<B: GraphBackend> DualStore<B> {
    /// Build from a dataset with graph budget `B_G` given in triples, on
    /// the chosen backend: `DualStore::<B>::from_dataset_in(..)`. `T_R`
    /// takes every partition, sorting its indexes as it loads.
    pub fn from_dataset_in(ds: Dataset, budget: usize) -> Self {
        let (dict, parts) = ds.into_parts();
        let mut rel = RelStore::new();
        rel.load_partition_set(&parts);
        DualStore {
            dict,
            rel,
            graph: B::with_budget(budget),
            views: ViewCatalog::new(budget),
            case2_guard: true,
            data_version: next_data_version(),
        }
    }

    /// Identifies the triples this store holds: drawn from a process-wide
    /// counter at construction and redrawn after every successful
    /// [`insert`](Self::insert) and every [`delete`](Self::delete) that
    /// removed a row, so two stores never share a version. Migration,
    /// eviction and design restore change residency, not triples, and
    /// keep it; `T_R`'s indexes are built with its tables and are not a
    /// state of their own. Anything that is a pure function of the
    /// triples (DOTIL's counterfactual cost pairs) stays valid for as
    /// long as this value does.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Whether the Case-2 blowup guard is active (ablation D6 in the
    /// README's "Simulated cost and ablations"; on by default).
    pub fn case2_guard(&self) -> bool {
        self.case2_guard
    }

    /// Toggle the Case-2 blowup guard (ablation).
    pub fn set_case2_guard(&mut self, on: bool) {
        self.case2_guard = on;
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The relational store.
    pub fn rel(&self) -> &RelStore {
        &self.rel
    }

    /// The graph store backend.
    pub fn graph(&self) -> &B {
        &self.graph
    }

    /// The materialized-view catalog of the `RDB-views` baseline.
    pub fn views(&self) -> &ViewCatalog {
        &self.views
    }

    /// Mutable catalog access, for a view advisor to record the complex
    /// subqueries it observed.
    pub fn views_mut(&mut self) -> &mut ViewCatalog {
        &mut self.views
    }

    /// Re-materialize the catalog's most frequent observed fragments over
    /// `T_R` (the baseline's offline phase; see [`ViewCatalog::rebuild`]).
    pub fn rebuild_views(&mut self) -> RebuildReport {
        self.views.rebuild(&self.rel, &self.dict)
    }

    /// Does nothing and returns 0: `T_R` builds its indexes and
    /// statistics as it loads, so there is nothing left to warm. It exists
    /// only because the `kgbench` benchmark calls it; ROADMAP item 14's
    /// benchmark change deletes it.
    pub fn warm_rel_indexes(&self) -> usize {
        0
    }

    /// Mutable backend access for design restore (crate-internal: going
    /// around [`Self::migrate_partition`]/[`Self::evict_partition`] could
    /// desynchronize `T_G` from `T_R`).
    pub(crate) fn graph_mut(&mut self) -> &mut B {
        &mut self.graph
    }

    /// An inert [`ResourceGovernor`]. It exists only because the
    /// `kgbench` benchmark links it; ROADMAP item 14's benchmark change
    /// deletes it.
    pub fn governor(&self) -> Arc<ResourceGovernor> {
        Arc::new(ResourceGovernor)
    }

    /// Current physical design. Partitions come back ascending by
    /// predicate id — the `GraphBackend::resident_partitions` contract —
    /// so designs compare byte for byte.
    pub fn design(&self) -> DualDesign {
        DualDesign {
            graph_partitions: self.graph.resident_partitions(),
            budget: self.graph.budget(),
            used: self.graph.used(),
            total_triples: self.rel.total_triples(),
        }
    }

    /// Work units a migration bills to bulk-import `triples` triples
    /// ([`BULK_IMPORT_COST_PER_TRIPLE`] each) — the tuner-facing cost
    /// hook for pricing `offline_work`.
    pub fn bulk_import_units(&self, triples: u64) -> u64 {
        triples * BULK_IMPORT_COST_PER_TRIPLE
    }

    /// Migrate one partition from the relational store into the graph
    /// store (the tuner's `migrate(T_set, relStore, graphStore)`; the
    /// relational copy is kept, per §4.2.1). The graph store adopts the
    /// table's sorted runs by cloning their `Arc`: no edge array is
    /// allocated, and the first single-edge write to the partition copies
    /// it once, so each store then holds its own.
    pub fn migrate_partition(&mut self, pred: PredId) -> Result<(), CoreError> {
        let Some(table) = self.rel.table(pred) else {
            return Err(CoreError::UnknownPartition(pred));
        };
        if table.is_empty() {
            return Err(CoreError::UnknownPartition(pred));
        }
        self.graph.load_runs(pred, Arc::clone(table.runs()))?;
        Ok(())
    }

    /// Evict one partition from the graph store; returns its size. The
    /// graph store drops its reference to the runs; `T_R` keeps its own.
    pub fn evict_partition(&mut self, pred: PredId) -> usize {
        self.graph.evict_partition(pred)
    }

    /// Insert a statement given as terms; the relational store always takes
    /// it, and a graph-resident partition is kept in sync. Only a term the
    /// dictionary has not seen writes to (and so may copy) the dictionary.
    pub fn insert_terms(&mut self, s: &Term, p: &str, o: &Term) -> Result<Triple, CoreError> {
        let d = &self.dict;
        let known = (d.node_id(s), d.pred_id(p), d.node_id(o));
        let t = if let (Some(s), Some(p), Some(o)) = known {
            Triple::new(s, p, o)
        } else {
            let dict = self.dict_mut();
            let full = |_| CoreError::UnknownPartition(PredId(0));
            let s = dict.encode_node(s).map_err(full)?;
            let p = dict.encode_pred(p).map_err(full)?;
            let o = dict.encode_node(o).map_err(full)?;
            Triple::new(s, p, o)
        };
        self.insert(t)?;
        Ok(t)
    }

    /// Insert an encoded triple into `T_R` (and the graph mirror if
    /// resident).
    ///
    /// All or nothing: the graph side is asked first because it is the
    /// one that can refuse (a resident partition with no budget headroom
    /// returns [`CoreError::Storage`]) and it refuses before mutating;
    /// `T_R` then takes the row unconditionally. A failed insert leaves
    /// both stores as they were, so the routes keep agreeing.
    pub fn insert(&mut self, t: Triple) -> Result<(), CoreError> {
        self.graph.insert_edge(t)?;
        self.rel.insert(t);
        self.data_version = next_data_version();
        Ok(())
    }

    /// Delete every copy of a triple from both stores; returns the number
    /// of relational rows removed.
    pub fn delete(&mut self, t: Triple) -> usize {
        let removed = self.rel.delete(t);
        self.graph.delete_edge(t);
        if removed > 0 {
            self.data_version = next_data_version();
        }
        removed
    }

    /// Mutable dictionary access (loading additional data); copies the
    /// dictionary first if the dataset it came from still shares it.
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        Arc::make_mut(&mut self.dict)
    }

    /// Serialize the current physical design (`T_G` residency, budget
    /// accounting, dataset fingerprint) into a versioned design snapshot.
    /// Tuner state rides along when the checkpoint is taken through
    /// [`crate::persist::save_checkpoint`]; this method persists the
    /// design alone.
    pub fn save_design(&self) -> bytes::Bytes {
        crate::persist::save_checkpoint::<B>(self, None, 0)
    }

    /// Restore a design snapshot produced by [`Self::save_design`] (or
    /// [`crate::persist::save_checkpoint`]) onto this store. The snapshot
    /// is fully decoded and validated first — wrong dataset, wrong budget,
    /// truncation, and future versions all return a typed
    /// [`DesignError`](kgdual_model::DesignError) without mutating
    /// anything — then residency is replayed partition by partition
    /// through [`Self::migrate_partition`], which shares `T_R`'s runs
    /// again and bills the bulk-import price.
    pub fn restore_design(
        &mut self,
        snapshot: &[u8],
    ) -> Result<crate::persist::RestoreReport, kgdual_model::DesignError> {
        crate::persist::restore_checkpoint::<B>(self, None, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::DatasetBuilder;

    /// The shared-read query path of `kgdual-exec` requires `&DualStore`
    /// to be shareable across worker threads; keep that guarantee
    /// compile-time-checked.
    #[test]
    fn dual_store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DualStore>();
    }

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for i in 0..10 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:wasBornIn",
                &Term::iri(format!("y:c{}", i % 3)),
            );
        }
        for i in 0..5 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:hasAcademicAdvisor",
                &Term::iri(format!("y:p{}", i + 5)),
            );
        }
        b.build()
    }

    #[test]
    fn from_dataset_loads_relational_side() {
        let dual = DualStore::from_dataset(dataset(), 100);
        assert_eq!(dual.rel().total_triples(), 15);
        assert_eq!(dual.graph().used(), 0, "graph store starts cold");
        let d = dual.design();
        assert_eq!(d.total_triples, 15);
        assert_eq!(d.budget, 100);
        assert!(d.graph_partitions.is_empty());
    }

    /// The rows `pred`'s relational table holds, as a slice of its base run.
    fn rows_of(dual: &DualStore, pred: PredId) -> &[(kgdual_model::NodeId, kgdual_model::NodeId)] {
        dual.rel().table(pred).unwrap().scan()
    }

    #[test]
    fn a_store_shares_the_datasets_dictionary_and_pairs() {
        let ds = dataset();
        let copy = ds.clone();
        assert!(std::ptr::eq(ds.dict(), copy.dict()));
        for (a, b) in ds.partitions().iter().zip(copy.partitions().iter()) {
            assert!(Arc::ptr_eq(a.shared_pairs(), b.shared_pairs()));
        }
        let dual = DualStore::from_dataset(copy, 100);
        assert!(std::ptr::eq(dual.dict(), ds.dict()), "dictionary copied");
        for part in ds.partitions().iter() {
            assert!(
                std::ptr::eq(rows_of(&dual, part.pred()), part.pairs()),
                "partition {} copied",
                part.pred()
            );
        }
    }

    #[test]
    fn writes_copy_only_what_they_touch_and_leave_the_dataset_alone() {
        let ds = dataset();
        let before = kgdual_model::encode_snapshot(&ds);
        let mut dual = DualStore::from_dataset(ds.clone(), 100);
        let born = ds.dict().pred_id("y:wasBornIn").unwrap();
        let advisor = ds.dict().pred_id("y:hasAcademicAdvisor").unwrap();
        let part = |p| ds.partitions().get(p).unwrap().pairs();

        // Known terms: the partition is copied, the dictionary is not.
        let t = dual
            .insert_terms(&Term::iri("y:p9"), "y:wasBornIn", &Term::iri("y:c0"))
            .unwrap();
        assert!(std::ptr::eq(dual.dict(), ds.dict()));
        assert!(!std::ptr::eq(rows_of(&dual, born), part(born)));
        assert!(std::ptr::eq(rows_of(&dual, advisor), part(advisor)));
        assert_eq!(rows_of(&dual, born).len(), 11);

        // A new term copies the dictionary, once.
        dual.insert_terms(&Term::iri("y:new"), "y:wasBornIn", &Term::iri("y:c0"))
            .unwrap();
        assert!(!std::ptr::eq(dual.dict(), ds.dict()));
        assert!(dual.dict().node_id(&Term::iri("y:new")).is_some());
        assert!(ds.dict().node_id(&Term::iri("y:new")).is_none());

        // A delete of an absent row copies nothing; a present one copies
        // the partition it touches.
        let absent = Triple::new(t.s, advisor, t.o);
        assert_eq!(dual.delete(absent), 0);
        assert!(std::ptr::eq(rows_of(&dual, advisor), part(advisor)));
        let (s, o) = part(advisor)[0];
        assert_eq!(dual.delete(Triple::new(s, advisor, o)), 1);
        assert!(!std::ptr::eq(rows_of(&dual, advisor), part(advisor)));
        assert_eq!(rows_of(&dual, advisor), &part(advisor)[1..]);

        assert_eq!(kgdual_model::encode_snapshot(&ds), before, "dataset moved");
        assert_eq!(ds.len(), 15);
    }

    #[test]
    fn ratio_budget() {
        // `r_{B_G}` (Table 4) as a budget in triples: floor(15 * 0.25).
        let ds = dataset();
        let budget = (ds.len() as f64 * 0.25).floor() as usize;
        let dual = DualStore::from_dataset(ds, budget);
        assert_eq!(dual.graph().budget(), 3);
    }

    #[test]
    fn migrate_and_evict_roundtrip() {
        let mut dual = DualStore::from_dataset(dataset(), 100);
        let born = dual.dict().pred_id("y:wasBornIn").unwrap();
        dual.migrate_partition(born).unwrap();
        assert!(dual.graph().is_loaded(born));
        assert_eq!(dual.graph().used(), 10);
        assert_eq!(dual.design().graph_partitions, vec![(born, 10)]);
        assert_eq!(dual.evict_partition(born), 10);
        assert_eq!(dual.graph().used(), 0);
    }

    #[test]
    fn migrate_unknown_partition_errors() {
        let mut dual = DualStore::from_dataset(dataset(), 100);
        assert!(matches!(
            dual.migrate_partition(PredId(999)),
            Err(CoreError::UnknownPartition(_))
        ));
    }

    #[test]
    fn migrate_over_budget_errors() {
        let mut dual = DualStore::from_dataset(dataset(), 5);
        let born = dual.dict().pred_id("y:wasBornIn").unwrap();
        assert!(matches!(
            dual.migrate_partition(born),
            Err(CoreError::Storage(_))
        ));
    }

    /// A refused insert (resident partition, zero headroom) must leave
    /// both stores untouched, or graph-route queries silently return fewer
    /// rows than relational-route ones.
    #[test]
    fn refused_insert_changes_nothing() {
        use crate::processor::{process_relational, process_shared};
        use kgdual_graphstore::GraphStoreError;
        use kgdual_relstore::TempSpace;

        let mut dual = DualStore::from_dataset(dataset(), 15);
        let born = dual.dict().pred_id("y:wasBornIn").unwrap();
        let advisor = dual.dict().pred_id("y:hasAcademicAdvisor").unwrap();
        dual.migrate_partition(born).unwrap();
        dual.migrate_partition(advisor).unwrap();
        assert_eq!(dual.graph().available(), 0);

        // p0's advisor p5 born where p0 was: a row of the query below, had
        // only `T_R` taken it.
        let version = dual.data_version();
        let err = dual
            .insert_terms(&Term::iri("y:p5"), "y:wasBornIn", &Term::iri("y:c0"))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Storage(GraphStoreError::BudgetExceeded {
                needed: 1,
                available: 0,
                ..
            })
        ));
        assert_eq!(dual.rel().partition_len(born), 10);
        assert_eq!(dual.graph().partition_len(born), 10);
        assert_eq!(
            dual.data_version(),
            version,
            "a refused insert keeps the version"
        );

        let query = kgdual_sparql::parse(
            "SELECT ?a ?b WHERE { ?a y:wasBornIn ?c . ?b y:wasBornIn ?c . ?a y:hasAcademicAdvisor ?b }",
        )
        .unwrap();
        let shared = process_shared(&dual, &mut TempSpace::new(), &query).unwrap();
        let relational = process_relational(&dual, &query).unwrap();
        assert_eq!(shared.route, crate::processor::Route::Graph);
        let sorted_rows = |o: &crate::processor::QueryOutcome| {
            let mut rows: Vec<_> = o.results.rows().map(<[_]>::to_vec).collect();
            rows.sort();
            rows
        };
        assert_eq!(sorted_rows(&shared), sorted_rows(&relational));

        // A non-resident predicate has nothing to refuse.
        dual.insert_terms(&Term::iri("y:new"), "y:livesIn", &Term::iri("y:c0"))
            .unwrap();
    }

    #[test]
    fn inserts_propagate_to_resident_partitions() {
        let mut dual = DualStore::from_dataset(dataset(), 100);
        let born = dual.dict().pred_id("y:wasBornIn").unwrap();
        dual.migrate_partition(born).unwrap();
        let t = dual
            .insert_terms(&Term::iri("y:new"), "y:wasBornIn", &Term::iri("y:c0"))
            .unwrap();
        assert_eq!(dual.rel().partition_len(born), 11);
        assert_eq!(dual.graph().partition_len(born), 11);
        // Non-resident predicate: only relational.
        dual.insert_terms(&Term::iri("y:new"), "y:livesIn", &Term::iri("y:c0"))
            .unwrap();
        let lives = dual.dict().pred_id("y:livesIn").unwrap();
        assert_eq!(dual.rel().partition_len(lives), 1);
        assert_eq!(dual.graph().partition_len(lives), 0);
        // Delete propagates too.
        assert_eq!(dual.delete(t), 1);
        assert_eq!(dual.rel().partition_len(born), 10);
        assert_eq!(dual.graph().partition_len(born), 10);
    }

    #[test]
    fn data_version_moves_with_triples_only() {
        let mut dual = DualStore::from_dataset(dataset(), 100);
        let other = DualStore::from_dataset(dataset(), 100);
        assert_ne!(dual.data_version(), other.data_version(), "one per store");

        // Residency and caches: same triples, same version.
        let v0 = dual.data_version();
        let born = dual.dict().pred_id("y:wasBornIn").unwrap();
        dual.migrate_partition(born).unwrap();
        assert_eq!(dual.data_version(), v0, "migrate");
        let snapshot = dual.save_design();
        assert_eq!(dual.evict_partition(born), 10);
        assert_eq!(dual.data_version(), v0, "evict");
        dual.restore_design(&snapshot).unwrap();
        assert!(dual.graph().is_loaded(born));
        assert_eq!(dual.data_version(), v0, "restore_design");

        // Writes that change the triples draw a fresh version.
        let t = dual
            .insert_terms(&Term::iri("y:new"), "y:wasBornIn", &Term::iri("y:c0"))
            .unwrap();
        let v1 = dual.data_version();
        assert_ne!(v1, v0, "insert");
        assert_eq!(dual.delete(Triple::new(t.o, t.p, t.s)), 0);
        assert_eq!(dual.data_version(), v1, "a delete that removed nothing");
        assert_eq!(dual.delete(t), 1);
        let v2 = dual.data_version();
        assert!(v2 != v1 && v2 != v0, "a delete that removed a row");
    }
}
