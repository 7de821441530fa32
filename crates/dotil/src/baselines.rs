//! The paper's baseline tuning modes (§6.4): one-off, LRU/frequency, and
//! ideal. All three share a greedy residency planner; they differ only in
//! *what* they rank and *when* the runner invokes them (see
//! [`kgdual_core::batch::TuningSchedule`]). [`ViewTuner`] is the
//! `RDB-views` baseline's advisor (§6.2): it tunes the store's
//! materialized-view catalog instead of the graph store.

use kgdual_core::{identify, DualStore, PhysicalTuner, Scheduler, TuningOutcome};
use kgdual_graphstore::GraphBackend;
use kgdual_model::fx::FxHashMap;
use kgdual_model::PredId;
use kgdual_sparql::Query;

/// Greedily make the best-ranked prefix of `desired` resident: evict
/// everything unranked, then walk the ranking best-first, evicting
/// worse-ranked residents whenever that frees enough budget for a better
/// partition.
fn plan_residency<B: GraphBackend>(dual: &mut DualStore<B>, desired: &[PredId]) -> TuningOutcome {
    let mut outcome = TuningOutcome::default();
    let rank_of = |p: PredId| desired.iter().position(|&d| d == p);

    let resident: Vec<(PredId, usize)> = dual.graph().resident_partitions();
    for (p, sz) in resident {
        if rank_of(p).is_none() {
            dual.evict_partition(p);
            outcome.evicted += 1;
            outcome.triples_out += sz as u64;
        }
    }
    for (rank, &p) in desired.iter().enumerate() {
        if dual.graph().is_loaded(p) {
            continue;
        }
        let sz = dual.rel().partition_len(p);
        if sz == 0 || sz > dual.graph().budget() {
            continue;
        }
        if sz > dual.graph().available() {
            // Free space by evicting residents ranked worse than `p`,
            // worst first.
            let mut worse: Vec<(PredId, usize, usize)> = dual
                .graph()
                .resident_partitions()
                .into_iter()
                .filter_map(|(rp, rsz)| rank_of(rp).map(|r| (rp, rsz, r)))
                .filter(|&(_, _, r)| r > rank)
                .collect();
            worse.sort_by_key(|&(_, _, r)| std::cmp::Reverse(r));
            for (rp, rsz, _) in worse {
                if sz <= dual.graph().available() {
                    break;
                }
                dual.evict_partition(rp);
                outcome.evicted += 1;
                outcome.triples_out += rsz as u64;
            }
            if sz > dual.graph().available() {
                continue;
            }
        }
        if dual.migrate_partition(p).is_ok() {
            outcome.migrated += 1;
            outcome.triples_in += sz as u64;
            outcome.offline_work += dual.bulk_import_units(sz as u64);
        }
    }
    outcome
}

/// Count how often each partition appears in the batch's complex
/// subqueries.
fn complex_partition_counts<B: GraphBackend>(
    dual: &DualStore<B>,
    batch: &[Query],
) -> FxHashMap<PredId, u64> {
    let mut counts: FxHashMap<PredId, u64> = FxHashMap::default();
    for query in batch {
        let Some(qc) = identify(query) else { continue };
        for pat in &qc.patterns {
            if let Some(iri) = pat.p.as_iri() {
                if let Some(p) = dual.dict().pred_id(iri) {
                    *counts.entry(p).or_insert(0) += 1;
                }
            }
        }
    }
    counts
}

/// Rank partitions by benefit density: hits per triple of budget, then
/// raw hits, then id for determinism.
fn rank_by_density<B: GraphBackend>(
    dual: &DualStore<B>,
    counts: &FxHashMap<PredId, u64>,
) -> Vec<PredId> {
    let mut ranked: Vec<(PredId, u64, f64)> = counts
        .iter()
        .map(|(&p, &hits)| {
            let size = dual.rel().partition_len(p).max(1);
            (p, hits, hits as f64 / size as f64)
        })
        .collect();
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(b.1.cmp(&a.1)).then(a.0.cmp(&b.0)));
    ranked.into_iter().map(|(p, _, _)| p).collect()
}

/// **One-off mode**: "foresees the whole future workload and tunes the
/// dual-store structure once at the beginning time." Pair with
/// [`TuningSchedule::OnceUpfrontWithAll`](kgdual_core::batch::TuningSchedule);
/// repeat invocations are no-ops, preserving its static nature.
#[derive(Default, Debug)]
pub struct OneOffTuner {
    tuned: bool,
}

impl OneOffTuner {
    /// A fresh one-off tuner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<B: GraphBackend> PhysicalTuner<B> for OneOffTuner {
    fn name(&self) -> &str {
        "one-off"
    }

    fn tune_with(
        &mut self,
        dual: &mut DualStore<B>,
        batch: &[Query],
        _sched: Option<&Scheduler>,
    ) -> TuningOutcome {
        if self.tuned {
            return TuningOutcome::default();
        }
        self.tuned = true;
        let counts = complex_partition_counts(dual, batch);
        let ranked = rank_by_density(dual, &counts);
        plan_residency(dual, &ranked)
    }
}

/// **LRU policy**: "transfers the most frequent triple partitions in the
/// historical workloads to the graph store after each batch." Frequencies
/// accumulate over the whole history, so rarely-used partitions age out of
/// the ranking only as others overtake them.
#[derive(Default, Debug)]
pub struct FrequencyTuner {
    history: FxHashMap<PredId, u64>,
}

impl FrequencyTuner {
    /// A fresh frequency tuner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative per-partition hit counts.
    pub fn history(&self) -> &FxHashMap<PredId, u64> {
        &self.history
    }
}

impl<B: GraphBackend> PhysicalTuner<B> for FrequencyTuner {
    fn name(&self) -> &str {
        "lru"
    }

    fn tune_with(
        &mut self,
        dual: &mut DualStore<B>,
        batch: &[Query],
        _sched: Option<&Scheduler>,
    ) -> TuningOutcome {
        for (p, hits) in complex_partition_counts(dual, batch) {
            *self.history.entry(p).or_insert(0) += hits;
        }
        // Rank purely by frequency (the paper's point: frequency alone
        // ignores benefit, which is why this baseline loses to DOTIL).
        let mut ranked: Vec<(PredId, u64)> = self.history.iter().map(|(&p, &h)| (p, h)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let desired: Vec<PredId> = ranked.into_iter().map(|(p, _)| p).collect();
        plan_residency(dual, &desired)
    }
}

/// **Ideal mode**: "foresees the workload in next batch and tunes the
/// dual-store structure beforehand" — the oracle upper bound for DOTIL.
/// Pair with [`TuningSchedule::BeforeEachBatchWithUpcoming`](kgdual_core::batch::TuningSchedule).
#[derive(Default, Debug)]
pub struct IdealTuner;

impl IdealTuner {
    /// A fresh ideal tuner.
    pub fn new() -> Self {
        Self
    }
}

impl<B: GraphBackend> PhysicalTuner<B> for IdealTuner {
    fn name(&self) -> &str {
        "ideal"
    }

    fn tune_with(
        &mut self,
        dual: &mut DualStore<B>,
        upcoming: &[Query],
        _sched: Option<&Scheduler>,
    ) -> TuningOutcome {
        let counts = complex_partition_counts(dual, upcoming);
        let ranked = rank_by_density(dual, &counts);
        plan_residency(dual, &ranked)
    }
}

/// **`RDB-views` advisor**: after each batch, materialize the most
/// frequent join fragments of the complex subqueries seen so far, within
/// the graph store's budget (see [`kgdual_relstore::ViewCatalog`]).
/// Frequencies accumulate in the store's catalog over the whole history;
/// the graph store is never touched. Answering from the views never reads
/// the frequencies, so observing a batch in its offline phase builds the
/// same catalog as observing each query as it runs.
#[derive(Default, Debug)]
pub struct ViewTuner;

impl ViewTuner {
    /// A fresh view advisor.
    pub fn new() -> Self {
        Self
    }
}

impl<B: GraphBackend> PhysicalTuner<B> for ViewTuner {
    fn name(&self) -> &str {
        "views"
    }

    /// Reports views built as `migrated` and their storage units as
    /// `triples_in` and `offline_work`.
    fn tune_with(
        &mut self,
        dual: &mut DualStore<B>,
        batch: &[Query],
        _sched: Option<&Scheduler>,
    ) -> TuningOutcome {
        for query in batch {
            if let Some(qc) = identify(query) {
                dual.views_mut().observe(&qc.patterns);
            }
        }
        let report = dual.rebuild_views();
        TuningOutcome {
            migrated: report.built,
            evicted: 0,
            triples_in: report.units_used as u64,
            triples_out: 0,
            offline_work: report.units_used as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_core::{process, Options, Policy, Route};
    use kgdual_model::{DatasetBuilder, Term};
    use kgdual_sparql::parse;

    fn dual(budget: usize) -> DualStore {
        let mut b = DatasetBuilder::new();
        for i in 0..100 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:bornIn",
                &Term::iri(format!("y:c{}", i % 10)),
            );
        }
        for i in 0..40 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:advisor",
                &Term::iri(format!("y:p{}", i + 50)),
            );
        }
        for i in 0..40 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:marriedTo",
                &Term::iri(format!("y:p{}", i + 30)),
            );
        }
        DualStore::from_dataset(b.build(), budget)
    }

    fn advisor_query() -> Query {
        parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap()
    }

    fn marriage_query() -> Query {
        parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:marriedTo ?m . ?m y:bornIn ?c }").unwrap()
    }

    #[test]
    fn one_off_tunes_once_only() {
        let mut d = dual(1000);
        let mut t = OneOffTuner::new();
        let out1 = t.tune_with(&mut d, &[advisor_query()], None);
        assert!(out1.migrated > 0);
        let used = d.graph().used();
        let out2 = t.tune_with(&mut d, &[marriage_query()], None);
        assert_eq!(out2.migrated, 0, "one-off must stay static");
        assert_eq!(d.graph().used(), used);
    }

    #[test]
    fn frequency_tuner_prefers_frequent_partitions() {
        // Budget fits only bornIn+advisor (140), not marriedTo too.
        let mut d = dual(150);
        let mut t = FrequencyTuner::new();
        let batch: Vec<Query> = vec![
            advisor_query(),
            advisor_query(),
            advisor_query(),
            marriage_query(),
        ];
        t.tune_with(&mut d, &batch, None);
        let advisor = d.dict().pred_id("y:advisor").unwrap();
        let married = d.dict().pred_id("y:marriedTo").unwrap();
        assert!(d.graph().is_loaded(advisor));
        assert!(
            !d.graph().is_loaded(married),
            "budget spent on frequent partitions"
        );
        assert!(t.history()[&advisor] == 3);
    }

    #[test]
    fn frequency_tuner_adapts_across_batches() {
        let mut d = dual(150);
        let mut t = FrequencyTuner::new();
        t.tune_with(&mut d, &[advisor_query()], None);
        let advisor = d.dict().pred_id("y:advisor").unwrap();
        let married = d.dict().pred_id("y:marriedTo").unwrap();
        assert!(d.graph().is_loaded(advisor));
        // A heavy shift towards marriage queries overtakes the history.
        let shift: Vec<Query> = (0..5).map(|_| marriage_query()).collect();
        let out = t.tune_with(&mut d, &shift, None);
        assert!(d.graph().is_loaded(married));
        assert!(out.evicted > 0 || !d.graph().is_loaded(advisor));
    }

    #[test]
    fn ideal_tuner_matches_upcoming_batch_exactly() {
        let mut d = dual(150);
        let mut t = IdealTuner::new();
        t.tune_with(&mut d, &[marriage_query()], None);
        let married = d.dict().pred_id("y:marriedTo").unwrap();
        let advisor = d.dict().pred_id("y:advisor").unwrap();
        assert!(d.graph().is_loaded(married));
        assert!(!d.graph().is_loaded(advisor));
        // Next batch shifts: the oracle reshapes residency.
        t.tune_with(&mut d, &[advisor_query()], None);
        assert!(d.graph().is_loaded(advisor));
        assert!(!d.graph().is_loaded(married), "stale partition evicted");
    }

    #[test]
    fn planner_respects_budget() {
        let mut d = dual(50); // fits only advisor or marriedTo (40), not bornIn (100)
        let mut t = IdealTuner::new();
        let out = t.tune_with(&mut d, &[advisor_query()], None);
        assert!(d.graph().used() <= 50);
        // bornIn (100 triples) cannot fit; advisor (40) can.
        let advisor = d.dict().pred_id("y:advisor").unwrap();
        assert!(d.graph().is_loaded(advisor));
        assert!(out.migrated >= 1);
    }

    #[test]
    fn view_tuner_routes_the_next_batch_view_assisted() {
        let mut d = dual(10_000);
        let q = advisor_query();
        let views = Options {
            policy: Policy::ViewAssisted,
            explain: false,
        };
        let cold = process(&d, &q, views).unwrap();
        assert_eq!(cold.route, Route::Relational, "no views before tuning");
        let out = ViewTuner::new().tune_with(&mut d, std::slice::from_ref(&q), None);
        assert_eq!(out.migrated, 3, "three pair fragments built");
        assert_eq!(d.graph().used(), 0, "the graph store stays cold");
        let warm = process(&d, &q, views).unwrap();
        assert_eq!(warm.route, Route::ViewAssisted);
        assert_eq!(cold.results, warm.results);
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut d = dual(100);
        assert_eq!(
            FrequencyTuner::new().tune_with(&mut d, &[], None).migrated,
            0
        );
        assert_eq!(IdealTuner::new().tune_with(&mut d, &[], None).migrated, 0);
        assert_eq!(OneOffTuner::new().tune_with(&mut d, &[], None).migrated, 0);
        assert_eq!(ViewTuner::new().tune_with(&mut d, &[], None).migrated, 0);
    }
}
