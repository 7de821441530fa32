//! The counterfactual scenario (§4.2.2, Algorithm 2 lines 1–6).
//!
//! Once a complex subquery is graph-resident it only ever runs in the
//! graph store, so its relational cost — the quantity the reward needs —
//! would never be observed again. DOTIL therefore re-executes the subquery
//! in the relational store, monitored and stopped once its cost reaches
//! `λ · c1`, where `c1` is the just-measured graph cost. Costs here are
//! deterministic work units (operator counts), making training
//! reproducible.
//!
//! The two runs of a pair are two jobs, as in Algorithm 2, where the
//! relational run proceeds in parallel with the graph run. [`measure_all`]
//! lays `m` pairs out as `2m` indexed
//! `kgdual_sched::TaskClass::OfflineTuning` jobs on the unified worker
//! pool, graph sides first. A relational side starts with a *pending*
//! [`ExecContext::work_limit`] of `u64::MAX`, which nothing reaches; its
//! graph side publishes `max(λ · c1, 1000)` there when it finishes (0 if
//! it fails). [`settle`] then reads the relational outcome against the
//! published limit, so a side that finished before the publication is
//! judged exactly as a run under that limit from the start would have
//! been: every charge polls and work only grows. Each run charges its own
//! context, so the pair is the same whatever the interleaving. With no
//! pool, or a single worker, the jobs run inline in index order, every
//! graph side before any relational side.
//!
//! A [`CostPair`] depends only on the subquery's encoded patterns, λ and
//! the triples of the partitions it reads: complex subqueries have
//! constant predicates, `T_R` is always complete and a resident
//! partition is read through its table, so residency never enters it. `Dotil` memoises pairs per shape for one
//! `DualStore::data_version` and measures only its misses — a shape that
//! recurs between writes runs Algorithm 2 once.

use crate::dotil::dotil_obs;
use kgdual_core::{CoreError, DualStore};
use kgdual_graphstore::GraphBackend;
use kgdual_relstore::{ExecContext, ExecError, ExecStats};
use kgdual_sched::{Scheduler, TaskClass};
use kgdual_sparql::EncodedQuery;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A relational side's limit until its graph side publishes `λ · c1`.
const PENDING: u64 = u64::MAX;

/// Outcome of one graph-run + counterfactual-relational-run pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostPair {
    /// Graph-store cost `c1` in work units.
    pub c1: u64,
    /// Relational cost `c2`, capped at `λ · c1` when the parallel run was
    /// stopped early.
    pub c2: u64,
    /// Whether the relational run hit the λ cutoff.
    pub truncated: bool,
}

impl CostPair {
    /// The raw cost improvement `c2 − c1` (can be negative when the
    /// relational store was actually faster).
    pub fn improvement(&self) -> i64 {
        self.c2 as i64 - self.c1 as i64
    }
}

/// The outcome of one job of [`measure_all`].
enum Side {
    /// A graph run's cost `c1`.
    Graph(Result<u64, CoreError>),
    /// A relational run's statistics, or its cancellation.
    Rel(Result<ExecStats, ExecError>),
}

/// `c2` and whether the λ cutoff stopped the run, for a relational run
/// `outcome` under `limit`. A cancelled run was stopped at the limit. A
/// finished run may have finished before its limit was published: it
/// counts as stopped iff the work it charged while executing — all but
/// the result-row charge, which lands after the last poll — reaches the
/// limit, which is exactly when a run under that limit is cancelled.
pub fn settle(limit: u64, outcome: Result<ExecStats, ExecError>) -> (u64, bool) {
    match outcome {
        Ok(stats) if stats.work_units() - stats.rows_output < limit => (stats.work_units(), false),
        _ => (limit, true),
    }
}

/// Run `qc` in the graph store (cost `c1`), then in the relational store
/// with the `λ · c1` cutoff (cost `c2`), the two runs as two jobs on
/// `sched` when one is handed in.
///
/// Read-only and deterministic: safe to run for many shapes concurrently.
pub fn measure<B: GraphBackend>(
    dual: &DualStore<B>,
    qc: &EncodedQuery,
    lambda: f64,
    sched: Option<&Scheduler>,
) -> Result<CostPair, CoreError> {
    measure_all(dual, &[qc], lambda, sched)
        .pop()
        .expect("one pair per query")
}

/// [`measure`] for each of `qcs`, in order: `2 · qcs.len()` indexed
/// `OfflineTuning` jobs on `sched`, graph sides first, or inline in that
/// order without one.
pub fn measure_all<B: GraphBackend>(
    dual: &DualStore<B>,
    qcs: &[&EncodedQuery],
    lambda: f64,
    sched: Option<&Scheduler>,
) -> Vec<Result<CostPair, CoreError>> {
    let m = qcs.len();
    let limits: Vec<Arc<AtomicU64>> = (0..m).map(|_| Arc::new(AtomicU64::new(PENDING))).collect();
    let job = |j: usize| match j.checked_sub(m) {
        None => Side::Graph(graph_side(dual, qcs[j], lambda, &limits[j])),
        Some(k) => Side::Rel(rel_side(dual, qcs[k], &limits[k])),
    };
    let mut sides = match sched {
        Some(s) => s.run_indexed(TaskClass::OfflineTuning, 2 * m, job),
        None => (0..2 * m).map(job).collect(),
    };
    let rel_sides = sides.split_off(m);
    sides
        .into_iter()
        .zip(rel_sides)
        .zip(&limits)
        .map(|((graph, rel), limit)| {
            let (Side::Graph(c1), Side::Rel(rel)) = (graph, rel) else {
                unreachable!("jobs 0..m are graph sides and m..2m relational ones");
            };
            let (c2, truncated) = settle(limit.load(Ordering::Relaxed), rel);
            Ok(CostPair {
                c1: c1?,
                c2,
                truncated,
            })
        })
        .collect()
}

/// Algorithm 2, line 1: the graph cost `c1`, and the cutoff it implies
/// published into `limit`.
fn graph_side<B: GraphBackend>(
    dual: &DualStore<B>,
    qc: &EncodedQuery,
    lambda: f64,
    limit: &AtomicU64,
) -> Result<u64, CoreError> {
    let mut ctx = ExecContext::new();
    let c1 = dual
        .graph()
        .execute(qc, &mut ctx)
        .map(|_| ctx.stats.work_units());
    // Cutoff: λ · c1, with a floor so that a trivially cheap graph run
    // still grants the relational side enough budget to do *any* work. A
    // failed graph run fails the pair, so its relational side stops at
    // its next poll.
    let cutoff = c1
        .as_ref()
        .map_or(0, |&c1| ((c1 as f64 * lambda) as u64).max(1_000));
    limit.store(cutoff, Ordering::Relaxed);
    Ok(c1?)
}

/// Algorithm 2, lines 2–6: the relational run, monitored against `limit`
/// from the first poll after its graph side publishes it.
fn rel_side<B: GraphBackend>(
    dual: &DualStore<B>,
    qc: &EncodedQuery,
    limit: &Arc<AtomicU64>,
) -> Result<ExecStats, ExecError> {
    let mut ctx = ExecContext::with_shared_work_limit(Arc::clone(limit));
    let outcome = dual.rel().execute(qc, &mut ctx).map(|_| ctx.stats);
    if limit.load(Ordering::Relaxed) == PENDING {
        dotil_obs().rel_before_limit.inc();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::{DatasetBuilder, Term};
    use kgdual_sparql::{compile, parse, Compiled};

    /// A store where the complex query is much cheaper on the graph side:
    /// enough rows that the relational planner must take the
    /// scan-plus-hash-join path rather than index nested loops.
    fn dual() -> DualStore {
        let mut b = DatasetBuilder::new();
        for i in 0..600 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:bornIn",
                &Term::iri(format!("y:c{}", i % 50)),
            );
        }
        for i in 0..200 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:advisor",
                &Term::iri(format!("y:p{}", i + 100)),
            );
        }
        let mut d = DualStore::from_dataset(b.build(), 10_000);
        for pred in ["y:bornIn", "y:advisor"] {
            let p = d.dict().pred_id(pred).unwrap();
            d.migrate_partition(p).unwrap();
        }
        d
    }

    fn qc(d: &DualStore) -> EncodedQuery {
        let q =
            parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap();
        match compile(&q, d.dict()).unwrap() {
            Compiled::Query(eq) => eq,
            Compiled::EmptyResult => panic!("query must compile"),
        }
    }

    #[test]
    fn measures_both_costs() {
        let d = dual();
        let pair = measure(&d, &qc(&d), 4.5, None).unwrap();
        assert!(pair.c1 > 0);
        assert!(pair.c2 > 0);
        assert!(
            pair.c2 > pair.c1,
            "relational joins must cost more than traversal here: c1={} c2={}",
            pair.c1,
            pair.c2
        );
        assert!(pair.improvement() > 0);
    }

    #[test]
    fn lambda_caps_relational_cost() {
        let d = dual();
        // A tiny λ drives the cutoff down to its floor, which the
        // scan-heavy relational run must overrun.
        let pair = measure(&d, &qc(&d), 0.01, None).unwrap();
        let cap = ((pair.c1 as f64 * 0.01) as u64).max(1_000);
        assert!(
            pair.c2 <= cap,
            "c2={} must respect the cutoff {cap}",
            pair.c2
        );
        assert!(pair.truncated, "this workload must hit the cutoff");
    }

    #[test]
    fn generous_lambda_avoids_truncation() {
        let d = dual();
        let pair = measure(&d, &qc(&d), 1e9, None).unwrap();
        assert!(!pair.truncated);
    }

    #[test]
    fn costs_are_deterministic() {
        let d = dual();
        let a = measure(&d, &qc(&d), 4.5, None).unwrap();
        let b = measure(&d, &qc(&d), 4.5, None).unwrap();
        assert_eq!(a, b, "work-unit costs must be exactly reproducible");
    }
}
