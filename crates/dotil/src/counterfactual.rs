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
//! [`measure`] itself is a plain read-only function: the paper's parallel
//! counterfactual thread materializes one level up, where the tuner fans
//! independent per-shape measurements out as
//! `kgdual_sched::TaskClass::OfflineTuning` tasks on the unified worker
//! pool (see `Dotil::tune_with`). Each run charges its own context, so
//! the measured work units stay scheduling-invariant.
//!
//! A [`CostPair`] depends only on the subquery's encoded patterns, λ and
//! the triples of the partitions it reads: complex subqueries have
//! constant predicates, `T_R` is always complete and `T_G` holds copies,
//! so residency never enters it. `Dotil` memoises pairs per shape for one
//! `DualStore::data_version` and calls [`measure`] only on a miss — a
//! shape that recurs between writes runs Algorithm 2 once.

use kgdual_core::DualStore;
use kgdual_graphstore::GraphBackend;
use kgdual_relstore::{ExecContext, ExecError};
use kgdual_sparql::EncodedQuery;

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

/// Run `qc` in the graph store (cost `c1`), then in the relational store
/// with the `λ · c1` cutoff (cost `c2`).
///
/// Read-only and deterministic: safe to run for many shapes concurrently
/// (the tuner schedules exactly that).
pub fn measure<B: GraphBackend>(
    dual: &DualStore<B>,
    qc: &EncodedQuery,
    lambda: f64,
) -> Result<CostPair, kgdual_core::CoreError> {
    // c1: graph cost (Algorithm 2, line 1).
    let mut gctx = ExecContext::new();
    dual.graph().execute(qc, &mut gctx)?;
    let c1 = gctx.stats.work_units();

    // Cutoff: λ · c1, with a floor so that a trivially cheap graph run
    // still grants the relational side enough budget to do *any* work.
    let limit = ((c1 as f64 * lambda) as u64).max(1_000);

    // c2: relational cost, monitored against the cutoff (lines 2–6).
    let mut ctx = ExecContext::with_work_limit(limit);
    let (c2, truncated) = match dual.rel().execute(qc, &mut ctx) {
        Ok(_) => (ctx.stats.work_units(), false),
        Err(ExecError::Cancelled { .. }) => (limit, true),
    };

    Ok(CostPair { c1, c2, truncated })
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
        let pair = measure(&d, &qc(&d), 4.5).unwrap();
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
        let pair = measure(&d, &qc(&d), 0.01).unwrap();
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
        let pair = measure(&d, &qc(&d), 1e9).unwrap();
        assert!(!pair.truncated);
    }

    #[test]
    fn costs_are_deterministic() {
        let d = dual();
        let a = measure(&d, &qc(&d), 4.5).unwrap();
        let b = measure(&d, &qc(&d), 4.5).unwrap();
        assert_eq!(a, b, "work-unit costs must be exactly reproducible");
    }
}
