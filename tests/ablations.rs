//! Integration-level checks for the ablation knobs the README's "Simulated
//! cost and ablations" section describes: each switch must change costs
//! in the predicted direction without changing results.

use kgdual::prelude::*;
use kgdual::relstore::PlannerConfig;

/// D1: forcing scans must make a selective bound lookup strictly more
/// expensive while returning identical rows.
#[test]
fn d1_force_scans_costs_more_same_rows() {
    let dataset = YagoGen {
        persons: 2_000,
        ..Default::default()
    }
    .generate();
    let normal = DualStore::from_dataset(dataset.clone(), 0);
    let forced = DualStore::from_dataset_with(
        dataset,
        0,
        PlannerConfig {
            force_scans: true,
            ..PlannerConfig::default()
        },
    );
    let q = parse("SELECT ?p WHERE { ?p y:wasBornIn y:City0 }").unwrap();
    let Compiled::Query(eq) = compile(&q, normal.dict()).unwrap() else {
        panic!()
    };
    let mut nctx = ExecContext::new();
    let a = normal.rel().execute(&eq, &mut nctx).unwrap();
    let mut fctx = ExecContext::new();
    let b = forced.rel().execute(&eq, &mut fctx).unwrap();
    let (mut a, mut b) = (a, b);
    a.sort_rows();
    b.sort_rows();
    assert_eq!(a, b, "access path must not change answers");
    assert!(
        fctx.stats.work_units() > 3 * nctx.stats.work_units(),
        "scan path must cost much more: {} vs {}",
        fctx.stats.work_units(),
        nctx.stats.work_units()
    );
    assert_eq!(
        fctx.stats.index_probes, 0,
        "forced mode must not touch indexes"
    );
}

/// D6: with the Case-2 guard off, a query whose complex subquery dwarfs
/// its full result must get strictly more expensive — and stay correct.
#[test]
fn d6_guard_prevents_case2_blowup() {
    // Large enough that the connection-pair subquery estimate clears the
    // guard's 4x-of-full-query threshold.
    let dataset = YagoGen {
        persons: 8_000,
        ..Default::default()
    }
    .generate();
    let budget = dataset.len() / 2;
    let build = |guard: bool| {
        let mut dual = DualStore::from_dataset(dataset.clone(), budget);
        dual.set_case2_guard(guard);
        let p = dual.dict().pred_id("y:isConnectedTo").unwrap();
        dual.migrate_partition(p).unwrap();
        dual
    };
    // Complex connection pair + highly selective remainder constants: the
    // subquery alone enumerates thousands of (p, q) pairs, the full query
    // only people from one city.
    let q = parse(
        "SELECT ?p WHERE { ?p y:isConnectedTo ?x . ?q y:isConnectedTo ?x . \
         ?p y:wasBornIn y:City0 . ?q y:wasBornIn y:City0 }",
    )
    .unwrap();
    let guarded = build(true);
    let unguarded = build(false);
    let g = kgdual::processor::process(&guarded, &q).unwrap();
    let u = kgdual::processor::process(&unguarded, &q).unwrap();
    let (mut a, mut b) = (g.results.clone(), u.results.clone());
    a.sort_rows();
    b.sort_rows();
    assert_eq!(a, b, "guard must not change answers");
    assert_eq!(g.route, Route::Relational, "guard redirects to Case 3");
    assert_eq!(u.route, Route::Dual, "unguarded takes Case 2");
    assert!(
        g.total_work() < u.total_work(),
        "guard must save work here: {} vs {}",
        g.total_work(),
        u.total_work()
    );
}

/// D8: generalized views answer constant mutations that concrete views
/// miss; both agree with direct execution when they do answer.
#[test]
fn d8_generalized_views_cover_mutations() {
    let dataset = YagoGen {
        persons: 2_000,
        ..Default::default()
    }
    .generate();
    let dual = DualStore::from_dataset(dataset, 0);
    let seen =
        parse("SELECT ?p WHERE { ?p y:wasBornIn y:City0 . ?p y:hasAcademicAdvisor ?a }").unwrap();
    let mutation =
        parse("SELECT ?p WHERE { ?p y:wasBornIn y:City1 . ?p y:hasAcademicAdvisor ?a }").unwrap();

    let mut concrete = ViewCatalog::new(1_000_000);
    concrete.observe(&seen.patterns);
    concrete.rebuild(dual.rel(), dual.dict());
    let mut gen = ViewCatalog::with_generalization(1_000_000);
    gen.observe(&seen.patterns);
    gen.rebuild(dual.rel(), dual.dict());

    let mut ctx = ExecContext::new();
    assert!(
        concrete
            .answer(&mutation.patterns, dual.dict(), &mut ctx)
            .unwrap()
            .is_none(),
        "concrete views must miss the constant mutation"
    );
    let hit = gen
        .answer(&mutation.patterns, dual.dict(), &mut ctx)
        .unwrap();
    let (_, _, rows) = hit.expect("generalized views must hit the mutation");
    // Cross-check against direct execution.
    let direct = kgdual::processor::process_relational(&dual, &mutation).unwrap();
    assert_eq!(
        rows.len(),
        direct.results.len(),
        "view answer row count must match"
    );
}

/// D4: λ bounds the counterfactual's cost; larger λ can only increase the
/// measured relational cost, and rewards stay deterministic.
#[test]
fn d4_lambda_monotone_and_deterministic() {
    let dataset = YagoGen {
        persons: 2_000,
        ..Default::default()
    }
    .generate();
    let total = dataset.len();
    let mut dual = DualStore::from_dataset(dataset, total);
    for pred in ["y:wasBornIn", "y:hasAcademicAdvisor"] {
        let p = dual.dict().pred_id(pred).unwrap();
        dual.migrate_partition(p).unwrap();
    }
    let q = parse(
        "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }",
    )
    .unwrap();
    let Compiled::Query(eq) = compile(&q, dual.dict()).unwrap() else {
        panic!()
    };
    use kgdual::dotil::counterfactual::measure;
    let tight = measure(&dual, &eq, 0.05, None).unwrap();
    let loose = measure(&dual, &eq, 100.0, None).unwrap();
    assert_eq!(tight.c1, loose.c1, "graph cost is λ-independent");
    assert!(tight.c2 <= loose.c2, "larger λ admits more relational work");
    assert!(!loose.truncated, "λ=100 must not truncate here");
    // Determinism.
    assert_eq!(measure(&dual, &eq, 0.05, None).unwrap(), tight);
}
