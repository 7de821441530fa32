//! Criterion benches for the dual-store layer: routing overhead, the
//! identifier, DOTIL tuning steps, and two of the ablations the README's
//! "Simulated cost and ablations" section describes (D1 scan forcing, D6
//! Case-2 guard).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgdual_core::{identify, DualStore, Options, PhysicalTuner};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_relstore::{ExecContext, PlannerConfig};
use kgdual_sparql::{compile, parse, Compiled};
use kgdual_workloads::YagoGen;

const ADVISOR: &str =
    "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }";
const EXAMPLE_1: &str = "SELECT ?GivenName ?FamilyName WHERE { \
     ?p y:hasGivenName ?GivenName . ?p y:hasFamilyName ?FamilyName . \
     ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . \
     ?p y:isMarriedTo ?p2 . ?p2 y:wasBornIn ?city }";

fn bench_identifier(c: &mut Criterion) {
    let q = parse(EXAMPLE_1).unwrap();
    c.bench_function("identifier/example1", |b| {
        b.iter(|| identify(black_box(&q)))
    });
}

fn bench_routing(c: &mut Criterion) {
    let gen = YagoGen {
        persons: 2_000,
        ..Default::default()
    };
    let dataset = gen.generate();
    let budget = dataset.len() / 4;
    let mut dual = DualStore::from_dataset(dataset, budget);
    let q = parse(ADVISOR).unwrap();
    Dotil::new().tune_with(&mut dual, std::slice::from_ref(&q), None);

    let mut g = c.benchmark_group("query-processor");
    g.sample_size(30);
    g.bench_function("routed-graph-case1", |b| {
        b.iter(|| {
            kgdual_core::process(&dual, black_box(&q), Options::default())
                .unwrap()
                .results
                .len()
        })
    });
    let simple = parse("SELECT ?p ?g WHERE { ?p y:hasGivenName ?g }").unwrap();
    g.bench_function("routed-relational-simple", |b| {
        b.iter(|| {
            kgdual_core::process(&dual, black_box(&simple), Options::default())
                .unwrap()
                .results
                .len()
        })
    });
    g.finish();
}

fn bench_dotil_step(c: &mut Criterion) {
    let gen = YagoGen {
        persons: 2_000,
        ..Default::default()
    };
    let q = parse(ADVISOR).unwrap();
    let mut g = c.benchmark_group("dotil");
    g.sample_size(15);
    g.bench_function("tune-one-complex-query", |b| {
        b.iter_batched(
            || DualStore::from_dataset(gen.generate(), 200_000),
            |mut dual| {
                let mut tuner = Dotil::with_config(DotilConfig {
                    prob: 1.0,
                    ..Default::default()
                });
                tuner
                    .tune_with(&mut dual, std::slice::from_ref(&q), None)
                    .migrated
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Ablation D1: forcing full scans everywhere (no index access paths)
/// shows what the MySQL-style optimizer cliff costs on bound patterns.
fn bench_ablation_force_scans(c: &mut Criterion) {
    let dataset = YagoGen {
        persons: 4_000,
        ..Default::default()
    }
    .generate();
    let normal = {
        let mut d = DualStore::from_dataset(dataset.clone(), 0);
        d.set_case2_guard(true);
        d
    };
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
        unreachable!()
    };
    let mut g = c.benchmark_group("ablation-d1-access-paths");
    g.bench_function("index-allowed", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            normal
                .rel()
                .execute(black_box(&eq), &mut ctx)
                .unwrap()
                .len()
        })
    });
    g.bench_function("force-scans", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            forced
                .rel()
                .execute(black_box(&eq), &mut ctx)
                .unwrap()
                .len()
        })
    });
    g.finish();
}

/// Ablation D6: the Case-2 blowup guard on a query whose complex subquery
/// is much larger than the full result.
fn bench_ablation_case2_guard(c: &mut Criterion) {
    let gen = YagoGen {
        persons: 2_000,
        ..Default::default()
    };
    let dataset = gen.generate();
    let budget = dataset.len() / 2;
    // Complex pair subquery with a selective remainder.
    let q =
        parse("SELECT ?p WHERE { ?p y:worksAt ?o . ?q y:worksAt ?o . ?p y:hasWonPrize y:Prize0 }")
            .unwrap();
    let build = |guard: bool| {
        let mut dual = DualStore::from_dataset(dataset.clone(), budget);
        dual.set_case2_guard(guard);
        {
            let pred = "y:worksAt";
            let p = dual.dict().pred_id(pred).unwrap();
            dual.migrate_partition(p).unwrap();
        }
        dual
    };
    let guarded = build(true);
    let unguarded = build(false);
    let mut g = c.benchmark_group("ablation-d6-case2-guard");
    g.sample_size(30);
    g.bench_function("guard-on", |b| {
        b.iter(|| {
            kgdual_core::process(&guarded, black_box(&q), Options::default())
                .unwrap()
                .results
                .len()
        })
    });
    g.bench_function("guard-off", |b| {
        b.iter(|| {
            kgdual_core::process(&unguarded, black_box(&q), Options::default())
                .unwrap()
                .results
                .len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_identifier,
    bench_routing,
    bench_dotil_step,
    bench_ablation_force_scans,
    bench_ablation_case2_guard
);
criterion_main!(benches);
