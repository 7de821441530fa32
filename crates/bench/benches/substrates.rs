//! Criterion microbenches for the substrates: parser, dictionary, the
//! relational join executor, the graph matcher, partition migration and
//! a write to a resident partition. These complement the
//! per-figure harness binaries with statistically solid microscopic
//! numbers (regression tracking for the hot paths).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kgdual_core::DualStore;
use kgdual_graphstore::GraphBackend;
use kgdual_model::{Dictionary, NodeId, Term, Triple};
use kgdual_relstore::{ExecContext, RelStore};
use kgdual_sparql::{compile, parse, Compiled, EncodedQuery};
use kgdual_workloads::YagoGen;

const ADVISOR: &str =
    "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }";
const EXAMPLE_1: &str = "SELECT ?GivenName ?FamilyName WHERE { \
     ?p y:hasGivenName ?GivenName . ?p y:hasFamilyName ?FamilyName . \
     ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . \
     ?p y:isMarriedTo ?p2 . ?p2 y:wasBornIn ?city }";

fn mirrored_dual(persons: usize) -> (DualStore, EncodedQuery) {
    let dataset = YagoGen {
        persons,
        ..Default::default()
    }
    .generate();
    // One triple of headroom, so that a resident partition can take a
    // write.
    let total = dataset.len();
    let mut dual = DualStore::from_dataset(dataset, total + 1);
    let preds: Vec<_> = dual.rel().preds().collect();
    for p in preds {
        dual.migrate_partition(p).unwrap();
    }
    let q = parse(ADVISOR).unwrap();
    let Compiled::Query(eq) = compile(&q, dual.dict()).unwrap() else {
        unreachable!()
    };
    (dual, eq)
}

fn bench_parser(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparql-parser");
    g.bench_function("advisor-3-patterns", |b| {
        b.iter(|| parse(black_box(ADVISOR)).unwrap())
    });
    g.bench_function("example1-7-patterns", |b| {
        b.iter(|| parse(black_box(EXAMPLE_1)).unwrap())
    });
    g.finish();
}

fn bench_dictionary(c: &mut Criterion) {
    let mut g = c.benchmark_group("dictionary");
    g.bench_function("encode-1k-terms", |b| {
        b.iter(|| {
            let mut d = Dictionary::new();
            for i in 0..1000 {
                d.encode_node(&Term::iri(format!("y:Entity{i}"))).unwrap();
            }
            d.node_count()
        })
    });
    let mut warm = Dictionary::new();
    for i in 0..1000 {
        warm.encode_node(&Term::iri(format!("y:Entity{i}")))
            .unwrap();
    }
    g.bench_function("lookup-hit", |b| {
        let probe = Term::iri("y:Entity500");
        b.iter(|| warm.node_id(black_box(&probe)))
    });
    g.finish();
}

fn bench_executors(c: &mut Criterion) {
    let mut g = c.benchmark_group("complex-query-execution");
    g.sample_size(20);
    for persons in [1_000usize, 4_000] {
        let (dual, eq) = mirrored_dual(persons);
        g.bench_with_input(
            BenchmarkId::new("relational-hash-join", persons),
            &persons,
            |b, _| {
                b.iter(|| {
                    let mut ctx = ExecContext::new();
                    dual.rel().execute(black_box(&eq), &mut ctx).unwrap().len()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("graph-traversal", persons),
            &persons,
            |b, _| {
                b.iter(|| {
                    let mut ctx = ExecContext::new();
                    dual.graph()
                        .execute(black_box(&eq), &mut ctx)
                        .unwrap()
                        .len()
                })
            },
        );
    }
    g.finish();
}

/// One relational hash join shaped like DOTIL's counterfactual runs:
/// a 64 k-row build side with distinct keys, probed by 160 k rows of
/// which four in five find their key.
fn bench_hash_join(c: &mut Criterion) {
    const BUILD: u32 = 64_000;
    const PROBE: u32 = 160_000;
    let mut dict = Dictionary::new();
    let build_pred = dict.encode_pred("y:build").unwrap();
    let probe_pred = dict.encode_pred("y:probe").unwrap();
    let key = |i: u32| NodeId(BUILD + i);
    let build: Vec<_> = (0..BUILD).map(|i| (NodeId(i), key(i))).collect();
    let probe: Vec<_> = (0..PROBE)
        .map(|j| (key(j * 7_919 % (BUILD / 4 * 5)), NodeId(3 * PROBE + j)))
        .collect();
    let mut rel = RelStore::new();
    rel.load_partition(build_pred, &build);
    rel.load_partition(probe_pred, &probe);
    let q = parse("SELECT ?a ?c WHERE { ?a y:build ?b . ?b y:probe ?c }").unwrap();
    let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
        unreachable!()
    };
    let mut g = c.benchmark_group("hash-join");
    g.sample_size(10);
    g.bench_function("64k-build-160k-probe", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            rel.execute(black_box(&eq), &mut ctx).unwrap().len()
        })
    });
    g.finish();
}

fn bench_bound_lookup(c: &mut Criterion) {
    let (dual, _) = mirrored_dual(4_000);
    let q = parse("SELECT ?c WHERE { y:Person0 y:wasBornIn ?c }").unwrap();
    let Compiled::Query(eq) = compile(&q, dual.dict()).unwrap() else {
        unreachable!()
    };
    let mut g = c.benchmark_group("bound-lookup");
    g.bench_function("relational-index", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            dual.rel().execute(black_box(&eq), &mut ctx).unwrap().len()
        })
    });
    g.bench_function("graph-adjacency", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            dual.graph()
                .execute(black_box(&eq), &mut ctx)
                .unwrap()
                .len()
        })
    });
    g.finish();
}

/// Migration as DOTIL pays it: every partition of a mirrored 4 000-person
/// store evicted from the graph store and migrated back from `T_R`.
fn bench_migrate(c: &mut Criterion) {
    let (mut dual, _) = mirrored_dual(4_000);
    let preds: Vec<_> = dual.rel().preds().collect();
    let mut g = c.benchmark_group("migrate");
    g.sample_size(10);
    g.bench_function("evict-and-migrate-all/4000", |b| {
        b.iter(|| {
            for &p in &preds {
                dual.evict_partition(p);
            }
            for &p in &preds {
                dual.migrate_partition(p).unwrap();
            }
            dual.graph().used()
        })
    });
    g.finish();
}

/// A write as `DualStore` pays it: one triple inserted into the resident
/// `wasBornIn` partition of a mirrored 4 000-person store, in the middle
/// of its runs, and deleted again.
fn bench_write(c: &mut Criterion) {
    let (mut dual, _) = mirrored_dual(4_000);
    let born = dual.dict().pred_id("y:wasBornIn").unwrap();
    let rows = dual.rel().table(born).unwrap().scan();
    let (s, o) = rows[rows.len() / 2];
    // A city born in a person: absent, so the delete removes just it.
    let t = Triple::new(o, born, s);
    assert_eq!(dual.delete(t), 0);
    let mut g = c.benchmark_group("write");
    g.bench_function("insert-delete-resident/4000", |b| {
        b.iter(|| {
            dual.insert(black_box(t)).unwrap();
            dual.delete(black_box(t))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parser,
    bench_dictionary,
    bench_executors,
    bench_hash_join,
    bench_bound_lookup,
    bench_migrate,
    bench_write
);
criterion_main!(benches);
