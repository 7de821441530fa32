//! Cross-crate integration: every store variant, every generator, one
//! pipeline — results must agree regardless of physical design.

use kgdual::prelude::*;

/// All three store variants produce identical result rows for every query
/// of every generator's workload.
#[test]
fn variants_agree_on_all_generator_workloads() {
    let cases: Vec<(Dataset, Vec<Query>)> = vec![
        (
            YagoGen {
                persons: 1_500,
                ..Default::default()
            }
            .generate(),
            YagoGen {
                persons: 1_500,
                ..Default::default()
            }
            .workload()
            .queries,
        ),
        (
            WatDivGen {
                users: 1_200,
                seed: 7,
            }
            .generate(),
            WatDivGen {
                users: 1_200,
                seed: 7,
            }
            .combined_workload()
            .queries,
        ),
        (
            Bio2RdfGen {
                genes: 800,
                seed: 11,
            }
            .generate(),
            Bio2RdfGen {
                genes: 800,
                seed: 11,
            }
            .workload()
            .queries,
        ),
    ];

    let mut view_routes = 0;
    for (dataset, queries) in cases {
        let budget = dataset.len() / 4;
        let batches = Workload::batches(&queries, 5);
        let variants: [(ExecMode, Box<dyn PhysicalTuner>); 3] = [
            (ExecMode::RelationalOnly, Box::new(NoopTuner)),
            (ExecMode::ViewAssisted, Box::new(ViewTuner::new())),
            (ExecMode::Routed, Box::new(Dotil::new())),
        ];
        // Each variant tunes after every batch, so later batches run on
        // built views and migrated partitions.
        let runs: Vec<Vec<ParallelBatchReport>> = variants
            .into_iter()
            .map(|(mode, mut tuner)| {
                let store = SharedStore::new(DualStore::from_dataset(dataset.clone(), budget));
                let executor = BatchExecutor::new(2).with_mode(mode).with_outcomes(true);
                ParallelRunner::new(TuningSchedule::AfterEachBatch, executor).run(
                    &store,
                    tuner.as_mut(),
                    &batches,
                )
            })
            .collect();

        for (b, batch) in batches.iter().enumerate() {
            for (qi, q) in batch.iter().enumerate() {
                let rows: Vec<Vec<String>> = runs
                    .iter()
                    .map(|reports| {
                        let out = reports[b].outcomes[qi].as_ref().expect("query runs");
                        let mut sorted = out.results.clone();
                        sorted.sort_rows();
                        sorted.rows().map(|r| format!("{r:?}")).collect()
                    })
                    .collect();
                assert_eq!(
                    rows[0], rows[1],
                    "views diverged on batch {b} query {qi}: {q}"
                );
                assert_eq!(
                    rows[0], rows[2],
                    "gdb diverged on batch {b} query {qi}: {q}"
                );
            }
        }
        view_routes += runs[1]
            .iter()
            .map(|r| r.routes.view_assisted)
            .sum::<usize>();
    }
    assert!(view_routes > 0, "some query must be answered from a view");
}

/// Tuning never changes answers, only routes and costs.
#[test]
fn tuning_preserves_results_while_changing_routes() {
    let gen = YagoGen {
        persons: 2_000,
        ..Default::default()
    };
    let dataset = gen.generate();
    let budget = dataset.len() / 4;
    let mut dual = DualStore::from_dataset(dataset, budget);

    let q = parse(
        "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }",
    )
    .unwrap();
    let before = kgdual::processor::process(&dual, &q).unwrap();
    assert_eq!(before.route, Route::Relational);

    let mut tuner = Dotil::new();
    let outcome = tuner.tune(&mut dual, std::slice::from_ref(&q));
    assert!(outcome.migrated > 0);

    let after = kgdual::processor::process(&dual, &q).unwrap();
    assert_eq!(after.route, Route::Graph);
    let (mut a, mut b) = (before.results.clone(), after.results.clone());
    a.sort_rows();
    b.sort_rows();
    assert_eq!(a, b);
    assert!(
        after.total_work() < before.total_work(),
        "graph route must be cheaper: {} vs {}",
        after.total_work(),
        before.total_work()
    );
}

/// The full batch pipeline: five batches, DOTIL tuning, zero errors, and
/// the graph share ramping up from a cold start (Figure 6's shape).
#[test]
fn batch_pipeline_ramps_up_graph_share() {
    let gen = YagoGen {
        persons: 2_000,
        ..Default::default()
    };
    let dataset = gen.generate();
    let budget = dataset.len() / 4;
    let workload = gen.workload();
    let batches = Workload::batches(&workload.ordered(), 5);

    let store = SharedStore::new(DualStore::from_dataset(dataset, budget));
    let mut tuner = Dotil::new();
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(1));
    // Two passes: the first warms, the second must use the graph store.
    let _ = runner.run(&store, &mut tuner, &batches);
    let reports = runner.run(&store, &mut tuner, &batches);

    assert!(reports.iter().all(|r| r.errors == 0));
    let graph_used: usize = reports.iter().map(|r| r.routes.graph + r.routes.dual).sum();
    assert!(
        graph_used > 0,
        "warm runs must route complex queries to the graph store"
    );
    let dual = store.read();
    assert!(dual.graph().used() > 0);
    assert!(dual.graph().used() <= dual.graph().budget());
}

/// Updates propagate across both stores through the whole stack.
#[test]
fn updates_stay_consistent_across_stores() {
    let gen = Bio2RdfGen {
        genes: 600,
        seed: 11,
    };
    let dataset = gen.generate();
    let budget = dataset.len() / 2;
    let mut dual = DualStore::from_dataset(dataset, budget);
    let q = parse(
        "SELECT ?d WHERE { ?d bio:targets ?p1 . ?d bio:targets ?p2 . ?p1 bio:interactsWith ?p2 }",
    )
    .unwrap();
    Dotil::new().tune(&mut dual, std::slice::from_ref(&q));

    let baseline = kgdual::processor::process(&dual, &q).unwrap().results.len();
    for (s, p, o) in [
        ("bio:DrugX", "bio:targets", "bio:ProteinA"),
        ("bio:DrugX", "bio:targets", "bio:ProteinB"),
        ("bio:ProteinA", "bio:interactsWith", "bio:ProteinB"),
    ] {
        dual.insert_terms(&Term::iri(s), p, &Term::iri(o)).unwrap();
    }
    let grown = kgdual::processor::process(&dual, &q).unwrap().results.len();
    assert!(
        grown > baseline,
        "inserted motif must appear: {grown} vs {baseline}"
    );

    let s = dual.dict().node_id(&Term::iri("bio:ProteinA")).unwrap();
    let p = dual.dict().pred_id("bio:interactsWith").unwrap();
    let o = dual.dict().node_id(&Term::iri("bio:ProteinB")).unwrap();
    assert_eq!(dual.delete(Triple::new(s, p, o)), 1);
    let shrunk = kgdual::processor::process(&dual, &q).unwrap().results.len();
    assert_eq!(shrunk, baseline, "retraction must restore the baseline");
}

/// The facade's prelude covers the README quickstart path.
#[test]
fn prelude_quickstart_compiles_and_runs() {
    let mut b = DatasetBuilder::new();
    b.add_terms(&Term::iri("ex:a"), "ex:p", &Term::iri("ex:b"));
    let dual = DualStore::from_dataset(b.build(), 10);
    let q = parse("SELECT ?x WHERE { ?x ex:p ?y }").unwrap();
    let out = kgdual::processor::process(&dual, &q).unwrap();
    assert_eq!(out.results.len(), 1);
    let rs = ResultSet::decode(&out, dual.dict());
    assert_eq!(rs.rows[0][0], Term::iri("ex:a"));
}
