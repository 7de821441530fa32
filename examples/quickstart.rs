//! Quickstart: build a small knowledge graph, run the paper's running
//! query, let DOTIL move the hot partitions into the graph store, and
//! watch the route change.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kgdual::prelude::*;

fn main() {
    // 1. A hand-made academic mini-graph.
    let mut b = DatasetBuilder::new();
    let facts = [
        ("y:Einstein", "y:wasBornIn", "y:Ulm"),
        ("y:Weber", "y:wasBornIn", "y:Ulm"),
        ("y:Einstein", "y:hasAcademicAdvisor", "y:Weber"),
        ("y:Feynman", "y:wasBornIn", "y:NYC"),
        ("y:Wheeler", "y:wasBornIn", "y:Jacksonville"),
        ("y:Feynman", "y:hasAcademicAdvisor", "y:Wheeler"),
        ("y:Einstein", "y:hasGivenName", "y:Albert"),
        ("y:Feynman", "y:hasGivenName", "y:Richard"),
    ];
    for (s, p, o) in facts {
        b.add_terms(&Term::iri(s), p, &Term::iri(o));
    }
    println!("loaded {} triples", b.len());

    // 2. A dual store: relational side holds everything; the graph side
    //    has a budget of 100 triples and starts empty.
    let mut dual = DualStore::from_dataset(b.build(), 100);

    // 3. The paper's running example: who was born in the same city as
    //    their academic advisor?
    let query = parse(
        "SELECT ?p WHERE { ?p y:wasBornIn ?city . \
         ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }",
    )
    .expect("query parses");

    let out = kgdual::processor::process(&dual, &query, Options::default()).expect("query runs");
    println!(
        "cold store : route={:?}, {} result(s), {} work units",
        out.route,
        out.results.len(),
        out.total_work()
    );
    println!("{}", ResultSet::decode(&out, dual.dict()));

    // 4. Offline tuning: DOTIL inspects the complex subquery and migrates
    //    the wasBornIn + hasAcademicAdvisor partitions.
    let mut tuner = Dotil::new();
    let tuned = tuner.tune_with(&mut dual, std::slice::from_ref(&query), None);
    println!(
        "tuning     : migrated {} partition(s), {} triples into the graph store",
        tuned.migrated, tuned.triples_in
    );
    for (pred, size) in dual.design().graph_partitions {
        println!(
            "             - {} ({size} triples)",
            dual.dict().pred(pred).unwrap()
        );
    }

    // 5. The same query now routes to the graph store.
    let out = kgdual::processor::process(&dual, &query, Options::default()).expect("query runs");
    println!(
        "warm store : route={:?}, {} result(s), {} work units",
        out.route,
        out.results.len(),
        out.total_work()
    );

    // 6. Updates keep flowing into the relational store and are mirrored
    //    into graph-resident partitions automatically.
    dual.insert_terms(&Term::iri("y:Curie"), "y:wasBornIn", &Term::iri("y:Warsaw"))
        .expect("insert");
    println!(
        "after insert: rel={} triples, graph={} triples",
        dual.rel().total_triples(),
        dual.graph().used()
    );
}
