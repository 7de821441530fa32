//! A living biomedical knowledge graph: Bio2RDF-like data answering
//! drug-target questions while new findings stream in. Demonstrates the
//! dual store's update story — inserts land in the relational store
//! immediately, graph-resident partitions are mirrored, and query results
//! stay consistent throughout.
//!
//! ```sh
//! cargo run --release --example biomedical_updates
//! ```

use kgdual::prelude::*;

const DUAL_TARGET: &str =
    "SELECT ?d WHERE { ?d bio:targets ?p1 . ?d bio:targets ?p2 . ?p1 bio:interactsWith ?p2 }";

fn main() {
    let gen = Bio2RdfGen::with_target_triples(120_000, 11);
    let dataset = gen.generate();
    println!(
        "Bio2RDF-like graph: {} triples, {} predicates",
        dataset.len(),
        dataset.stats().preds
    );
    let budget = dataset.len() / 4;
    let mut dual = DualStore::from_dataset(dataset, budget);

    // Warm the store for the dual-target motif ("drugs hitting both ends
    // of a protein interaction").
    let query = parse(DUAL_TARGET).expect("parses");
    let mut tuner = Dotil::new();
    tuner.tune_with(&mut dual, std::slice::from_ref(&query), None);

    let before = kgdual::processor::process(&dual, &query, Options::default()).expect("runs");
    println!(
        "\nbaseline: route={:?}, {} dual-target drugs",
        before.route,
        before.results.len()
    );

    // A new study lands: drug Drug0 also targets both ends of the
    // Protein7—Protein8 interaction. Three inserts, no reload, no restart
    // (the paper's point against Neo4j-style full reimports).
    for (s, p, o) in [
        ("bio:Drug0", "bio:targets", "bio:Protein7"),
        ("bio:Drug0", "bio:targets", "bio:Protein8"),
        ("bio:Protein7", "bio:interactsWith", "bio:Protein8"),
    ] {
        dual.insert_terms(&Term::iri(s), p, &Term::iri(o))
            .expect("insert");
    }
    let import = dual.graph().import_stats();
    println!(
        "streamed 3 facts: the graph store billed {} writes to resident partitions ({} work units)",
        import.single_updates, import.work_units
    );

    let after = kgdual::processor::process(&dual, &query, Options::default()).expect("runs");
    println!(
        "after update: route={:?}, {} dual-target drugs",
        after.route,
        after.results.len()
    );
    assert!(
        after.results.len() > before.results.len(),
        "the new interaction must surface new answers"
    );

    // Retraction works the same way.
    let s = dual.dict().node_id(&Term::iri("bio:Protein7")).unwrap();
    let p = dual.dict().pred_id("bio:interactsWith").unwrap();
    let o = dual.dict().node_id(&Term::iri("bio:Protein8")).unwrap();
    dual.delete(Triple::new(s, p, o));
    let retracted = kgdual::processor::process(&dual, &query, Options::default()).expect("runs");
    println!(
        "after retraction: {} dual-target drugs (back to consistency)",
        retracted.results.len()
    );

    // Show a couple of decoded answers.
    let decoded = ResultSet::decode(&retracted, dual.dict());
    println!("\nsample answers:");
    for row in decoded.rows.iter().take(5) {
        println!("  {}", row[0]);
    }
}
