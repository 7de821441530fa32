//! The paper's YAGO scenario end-to-end: generate a YAGO-like knowledge
//! graph, run Example 1 (given/family names of people whose advisor and
//! spouse were born in their own birth city), and compare the relational
//! and graph execution paths on the same data — a miniature Table 1.
//!
//! ```sh
//! cargo run --release --example academic_advisors
//! ```

use kgdual::prelude::*;
use std::time::Instant;

const EXAMPLE_1: &str = "SELECT ?GivenName ?FamilyName WHERE { \
     ?p y:hasGivenName ?GivenName . ?p y:hasFamilyName ?FamilyName . \
     ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . \
     ?p y:isMarriedTo ?p2 . ?p2 y:wasBornIn ?city }";

fn main() {
    // A 100k-triple YAGO-like graph (deterministic).
    let gen = YagoGen::with_target_triples(100_000, 42);
    let dataset = gen.generate();
    let stats = dataset.stats();
    println!(
        "YAGO-like graph: {} triples, {} nodes, {} predicates",
        stats.triples, stats.nodes, stats.preds
    );

    let total = dataset.len();
    let mut dual = DualStore::from_dataset(dataset, total);

    let query = parse(EXAMPLE_1).expect("Example 1 parses");
    // The complex subquery identifier marks q3..q7, as in the paper §3.1.
    let qc = identify(&query).expect("Example 1 has a complex subquery");
    println!(
        "complex subquery: patterns {:?}, output variables {:?}",
        qc.pattern_indexes,
        qc.output_vars
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    );

    // Relational route (cold store).
    let t0 = Instant::now();
    let cold = kgdual::processor::process(&dual, &query, Options::default()).expect("runs");
    let rel_time = t0.elapsed();
    println!(
        "\nrelational route: {:?}, {} rows, {} work units, {rel_time:?}",
        cold.route,
        cold.results.len(),
        cold.total_work()
    );

    // Mirror the five predicates and run by traversal.
    for pred in [
        "y:wasBornIn",
        "y:hasAcademicAdvisor",
        "y:isMarriedTo",
        "y:hasGivenName",
        "y:hasFamilyName",
    ] {
        let p = dual.dict().pred_id(pred).expect("predicate exists");
        dual.migrate_partition(p).expect("fits budget");
    }
    let t1 = Instant::now();
    let warm = kgdual::processor::process(&dual, &query, Options::default()).expect("runs");
    let graph_time = t1.elapsed();
    println!(
        "graph route     : {:?}, {} rows, {} work units, {graph_time:?}",
        warm.route,
        warm.results.len(),
        warm.total_work()
    );
    assert_eq!(cold.results.len(), warm.results.len(), "routes must agree");

    println!(
        "\nspeedup: {:.1}x wall, {:.1}x work units, {:.1}x simulated",
        rel_time.as_secs_f64() / graph_time.as_secs_f64().max(1e-9),
        cold.total_work() as f64 / warm.total_work().max(1) as f64,
        cold.simulated_latency().as_secs_f64() / warm.simulated_latency().as_secs_f64().max(1e-9),
    );

    let decoded = ResultSet::decode(&warm, dual.dict());
    println!("\nfirst results:");
    for row in decoded.rows.iter().take(5) {
        println!("  {} {}", row[0], row[1]);
    }
}
