//! **Table 6** — slowdown of the graph store with limited spare
//! resources: 40%/20% spare IO and 40%/20% spare CPU, relative to an
//! unthrottled run of the same complex-query batch.
//!
//! Expected shape: IO limits barely matter (traversal is probe-dominated),
//! CPU limits matter more, and 20% spare hurts more than 40% — the
//! ordering in the paper's Table 6.

use kgdual_bench::{BenchArgs, TablePrinter};
use kgdual_core::processor::process;
use kgdual_core::DualStore;
use kgdual_relstore::ResourceGovernor;
use kgdual_sparql::parse;
use kgdual_workloads::YagoGen;
use std::time::{Duration, Instant};

fn run(args: &BenchArgs) {
    let triples = args.triples(16_418_085);
    let dataset = YagoGen::with_target_triples(triples, args.seed).generate();
    let total = dataset.len();
    let mut dual = DualStore::from_dataset_sharded(dataset, total, args.shards);
    for pred in ["y:wasBornIn", "y:hasAcademicAdvisor", "y:isMarriedTo"] {
        let p = dual.dict().pred_id(pred).expect("predicate exists");
        dual.migrate_partition(p).expect("partitions fit");
    }
    let queries = [
        parse("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }").unwrap(),
        parse("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:isMarriedTo ?m . ?m y:wasBornIn ?c }").unwrap(),
    ];

    let run_batch = |dual: &mut DualStore| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..args.reps.max(2) {
            let t0 = Instant::now();
            for q in &queries {
                let out = process(dual, q).expect("query runs");
                assert!(matches!(out.route, kgdual_core::Route::Graph));
            }
            best = best.min(t0.elapsed());
        }
        best
    };

    dual.set_governor(ResourceGovernor::unlimited());
    let baseline = run_batch(&mut dual);
    println!("unthrottled baseline: {:.4}s\n", baseline.as_secs_f64());

    let mut table = TablePrinter::new(vec!["spare resource", "batch time (s)", "slowdown"]);
    let cases: [(&str, f64, f64); 4] = [
        ("IO 40%", 0.4, 1.0),
        ("IO 20%", 0.2, 1.0),
        ("CPU 40%", 1.0, 0.4),
        ("CPU 20%", 1.0, 0.2),
    ];
    for (label, io, cpu) in cases {
        dual.set_governor(ResourceGovernor::with_spare(io, cpu));
        let t = run_batch(&mut dual);
        let slowdown = (t.as_secs_f64() - baseline.as_secs_f64()) / baseline.as_secs_f64();
        table.row(vec![
            label.to_string(),
            format!("{:.4}", t.as_secs_f64()),
            format!("{:+.2}%", slowdown * 100.0),
        ]);
    }
    table.print();
}

fn main() {
    let args = BenchArgs::parse();
    kgdual_bench::init_obs(&args);
    println!(
        "Table 6: graph-store slowdown with limited spare resources, {}\n",
        args.describe()
    );
    run(&args);
    kgdual_bench::write_obs_profile(&args);
}
