//! **Figure 7** — time-varying IO/CPU consumption of the graph store while
//! it processes a query stream with 40% spare IO, sampled from the shared
//! resource governor on a background thread.
//!
//! Expected shape: bursty consumption early (big seed scans while bindings
//! are dense), stabilising to a lower steady rate — the paper's
//! "fluctuates widely in the beginning, then stabilizes" observation.

use kgdual_bench::{BenchArgs, TablePrinter};
use kgdual_core::processor::process;
use kgdual_core::DualStore;
use kgdual_relstore::{GovernorSample, ResourceGovernor};
use kgdual_sparql::parse;
use kgdual_workloads::YagoGen;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() {
    let args = BenchArgs::parse();
    kgdual_bench::init_obs(&args);
    println!(
        "Figure 7: IO/CPU consumed by the graph store over time (40% spare IO), {}\n",
        args.describe()
    );
    run(&args);
}

fn run(args: &BenchArgs) {
    let triples = args.triples(16_418_085);
    let dataset = YagoGen::with_target_triples(triples, args.seed).generate();
    let total = dataset.len();
    let mut dual = DualStore::from_dataset_sharded(dataset, total, args.shards);
    for pred in ["y:wasBornIn", "y:hasAcademicAdvisor", "y:isMarriedTo"] {
        let p = dual.dict().pred_id(pred).expect("predicate exists");
        dual.migrate_partition(p).expect("partitions fit");
    }
    dual.set_governor(ResourceGovernor::with_spare(0.4, 1.0));
    let governor = dual.governor();

    // Sample the governor every 20ms on a background thread.
    let stop = AtomicBool::new(false);
    let samples: Vec<GovernorSample> = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut out = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                out.push(governor.sample());
                std::thread::sleep(Duration::from_millis(20));
            }
            out.push(governor.sample());
            out
        });

        let queries = [
            parse("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }").unwrap(),
            parse("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:isMarriedTo ?m . ?m y:wasBornIn ?c }").unwrap(),
        ];
        for _ in 0..args.reps.max(5) {
            for q in &queries {
                process(&dual, q).expect("query runs");
            }
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler thread")
    });

    let mut table = TablePrinter::new(vec!["t (s)", "IO units/interval", "CPU units/interval"]);
    let mut prev: Option<GovernorSample> = None;
    for s in &samples {
        if let Some(p) = prev {
            table.row(vec![
                format!("{:.3}", s.at_secs),
                (s.io_units - p.io_units).to_string(),
                (s.cpu_units - p.cpu_units).to_string(),
            ]);
        }
        prev = Some(*s);
    }
    table.print();
    if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
        println!(
            "\ntotal: {} IO units, {} CPU units over {:.3}s",
            last.io_units - first.io_units,
            last.cpu_units - first.cpu_units,
            last.at_secs - first.at_secs
        );
    }
    kgdual_bench::write_obs_profile(args);
}
