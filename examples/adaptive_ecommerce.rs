//! Workload drift on an e-commerce graph: a WatDiv-like store serves
//! complex social/purchase queries whose hot motif changes after two
//! batches, and DOTIL re-tunes the physical design after every batch.
//! The example prints each batch's simulated TTI, graph-work share, route
//! mix and tuning moves, then the graph-resident partitions at the end.
//! Today that output shows DOTIL adopting the first motif (batch 2 runs
//! on the graph store) but not following the drift: the later motif's
//! batches stay relational and nothing is migrated for them (ROADMAP
//! item 16).
//!
//! ```sh
//! cargo run --release --example adaptive_ecommerce
//! ```

use kgdual::prelude::*;

fn main() {
    let gen = WatDivGen::with_target_triples(120_000, 7);
    let dataset = gen.generate();
    println!(
        "WatDiv-like graph: {} triples, {} predicates",
        dataset.len(),
        dataset.stats().preds
    );

    // Budget: the paper's default r_BG = 25%.
    let budget = dataset.len() / 4;
    let store = SharedStore::new(DualStore::from_dataset(dataset, budget));
    let mut tuner = Dotil::new();

    // A drifting workload: batches shift from the triangle motif (friends
    // liking the same product) to the purchase-review loop.
    let triangle = gen.templates(WatDivFamily::C)[0].clone();
    let loop_t = gen.templates(WatDivFamily::C)[2].clone();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    let batch_of = |t: &Template, n: usize, rng: &mut rand::rngs::StdRng| -> Vec<Query> {
        (0..n)
            .map(|i| if i == 0 { t.original() } else { t.mutate(rng) })
            .collect()
    };
    let batches = vec![
        batch_of(&triangle, 4, &mut rng),
        batch_of(&triangle, 4, &mut rng),
        batch_of(&loop_t, 4, &mut rng), // drift!
        batch_of(&loop_t, 4, &mut rng),
        batch_of(&loop_t, 4, &mut rng),
    ];

    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(1));
    let reports = runner.run(&store, &mut tuner, &batches);

    println!("\nbatch  motif     sim-TTI(ms)  graph-share  routes(graph/dual/rel)  tuned(in/out)");
    for (i, r) in reports.iter().enumerate() {
        let motif = if i < 2 { "triangle" } else { "loop" };
        println!(
            "{:>5}  {:<8}  {:>11.3}  {:>10.1}%  {:>4}/{}/{}                 {:>3}/{}",
            i + 1,
            motif,
            r.sim_tti.as_secs_f64() * 1e3,
            r.graph_work_share() * 100.0,
            r.routes.graph,
            r.routes.dual,
            r.routes.relational,
            r.tuning.migrated,
            r.tuning.evicted,
        );
    }

    let dual = store.read();
    let design = dual.design();
    println!(
        "\nfinal design: {}/{} triples in the graph store across {} partitions",
        design.used,
        design.budget,
        design.graph_partitions.len()
    );
    for (pred, size) in design.graph_partitions {
        println!("  - {} ({size})", dual.dict().pred(pred).unwrap());
    }
}
