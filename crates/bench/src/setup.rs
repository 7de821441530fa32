//! Dataset/workload construction shared by the harness binaries.

use crate::args::BenchArgs;
use crate::experiments::WorkloadKind;
use kgdual_model::Dataset;
use kgdual_sparql::Query;
use kgdual_workloads::{Bio2RdfGen, WatDivFamily, WatDivGen, Workload, YagoGen};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Paper-scale triple counts (Table 3).
pub const PAPER_YAGO_TRIPLES: usize = 16_418_085;
/// WatDiv paper size.
pub const PAPER_WATDIV_TRIPLES: usize = 14_634_621;
/// Bio2RDF paper size.
pub const PAPER_BIO2RDF_TRIPLES: usize = 60_241_165;

/// Generate the dataset for a workload kind at the harness scale.
pub fn build_dataset(kind: WorkloadKind, args: &BenchArgs) -> Dataset {
    match kind {
        WorkloadKind::Yago => {
            YagoGen::with_target_triples(args.triples(PAPER_YAGO_TRIPLES), args.seed).generate()
        }
        WorkloadKind::WatDivL
        | WorkloadKind::WatDivS
        | WorkloadKind::WatDivF
        | WorkloadKind::WatDivC
        | WorkloadKind::WatDivAll => {
            WatDivGen::with_target_triples(args.triples(PAPER_WATDIV_TRIPLES), args.seed).generate()
        }
        WorkloadKind::Bio2Rdf => {
            Bio2RdfGen::with_target_triples(args.triples(PAPER_BIO2RDF_TRIPLES), args.seed)
                .generate()
        }
    }
}

/// Build the (ordered) workload for a kind.
pub fn build_workload(kind: WorkloadKind, args: &BenchArgs) -> Workload {
    match kind {
        WorkloadKind::Yago => {
            YagoGen::with_target_triples(args.triples(PAPER_YAGO_TRIPLES), args.seed).workload()
        }
        WorkloadKind::WatDivL => watdiv(args).workload(WatDivFamily::L),
        WorkloadKind::WatDivS => watdiv(args).workload(WatDivFamily::S),
        WorkloadKind::WatDivF => watdiv(args).workload(WatDivFamily::F),
        WorkloadKind::WatDivC => watdiv(args).workload(WatDivFamily::C),
        WorkloadKind::WatDivAll => watdiv(args).combined_workload(),
        WorkloadKind::Bio2Rdf => {
            Bio2RdfGen::with_target_triples(args.triples(PAPER_BIO2RDF_TRIPLES), args.seed)
                .workload()
        }
    }
}

fn watdiv(args: &BenchArgs) -> WatDivGen {
    WatDivGen::with_target_triples(args.triples(PAPER_WATDIV_TRIPLES), args.seed)
}

/// Which version of a workload runs (§6.1): the templates in order, or
/// the same queries in a seeded random order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Order {
    /// Query templates in order.
    Ordered,
    /// The same queries, shuffled by the run's seed.
    Random,
}

impl Order {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Order::Ordered => "ordered",
            Order::Random => "random",
        }
    }

    /// The workload's queries in this order.
    pub fn queries(self, workload: &Workload, seed: u64) -> Vec<Query> {
        match self {
            Order::Ordered => workload.ordered(),
            Order::Random => workload.randomized(&mut StdRng::seed_from_u64(seed ^ 0x5eed)),
        }
    }
}

/// Produce the batched query list in the requested order, 5 batches as
/// in the paper.
pub fn build_batches(workload: &Workload, order: Order, seed: u64) -> Vec<Vec<Query>> {
    Workload::batches(&order.queries(workload, seed), 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> BenchArgs {
        BenchArgs {
            scale: 0.001,
            ..Default::default()
        }
    }

    #[test]
    fn builds_each_workload_kind() {
        let args = tiny_args();
        for kind in [
            WorkloadKind::Yago,
            WorkloadKind::WatDivC,
            WorkloadKind::Bio2Rdf,
        ] {
            let w = build_workload(kind, &args);
            assert!(!w.queries.is_empty());
            let ds = build_dataset(kind, &args);
            assert!(ds.len() >= 2_000);
        }
    }

    #[test]
    fn batches_ordered_vs_random_are_permutations() {
        let args = tiny_args();
        let w = build_workload(WorkloadKind::Yago, &args);
        let ordered = build_batches(&w, Order::Ordered, 42);
        let random = build_batches(&w, Order::Random, 42);
        assert_eq!(ordered.len(), 5);
        assert_eq!(random.len(), 5);
        let mut a: Vec<String> = ordered.iter().flatten().map(|q| q.to_string()).collect();
        let mut b: Vec<String> = random.iter().flatten().map(|q| q.to_string()).collect();
        assert_ne!(a, b, "random version must reorder");
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
