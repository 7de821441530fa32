//! # kgdual — a dual-store structure for knowledge graphs
//!
//! A from-scratch Rust reproduction of *"A Dual-Store Structure for
//! Knowledge Graphs"* (Qi, Wang, Zhang; ICDE 2022 extended abstract /
//! arXiv:2012.06966).
//!
//! A complete knowledge graph lives in a relational store (cheap bulk
//! storage, cheap updates); a budget-constrained native graph store with
//! index-free adjacency accelerates *complex subqueries*; and **DOTIL**, a
//! Q-learning physical-design tuner, decides which triple partitions to
//! mirror into the graph store as the workload drifts. The graph store
//! ([`GraphStore`](prelude::GraphStore), alias
//! [`AdjacencyBackend`](prelude::AdjacencyBackend)) keeps each resident
//! partition as forward and reverse compressed sparse rows.
//!
//! ```
//! use kgdual::prelude::*;
//!
//! // Build a tiny knowledge graph.
//! let mut b = DatasetBuilder::new();
//! b.add_terms(&Term::iri("y:Einstein"), "y:wasBornIn", &Term::iri("y:Ulm"));
//! b.add_terms(&Term::iri("y:Weber"), "y:wasBornIn", &Term::iri("y:Ulm"));
//! b.add_terms(&Term::iri("y:Einstein"), "y:hasAcademicAdvisor", &Term::iri("y:Weber"));
//!
//! // A dual store with a 100-triple graph budget.
//! let mut dual = DualStore::from_dataset(b.build(), 100);
//!
//! // The paper's running query: people born in the same city as their advisor.
//! let q = parse(
//!     "SELECT ?p WHERE { ?p y:wasBornIn ?c . \
//!      ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }",
//! )
//! .unwrap();
//! let out = kgdual::processor::process(&dual, &q).unwrap();
//! assert_eq!(out.results.len(), 1);
//!
//! // Let DOTIL accelerate it: tune on the observed workload, re-run.
//! let mut tuner = Dotil::new();
//! tuner.tune(&mut dual, &[q.clone()]);
//! let out = kgdual::processor::process(&dual, &q).unwrap();
//! assert_eq!(out.route, Route::Graph);
//! ```
//!
//! The workspace crates, re-exported here:
//!
//! | crate | contents |
//! |---|---|
//! | [`model`] | terms, dictionary encoding, triples, partitions |
//! | [`sparql`] | SPARQL-subset parser, AST, query analysis, encoded IR |
//! | [`relstore`] | vertically-partitioned relational store + views |
//! | [`graphstore`] | budgeted graph store (per-predicate compressed sparse rows) + matcher |
//! | [`core`] | identifier, query processor, dual-store manager |
//! | [`dotil`] | the Q-learning tuner and baseline tuners |
//! | [`workloads`] | synthetic YAGO/WatDiv/Bio2RDF-like generators |
//! | [`exec`] | the batch runner: a concurrent executor over a shared-read store, tuning epochs between batches |

pub use kgdual_core as core;
pub use kgdual_dotil as dotil;
pub use kgdual_exec as exec;
pub use kgdual_graphstore as graphstore;
pub use kgdual_model as model;
pub use kgdual_relstore as relstore;
pub use kgdual_sparql as sparql;
pub use kgdual_workloads as workloads;

pub use kgdual_core::{identifier, processor, results};

/// The most commonly used types in one import.
pub mod prelude {
    pub use kgdual_core::batch::TuningSchedule;
    pub use kgdual_core::{
        identify, ComplexSubquery, DualDesign, DualStore, NoopTuner, PhysicalTuner, QueryOutcome,
        ResultSet, Route, TuningOutcome,
    };
    pub use kgdual_dotil::{
        Dotil, DotilConfig, FrequencyTuner, IdealTuner, OneOffTuner, ViewTuner,
    };
    pub use kgdual_exec::{
        BatchExecutor, ExecMode, ParallelBatchReport, ParallelRunner, SharedStore,
    };
    pub use kgdual_graphstore::{AdjacencyBackend, GraphBackend, GraphStore};
    pub use kgdual_model::{Dataset, DatasetBuilder, Dictionary, NodeId, PredId, Term, Triple};
    pub use kgdual_relstore::{Bindings, ExecContext, RelStore, ViewCatalog};
    pub use kgdual_sparql::{compile, parse, Compiled, EncodedQuery, Query, Var};
    pub use kgdual_workloads::{Bio2RdfGen, Template, WatDivFamily, WatDivGen, Workload, YagoGen};
}
