//! # kgdual-relstore
//!
//! The relational-store substrate of the dual-store structure — the stand-in
//! for the paper's MySQL deployment.
//!
//! Layout follows the paper's partitioning model: one two-column
//! `(subject, object)` table per predicate (vertical partitioning), which
//! makes the *triple partition* the natural unit both of storage and of the
//! tuner's physical design. [`RelStore`] keeps its tables in one vector,
//! ascending by predicate.
//!
//! The executor reproduces the relational behaviour the paper's argument
//! rests on: multi-pattern (complex) queries are answered by full partition
//! scans feeding hash joins, so latency grows with the size of the scanned
//! partitions; low-selectivity bound patterns use sorted permutation
//! indexes, mirroring a real RDBMS optimizer's index-vs-scan cliff. A
//! query runs on its caller's thread, as a MySQL query runs on one thread.
//!
//! Each table's two sorted indexes are [`SortedRuns`] ([`runs`]): CSR
//! runs that the graph store reads in place for a resident partition, so
//! the graph store holds no edge arrays of its own.
//!
//! This crate also hosts the execution primitives shared with the graph
//! store ([`exec`]): columnar bindings, execution statistics (whose IO
//! and CPU shares the paper's Table 6 / Figure 7 experiments price), and
//! the work limit that stops DOTIL's counterfactual runs at `λ · c1`.
//!
//! Finally, [`views`] implements the `RDB-views` baseline: a
//! frequency-based materialized-view advisor over generalized complex
//! subqueries, with exact-match rewriting.

pub mod exec;
pub mod planner;
pub mod runs;
pub mod store;
pub mod table;
pub mod views;

pub use exec::{Bindings, ExecContext, ExecError, ExecStats, ResourceGovernor};
pub use planner::PlannerConfig;
pub use runs::{CsrView, SortedRuns};
pub use store::RelStore;
pub use table::PredTable;
pub use views::{MatView, RebuildReport, ViewCatalog};

/// Kept only because kgbench links it (`benchmark/src/sut.rs`) and passes
/// it to `kgdual_core::process_shared`, which ignores it. The §3.3
/// temporary table space is a local of the query that needs it (see
/// `kgdual_core::processor`). ROADMAP 14(c) deletes it.
#[derive(Debug, Default)]
pub struct TempSpace;
