//! # kgdual-graphstore
//!
//! The native graph-store substrate of the dual-store structure — the
//! stand-in for the paper's Neo4j deployment.
//!
//! Three properties of Neo4j carry the paper's argument, and all three are
//! reproduced here:
//!
//! 1. **Adjacency lookups cost the traversal range** ([`store`]): every
//!    resident partition is the relational table's own forward and
//!    reverse compressed sparse rows ([`kgdual_relstore::SortedRuns`],
//!    shared behind an `Arc`), so a node's neighbours under one predicate
//!    are a binary search plus a slice, and traversal cost is proportional to the
//!    traversal range (candidate edges × degrees), not to the total graph
//!    size. Complex queries are answered by a frontier matcher
//!    ([`matcher`]) that extends bindings a bounded morsel at a time
//!    through those rows and closes cycles by intersecting sorted rows —
//!    no whole intermediate relation is ever materialized.
//! 2. **A hard storage budget** (`B_G`): the store refuses to load a
//!    partition that would exceed its configured triple budget, mirroring
//!    the storage constraints the paper cites for native graph databases.
//! 3. **Costly imports**: bulk-loading a partition and single-edge updates
//!    are charged a per-triple import cost, reflecting Neo4j's cumbersome
//!    importing process. The dual store performs migrations in the offline
//!    tuning phase precisely because of this.
//!
//! [`GraphStore`] (alias [`AdjacencyBackend`]) implements
//! [`backend::GraphBackend`], the contract the rest of the system uses
//! (budget accounting, partition load/evict, edge insert/delete, pattern
//! execution), and exposes the sorted-rows/statistics view the matcher
//! traverses ([`kgdual_relstore::CsrView`], whose module states the
//! cost-parity and enumeration-order contracts). The matcher derives
//! every work charge from reported sizes, so work units — and with them DOTIL's learned designs
//! and every deterministic harness metric — depend on the logical store
//! content only.

pub mod backend;
pub mod matcher;
pub mod store;

pub use backend::GraphBackend;
pub use store::{AdjacencyBackend, GraphExecError, GraphStore, GraphStoreError, ImportStats};
