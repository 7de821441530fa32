//! # kgdual-model
//!
//! Foundation types for the `kgdual` dual-store knowledge-graph system:
//!
//! * [`Term`] — RDF terms (IRIs, literals, blank nodes).
//! * [`Dictionary`] — two-way string interning that maps terms to dense
//!   integer ids ([`NodeId`] for subjects/objects, [`PredId`] for
//!   predicates). Every store in the workspace operates on encoded ids;
//!   strings only appear at the API boundary.
//! * [`Triple`] — a dictionary-encoded edge `(s, p, o)`.
//! * [`TriplePartition`] / [`PartitionSet`] — the unit of physical design in
//!   the paper: the set of triples sharing one predicate (§3.2).
//! * [`Dataset`] — an encoded knowledge graph: dictionary + partitions,
//!   both behind `Arc`s, so the stores built from it share one copy.
//! * [`fx`] — a fast, non-cryptographic hasher used for the id-keyed hash
//!   maps on every hot path (the default SipHash is needlessly slow for
//!   dense integer keys).
//! * [`design`] — the versioned section container that design snapshots
//!   (persisted physical designs + tuner state, see `kgdual-core`) are
//!   encoded in, sibling to the dataset [`snapshot`] format.
//!
//! The crate is deliberately free of any query or storage logic; it is the
//! shared vocabulary of the workspace.

pub mod dataset;
pub mod design;
pub mod dict;
pub mod error;
pub mod fx;
pub mod ids;
pub mod partition;
pub mod snapshot;
pub mod term;
pub mod triple;

pub use dataset::{Dataset, DatasetBuilder, DatasetStats};
pub use design::{DesignError, DESIGN_MAGIC, DESIGN_VERSION};
pub use dict::Dictionary;
pub use error::ModelError;
pub use fx::{FxHashMap, FxHashSet};
pub use ids::{NodeId, PredId};
pub use partition::{PartitionSet, SharedPairs, TriplePartition};
pub use snapshot::{decode as decode_snapshot, encode as encode_snapshot, SnapshotError};
pub use term::Term;
pub use triple::Triple;
