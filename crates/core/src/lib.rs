//! # kgdual-core
//!
//! The paper's primary contribution: the **dual-store structure** for
//! knowledge graphs (§3). A relational store holds the entire graph; a
//! budget-constrained native graph store holds the share of triple
//! partitions worth accelerating; three components glue them together:
//!
//! * [`identifier`] — the *complex subquery identifier* (§3.1): marks the
//!   subqueries whose subject and object variables both occur more than
//!   once in the query.
//! * [`processor`] — the *query processor* (§5, Algorithm 3): routes a
//!   query to one store or spans both, migrating intermediate results
//!   through the temporary relational table space.
//! * [`dual`] — the dual-store manager: physical design `D = ⟨T_R, T_G⟩`,
//!   partition migration/eviction, and update propagation.
//!
//! The *dual-store tuner* (§4) lives in the `kgdual-dotil` crate and plugs
//! in through the [`tuner::PhysicalTuner`] trait; [`batch`] names when it
//! runs relative to the batches (`kgdual-exec`'s runner drives them,
//! measuring time-to-insight and tuning in the offline phase between
//! batches, exactly as §4.2 prescribes). The paper's three store variants
//! are three entry points of [`processor`] over one [`DualStore`]:
//! `RDB-only` ([`process_relational`]), `RDB-views`
//! ([`process_with_views`]) and `RDB-GDB` ([`process`]). [`persist`]
//! checkpoints the learned design (and the tuner's trained state) so a
//! restarted store resumes where it left off instead of re-paying the
//! Fig 6 cold start.

pub mod batch;
pub mod dual;
pub mod error;
pub mod identifier;
pub mod persist;
pub mod processor;
pub mod results;
pub mod tuner;

pub use dual::{DualDesign, DualStore};
pub use error::CoreError;
pub use identifier::{identify, ComplexSubquery};
pub use persist::{restore_checkpoint, save_checkpoint, RestoreReport};
pub use processor::{
    process, process_relational, process_shared, process_shared_explain, process_with_views,
};
pub use processor::{QueryOutcome, Route};
pub use results::ResultSet;
pub use tuner::{NoopTuner, PhysicalTuner, TuningOutcome};

// The worker pool tuners may fan offline work onto (see
// [`PhysicalTuner::tune_with`]); re-exported so downstream crates name
// one coherent scheduling vocabulary through `kgdual_core`.
pub use kgdual_sched::{Scheduler, TaskClass};

// The batch-kernel crate both executors run on, re-exported so embedders
// can name the `EXPLAIN` types a `QueryOutcome` carries
// (`vec::PlanDesc`, `vec::QueryProfile`) through `kgdual_core`.
pub use kgdual_vec as vec;
