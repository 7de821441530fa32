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
//! are the three [`Policy`] values of [`process`] over one [`DualStore`]:
//! `RDB-only` (`RelationalOnly`), `RDB-views` (`ViewAssisted`) and
//! `RDB-GDB` (`Routed`). [`persist`] checkpoints the learned design (and
//! the tuner's trained state) so a restarted store resumes where it left
//! off instead of re-paying the Fig 6 cold start.

pub mod batch;
pub mod dual;
pub mod error;
pub mod identifier;
pub mod persist;
pub mod processor;
pub mod results;
pub mod tuner;

pub use dual::{DualDesign, DualStore, GraphView};
pub use error::CoreError;
pub use identifier::{identify, ComplexSubquery};
pub use persist::{restore_checkpoint, save_checkpoint, RestoreReport};
pub use processor::{process, Options, Policy, QueryOutcome, Route};
// Kept only because kgbench links them; ROADMAP 14(c) deletes them.
pub use processor::{process_relational, process_shared};
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
