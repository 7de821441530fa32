//! # kgdual-exec
//!
//! Concurrent batch execution for the dual store — the "serve heavy
//! traffic as fast as the hardware allows" layer on top of
//! `kgdual-core`'s query processor.
//!
//! The paper evaluates the dual store on batch TTI ("the total elapsed
//! time from a batch of workload submission to completion") with tuning
//! confined to offline phases between batches. That phase separation is a
//! concurrency model in disguise:
//!
//! * **One worker pool for everything.** All concurrent work — query
//!   tasks and DOTIL's offline counterfactual runs (a graph run and a
//!   relational run per cost pair) — runs on a single FIFO
//!   [`kgdual_sched::Scheduler`]. [`BatchExecutor`] submits `Query`
//!   tasks, and [`ParallelRunner`] hands the same pool to the tuner
//!   inside each epoch barrier, where it submits `OfflineTuning` tasks.
//!   Each query runs on one worker, as one MySQL query runs on one
//!   thread. Total live threads are bounded by the pool size.
//! * **Shared-read online phase** — the physical design `D = ⟨T_R, T_G⟩`
//!   is immutable while a batch runs, so any number of worker threads can
//!   execute queries against one `&DualStore` simultaneously. Each query
//!   task owns its execution contexts and its §3.3 temporary table space
//!   (a local of the query); nothing online is shared mutable.
//! * **Exclusive reconfiguration epoch** — between batches the
//!   [`PhysicalTuner`](kgdual_core::PhysicalTuner) migrates/evicts
//!   partitions under a write lock ([`SharedStore::reconfigure`]), which
//!   by construction waits for every in-flight query. Each
//!   reconfiguration advances the store's **epoch**. The query workers
//!   are idle for exactly that window, so the runner passes the
//!   scheduler into [`PhysicalTuner::tune_with`] and DOTIL runs each
//!   cost pair's graph and relational sides over them as two
//!   `OfflineTuning` tasks, a whole wave of covered shapes at once —
//!   without changing a single decision (see the determinism contract on
//!   `tune_with`).
//! * **Post-batch aggregation** — per-query [`ExecStats`] merge into
//!   batch totals that are *exactly* the serial sums, so DOTIL's
//!   Q-matrix updates (and every deterministic metric of the harness)
//!   are thread-count-invariant. Only wall-clock TTI changes with
//!   `--threads`: that is the measured parallel speedup.
//!
//! [`ExecStats`]: kgdual_relstore::ExecStats
//! [`PhysicalTuner::tune_with`]: kgdual_core::PhysicalTuner::tune_with
//!
//! ```
//! use kgdual_exec::{BatchExecutor, ParallelRunner, SharedStore};
//! use kgdual_core::batch::TuningSchedule;
//! use kgdual_core::{DualStore, NoopTuner};
//! use kgdual_model::{DatasetBuilder, Term};
//! use kgdual_sparql::parse;
//!
//! let mut b = DatasetBuilder::new();
//! b.add_terms(&Term::iri("y:E"), "y:bornIn", &Term::iri("y:Ulm"));
//! let store = SharedStore::new(DualStore::from_dataset(b.build(), 100));
//!
//! let batch = vec![parse("SELECT ?p WHERE { ?p y:bornIn ?c }").unwrap(); 4];
//! let report = BatchExecutor::new(2).execute_batch(&store, &batch);
//! assert_eq!(report.errors, 0);
//! assert_eq!(report.result_rows, 4);
//!
//! // Multi-batch with tuning epochs between batches:
//! let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(2));
//! let reports = runner.run(&store, &mut NoopTuner, &[batch]);
//! assert_eq!(reports.len(), 1);
//! ```

pub mod executor;
mod obs;
pub mod runner;
pub mod shared;

pub use executor::{results_digest, BatchExecutor, ParallelBatchReport};
pub use runner::ParallelRunner;
pub use shared::{SchedShardDispatch, SharedStore};

// The scheduling vocabulary is part of this crate's API surface
// (executors share pools, stats assert on task classes), so re-export it
// alongside the executors.
pub use kgdual_sched::{SchedStats, Scheduler, TaskClass};
