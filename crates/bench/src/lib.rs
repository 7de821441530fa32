//! # kgdual-bench
//!
//! The benchmark harness: the paper's evaluation (§6) as one report,
//! EXPLAIN profiles, a served store, and criterion microbenches for the
//! substrates. Wall-clock serving and tracing costs are measured by
//! kgbench (`benchmark/`), not here.
//!
//! | Binary | Produces |
//! |---|---|
//! | `kgdual-paper` | `docs/paper_report.md` (Table 1, Figures 3–8, Tables 5–6) and `docs/baselines/deterministic.tsv`; `kgdual-paper check` drift-checks the TSV |
//! | `kgdual-explain` | `docs/baselines/explain_profile.json`, EXPLAIN ANALYZE profiles of the YAGO query pool; `kgdual-explain check` drift-checks it |
//! | `serve_store` | a served YAGO store, until SIGTERM or `POST /shutdown` |
//!
//! The experiments are declared once, in [`report::EXPERIMENTS`]; each
//! distinct run is memoised by its cell key, so every figure and the TSV
//! are views over the same results.
//!
//! Every binary accepts `--scale <fraction-of-paper-size>`, `--seed <u64>`
//! and `--reps <n>`; a malformed value is an error naming the flag.
//! Paper-scale runs are possible but the defaults are sized for seconds.
//! `--threads <n>` (env default `KGDUAL_THREADS`) sizes the worker pool
//! the batches run on, which moves wall clock only.
//! All common flags are parsed once, in [`args::BenchArgs`], which
//! rejects an unknown flag; binaries print their configuration through
//! [`args::BenchArgs::describe`].

pub mod args;
pub mod experiments;
pub mod explain;
pub mod obs;
pub mod report;
pub mod serve_load;
pub mod setup;
pub mod table;

pub use args::BenchArgs;
pub use experiments::{
    run_restart_comparison, run_variant, RestartColumn, VariantKind, VariantResult, WorkloadKind,
};
pub use obs::{init_obs, write_obs_profile};
pub use setup::{build_batches, build_dataset, build_workload, Order};
pub use table::TablePrinter;
