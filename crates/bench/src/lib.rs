//! # kgdual-bench
//!
//! The benchmark harness: the paper's evaluation (§6) as one report,
//! the serving and observability benches, EXPLAIN profiles, and
//! criterion microbenches for the substrates.
//!
//! | Binary | Produces |
//! |---|---|
//! | `kgdual-paper` | `docs/paper_report.md` (Table 1, Figures 3–8, Tables 5–6) and `docs/baselines/deterministic.tsv`; `kgdual-paper check` drift-checks the TSV |
//! | `kgdual-explain` | EXPLAIN ANALYZE profiles of the YAGO query pool |
//! | `bench_obs` | the observability overhead gate |
//! | `serve_store` / `bench_serve` | a served store and its load generator |
//!
//! The experiments are declared once, in [`report::EXPERIMENTS`]; each
//! distinct run is memoised by its cell key, so every figure and the TSV
//! are views over the same results.
//!
//! Every binary accepts `--scale <fraction-of-paper-size>`, `--seed <u64>`
//! and `--reps <n>`; a malformed value is an error naming the flag.
//! Paper-scale runs are possible but the defaults are sized for seconds.
//! `--shards <n>` (env default `KGDUAL_SHARDS`) shards the relational
//! store by predicate, which is invisible in the deterministic metrics by
//! construction — it changes wall clock and intra-query parallelism only.
//! All common flags are parsed once, in [`args::BenchArgs`]; binaries
//! print their configuration through [`args::BenchArgs::describe`].

pub mod args;
pub mod experiments;
pub mod obs;
pub mod report;
pub mod serve_load;
pub mod setup;
pub mod table;

pub use args::BenchArgs;
pub use experiments::{
    run_restart_comparison, run_variant, RestartColumn, SharedDotil, VariantKind, VariantResult,
    WorkloadKind,
};
pub use obs::{init_obs, write_obs_profile};
pub use setup::{build_batches, build_dataset, build_workload, Order};
pub use table::TablePrinter;
