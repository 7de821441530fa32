//! # kgdual-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation (§6), plus criterion microbenches for the substrates.
//!
//! | Regenerator binary | Paper artifact |
//! |---|---|
//! | `table1_store_comparison` | Table 1 — MySQL vs Neo4j latency by data size |
//! | `fig3_fig4_batches` | Figures 3 & 4 — per-batch TTI by store variant |
//! | `fig5_totals` | Figure 5 — total TTI per workload |
//! | `table5_param_tuning` | Table 5 — DOTIL parameter sweep |
//! | `fig6_cold_start` | Figure 6 — graph-store cost share per batch |
//! | `table6_resource_slowdown` | Table 6 — slowdown under limited spare IO/CPU |
//! | `fig7_resource_consumption` | Figure 7 — IO/CPU consumed over time |
//! | `fig8_tuner_comparison` | Figure 8 — DOTIL vs one-off vs LRU vs ideal |
//! //!
//! Every binary accepts `--scale <fraction-of-paper-size>`, `--seed <u64>`
//! and `--reps <n>`; paper-scale runs are possible but the defaults are
//! sized for minutes, not hours. The workload binaries additionally take
//! `--shards <n>` (env default `KGDUAL_SHARDS`) to shard the relational
//! store by predicate, which is invisible in the deterministic metrics by
//! construction — it changes wall clock and intra-query parallelism only.
//! All common flags are parsed once, in [`args::BenchArgs`]; binaries
//! print their configuration through [`args::BenchArgs::describe`].

pub mod args;
pub mod experiments;
pub mod obs;
pub mod serve_load;
pub mod setup;
pub mod table;

pub use args::BenchArgs;
pub use experiments::{
    run_parallel_comparison, run_restart_comparison, run_variant_comparison, ParallelTti,
    RestartColumn, SharedDotil, VariantKind, WorkloadKind,
};
pub use obs::{init_obs, write_obs_profile};
pub use setup::{build_batches, build_dataset, build_workload};
pub use table::TablePrinter;
