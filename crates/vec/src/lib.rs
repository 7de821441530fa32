//! # kgdual-vec
//!
//! Vectorized batch execution for the dual-store stack: the MonetDB/X100
//! move from row-at-a-time operators to fixed-size column batches, plus
//! the small Selinger-style cost model both substrates plan with.
//!
//! These live here, deliberately below every store crate so both
//! `kgdual-relstore` and `kgdual-graphstore` can share them:
//!
//! * [`batch`] — the batch kernel: a tight gather loop that turns a chunk
//!   of `(subject, object)` pairs (a relational partition's pair run)
//!   into contiguous binding cells in one pass, with selection
//!   (constant filters, self-loop equality) applied inside the loop, and
//!   [`BATCH`], the chunk size both stores charge and poll at (the graph
//!   matcher's morsels included).
//! * [`cost`] — the cost model: bound-pattern cardinalities, the
//!   index-vs-scan access-path rule, the index-nested-loop threshold and
//!   the hash-join build-side choice, fed **only** from the [`cost::Card`]
//!   statistics both stores read off their sorted runs. The store planners
//!   delegate here, so the relational and graph substrates price
//!   patterns with one shared formula set.
//! * [`plan`] — the `EXPLAIN` plan and profile types both planners fill.
//!
//! ## The determinism contract
//!
//! The batched operators are the relational store's only executor. They
//! charge work from reported sizes (scan charges per 4096-row chunk,
//! probe/hash/join charges summed per batch) and emit rows in a fixed
//! order, so digests, row order under LIMIT, work units, simulated TTI,
//! routes, and DOTIL trails are identical across thread counts. Every
//! charge polls the work limit, and work only grows, so a λ-cutoff run
//! (DOTIL's counterfactual, `ExecContext::work_limit`) is cut off if and
//! only if the work it charges while executing reaches the limit (the
//! result-row charge lands after the last poll); where inside a batch it
//! stops is never read.
//!
//! Batched paths additionally bump an always-on relaxed counter
//! ([`batches_emitted`]) — one atomic add per 4096-row batch — so tests
//! and `kgbench` can see the batch kernels ran; the distributional view
//! (per-operator batch-size histograms) is obs-gated in [`obs`].

pub mod batch;
pub mod cost;
pub mod obs;
pub mod plan;

pub use batch::{gather_pairs, EmitSrc, BATCH};
pub use obs::{vec_obs, VecObs};
pub use plan::{OpKind, OpProfile, PlanDesc, PlanStep, QueryProfile};

use std::sync::atomic::{AtomicU64, Ordering};

static SCAN_BATCHES: AtomicU64 = AtomicU64::new(0);
static JOIN_BATCHES: AtomicU64 = AtomicU64::new(0);

/// Total batches emitted by vectorized operators since process start
/// (scan gathers + join build/probe batches). Always counted — one
/// relaxed add per ~4096 rows — so tests can assert the batch kernels
/// really executed. Monotonic; never reset.
pub fn batches_emitted() -> u64 {
    SCAN_BATCHES.load(Ordering::Relaxed) + JOIN_BATCHES.load(Ordering::Relaxed)
}

/// Record one vectorized scan gather of `rows` emitted rows.
pub fn note_scan_batch(rows: usize) {
    SCAN_BATCHES.fetch_add(1, Ordering::Relaxed);
    vec_obs().scan_batch_rows.record(rows as u64);
    vec_obs().scan_batches.inc();
}

/// Record one vectorized hash-join (or index-nested-loop) batch that
/// produced `rows` output rows.
pub fn note_join_batch(rows: usize) {
    JOIN_BATCHES.fetch_add(1, Ordering::Relaxed);
    vec_obs().join_batch_rows.record(rows as u64);
    vec_obs().join_batches.inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_counter_is_monotonic() {
        let before = batches_emitted();
        note_scan_batch(10);
        note_join_batch(3);
        assert!(batches_emitted() >= before + 2);
    }
}
