//! Regression check against the committed deterministic baselines.
//!
//! `docs/baselines/deterministic.tsv` (written by `kgdual-paper`, checked
//! in full by `kgdual-paper check`) pins the exact work units, simulated
//! TTI, and result rows of every workload/variant pair at a fixed
//! scale/seed. This test re-derives the YAGO rows — the cheapest workload,
//! with every store variant and tuner exercising distinct code paths —
//! through the report's own memo, TSV parser and diff, so an accidental
//! behaviour change in the planner, executor, router, or tuner flags on
//! every `cargo test` instead of waiting for the full check.

use kgdual_bench::report::{tsv::Tsv, Runs};

#[test]
fn yago_totals_match_committed_baseline() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/baselines/deterministic.tsv"
    );
    let text = std::fs::read_to_string(path).expect("committed baseline TSV must exist");
    let mut committed = Tsv::parse(&text).expect("committed baseline TSV parses");
    committed.rows.retain(|r| r[0] == "YAGO");
    assert!(
        committed.rows.len() >= 3,
        "baseline must cover the three store variants on YAGO"
    );

    let fresh = Runs::new(committed.args.clone()).tsv(|workload| workload == "YAGO");
    let drift = committed.diff(&fresh);
    assert!(
        drift.is_empty(),
        "YAGO totals drifted from docs/baselines/deterministic.tsv — if intended, \
         regenerate with scripts/capture_baselines.sh:\n{}",
        drift.join("\n")
    );
}
