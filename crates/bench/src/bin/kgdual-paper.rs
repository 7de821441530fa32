//! **kgdual-paper** — the paper's §6 experiments as one report.
//!
//! ```text
//! kgdual-paper [--scale F] [--seed N] [--reps N] [--shards N] [--obs-out PATH]
//! kgdual-paper check
//! ```
//!
//! Run from the repository root. A plain run renders every experiment
//! declared in `kgdual_bench::report::EXPERIMENTS` and writes
//! `docs/paper_report.md` and `docs/baselines/deterministic.tsv`.
//! `check` reads scale, seed and reps from the committed TSV's header,
//! re-runs the report in memory (so every in-run assertion fires), and
//! prints each drifted, missing or extra cell by name; it exits non-zero
//! on any drift and writes nothing.

use kgdual_bench::report::{tsv::Tsv, Runs};
use kgdual_bench::BenchArgs;
use std::process::ExitCode;

const REPORT: &str = "docs/paper_report.md";
const TSV: &str = "docs/baselines/deterministic.tsv";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("check") if argv.len() == 1 => check(),
        Some("check") => Err(format!("check takes no flags: it reads them from {TSV}")),
        _ => write(BenchArgs::parse()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn write(args: BenchArgs) -> Result<ExitCode, String> {
    kgdual_bench::init_obs(&args);
    let mut runs = Runs::new(args.clone());
    let markdown = runs.markdown();
    let tsv = runs.tsv(|_| true);
    for (path, text) in [(REPORT, markdown), (TSV, tsv.render())] {
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("wrote {REPORT} and {TSV}, {}", args.describe());
    kgdual_bench::write_obs_profile(&args);
    Ok(ExitCode::SUCCESS)
}

fn check() -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(TSV).map_err(|e| format!("reading {TSV}: {e}"))?;
    let committed = Tsv::parse(&text).map_err(|e| format!("{TSV}: {e}"))?;
    let mut runs = Runs::new(committed.args.clone());
    runs.markdown();
    let drift = committed.diff(&runs.tsv(|_| true));
    if drift.is_empty() {
        let n = committed.rows.len();
        println!("OK: {TSV} unchanged ({n} rows)");
        return Ok(ExitCode::SUCCESS);
    }
    for line in &drift {
        println!("  {TSV}: {line}");
    }
    println!(
        "\nBASELINE DRIFT: {} cell(s) differ from {TSV}.",
        drift.len()
    );
    println!("If intended, regenerate with scripts/capture_baselines.sh and commit.");
    Ok(ExitCode::FAILURE)
}
