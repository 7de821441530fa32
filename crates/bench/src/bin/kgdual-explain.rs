//! **kgdual-explain** — EXPLAIN ANALYZE profiles of the YAGO query pool
//! against a DOTIL-tuned store.
//!
//! ```text
//! kgdual-explain [--scale F] [--seed N] [--threads N] [--obs-out PATH]
//! kgdual-explain check
//! ```
//!
//! Run from the repository root. A plain run writes
//! `docs/baselines/explain_profile.json` (see `kgdual_bench::explain`)
//! and prints every query's operator tree — estimates, actuals and
//! q-errors — to stderr. `check` reads scale, seed and threads from the
//! committed file's `meta`, re-runs the profile in memory and
//! prints each query whose text, route or plan drifted, and the old and
//! new `plan_digest`; it exits non-zero on any drift and writes nothing.

use kgdual_bench::{explain, BenchArgs};
use kgdual_serve::json;
use std::process::ExitCode;

const PROFILE: &str = "docs/baselines/explain_profile.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("check") if argv.len() == 1 => check(),
        Some("check") => Err(format!(
            "check takes no flags: it reads them from {PROFILE}"
        )),
        _ => write(BenchArgs::parse()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn write(args: BenchArgs) -> Result<ExitCode, String> {
    kgdual_bench::init_obs(&args);
    let profile = explain::profile(&args);
    eprint!("{}", profile.trees);
    std::fs::write(PROFILE, profile.json).map_err(|e| format!("writing {PROFILE}: {e}"))?;
    println!("wrote {PROFILE}, {}", args.describe());
    kgdual_bench::write_obs_profile(&args);
    Ok(ExitCode::SUCCESS)
}

fn check() -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(PROFILE).map_err(|e| format!("reading {PROFILE}: {e}"))?;
    let committed = json::parse(&text).map_err(|e| format!("{PROFILE}: {e}"))?;
    let args = explain::args_of(&committed).map_err(|e| format!("{PROFILE}: {e}"))?;
    let fresh = json::parse(&explain::profile(&args).json).expect("a profile is valid JSON");
    let drift = explain::diff(&committed, &fresh);
    if drift.is_empty() {
        let n = committed
            .get("queries")
            .and_then(json::Json::as_arr)
            .map_or(0, <[_]>::len);
        println!("OK: {PROFILE} unchanged ({n} queries)");
        return Ok(ExitCode::SUCCESS);
    }
    for line in &drift {
        println!("  {PROFILE}: {line}");
    }
    println!(
        "\nEXPLAIN DRIFT: {} difference(s) from {PROFILE}.",
        drift.len()
    );
    println!(
        "If intended, regenerate with `kgdual-explain --scale {} --seed {} --threads {}` \
         and commit.",
        args.scale, args.seed, args.threads
    );
    Ok(ExitCode::FAILURE)
}
