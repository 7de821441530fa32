//! `kgbench` command line: one workload per invocation.
//!
//! ```text
//! kgbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! Prints context and one line per metric, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero when the run could not be made.

use kgbench::{report, Plan, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: kgbench --workload <serve_point|serve_mixed|batch_adaptive|update_mixed> \
[--seed N] [--seconds S] [--trace [0|1]] [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Plan, String> {
    let mut plan = Plan {
        workload: Workload::ServePoint,
        seed: 42,
        seconds: 20.0,
        trace: false,
        sizes: Sizes::full(),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                plan.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                plan.seconds = value("--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--out-dir" => plan.out_dir = PathBuf::from(value("--out-dir")?),
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                plan.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    plan.workload = workload.ok_or("--workload is required")?;
    Ok(plan)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse_args(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("kgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match kgbench::run(&plan) {
        Ok(out) => {
            for line in report::render_lines(&out, plan.trace) {
                println!("{line}");
            }
            println!("{}", report::render_json(&out, plan.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kgbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
