//! `docs/baselines/deterministic.tsv`: its format, its parser, and the
//! named diff `kgdual-paper check` reports drift with.
//!
//! Each row pins one run's exact operator counts — total work units,
//! simulated TTI in nanoseconds, result rows — keyed by workload and
//! variant. The first header line pins the run parameters, so a check
//! re-runs at exactly the captured scale, seed and reps.

use crate::args::BenchArgs;
use kgdual_exec::{ParallelBatchReport, ParallelRunner};
use std::collections::HashSet;
use std::time::Duration;

const TITLE: &str = "# kgdual deterministic baseline:";
const COLUMNS: [&str; 5] = [
    "workload",
    "variant",
    "total_work",
    "sim_tti_ns",
    "result_rows",
];

/// A parsed or freshly computed deterministic TSV.
#[derive(Clone, Debug)]
pub struct Tsv {
    /// The run parameters the header pins (scale, seed, reps).
    pub args: BenchArgs,
    /// Column names, from the second header line.
    pub columns: Vec<String>,
    /// Data rows, one field per column; the first two are the key.
    pub rows: Vec<Vec<String>>,
}

impl Tsv {
    /// An empty table for runs at `args`.
    pub fn new(args: &BenchArgs) -> Self {
        Tsv {
            args: args.clone(),
            columns: COLUMNS.map(str::to_owned).to_vec(),
            rows: Vec::new(),
        }
    }

    /// Append the totals of one run's batch reports.
    pub fn push(&mut self, workload: &str, variant: &str, reports: &[ParallelBatchReport]) {
        let work = ParallelRunner::total_work(reports);
        let sim_tti = ParallelRunner::total_sim_tti(reports);
        let rows = reports.iter().map(|b| b.result_rows).sum();
        self.push_row(workload, variant, work, sim_tti, rows);
    }

    /// Append one row.
    pub fn push_row(
        &mut self,
        workload: &str,
        variant: &str,
        total_work: u64,
        sim_tti: Duration,
        result_rows: u64,
    ) {
        self.rows.push(vec![
            workload.to_owned(),
            variant.to_owned(),
            total_work.to_string(),
            sim_tti.as_nanos().to_string(),
            result_rows.to_string(),
        ]);
    }

    /// The file's text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{TITLE} scale={} seed={} reps={} order=ordered\n# {}\n",
            self.args.scale,
            self.args.seed,
            self.args.reps,
            self.columns.join("\t")
        );
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Parse the file's text. The header's parameters go through
    /// [`BenchArgs::parse_from`], so a malformed value is an error, not a
    /// silent default.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let params = lines
            .next()
            .and_then(|l| l.strip_prefix(TITLE))
            .ok_or_else(|| format!("first line must start with `{TITLE}`"))?;
        let mut flags = Vec::new();
        for key in ["scale", "seed", "reps"] {
            let value = params
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("header does not pin {key}"))?;
            flags.extend([format!("--{key}"), value.to_owned()]);
        }
        let args = BenchArgs::parse_from(flags).map_err(|e| format!("header: {e}"))?;
        let columns: Vec<String> = lines
            .next()
            .and_then(|l| l.strip_prefix("# "))
            .ok_or("second line must name the columns")?
            .split('\t')
            .map(str::to_owned)
            .collect();
        let mut rows = Vec::new();
        for line in lines.filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let row: Vec<String> = line.split('\t').map(str::to_owned).collect();
            if row.len() != columns.len() || row.len() < 2 {
                return Err(format!("malformed row `{line}`"));
            }
            rows.push(row);
        }
        Ok(Tsv {
            args,
            columns,
            rows,
        })
    }

    /// Every difference between this (committed) table and `fresh`, one
    /// line each, named by cell: `YAGO/RDB-GDB: sim_tti_ns 4336670 ->
    /// 4336671`, `…: missing from fresh output`, `…: only in fresh
    /// output`.
    pub fn diff(&self, fresh: &Tsv) -> Vec<String> {
        if self.columns != fresh.columns {
            return vec![format!(
                "columns: {} -> {}",
                self.columns.join(","),
                fresh.columns.join(",")
            )];
        }
        let key = |r: &Vec<String>| format!("{}/{}", r[0], r[1]);
        let mut out = Vec::new();
        for base in &self.rows {
            let k = key(base);
            let Some(got) = fresh.rows.iter().find(|r| key(r) == k) else {
                out.push(format!("{k}: missing from fresh output"));
                continue;
            };
            for ((name, was), now) in self.columns.iter().zip(base).zip(got).skip(2) {
                if was != now {
                    out.push(format!("{k}: {name} {was} -> {now}"));
                }
            }
        }
        let committed: HashSet<String> = self.rows.iter().map(key).collect();
        for row in &fresh.rows {
            if !committed.contains(&key(row)) {
                out.push(format!("{}: only in fresh output", key(row)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = "\
# kgdual deterministic baseline: scale=0.002 seed=42 reps=2 order=ordered
# workload\tvariant\ttotal_work\tsim_tti_ns\tresult_rows
YAGO\tRDB-only\t564869\t28243450\t2932
YAGO\tRDB-GDB\t261673\t4336670\t2932
WatDiv\tRDB-only\t515347\t25767350\t7428
";

    #[test]
    fn parses_header_parameters_and_rows() {
        let tsv = Tsv::parse(COMMITTED).unwrap();
        assert_eq!(
            (tsv.args.scale, tsv.args.seed, tsv.args.reps),
            (0.002, 42, 2)
        );
        assert_eq!(tsv.columns, COLUMNS);
        assert_eq!(tsv.rows.len(), 3);
        assert_eq!(tsv.render(), COMMITTED, "render is parse's inverse");
    }

    #[test]
    fn malformed_header_values_are_errors() {
        let bad = COMMITTED.replace("scale=0.002", "scale=0,002");
        let e = Tsv::parse(&bad).unwrap_err();
        assert!(e.contains("--scale"), "{e}");
        let e = Tsv::parse(&COMMITTED.replace(" reps=2", "")).unwrap_err();
        assert!(e.contains("reps"), "{e}");
    }

    #[test]
    fn diff_names_changed_missing_and_extra_cells() {
        let base = Tsv::parse(COMMITTED).unwrap();
        assert!(base.diff(&base).is_empty());
        let mut fresh = base.clone();
        fresh.rows[1][3] = "4336671".to_owned();
        fresh.rows.remove(2);
        fresh
            .rows
            .push(["YAGO", "LRU", "1", "2", "3"].map(str::to_owned).to_vec());
        assert_eq!(
            base.diff(&fresh),
            [
                "YAGO/RDB-GDB: sim_tti_ns 4336670 -> 4336671",
                "WatDiv/RDB-only: missing from fresh output",
                "YAGO/LRU: only in fresh output",
            ]
        );
    }
}
