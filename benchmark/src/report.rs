//! The metric catalogue and the run's printed output.
//!
//! Names are final: later issues cite them verbatim, and `BENCHMARK.json`
//! lists exactly these (a test compares the two).

use crate::stats::{median, ns_to_us, percentile};
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, reported by every workload in a plain run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("tti_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in a `--trace` run; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("workloads.generate_s", "s"),
    ("model.triples", "count"),
    ("model.dict_nodes", "count"),
    ("core.build_s", "s"),
    ("relstore.warm_indexes_s", "s"),
    ("persist.save_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.snapshot_kb", "kB"),
    ("serve.rtt_p99_us", "us"),
    ("serve.proto_read_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.response_bytes_per_op", "B"),
    ("serve.residual_us", "us"),
    ("serve.residual_share", "ratio"),
    ("serve.max_pending", "count"),
    ("serve.rejected", "count"),
    ("sched.handoff_us", "us"),
    ("sched.tasks_per_op", "count"),
    ("sparql.parse_us", "us"),
    ("sparql.compile_us", "us"),
    ("core.identify_us", "us"),
    ("core.process_us.relational", "us"),
    ("core.process_us.graph", "us"),
    ("core.process_us.dual", "us"),
    ("core.route_share.relational", "ratio"),
    ("core.route_share.graph", "ratio"),
    ("core.route_share.dual", "ratio"),
    ("core.process_self_us", "us"),
    ("core.decode_us", "us"),
    ("core.sim_tti_ratio", "ratio"),
    ("relstore.execute_us", "us"),
    ("relstore.work_units_per_op", "count"),
    ("relstore.rows_scanned_per_op", "count"),
    ("relstore.index_probes_per_op", "count"),
    ("relstore.ns_per_work_unit", "ns"),
    ("relstore.insert_us", "us"),
    ("relstore.delete_us", "us"),
    ("relstore.read_after_write_us", "us"),
    ("relstore.read_steady_us", "us"),
    ("graphstore.execute_us", "us"),
    ("graphstore.work_units_per_op", "count"),
    ("graphstore.ns_per_work_unit", "ns"),
    ("graphstore.resident_triples", "count"),
    ("graphstore.budget_used_share", "ratio"),
    ("graphstore.insert_edge_us", "us"),
    ("graphstore.delete_edge_us", "us"),
    ("stores.exec_share", "ratio"),
    ("vec.batches_per_op", "count"),
    ("dotil.tune_s", "s"),
    ("dotil.tune_share", "ratio"),
    ("dotil.trainings", "count"),
    ("dotil.migrated_partitions", "count"),
    ("dotil.evicted_partitions", "count"),
    ("dotil.triples_in", "count"),
    ("dotil.offline_work_units", "count"),
    ("exec.batch_wall_ms", "ms"),
    ("exec.reconfigure_us", "us"),
    ("loadgen.client_us", "us"),
    ("obs.trace_overhead_pct", "%"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Values for the catalogue of the run's mode (missing names read 0).
    pub values: Values,
    /// Operations attempted in the measured repetitions plus checks made.
    pub attempted: u64,
    /// Non-200s, transport errors, refusals and verification mismatches.
    pub failed: u64,
    /// Printed context: configuration, sample counts, fingerprint.
    pub notes: Vec<(String, String)>,
}

impl RunOutput {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value of a note, if recorded.
    pub fn note_value(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The measured repetitions of a plain run. Every timing metric is the
/// median of the per-repetition readings (percentiles are nearest-rank within
/// a repetition), so one disturbed repetition moves nothing.
#[derive(Debug, Default)]
pub struct Reps {
    rates: Vec<f64>,
    ttis_s: Vec<f64>,
    p50s_us: Vec<f64>,
    p95s_us: Vec<f64>,
    samples: usize,
    ops: u64,
    cpu: Duration,
}

impl Reps {
    /// Record one repetition: `ops` operations in `wall_ns`, of which
    /// `tti_ns` count towards the paper's TTI, using `cpu` of process CPU
    /// time, with one latency sample per operation.
    pub fn push(
        &mut self,
        ops: u64,
        wall_ns: u64,
        tti_ns: u64,
        cpu: Duration,
        latencies_ns: &mut [u64],
    ) {
        self.rates.push(ops as f64 / (wall_ns as f64 / 1e9));
        self.ttis_s.push(tti_ns as f64 / 1e9);
        self.p50s_us.push(ns_to_us(percentile(latencies_ns, 0.50)));
        self.p95s_us.push(ns_to_us(percentile(latencies_ns, 0.95)));
        self.samples += latencies_ns.len();
        self.ops += ops;
        self.cpu += cpu;
    }

    /// Operations over all recorded repetitions.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Set the end-to-end timing metrics and the notes that qualify them.
    pub fn report(&self, out: &mut RunOutput) {
        out.attempted += self.ops;
        out.set("throughput_ops", median(&self.rates));
        out.set("tti_s", median(&self.ttis_s));
        out.set("op_p50_us", median(&self.p50s_us));
        out.set("op_p95_us", median(&self.p95s_us));
        out.set(
            "cpu_ms_per_op",
            self.cpu.as_secs_f64() * 1e3 / self.ops.max(1) as f64,
        );
        out.note("repetitions", self.rates.len());
        out.note(
            "ops_per_repetition",
            self.ops / self.rates.len().max(1) as u64,
        );
        out.note("latency_samples", self.samples);
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:.1}")).collect();
        out.note("repetition_throughput_ops", rates.join(" "));
    }
}

/// The catalogue a run in this mode must report.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Human-readable lines: notes, then one line per metric with its unit.
pub fn render_lines(out: &RunOutput, trace: bool) -> Vec<String> {
    let mut lines: Vec<String> = out.notes.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    lines.push(format!("ops_attempted: {}", out.attempted));
    lines.push(format!("ops_failed: {}", out.failed));
    for (name, unit) in catalogue(trace) {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        lines.push(format!("metric {name} = {} {unit}", number(value)));
    }
    lines
}

/// The result line the driver reads: one JSON object.
pub fn render_json(out: &RunOutput, trace: bool) -> String {
    let metrics: Vec<String> = catalogue(trace)
        .iter()
        .map(|(name, unit)| {
            let value = out.values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every measured digit (never `NaN`/`inf`).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn json_line_lists_exactly_the_modes_catalogue() {
        let mut out = RunOutput::default();
        out.set("setup_s", 0.5);
        out.attempted = 10;
        let plain = render_json(&out, false);
        assert!(plain.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(plain.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!plain.contains("dotil.tune_s"));
        let traced = render_json(&out, true);
        assert!(traced.contains("\"dotil.tune_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!traced.contains("\"setup_s\""));
        out.failed = 1;
        assert!(render_json(&out, false).contains("\"correct\": false"));
    }
}
