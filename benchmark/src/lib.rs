//! `kgbench` — end-to-end and per-layer benchmark of the kgdual dual store.
//!
//! See `README.md` for the workload and metric catalogue. The crate is a
//! standalone package (own `[workspace]`), so the repository's workspace,
//! CI and tier-1 tests never build it.

pub mod client;
pub mod fixture;
pub mod layers;
pub mod ops;
pub mod reference;
pub mod report;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;

use report::RunOutput;
use std::path::PathBuf;

/// The four workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    ServePoint,
    ServeMixed,
    BatchAdaptive,
    UpdateMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServePoint,
        Workload::ServeMixed,
        Workload::BatchAdaptive,
        Workload::UpdateMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePoint => "serve_point",
            Workload::ServeMixed => "serve_mixed",
            Workload::BatchAdaptive => "batch_adaptive",
            Workload::UpdateMixed => "update_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Work per repetition and data sizes. Fixed op counts, never durations, so
/// every count repeats exactly for a seed.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Target triples of the served / updated store.
    pub small_triples: usize,
    /// Target triples of the `batch_adaptive` store.
    pub large_triples: usize,
    /// `serve_point`: requests per repetition, per client.
    pub point_requests: usize,
    /// `serve_point` and `update_mixed`: persons the Zipf subject popularity
    /// ranges over.
    pub point_subjects: usize,
    /// `serve_mixed`: times each of the 20 queries is sent per repetition,
    /// per client.
    pub mixed_rounds: usize,
    /// `update_mixed`: operations per repetition.
    pub update_ops: usize,
    /// `update_mixed`: inserts a triple stays live for.
    pub update_lag: usize,
    /// Set-ups per run (medians are reported).
    pub setups: usize,
    /// Nominal seconds of one repetition on the reference host: `--seconds`
    /// divided by this is the number of measured repetitions.
    pub rep_seconds: f64,
    /// The same for `batch_adaptive`, whose repetition is one cold run.
    pub batch_rep_seconds: f64,
    /// The traced pass replays every `trace_sample`-th operation.
    pub trace_sample: usize,
}

impl Sizes {
    /// The published benchmark (sized on a 2-core host, see README).
    pub fn full() -> Self {
        Sizes {
            small_triples: 400_000,
            large_triples: 1_600_000,
            point_requests: 100_000,
            point_subjects: 2_000,
            mixed_rounds: 80,
            update_ops: 16_000,
            update_lag: 64,
            setups: 5,
            rep_seconds: 4.0,
            batch_rep_seconds: 2.0,
            trace_sample: 10,
        }
    }

    /// A few thousand triples and a few hundred ops: for `cargo test`.
    pub fn tiny() -> Self {
        Sizes {
            small_triples: 4_000,
            large_triples: 8_000,
            point_requests: 150,
            point_subjects: 100,
            mixed_rounds: 2,
            update_ops: 400,
            update_lag: 8,
            setups: 2,
            rep_seconds: 1.0,
            batch_rep_seconds: 1.0,
            trace_sample: 4,
        }
    }
}

/// One invocation.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure; sets the number of repetitions.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where the traced run writes `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

impl Plan {
    /// Measured repetitions: `seconds` over the nominal repetition length.
    pub fn repetitions(&self) -> usize {
        let nominal = match self.workload {
            Workload::BatchAdaptive => self.sizes.batch_rep_seconds,
            _ => self.sizes.rep_seconds,
        };
        ((self.seconds / nominal).round() as usize).max(1)
    }

    /// Clients / pool threads: the wanted count clamped to the host's cores.
    pub fn clamp(&self, wanted: usize) -> usize {
        wanted.min(stats::host_parallelism()).max(1)
    }
}

/// Run one workload: set-up, verification, warm-up, measured repetitions (or
/// the traced pass), metrics.
pub fn run(plan: &Plan) -> Result<RunOutput, String> {
    let pinned = sut::pin_environment();
    let mut out = RunOutput::default();
    out.note("workload", plan.workload.name());
    out.note("seed", plan.seed);
    out.note("trace", plan.trace);
    out.note("host_parallelism", stats::host_parallelism());
    out.note("removed_env", format!("{pinned:?}"));
    match plan.workload {
        Workload::ServePoint | Workload::ServeMixed => workloads::serve::run(plan, &mut out)?,
        Workload::BatchAdaptive => workloads::batch::run(plan, &mut out)?,
        Workload::UpdateMixed => workloads::update::run(plan, &mut out)?,
    }
    if !plan.trace {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    Ok(out)
}
