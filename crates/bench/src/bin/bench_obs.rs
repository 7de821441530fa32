//! **BENCH_obs** — the observability overhead gate: the full YAGO
//! workload (parallel execution + DOTIL tuning epochs) run with
//! recording off and on, interleaved, emitted as JSON on stdout
//! (captured to `docs/baselines/BENCH_obs.json`).
//!
//! Comparing min-of-reps walls bounds the cost of the *enabled* recorder
//! — striped relaxed-atomic metrics, span ring buffers, timestamp reads
//! — against the noop mode, whose record calls are one relaxed load and
//! an untaken branch. With `--assert-overhead true` (passed by
//! `scripts/capture_baselines.sh`) the binary fails if enabled recording
//! costs more than 3% wall clock; the assertion self-gates on
//! `available_parallelism`, since a loaded single-CPU host makes
//! wall-clock ratios meaningless.
//!
//! Both modes must do byte-identical deterministic work (work units,
//! rows, simulated TTI) — recording is observational only — and the
//! recording runs must actually populate the per-query latency
//! histogram; both are asserted unconditionally.

use kgdual_bench::{build_batches, build_dataset, build_workload, BenchArgs, Order, WorkloadKind};
use kgdual_core::{DualStore, PhysicalTuner};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, SchedShardDispatch, SharedStore};
use kgdual_model::Dataset;
use kgdual_sparql::Query;
use std::sync::Arc;

/// One full workload pass: every batch executed, a tuning epoch after
/// each. Returns (wall seconds, deterministic fingerprint).
fn run_once(
    dataset: &Dataset,
    batches: &[Vec<Query>],
    threads: usize,
    shards: usize,
) -> (f64, (u64, u64, u128)) {
    let budget = dataset.len() / 4;
    let store = SharedStore::new(DualStore::from_dataset_sharded(
        dataset.clone(),
        budget,
        shards,
    ));
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let executor = BatchExecutor::new(threads);
    let sched = Arc::clone(executor.scheduler());
    if threads > 1 {
        store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));
        store.read().warm_rel_indexes();
    }
    let t0 = std::time::Instant::now();
    let (mut work, mut rows, mut sim) = (0u64, 0u64, 0u128);
    for batch in batches {
        let report = executor.execute_batch(&store, batch);
        assert_eq!(report.errors, 0, "healthy overhead run");
        work += report.total_work();
        rows += report.result_rows;
        sim += report.sim_tti.as_nanos();
        store.reconfigure(|dual| tuner.tune_with(dual, batch, Some(&sched)));
    }
    (t0.elapsed().as_secs_f64(), (work, rows, sim))
}

fn sweep(args: &BenchArgs) -> (f64, f64) {
    let dataset = build_dataset(WorkloadKind::Yago, args);
    let workload = build_workload(WorkloadKind::Yago, args);
    let batches = build_batches(&workload, Order::Ordered, args.seed);
    let obs = kgdual_obs::global();
    let before = obs.enabled();

    // One untimed warm-up pass (allocator, caches), then interleaved
    // off/on reps so drift hits both modes equally; min-of-reps is the
    // overhead comparison (least-noise floor of each mode).
    run_once(&dataset, &batches, args.threads, args.shards);
    let (mut noop_min, mut rec_min) = (f64::INFINITY, f64::INFINITY);
    let mut fingerprints = Vec::new();
    for _ in 0..args.reps {
        obs.set_enabled(false);
        let (w, fp) = run_once(&dataset, &batches, args.threads, args.shards);
        noop_min = noop_min.min(w);
        fingerprints.push(fp);
        obs.set_enabled(true);
        let (w, fp) = run_once(&dataset, &batches, args.threads, args.shards);
        rec_min = rec_min.min(w);
        fingerprints.push(fp);
    }
    obs.set_enabled(before);

    // Recording must be observational only: every run, either mode, does
    // identical deterministic work.
    for fp in &fingerprints[1..] {
        assert_eq!(
            *fp, fingerprints[0],
            "recording on/off must not change deterministic results"
        );
    }
    (noop_min, rec_min)
}

fn main() {
    let args = BenchArgs::parse();
    kgdual_bench::init_obs(&args);
    // Register the serving-layer and vectorized-execution instruments up
    // front so the <3% overhead bound is measured with the full metric
    // surface in place.
    let _ = kgdual_serve::serve_obs();
    let _ = kgdual_vec::vec_obs();
    eprintln!(
        "BENCH_obs: observability overhead, {} rep(s) per mode, {}",
        args.reps,
        args.describe()
    );

    let (noop_min, rec_min) = sweep(&args);
    let overhead_pct = (rec_min - noop_min) / noop_min * 100.0;

    // The recording runs must have fed the serving-layer latency
    // histogram — an empty profile would make the overhead bound vacuous.
    let snapshot = kgdual_obs::global().metrics().snapshot();
    let query_wall = snapshot
        .histogram("exec_query_wall_ns")
        .expect("recording runs must register the per-query histogram");
    assert!(
        !query_wall.is_empty(),
        "recording runs must populate exec_query_wall_ns"
    );

    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "  noop {noop_min:.4}s, recording {rec_min:.4}s -> {overhead_pct:+.2}% overhead \
         ({} query samples, p50 {}ns, p99 {}ns)",
        query_wall.count,
        query_wall.quantile(0.5),
        query_wall.quantile(0.99),
    );
    if args.get_bool("assert-overhead") {
        if host_parallelism >= 2 {
            assert!(
                overhead_pct < 3.0,
                "enabled recording must cost <3% wall clock, measured {overhead_pct:+.2}% \
                 (noop {noop_min:.6}s, recording {rec_min:.6}s)"
            );
        } else {
            eprintln!(
                "  single-CPU host (available_parallelism {host_parallelism}): \
                 overhead assertion skipped, determinism checks still enforced"
            );
        }
    }

    println!("{{");
    println!("  \"meta\": {{");
    println!(
        "    \"workload\": \"YAGO\", \"scale\": {}, \"seed\": {}, \"reps\": {},",
        args.scale, args.seed, args.reps
    );
    println!(
        "    \"threads\": {}, \"shards\": {},",
        args.threads, args.shards
    );
    println!("    \"host_parallelism\": {host_parallelism}");
    println!("  }},");
    println!("  \"noop_wall_secs\": {noop_min:.6},");
    println!("  \"recording_wall_secs\": {rec_min:.6},");
    println!("  \"overhead_pct\": {overhead_pct:.3},");
    println!(
        "  \"query_wall_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
        query_wall.count,
        query_wall.quantile(0.5),
        query_wall.quantile(0.99),
        query_wall.max
    );
    println!("}}");
    kgdual_bench::write_obs_profile(&args);
}
