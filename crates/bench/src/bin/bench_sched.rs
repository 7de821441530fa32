//! **BENCH_sched** — the unified-scheduler sweep: wall-clock TTI and
//! tuning-epoch wall time across worker counts {1,2,4,8} × shard counts
//! {1,4}, emitted as JSON on stdout (captured to
//! `docs/baselines/BENCH_sched.json`).
//!
//! The sweep itself asserts the scheduler determinism contract — work
//! units, simulated TTI, and result rows identical in every cell — so
//! the committed capture doubles as an equivalence record. The
//! tuning-epoch speed-up (best multi-threaded wall over serial, per
//! shard count) is printed to stderr, not asserted: the epoch is tens of
//! milliseconds, so on a small host the ratio is noise.
//!
//! `--threads` / `--shards` are ignored here — the sweep fixes both
//! axes. Wall-clock fields are machine-dependent (the JSON meta records
//! `host_parallelism` so every capture is honest about its provenance);
//! the baseline check (`scripts/check_baselines.sh`) strips them and
//! compares only the deterministic fields.

use kgdual_bench::{run_sched_sweep, BenchArgs, SchedSweepPoint, WorkloadKind};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SHARDS: [usize; 2] = [1, 4];

fn point_json(p: &SchedSweepPoint) -> String {
    format!(
        "    {{\"threads\": {}, \"shards\": {}, \
         \"wall_tti_secs\": {:.6}, \"tuning_wall_secs\": {:.6}, \
         \"total_work\": {}, \"sim_tti_ns\": {}, \"result_rows\": {}, \
         \"tuning_tasks\": {}}}",
        p.threads,
        p.shards,
        p.wall_tti_secs,
        p.tuning_wall_secs,
        p.total_work,
        p.sim_tti_ns,
        p.result_rows,
        p.tuning_tasks
    )
}

fn main() {
    let args = BenchArgs::parse();
    kgdual_bench::init_obs(&args);
    eprintln!(
        "BENCH_sched: scheduler sweep over threads {THREADS:?} x shards {SHARDS:?}, {}",
        args.describe()
    );

    let points = run_sched_sweep(WorkloadKind::Yago, &args);

    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Report the tuning-epoch speedup: the best multi-threaded tuning
    // wall against the serial one, per shard count.
    for shards in SHARDS {
        let wall = |threads: usize| {
            points
                .iter()
                .find(|p| p.threads == threads && p.shards == shards)
                .expect("sweep covers the full grid")
                .tuning_wall_secs
        };
        let serial = wall(1);
        let best = THREADS[1..]
            .iter()
            .map(|&t| wall(t))
            .fold(f64::INFINITY, f64::min);
        eprintln!(
            "  {shards} shard(s): tuning epoch {serial:.4}s serial, {best:.4}s best \
             multi-threaded ({:.2}x)",
            serial / best
        );
    }

    println!("{{");
    println!("  \"meta\": {{");
    println!(
        "    \"workload\": \"YAGO\", \"scale\": {}, \"seed\": {}, \"reps\": {},",
        args.scale, args.seed, args.reps
    );
    println!("    \"threads_swept\": [1, 2, 4, 8], \"shards_swept\": [1, 4],");
    println!("    \"host_parallelism\": {host_parallelism}");
    println!("  }},");
    println!("  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        println!("{}{sep}", point_json(p));
    }
    println!("  ]");
    println!("}}");
    kgdual_bench::write_obs_profile(&args);
}
