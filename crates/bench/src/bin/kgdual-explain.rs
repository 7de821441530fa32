//! **kgdual-explain** — render EXPLAIN / EXPLAIN ANALYZE profiles for
//! the YAGO workload pool against a DOTIL-tuned store.
//!
//! ```text
//! kgdual-explain --scale 0.002 --seed 42 --threads 4 --shards 4
//! ```
//!
//! Builds the seeded store, runs the workload once with tuning epochs so
//! residency (and therefore routing) settles, then explains every
//! distinct pool query: the indented operator tree with estimates,
//! actuals, and q-errors goes to stderr, and a JSON document with the
//! full plan + profile per query goes to stdout (captured to
//! `docs/baselines/explain_profile.json`).
//!
//! The `plan_digest` field is an FNV-1a hash over every query's
//! *deterministic* plan and profile JSON (route, operator sequence,
//! estimates, actual rows, work units) — byte-identical across shards ×
//! threads, so the baseline drift check pins the planner's decisions
//! without pinning machine-dependent timings.

use kgdual_bench::{build_batches, build_dataset, build_workload, BenchArgs, Order};
use kgdual_bench::{experiments::WorkloadKind, serve_load::query_pool};
use kgdual_core::{process_shared_explain, DualStore, PhysicalTuner};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, SchedShardDispatch, SharedStore};
use kgdual_relstore::TempSpace;
use std::sync::Arc;

/// FNV-1a over a byte string (stable, dependency-free fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escape a query string for embedding in the JSON report.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &BenchArgs) {
    let dataset = build_dataset(WorkloadKind::Yago, args);
    let workload = build_workload(WorkloadKind::Yago, args);
    let batches = build_batches(&workload, Order::Ordered, args.seed);
    let budget = dataset.len() / 4;
    eprintln!(
        "kgdual-explain: yago store, {} triples, {}",
        dataset.len(),
        args.describe()
    );

    // Settle residency first: one tuned workload pass, so the explained
    // routes reflect the store DOTIL actually builds, not the cold one.
    let store = SharedStore::new(DualStore::from_dataset_sharded(
        dataset,
        budget,
        args.shards,
    ));
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let executor = BatchExecutor::new(args.threads);
    let sched = Arc::clone(executor.scheduler());
    if args.threads > 1 {
        store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(&sched))));
        store.read().warm_rel_indexes();
    }
    for batch in &batches {
        let report = executor.execute_batch(&store, batch);
        assert_eq!(report.errors, 0, "healthy tuning pass");
        store.reconfigure(|dual| tuner.tune_with(dual, batch, Some(&sched)));
    }

    let pool = query_pool(args);
    let guard = store.read();
    let dual = &*guard;
    let mut temp = TempSpace::new();
    let mut rows = Vec::with_capacity(pool.len());
    let mut digest_input = String::new();
    for (i, text) in pool.iter().enumerate() {
        let query = kgdual_sparql::parse(text).expect("pool query parses");
        let out = process_shared_explain(dual, &mut temp, &query, true).expect("pool query runs");
        let plan = out.plan.as_ref().expect("explain run produces a plan");
        let profile = out
            .profile
            .as_ref()
            .expect("explain run produces a profile");
        eprintln!("-- query #{i}: {text}");
        eprint!("{}", plan.render_text(Some(profile)));
        digest_input.push_str(&plan.deterministic_json());
        digest_input.push_str(&profile.deterministic_json());
        rows.push(format!(
            "    {{\"idx\": {i}, \"query\": {}, \"route\": \"{}\", \"plan\": {}, \"profile\": {}}}",
            escape(text),
            out.route.name(),
            plan.to_json(),
            profile.to_json(),
        ));
    }
    drop(guard);

    println!("{{");
    println!("  \"meta\": {{");
    println!(
        "    \"workload\": \"YAGO\", \"scale\": {}, \"seed\": {}, \"threads\": {}, \"shards\": {}",
        args.scale, args.seed, args.threads, args.shards
    );
    println!("  }},");
    println!(
        "  \"plan_digest\": \"{:016x}\",",
        fnv1a(digest_input.as_bytes())
    );
    println!("  \"queries\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
    kgdual_bench::write_obs_profile(args);
}

fn main() {
    let args = BenchArgs::parse();
    kgdual_bench::init_obs(&args);
    run(&args);
}
