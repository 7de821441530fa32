//! **serve_store** — run the online serving front-end over a seeded
//! YAGO store until asked to stop.
//!
//! ```text
//! serve_store [--scale F] [--seed N] [--port N] [--threads N] [--obs-out PATH] [--trace-out PATH]
//! ```
//!
//! e.g. `serve_store --scale 0.002 --seed 42 --port 0 --threads 4`. An
//! unknown flag or a malformed value exits with status 2.
//!
//! Prints `listening on <addr>` once ready (port 0 resolves to an
//! OS-assigned port, which this line reports), then serves until either
//! SIGTERM/SIGINT arrives or a client POSTs `/shutdown`. Both paths
//! drain gracefully: new queries get typed 503s, admitted queries
//! finish and their responses are written, then the process prints the
//! final serving counters and `drained` and exits 0 — the serving smoke
//! test in `crates/bench/tests` asserts exactly this sequence.
//!
//! Admission follows `ServeConfig::default()`, the policy kgbench's
//! serving workloads measure.

use kgdual_bench::serve_load::query_pool;
use kgdual_bench::{build_dataset, BenchArgs, WorkloadKind};
use kgdual_core::DualStore;
use kgdual_exec::{Scheduler, SharedStore};
use kgdual_serve::{ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SIGTERM/SIGINT latch. The handler only sets an atomic flag (the one
/// async-signal-safe thing it may do); the main loop does the draining.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::TERM;
    use std::sync::atomic::Ordering;

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    // No libc crate in the offline environment; the two libc symbols the
    // binary needs are declared directly.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }
}

fn run(args: &BenchArgs) {
    let dataset = build_dataset(WorkloadKind::Yago, args);
    let budget = dataset.len() / 4;
    eprintln!(
        "serve_store: yago store, {} triples, {}",
        dataset.len(),
        args.describe()
    );
    let store = Arc::new(SharedStore::new(DualStore::from_dataset(dataset, budget)));
    // Log the size of the query pool that replays against this store
    // (the pool is derived, not served).
    eprintln!(
        "serve_store: workload pool has {} distinct queries",
        query_pool(args).len()
    );

    let config = ServeConfig {
        addr: format!("127.0.0.1:{}", args.port),
        // `--trace-out spans.jsonl` flushes the trace ring buffers there
        // during the graceful drain, so the final requests' span trees
        // survive process exit.
        trace_out: args.trace_out.as_ref().map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    // Queries run on their connection threads; `Server::start` still
    // takes a pool it does not use.
    let sched = Arc::new(Scheduler::new(1));
    let handle = Server::start(store, sched, config).expect("bind serve address");
    println!("listening on {}", handle.local_addr());

    while !TERM.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("serve_store: draining");
    let stats = handle.shutdown();
    println!(
        "served: accepted {} completed {} failed {} rejected_queue_full {} \
         rejected_fair_share {} rejected_draining {} deadline_expired {} http_errors {}",
        stats.accepted,
        stats.completed,
        stats.failed,
        stats.rejected_queue_full,
        stats.rejected_fair_share,
        stats.rejected_draining,
        stats.rejected_deadline,
        stats.http_errors,
    );
    println!("drained");
}

fn main() {
    #[cfg(unix)]
    sig::install();
    let args = BenchArgs::parse();
    run(&args);
}
