//! A multi-thread `BatchExecutor` must not oversubscribe: queries and
//! DOTIL's counterfactual runs all run on the executor's one fixed
//! worker pool, and the thread that submits them runs none itself, so
//! the process-wide live-thread count is pinned for the whole workload.
//!
//! Thread accounting reads `/proc/self/status`, so the test is
//! Linux-gated; everywhere else it compiles to nothing.
#![cfg(target_os = "linux")]

use kgdual_core::batch::TuningSchedule;
use kgdual_core::DualStore;
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, ParallelRunner, SharedStore};
use kgdual_graphstore::AdjacencyBackend;
use kgdual_workloads::{Workload, YagoGen};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Live threads in this process, per the kernel.
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status must be readable on linux")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status must carry a Threads: line")
}

#[test]
fn worker_pool_bounds_total_live_threads() {
    const POOL: usize = 4;

    let baseline = live_threads();

    // The heaviest concurrent configuration: multi-thread executor with
    // DOTIL tuning epochs, whose measurement waves borrow the same
    // workers.
    let dataset = YagoGen::with_target_triples(4_000, 42).generate();
    let budget = dataset.len() / 4;
    let store = SharedStore::new(DualStore::<AdjacencyBackend>::from_dataset_in(
        dataset, budget,
    ));
    let workload = YagoGen::with_target_triples(4_000, 42).workload();
    let batches = Workload::batches(&workload.ordered(), 5);
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, BatchExecutor::new(POOL));

    // Sample the kernel's thread count from an observer thread while the
    // workload runs; the observer itself is one extra thread.
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(live_threads(), Ordering::AcqRel);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        let reports = runner.run(&store, &mut tuner, &batches);
        stop.store(true, Ordering::Release);
        assert_eq!(reports.iter().map(|r| r.errors).sum::<usize>(), 0);
    });

    let peak = peak.load(Ordering::Acquire);
    let bound = baseline + POOL + 1; // pool workers + the observer
    assert!(
        peak > baseline,
        "sampler must have caught the pool alive (peak {peak}, baseline {baseline})"
    );
    assert!(
        peak <= bound,
        "live threads must stay pinned at the pool size: peak {peak} > \
         baseline {baseline} + pool {POOL} + observer 1"
    );
}
