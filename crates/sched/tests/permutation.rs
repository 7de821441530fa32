//! Property: the set of completed tasks is permutation-identical across
//! worker counts — scheduling moves *when* a task runs, never *whether*
//! it runs, and index-ordered collection makes even the output order
//! worker-count-invariant. Plus the two liveness properties of the one
//! queue: no wake-up is lost under back-to-back submissions from several
//! threads, and a panicking task costs the pool no worker.

use kgdual_sched::{Scheduler, TaskClass};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Run `n` tasks of the given class mix and return (sorted completion
/// set, index-ordered results).
fn run(threads: usize, n: usize, classes: &[TaskClass]) -> (Vec<usize>, Vec<u64>) {
    let sched = Scheduler::new(threads);
    let completed = Mutex::new(Vec::new());
    sched.scope(|s| {
        for i in 0..n {
            let completed = &completed;
            s.spawn(classes[i % classes.len()], move || {
                completed.lock().unwrap().push(i);
            });
        }
    });
    let mut set = completed.into_inner().unwrap();
    set.sort_unstable();
    let indexed = sched.run_indexed(TaskClass::Query, n, |i| (i as u64).wrapping_mul(2654435761));
    (set, indexed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn completion_sets_are_permutation_identical_across_worker_counts(
        n in 0usize..96,
        mix in prop::collection::vec(0usize..2, 1..4),
    ) {
        let classes: Vec<TaskClass> = mix.iter().map(|&i| TaskClass::ALL[i]).collect();
        let (ref_set, ref_indexed) = run(1, n, &classes);
        prop_assert_eq!(&ref_set, &(0..n).collect::<Vec<_>>(), "every task completes");
        for threads in [2usize, 4, 8] {
            let (set, indexed) = run(threads, n, &classes);
            prop_assert_eq!(&set, &ref_set, "{} threads: same completion set", threads);
            prop_assert_eq!(&indexed, &ref_indexed, "{} threads: same ordered results", threads);
        }
    }
}

/// Run `body` on a helper thread and fail with `what` if it has not
/// returned within 10 s: a lost wake-up hangs instead of failing.
fn within_watchdog(what: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => worker.join().expect("the checked body must not panic"),
        // The body panicked: join re-raises its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("the checked body must not panic")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: a call has not returned within 10 s (lost wake-up?)")
        }
    }
}

/// Three external threads each issue 2 000 back-to-back two-job
/// `run_indexed` calls and single-task scopes on one shared pool. Every
/// call parks its caller until a worker has run its jobs, so any push
/// whose wake-up is lost leaves a caller asleep for good.
fn hammer(workers: usize) {
    within_watchdog(&format!("{workers}-worker pool"), move || {
        let sched = Scheduler::new(workers);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|ts| {
            for t in 0..3usize {
                let (sched, hits) = (&sched, &hits);
                ts.spawn(move || {
                    for i in 0..2_000usize {
                        let got = sched.run_indexed(TaskClass::OfflineTuning, 2, |j| t + i + j);
                        assert_eq!(got, [t + i, t + i + 1]);
                        sched.scope(|s| {
                            s.spawn(TaskClass::Query, || {
                                hits.fetch_add(1, Ordering::Relaxed);
                            })
                        });
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3 * 2_000);
        let stats = sched.stats();
        assert_eq!(stats.executed.get(TaskClass::OfflineTuning), 3 * 2_000 * 2);
        assert_eq!(stats.executed.get(TaskClass::Query), 3 * 2_000);
        assert_eq!(stats.submitted, stats.executed);
    });
}

#[test]
fn back_to_back_calls_from_three_threads_lose_no_wake_up_on_two_workers() {
    hammer(2);
}

#[test]
fn back_to_back_calls_from_three_threads_lose_no_wake_up_on_eight_workers() {
    hammer(8);
}

/// After a panicking task, `run_indexed(n_workers, ..)` still runs its
/// `n` jobs at the same time on `n` distinct workers: each job waits
/// until all `n` have started, which only `n` live workers can satisfy.
#[test]
fn a_panicking_task_leaves_every_worker_in_service() {
    const WORKERS: usize = 4;
    within_watchdog("all workers after a panic", || {
        let sched = Scheduler::new(WORKERS);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sched.scope(|s| s.spawn(TaskClass::Query, || panic!("task boom")))
        }));
        assert!(outcome.is_err(), "the task panic re-throws at scope end");
        let started = AtomicUsize::new(0);
        let ids = sched.run_indexed(TaskClass::Query, WORKERS, |_| {
            started.fetch_add(1, Ordering::AcqRel);
            let deadline = Instant::now() + Duration::from_secs(5);
            while started.load(Ordering::Acquire) < WORKERS {
                assert!(Instant::now() < deadline, "a worker is missing");
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        let mut distinct = ids.clone();
        distinct.sort_by_key(|id| format!("{id:?}"));
        distinct.dedup();
        assert_eq!(distinct.len(), WORKERS, "one job per worker: {ids:?}");
    });
}
