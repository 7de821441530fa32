//! # kgdual-sched
//!
//! One fixed pool of worker threads for everything concurrent in kgdual:
//! the batch executor's query tasks and DOTIL's offline counterfactual
//! runs. A [`Scheduler`] owns exactly `threads` resident workers, full
//! stop; every layer of the stack borrows them, so nothing it runs
//! oversubscribes cores.
//!
//! ## Model
//!
//! * **Fixed worker pool.** [`Scheduler::new(n)`](Scheduler::new) spawns
//!   `n` resident worker threads that live until the scheduler drops.
//! * **One FIFO queue.** Every task goes to the back of one shared queue
//!   and every worker takes from its front. A push wakes one parked
//!   worker; only shutdown wakes them all.
//! * **Task classes are labels.** A [`TaskClass`] names what a task is
//!   for the per-class counters in [`SchedStats`] and the per-class
//!   task-wall histograms. It sets no priority: no caller submits both
//!   classes at once.
//! * **Scoped, borrowing tasks.** [`Scheduler::scope`] lets tasks borrow
//!   the caller's stack (the frozen `&DualStore`, the batch's queries)
//!   without `'static` gymnastics: the scope blocks until every task it
//!   spawned has completed, so the borrows cannot outlive their owners.
//!   The caller sleeps while it waits; it runs no tasks itself, so at
//!   most `n` threads ever execute tasks. A scope opened *on a worker of
//!   the same pool* runs its tasks inline, in spawn order: a worker that
//!   waited on its own pool could wait for itself.
//!
//! ## Determinism
//!
//! The scheduler moves *where* and *when* a task runs, never what it
//! computes. Callers that need deterministic output order pre-allocate
//! one slot per task ([`Scheduler::run_indexed`] does this) so results
//! are indexed by submission position, not completion order. Every
//! deterministic metric in the kgdual harness — digests, work units,
//! simulated TTI, routes, DOTIL trails — is byte-identical at every
//! worker count by construction.
//!
//! ## Observability
//!
//! When the process-wide `kgdual-obs` flag is on ([`kgdual_obs::enabled`])
//! the scheduler records per-class task wall-time histograms
//! (`sched_task_wall_ns_<class>`), the queue depth, and worker idle/busy
//! nanoseconds, and opens a `task` span around every task body — tagging
//! the thread with the task class so spans opened inside the task
//! inherit it. All of it is observational only: recording never changes
//! scheduling order, and the equivalence suite in `kgdual-bench` verifies
//! byte-identical results with recording on and off.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// kgdual-obs handles, registered once per process. Recording through
/// them is gated on the global observability flag (one relaxed load when
/// off), so the hot path pays a field access and an untaken branch.
struct SchedObs {
    /// Wall time per executed task, one histogram per [`TaskClass`].
    task_wall: [kgdual_obs::Histogram; 2],
    /// Tasks sitting in the queue. Only meaningful over windows where the
    /// obs flag is constant.
    queue_depth: kgdual_obs::Gauge,
    /// Nanoseconds resident workers spent parked waiting for work.
    idle_ns: kgdual_obs::Counter,
    /// Nanoseconds workers spent executing tasks.
    busy_ns: kgdual_obs::Counter,
}

fn obs() -> &'static SchedObs {
    static OBS: OnceLock<SchedObs> = OnceLock::new();
    OBS.get_or_init(|| {
        const WALL: [&str; 2] = [
            "sched_task_wall_ns_query",
            "sched_task_wall_ns_offline_tuning",
        ];
        let m = kgdual_obs::global().metrics();
        SchedObs {
            task_wall: WALL.map(|n| m.histogram(n)),
            queue_depth: m.gauge("sched_queue_depth"),
            idle_ns: m.counter("sched_idle_ns"),
            busy_ns: m.counter("sched_busy_ns"),
        }
    })
}

/// The kind of work a task performs: a label on the per-class counters
/// and histograms, not a priority.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum TaskClass {
    /// One online query of a batch.
    Query = 0,
    /// Offline work between batches (DOTIL counterfactual measurements).
    OfflineTuning = 1,
}

impl TaskClass {
    /// Every class, in discriminant order.
    pub const ALL: [TaskClass; 2] = [TaskClass::Query, TaskClass::OfflineTuning];

    /// Human-readable class name (diagnostics, bench output).
    pub fn name(self) -> &'static str {
        match self {
            TaskClass::Query => "query",
            TaskClass::OfflineTuning => "offline_tuning",
        }
    }
}

/// Per-class counters (indexed by [`TaskClass`] discriminant).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts(pub [u64; 2]);

impl ClassCounts {
    /// The counter for one class.
    pub fn get(&self, class: TaskClass) -> u64 {
        self.0[class as usize]
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// A snapshot of the scheduler's observable behaviour.
#[derive(Copy, Clone, Debug, Default)]
pub struct SchedStats {
    /// Resident worker threads.
    pub threads: usize,
    /// Tasks submitted per class.
    pub submitted: ClassCounts,
    /// Tasks executed to completion per class.
    pub executed: ClassCounts,
}

type BoxedRun = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    class: TaskClass,
    scope: Arc<ScopeState>,
    /// Span id live on the submitting thread at spawn time (0 when none
    /// or when observability is off). The executing worker installs it as
    /// its span context so the task's `task` span — and everything opened
    /// inside it — parents into the submitter's span tree even across
    /// threads.
    parent_span: u64,
    run: BoxedRun,
}

/// Completion tracking for one [`Scheduler::scope`] invocation.
#[derive(Default)]
struct ScopeState {
    /// Tasks spawned but not yet completed.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    drained: Condvar,
    /// First panic payload captured from a task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn finish_one(&self) {
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.drained.notify_one();
        }
    }

    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self
                .drained
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Inner {
    id: u64,
    threads: usize,
    /// Tasks not yet claimed, oldest first.
    queue: Mutex<VecDeque<Task>>,
    /// Parking for idle workers: one `notify_one` per push.
    work: Condvar,
    /// Set once, under the queue lock, when the scheduler drops.
    shutdown: AtomicBool,
    submitted: [AtomicU64; 2],
    executed: [AtomicU64; 2],
}

/// Lock `m`, ignoring poisoning: task bodies run under `catch_unwind`, so
/// no panic unwinds through a held scheduler lock, and every update to the
/// queue, a pending count or a panic slot is complete in one step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The id of the scheduler whose worker the current thread is, if
    /// any: a scope opened there runs its tasks inline.
    static CURRENT_POOL: Cell<Option<u64>> = const { Cell::new(None) };
}

impl Inner {
    fn on_worker(&self) -> bool {
        CURRENT_POOL.with(|c| c.get() == Some(self.id))
    }

    fn push(&self, task: Task) {
        obs().queue_depth.inc();
        lock(&self.queue).push_back(task);
        self.work.notify_one();
    }

    fn run_task(&self, task: Task) {
        let class = task.class;
        // Tag the thread with the task class so spans opened inside the
        // task body carry it, and borrow the submitter's span context so
        // the `task` span parents onto the span that was live at spawn
        // time. Both are restored afterwards: an inline task runs on its
        // submitter's thread.
        let prev_class = kgdual_obs::set_task_class(Some(class.name()));
        let prev_parent = kgdual_obs::set_current_parent(task.parent_span);
        let timer = kgdual_obs::timer();
        let result = {
            let _span = kgdual_obs::span!("task", class = class as usize);
            panic::catch_unwind(AssertUnwindSafe(task.run))
        };
        kgdual_obs::set_current_parent(prev_parent);
        if let Some(ns) = timer.elapsed_ns() {
            obs().task_wall[class as usize].record(ns);
            obs().busy_ns.add(ns);
        }
        kgdual_obs::set_task_class(prev_class);
        self.executed[class as usize].fetch_add(1, Ordering::Relaxed);
        if let Err(payload) = result {
            lock(&task.scope.panic).get_or_insert(payload);
        }
        task.scope.finish_one();
    }

    fn worker_loop(&self) {
        CURRENT_POOL.with(|c| c.set(Some(self.id)));
        loop {
            let task = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(task) = queue.pop_front() {
                        break task;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let idle = kgdual_obs::timer();
                    queue = self
                        .work
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    if let Some(ns) = idle.elapsed_ns() {
                        obs().idle_ns.add(ns);
                    }
                }
            };
            obs().queue_depth.dec();
            self.run_task(task);
        }
    }
}

/// The worker pool: `threads` resident threads sharing one FIFO queue.
/// See the [crate docs](crate) for the model.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.inner.threads)
            .field("stats", &self.stats())
            .finish()
    }
}

static NEXT_SCHED_ID: AtomicU64 = AtomicU64::new(0);

impl Scheduler {
    /// A scheduler with `threads` resident workers (0 is clamped to 1).
    /// This is the **only** place the process's kgdual worker threads are
    /// created; every subsystem shares them.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            id: NEXT_SCHED_ID.fetch_add(1, Ordering::Relaxed),
            threads,
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: Default::default(),
            executed: Default::default(),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("kgdual-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawning a scheduler worker must succeed")
            })
            .collect();
        Scheduler { inner, workers }
    }

    /// Resident worker count.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Snapshot the per-class counters.
    pub fn stats(&self) -> SchedStats {
        let load = |[q, t]: &[AtomicU64; 2]| {
            ClassCounts([q.load(Ordering::Relaxed), t.load(Ordering::Relaxed)])
        };
        SchedStats {
            threads: self.inner.threads,
            submitted: load(&self.inner.submitted),
            executed: load(&self.inner.executed),
        }
    }

    /// Run a group of borrowing tasks to completion.
    ///
    /// Tasks spawned on the [`Scope`] may borrow anything that outlives
    /// the `scope` call (`'env`): the call does not return until every
    /// spawned task has completed, even if `f` or a task panics. A task
    /// panic is re-thrown here after the scope drains, mirroring
    /// `std::thread::scope`.
    ///
    /// On a worker of this pool (inside one of its tasks) the scope's
    /// tasks run inline, one after another in spawn order, so nesting
    /// cannot deadlock and never grows the thread count.
    pub fn scope<'env, R>(&'env self, f: impl FnOnce(&Scope<'env, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState::default());
        let result = {
            // Dropped on every exit path (including unwinding out of
            // `f`), so `'env` borrows are dead only after the last task.
            let _wait = WaitGuard(&state);
            f(&Scope {
                sched: self,
                state: Arc::clone(&state),
                _env: PhantomData,
            })
        };
        if let Some(payload) = lock(&state.panic).take() {
            panic::resume_unwind(payload);
        }
        result
    }

    /// Run `n` indexed jobs under `class` and return their results **in
    /// index order** — the deterministic shape DOTIL's measurement waves
    /// use. Jobs run inline when the pool has a single worker or there is
    /// only one job (no scheduling overhead, identical results). Inline
    /// jobs still count in the per-class submitted/executed stats, so
    /// [`SchedStats`] attributes the same work at every thread count — it
    /// is the single source of task accounting for the whole stack.
    pub fn run_indexed<T, F>(&self, class: TaskClass, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n <= 1 || self.threads() == 1 {
            self.inner.submitted[class as usize].fetch_add(n as u64, Ordering::Relaxed);
            let out = (0..n).map(job).collect();
            self.inner.executed[class as usize].fetch_add(n as u64, Ordering::Relaxed);
            return out;
        }
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (i, slot) in slots.iter().enumerate() {
                let job = &job;
                s.spawn(class, move || {
                    *slot.lock().unwrap() = Some(job(i));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot mutex cannot be poisoned: panics re-throw at scope end")
                    .expect("scope() returns only after every job stored its result")
            })
            .collect()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            // Under the queue lock, so no worker can check the flag and
            // then miss the broadcast.
            let _queue = lock(&self.inner.queue);
            self.inner.shutdown.store(true, Ordering::Release);
            self.inner.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawn handle passed to the closure of [`Scheduler::scope`]. Tasks may
/// borrow `'env` data; the scope call blocks until all of them complete.
pub struct Scope<'sched, 'env> {
    sched: &'sched Scheduler,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'sched, 'env> Scope<'sched, 'env> {
    /// Submit one task under `class` to the back of the pool's queue, or
    /// run it right here when the caller is a worker of the same pool.
    pub fn spawn<F>(&self, class: TaskClass, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let inner = &self.sched.inner;
        inner.submitted[class as usize].fetch_add(1, Ordering::Relaxed);
        *lock(&self.state.pending) += 1;
        let run: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the trait object's lifetime bound is erased to 'static
        // so it can sit in the queue. The enclosing scope() call blocks
        // (WaitGuard) until `pending` drops to zero — i.e. until this
        // closure has run — so the closure never outlives the 'env
        // borrows it captures. Layout is unchanged: only the lifetime
        // parameter differs.
        let run: BoxedRun = unsafe { std::mem::transmute(run) };
        let task = Task {
            class,
            scope: Arc::clone(&self.state),
            parent_span: kgdual_obs::current_span_id(),
            run,
        };
        if inner.on_worker() {
            inner.run_task(task);
        } else {
            inner.push(task);
        }
    }

    /// The scheduler this scope spawns onto.
    pub fn scheduler(&self) -> &'sched Scheduler {
        self.sched
    }
}

struct WaitGuard<'a>(&'a ScopeState);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let sched = Scheduler::new(4);
        let hits = AtomicUsize::new(0);
        sched.scope(|s| {
            for _ in 0..100 {
                s.spawn(TaskClass::Query, || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        let stats = sched.stats();
        assert_eq!(stats.submitted.get(TaskClass::Query), 100);
        assert_eq!(stats.executed.get(TaskClass::Query), 100);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn tasks_borrow_the_callers_stack() {
        let sched = Scheduler::new(2);
        let data: Vec<u64> = (0..64).collect();
        let total = AtomicU64::new(0);
        sched.scope(|s| {
            for chunk in data.chunks(8) {
                let total = &total;
                s.spawn(TaskClass::Query, move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), data.iter().sum::<u64>());
    }

    #[test]
    fn run_indexed_preserves_submission_order() {
        for threads in [1, 2, 4, 8] {
            let sched = Scheduler::new(threads);
            let got = sched.run_indexed(TaskClass::OfflineTuning, 33, |i| i * i);
            let want: Vec<usize> = (0..33).map(|i| i * i).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let sched = Scheduler::new(0);
        assert_eq!(sched.threads(), 1);
        assert_eq!(sched.run_indexed(TaskClass::Query, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_scopes_under_contention_run_inline_exactly_once() {
        // Many tasks all opening a nested scope on their own pool at
        // once: every subtask runs exactly once, on the worker that
        // spawned it.
        let sched = Scheduler::new(8);
        let counts: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        sched.scope(|s| {
            let sched = s.scheduler();
            for p in 0..8 {
                let counts = &counts;
                s.spawn(TaskClass::Query, move || {
                    let me = std::thread::current().id();
                    sched.scope(|inner| {
                        for i in 0..32 {
                            let slot = &counts[p * 32 + i];
                            inner.spawn(TaskClass::OfflineTuning, move || {
                                assert_eq!(std::thread::current().id(), me);
                                slot.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} must run once");
        }
        assert_eq!(sched.stats().executed.get(TaskClass::OfflineTuning), 256);
    }

    #[test]
    fn nested_scopes_on_a_single_worker_cannot_deadlock() {
        // The 1-worker pool's only worker opens a nested scope; a worker
        // that waited on its own queue would hang here.
        let sched = Scheduler::new(1);
        let order = Mutex::new(Vec::new());
        sched.scope(|s| {
            let (sched, order) = (s.scheduler(), &order);
            s.spawn(TaskClass::Query, move || {
                sched.scope(|inner| {
                    for i in 0..16 {
                        inner.spawn(TaskClass::OfflineTuning, move || {
                            order.lock().unwrap().push(i);
                        });
                    }
                });
                // A nested run_indexed takes the same inline path.
                assert_eq!(
                    sched.run_indexed(TaskClass::OfflineTuning, 3, |i| i),
                    [0, 1, 2]
                );
            });
        });
        assert_eq!(order.into_inner().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_rethrows_at_scope_end_and_pool_survives() {
        let sched = Scheduler::new(2);
        let survivors = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            sched.scope(|s| {
                let survivors = &survivors;
                s.spawn(TaskClass::Query, || panic!("task boom"));
                for _ in 0..8 {
                    s.spawn(TaskClass::Query, move || {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "the task panic must re-throw");
        // Other tasks of the scope still completed, and the pool is
        // healthy for the next scope.
        assert_eq!(survivors.load(Ordering::Relaxed), 8);
        assert_eq!(sched.run_indexed(TaskClass::Query, 4, |i| i + 1).len(), 4);
    }

    #[test]
    fn a_panic_in_a_nested_inline_task_rethrows_at_its_own_scope() {
        let sched = Scheduler::new(2);
        let caught = AtomicUsize::new(0);
        sched.scope(|s| {
            let (sched, caught) = (s.scheduler(), &caught);
            s.spawn(TaskClass::Query, move || {
                let ran = AtomicUsize::new(0);
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    sched.scope(|inner| {
                        inner.spawn(TaskClass::OfflineTuning, || panic!("inner boom"));
                        inner.spawn(TaskClass::OfflineTuning, || {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    })
                }));
                assert!(result.is_err());
                assert_eq!(ran.load(Ordering::Relaxed), 1, "later siblings still run");
                caught.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(caught.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn external_spawns_without_workers_of_their_own_pool_route_to_injector() {
        // A worker of pool A submitting into pool B is an external caller
        // for B: the task goes to B's queue and B's worker runs it.
        let a = Scheduler::new(1);
        let b = Scheduler::new(1);
        let hit = AtomicUsize::new(0);
        a.scope(|s| {
            let (b, hit) = (&b, &hit);
            s.spawn(TaskClass::Query, move || {
                let here = std::thread::current().id();
                b.scope(|sb| {
                    sb.spawn(TaskClass::Query, move || {
                        assert_ne!(std::thread::current().id(), here);
                        hit.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        assert_eq!(b.stats().executed.get(TaskClass::Query), 1);
    }

    #[test]
    fn class_counters_attribute_work_correctly() {
        let sched = Scheduler::new(3);
        sched.scope(|s| {
            for _ in 0..5 {
                s.spawn(TaskClass::Query, || {});
            }
            for _ in 0..7 {
                s.spawn(TaskClass::OfflineTuning, || {});
            }
        });
        let stats = sched.stats();
        assert_eq!(stats.executed.get(TaskClass::Query), 5);
        assert_eq!(stats.executed.get(TaskClass::OfflineTuning), 7);
        assert_eq!(stats.executed.total(), 12);
        assert_eq!(stats.submitted, stats.executed);
    }

    #[test]
    fn external_callers_run_no_tasks_themselves() {
        let sched = Scheduler::new(2);
        let caller = std::thread::current().id();
        let ran_on_caller = AtomicUsize::new(0);
        sched.scope(|s| {
            for _ in 0..64 {
                let ran_on_caller = &ran_on_caller;
                s.spawn(TaskClass::Query, move || {
                    if std::thread::current().id() == caller {
                        ran_on_caller.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(ran_on_caller.load(Ordering::Relaxed), 0);
    }
}
