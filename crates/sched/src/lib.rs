//! # kgdual-sched
//!
//! One work-stealing task substrate for everything concurrent in kgdual:
//! online query execution, intra-query hash-join probe jobs, DOTIL's
//! offline counterfactual measurements, and checkpoint I/O all run on the
//! same fixed pool of worker threads. A [`Scheduler`] owns exactly
//! `threads` resident workers, full stop; every layer of the stack
//! borrows them, so nested fan-out never oversubscribes cores.
//!
//! ## Model
//!
//! * **Fixed worker pool.** [`Scheduler::new(n)`](Scheduler::new) spawns
//!   `n` resident worker threads that live until the scheduler drops.
//! * **Per-worker deques + stealing.** A task spawned *from* a worker
//!   (e.g. a query fanning out its hash-join probe) lands on that
//!   worker's own deque and is popped LIFO for locality; idle workers
//!   steal the oldest entry from a victim's deque. Tasks submitted from
//!   outside the pool land on a class-segregated global injector.
//! * **Typed task classes, priority-ordered.** The injector is drained in
//!   [`TaskClass`] priority order: `ShardScan` jobs (completing in-flight
//!   queries) first, then fresh queries, then checkpoint I/O, then
//!   offline tuning. The policy is non-preemptive — a running tuning
//!   task finishes — but a pending query always overtakes pending
//!   tuning work.
//! * **Scoped, borrowing tasks.** [`Scheduler::scope`] lets tasks borrow
//!   the caller's stack (the frozen `&DualStore`, the batch's queries)
//!   without `'static` gymnastics: the scope blocks until every task it
//!   spawned has completed, so the borrows cannot outlive their owners.
//!   When the scope's caller *is itself a worker* (a query opening a
//!   nested probe-job scope), it does not block idle — it executes
//!   pending tasks while it waits ("helping"), which is what lets idle
//!   query workers absorb probe jobs and bounds total live threads to
//!   the pool size regardless of nesting depth.
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
//! (`sched_task_wall_ns_<class>`), per-class queue-depth gauges, steal
//! counts, and worker idle/busy nanoseconds, and opens a `task` span
//! around every task body — tagging the thread with the task class so
//! spans opened inside the task inherit it. All of it is observational
//! only: recording never changes scheduling order, and the
//! equivalence suite in `kgdual-bench` verifies byte-identical results
//! with recording on and off.
//!
//! ## Implementing a custom task class
//!
//! [`TaskClass`] is a closed enum so the priority policy stays total and
//! auditable. To introduce a new class of work (say, background
//! compaction):
//!
//! 1. Add a variant to [`TaskClass`], slotting its discriminant into the
//!    priority order (discriminant 0 drains first). Everything below
//!    queries should be work whose latency is invisible to the online
//!    phase.
//! 2. Extend [`TaskClass::ALL`] and [`TaskClass::name`]; the per-class
//!    submitted/executed counters in [`SchedStats`] pick the variant up
//!    automatically (they are indexed by discriminant).
//! 3. Submit work under the new class from a scope:
//!    `scope.spawn(TaskClass::Compaction, || ...)`. Use
//!    [`Scheduler::run_indexed`] when you need results back in
//!    submission order.
//!
//! The class changes scheduling priority only. Mutual exclusion (e.g.
//! "never run while a batch is in flight") is the caller's job — in
//! kgdual that is `SharedStore`'s read/write lock, whose write acquire
//! is the quiesce barrier checkpoint I/O and tuning both drain through.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// kgdual-obs handles, registered once per process. Recording through
/// them is gated on the global observability flag (one relaxed load when
/// off), so the hot path pays a field access and an untaken branch.
struct SchedObs {
    /// Wall time per executed task, one histogram per [`TaskClass`].
    task_wall: [kgdual_obs::Histogram; 4],
    /// Tasks sitting in queues (injector + deques), one gauge per class.
    /// Only meaningful over windows where the obs flag is constant.
    queue_depth: [kgdual_obs::Gauge; 4],
    /// Successful steals (the wall-clock twin of [`SchedStats::stolen`]).
    steals: kgdual_obs::Counter,
    /// Nanoseconds resident workers spent parked waiting for work.
    idle_ns: kgdual_obs::Counter,
    /// Nanoseconds workers spent executing tasks.
    busy_ns: kgdual_obs::Counter,
}

fn obs() -> &'static SchedObs {
    static OBS: OnceLock<SchedObs> = OnceLock::new();
    OBS.get_or_init(|| {
        const WALL: [&str; 4] = [
            "sched_task_wall_ns_shard_scan",
            "sched_task_wall_ns_query",
            "sched_task_wall_ns_checkpoint_io",
            "sched_task_wall_ns_offline_tuning",
        ];
        const DEPTH: [&str; 4] = [
            "sched_queue_depth_shard_scan",
            "sched_queue_depth_query",
            "sched_queue_depth_checkpoint_io",
            "sched_queue_depth_offline_tuning",
        ];
        let m = kgdual_obs::global().metrics();
        SchedObs {
            task_wall: WALL.map(|n| m.histogram(n)),
            queue_depth: DEPTH.map(|n| m.gauge(n)),
            steals: m.counter("sched_steals"),
            idle_ns: m.counter("sched_idle_ns"),
            busy_ns: m.counter("sched_busy_ns"),
        }
    })
}

/// The kind of work a task performs, which doubles as its scheduling
/// priority: lower discriminants drain from the global injector first.
///
/// See the [crate docs](crate) for how to add a class.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum TaskClass {
    /// A piece of an in-flight query: one range of a hash-join probe.
    /// Highest priority: finishing started queries beats starting new
    /// ones.
    ShardScan = 0,
    /// One online query of a batch.
    Query = 1,
    /// Checkpoint serialization under the store's write-lock quiesce.
    CheckpointIo = 2,
    /// Offline work between batches (DOTIL counterfactual measurements,
    /// index warm-up). Lowest priority: pending queries preempt it.
    OfflineTuning = 3,
}

impl TaskClass {
    /// Every class, in priority order (drained first to last).
    pub const ALL: [TaskClass; 4] = [
        TaskClass::ShardScan,
        TaskClass::Query,
        TaskClass::CheckpointIo,
        TaskClass::OfflineTuning,
    ];

    /// Human-readable class name (diagnostics, bench output).
    pub fn name(self) -> &'static str {
        match self {
            TaskClass::ShardScan => "shard_scan",
            TaskClass::Query => "query",
            TaskClass::CheckpointIo => "checkpoint_io",
            TaskClass::OfflineTuning => "offline_tuning",
        }
    }
}

/// Per-class counters (indexed by [`TaskClass`] discriminant).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts(pub [u64; 4]);

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
    /// Tasks a worker took from another worker's deque.
    pub stolen: u64,
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
    pending: AtomicUsize,
    /// Parking for external (non-worker) scope waiters.
    lock: Mutex<()>,
    cv: Condvar,
    /// First panic payload captured from a task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct Inner {
    id: u64,
    threads: usize,
    /// Global injector, one FIFO per class, drained in priority order.
    injector: [Mutex<VecDeque<Task>>; 4],
    /// Per-worker deques: owner pops LIFO, thieves pop FIFO.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks sitting in any queue (not yet claimed).
    queued: AtomicUsize,
    /// Tasks currently executing on some thread.
    running: AtomicUsize,
    /// One parking lot for idle workers and helping scope waiters; every
    /// push and every scope-draining completion notifies it.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    shutdown: AtomicBool,
    submitted: [AtomicU64; 4],
    executed: [AtomicU64; 4],
    stolen: AtomicU64,
}

thread_local! {
    /// `(scheduler id, worker index)` when the current thread is a pool
    /// worker — routes same-pool spawns to the worker's own deque and
    /// switches scope waits into helping mode.
    static CURRENT_WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

fn worker_index_of(sched_id: u64) -> Option<usize> {
    CURRENT_WORKER.with(|c| {
        c.get()
            .and_then(|(id, idx)| (id == sched_id).then_some(idx))
    })
}

impl Inner {
    fn push(&self, task: Task) {
        self.submitted[task.class as usize].fetch_add(1, Ordering::Relaxed);
        obs().queue_depth[task.class as usize].inc();
        match worker_index_of(self.id) {
            Some(idx) => self.deques[idx].lock().unwrap().push_back(task),
            None => self.injector[task.class as usize]
                .lock()
                .unwrap()
                .push_back(task),
        }
        // Publish *after* the task is visible in a queue, then wake the
        // pool: a parked worker re-checks `queued` under `idle_lock`, so
        // the notify cannot be missed.
        self.queued.fetch_add(1, Ordering::Release);
        let _g = self.idle_lock.lock().unwrap();
        self.idle_cv.notify_all();
    }

    /// Claim one task: own deque (LIFO), then the injector in class
    /// priority order, then steal the oldest task from another worker.
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(i) = me {
            if let Some(t) = self.deques[i].lock().unwrap().pop_back() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                return Some(t);
            }
        }
        for q in &self.injector {
            if let Some(t) = q.lock().unwrap().pop_front() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                return Some(t);
            }
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| (i + 1) % n);
        for k in 0..n {
            let j = (start + k) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(t) = self.deques[j].lock().unwrap().pop_front() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                self.stolen.fetch_add(1, Ordering::Relaxed);
                obs().steals.inc();
                return Some(t);
            }
        }
        None
    }

    fn run_task(&self, task: Task) {
        let class = task.class;
        obs().queue_depth[class as usize].dec();
        // Tag the thread with the task class so spans opened inside the
        // task body (query, probe job, tuning…) carry it; restore the
        // previous tag afterwards because workers nest via helping.
        let prev_class = kgdual_obs::set_task_class(Some(class.name()));
        // Borrow the submitter's span context: the `task` span below
        // parents onto the span that was live at spawn time, rooting
        // cross-thread fan-out (e.g. a served request's Query task and
        // its ShardScan children) in one tree. Restored afterwards
        // because workers nest via helping.
        let prev_parent = kgdual_obs::set_current_parent(task.parent_span);
        let timer = kgdual_obs::timer();
        self.running.fetch_add(1, Ordering::AcqRel);
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
        let running_now = self.running.fetch_sub(1, Ordering::AcqRel) - 1;
        if let Err(payload) = result {
            let mut slot = task.scope.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        let scope_drained = task.scope.pending.fetch_sub(1, Ordering::AcqRel) == 1;
        if scope_drained {
            // Wake the scope's external waiter...
            let _g = task.scope.lock.lock().unwrap();
            task.scope.cv.notify_all();
        }
        if scope_drained || (running_now == 0 && self.queued.load(Ordering::Acquire) == 0) {
            // ...and helping waiters / quiesce watchers on the shared lot.
            let _g = self.idle_lock.lock().unwrap();
            self.idle_cv.notify_all();
        }
    }

    /// Block until every task of `scope` has completed. Worker threads
    /// help (execute pending tasks) instead of idling, which is both the
    /// deadlock-freedom argument for nested scopes and the "idle query
    /// workers absorb probe jobs" behaviour.
    fn wait_scope(&self, scope: &ScopeState) {
        match worker_index_of(self.id) {
            Some(idx) => loop {
                if scope.pending.load(Ordering::Acquire) == 0 {
                    return;
                }
                if let Some(task) = self.find_task(Some(idx)) {
                    self.run_task(task);
                    continue;
                }
                let mut g = self.idle_lock.lock().unwrap();
                loop {
                    if scope.pending.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    if self.queued.load(Ordering::Acquire) > 0 {
                        break;
                    }
                    g = self.idle_cv.wait(g).unwrap();
                }
            },
            None => {
                let mut g = scope.lock.lock().unwrap();
                while scope.pending.load(Ordering::Acquire) > 0 {
                    g = scope.cv.wait(g).unwrap();
                }
            }
        }
    }

    fn worker_loop(self: &Arc<Self>, index: usize) {
        CURRENT_WORKER.with(|c| c.set(Some((self.id, index))));
        loop {
            if let Some(task) = self.find_task(Some(index)) {
                self.run_task(task);
                continue;
            }
            let idle = kgdual_obs::timer();
            let stop = {
                let mut g = self.idle_lock.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        break true;
                    }
                    if self.queued.load(Ordering::Acquire) > 0 {
                        break false;
                    }
                    g = self.idle_cv.wait(g).unwrap();
                }
            };
            if let Some(ns) = idle.elapsed_ns() {
                obs().idle_ns.add(ns);
            }
            if stop {
                return;
            }
        }
    }
}

/// The unified work-stealing scheduler: a fixed pool of resident worker
/// threads multiplexing all of kgdual's [`TaskClass`]es. See the
/// [crate docs](crate) for the model.
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
            injector: Default::default(),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: Default::default(),
            executed: Default::default(),
            stolen: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("kgdual-worker-{i}"))
                    .spawn(move || inner.worker_loop(i))
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
        let load = |a: &[AtomicU64; 4]| {
            let mut out = [0u64; 4];
            for (o, v) in out.iter_mut().zip(a) {
                *o = v.load(Ordering::Relaxed);
            }
            ClassCounts(out)
        };
        SchedStats {
            threads: self.inner.threads,
            submitted: load(&self.inner.submitted),
            executed: load(&self.inner.executed),
            stolen: self.inner.stolen.load(Ordering::Relaxed),
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
    /// Calling `scope` from inside a task (on a worker thread) is the
    /// supported nesting pattern — the worker helps execute pending tasks
    /// while it waits, so nesting cannot deadlock and never grows the
    /// thread count.
    pub fn scope<'env, R>(&'env self, f: impl FnOnce(&Scope<'env, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState::default());
        let result = {
            // Dropped on every exit path (including unwinding out of
            // `f`), so `'env` borrows are dead only after the last task.
            let _wait = WaitGuard {
                inner: &self.inner,
                state: &state,
            };
            f(&Scope {
                sched: self,
                state: Arc::clone(&state),
                _env: PhantomData,
            })
        };
        if let Some(payload) = state.panic.lock().unwrap().take() {
            panic::resume_unwind(payload);
        }
        result
    }

    /// Run `n` indexed jobs under `class` and return their results **in
    /// index order** — the deterministic fan-out shape probe jobs and
    /// DOTIL measurement waves use. Jobs run inline when the pool has a
    /// single worker or there is only one job (no scheduling overhead,
    /// identical results). Inline jobs still count in the per-class
    /// submitted/executed stats, so [`SchedStats`] attributes the same
    /// work at every thread count — it is the single source of task
    /// accounting for the whole stack.
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

    /// Block until the scheduler is fully idle: no queued and no running
    /// tasks. With every scope already synchronous this is mostly a
    /// checkpoint/diagnostic aid — the write-lock quiesce plus `quiesce()`
    /// guarantees no task of any class is in flight.
    pub fn quiesce(&self) {
        let inner = &self.inner;
        let mut g = inner.idle_lock.lock().unwrap();
        while inner.queued.load(Ordering::Acquire) > 0 || inner.running.load(Ordering::Acquire) > 0
        {
            g = inner.idle_cv.wait(g).unwrap();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.idle_lock.lock().unwrap();
            self.inner.idle_cv.notify_all();
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
    /// Submit one task under `class`. From a worker thread the task goes
    /// to the worker's own deque (stealable by idle peers); from outside
    /// the pool it goes to the class-priority injector.
    pub fn spawn<F>(&self, class: TaskClass, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let run: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the trait object's lifetime bound is erased to 'static
        // so it can sit in the queues. The enclosing scope() call blocks
        // (WaitGuard) until `pending` drops to zero — i.e. until this
        // closure has run or the scheduler has dropped it — so the
        // closure never outlives the 'env borrows it captures. Layout is
        // unchanged: only the lifetime parameter differs.
        let run: BoxedRun = unsafe { std::mem::transmute(run) };
        self.sched.inner.push(Task {
            class,
            scope: Arc::clone(&self.state),
            parent_span: kgdual_obs::current_span_id(),
            run,
        });
    }

    /// The scheduler this scope spawns onto.
    pub fn scheduler(&self) -> &'sched Scheduler {
        self.sched
    }
}

struct WaitGuard<'a> {
    inner: &'a Inner,
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.inner.wait_scope(self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A reusable gate: tasks block on `wait()` until `open()`.
    struct Gate {
        lock: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Self {
            Gate {
                lock: Mutex::new(false),
                cv: Condvar::new(),
            }
        }
        fn open(&self) {
            *self.lock.lock().unwrap() = true;
            self.cv.notify_all();
        }
        fn wait(&self) {
            let mut g = self.lock.lock().unwrap();
            while !*g {
                g = self.cv.wait(g).unwrap();
            }
        }
    }

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
            let got = sched.run_indexed(TaskClass::ShardScan, 33, |i| i * i);
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
    fn injector_drains_in_class_priority_order() {
        // One worker, held busy by a gate task while the injector fills
        // up: on release it must drain queries before checkpoint I/O
        // before tuning, regardless of submission order.
        let sched = Scheduler::new(1);
        let gate = Gate::new();
        let started = Gate::new();
        let order = Mutex::new(Vec::<&'static str>::new());
        sched.scope(|s| {
            s.spawn(TaskClass::Query, || {
                started.open();
                gate.wait();
            });
            started.wait(); // the worker is now inside the gate task
            for _ in 0..2 {
                let order = &order;
                s.spawn(TaskClass::OfflineTuning, move || {
                    order.lock().unwrap().push("tuning");
                });
            }
            let o = &order;
            s.spawn(TaskClass::CheckpointIo, move || {
                o.lock().unwrap().push("ckpt");
            });
            for _ in 0..2 {
                let order = &order;
                s.spawn(TaskClass::Query, move || {
                    order.lock().unwrap().push("query");
                });
            }
            gate.open();
        });
        let got = order.into_inner().unwrap();
        assert_eq!(got, vec!["query", "query", "ckpt", "tuning", "tuning"]);
    }

    #[test]
    fn idle_workers_steal_from_busy_peers() {
        // A task on one worker fans subtasks onto its own deque (nested
        // scope) and then blocks until a peer has stolen some of them.
        let sched = Scheduler::new(4);
        let done = AtomicUsize::new(0);
        sched.scope(|s| {
            let (sched, done) = (s.scheduler(), &done);
            s.spawn(TaskClass::Query, move || {
                sched.scope(|inner| {
                    for _ in 0..64 {
                        inner.spawn(TaskClass::ShardScan, move || {
                            // Enough work that peers get a chance to steal.
                            std::thread::sleep(Duration::from_micros(200));
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
        let stats = sched.stats();
        assert_eq!(stats.executed.get(TaskClass::ShardScan), 64);
        assert!(
            stats.stolen > 0,
            "with 3 idle workers and 64 deque tasks, stealing must occur: {stats:?}"
        );
    }

    #[test]
    fn steal_correctness_under_contention() {
        // Many nested producers all fanning out at once: every subtask
        // runs exactly once, whatever mix of pops and steals happens.
        let sched = Scheduler::new(8);
        let counts: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        sched.scope(|s| {
            let sched = s.scheduler();
            for p in 0..8 {
                let counts = &counts;
                s.spawn(TaskClass::Query, move || {
                    sched.scope(|inner| {
                        for i in 0..32 {
                            let slot = &counts[p * 32 + i];
                            inner.spawn(TaskClass::ShardScan, move || {
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
        assert_eq!(sched.stats().executed.get(TaskClass::ShardScan), 256);
    }

    #[test]
    fn nested_scopes_on_a_single_worker_cannot_deadlock() {
        // The 1-worker pool forces the nesting task to execute its own
        // subtasks via helping; if waiting were passive this would hang.
        let sched = Scheduler::new(1);
        let hits = AtomicUsize::new(0);
        sched.scope(|s| {
            let (sched, hits) = (s.scheduler(), &hits);
            s.spawn(TaskClass::Query, move || {
                sched.scope(|inner| {
                    for _ in 0..16 {
                        inner.spawn(TaskClass::ShardScan, move || {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
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
    fn quiesce_waits_for_full_drain() {
        let sched = Scheduler::new(2);
        sched.quiesce(); // idle pool: immediate
        let hits = AtomicUsize::new(0);
        std::thread::scope(|ts| {
            let (sched, hits) = (&sched, &hits);
            ts.spawn(move || {
                sched.scope(|s| {
                    for _ in 0..32 {
                        s.spawn(TaskClass::CheckpointIo, move || {
                            std::thread::sleep(Duration::from_micros(100));
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
            std::thread::sleep(Duration::from_millis(1));
            sched.quiesce();
            let stats = sched.stats();
            assert_eq!(
                stats.executed.get(TaskClass::CheckpointIo),
                stats.submitted.get(TaskClass::CheckpointIo),
                "quiesce must not return with tasks in flight"
            );
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn external_spawns_without_workers_of_their_own_pool_route_to_injector() {
        // A worker of pool A submitting into pool B is an "external"
        // caller for B: the task must go to B's injector, not a deque of
        // A (which B's workers could never see).
        let a = Scheduler::new(1);
        let b = Scheduler::new(1);
        let hit = AtomicUsize::new(0);
        a.scope(|s| {
            let (b, hit) = (&b, &hit);
            s.spawn(TaskClass::Query, move || {
                b.scope(|sb| {
                    sb.spawn(TaskClass::Query, move || {
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
            s.spawn(TaskClass::CheckpointIo, || {});
        });
        let stats = sched.stats();
        assert_eq!(stats.executed.get(TaskClass::Query), 5);
        assert_eq!(stats.executed.get(TaskClass::OfflineTuning), 7);
        assert_eq!(stats.executed.get(TaskClass::CheckpointIo), 1);
        assert_eq!(stats.executed.get(TaskClass::ShardScan), 0);
        assert_eq!(stats.executed.total(), 13);
        assert_eq!(stats.submitted, stats.executed);
    }

    #[test]
    fn task_class_names_and_priority_order() {
        assert_eq!(TaskClass::ALL[0], TaskClass::ShardScan);
        assert_eq!(TaskClass::ALL[1], TaskClass::Query);
        assert_eq!(TaskClass::ALL[2], TaskClass::CheckpointIo);
        assert_eq!(TaskClass::ALL[3], TaskClass::OfflineTuning);
        for (i, c) in TaskClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminants encode priority");
            assert!(!c.name().is_empty());
        }
    }
}
