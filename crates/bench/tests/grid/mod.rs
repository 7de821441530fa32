//! The equivalence grid: one fingerprint over one declared axis grid.
//!
//! The paper's dual store is meant to answer exactly what a relational
//! store answers, only faster. The equivalence suite pins that "exactly"
//! as a determinism contract. For the seeded YAGO workload (scale 0.002,
//! five batches, tuning after each), every deterministic output is a
//! function of the data, the queries and the route policy alone. It must
//! not depend on which runner drives the batches or on how many workers
//! it has. Neither may the relational shard count, whether recording is
//! on, whether the queries arrive in process or over the wire, or whether
//! the process restarted from a checkpoint half way through.
//!
//! [`fingerprint`] runs the workload for one [`Cell`] of the grid. Every
//! cell is compared with its policy's reference cell. A mismatch names
//! the axes on which the cell differs from the reference and the first
//! [`Fingerprint`] field that differs. The grid's axes and blocks are
//! written out below ([`GRID`]); nothing outside this module adds axis
//! values. Each block is one `#[test]`: most in `equivalence.rs`, the
//! rest in the test files whose configurations they took over
//! (`stress.rs`, `shard_equivalence.rs`, `sched_equivalence.rs`,
//! `explain_equivalence.rs`, `persistence_roundtrip.rs`).

// Every test binary that includes this module runs only its own blocks.
#![allow(dead_code)]

use kgdual_bench::serve_load::serial_replay;
use kgdual_bench::{build_batches, build_dataset, build_workload, BenchArgs, Order, WorkloadKind};
use kgdual_core::batch::{RouteCounts, TuningSchedule};
use kgdual_core::{
    persist, process_shared_explain, DualStore, NoopTuner, PhysicalTuner, QueryOutcome,
    RestoreReport, Route, StoreVariant, TuningOutcome, WorkloadRunner,
};
use kgdual_dotil::Dotil;
use kgdual_exec::{
    BatchExecutor, ExecMode, ParallelRunner, SchedShardDispatch, Scheduler, SharedStore, TaskClass,
};
use kgdual_model::Dataset;
use kgdual_relstore::TempSpace;
use kgdual_serve::{ServeConfig, ServeHandle, Server};
use kgdual_sparql::Query;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// The axis grid.

/// How queries reach a store: routed under DOTIL, or the RDB-only
/// baseline. The two policies answer alike but charge differently, so
/// each has its own reference cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The dual store's routed path, tuned by DOTIL after each batch.
    Routed,
    /// The relational store alone, never tuned.
    RelationalOnly,
}

/// What drives the batches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Runner {
    /// `WorkloadRunner` over a `StoreVariant`, one query at a time.
    Serial,
    /// `ParallelRunner` over a `SharedStore` with this many workers.
    Parallel(usize),
}

/// How a batch's queries reach the store. Tuning between batches is the
/// same `SharedStore::reconfigure` call on both.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    InProcess,
    /// One serial connection to a `kgdual-serve` server over the store.
    Wire,
}

/// Whether the run checkpoints, "restarts" into a fresh store and a
/// fresh `Dotil::new()`, restores, and finishes there.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Restart {
    No,
    /// Checkpoint after this many batches.
    After(usize),
}

pub const POLICIES: &[Policy] = &[Policy::Routed, Policy::RelationalOnly];
pub const RUNNERS: &[Runner] = &[
    Runner::Serial,
    Runner::Parallel(1),
    Runner::Parallel(2),
    Runner::Parallel(4),
    Runner::Parallel(8),
];
pub const SHARDS: &[usize] = &[1, 2, 4, 8];
/// The mid-run checkpoint: after two of the five batches.
pub const MID: Restart = Restart::After(2);
/// Every batch boundary of the five-batch workload.
pub const EVERY_BOUNDARY: &[Restart] = &[
    Restart::After(1),
    Restart::After(2),
    Restart::After(3),
    Restart::After(4),
];

/// One point of the grid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    pub policy: Policy,
    pub runner: Runner,
    pub shards: usize,
    pub obs: bool,
    pub transport: Transport,
    pub restart: Restart,
}

impl Cell {
    /// The cell every other cell of `policy` is compared with.
    pub fn reference(policy: Policy) -> Cell {
        Cell {
            policy,
            runner: Runner::Parallel(1),
            shards: 1,
            obs: false,
            transport: Transport::InProcess,
            restart: Restart::No,
        }
    }

    /// The server always routes and runs on a pool, so the wire carries
    /// only routed, pooled cells.
    fn is_valid(&self) -> bool {
        self.transport == Transport::InProcess
            || (self.policy == Policy::Routed && self.runner != Runner::Serial)
    }

    /// Every axis of the cell, named, with its value.
    fn axes(&self) -> [(&'static str, String); 6] {
        [
            ("policy", format!("{:?}", self.policy)),
            ("runner", format!("{:?}", self.runner)),
            ("shards", self.shards.to_string()),
            ("obs", self.obs.to_string()),
            ("transport", format!("{:?}", self.transport)),
            ("restart", format!("{:?}", self.restart)),
        ]
    }

    /// The axes on which `self` differs from `other`, as `axis a → b`.
    fn axes_differing(&self, other: &Cell) -> Vec<String> {
        self.axes()
            .into_iter()
            .zip(other.axes())
            .filter(|(a, b)| a != b)
            .map(|((name, a), (_, b))| format!("{name} {a} → {b}"))
            .collect()
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axes: Vec<String> = self
            .axes()
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        write!(f, "[{}]", axes.join(" "))
    }
}

/// A block of the grid: every valid combination of the listed values.
pub struct Block {
    pub policy: &'static [Policy],
    pub runner: &'static [Runner],
    pub shards: &'static [usize],
    pub obs: &'static [bool],
    pub transport: &'static [Transport],
    pub restart: &'static [Restart],
}

impl Block {
    /// The reference cell of the routed policy, as a block; blocks below
    /// override the axes they sweep.
    pub const ROUTED: Block = Block {
        policy: &[Policy::Routed],
        runner: &[Runner::Parallel(1)],
        shards: &[1],
        obs: &[false],
        transport: &[Transport::InProcess],
        restart: &[Restart::No],
    };
    pub const RELATIONAL_ONLY: Block = Block {
        policy: &[Policy::RelationalOnly],
        ..Block::ROUTED
    };
    pub const RECORDING: Block = Block {
        shards: &[4],
        obs: &[true],
        ..Block::ROUTED
    };

    pub fn cells(&self) -> Vec<Cell> {
        // Every axis is swept below, so each seed value is replaced.
        let mut cells = vec![Cell::reference(Policy::Routed)];
        macro_rules! sweep {
            ($($axis:ident),*) => {$(
                cells = cells
                    .iter()
                    .flat_map(|c| self.$axis.iter().map(move |&v| Cell { $axis: v, ..*c }))
                    .collect();
            )*};
        }
        sweep!(policy, runner, shards, obs, transport, restart);
        cells.retain(Cell::is_valid);
        cells
    }
}

// ---------------------------------------------------------------------------
// The fingerprint.

/// Everything deterministic one run produces. Per-batch fields hold one
/// entry per batch. A `None` field is one the cell cannot observe; it is
/// compared only between cells that both observe it.
#[derive(Clone, Default)]
pub struct Fingerprint {
    /// Each batch's digest of sorted result rows, as the path computes it
    /// (`results_digest` in process, `DigestBuilder` on the wire). `None`
    /// on the serial runner, whose `BatchReport` carries no results.
    pub digests: Option<Vec<Vec<u8>>>,
    /// Each batch's rows in emission order: `LIMIT` keeps a prefix of it.
    pub order: Option<Vec<Vec<u8>>>,
    pub rows: Vec<u64>,
    pub work: Vec<u64>,
    pub sim_tti_ns: Vec<u128>,
    pub routes: Vec<RouteCounts>,
    /// The tuning epoch after each batch, `offline_work` included.
    pub tuning: Vec<TuningOutcome>,
    /// Graph-resident partitions `(pred, triples)` after each tuning epoch.
    pub residency: Vec<Vec<(u32, usize)>>,
    /// `Dotil::export_state_bytes()` at the end: Q-matrices, staleness
    /// ages and RNG position (empty for the untuned policy).
    pub tuner_state: Vec<u8>,
    /// `OfflineTuning` tasks the pool ran: the cost pairs DOTIL measured.
    /// `None` on the serial runner, which hands DOTIL no pool, and after a
    /// restart: a restore clears DOTIL's cost-pair memo by design, so the
    /// restored run measures again.
    pub tuning_tasks: Option<u64>,
    /// `PlanDesc` | `QueryProfile` deterministic JSON for every pool query
    /// on the final design. Routed policy only: the baseline's design
    /// stays cold, so its plans are relational ones, which the routed
    /// cells plan too.
    pub plans: Vec<String>,
}

impl Fingerprint {
    /// The name of the first field on which `self` and `other` differ.
    pub fn first_difference(&self, other: &Fingerprint) -> Option<&'static str> {
        macro_rules! compare {
            ($($field:ident),*) => {$(
                if self.$field != other.$field {
                    return Some(stringify!($field));
                }
            )*};
        }
        macro_rules! compare_observed {
            ($($field:ident),*) => {$(
                if let (Some(a), Some(b)) = (&self.$field, &other.$field) {
                    if a != b {
                        return Some(stringify!($field));
                    }
                }
            )*};
        }
        compare_observed!(digests, order);
        compare!(
            rows,
            work,
            sim_tti_ns,
            routes,
            tuning,
            residency,
            tuner_state
        );
        compare_observed!(tuning_tasks);
        compare!(plans);
        None
    }
}

/// The report for a cell whose fingerprint differs from its reference's
/// on `field`.
pub fn mismatch(reference: &Cell, cell: &Cell, field: &str) -> String {
    format!(
        "{cell} differs from reference {reference} on axes {{{}}}: first differing field `{field}`",
        reference.axes_differing(cell).join(", ")
    )
}

// ---------------------------------------------------------------------------
// Running one cell.

/// The seeded workload every cell runs: the dataset and its five batches.
pub fn workload() -> &'static (Dataset, Vec<Vec<Query>>) {
    static WORKLOAD: OnceLock<(Dataset, Vec<Vec<Query>>)> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let args = BenchArgs {
            scale: 0.002,
            ..BenchArgs::default()
        };
        let workload = build_workload(WorkloadKind::Yago, &args);
        let batches = build_batches(&workload, Order::Ordered, args.seed);
        (build_dataset(WorkloadKind::Yago, &args), batches)
    })
}

pub fn fresh_dual(shards: usize) -> DualStore {
    let dataset = &workload().0;
    DualStore::from_dataset_sharded(dataset.clone(), dataset.len() / 4, shards)
}

/// Recording is process-wide, so cells with it on never overlap cells
/// with it off. `OBS_MODE` holds the current setting and how many cells
/// run under it; a cell that wants the other setting waits for them.
static OBS_MODE: Mutex<(bool, usize)> = Mutex::new((false, 0));
static OBS_MODE_FREE: Condvar = Condvar::new();

/// A cell's hold on the recording setting, for as long as it runs.
struct ObsAxis;

impl ObsAxis {
    fn set(on: bool) -> ObsAxis {
        let mut mode = OBS_MODE.lock().unwrap_or_else(PoisonError::into_inner);
        while mode.1 > 0 && mode.0 != on {
            mode = OBS_MODE_FREE
                .wait(mode)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if mode.1 == 0 {
            kgdual_obs::global().set_enabled(on);
        }
        *mode = (on, mode.1 + 1);
        ObsAxis
    }
}

impl Drop for ObsAxis {
    fn drop(&mut self) {
        let mut mode = OBS_MODE.lock().unwrap_or_else(PoisonError::into_inner);
        mode.1 -= 1;
        if mode.1 == 0 {
            OBS_MODE_FREE.notify_all();
        }
    }
}

/// One process lifetime of a cell: a store over the dataset, a fresh
/// tuner, and whatever drives the batches.
enum Life {
    Serial(Box<StoreVariant>),
    Shared {
        store: Arc<SharedStore>,
        tuner: Box<dyn PhysicalTuner + Send>,
        runner: ParallelRunner,
        server: Option<ServeHandle>,
    },
}

impl Life {
    fn start(cell: &Cell) -> Life {
        let dual = fresh_dual(cell.shards);
        let routed = cell.policy == Policy::Routed;
        let Runner::Parallel(threads) = cell.runner else {
            return Life::Serial(Box::new(if routed {
                StoreVariant::rdb_gdb(dual, Box::new(Dotil::new()))
            } else {
                StoreVariant::rdb_only(dual)
            }));
        };
        let (mode, tuner): (_, Box<dyn PhysicalTuner + Send>) = if routed {
            (ExecMode::Routed, Box::new(Dotil::new()))
        } else {
            (ExecMode::RelationalOnly, Box::new(NoopTuner))
        };
        let executor = BatchExecutor::new(threads)
            .with_mode(mode)
            .with_outcomes(true);
        let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, executor);
        let store = Arc::new(SharedStore::new(dual));
        let server = (cell.transport == Transport::Wire).then(|| {
            // What `ParallelRunner::run` sets up for an in-process batch.
            let sched = runner.executor.scheduler();
            if threads > 1 {
                store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(sched))));
                store.read().warm_rel_indexes();
            }
            Server::start(
                Arc::clone(&store),
                Arc::clone(sched),
                ServeConfig::default(),
            )
            .expect("bind equivalence server")
        });
        Life::Shared {
            store,
            tuner,
            runner,
            server,
        }
    }

    /// Run one batch (`one` holds exactly it) and its tuning epoch,
    /// appending to `fp`.
    fn run_batch(&mut self, one: &[Vec<Query>], fp: &mut Fingerprint) {
        let batch = &one[0];
        match self {
            Life::Serial(variant) => {
                let reports = WorkloadRunner::default()
                    .run(variant, one)
                    .expect("serial run");
                let report = &reports[0];
                assert_eq!(report.errors, 0, "healthy run");
                fp.rows.push(report.result_rows);
                fp.work.push(report.total_work);
                fp.sim_tti_ns.push(report.sim_tti.as_nanos());
                fp.routes.push(report.routes);
                fp.tuning.push(report.tuning);
            }
            Life::Shared {
                store,
                tuner,
                runner,
                server: None,
            } => {
                let report = runner.run(store, tuner.as_mut(), one).remove(0);
                assert_eq!(report.errors, 0, "healthy run");
                let order = emission_order(report.outcomes.iter().flatten());
                fp.work.push(report.total_work());
                fp.digests
                    .get_or_insert_with(Vec::new)
                    .push(report.results_digest);
                fp.order.get_or_insert_with(Vec::new).push(order);
                fp.rows.push(report.result_rows);
                fp.sim_tti_ns.push(report.sim_tti.as_nanos());
                fp.routes.push(report.routes);
                fp.tuning.push(report.tuning);
            }
            Life::Shared {
                store,
                tuner,
                runner,
                server: Some(server),
            } => {
                let texts: Vec<String> = batch.iter().map(ToString::to_string).collect();
                let (digest, replies) =
                    serial_replay(server.local_addr(), &texts).expect("serial wire replay");
                let mut routes = RouteCounts::default();
                for reply in &replies {
                    assert!(reply.is_ok(), "query must serve: {:?}", reply.reason);
                    routes.record(route_named(&reply.route));
                }
                fp.digests.get_or_insert_with(Vec::new).push(digest);
                let mut order = Vec::new();
                for reply in &replies {
                    push_rows(
                        &mut order,
                        reply.rows.len(),
                        reply.rows.iter().flatten().copied(),
                    );
                }
                fp.order.get_or_insert_with(Vec::new).push(order);
                fp.rows
                    .push(replies.iter().map(|r| r.rows.len() as u64).sum());
                fp.work.push(replies.iter().map(|r| r.work_units).sum());
                fp.sim_tti_ns
                    .push(replies.iter().map(|r| u128::from(r.sim_latency_ns)).sum());
                fp.routes.push(routes);
                let sched = runner.executor.scheduler();
                fp.tuning
                    .push(store.reconfigure(|dual| tuner.tune_with(dual, batch, Some(sched))));
            }
        }
        fp.residency.push(self.with_dual(|dual| {
            dual.design()
                .graph_partitions
                .iter()
                .map(|&(p, triples)| (p.0, triples))
                .collect()
        }));
    }

    fn with_dual<R>(&self, f: impl FnOnce(&DualStore) -> R) -> R {
        match self {
            Life::Serial(variant) => f(variant.dual()),
            Life::Shared { store, .. } => f(&store.read()),
        }
    }

    fn tuner_state(&self) -> Vec<u8> {
        let tuner = match self {
            Life::Serial(variant) => variant.tuner(),
            Life::Shared { tuner, .. } => Some(&**tuner as &dyn PhysicalTuner),
        };
        tuner.and_then(|t| t.export_state()).unwrap_or_default()
    }

    fn sched(&self) -> Option<&Arc<Scheduler>> {
        match self {
            Life::Serial(_) => None,
            Life::Shared { runner, .. } => Some(runner.executor.scheduler()),
        }
    }

    /// Checkpoint, drop this life, and restore into a fresh one.
    fn restart(self, cell: &Cell) -> Life {
        let snapshot = match &self {
            Life::Serial(variant) => persist::save_checkpoint(variant.dual(), variant.tuner(), 0),
            Life::Shared { store, tuner, .. } => store.checkpoint(Some(&**tuner)),
        };
        drop(self);
        let mut life = Life::start(cell);
        let report: RestoreReport = match &mut life {
            Life::Serial(variant) => {
                let (dual, tuner) = variant.dual_and_tuner_mut();
                persist::restore_checkpoint(
                    dual,
                    tuner.map(|t| t as &mut dyn PhysicalTuner),
                    &snapshot,
                )
            }
            Life::Shared { store, tuner, .. } => {
                let report = store.restore(Some(tuner.as_mut()), &snapshot);
                if let Ok(r) = &report {
                    assert_eq!(r.epoch, store.epoch(), "{cell}: restore resumes the epoch");
                }
                report
            }
        }
        .expect("a checkpoint restores onto the same dataset");
        assert_eq!(
            report.tuner_restored,
            cell.policy == Policy::Routed,
            "{cell}: DOTIL state rides along with the design"
        );
        life
    }
}

impl Drop for Life {
    fn drop(&mut self) {
        if let Life::Shared {
            server: Some(server),
            ..
        } = self
        {
            server.shutdown();
        }
    }
}

fn route_named(name: &str) -> Route {
    [
        Route::Relational,
        Route::Graph,
        Route::Dual,
        Route::ViewAssisted,
        Route::Empty,
    ]
    .into_iter()
    .find(|r| r.name() == name)
    .unwrap_or_else(|| panic!("unknown route `{name}`"))
}

/// Each query's row count, then its rows in emission order.
fn emission_order<'a>(outcomes: impl Iterator<Item = &'a QueryOutcome>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for out in outcomes {
        let cells = out.results.rows().flatten().map(|c| c.0);
        push_rows(&mut bytes, out.results.len(), cells);
    }
    bytes
}

fn push_rows(bytes: &mut Vec<u8>, rows: usize, cells: impl Iterator<Item = u32>) {
    bytes.extend_from_slice(&(rows as u64).to_le_bytes());
    for cell in cells {
        bytes.extend_from_slice(&cell.to_le_bytes());
    }
}

/// Run the seeded workload for `cell`.
fn fingerprint(cell: &Cell) -> Fingerprint {
    let _obs = ObsAxis::set(cell.obs);
    let batches = &workload().1;
    let mut life = Life::start(cell);
    let mut fp = Fingerprint::default();
    for (i, batch) in batches.iter().enumerate() {
        if cell.restart == Restart::After(i) {
            life = life.restart(cell);
        }
        life.run_batch(std::slice::from_ref(batch), &mut fp);
    }
    if let (Some(sched), Runner::Parallel(threads @ 2..)) = (life.sched(), cell.runner) {
        // The pool really carried the run.
        let executed = sched.stats().executed;
        if cell.transport == Transport::InProcess {
            let queries = executed.get(TaskClass::Query);
            assert!(queries > 0, "{cell}: queries run as pool tasks");
        }
        if cell.policy == Policy::Routed && cell.restart == Restart::No {
            let waves = executed.get(TaskClass::OfflineTuning);
            assert!(
                waves > 0,
                "{cell}: covered waves run as OfflineTuning tasks"
            );
        }
        if cell.shards > 1 {
            let scans = executed.get(TaskClass::ShardScan);
            assert!(scans > 0, "{cell}: union scans fan out as ShardScan tasks");
        }
        assert_eq!(sched.threads(), threads);
    }
    fp.tuner_state = life.tuner_state();
    if let (Some(sched), Restart::No) = (life.sched(), cell.restart) {
        fp.tuning_tasks = Some(sched.stats().executed.get(TaskClass::OfflineTuning));
    }
    if cell.policy == Policy::Routed {
        fp.plans = life.with_dual(|dual| {
            let mut temp = TempSpace::new();
            batches
                .iter()
                .flatten()
                .map(|query| {
                    let out =
                        process_shared_explain(dual, &mut temp, query, true).expect("query runs");
                    let plan = out.plan.expect("an explain run attaches a plan");
                    let profile = out.profile.expect("an explain run attaches a profile");
                    format!(
                        "{}|{}",
                        plan.deterministic_json(),
                        profile.deterministic_json()
                    )
                })
                .collect()
        });
    }
    fp
}

/// The reference fingerprint of `policy`, computed once per process.
fn reference(policy: Policy) -> &'static Fingerprint {
    static REFERENCES: [OnceLock<Fingerprint>; 2] = [OnceLock::new(), OnceLock::new()];
    REFERENCES[policy as usize].get_or_init(|| {
        let fp = fingerprint(&Cell::reference(policy));
        assert!(fp.work.iter().sum::<u64>() > 0, "healthy run");
        assert!(fp.rows.iter().sum::<u64>() > 0, "healthy run");
        if policy == Policy::Routed {
            assert!(
                fp.residency.iter().any(|d| !d.is_empty()),
                "DOTIL must have loaded at least one partition"
            );
            assert!(
                fp.plans
                    .iter()
                    .any(|p| p.contains("\"route\":\"graph\"") || p.contains("\"route\":\"dual\"")),
                "the pool must exercise the graph planner too"
            );
        }
        fp
    })
}

/// Compare every cell of `block` with its policy's reference, two cells
/// at a time, and report every mismatch at once.
pub fn check(block: &Block) {
    let cells: Vec<Cell> = block
        .cells()
        .into_iter()
        .filter(|cell| *cell != Cell::reference(cell.policy))
        .collect();
    assert!(!cells.is_empty(), "a block must name at least one cell");
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let got = fingerprint(cell);
                    if let Some(field) = reference(cell.policy).first_difference(&got) {
                        let report = mismatch(&Cell::reference(cell.policy), cell, field);
                        failures.lock().unwrap().push(report);
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

// ---------------------------------------------------------------------------
// The grid's blocks. Together they hold every configuration the
// determinism contract has been held to.

/// The serial runner on the monolithic layout.
pub const SERIAL_MONOLITHIC: Block = Block {
    runner: &[Runner::Serial],
    ..Block::ROUTED
};
/// The serial runner on every sharded layout.
pub const SERIAL_SHARDED: Block = Block {
    runner: &[Runner::Serial],
    shards: &[2, 4, 8],
    ..Block::ROUTED
};
/// One worker on every sharded layout.
pub const ONE_WORKER_SHARDED: Block = Block {
    shards: &[2, 4, 8],
    ..Block::ROUTED
};
/// Four workers, monolithic and on four shards.
pub const FOUR_WORKERS_ONE_AND_FOUR_SHARDS: Block = Block {
    runner: &[Runner::Parallel(4)],
    shards: &[1, 4],
    ..Block::ROUTED
};
/// Four workers on two and eight shards.
pub const FOUR_WORKERS_TWO_AND_EIGHT_SHARDS: Block = Block {
    runner: &[Runner::Parallel(4)],
    shards: &[2, 8],
    ..Block::ROUTED
};
/// Two and eight workers, monolithic.
pub const TWO_AND_EIGHT_WORKERS_MONOLITHIC: Block = Block {
    runner: &[Runner::Parallel(2), Runner::Parallel(8)],
    ..Block::ROUTED
};
/// Two and eight workers on four shards.
pub const TWO_AND_EIGHT_WORKERS_SHARDED: Block = Block {
    runner: &[Runner::Parallel(2), Runner::Parallel(8)],
    shards: &[4],
    ..Block::ROUTED
};
/// The RDB-only baseline through the serial runner.
pub const RELATIONAL_ONLY_SERIAL: Block = Block {
    runner: &[Runner::Serial],
    shards: &[1, 2, 8],
    ..Block::RELATIONAL_ONLY
};
/// The RDB-only baseline on one and eight workers.
pub const RELATIONAL_ONLY_POOLED: Block = Block {
    runner: &[Runner::Parallel(1), Runner::Parallel(8)],
    shards: &[1, 4],
    ..Block::RELATIONAL_ONLY
};
/// The server is a pure transport: served batches match in-process ones.
pub const WIRE_TRANSPORT: Block = Block {
    runner: &[
        Runner::Parallel(1),
        Runner::Parallel(4),
        Runner::Parallel(8),
    ],
    shards: &[1, 4],
    transport: &[Transport::Wire],
    ..Block::ROUTED
};
/// A mid-run restart on the serial runner.
pub const MID_RUN_RESTART_SERIAL: Block = Block {
    runner: &[Runner::Serial],
    restart: &[MID],
    ..Block::ROUTED
};
/// A mid-run restart on one and four workers.
pub const MID_RUN_RESTART_POOLED: Block = Block {
    runner: &[Runner::Parallel(1), Runner::Parallel(4)],
    restart: &[MID],
    ..Block::ROUTED
};
/// A mid-run restart on a sharded layout.
pub const MID_RUN_RESTART_SHARDED: Block = Block {
    runner: &[Runner::Parallel(2)],
    shards: &[4],
    restart: &[MID],
    ..Block::ROUTED
};
/// A restart at any batch boundary is invisible.
pub const RESTART_AT_EVERY_BATCH_BOUNDARY: Block = Block {
    runner: &[Runner::Parallel(4)],
    shards: &[4],
    restart: EVERY_BOUNDARY,
    ..Block::ROUTED
};
/// Recording is observational only: serial and pooled.
pub const RECORDING_ON: Block = Block {
    runner: &[Runner::Serial, Runner::Parallel(4), Runner::Parallel(8)],
    ..Block::RECORDING
};
/// Recording across a restart.
pub const RECORDING_ON_ACROSS_A_RESTART: Block = Block {
    runner: &[Runner::Parallel(4)],
    restart: &[MID],
    ..Block::RECORDING
};
/// Recording, served, and served across a restart.
pub const RECORDING_ON_SERVED_AND_RESTARTED: Block = Block {
    runner: &[Runner::Parallel(8)],
    transport: &[Transport::Wire],
    restart: &[Restart::No, MID],
    ..Block::RECORDING
};
/// Recording on the baseline.
pub const RECORDING_ON_RELATIONAL_ONLY: Block = Block {
    policy: &[Policy::RelationalOnly],
    runner: &[Runner::Parallel(8)],
    ..Block::RECORDING
};

/// Every block of the grid.
pub const GRID: &[Block] = &[
    SERIAL_MONOLITHIC,
    SERIAL_SHARDED,
    ONE_WORKER_SHARDED,
    FOUR_WORKERS_ONE_AND_FOUR_SHARDS,
    FOUR_WORKERS_TWO_AND_EIGHT_SHARDS,
    TWO_AND_EIGHT_WORKERS_MONOLITHIC,
    TWO_AND_EIGHT_WORKERS_SHARDED,
    RELATIONAL_ONLY_SERIAL,
    RELATIONAL_ONLY_POOLED,
    WIRE_TRANSPORT,
    MID_RUN_RESTART_SERIAL,
    MID_RUN_RESTART_POOLED,
    MID_RUN_RESTART_SHARDED,
    RESTART_AT_EVERY_BATCH_BOUNDARY,
    RECORDING_ON,
    RECORDING_ON_ACROSS_A_RESTART,
    RECORDING_ON_SERVED_AND_RESTARTED,
    RECORDING_ON_RELATIONAL_ONLY,
];
