//! The equivalence grid: one fingerprint over one declared axis grid.
//!
//! The paper's dual store is meant to answer exactly what a relational
//! store answers, only faster. The equivalence suite pins that "exactly"
//! as a determinism contract. For the seeded YAGO workload (scale 0.002,
//! five batches, tuning after each), every deterministic output is a
//! function of the data, the queries and the route policy alone. It must
//! not depend on how many workers the runner has, whether recording is
//! on, whether the queries arrive in process or over the wire, or whether
//! the process restarted from a checkpoint half way through. Across
//! policies, the answers themselves must agree: each batch's result
//! digest is the same under every policy.
//!
//! [`fingerprint`] runs the workload for one [`Cell`] of the grid. Every
//! cell is compared with its policy's reference cell. A mismatch names
//! the axes on which the cell differs from the reference and the first
//! [`Fingerprint`] field that differs. The grid's axes and blocks are
//! written out below ([`GRID`]); nothing outside this module adds axis
//! values. Each block is one `#[test]`: most in `equivalence.rs`, the
//! rest in the test files whose configurations they took over
//! (`stress.rs`, `explain_equivalence.rs`, `persistence_roundtrip.rs`).

// Every test binary that includes this module runs only its own blocks.
#![allow(dead_code)]

use kgdual_bench::serve_load::serial_replay;
use kgdual_bench::{build_batches, build_dataset, build_workload, BenchArgs, Order, WorkloadKind};
use kgdual_core::batch::{RouteCounts, TuningSchedule};
use kgdual_core::{
    process_shared_explain, DualStore, NoopTuner, PhysicalTuner, QueryOutcome, Route, TuningOutcome,
};
use kgdual_dotil::{Dotil, ViewTuner};
use kgdual_exec::{BatchExecutor, ExecMode, ParallelRunner, Scheduler, SharedStore, TaskClass};
use kgdual_model::Dataset;
use kgdual_relstore::TempSpace;
use kgdual_serve::{ServeConfig, ServeHandle, Server};
use kgdual_sparql::Query;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// The axis grid.

/// How queries reach a store: one of the paper's three store variants.
/// The policies answer alike but charge differently, so each has its own
/// reference cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The dual store's routed path (`RDB-GDB`), tuned by DOTIL after
    /// each batch.
    Routed,
    /// The relational store alone (`RDB-only`), never tuned.
    RelationalOnly,
    /// The relational store with materialized views (`RDB-views`), the
    /// view catalog rebuilt after each batch.
    ViewAssisted,
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

pub const POLICIES: &[Policy] = &[Policy::Routed, Policy::RelationalOnly, Policy::ViewAssisted];
/// `ParallelRunner` worker counts.
pub const WORKERS: &[usize] = &[1, 2, 4, 8];
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
    pub workers: usize,
    pub obs: bool,
    pub transport: Transport,
    pub restart: Restart,
}

impl Cell {
    /// The cell every other cell of `policy` is compared with.
    pub fn reference(policy: Policy) -> Cell {
        Cell {
            policy,
            workers: 1,
            obs: false,
            transport: Transport::InProcess,
            restart: Restart::No,
        }
    }

    /// The server always routes, so the wire carries only routed cells.
    /// A checkpoint holds the graph design, not the view catalog, so only
    /// a cell without views restarts.
    fn is_valid(&self) -> bool {
        (self.transport == Transport::InProcess || self.policy == Policy::Routed)
            && (self.restart == Restart::No || self.policy != Policy::ViewAssisted)
    }

    /// Every axis of the cell, named, with its value.
    fn axes(&self) -> [(&'static str, String); 5] {
        [
            ("policy", format!("{:?}", self.policy)),
            ("workers", self.workers.to_string()),
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
    pub workers: &'static [usize],
    pub obs: &'static [bool],
    pub transport: &'static [Transport],
    pub restart: &'static [Restart],
}

impl Block {
    /// The reference cell of the routed policy, as a block; blocks below
    /// override the axes they sweep.
    pub const ROUTED: Block = Block {
        policy: &[Policy::Routed],
        workers: &[1],
        obs: &[false],
        transport: &[Transport::InProcess],
        restart: &[Restart::No],
    };
    pub const RELATIONAL_ONLY: Block = Block {
        policy: &[Policy::RelationalOnly],
        ..Block::ROUTED
    };
    pub const VIEW_ASSISTED: Block = Block {
        policy: &[Policy::ViewAssisted],
        ..Block::ROUTED
    };
    pub const RECORDING: Block = Block {
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
        sweep!(policy, workers, obs, transport, restart);
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
    /// (`results_digest` in process, `DigestBuilder` on the wire).
    pub digests: Vec<Vec<u8>>,
    /// Each batch's rows in emission order: `LIMIT` keeps a prefix of it.
    pub order: Vec<Vec<u8>>,
    pub rows: Vec<u64>,
    pub work: Vec<u64>,
    pub sim_tti_ns: Vec<u128>,
    pub routes: Vec<RouteCounts>,
    /// The tuning epoch after each batch, `offline_work` included.
    pub tuning: Vec<TuningOutcome>,
    /// Graph-resident partitions `(pred, triples)` after each tuning epoch.
    pub residency: Vec<Vec<(u32, usize)>>,
    /// `Dotil::export_state_bytes()` at the end: Q-matrices, staleness
    /// ages and RNG position (empty for the baselines).
    pub tuner_state: Vec<u8>,
    /// `OfflineTuning` tasks the pool ran: two per cost pair DOTIL
    /// measured (its graph run and its relational run), in covered waves
    /// and in the serial branch alike.
    /// `None` after a restart: a restore clears DOTIL's cost-pair memo by
    /// design, so the restored run measures again.
    pub tuning_tasks: Option<u64>,
    /// `PlanDesc` | `QueryProfile` deterministic JSON for every pool query
    /// on the final design. Routed policy only: the baselines' graph
    /// stores stay cold, so their plans are relational ones, which the
    /// routed cells plan too.
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
        compare!(
            digests,
            order,
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

pub fn fresh_dual() -> DualStore {
    let dataset = &workload().0;
    DualStore::from_dataset(dataset.clone(), dataset.len() / 4)
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
/// tuner, the runner, and the server when the cell is served.
struct Life {
    store: Arc<SharedStore>,
    tuner: Box<dyn PhysicalTuner + Send>,
    runner: ParallelRunner,
    server: Option<ServeHandle>,
}

impl Life {
    fn start(cell: &Cell) -> Life {
        let (mode, tuner): (_, Box<dyn PhysicalTuner + Send>) = match cell.policy {
            Policy::Routed => (ExecMode::Routed, Box::new(Dotil::new())),
            Policy::RelationalOnly => (ExecMode::RelationalOnly, Box::new(NoopTuner)),
            Policy::ViewAssisted => (ExecMode::ViewAssisted, Box::new(ViewTuner::new())),
        };
        let executor = BatchExecutor::new(cell.workers)
            .with_mode(mode)
            .with_outcomes(true);
        let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, executor);
        let store = Arc::new(SharedStore::new(fresh_dual()));
        let server = (cell.transport == Transport::Wire).then(|| {
            let sched = runner.executor.scheduler();
            Server::start(
                Arc::clone(&store),
                Arc::clone(sched),
                ServeConfig::default(),
            )
            .expect("bind equivalence server")
        });
        Life {
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
        match &self.server {
            None => {
                let report = self
                    .runner
                    .run(&self.store, self.tuner.as_mut(), one)
                    .remove(0);
                assert_eq!(report.errors, 0, "healthy run");
                let order = emission_order(report.outcomes.iter().flatten());
                fp.work.push(report.total_work());
                fp.digests.push(report.results_digest);
                fp.order.push(order);
                fp.rows.push(report.result_rows);
                fp.sim_tti_ns.push(report.sim_tti.as_nanos());
                fp.routes.push(report.routes);
                fp.tuning.push(report.tuning);
            }
            Some(server) => {
                let texts: Vec<String> = batch.iter().map(ToString::to_string).collect();
                let (digest, replies) =
                    serial_replay(server.local_addr(), &texts).expect("serial wire replay");
                let mut routes = RouteCounts::default();
                for reply in &replies {
                    assert!(reply.is_ok(), "query must serve: {:?}", reply.reason);
                    routes.record(route_named(&reply.route));
                }
                fp.digests.push(digest);
                let mut order = Vec::new();
                for reply in &replies {
                    push_rows(
                        &mut order,
                        reply.rows.len(),
                        reply.rows.iter().flatten().copied(),
                    );
                }
                fp.order.push(order);
                fp.rows
                    .push(replies.iter().map(|r| r.rows.len() as u64).sum());
                fp.work.push(replies.iter().map(|r| r.work_units).sum());
                fp.sim_tti_ns
                    .push(replies.iter().map(|r| u128::from(r.sim_latency_ns)).sum());
                fp.routes.push(routes);
                let (tuner, sched) = (&mut self.tuner, self.runner.executor.scheduler());
                fp.tuning.push(
                    self.store
                        .reconfigure(|dual| tuner.tune_with(dual, batch, Some(sched))),
                );
            }
        }
        fp.residency.push(
            self.store
                .read()
                .design()
                .graph_partitions
                .iter()
                .map(|&(p, triples)| (p.0, triples))
                .collect(),
        );
    }

    fn sched(&self) -> &Arc<Scheduler> {
        self.runner.executor.scheduler()
    }

    /// Checkpoint, drop this life, and restore into a fresh one.
    fn restart(self, cell: &Cell) -> Life {
        let snapshot = self.store.checkpoint(Some(&*self.tuner));
        drop(self);
        let mut life = Life::start(cell);
        let report = life
            .store
            .restore(Some(life.tuner.as_mut()), &snapshot)
            .expect("a checkpoint restores onto the same dataset");
        assert_eq!(
            report.epoch,
            life.store.epoch(),
            "{cell}: restore resumes the epoch"
        );
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
        if let Some(server) = &self.server {
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
    let sched = life.sched();
    if cell.workers > 1 {
        // The pool really carried the run.
        let executed = sched.stats().executed;
        if cell.transport == Transport::InProcess {
            let queries = executed.get(TaskClass::Query);
            assert!(queries > 0, "{cell}: queries run as pool tasks");
        }
        if cell.policy == Policy::Routed && cell.restart == Restart::No {
            let runs = executed.get(TaskClass::OfflineTuning);
            assert!(
                runs > 0,
                "{cell}: counterfactual runs are OfflineTuning tasks"
            );
        }
        assert_eq!(sched.threads(), cell.workers);
    }
    fp.tuner_state = life.tuner.export_state().unwrap_or_default();
    if cell.restart == Restart::No {
        fp.tuning_tasks = Some(sched.stats().executed.get(TaskClass::OfflineTuning));
    }
    if cell.policy == Policy::Routed {
        fp.plans = {
            let dual = life.store.read();
            let mut temp = TempSpace::new();
            batches
                .iter()
                .flatten()
                .map(|query| {
                    let out =
                        process_shared_explain(&dual, &mut temp, query, true).expect("query runs");
                    let plan = out.plan.expect("an explain run attaches a plan");
                    let profile = out.profile.expect("an explain run attaches a profile");
                    format!(
                        "{}|{}",
                        plan.deterministic_json(),
                        profile.deterministic_json()
                    )
                })
                .collect()
        };
    }
    fp
}

/// The reference fingerprint of `policy`, computed once per process.
pub fn reference(policy: Policy) -> &'static Fingerprint {
    static REFERENCES: [OnceLock<Fingerprint>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
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
        if policy == Policy::ViewAssisted {
            assert!(
                fp.routes.iter().any(|r| r.view_assisted > 0),
                "some query must be answered from a view"
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

/// Two and eight workers.
pub const TWO_AND_EIGHT_WORKERS: Block = Block {
    workers: &[2, 8],
    ..Block::ROUTED
};
/// Four workers.
pub const FOUR_WORKERS: Block = Block {
    workers: &[4],
    ..Block::ROUTED
};
/// The RDB-only baseline on eight workers.
pub const RELATIONAL_ONLY_POOLED: Block = Block {
    workers: &[8],
    ..Block::RELATIONAL_ONLY
};
/// The RDB-views baseline on four workers.
pub const VIEW_ASSISTED_POOLED: Block = Block {
    workers: &[4],
    ..Block::VIEW_ASSISTED
};
/// The server is a pure transport: served batches match in-process ones.
pub const WIRE_TRANSPORT: Block = Block {
    workers: &[1, 4, 8],
    transport: &[Transport::Wire],
    ..Block::ROUTED
};
/// A mid-run restart on one worker.
pub const MID_RUN_RESTART_ONE_WORKER: Block = Block {
    restart: &[MID],
    ..Block::ROUTED
};
/// A mid-run restart on two workers.
pub const MID_RUN_RESTART_TWO_WORKERS: Block = Block {
    workers: &[2],
    restart: &[MID],
    ..Block::ROUTED
};
/// A mid-run restart on four workers.
pub const MID_RUN_RESTART_FOUR_WORKERS: Block = Block {
    workers: &[4],
    restart: &[MID],
    ..Block::ROUTED
};
/// A restart at any batch boundary is invisible.
pub const RESTART_AT_EVERY_BATCH_BOUNDARY: Block = Block {
    workers: &[4],
    restart: EVERY_BOUNDARY,
    ..Block::ROUTED
};
/// Recording is observational only.
pub const RECORDING_ON: Block = Block {
    workers: &[1, 4, 8],
    ..Block::RECORDING
};
/// Recording across a restart.
pub const RECORDING_ON_ACROSS_A_RESTART: Block = Block {
    workers: &[4],
    restart: &[MID],
    ..Block::RECORDING
};
/// Recording, served, and served across a restart.
pub const RECORDING_ON_SERVED_AND_RESTARTED: Block = Block {
    workers: &[8],
    transport: &[Transport::Wire],
    restart: &[Restart::No, MID],
    ..Block::RECORDING
};
/// Recording on the baseline.
pub const RECORDING_ON_RELATIONAL_ONLY: Block = Block {
    policy: &[Policy::RelationalOnly],
    workers: &[8],
    ..Block::RECORDING
};

/// Every block of the grid.
pub const GRID: &[Block] = &[
    TWO_AND_EIGHT_WORKERS,
    FOUR_WORKERS,
    RELATIONAL_ONLY_POOLED,
    VIEW_ASSISTED_POOLED,
    WIRE_TRANSPORT,
    MID_RUN_RESTART_ONE_WORKER,
    MID_RUN_RESTART_TWO_WORKERS,
    MID_RUN_RESTART_FOUR_WORKERS,
    RESTART_AT_EVERY_BATCH_BOUNDARY,
    RECORDING_ON,
    RECORDING_ON_ACROSS_A_RESTART,
    RECORDING_ON_SERVED_AND_RESTARTED,
    RECORDING_ON_RELATIONAL_ONLY,
];
