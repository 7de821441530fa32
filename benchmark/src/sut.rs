//! The adapter: **every** call into the system under test lives here.
//!
//! The rest of kgbench sees plain numbers, byte buffers and the opaque
//! handles defined below, so an API change in a crate (collapsing the
//! `from_dataset_*` constructors, the `process*` entry points, the
//! `KGDUAL_VEC` switch, …) costs the benchmark this one file. Each crate is
//! entered through its plainest public entry point and left at its default
//! configuration: adjacency backend, one shard, vec on, `kgdual-obs` off.

use crate::reference::{RefQuery, RefTerm};
use kgdual_core::batch::TuningSchedule;
use kgdual_core::{DualStore, PhysicalTuner, QueryOutcome, ResultSet, Route as CoreRoute};
use kgdual_dotil::Dotil;
use kgdual_exec::{BatchExecutor, ParallelRunner, SchedShardDispatch, SharedStore};
use kgdual_graphstore::{AdjacencyBackend, GraphBackend};
use kgdual_model::{Dataset, NodeId, PredId, Term, Triple};
use kgdual_relstore::{ExecContext, ExecStats, RelStore, TempSpace};
use kgdual_sched::TaskClass;
use kgdual_serve::{json, proto, AdmissionController, ServeClient, ServeConfig, Server};
use kgdual_sparql::{Compiled, EncodedQuery, PredPattern, TermPattern};
use kgdual_workloads::{Family, Workload, YagoGen};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;

pub use kgdual_sched::Scheduler;
pub use kgdual_serve::ServeHandle;
pub use kgdual_sparql::Query;

/// The dual store every workload runs on.
pub type Dual = DualStore<AdjacencyBackend>;
/// Its shared-read / exclusive-reconfigure wrapper.
pub type Store = SharedStore<AdjacencyBackend>;

/// Seed of the data fixture. The dataset and the 20-query YAGO workload are
/// the same for every `--seed`: DOTIL's design (and with it the route mix)
/// depends on them, and a benchmark whose workload changes shape with the
/// seed cannot tell a regression from a different draw. `--seed` drives the
/// operation streams instead (see `ops.rs`).
pub const DATA_SEED: u64 = 42;

/// Graph budget = triples / 4: the paper's `r_BG` = 25 %.
const BUDGET_DIVISOR: usize = 4;

/// Remove every ambient `KGDUAL_*` variable so the crates run at their
/// defaults whatever the caller's shell exports. Returns what was removed.
pub fn pin_environment() -> Vec<String> {
    let ambient: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("KGDUAL_"))
        .collect();
    for key in &ambient {
        std::env::remove_var(key);
    }
    ambient
}

/// Which store(s) answered a query.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Route {
    Relational,
    Graph,
    Dual,
    /// `empty` / `view_assisted`: never taken by the benchmark's queries.
    Other,
}

impl Route {
    /// Index into `[relational, graph, dual]` counters; `None` for `Other`.
    pub fn index(self) -> Option<usize> {
        match self {
            Route::Relational => Some(0),
            Route::Graph => Some(1),
            Route::Dual => Some(2),
            Route::Other => None,
        }
    }
}

fn route_of(r: CoreRoute) -> Route {
    match r {
        CoreRoute::Relational => Route::Relational,
        CoreRoute::Graph => Route::Graph,
        CoreRoute::Dual => Route::Dual,
        _ => Route::Other,
    }
}

/// Deterministic work counters of one store.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub units: u64,
    pub rows_scanned: u64,
    pub index_probes: u64,
}

impl Work {
    fn of(s: &ExecStats) -> Self {
        Work {
            units: s.work_units(),
            rows_scanned: s.rows_scanned,
            index_probes: s.index_probes,
        }
    }
}

/// What the benchmark keeps of one executed query.
#[derive(Copy, Clone, Debug)]
pub struct OpSample {
    pub route: Route,
    /// `QueryOutcome::elapsed`.
    pub elapsed_ns: u64,
    pub rows: u64,
    pub rel: Work,
    pub graph: Work,
    /// `QueryOutcome::simulated_latency`.
    pub sim_ns: u64,
}

/// A query's full outcome, kept for decoding and row comparison.
pub struct Processed(QueryOutcome);

impl Processed {
    pub fn sample(&self) -> OpSample {
        sample_of(&self.0)
    }

    /// Result rows as raw ids, sorted (a multiset fingerprint).
    pub fn sorted_rows(&self) -> Vec<Vec<u32>> {
        let mut rows: Vec<Vec<u32>> = self
            .0
            .results
            .rows()
            .map(|r| r.iter().map(|c| c.0).collect())
            .collect();
        rows.sort_unstable();
        rows
    }
}

fn sample_of(out: &QueryOutcome) -> OpSample {
    OpSample {
        route: route_of(out.route),
        elapsed_ns: out.elapsed.as_nanos() as u64,
        rows: out.results.len() as u64,
        rel: Work::of(&out.rel_stats),
        graph: Work::of(&out.graph_stats),
        sim_ns: out.simulated_latency().as_nanos() as u64,
    }
}

// ---------------------------------------------------------------- data ----

/// The generated dataset plus the ordered 20-query YAGO workload.
pub struct Data {
    dataset: Dataset,
    queries: Vec<Query>,
}

/// Generate the YAGO-like fixture with about `target_triples` triples.
pub fn generate(target_triples: usize) -> Data {
    let gen = YagoGen::with_target_triples(target_triples, DATA_SEED);
    Data {
        dataset: gen.generate(),
        queries: gen.workload().ordered(),
    }
}

impl Data {
    pub fn triples(&self) -> usize {
        self.dataset.len()
    }

    pub fn dict_nodes(&self) -> usize {
        self.dataset.dict().node_count()
    }

    /// The ordered workload (each template followed by its mutations).
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Every triple as `(s, p, o)` ids, for the reference evaluator.
    pub fn id_triples(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.dataset.triples().map(|t| (t.s.0, t.p.0, t.o.0))
    }

    pub fn pred_iri(&self, pred: u32) -> String {
        self.dataset
            .dict()
            .pred(PredId(pred))
            .map(str::to_owned)
            .unwrap_or_default()
    }

    /// Size of one predicate's partition.
    pub fn partition_len(&self, pred: u32) -> usize {
        self.dataset.partitions().partition_len(PredId(pred))
    }

    /// A copy of the dataset for `build_store` to consume.
    pub fn copy(&self) -> DataCopy {
        DataCopy(self.dataset.clone())
    }

    /// A cold dual store over a copy of the dataset (nothing graph-resident).
    pub fn cold_store(&self) -> Dual {
        build_store(self.copy())
    }

    /// `q` over ids for the reference evaluator. `None` when a constant is
    /// not in the dictionary (the result is then empty by construction).
    pub fn ref_query(&self, q: &Query) -> Option<RefQuery> {
        let vars = q.pattern_vars();
        let var_ix =
            |v: &kgdual_sparql::Var| vars.iter().position(|x| x == v).expect("pattern var");
        let term = |t: &TermPattern| match t {
            TermPattern::Var(v) => Some(RefTerm::Var(var_ix(v))),
            TermPattern::Term(term) => self
                .dataset
                .dict()
                .node_id(term)
                .map(|n| RefTerm::Const(n.0)),
        };
        let mut patterns = Vec::with_capacity(q.patterns.len());
        for p in &q.patterns {
            let PredPattern::Iri(iri) = &p.p else {
                panic!("the benchmark's queries bind every predicate");
            };
            let pred = self.dataset.dict().pred_id(iri)?;
            patterns.push((term(&p.s)?, pred.0, term(&p.o)?));
        }
        Some(RefQuery {
            patterns,
            projection: q.projected_vars().iter().map(var_ix).collect(),
            nvars: vars.len(),
        })
    }
}

/// An owned dataset copy (`DualStore` construction consumes its dataset).
pub struct DataCopy(Dataset);

/// `DualStore::from_dataset_in` with the graph budget at a quarter of the data.
pub fn build_store(copy: DataCopy) -> Dual {
    let budget = copy.0.len() / BUDGET_DIVISOR;
    DualStore::from_dataset_in(copy.0, budget)
}

/// The ordered workload with its lookups re-drawn by `seed` from the lookup
/// template. Lookups are the only part of `batch_adaptive` a seed may change:
/// they have no complex subquery and never reach DOTIL, whereas reordering or
/// re-drawing the complex queries changes DOTIL's migrations (measured: a
/// within-batch shuffle moves a repetition's wall by ±7 %).
pub fn workload_with_lookups(data: &Data, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let template = YagoGen::with_target_triples(0, DATA_SEED)
        .templates()
        .into_iter()
        .find(|t| t.family == Family::Lookup)
        .expect("the YAGO workload has a lookup template");
    data.queries
        .iter()
        .map(|q| {
            if identify(q) {
                q.clone()
            } else {
                template.mutate(&mut rng)
            }
        })
        .collect()
}

/// Split into `n` near-equal batches (the paper uses 5).
pub fn batches(queries: &[Query], n: usize) -> Vec<Vec<Query>> {
    Workload::batches(queries, n)
}

pub fn query_text(q: &Query) -> String {
    q.to_string()
}

// --------------------------------------------------------- store, pool ----

pub fn warm_indexes(dual: &Dual) -> usize {
    dual.warm_rel_indexes()
}

pub fn share(dual: Dual) -> Arc<Store> {
    Arc::new(SharedStore::new(dual))
}

pub fn scheduler(threads: usize) -> Arc<Scheduler> {
    Arc::new(Scheduler::new(threads))
}

/// Run `f` under a read guard.
pub fn with_dual<R>(store: &Store, f: impl FnOnce(&Dual) -> R) -> R {
    f(&store.read())
}

/// `Scheduler::stats().submitted`, all classes.
pub fn sched_submitted(sched: &Scheduler) -> u64 {
    sched.stats().submitted.total()
}

/// `kgdual_vec::batches_emitted`.
pub fn vec_batches() -> u64 {
    kgdual_vec::batches_emitted()
}

/// The physical design, for equality checks and residency metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Design {
    /// `(predicate id, triples)` resident in the graph store, ascending.
    pub resident: Vec<(u32, usize)>,
    pub budget: usize,
    pub used: usize,
    pub total_triples: usize,
}

pub fn design(dual: &Dual) -> Design {
    let d = dual.design();
    Design {
        resident: d.graph_partitions.iter().map(|&(p, n)| (p.0, n)).collect(),
        budget: d.budget,
        used: d.used,
        total_triples: d.total_triples,
    }
}

/// Triples of `pred` in each store: `(relational, graph)`.
pub fn partition_lens(dual: &Dual, pred: u32) -> (usize, usize) {
    (
        dual.rel().partition_len(PredId(pred)),
        dual.graph().partition_len(PredId(pred)),
    )
}

// ------------------------------------------------------ adaptive batch ----

/// DOTIL with the paper's tuned hyperparameters.
pub struct Tuner(Dotil);

impl Tuner {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Tuner(Dotil::new())
    }

    pub fn trainings(&self) -> u64 {
        self.0.trainings()
    }
}

/// What one offline tuning epoch did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tuning {
    pub migrated: u64,
    pub evicted: u64,
    pub triples_in: u64,
    pub offline_work: u64,
}

fn tuning_of(t: &kgdual_core::TuningOutcome) -> Tuning {
    Tuning {
        migrated: t.migrated as u64,
        evicted: t.evicted as u64,
        triples_in: t.triples_in,
        offline_work: t.offline_work,
    }
}

/// One executed batch and the tuning epoch that followed it.
#[derive(Clone, Debug, Default)]
pub struct BatchRecord {
    /// `ParallelBatchReport::wall`: the batch's share of the paper's TTI.
    pub wall_ns: u64,
    pub sim_ns: u64,
    pub errors: u64,
    pub samples: Vec<OpSample>,
    pub tuning: Tuning,
}

fn record_of(report: &kgdual_exec::ParallelBatchReport) -> BatchRecord {
    BatchRecord {
        wall_ns: report.wall.as_nanos() as u64,
        sim_ns: report.sim_tti.as_nanos() as u64,
        errors: report.errors as u64,
        samples: report.outcomes.iter().flatten().map(sample_of).collect(),
        tuning: tuning_of(&report.tuning),
    }
}

fn executor(sched: &Arc<Scheduler>) -> BatchExecutor {
    BatchExecutor::with_scheduler(Arc::clone(sched)).with_outcomes(true)
}

/// The paper's experiment: batches online, DOTIL after each batch.
pub fn run_adaptive(
    store: &Store,
    sched: &Arc<Scheduler>,
    tuner: &mut Tuner,
    batches: &[Vec<Query>],
) -> Vec<BatchRecord> {
    let runner = ParallelRunner::new(TuningSchedule::AfterEachBatch, executor(sched));
    runner
        .run(store, &mut tuner.0, batches)
        .iter()
        .map(record_of)
        .collect()
}

/// What `ParallelRunner::run` does before its first batch on a multi-thread
/// pool; the traced replay of the runner's loop starts with it.
pub fn prepare_parallel(store: &Store, sched: &Arc<Scheduler>) {
    if sched.threads() > 1 {
        store.install_shard_dispatch(Arc::new(SchedShardDispatch::new(Arc::clone(sched))));
        store.read().warm_rel_indexes();
    }
}

/// One online batch (`BatchExecutor::execute_batch`), tuning left to the caller.
pub fn execute_batch(store: &Store, sched: &Arc<Scheduler>, batch: &[Query]) -> BatchRecord {
    record_of(&executor(sched).execute_batch(store, batch))
}

/// One tuning epoch under the write lock, as the runner does after a batch.
pub fn tune_epoch(store: &Store, sched: &Scheduler, tuner: &mut Tuner, batch: &[Query]) -> Tuning {
    let out = store.reconfigure(|dual| tuner.0.tune_with(dual, batch, Some(sched)));
    tuning_of(&out)
}

// -------------------------------------------------------- persistence ----

pub fn checkpoint(store: &Store, tuner: &Tuner) -> Vec<u8> {
    store
        .checkpoint(Some(&tuner.0 as &dyn PhysicalTuner<AdjacencyBackend>))
        .to_vec()
}

/// Restore design and tuner state onto `store` (a cold store over the same
/// dataset). Returns the restored tuner.
pub fn restore(store: &Store, snapshot: &[u8]) -> Result<Tuner, String> {
    let mut tuner = Tuner::new();
    store
        .restore(
            Some(&mut tuner.0 as &mut dyn PhysicalTuner<AdjacencyBackend>),
            snapshot,
        )
        .map_err(|e| format!("{e:?}"))?;
    Ok(tuner)
}

// -------------------------------------------------------------- serve ----

pub fn start_server(store: Arc<Store>, sched: Arc<Scheduler>) -> std::io::Result<ServeHandle> {
    Server::start(store, sched, ServeConfig::default())
}

/// `(max_pending, rejected, failed)` since the server started.
pub fn server_counts(server: &ServeHandle) -> (u64, u64, u64) {
    let s = server.stats();
    let rejected =
        s.rejected_queue_full + s.rejected_fair_share + s.rejected_deadline + s.rejected_draining;
    (
        server.max_pending() as u64,
        rejected,
        s.failed + s.http_errors,
    )
}

/// The exact bytes `ServeClient` puts on the wire for one `/query`.
pub fn request_bytes(client_id: &str, query_text: &str) -> Vec<u8> {
    let body = format!(
        "{{\"client\":{},\"query\":{}}}",
        json::escape(client_id),
        json::escape(query_text)
    );
    let mut wire = format!(
        "POST /query HTTP/1.1\r\nHost: kgdual\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// One query through the crate's own fully-parsing client (verification
/// only; timed loops use `client::RawClient`). Rows come back sorted.
pub struct WireChecker(ServeClient);

impl WireChecker {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        ServeClient::connect(addr, "verify").map(WireChecker)
    }

    pub fn sorted_rows(&mut self, query_text: &str) -> Result<Vec<Vec<u32>>, String> {
        let reply = self.0.query(query_text, None).map_err(|e| e.to_string())?;
        if !reply.is_ok() {
            return Err(format!("status {} {:?}", reply.http_status, reply.reason));
        }
        let mut rows = reply.rows;
        rows.sort_unstable();
        Ok(rows)
    }
}

// ------------------------------------------------ per-layer replay steps ----

/// `proto::read_request` over the request bytes; returns the body.
pub fn proto_read(wire: &[u8]) -> Vec<u8> {
    proto::read_request(&mut std::io::Cursor::new(wire))
        .expect("replayed request parses")
        .body
}

/// `json::parse` of a request body; returns the query text it carries.
pub fn json_parse(body: &[u8]) -> String {
    let text = std::str::from_utf8(body).expect("request bodies are UTF-8");
    let parsed = json::parse(text).expect("replayed body parses");
    parsed
        .get("query")
        .and_then(json::Json::as_str)
        .expect("body carries a query")
        .to_owned()
}

/// An admission controller with the serving default policy.
pub struct Gate(AdmissionController);

impl Gate {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Gate(AdmissionController::new(ServeConfig::default().admission))
    }

    /// `try_admit` + `release`, as one request pays them.
    pub fn admit_release(&self, client: &str) {
        let _ = self.0.try_admit(client);
        self.0.release(client);
    }
}

/// `Scheduler::scope` with one no-op `Query` task: the hand-off a served
/// request pays to reach a worker and be waited for.
pub fn sched_handoff(sched: &Scheduler) {
    sched.scope(|s| s.spawn(TaskClass::Query, || ()));
}

pub fn parse(text: &str) -> Query {
    kgdual_sparql::parse(text).expect("benchmark queries parse")
}

/// A compiled query (`None`: provably empty).
pub struct Encoded(EncodedQuery);

pub fn compile(dual: &Dual, q: &Query) -> Option<Encoded> {
    match kgdual_sparql::compile(q, dual.dict()).expect("benchmark queries compile") {
        Compiled::Query(eq) => Some(Encoded(eq)),
        Compiled::EmptyResult => None,
    }
}

/// Whether the query has a complex subquery.
pub fn identify(q: &Query) -> bool {
    kgdual_core::identify(q).is_some()
}

/// A worker's temporary table space.
#[derive(Default)]
pub struct Temp(TempSpace);

/// The routed online path.
pub fn process(dual: &Dual, temp: &mut Temp, q: &Query) -> Result<Processed, String> {
    kgdual_core::process_shared(dual, &mut temp.0, q)
        .map(Processed)
        .map_err(|e| format!("{e:?}"))
}

/// The relational-only path.
pub fn process_relational(dual: &Dual, q: &Query) -> Result<Processed, String> {
    kgdual_core::process_relational(dual, q)
        .map(Processed)
        .map_err(|e| format!("{e:?}"))
}

/// `RelStore::execute` alone.
pub fn rel_execute(dual: &Dual, q: &Encoded) -> Work {
    let mut ctx = ExecContext::with_governor(dual.governor());
    let rows = dual
        .rel()
        .execute(&q.0, &mut ctx)
        .expect("relational execute");
    std::hint::black_box(rows);
    Work::of(&ctx.stats)
}

/// `GraphBackend::execute` alone (every predicate must be resident).
pub fn graph_execute(dual: &Dual, q: &Encoded) -> Work {
    let mut ctx = ExecContext::with_governor(dual.governor());
    let rows = dual.graph().execute(&q.0, &mut ctx).expect("graph execute");
    std::hint::black_box(rows);
    Work::of(&ctx.stats)
}

/// `ResultSet::decode`; returns the row count.
pub fn decode(dual: &Dual, out: &Processed) -> usize {
    ResultSet::decode(&out.0, dual.dict()).len()
}

// -------------------------------------------------------------- writes ----

/// An encoded triple `(s, p, o)`.
pub type IdTriple = (u32, u32, u32);

fn triple(t: IdTriple) -> Triple {
    Triple::new(NodeId(t.0), PredId(t.1), NodeId(t.2))
}

/// `SharedStore::reconfigure` + `DualStore::insert_terms`.
pub fn insert(store: &Store, s: &str, p: &str, o: &str) -> Result<IdTriple, String> {
    store
        .reconfigure(|dual| dual.insert_terms(&Term::iri(s), p, &Term::iri(o)))
        .map(|t| (t.s.0, t.p.0, t.o.0))
        .map_err(|e| format!("{e:?}"))
}

/// `SharedStore::reconfigure` + `DualStore::delete`; relational rows removed.
pub fn delete(store: &Store, t: IdTriple) -> usize {
    store.reconfigure(|dual| dual.delete(triple(t)))
}

/// An empty reconfiguration: the write lock and epoch bump alone.
pub fn reconfigure_noop(store: &Store) {
    store.reconfigure(|_| ());
}

/// Each store on its own, holding only the written partitions, so one
/// write's cost can be split by layer from outside `DualStore`.
pub struct LayerStores {
    rel: RelStore,
    graph: AdjacencyBackend,
}

impl LayerStores {
    pub fn load(data: &Data, preds: &[u32]) -> Self {
        let mut rel = RelStore::new();
        let mut graph = AdjacencyBackend::with_budget(usize::MAX);
        for &p in preds {
            let pairs = data
                .dataset
                .partitions()
                .get(PredId(p))
                .map(|part| part.pairs().to_vec())
                .unwrap_or_default();
            rel.load_partition(PredId(p), &pairs);
            graph
                .load_partition(PredId(p), &pairs)
                .expect("an unbounded budget fits every partition");
        }
        LayerStores { rel, graph }
    }

    pub fn rel_insert(&mut self, t: IdTriple) {
        self.rel.insert(triple(t));
    }

    pub fn rel_delete(&mut self, t: IdTriple) -> usize {
        self.rel.delete(triple(t))
    }

    pub fn graph_insert(&mut self, t: IdTriple) {
        self.graph
            .insert_edge(triple(t))
            .expect("resident partition");
    }

    pub fn graph_delete(&mut self, t: IdTriple) -> usize {
        self.graph.delete_edge(triple(t))
    }
}
