//! The query processor (§5, Algorithm 3).
//!
//! Given a query and its complex subquery (if any), route execution:
//!
//! * **Case 1** — the graph store covers *all* predicates of the query:
//!   run the whole query by traversal.
//! * **Case 2** — the graph store covers the complex subquery's
//!   predicates: run the subquery by traversal, migrate its intermediate
//!   results into the temporary relational table space, and finish the
//!   remainder in the relational store.
//! * **Case 3** — otherwise: run everything in the relational store.
//!
//! [`process`] is the one way to run a query. Its [`Options`] choose the
//! store variant ([`Policy`]): `RDB-GDB` routes as above, `RDB-only`
//! runs everything relationally, and `RDB-views` answers the complex
//! subquery from a materialized view when one matches, with the remainder
//! joined relationally. Each policy can attach an `EXPLAIN` plan.
//!
//! # Concurrency model
//!
//! [`process`] is **read-only on the store**: the physical design
//! `D = ⟨T_R, T_G⟩` never changes during the online phase (§4.2 separates
//! online processing from offline tuning), and the §3.3 temporary
//! relational table space is a local of the query that runs Case 2. Any
//! number of queries may therefore execute concurrently against one
//! `&DualStore`, while migration and tuning take `&mut DualStore` and are
//! thereby excluded by the borrow checker (or, across threads, by the
//! `kgdual-exec` crate's reconfiguration epoch).

use crate::dual::DualStore;
use crate::error::CoreError;
use crate::identifier::{identify, ComplexSubquery};
use kgdual_graphstore::GraphBackend;
use kgdual_relstore::{Bindings, ExecContext, ExecStats, TempSpace};
use kgdual_sparql::{compile, Compiled, EncodedQuery, PredSlot, Query, Var, VarId};
use kgdual_vec::plan::{self, OpKind};
use std::time::{Duration, Instant};

/// Which path a query took through the dual store.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Whole query in the relational store (Case 3 / no complex subquery).
    Relational,
    /// Whole query in the graph store (Case 1).
    Graph,
    /// Complex subquery in the graph store, remainder relational (Case 2).
    Dual,
    /// Complex subquery answered from a materialized view (`RDB-views`).
    ViewAssisted,
    /// Result was provably empty at compile time.
    Empty,
}

impl Route {
    /// Stable lowercase name (the wire spelling and the EXPLAIN plan's
    /// `route` field).
    pub fn name(self) -> &'static str {
        match self {
            Route::Relational => "relational",
            Route::Graph => "graph",
            Route::Dual => "dual",
            Route::ViewAssisted => "view_assisted",
            Route::Empty => "empty",
        }
    }
}

/// Everything measured about one query execution.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Final result rows.
    pub results: Bindings,
    /// Names of the projected variables, aligned with result columns.
    pub vars: Vec<Var>,
    /// Variables that bind *predicates* (their values decode via the
    /// predicate dictionary, not the node dictionary).
    pub pred_vars: Vec<Var>,
    /// The route taken.
    pub route: Route,
    /// Wall-clock latency of the online phase.
    pub elapsed: Duration,
    /// Work performed in the relational store.
    pub rel_stats: ExecStats,
    /// Work performed in the graph store.
    pub graph_stats: ExecStats,
    /// Whether a complex subquery was identified.
    pub had_complex_subquery: bool,
    /// The `EXPLAIN` plan: operator tree with the cost-model estimates
    /// that chose it. Present when a plan capture was active (explain
    /// requested or observability recording on).
    pub plan: Option<kgdual_vec::PlanDesc>,
    /// The `EXPLAIN ANALYZE` profile, index-parallel to `plan`.
    pub profile: Option<kgdual_vec::QueryProfile>,
}

impl QueryOutcome {
    /// Deterministic total cost surrogate across both stores.
    pub fn total_work(&self) -> u64 {
        self.rel_stats.work_units() + self.graph_stats.work_units()
    }

    /// Calibrated simulated latency (see
    /// [`kgdual_relstore::exec::context::REL_NANOS_PER_WORK_UNIT`]):
    /// relational work is charged at the disk-based-RDBMS rate, graph work
    /// at the native-store rate. Deterministic, so it is the primary TTI
    /// metric of the reproduction harness.
    pub fn simulated_latency(&self) -> Duration {
        use kgdual_relstore::exec::context::{GRAPH_NANOS_PER_WORK_UNIT, REL_NANOS_PER_WORK_UNIT};
        self.rel_stats.simulated(REL_NANOS_PER_WORK_UNIT)
            + self.graph_stats.simulated(GRAPH_NANOS_PER_WORK_UNIT)
    }
}

/// Predicate-variable names of a compiled query.
fn pred_vars(eq: &EncodedQuery) -> Vec<Var> {
    let mut ids: Vec<VarId> = Vec::new();
    for p in &eq.patterns {
        if let PredSlot::Var(v) = p.p {
            if !ids.contains(&v) {
                ids.push(v);
            }
        }
    }
    ids.into_iter()
        .map(|v| eq.vars[v as usize].clone())
        .collect()
}

/// The route-specific pieces of one execution; [`process`] turns them
/// into a [`QueryOutcome`].
struct RoutedRun {
    route: Route,
    results: Bindings,
    rel_stats: ExecStats,
    graph_stats: ExecStats,
    had_complex_subquery: bool,
}

/// Build the encoded subquery for the complex part: it projects every
/// subquery variable that the remainder or the final projection needs.
fn complex_subquery_encoded(
    eq: &EncodedQuery,
    qc: &ComplexSubquery,
    query: &Query,
) -> EncodedQuery {
    let qc_var_ids: Vec<VarId> = {
        let mut ids = Vec::new();
        for &i in &qc.pattern_indexes {
            for v in eq.patterns[i].vars() {
                if !ids.contains(&v) {
                    ids.push(v);
                }
            }
        }
        ids
    };
    let remainder_idx = qc.remainder_indexes(query);
    let mut needed: Vec<VarId> = Vec::new();
    for &i in &remainder_idx {
        for v in eq.patterns[i].vars() {
            if qc_var_ids.contains(&v) && !needed.contains(&v) {
                needed.push(v);
            }
        }
    }
    for &v in &eq.projection {
        if qc_var_ids.contains(&v) && !needed.contains(&v) {
            needed.push(v);
        }
    }
    // Keep at least one column so emptiness is observable.
    if needed.is_empty() {
        if let Some(&first) = qc_var_ids.first() {
            needed.push(first);
        }
    }
    eq.subquery(&qc.pattern_indexes, needed)
}

/// Which of the paper's three store variants answers a query.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Policy {
    /// `RDB-GDB`: Algorithm 3's routing over both stores.
    #[default]
    Routed,
    /// `RDB-only`: the relational store alone.
    RelationalOnly,
    /// `RDB-views`: the complex subquery is answered from a materialized
    /// view in the store's catalog ([`DualStore::views`]) when one
    /// matches, and the remainder is joined relationally.
    ViewAssisted,
}

/// How [`process`] runs one query.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Options {
    /// The store variant that answers it.
    pub policy: Policy,
    /// Attach the `EXPLAIN` plan and profile to the outcome. A capture
    /// also runs whenever observability recording is on, so `/metrics`
    /// sees estimate-vs-actual q-errors in steady state.
    pub explain: bool,
}

/// Run `query` on the dual store under `opts.policy`.
///
/// `dual` is only read, so any number of callers may run queries on one
/// `&DualStore` at once. A capture never changes what executes: results,
/// routes and work units are byte-identical with it on or off.
pub fn process<B: GraphBackend>(
    dual: &DualStore<B>,
    query: &Query,
    opts: Options,
) -> Result<QueryOutcome, CoreError> {
    let t0 = Instant::now();
    let capture = opts.explain || kgdual_obs::enabled();
    if capture {
        kgdual_vec::plan::begin_capture();
    }
    let result = run(dual, query, opts.policy);
    let captured = if capture {
        kgdual_vec::plan::end_capture()
    } else {
        None
    };
    let (pred_vars, run) = result?;
    let mut out = QueryOutcome {
        results: run.results,
        vars: query.projected_vars(),
        pred_vars,
        route: run.route,
        elapsed: t0.elapsed(),
        rel_stats: run.rel_stats,
        graph_stats: run.graph_stats,
        had_complex_subquery: run.had_complex_subquery,
        plan: None,
        profile: None,
    };
    if let Some(cap) = captured {
        if kgdual_obs::enabled() {
            kgdual_vec::plan::record_q_errors(&cap.steps, &cap.ops);
        }
        out.profile = Some(kgdual_vec::QueryProfile {
            ops: cap.ops,
            total_work: out.total_work(),
            total_wall_ns: out.elapsed.as_nanos() as u64,
        });
        out.plan = Some(kgdual_vec::PlanDesc {
            route: out.route.name(),
            steps: cap.steps,
        });
    }
    Ok(out)
}

/// Kept only because kgbench links it (`benchmark/src/sut.rs`):
/// [`process`] with the routed policy. ROADMAP 14(c) deletes it.
pub fn process_shared<B: GraphBackend>(
    dual: &DualStore<B>,
    _temp: &mut TempSpace,
    query: &Query,
) -> Result<QueryOutcome, CoreError> {
    process(dual, query, Options::default())
}

/// Kept only because kgbench links it (`benchmark/src/sut.rs`):
/// [`process`] with the relational-only policy. ROADMAP 14(c) deletes it.
pub fn process_relational<B: GraphBackend>(
    dual: &DualStore<B>,
    query: &Query,
) -> Result<QueryOutcome, CoreError> {
    process(
        dual,
        query,
        Options {
            policy: Policy::RelationalOnly,
            explain: false,
        },
    )
}

/// The part of [`process`] a capture spans: identify, compile, then run
/// the policy. Returns the predicate variables beside the run.
fn run<B: GraphBackend>(
    dual: &DualStore<B>,
    query: &Query,
    policy: Policy,
) -> Result<(Vec<Var>, RoutedRun), CoreError> {
    let qc = identify(query);
    let eq = match compile(query, dual.dict())? {
        Compiled::Query(eq) => eq,
        Compiled::EmptyResult => {
            let run = RoutedRun {
                route: Route::Empty,
                results: Bindings::new(vec![]),
                rel_stats: ExecStats::default(),
                graph_stats: ExecStats::default(),
                had_complex_subquery: false,
            };
            return Ok((vec![], run));
        }
    };
    let run = match policy {
        Policy::Routed => routed_run(dual, query, &eq, qc)?,
        Policy::RelationalOnly => relational_run(dual, &eq, qc.is_some())?,
        Policy::ViewAssisted => view_run(dual, &eq, qc)?,
    };
    Ok((pred_vars(&eq), run))
}

/// The patterns `rest` of `eq`, with its projection, DISTINCT and LIMIT:
/// what the relational store finishes after a seed.
fn remainder(eq: &EncodedQuery, rest: &[usize]) -> EncodedQuery {
    EncodedQuery {
        distinct: eq.distinct,
        limit: eq.limit,
        ..eq.subquery(rest, eq.projection.clone())
    }
}

/// Run the whole encoded query in the relational store.
fn relational_run<B: GraphBackend>(
    dual: &DualStore<B>,
    eq: &EncodedQuery,
    had_complex_subquery: bool,
) -> Result<RoutedRun, CoreError> {
    let mut ctx = ExecContext::new();
    let results = dual.rel().execute(eq, &mut ctx)?;
    Ok(RoutedRun {
        route: Route::Relational,
        results,
        rel_stats: ctx.stats,
        graph_stats: ExecStats::default(),
        had_complex_subquery,
    })
}

/// Algorithm 3 (the `RDB-GDB` variant).
fn routed_run<B: GraphBackend>(
    dual: &DualStore<B>,
    query: &Query,
    eq: &EncodedQuery,
    qc: Option<ComplexSubquery>,
) -> Result<RoutedRun, CoreError> {
    let Some(qc) = qc else {
        // No complex subquery: relational (Algorithm 3, lines 1-2).
        return relational_run(dual, eq, false);
    };

    let all_preds = eq.predicate_set();
    let qc_eq = complex_subquery_encoded(eq, &qc, query);
    let qc_preds = qc_eq.predicate_set();

    // Case 1: the graph store covers the whole query (variable predicates
    // can never be covered — the graph holds only a share of the data).
    if !eq.has_var_pred() && dual.graph().covers(&all_preds) {
        let mut ctx = ExecContext::new();
        let results = dual.graph().execute(eq, &mut ctx)?;
        return Ok(RoutedRun {
            route: Route::Graph,
            results,
            rel_stats: ExecStats::default(),
            graph_stats: ctx.stats,
            had_complex_subquery: true,
        });
    }

    // Case 2: the graph store covers the complex subquery. Guard against
    // intermediate-result blowup first (an extension over the paper's
    // purely rule-based router, ablation D6 in the README): running the
    // subquery in isolation forfeits selective constants in the remainder,
    // so when the subquery's estimated cardinality dwarfs the full query's,
    // the relational plan is the better one.
    let case2_safe = || {
        if !dual.case2_guard() {
            return true;
        }
        let mut stats_of = |p| dual.rel().stats(p);
        let total = dual.rel().total_triples();
        let qc_rows = kgdual_relstore::planner::estimate_result_rows(&qc_eq, &mut stats_of, total);
        let full_rows = kgdual_relstore::planner::estimate_result_rows(eq, &mut stats_of, total);
        qc_rows <= 4.0 * full_rows.max(256.0)
    };
    if dual.graph().covers(&qc_preds) && case2_safe() {
        let mut gctx = ExecContext::new();
        // The §3.3 temporary relational table space: the intermediate is
        // a local of this query, read in place by the remainder and
        // discarded when the query ends.
        let intermediate = dual.graph().execute(&qc_eq, &mut gctx)?;
        let remainder = remainder(eq, &qc.remainder_indexes(query));
        let mut rctx = ExecContext::new();
        let results = dual
            .rel()
            .execute_with_seed(&remainder, &intermediate, &mut rctx)?;
        return Ok(RoutedRun {
            route: Route::Dual,
            results,
            rel_stats: rctx.stats,
            graph_stats: gctx.stats,
            had_complex_subquery: true,
        });
    }

    // Case 3: relational only.
    relational_run(dual, eq, true)
}

/// The `RDB-views` variant: when the complex subquery matches a view in
/// the store's catalog, answer that fragment from the view and join the
/// remainder relationally. The view read is one plan step (`view_scan`),
/// whose estimate and actual rows are the fragment's rows: a view is
/// materialized, so its cardinality is known exactly.
fn view_run<B: GraphBackend>(
    dual: &DualStore<B>,
    eq: &EncodedQuery,
    qc: Option<ComplexSubquery>,
) -> Result<RoutedRun, CoreError> {
    let Some(qc) = qc else {
        return relational_run(dual, eq, false);
    };
    let v0 = Instant::now();
    let mut vctx = ExecContext::new();
    let Some((covered, view_vars, rows)) =
        dual.views().answer(&qc.patterns, dual.dict(), &mut vctx)?
    else {
        return relational_run(dual, eq, true);
    };
    // Rebadge view columns into this query's variable ids.
    let ids: Option<Vec<VarId>> = view_vars
        .iter()
        .map(|v| eq.vars.iter().position(|x| x == v).map(|i| i as VarId))
        .collect();
    let Some(ids) = ids else {
        return relational_run(dual, eq, true);
    };
    let seed = rows.renamed(ids);
    // The fragment covers two of the complex subquery's patterns;
    // everything else still runs relationally, joined against the
    // fragment rows.
    let covered_q: Vec<usize> = covered.iter().map(|&k| qc.pattern_indexes[k]).collect();
    let fragment_rows = seed.len() as u64;
    let step = plan::note_step(
        "view_scan",
        OpKind::Scan,
        covered_q[0],
        fragment_rows as f64,
    );
    plan::note_actual(
        step,
        fragment_rows,
        vctx.stats.work_units(),
        v0.elapsed().as_nanos() as u64,
    );
    let rest: Vec<usize> = (0..eq.patterns.len())
        .filter(|i| !covered_q.contains(i))
        .collect();
    let remainder = remainder(eq, &rest);
    let mut rctx = ExecContext::new();
    let results = dual.rel().execute_with_seed(&remainder, &seed, &mut rctx)?;
    vctx.stats.merge(&rctx.stats);
    Ok(RoutedRun {
        route: Route::ViewAssisted,
        results,
        rel_stats: vctx.stats,
        graph_stats: ExecStats::default(),
        had_complex_subquery: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::{DatasetBuilder, Term};
    use kgdual_sparql::parse;

    const ADVISOR_QUERY: &str = "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }";

    const FULL_QUERY: &str = "SELECT ?g WHERE { ?p y:hasGivenName ?g . ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }";

    fn dual() -> DualStore {
        let mut b = DatasetBuilder::new();
        let add = |b: &mut DatasetBuilder, s: &str, p: &str, o: &str| {
            b.add_terms(&Term::iri(s), p, &Term::iri(o));
        };
        add(&mut b, "y:Einstein", "y:wasBornIn", "y:Ulm");
        add(&mut b, "y:Weber", "y:wasBornIn", "y:Ulm");
        add(&mut b, "y:Einstein", "y:hasAcademicAdvisor", "y:Weber");
        add(&mut b, "y:Feynman", "y:wasBornIn", "y:NYC");
        add(&mut b, "y:Wheeler", "y:wasBornIn", "y:Jacksonville");
        add(&mut b, "y:Feynman", "y:hasAcademicAdvisor", "y:Wheeler");
        add(&mut b, "y:Einstein", "y:hasGivenName", "y:Albert");
        add(&mut b, "y:Feynman", "y:hasGivenName", "y:Richard");
        DualStore::from_dataset(b.build(), 1000)
    }

    fn options(policy: Policy, explain: bool) -> Options {
        Options { policy, explain }
    }

    fn einstein(dual: &DualStore) -> kgdual_model::NodeId {
        dual.dict().node_id(&Term::iri("y:Einstein")).unwrap()
    }

    #[test]
    fn case3_cold_graph_routes_relational() {
        let d = dual();
        let q = parse(ADVISOR_QUERY).unwrap();
        let out = process(&d, &q, Options::default()).unwrap();
        assert_eq!(out.route, Route::Relational);
        assert!(out.had_complex_subquery);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results.row(0)[0], einstein(&d));
        assert!(out.graph_stats.work_units() == 0);
    }

    #[test]
    fn case1_full_coverage_routes_graph() {
        let mut d = dual();
        for pred in ["y:wasBornIn", "y:hasAcademicAdvisor"] {
            let p = d.dict().pred_id(pred).unwrap();
            d.migrate_partition(p).unwrap();
        }
        let q = parse(ADVISOR_QUERY).unwrap();
        let out = process(&d, &q, Options::default()).unwrap();
        assert_eq!(out.route, Route::Graph);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results.row(0)[0], einstein(&d));
        assert!(out.rel_stats.work_units() == 0);
        assert!(out.graph_stats.work_units() > 0);
    }

    #[test]
    fn case2_partial_coverage_spans_both_stores() {
        let mut d = dual();
        // Cover the complex subquery's predicates but NOT hasGivenName.
        for pred in ["y:wasBornIn", "y:hasAcademicAdvisor"] {
            let p = d.dict().pred_id(pred).unwrap();
            d.migrate_partition(p).unwrap();
        }
        let q = parse(FULL_QUERY).unwrap();
        let out = process(&d, &q, Options::default()).unwrap();
        assert_eq!(out.route, Route::Dual);
        assert_eq!(out.results.len(), 1);
        let albert = d.dict().node_id(&Term::iri("y:Albert")).unwrap();
        assert_eq!(out.results.row(0)[0], albert);
        assert!(out.graph_stats.work_units() > 0, "subquery ran on graph");
        assert!(out.rel_stats.work_units() > 0, "remainder ran relationally");
    }

    #[test]
    fn routes_agree_on_results() {
        // The same query must produce identical rows via all three cases.
        let q = parse(FULL_QUERY).unwrap();
        let cold = dual();
        let r3 = process(&cold, &q, Options::default()).unwrap();

        let mut partial = dual();
        for pred in ["y:wasBornIn", "y:hasAcademicAdvisor"] {
            let p = partial.dict().pred_id(pred).unwrap();
            partial.migrate_partition(p).unwrap();
        }
        let r2 = process(&partial, &q, Options::default()).unwrap();

        let mut full = dual();
        for pred in ["y:wasBornIn", "y:hasAcademicAdvisor", "y:hasGivenName"] {
            let p = full.dict().pred_id(pred).unwrap();
            full.migrate_partition(p).unwrap();
        }
        let r1 = process(&full, &q, Options::default()).unwrap();
        assert_eq!(r1.route, Route::Graph);
        assert_eq!(r2.route, Route::Dual);
        assert_eq!(r3.route, Route::Relational);

        let mut rows1 = r1.results.clone();
        let mut rows2 = r2.results.clone();
        let mut rows3 = r3.results.clone();
        rows1.sort_rows();
        rows2.sort_rows();
        rows3.sort_rows();
        assert_eq!(rows1, rows2);
        assert_eq!(rows2, rows3);
    }

    #[test]
    fn simple_query_never_touches_graph() {
        let mut d = dual();
        let p = d.dict().pred_id("y:wasBornIn").unwrap();
        d.migrate_partition(p).unwrap();
        let q = parse("SELECT ?p WHERE { ?p y:hasGivenName ?g }").unwrap();
        let out = process(&d, &q, Options::default()).unwrap();
        assert_eq!(out.route, Route::Relational);
        assert!(!out.had_complex_subquery);
    }

    #[test]
    fn unknown_constant_is_empty_route() {
        let d = dual();
        let q = parse("SELECT ?p WHERE { ?p y:wasBornIn y:Atlantis }").unwrap();
        let out = process(&d, &q, Options::default()).unwrap();
        assert_eq!(out.route, Route::Empty);
        assert!(out.results.is_empty());
    }

    #[test]
    fn concurrent_shared_reads_agree_with_serial() {
        // The read-only path must be usable from multiple threads over one
        // `&DualStore` and agree with the serial result row for row.
        let mut d = dual();
        for pred in ["y:wasBornIn", "y:hasAcademicAdvisor"] {
            let p = d.dict().pred_id(pred).unwrap();
            d.migrate_partition(p).unwrap();
        }
        let q = parse(FULL_QUERY).unwrap();
        let serial = process(&d, &q, Options::default()).unwrap();
        let outs: Vec<QueryOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (d, q) = (&d, &q);
                    scope.spawn(move || process(d, q, Options::default()).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in outs {
            assert_eq!(out.route, Route::Dual);
            assert_eq!(out.results, serial.results);
            assert_eq!(out.total_work(), serial.total_work());
        }
    }

    #[test]
    fn views_route_answers_complex_subquery() {
        let mut d = dual();
        let q = parse(FULL_QUERY).unwrap();
        let qc = identify(&q).unwrap();
        d.views_mut().observe(&qc.patterns);
        d.rebuild_views();
        let out = process(&d, &q, options(Policy::ViewAssisted, false)).unwrap();
        assert_eq!(out.route, Route::ViewAssisted);
        assert_eq!(out.results.len(), 1);
        let albert = d.dict().node_id(&Term::iri("y:Albert")).unwrap();
        assert_eq!(out.results.row(0)[0], albert);
    }

    #[test]
    fn views_route_falls_back_without_matching_view() {
        let d = dual();
        let q = parse(FULL_QUERY).unwrap();
        let out = process(&d, &q, options(Policy::ViewAssisted, false)).unwrap();
        assert_eq!(out.route, Route::Relational);
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn every_policy_explains() {
        let mut d = dual();
        let q = parse(FULL_QUERY).unwrap();
        let qc = identify(&q).unwrap();
        d.views_mut().observe(&qc.patterns);
        d.rebuild_views();
        let (_, _, fragment) = d
            .views()
            .answer(&qc.patterns, d.dict(), &mut ExecContext::new())
            .unwrap()
            .expect("a view matches");

        let out = process(&d, &q, options(Policy::ViewAssisted, true)).unwrap();
        let plan = out.plan.expect("explain attaches a plan");
        let profile = out.profile.expect("explain attaches a profile");
        assert_eq!(plan.route, "view_assisted");
        let view = plan.steps.iter().position(|s| s.op == "view_scan");
        let view = view.expect("the view read is a plan step");
        assert_eq!(plan.steps[view].kind, OpKind::Scan);
        assert_eq!(profile.ops[view].actual_rows, fragment.len() as u64);
        assert!(plan.steps.len() > 1, "the remainder notes its own steps");

        let out = process(&d, &q, options(Policy::RelationalOnly, true)).unwrap();
        let plan = out.plan.expect("explain attaches a plan");
        assert_eq!(plan.route, "relational");
        assert!(!plan.steps.is_empty());
        assert!(plan.steps.iter().all(|s| !s.op.starts_with("graph_")));
    }
}
