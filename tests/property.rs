//! Property-based tests: the two execution engines are independent
//! implementations of BGP semantics, so random graphs + random queries
//! make an effective cross-check oracle.

use kgdual::core::Scheduler;
use kgdual::dotil::counterfactual::{measure, settle};
use kgdual::prelude::*;
use kgdual::relstore::{CsrView, PredTable};
use proptest::prelude::*;

/// Build a dataset from raw id triples over small id spaces.
fn dataset_from(raw: &[(u8, u8, u8)]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for &(s, p, o) in raw {
        b.add_terms(
            &Term::iri(format!("n:{s}")),
            &format!("p:{p}"),
            &Term::iri(format!("n:{o}")),
        );
    }
    b.build()
}

/// Render a random BGP: patterns pick subject/object from a tiny pool of
/// variables and constants. A pattern whose last field is 1 gets a
/// variable predicate; every other predicate is bound. Tests that run the
/// graph store generate 0 there (every pattern must map to a partition
/// for graph execution).
fn render_query(patterns: &[(u8, bool, u8, u8, bool, u8)]) -> String {
    let mut out = String::from("SELECT * WHERE { ");
    for &(s, s_is_var, p, o, o_is_var, var_pred) in patterns {
        let subj = if s_is_var {
            format!("?v{}", s % 4)
        } else {
            format!("n:{}", s % 8)
        };
        let obj = if o_is_var {
            format!("?w{}", o % 4)
        } else {
            format!("n:{}", o % 8)
        };
        let pred = if var_pred == 1 {
            format!("?q{}", p % 2)
        } else {
            format!("p:{}", p % 4)
        };
        out.push_str(&format!("{subj} {pred} {obj} . "));
    }
    out.push('}');
    out
}

/// Sorted row-set fingerprint of a binding table.
fn fingerprint(b: &Bindings) -> Vec<String> {
    let mut rows: Vec<String> = b.rows().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// `(rows, distinct_s, distinct_o)` of a pair multiset, recounted.
fn recount(rows: &[(NodeId, NodeId)]) -> (usize, usize, usize) {
    use std::collections::BTreeSet;
    let subjects: BTreeSet<NodeId> = rows.iter().map(|&(s, _)| s).collect();
    let objects: BTreeSet<NodeId> = rows.iter().map(|&(_, o)| o).collect();
    (rows.len(), subjects.len(), objects.len())
}

/// Sorted runs — a table's or a graph partition's — must equal what the
/// surviving `rows` imply: statistics, both directions' sorted rows, and
/// per-node neighbours.
fn check_runs(
    fwd: CsrView<'_>,
    rev: CsrView<'_>,
    stats: (usize, usize, usize),
    rows: &[(NodeId, NodeId)],
    nodes: u32,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(stats, recount(rows));
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    let mut by_o: Vec<_> = rows.iter().map(|&(s, o)| (o, s)).collect();
    by_o.sort_unstable();
    for (view, want) in [(fwd, &sorted), (rev, &by_o)] {
        let keys = view.keys();
        prop_assert!(keys.windows(2).all(|k| k[0] < k[1]), "keys ascend");
        let pairs: Vec<_> = (0..keys.len())
            .flat_map(|i| view.row_at(i).iter().map(move |&n| (keys[i], n)))
            .collect();
        prop_assert_eq!(&pairs, want, "rows in key order are the sorted edges");
    }
    for n in (0..nodes).map(NodeId) {
        let out: Vec<NodeId> = sorted.iter().filter(|e| e.0 == n).map(|e| e.1).collect();
        prop_assert_eq!(fwd.row(n), out.as_slice());
        let inc: Vec<NodeId> = by_o.iter().filter(|e| e.0 == n).map(|e| e.1).collect();
        prop_assert_eq!(rev.row(n), inc.as_slice());
    }
    Ok(())
}

/// A graph substrate's view of `pred` must equal what the surviving
/// `rows` imply ([`check_runs`]).
fn check_topology(
    topo: &GraphStore,
    pred: PredId,
    rows: &[(NodeId, NodeId)],
    nodes: u32,
) -> Result<(), TestCaseError> {
    let st = topo.partition_stats(pred);
    let stats = (st.rows, st.distinct_s, st.distinct_o);
    check_runs(topo.forward(pred), topo.reverse(pred), stats, rows, nodes)
}

/// A table's runs must equal what its surviving `rows` imply.
fn check_table(
    table: &PredTable,
    rows: &[(NodeId, NodeId)],
    nodes: u32,
) -> Result<(), TestCaseError> {
    let st = table.stats();
    let stats = (st.rows, st.distinct_s, st.distinct_o);
    check_runs(table.runs().fwd(), table.runs().rev(), stats, rows, nodes)
}

/// One executor under `work_limit`s around the work it charges: `run`
/// returns the rows, or the partial work when cancelled, and must match
/// the unlimited run (`rows`, `unlimited`) unless cut off — which it must
/// be exactly when the charged work (all but the result-row charge)
/// reaches the limit, stopping between the limit and the charged work.
/// `counterfactual::settle` must read the unlimited run as the `(c2,
/// truncated)` the capped run gives: a relational side that finished
/// before its limit was published yields the same cost pair.
fn check_work_limit(
    src: &str,
    rows: &Bindings,
    unlimited: &ExecContext,
    run: impl Fn(&mut ExecContext) -> Result<Bindings, u64>,
) -> Result<(), TestCaseError> {
    let w = unlimited.stats.work_units();
    let charged = w - unlimited.stats.rows_output;
    let mut ctx = ExecContext::new();
    prop_assert_eq!(&run(&mut ctx).unwrap(), rows, "query: {}", src);
    prop_assert_eq!(ctx.stats.work_units(), w, "query: {}", src);
    for limit in [1, w / 2, w, w + 1, charged, charged + 1] {
        if limit == 0 {
            continue;
        }
        let mut ctx = ExecContext::with_work_limit(limit);
        let capped = match run(&mut ctx) {
            Err(partial_work) => {
                prop_assert!(
                    charged >= limit,
                    "cut off at limit {} with only {} charged on {}",
                    limit,
                    charged,
                    src
                );
                prop_assert!(
                    (limit..=charged).contains(&partial_work),
                    "partial work {} outside [{}, {}] on {}",
                    partial_work,
                    limit,
                    charged,
                    src
                );
                (limit, true)
            }
            Ok(got) => {
                prop_assert!(charged < limit, "ran past {} on {}", limit, src);
                prop_assert_eq!(&got, rows, "query: {}", src);
                prop_assert_eq!(ctx.stats.work_units(), w, "query: {}", src);
                (w, false)
            }
        };
        prop_assert_eq!(
            settle(limit, Ok(unlimited.stats)),
            capped,
            "limit {} on {}",
            limit,
            src
        );
    }
    Ok(())
}

/// LIMIT keeps a prefix of each executor's enumeration order, checked
/// against a brute-force expectation on one partition spanning three
/// 4096-row chunks, cut mid-chunk: the relational store emits rows in
/// load order (`scan()` is append-ordered), the graph store in ascending
/// `(s, o)` order with duplicates kept (the forward rows' canonical
/// order).
#[test]
fn limit_keeps_each_executors_enumeration_prefix() {
    use kgdual::sparql::{EncPattern, PredSlot, Slot};
    let p0 = PredId(0);
    // Edge i and edge i + 4096 coincide, so the partition has duplicates.
    let edges: Vec<(NodeId, NodeId)> = (0..10_000u32)
        .map(|i| (NodeId(i % 512), NodeId(20_000 + (i * 7) % 4096)))
        .collect();
    let mut rel = RelStore::new();
    rel.load_partition(p0, &edges);
    let mut graph = GraphStore::with_budget(edges.len());
    graph.load_partition(p0, &edges).unwrap();

    let q = EncodedQuery {
        vars: vec![Var::new("s"), Var::new("o")],
        patterns: vec![EncPattern {
            s: Slot::Var(0),
            p: PredSlot::Const(p0),
            o: Slot::Var(1),
        }],
        projection: vec![0, 1],
        distinct: false,
        limit: Some(5_000),
    };
    let rows_of = |pairs: &[(NodeId, NodeId)]| {
        let mut b = Bindings::new(vec![0, 1]);
        for &(s, o) in pairs {
            b.push_row(&[s, o]);
        }
        b
    };

    let mut ctx = ExecContext::new();
    let got = rel.execute(&q, &mut ctx).unwrap();
    assert_eq!(got, rows_of(&edges[..5_000]), "relational: load order");

    let mut canonical = edges.clone();
    canonical.sort_unstable();
    let expected = rows_of(&canonical[..5_000]);
    let mut ctx = ExecContext::new();
    let got = graph.execute(&q, &mut ctx).unwrap();
    assert_eq!(got, expected, "graph: ascending (s, o)");

    // A cycle: `?s p0 ?o . ?s p1 ?o`. The closing edge's candidates arrive
    // as sorted runs under one subject, which the unlimited run intersects
    // a morsel at a time; a LIMIT that cuts inside such a run must still
    // return exactly the first rows of the unlimited run.
    let p1 = PredId(1);
    let closing: Vec<(NodeId, NodeId)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .flat_map(|(i, &e)| std::iter::repeat(e).take(1 + usize::from(i % 5 == 0)))
        .collect();
    rel.load_partition(p1, &closing);
    let mut graph = GraphStore::with_budget(edges.len() + closing.len());
    graph.load_partition(p0, &edges).unwrap();
    graph.load_partition(p1, &closing).unwrap();
    let mut cycle = q.clone();
    cycle.patterns.push(EncPattern {
        s: Slot::Var(0),
        p: PredSlot::Const(p1),
        o: Slot::Var(1),
    });
    cycle.limit = None;
    let full = graph.execute(&cycle, &mut ExecContext::new()).unwrap();
    let all = rel.execute(&cycle, &mut ExecContext::new()).unwrap();
    assert_eq!(
        fingerprint(&full),
        fingerprint(&all),
        "graph and relational agree"
    );
    assert!(full.len() > 2 * 4096, "several morsels");
    let k = (5_000..full.len())
        .find(|&k| full.row(k - 1)[0] == full.row(k)[0])
        .expect("a cut inside one subject's run");
    cycle.limit = Some(k);
    let got = graph.execute(&cycle, &mut ExecContext::new()).unwrap();
    assert_eq!(got.len(), k);
    assert!(
        got.rows().eq(full.rows().take(k)),
        "graph: prefix of the unlimited run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Relational scan+hash-join execution and graph backtracking
    /// traversal must agree on every random BGP over every random graph.
    #[test]
    fn rel_and_graph_agree_on_random_bgps(
        triples in prop::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..60),
        patterns in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u8..4, 0u8..8, any::<bool>(), 0u8..1),
            1..4
        ),
    ) {
        let dataset = dataset_from(&triples);
        let total = dataset.len();
        let mut dual = DualStore::from_dataset(dataset, total);
        let preds: Vec<_> = dual.rel().preds().collect();
        for p in preds {
            dual.migrate_partition(p).unwrap();
        }

        let src = render_query(&patterns);
        let query = parse(&src).unwrap();
        let compiled = compile(&query, dual.dict()).unwrap();
        let Compiled::Query(eq) = compiled else {
            // A constant never interned: both engines would agree trivially.
            return Ok(());
        };

        let mut rctx = ExecContext::new();
        let rel = dual.rel().execute(&eq, &mut rctx).unwrap();
        let mut gctx = ExecContext::new();
        let graph = dual.graph().execute(&eq, &mut gctx).unwrap();

        // Same schema ordering is not guaranteed; project both onto the
        // query's projection (identical by construction) and compare rows.
        prop_assert_eq!(rel.vars(), graph.vars(), "projection schemas agree");
        prop_assert_eq!(fingerprint(&rel), fingerprint(&graph), "query: {}", src);
    }

    /// The query processor returns the same rows as direct relational
    /// execution for arbitrary partial graph coverage.
    #[test]
    fn processor_is_coverage_invariant(
        triples in prop::collection::vec((0u8..10, 0u8..4, 0u8..10), 1..50),
        patterns in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u8..4, 0u8..8, any::<bool>(), 0u8..1),
            1..4
        ),
        coverage_mask in 0u8..16,
    ) {
        let dataset = dataset_from(&triples);
        let total = dataset.len();
        let mut dual = DualStore::from_dataset(dataset, total);
        let preds: Vec<_> = dual.rel().preds().collect();
        for (i, p) in preds.into_iter().enumerate() {
            if coverage_mask & (1 << (i % 4)) != 0 {
                dual.migrate_partition(p).unwrap();
            }
        }

        let src = render_query(&patterns);
        let query = parse(&src).unwrap();
        let baseline = kgdual::processor::process_relational(&dual, &query).unwrap();
        let routed = kgdual::processor::process(&dual, &query).unwrap();
        prop_assert_eq!(
            fingerprint(&baseline.results),
            fingerprint(&routed.results),
            "route {:?} diverged on {}",
            routed.route,
            src
        );
    }

    /// Dictionary round-trip for arbitrary term content.
    #[test]
    fn dictionary_roundtrip(words in prop::collection::vec("[a-z]{1,12}", 1..20)) {
        let mut dict = Dictionary::new();
        let ids: Vec<NodeId> = words
            .iter()
            .map(|w| dict.encode_node(&Term::iri(w.clone())).unwrap())
            .collect();
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(dict.node(*id).unwrap(), &Term::iri(w.clone()));
            assert_eq!(dict.node_id(&Term::iri(w.clone())), Some(*id));
        }
        // Distinct words must get distinct ids.
        let mut sorted: Vec<String> = words.clone();
        sorted.sort();
        sorted.dedup();
        let mut unique_ids = ids.clone();
        unique_ids.sort();
        unique_ids.dedup();
        assert_eq!(unique_ids.len(), sorted.len());
    }

    /// Bindings algebra: projection keeps row count, dedup is idempotent,
    /// truncation bounds length.
    #[test]
    fn bindings_algebra(rows in prop::collection::vec((0u32..50, 0u32..50), 0..40), limit in 0usize..20) {
        let mut b = Bindings::new(vec![0, 1]);
        for &(x, y) in &rows {
            b.push_row(&[NodeId(x), NodeId(y)]);
        }
        let projected = b.project(&[1]);
        assert_eq!(projected.len(), b.len());
        let mut d1 = b.clone();
        d1.dedup_rows();
        let mut d2 = d1.clone();
        d2.dedup_rows();
        assert_eq!(d1, d2, "dedup is idempotent");
        assert!(d1.len() <= b.len());
        let mut t = b.clone();
        t.truncate(limit);
        assert!(t.len() <= limit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identifier invariants: the complex subquery is a subset of the
    /// query's patterns, disjoint from the remainder, together they cover
    /// the query, and output variables occur on both sides.
    #[test]
    fn identifier_partitions_the_query(
        patterns in prop::collection::vec(
            (0u8..6, any::<bool>(), 0u8..4, 0u8..6, any::<bool>(), 0u8..1),
            1..6
        ),
    ) {
        let src = render_query(&patterns);
        let query = parse(&src).unwrap();
        let Some(qc) = kgdual::identifier::identify(&query) else {
            return Ok(());
        };
        prop_assert!(qc.pattern_indexes.len() >= 2);
        prop_assert!(qc.pattern_indexes.iter().all(|&i| i < query.patterns.len()));
        let remainder = qc.remainder_indexes(&query);
        prop_assert!(remainder.iter().all(|i| !qc.pattern_indexes.contains(i)));
        prop_assert_eq!(
            remainder.len() + qc.pattern_indexes.len(),
            query.patterns.len()
        );
        // Every output variable occurs in both halves.
        let qc_vars = kgdual::sparql::var_occurrences(&qc.patterns);
        let rem_patterns: Vec<_> =
            remainder.iter().map(|&i| query.patterns[i].clone()).collect();
        let rem_vars = kgdual::sparql::var_occurrences(&rem_patterns);
        for v in &qc.output_vars {
            prop_assert!(qc_vars.contains_key(v));
            prop_assert!(rem_vars.contains_key(v));
        }
        // Every qc pattern's endpoint variables occur >1 time in the query.
        let counts = kgdual::sparql::var_occurrences(&query.patterns);
        for p in &qc.patterns {
            for v in p.vars() {
                prop_assert!(counts[v] > 1, "qc endpoint {v} occurs once in {src}");
            }
        }
    }

    /// The forced-scan relational engine agrees with the index-enabled one
    /// on every random BGP (access paths never change answers).
    #[test]
    fn access_paths_are_equivalent(
        triples in prop::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..50),
        patterns in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u8..4, 0u8..8, any::<bool>(), 0u8..1),
            1..4
        ),
    ) {
        use kgdual::relstore::PlannerConfig;
        let dataset = dataset_from(&triples);
        let normal = DualStore::from_dataset(dataset.clone(), 0);
        let forced = DualStore::from_dataset_with(
            dataset,
            0,
            PlannerConfig { force_scans: true, ..PlannerConfig::default() },
        );
        let src = render_query(&patterns);
        let query = parse(&src).unwrap();
        let Compiled::Query(eq) = compile(&query, normal.dict()).unwrap() else {
            return Ok(());
        };
        let mut a = ExecContext::new();
        let ra = normal.rel().execute(&eq, &mut a).unwrap();
        let mut b = ExecContext::new();
        let rb = forced.rel().execute(&eq, &mut b).unwrap();
        prop_assert_eq!(fingerprint(&ra), fingerprint(&rb), "query: {}", src);
    }

    /// The contract DOTIL's λ cutoff relies on: `counterfactual::measure`
    /// reads only whether a work-limited run was cut off and, if not, its
    /// work. A run under `work_limit = L` must be cancelled if and only
    /// if the work it charges while executing reaches `L`, and otherwise
    /// return the unlimited run's rows and work exactly. The result-row
    /// charge lands after the last poll, so that threshold is the total
    /// work `W` minus `rows_output`. Checked on the relational store, and
    /// on the graph store with every partition resident, which charges a
    /// morsel at a time.
    #[test]
    fn work_limit_cuts_off_iff_charged_work_reaches_it(
        triples in prop::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..60),
        patterns in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u8..4, 0u8..8, any::<bool>(), 0u8..2),
            1..4
        ),
    ) {
        use kgdual::graphstore::GraphExecError;
        use kgdual::relstore::ExecError;
        let dataset = dataset_from(&triples);
        let total = dataset.len();
        let mut dual = DualStore::from_dataset(dataset, total);
        let src = render_query(&patterns);
        let Compiled::Query(eq) = compile(&parse(&src).unwrap(), dual.dict()).unwrap() else {
            return Ok(());
        };
        let preds: Vec<_> = dual.rel().preds().collect();
        for p in preds {
            dual.migrate_partition(p).unwrap();
        }

        let eq = &eq;
        let rel = |store: &RelStore, ctx: &mut ExecContext| match store.execute(eq, ctx) {
            Ok(rows) => Ok(rows),
            Err(ExecError::Cancelled { partial_work }) => Err(partial_work),
        };
        let graph = |ctx: &mut ExecContext| match dual.graph().execute(eq, ctx) {
            Ok(rows) => Ok(rows),
            Err(GraphExecError::Cancelled { partial_work }) => Err(partial_work),
            Err(e) => panic!("{e} on {src}"),
        };
        let mut unlimited = ExecContext::new();
        let rows = rel(dual.rel(), &mut unlimited).unwrap();
        check_work_limit(&src, &rows, &unlimited, |ctx| rel(dual.rel(), ctx))?;
        let mut unlimited = ExecContext::new();
        let rows = graph(&mut unlimited).unwrap();
        check_work_limit(&src, &rows, &unlimited, graph)?;
    }

    /// `counterfactual::measure` on a 2- and a 4-worker pool, where a
    /// pair's relational side may run before, during or after the graph
    /// side that publishes its λ · c1 cutoff, gives exactly the pair the
    /// inline measurement gives, which runs the graph side first. The
    /// graphs are dense enough for the relational side to charge past the
    /// 1 000-unit floor on about one case in five, where λ = 0.01
    /// truncates; λ = 1e9 never does.
    #[test]
    fn scheduled_measure_matches_inline(
        triples in prop::collection::vec((0u8..24, 0u8..3, 0u8..24), 100..500),
        patterns in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u8..3, 0u8..8, any::<bool>(), 0u8..1),
            2..4
        ),
    ) {
        static POOLS: std::sync::OnceLock<[Scheduler; 2]> = std::sync::OnceLock::new();
        let pools = POOLS.get_or_init(|| [Scheduler::new(2), Scheduler::new(4)]);
        let dataset = dataset_from(&triples);
        let total = dataset.len();
        let mut dual = DualStore::from_dataset(dataset, total);
        let preds: Vec<_> = dual.rel().preds().collect();
        for p in preds {
            dual.migrate_partition(p).unwrap();
        }
        let src = render_query(&patterns);
        let Compiled::Query(eq) = compile(&parse(&src).unwrap(), dual.dict()).unwrap() else {
            return Ok(());
        };
        for lambda in [0.01, 0.5, 4.5, 1e9] {
            let inline = measure(&dual, &eq, lambda, None);
            for pool in pools {
                let pooled = measure(&dual, &eq, lambda, Some(pool));
                prop_assert_eq!(
                    &pooled,
                    &inline,
                    "λ = {} on {} workers: {}",
                    lambda,
                    pool.threads(),
                    src
                );
            }
        }
    }

    /// Graph-side write maintenance agrees with the relational store: a
    /// random residency mask, then a random insert/delete stream applied
    /// to one dual store, then a random query routed by the processor
    /// (graph, dual or relational) against the same query answered by the
    /// relational store alone. Resident partitions must mirror the
    /// relational sizes. Without LIMIT the row multisets are equal; with
    /// LIMIT both return `min(limit, full)` rows, each row drawn from the
    /// full result (a sub-multiset of it).
    #[test]
    fn graph_route_agrees_with_relational_after_writes(
        triples in prop::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..50),
        updates in prop::collection::vec(
            (any::<bool>(), 0u8..12, 0u8..4, 0u8..12),
            0..16
        ),
        patterns in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u8..4, 0u8..8, any::<bool>(), 0u8..1),
            1..4
        ),
        coverage_mask in 0u8..16,
        limit in 0usize..4,
    ) {
        let dataset = dataset_from(&triples);
        let budget = dataset.len() + updates.len();
        let mut dual = DualStore::from_dataset(dataset, budget);
        let preds: Vec<_> = dual.rel().preds().collect();
        for (i, p) in preds.into_iter().enumerate() {
            if coverage_mask & (1 << (i % 4)) != 0 {
                dual.migrate_partition(p).unwrap();
            }
        }

        for &(insert, s, p, o) in &updates {
            let s = Term::iri(format!("n:{}", s % 8));
            let p = format!("p:{}", p % 4);
            let o = Term::iri(format!("n:{}", o % 8));
            if insert {
                dual.insert_terms(&s, &p, &o).unwrap();
            } else if let (Some(s), Some(p), Some(o)) =
                (dual.dict().node_id(&s), dual.dict().pred_id(&p), dual.dict().node_id(&o))
            {
                dual.delete(Triple::new(s, p, o));
            }
        }
        for (p, len) in dual.design().graph_partitions {
            prop_assert_eq!(len, dual.rel().partition_len(p), "mirrored partition sizes");
        }

        let src = render_query(&patterns);
        let query = parse(&src).unwrap();
        let full = kgdual::processor::process_relational(&dual, &query).unwrap();
        if limit == 0 {
            let routed = kgdual::processor::process(&dual, &query).unwrap();
            prop_assert_eq!(
                fingerprint(&routed.results),
                fingerprint(&full.results),
                "route {:?} diverged on {}",
                routed.route,
                src
            );
            return Ok(());
        }
        let limited_src = format!("{src} LIMIT {limit}");
        let limited = parse(&limited_src).unwrap();
        let want = full.results.len().min(limit);
        for out in [
            kgdual::processor::process(&dual, &limited).unwrap(),
            kgdual::processor::process_relational(&dual, &limited).unwrap(),
        ] {
            prop_assert_eq!(
                out.results.len(),
                want,
                "route {:?} on {}",
                out.route,
                limited_src
            );
            let mut pool = fingerprint(&full.results);
            for row in fingerprint(&out.results) {
                let at = pool.iter().position(|r| *r == row);
                prop_assert!(
                    at.is_some(),
                    "route {:?}: row {} not in the full result of {}",
                    out.route,
                    row,
                    src
                );
                pool.swap_remove(at.unwrap());
            }
        }
    }

    /// Incremental == from-scratch in both stores. A single-row write
    /// splices each sorted run in place, and a bulk append re-sorts its
    /// table; after every step of a random interleaving (duplicates,
    /// self-loops, deletes of absent rows, deletes that empty a partition,
    /// bulk appends, two predicates sharing every node) the relational
    /// tables' runs and statistics and the graph store must equal a
    /// brute-force recount of the surviving rows, and so each other.
    ///
    /// The same steps drive a `DualStore`, interleaved with migrations and
    /// evictions. A resident partition shares `T_R`'s runs: until its
    /// first write after migration it is the same memory (pointer-equal
    /// keys), after it each store holds its own copy; either way both
    /// stores equal the recount, and the design's `used` is the sum of the
    /// resident partitions' lengths.
    #[test]
    fn incremental_writes_equal_a_recount_on_every_substrate(
        initial in prop::collection::vec((0u32..2, 0u32..5, 0u32..5), 0..6),
        steps in prop::collection::vec((0u8..12, 0u32..2, 0u32..5, 0u32..5), 1..48),
    ) {
        const NODES: u32 = 5;

        let mut model: [Vec<(NodeId, NodeId)>; 2] = Default::default();
        for &(p, s, o) in &initial {
            model[p as usize].push((NodeId(s), NodeId(o)));
        }
        let mut tables = [PredTable::new(), PredTable::new()];
        let mut graph = GraphStore::with_budget(initial.len() + steps.len());
        for p in 0..2 {
            tables[p].insert_batch(&model[p]);
            graph.load_partition(PredId(p as u32), &model[p]).unwrap();
        }

        // The dual store interns node `i` and predicate `i` as id `i`, and
        // its dataset drops the initial duplicates.
        let mut b = DatasetBuilder::new();
        for i in 0..NODES {
            prop_assert_eq!(b.node(&Term::iri(format!("n:{i}"))), NodeId(i));
        }
        for i in 0..2 {
            prop_assert_eq!(b.pred(&format!("p:{i}")), PredId(i));
        }
        let mut dual_model: [Vec<(NodeId, NodeId)>; 2] = Default::default();
        for &(p, s, o) in &initial {
            if b.add(NodeId(s), PredId(p), NodeId(o)) {
                dual_model[p as usize].push((NodeId(s), NodeId(o)));
            }
        }
        let mut dual = DualStore::from_dataset(b.build(), initial.len() + steps.len());
        // Per predicate: has a write changed it since it was migrated?
        let mut written = [false; 2];

        for &(kind, p, s, o) in &steps {
            let (pi, pred) = (p as usize, PredId(p));
            let row = (NodeId(s), NodeId(o));
            let t = Triple::new(row.0, pred, row.1);
            match kind {
                0 => {
                    let hits = model[pi].iter().filter(|r| r.1 == row.1).count();
                    prop_assert_eq!(tables[pi].lookup_o(row.1).len(), hits);
                }
                1 => {
                    let hits = model[pi].iter().filter(|r| r.0 == row.0).count();
                    prop_assert_eq!(tables[pi].lookup_s(row.0).len(), hits);
                }
                2..=6 => {
                    if kind == 2 {
                        // Bulk append: re-sorts the table's runs.
                        tables[pi].insert_batch(&[row]);
                    } else {
                        tables[pi].insert(row.0, row.1);
                    }
                    prop_assert!(graph.insert_edge(t).unwrap());
                    model[pi].push(row);
                    dual.insert(t).unwrap();
                    dual_model[pi].push(row);
                    written[pi] = true;
                }
                7..=9 => {
                    let copies = model[pi].iter().filter(|&&r| r == row).count();
                    prop_assert_eq!(tables[pi].delete(row.0, row.1), copies);
                    prop_assert_eq!(graph.delete_edge(t), copies);
                    model[pi].retain(|&r| r != row);
                    let copies = dual_model[pi].iter().filter(|&&r| r == row).count();
                    prop_assert_eq!(dual.delete(t), copies);
                    dual_model[pi].retain(|&r| r != row);
                    written[pi] |= copies > 0;
                }
                10 => {
                    let fresh = !dual.graph().is_loaded(pred) && !dual_model[pi].is_empty();
                    prop_assert_eq!(dual.migrate_partition(pred).is_ok(), fresh);
                    if fresh {
                        written[pi] = false;
                    }
                }
                _ => {
                    let resident = dual.graph().is_loaded(pred);
                    let len = if resident { dual_model[pi].len() } else { 0 };
                    prop_assert_eq!(dual.evict_partition(pred), len);
                }
            }

            for q in 0..2 {
                let (rows, table) = (&model[q], &tables[q]);
                prop_assert_eq!(table.scan(), rows.as_slice(), "scan() is insertion order minus deletes");
                check_table(table, rows, NODES)?;
                check_topology(&graph, PredId(q as u32), rows, NODES)?;

                let (pred, rows) = (PredId(q as u32), &dual_model[q]);
                let Some(table) = dual.rel().table(pred) else {
                    prop_assert!(rows.is_empty() && !dual.graph().is_loaded(pred));
                    continue;
                };
                prop_assert_eq!(table.scan(), rows.as_slice());
                check_table(table, rows, NODES)?;
                if dual.graph().is_loaded(pred) {
                    check_topology(dual.graph(), pred, rows, NODES)?;
                    let shared = std::ptr::eq(
                        dual.graph().forward(pred).keys(),
                        table.runs().fwd().keys(),
                    );
                    prop_assert_eq!(shared, !written[q], "shared until the first write");
                }
            }
            prop_assert_eq!(graph.used(), model[0].len() + model[1].len());
            prop_assert_eq!(graph.edge_count(), graph.used());
            let design = dual.design();
            let resident: usize = design.graph_partitions.iter().map(|&(_, len)| len).sum();
            prop_assert_eq!(design.used, resident);
            let mirrored: usize = design
                .graph_partitions
                .iter()
                .map(|&(p, _)| dual_model[p.0 as usize].len())
                .sum();
            prop_assert_eq!(design.used, mirrored);
        }
    }

    /// Snapshot encode/decode round-trips arbitrary datasets exactly.
    #[test]
    fn snapshot_roundtrip(
        triples in prop::collection::vec((0u8..20, 0u8..6, 0u8..20), 0..80),
    ) {
        let ds = dataset_from(&triples);
        let bytes = kgdual::model::encode_snapshot(&ds);
        let back = kgdual::model::decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(back.stats(), ds.stats());
        let a: Vec<_> = ds.triples().collect();
        let b: Vec<_> = back.triples().collect();
        prop_assert_eq!(a, b);
    }
}
