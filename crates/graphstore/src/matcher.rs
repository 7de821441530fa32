//! Backtracking BGP matcher over any [`Topology`].
//!
//! Where the relational executor materializes whole intermediate relations
//! (scan → hash join), this matcher extends **one binding at a time**: pick
//! the most selective pattern as the seed, then repeatedly extend partial
//! assignments through adjacency lookups from already-bound nodes. Work is
//! bounded by candidate edges of the seed predicate times the degrees along
//! the traversal — independent of how large the rest of the graph is.
//!
//! The matcher is generic over [`Topology`], the neighbour/seed/statistics
//! contract, and every work-unit charge is derived from reported *sizes*
//! (not layout internals), so the work a query is charged depends on the
//! edges held, never on how they are laid out.

use crate::store::GraphExecError;
use crate::topology::{PartitionStats, Topology};
use kgdual_model::{NodeId, PredId};
use kgdual_relstore::{Bindings, ExecContext, ExecError};
use kgdual_sparql::{EncPattern, EncodedQuery, PredSlot, Slot, VarId};
use kgdual_vec::{
    cost::{self, Card},
    gather_columns, plan, EmitSrc, BATCH,
};
use std::cell::Cell;

/// Deepest query an EXPLAIN capture profiles per-operator (queries with
/// more ordered patterns still capture their plan steps, just without
/// per-depth actuals). Sized to the fixed counter array below; well
/// above any workload query.
const MAX_PROFILE_DEPTH: usize = 16;

thread_local! {
    /// Plan-step index of the in-flight captured query's *first* ordered
    /// pattern (`usize::MAX` when no EXPLAIN capture is active). The
    /// matcher's operators are one step per ordered pattern, created
    /// contiguously in [`execute`], so depth `d` records to `BASE + d` —
    /// one thread-local read on the traversal hot path instead of
    /// re-deriving the step id per binding.
    static STEP_BASE: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Rows produced per traversal depth during one captured query. Plain
    /// `Cell` increments on the per-binding hot path (the matcher extends
    /// one binding at a time, so anything heavier — like the collector's
    /// `RefCell` — would show up in the obs overhead gate); [`execute`]
    /// flushes them into the collector once per query.
    static DEPTH_ROWS: [Cell<u64>; MAX_PROFILE_DEPTH] =
        const { [const { Cell::new(0) }; MAX_PROFILE_DEPTH] };
}

/// Count one row produced at `depth` of the captured traversal.
#[inline]
fn count_depth_rows(depth: usize, rows: u64) {
    DEPTH_ROWS.with(|r| {
        let c = &r[depth];
        c.set(c.get() + rows);
    });
}

/// Execute a compiled BGP against a graph topology.
pub fn execute<T: Topology>(
    index: &T,
    q: &EncodedQuery,
    ctx: &mut ExecContext,
) -> Result<Bindings, GraphExecError> {
    let order = order_patterns(index, q);

    // EXPLAIN capture: one plan step per ordered pattern, priced with the
    // same bound-estimate the ordering used. The traversal is pipelined,
    // so per-step actuals report *rows produced at that depth*; work is
    // accounted at the query level only (operators are not separable).
    if plan::capturing() {
        let mut bound: Vec<VarId> = Vec::new();
        for (d, &i) in order.iter().enumerate() {
            let pat = &q.patterns[i];
            let (op, kind) = if d == 0 {
                ("graph_seed", plan::OpKind::Scan)
            } else {
                ("graph_extend", plan::OpKind::Join)
            };
            let step = plan::note_step(op, kind, i, bound_estimate(index, pat, &bound));
            if d == 0 && order.len() <= MAX_PROFILE_DEPTH {
                STEP_BASE.set(step);
            }
            for v in pat.vars() {
                if !bound.contains(&v) {
                    bound.push(v);
                }
            }
        }
        DEPTH_ROWS.with(|r| r.iter().for_each(|c| c.set(0)));
    }

    let mut assignment: Vec<Option<NodeId>> = vec![None; q.vars.len()];
    let mut out = Bindings::new(q.projection.clone());
    let limit = q.limit.unwrap_or(usize::MAX);
    // With DISTINCT we cannot stop at `limit` raw matches.
    let stop_at = if q.distinct { usize::MAX } else { limit };

    let r = extend(index, q, &order, 0, &mut assignment, &mut out, stop_at, ctx);
    let base = STEP_BASE.get();
    if base != usize::MAX {
        // Flush the per-depth row counters into the collector (one pass
        // here instead of a collector call per binding).
        DEPTH_ROWS.with(|rows| {
            for (d, c) in rows.iter().take(order.len()).enumerate() {
                plan::note_actual(base + d, c.take(), 0, 0);
            }
        });
    }
    STEP_BASE.set(usize::MAX);
    r?;

    if q.distinct {
        out.dedup_rows();
    }
    if out.len() > limit {
        out.truncate(limit);
    }
    ctx.stats.rows_output += out.len() as u64;
    Ok(out)
}

/// Pattern order: seed with the cheapest pattern, then repeatedly the
/// connected pattern with the smallest **expected extension fan-out**
/// given what is already bound — average out-degree when the subject is
/// bound, average in-degree when the object is bound, full candidate-edge
/// count when neither is. Hub predicates (a prize with hundreds of
/// winners) are thereby deferred until both endpoints are pinned and they
/// degrade to cheap existence probes.
fn order_patterns<T: Topology>(index: &T, q: &EncodedQuery) -> Vec<usize> {
    let estimate = |pat: &EncPattern, bound: &[VarId]| bound_estimate(index, pat, bound);

    let mut remaining: Vec<usize> = (0..q.patterns.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    let mut bound: Vec<VarId> = Vec::new();

    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| q.patterns[i].vars().any(|v| bound.contains(&v)))
            .collect();
        let pool: &[usize] = if connected.is_empty() {
            &remaining
        } else {
            &connected
        };
        let &best = pool
            .iter()
            .min_by(|&&a, &&b| {
                estimate(&q.patterns[a], &bound)
                    .total_cmp(&estimate(&q.patterns[b], &bound))
                    .then(a.cmp(&b))
            })
            .expect("pool nonempty");
        order.push(best);
        remaining.retain(|&i| i != best);
        for v in q.patterns[best].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    order
}

/// Expected extension fan-out of `pat` given the already-bound variables —
/// the ordering heuristic's pricing function, shared with EXPLAIN so the
/// plan's printed estimates are exactly the values the order was chosen by.
fn bound_estimate<T: Topology>(index: &T, pat: &EncPattern, bound: &[VarId]) -> f64 {
    let s_bound =
        matches!(pat.s, Slot::Const(_)) || pat.s.as_var().is_some_and(|v| bound.contains(&v));
    let o_bound =
        matches!(pat.o, Slot::Const(_)) || pat.o.as_var().is_some_and(|v| bound.contains(&v));
    match pat.p {
        PredSlot::Const(p) => {
            cost::bound_cardinality(card_of(&index.partition_stats(p)), s_bound, o_bound)
        }
        PredSlot::Var(_) => cost::var_pred_cardinality(index.edge_count(), s_bound || o_bound),
    }
}

/// The shared cost model's view of a partition's statistics. The matcher's
/// degree estimates (`out_degree`/`in_degree`/edge count) and the relational
/// planner's `TableStats` arithmetic are the same formulas; routing both
/// through [`kgdual_vec::cost`] keeps the two planners value-identical by
/// construction.
fn card_of(st: &PartitionStats) -> Card {
    Card {
        rows: st.edges,
        distinct_s: st.distinct_s,
        distinct_o: st.distinct_o,
    }
}

/// Value of a slot under the current assignment, if determined.
fn slot_value(slot: Slot, assignment: &[Option<NodeId>]) -> Option<NodeId> {
    match slot {
        Slot::Const(c) => Some(c),
        Slot::Var(v) => assignment[v as usize],
    }
}

/// Seed-scan chunk size: cost is charged per chunk, and a satisfied LIMIT
/// is noticed at chunk boundaries. Shared with the batch kernels so the
/// tail gather and the general seed scan charge at the same granularity.
const CHUNK: usize = BATCH;

/// Vectorized tail seed scan: when the *last* pattern in the join order is
/// an unbound-variable seed scan over one predicate, every surviving edge
/// emits exactly one output row, so the per-edge bind/recurse/unbind dance
/// collapses into a column gather. Chunks are staged through
/// [`Topology::seed_chunk`] (a slice copy of the packed rows) and
/// projected by an [`EmitSrc`] template built once — subject column,
/// object column, or the already-bound constant for every other
/// projection variable. LIMIT pushes into the gather's row cap.
///
/// Work matches what [`scan_seed`]'s general recursion would charge for
/// the same shape: each chunk charges its full scan length up front (the
/// recursion charges whole chunks even when a LIMIT is satisfied
/// mid-chunk), and one join unit is charged per emitted row.
///
/// Selection is by query shape alone. Returns `Ok(false)` when the shape
/// is unsupported (predicate variable, constant endpoint, non-final depth,
/// unbound non-endpoint projection); the caller then takes the
/// tuple-at-a-time recursion, the matcher's general implementation.
#[allow(clippy::too_many_arguments)]
fn try_vec_seed_tail<T: Topology>(
    index: &T,
    q: &EncodedQuery,
    order: &[usize],
    depth: usize,
    assignment: &[Option<NodeId>],
    out: &mut Bindings,
    stop_at: usize,
    ctx: &mut ExecContext,
    p: PredId,
) -> Result<bool, GraphExecError> {
    if depth + 1 != order.len() {
        return Ok(false);
    }
    let pat = &q.patterns[order[depth]];
    if !matches!(pat.p, PredSlot::Const(_)) {
        return Ok(false);
    }
    let (Slot::Var(sv), Slot::Var(ov)) = (pat.s, pat.o) else {
        return Ok(false);
    };
    // The caller only reaches a seed scan with both endpoints undetermined,
    // but the template below relies on it: stay defensive.
    if assignment[sv as usize].is_some() || assignment[ov as usize].is_some() {
        return Ok(false);
    }
    let mut template = Vec::with_capacity(q.projection.len());
    for &v in &q.projection {
        if v == sv {
            template.push(EmitSrc::S);
        } else if v == ov {
            template.push(EmitSrc::O);
        } else {
            match assignment[v as usize] {
                Some(c) => template.push(EmitSrc::Const(c)),
                None => return Ok(false),
            }
        }
    }
    let _span = kgdual_obs::span!("vec_scan", pred = p.0);
    // `?x p ?x`: the recursion's duplicate-variable bind check keeps only
    // self-loop edges — the kernel's `s == o` restriction.
    let require_s_eq_o = sv == ov;
    let mut s_col: Vec<NodeId> = Vec::with_capacity(BATCH);
    let mut o_col: Vec<NodeId> = Vec::with_capacity(BATCH);
    let mut staging: Vec<NodeId> = Vec::with_capacity(BATCH * template.len());
    let mut start = 0usize;
    loop {
        if out.len() >= stop_at {
            return Ok(true);
        }
        s_col.clear();
        o_col.clear();
        let n = index.seed_chunk(p, start, BATCH, &mut s_col, &mut o_col);
        if n == 0 {
            return Ok(true);
        }
        start += n;
        charge(ctx.charge_scan(n as u64))?;
        staging.clear();
        let emitted = gather_columns(
            &s_col,
            &o_col,
            require_s_eq_o,
            &template,
            stop_at - out.len(),
            &mut staging,
        );
        out.extend_cells(&staging);
        charge(ctx.charge_join(emitted as u64))?;
        let base = STEP_BASE.get();
        if base != usize::MAX {
            count_depth_rows(depth, emitted as u64);
            plan::note_step_batches(base + depth, 1);
        }
    }
}

/// Enumerate one predicate's seed edges chunk by chunk, charging each
/// chunk before recursing into it.
#[allow(clippy::too_many_arguments)]
fn scan_seed<T: Topology>(
    index: &T,
    q: &EncodedQuery,
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<Option<NodeId>>,
    out: &mut Bindings,
    stop_at: usize,
    ctx: &mut ExecContext,
    p: PredId,
) -> Result<(), GraphExecError> {
    if try_vec_seed_tail(index, q, order, depth, assignment, out, stop_at, ctx, p)? {
        return Ok(());
    }
    let mut seed = index.seed_edges(p);
    let mut buf: Vec<(NodeId, NodeId)> = Vec::with_capacity(CHUNK.min(index.seed_len(p)));
    loop {
        if out.len() >= stop_at {
            return Ok(());
        }
        buf.clear();
        buf.extend(seed.by_ref().take(CHUNK));
        if buf.is_empty() {
            return Ok(());
        }
        charge(ctx.charge_scan(buf.len() as u64))?;
        for &(s, o) in &buf {
            bind_and_recurse(
                index, q, order, depth, assignment, out, stop_at, ctx, s, p, o,
            )?;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn extend<T: Topology>(
    index: &T,
    q: &EncodedQuery,
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<Option<NodeId>>,
    out: &mut Bindings,
    stop_at: usize,
    ctx: &mut ExecContext,
) -> Result<(), GraphExecError> {
    if out.len() >= stop_at {
        return Ok(());
    }
    if depth == order.len() {
        let row: Vec<NodeId> = q
            .projection
            .iter()
            .map(|&v| assignment[v as usize].expect("projection var bound at full depth"))
            .collect();
        charge(ctx.charge_join(1))?;
        out.push_row(&row);
        // The deepest operator's actual rows are counted at the push site
        // (not at bind time) so a LIMIT satisfied mid-chunk reports the
        // same count as the vectorized tail gather.
        if STEP_BASE.get() != usize::MAX {
            count_depth_rows(order.len() - 1, 1);
        }
        return Ok(());
    }

    let pat = &q.patterns[order[depth]];
    let s_val = slot_value(pat.s, assignment);
    let o_val = slot_value(pat.o, assignment);
    let p_val: Option<PredId> = match pat.p {
        PredSlot::Const(p) => Some(p),
        // Predicate variables are carried in node-id space (documented in
        // the relstore executor as well).
        PredSlot::Var(v) => assignment[v as usize].map(|n| PredId(n.0)),
    };

    // Candidate enumeration, cheapest available direction first.
    match (s_val, o_val, p_val) {
        (Some(s), Some(o), Some(p)) => {
            charge(ctx.charge_probe(1))?;
            // Respect edge multiplicity (bag semantics must agree with the
            // relational executor when parallel edges exist).
            let count = index.out_neighbours(s, p).filter(|&n| n == o).count();
            for _ in 0..count {
                bind_and_recurse(
                    index, q, order, depth, assignment, out, stop_at, ctx, s, p, o,
                )?;
            }
        }
        (Some(s), Some(o), None) => {
            charge(ctx.charge_probe(1))?;
            // Enumerate predicates between two bound nodes.
            let all = index.out_all(s);
            charge(ctx.charge_probe(all.len() as u64))?;
            for &(p, n2) in all.iter() {
                if n2 == o {
                    bind_and_recurse(
                        index, q, order, depth, assignment, out, stop_at, ctx, s, p, o,
                    )?;
                }
            }
        }
        (Some(s), None, Some(p)) => {
            let neigh = index.out_neighbours(s, p);
            charge(ctx.charge_probe(neigh.len() as u64 + 1))?;
            for o in neigh {
                bind_and_recurse(
                    index, q, order, depth, assignment, out, stop_at, ctx, s, p, o,
                )?;
            }
        }
        (None, Some(o), Some(p)) => {
            let neigh = index.in_neighbours(o, p);
            charge(ctx.charge_probe(neigh.len() as u64 + 1))?;
            for s in neigh {
                bind_and_recurse(
                    index, q, order, depth, assignment, out, stop_at, ctx, s, p, o,
                )?;
            }
        }
        (Some(s), None, None) => {
            let all = index.out_all(s);
            charge(ctx.charge_probe(all.len() as u64 + 1))?;
            for &(p, o) in all.iter() {
                bind_and_recurse(
                    index, q, order, depth, assignment, out, stop_at, ctx, s, p, o,
                )?;
            }
        }
        (None, Some(o), None) => {
            let all = index.in_all(o);
            charge(ctx.charge_probe(all.len() as u64 + 1))?;
            for &(p, s) in all.iter() {
                bind_and_recurse(
                    index, q, order, depth, assignment, out, stop_at, ctx, s, p, o,
                )?;
            }
        }
        (None, None, Some(p)) => {
            // Seed scan over the partition's edges; stops as soon as a
            // LIMIT is satisfied.
            scan_seed(index, q, order, depth, assignment, out, stop_at, ctx, p)?;
        }
        (None, None, None) => {
            // Fully unbound with a variable predicate: union of all seeds.
            for p in index.preds() {
                scan_seed(index, q, order, depth, assignment, out, stop_at, ctx, p)?;
            }
        }
    }
    Ok(())
}

/// Bind this pattern's variables to `(s, p, o)` (checking self-consistency),
/// recurse, then unbind what we bound.
#[allow(clippy::too_many_arguments)]
fn bind_and_recurse<T: Topology>(
    index: &T,
    q: &EncodedQuery,
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<Option<NodeId>>,
    out: &mut Bindings,
    stop_at: usize,
    ctx: &mut ExecContext,
    s: NodeId,
    p: PredId,
    o: NodeId,
) -> Result<(), GraphExecError> {
    let pat = &q.patterns[order[depth]];
    let mut bound_here: [Option<VarId>; 3] = [None; 3];
    let mut n_bound = 0usize;

    let mut try_bind = |var: VarId, val: NodeId, assignment: &mut Vec<Option<NodeId>>| -> bool {
        match assignment[var as usize] {
            Some(existing) => existing == val,
            None => {
                assignment[var as usize] = Some(val);
                bound_here[n_bound] = Some(var);
                n_bound += 1;
                true
            }
        }
    };

    let mut ok = true;
    if let Slot::Var(v) = pat.s {
        ok &= try_bind(v, s, assignment);
    }
    if ok {
        if let PredSlot::Var(v) = pat.p {
            ok &= try_bind(v, NodeId(p.0), assignment);
        }
    }
    if ok {
        if let Slot::Var(v) = pat.o {
            ok &= try_bind(v, o, assignment);
        }
    }
    if ok {
        // Constants were already enforced by candidate enumeration except
        // when both sides were enumerated from adjacency of the other.
        if let Slot::Const(c) = pat.s {
            ok &= c == s;
        }
        if let Slot::Const(c) = pat.o {
            ok &= c == o;
        }
    }
    if ok {
        // Intermediate depths count each successful extension; the final
        // depth is counted where its row is pushed (see `extend`).
        if STEP_BASE.get() != usize::MAX && depth + 1 < order.len() {
            count_depth_rows(depth, 1);
        }
        extend(index, q, order, depth + 1, assignment, out, stop_at, ctx)?;
    }
    for slot in bound_here.iter().flatten() {
        assignment[*slot as usize] = None;
    }
    Ok(())
}

/// Adapt relstore's `ExecError` (cancellation) into the graph-store error.
fn charge(r: Result<(), ExecError>) -> Result<(), GraphExecError> {
    r.map_err(GraphExecError::from)
}

#[cfg(test)]
mod order_tests {
    use crate::store::GraphStore;
    use crate::GraphBackend;
    use kgdual_model::{NodeId, PredId};
    use kgdual_relstore::ExecContext;
    use kgdual_sparql::{EncPattern, EncodedQuery, PredSlot, Slot, Var};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A hub predicate (one object, many subjects) plus a sparse predicate:
    /// the degree-aware ordering must route through the sparse side and do
    /// far less work than the hub's fan-in would imply.
    #[test]
    fn ordering_defers_hub_predicates() {
        let mut store = GraphStore::with_budget(100_000);
        // Hub: 500 people all won prize n(9000).
        let prize = PredId(0);
        let winners: Vec<(NodeId, NodeId)> = (0..500).map(|i| (n(i), n(9000))).collect();
        store.load_partition(prize, &winners).unwrap();
        // Sparse: only persons 0 and 1 work at org n(8000).
        let works = PredId(1);
        store
            .load_partition(works, &[(n(0), n(8000)), (n(1), n(8000))])
            .unwrap();

        // ?p works ?o . ?q works ?o . ?p prize ?w . ?q prize ?w
        let q = EncodedQuery {
            vars: (0..4).map(|i| Var::new(format!("v{i}"))).collect(),
            patterns: vec![
                EncPattern {
                    s: Slot::Var(0),
                    p: PredSlot::Const(works),
                    o: Slot::Var(1),
                },
                EncPattern {
                    s: Slot::Var(2),
                    p: PredSlot::Const(works),
                    o: Slot::Var(1),
                },
                EncPattern {
                    s: Slot::Var(0),
                    p: PredSlot::Const(prize),
                    o: Slot::Var(3),
                },
                EncPattern {
                    s: Slot::Var(2),
                    p: PredSlot::Const(prize),
                    o: Slot::Var(3),
                },
            ],
            projection: vec![0, 2],
            distinct: false,
            limit: None,
        };
        let mut ctx = ExecContext::new();
        let res = store.execute(&q, &mut ctx).unwrap();
        assert_eq!(res.len(), 4, "2x2 colleague-prize pairs");
        // Work must track the sparse partition (2 edges x small fanout),
        // not the hub (500 winners each): a hub-first order would cost
        // hundreds of thousands of probes.
        assert!(
            ctx.stats.work_units() < 10_000,
            "degree-aware order must avoid the hub blowup: {} units",
            ctx.stats.work_units()
        );
    }

    /// Limit short-circuits traversal: with LIMIT 1 the matcher must stop
    /// long before enumerating every seed edge.
    #[test]
    fn limit_stops_enumeration_early() {
        let mut store = GraphStore::with_budget(100_000);
        let p = PredId(0);
        let edges: Vec<(NodeId, NodeId)> = (0..10_000).map(|i| (n(i), n(i + 20_000))).collect();
        store.load_partition(p, &edges).unwrap();
        let q = EncodedQuery {
            vars: vec![Var::new("s"), Var::new("o")],
            patterns: vec![EncPattern {
                s: Slot::Var(0),
                p: PredSlot::Const(p),
                o: Slot::Var(1),
            }],
            projection: vec![0, 1],
            distinct: false,
            limit: Some(1),
        };
        let mut ctx = ExecContext::new();
        let res = store.execute(&q, &mut ctx).unwrap();
        assert_eq!(res.len(), 1);
        assert!(
            ctx.stats.rows_scanned <= 4_096 + 1,
            "must stop after the first chunk, scanned {}",
            ctx.stats.rows_scanned
        );
    }
}
