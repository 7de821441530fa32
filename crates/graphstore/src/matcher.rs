//! Frontier BGP matcher over the [`GraphStore`]'s sorted rows.
//!
//! Where the relational executor materializes whole intermediate relations
//! (scan → hash join), this matcher seeds with the most selective pattern
//! and extends partial assignments **a morsel at a time** through the
//! partitions' sorted rows. Each depth expands one morsel of its input
//! (about [`BATCH`] rows) into a reused buffer and hands it to the next
//! depth before taking the next, so rows come out in depth-first order and
//! memory stays bounded. Work follows the traversal range (seed edges
//! times the degrees along the way), not the graph size. A depth resolves
//! its partition and direction once per query; a row lookup whose key
//! does not descend gallops forward from the previous key (a finger); and
//! a cycle-closing edge whose candidates arrive as a sorted run against
//! one anchor is checked by one galloping intersection with the anchor's
//! row — Leapfrog Triejoin's step (Veldhuizen, ICDT 2014) — while a lone
//! candidate is looked up in its own row.
//!
//! Charges follow the [cost-parity contract](kgdual_relstore::runs), summed per morsel:
//! `len + 1` probes per row lookup, one probe per closing candidate, one
//! scanned row per seed edge, one join per result row — what a
//! binding-at-a-time traversal charges. Under LIMIT each morsel below the
//! seed is one input row, so the limit is reached in depth-first order.

use crate::store::{GraphExecError, GraphStore};
use kgdual_model::{NodeId, PredId};
use kgdual_relstore::{Bindings, CsrView, ExecContext, ExecError};
use kgdual_sparql::{EncPattern, EncodedQuery, PredSlot, Slot, VarId};
use kgdual_vec::{cost, plan, BATCH};

/// Execute a compiled BGP against the graph store.
pub fn execute(
    index: &GraphStore,
    q: &EncodedQuery,
    ctx: &mut ExecContext,
) -> Result<Bindings, GraphExecError> {
    let limit = q.limit.unwrap_or(usize::MAX);
    // With DISTINCT we cannot stop at `limit` raw matches.
    let stop_at = if q.distinct { usize::MAX } else { limit };
    let mut frontier = Frontier::new(index, q, &order_patterns(index, q), stop_at);
    let r = frontier.descend(0, ctx);
    // EXPLAIN: the traversal is pipelined, so per-step actuals report
    // *rows produced at that depth*; work is accounted per query only.
    // (Without a capture the base is `NO_STEP`, which every step ignores.)
    for (d, step) in frontier.steps.iter().enumerate() {
        plan::note_actual(frontier.base_step.saturating_add(d), step.rows, 0, 0);
    }
    r?;

    let mut out = frontier.out;
    if q.distinct {
        out.dedup_rows();
    }
    if out.len() > limit {
        out.truncate(limit);
    }
    ctx.stats.rows_output += out.len() as u64;
    Ok(out)
}

/// Pattern order, each with the estimate that chose it: seed with the
/// cheapest pattern, then repeatedly the connected pattern with the
/// smallest **expected extension fan-out** given what is already bound —
/// average out-degree when the subject is bound, average in-degree when the
/// object is bound, all candidate edges when neither is. Hub predicates (a
/// prize with hundreds of winners) are thereby deferred until both
/// endpoints are pinned and they degrade to cheap existence probes.
fn order_patterns(index: &GraphStore, q: &EncodedQuery) -> Vec<(usize, f64)> {
    let mut remaining: Vec<usize> = (0..q.patterns.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    let mut bound: Vec<VarId> = Vec::new();

    while !remaining.is_empty() {
        let connected = |i: usize| q.patterns[i].vars().any(|v| bound.contains(&v));
        let any_connected = remaining.iter().any(|&i| connected(i));
        let (best, est) = remaining
            .iter()
            .filter(|&&i| !any_connected || connected(i))
            .map(|&i| (i, bound_estimate(index, &q.patterns[i], &bound)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("pool nonempty");
        order.push((best, est));
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
fn bound_estimate(index: &GraphStore, pat: &EncPattern, bound: &[VarId]) -> f64 {
    let s_bound =
        matches!(pat.s, Slot::Const(_)) || pat.s.as_var().is_some_and(|v| bound.contains(&v));
    let o_bound =
        matches!(pat.o, Slot::Const(_)) || pat.o.as_var().is_some_and(|v| bound.contains(&v));
    match pat.p {
        PredSlot::Const(p) => {
            // The relational planner prices its tables with the same
            // formulas, so the two planners agree value for value.
            cost::bound_cardinality(index.partition_stats(p), s_bound, o_bound)
        }
        PredSlot::Var(_) => cost::var_pred_cardinality(index.edge_count(), s_bound || o_bound),
    }
}

/// Where a pattern's predicate comes from at its depth.
#[derive(Copy, Clone)]
enum Pred<'a> {
    /// A constant predicate, both directions resolved once per query.
    Const {
        id: PredId,
        fwd: CsrView<'a>,
        rev: CsrView<'a>,
    },
    /// A variable bound at an earlier depth: its row column (predicate
    /// variables carry the id in node-id space, as in the relational store).
    Col(usize),
    /// A variable this depth binds: every resident partition.
    Free,
}

/// What an edge's subject, predicate or object does to the row: nothing
/// (the lookup that found the edge fixed it), bind a column, or — for a
/// variable the pattern repeats — check it against the value bound first.
#[derive(Copy, Clone)]
enum Put {
    Keep,
    Set(usize),
    Check(usize),
}

/// `key`'s row. `at` is a finger: the previous lookup's position, which
/// every key below the previous key precedes. A key that does not descend
/// gallops forward from it, so ascending keys cost the distance between
/// them; a descending key is searched from the start.
fn find<'a>(rows: CsrView<'a>, at: &mut usize, key: NodeId) -> &'a [NodeId] {
    let keys = rows.keys();
    let descends = *at > 0 && keys[*at - 1] >= key;
    *at = gallop(keys, if descends { 0 } else { *at }, key);
    match keys.get(*at) == Some(&key) {
        true => rows.row_at(*at),
        false => &[],
    }
}

/// First index at or after `from` whose value is not below `x`: doubling
/// steps from `from`, then a binary search inside the last step.
fn gallop(sorted: &[NodeId], from: usize, x: NodeId) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= sorted.len() && sorted[lo + step - 1] < x {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&v| v < x)
}

/// Copies of `x` in the ascending `row`.
fn multiplicity(row: &[NodeId], x: NodeId) -> usize {
    row.partition_point(|&v| v <= x) - row.partition_point(|&v| v < x)
}

/// Append `parent` with the edge `(s, p, o)` written in as `put` says, or
/// nothing when a repeated variable disagrees with the edge.
#[inline]
fn push_edge(put: &[Put; 3], out: &mut Vec<NodeId>, parent: &[NodeId], edge: [NodeId; 3]) {
    let at = out.len();
    out.extend_from_slice(parent);
    for (&put, v) in put.iter().zip(edge) {
        match put {
            Put::Keep => {}
            Put::Set(c) => out[at + c] = v,
            Put::Check(c) if out[at + c] == v => {}
            Put::Check(_) => return out.truncate(at),
        }
    }
}

/// One ordered pattern, resolved once per query.
struct Step<'a> {
    /// Cells per row.
    width: usize,
    /// Row columns of the subject and object (a constant endpoint has a
    /// column of its own, filled in the root row), and whether an earlier
    /// depth or a constant fixed them.
    s: (usize, bool),
    o: (usize, bool),
    pred: Pred<'a>,
    /// What an edge's subject, predicate and object do to the row.
    put: [Put; 3],
    /// Fingers into a constant predicate's forward and reverse keys.
    fingers: [usize; 2],
    /// For a closing edge: the object is the endpoint bound last, so runs
    /// of input rows vary it under a fixed subject (else the reverse).
    close_on_o: bool,
    /// Rows this depth produced (EXPLAIN's `actual_rows`; the last depth
    /// counts emitted rows).
    rows: u64,
}

/// Resume point in a depth's input: the next row, and for seeds the
/// partition and edge within it.
#[derive(Default)]
struct Cursor {
    row: usize,
    part: usize,
    edge: usize,
}

impl<'a> Step<'a> {
    fn row<'b>(&self, input: &'b [NodeId], i: usize) -> &'b [NodeId] {
        &input[i * self.width..(i + 1) * self.width]
    }

    /// Expand the next morsel of `input` into `out`, charging what it read:
    /// input rows until `out` holds [`BATCH`] rows, or just one.
    fn expand(
        &mut self,
        index: &'a GraphStore,
        input: &[NodeId],
        cur: &mut Cursor,
        out: &mut Vec<NodeId>,
        one_row: bool,
        ctx: &mut ExecContext,
    ) -> Result<(), GraphExecError> {
        let views = match (self.s.1, self.o.1, self.pred) {
            (false, false, _) => return self.seed(index, input, cur, out, ctx),
            (true, true, Pred::Const { fwd, rev, .. }) => [fwd, rev],
            _ => return self.lookups(index, input, cur, out, one_row, ctx),
        };
        // A closing edge. Input rows that share the anchor endpoint and
        // ascend in the candidate endpoint are one sorted run: intersect it
        // with the anchor's row. A lone candidate probes its own row.
        let (anchor, cand, by_anchor, by_cand) = match self.close_on_o {
            true => (self.s.0, self.o.0, 0, 1),
            false => (self.o.0, self.s.0, 1, 0),
        };
        let (start, rows, width) = (cur.row, input.len() / self.width, self.width);
        let value = |col: usize, i: usize| input[i * width + col];
        while cur.row < rows {
            let (first, a) = (cur.row, value(anchor, cur.row));
            cur.row += 1;
            while !one_row
                && cur.row < rows
                && value(anchor, cur.row) == a
                && value(cand, cur.row) >= value(cand, cur.row - 1)
            {
                cur.row += 1;
            }
            if cur.row - first == 1 {
                let c = value(cand, first);
                let own = find(views[by_cand], &mut self.fingers[by_cand], c);
                for _ in 0..multiplicity(own, a) {
                    out.extend_from_slice(self.row(input, first));
                }
            } else {
                let run = find(views[by_anchor], &mut self.fingers[by_anchor], a);
                let mut at = 0;
                for i in first..cur.row {
                    at = gallop(run, at, value(cand, i));
                    for _ in run[at..].iter().take_while(|&&x| x == value(cand, i)) {
                        out.extend_from_slice(self.row(input, i));
                    }
                }
            }
            if one_row || out.len() >= BATCH * width {
                break;
            }
        }
        charge(ctx.charge_probe((cur.row - start) as u64))
    }

    /// Expand input rows one neighbour lookup each. A lookup charges
    /// `len + 1` probes; a closing edge with a bound predicate variable
    /// charges 1, and with an unbound one the subject's rows are read
    /// first, so it pays their lengths too.
    fn lookups(
        &mut self,
        index: &'a GraphStore,
        input: &[NodeId],
        cur: &mut Cursor,
        out: &mut Vec<NodeId>,
        one_row: bool,
        ctx: &mut ExecContext,
    ) -> Result<(), GraphExecError> {
        let mut probes = 0;
        while cur.row < input.len() / self.width {
            let parent = self.row(input, cur.row);
            cur.row += 1;
            let bound = |(col, bound): (usize, bool)| bound.then(|| parent[col]);
            let (s, o) = (bound(self.s), bound(self.o));
            let one;
            let ids: &[PredId] = match &self.pred {
                Pred::Const { id, .. } => std::slice::from_ref(id),
                Pred::Col(c) => {
                    one = [PredId(parent[*c].0)];
                    &one
                }
                Pred::Free => index.preds(),
            };
            let mut read = 0;
            for &id in ids {
                let row = match (self.pred, s, o) {
                    (Pred::Const { fwd, .. }, Some(s), _) => find(fwd, &mut self.fingers[0], s),
                    (Pred::Const { rev, .. }, None, Some(o)) => find(rev, &mut self.fingers[1], o),
                    (_, Some(s), _) => index.forward(id).row(s),
                    (_, None, Some(o)) => index.reverse(id).row(o),
                    (_, None, None) => unreachable!("patterns with both endpoints free are seeds"),
                };
                read += row.len() as u64;
                let p = NodeId(id.0);
                let mut push = |s, o| push_edge(&self.put, out, parent, [s, p, o]);
                match (s, o) {
                    (Some(s), Some(o)) => (0..multiplicity(row, o)).for_each(|_| push(s, o)),
                    (Some(s), None) => row.iter().for_each(|&x| push(s, x)),
                    (None, Some(o)) => row.iter().for_each(|&x| push(x, o)),
                    (None, None) => {}
                }
            }
            probes += match (s, o, self.pred) {
                (Some(_), Some(_), Pred::Col(_)) => 1,
                _ => read + 1,
            };
            if one_row || out.len() >= BATCH * self.width {
                break;
            }
        }
        charge(ctx.charge_probe(probes))
    }

    /// Scan the next chunk of at most [`BATCH`] seed edges — ascending
    /// `(s, o)` in the constant or bound predicate's partition, or in every
    /// resident one in turn — charged before it is read.
    fn seed(
        &self,
        index: &'a GraphStore,
        input: &[NodeId],
        cur: &mut Cursor,
        out: &mut Vec<NodeId>,
        ctx: &mut ExecContext,
    ) -> Result<(), GraphExecError> {
        while cur.row < input.len() / self.width {
            let parent = self.row(input, cur.row);
            let id = match self.pred {
                Pred::Const { .. } | Pred::Col(_) if cur.part > 0 => None,
                Pred::Const { id, .. } => Some(id),
                Pred::Col(c) => Some(PredId(parent[c].0)),
                Pred::Free => index.preds().get(cur.part).copied(),
            };
            let Some(id) = id else {
                (cur.row, cur.part, cur.edge) = (cur.row + 1, 0, 0);
                continue;
            };
            let fwd = index.forward(id);
            if cur.edge == fwd.len() {
                (cur.part, cur.edge) = (cur.part + 1, 0);
                continue;
            }
            let (start, end) = (cur.edge, fwd.len().min(cur.edge + BATCH));
            charge(ctx.charge_scan((end - start) as u64))?;
            let (keys, offsets) = (fwd.keys(), fwd.offsets());
            let mut key = offsets.partition_point(|&off| off as usize <= start) - 1;
            for (e, &o) in (start..end).zip(&fwd.nbrs()[start..end]) {
                while offsets[key + 1] as usize <= e {
                    key += 1;
                }
                push_edge(&self.put, out, parent, [keys[key], NodeId(id.0), o]);
            }
            cur.edge = end;
            return Ok(());
        }
        Ok(())
    }
}

/// One query's traversal state.
struct Frontier<'a> {
    index: &'a GraphStore,
    steps: Vec<Step<'a>>,
    /// Cells per row: one per query variable, then one per constant
    /// endpoint.
    width: usize,
    /// The EXPLAIN plan step of depth 0 (the steps are contiguous).
    base_step: usize,
    /// `bufs[0]` is the root row; `bufs[d + 1]` the current morsel of rows
    /// bound through depth `d`.
    bufs: Vec<Vec<NodeId>>,
    /// The projected variables (a variable's row column is its id).
    projection: &'a [VarId],
    staging: Vec<NodeId>,
    out: Bindings,
    stop_at: usize,
}

impl<'a> Frontier<'a> {
    fn new(
        index: &'a GraphStore,
        q: &'a EncodedQuery,
        order: &[(usize, f64)],
        stop_at: usize,
    ) -> Self {
        // The root row: variable columns first, then the constants.
        let mut root = vec![NodeId(0); q.vars.len()];
        let mut steps = Vec::with_capacity(order.len());
        let mut base_step = plan::NO_STEP;
        for (d, &(i, est)) in order.iter().enumerate() {
            // EXPLAIN: one plan step per depth, priced with the estimate
            // that ordered it.
            let (op, kind) = match d {
                0 => ("graph_seed", plan::OpKind::Scan),
                _ => ("graph_extend", plan::OpKind::Join),
            };
            base_step = base_step.min(plan::note_step(op, kind, i, est));
            let pat = &q.patterns[i];
            let pred_var = match pat.p {
                PredSlot::Var(v) => Some(v),
                PredSlot::Const(_) => None,
            };
            let slots = [pat.s.as_var(), pred_var, pat.o.as_var()];
            // The depth that binds `v`: the first pattern it occurs in.
            let bound_at = |v: VarId| {
                let mut earlier = order[..d].iter().map(|&(j, _)| &q.patterns[j]);
                earlier.position(|pat| pat.vars().any(|u| u == v))
            };
            let free = |v: VarId| bound_at(v).is_none();
            let mut put = [Put::Keep; 3];
            for (k, v) in slots.iter().enumerate() {
                if let Some(v) = v.filter(|&v| free(v)) {
                    put[k] = match slots[..k].contains(&Some(v)) {
                        true => Put::Check(v as usize),
                        false => Put::Set(v as usize),
                    };
                }
            }
            let mut end = |slot: Slot| match slot {
                Slot::Var(v) => (v as usize, !free(v)),
                Slot::Const(c) => {
                    root.push(c);
                    (root.len() - 1, true)
                }
            };
            let (s, o) = (end(pat.s), end(pat.o));
            let pred = match pat.p {
                PredSlot::Const(id) => Pred::Const {
                    id,
                    fwd: index.forward(id),
                    rev: index.reverse(id),
                },
                PredSlot::Var(v) if free(v) => Pred::Free,
                PredSlot::Var(v) => Pred::Col(v as usize),
            };
            let depth = |slot: Slot| slot.as_var().and_then(bound_at);
            steps.push(Step {
                width: 0,
                s,
                o,
                pred,
                put,
                fingers: [0; 2],
                close_on_o: depth(pat.o) >= depth(pat.s),
                rows: 0,
            });
        }
        root.resize(root.len().max(1), NodeId(0));
        let width = root.len();
        steps.iter_mut().for_each(|step| step.width = width);
        let bufs = std::iter::once(root).chain(order.iter().map(|_| Vec::new()));
        Frontier {
            index,
            steps,
            width,
            base_step,
            bufs: bufs.collect(),
            projection: &q.projection,
            staging: Vec::new(),
            out: Bindings::new(q.projection.clone()),
            stop_at,
        }
    }

    /// Expand `bufs[d]` through depth `d` and below, a morsel at a time.
    fn descend(&mut self, d: usize, ctx: &mut ExecContext) -> Result<(), GraphExecError> {
        if d == self.steps.len() {
            return self.emit(ctx);
        }
        let one_row = self.stop_at != usize::MAX;
        let mut cur = Cursor::default();
        while cur.row < self.bufs[d].len() / self.width && self.out.len() < self.stop_at {
            let (done, todo) = self.bufs.split_at_mut(d + 1);
            let out = &mut todo[0];
            out.clear();
            self.steps[d].expand(self.index, &done[d], &mut cur, out, one_row, ctx)?;
            let produced = (out.len() / self.width) as u64;
            if produced > 0 {
                if d + 1 < self.steps.len() {
                    self.steps[d].rows += produced;
                }
                self.descend(d + 1, ctx)?;
            }
        }
        Ok(())
    }

    /// Project the deepest morsel into the result, up to the stop point.
    fn emit(&mut self, ctx: &mut ExecContext) -> Result<(), GraphExecError> {
        let rows = &self.bufs[self.steps.len()];
        let take = (rows.len() / self.width).min(self.stop_at - self.out.len());
        self.staging.clear();
        for row in rows.chunks_exact(self.width).take(take) {
            self.staging
                .extend(self.projection.iter().map(|&v| row[v as usize]));
        }
        self.out.extend_cells(&self.staging);
        if let Some(last) = self.steps.last_mut() {
            last.rows += take as u64;
        }
        charge(ctx.charge_join(take as u64))
    }
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
