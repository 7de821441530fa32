//! The relational store facade: vertically-partitioned storage plus a
//! BGP executor (greedy join order, hash joins, optional index nested
//! loops).

use crate::exec::{Bindings, ExecContext, ExecError, ExecStats};
use crate::planner::{self, PlannerConfig};
use crate::table::PredTable;
use kgdual_model::{NodeId, PartitionSet, PredId, SharedPairs, Triple};
use kgdual_sparql::{EncPattern, EncodedQuery, PredSlot, Slot, VarId};
use kgdual_vec::{cost, cost::Card, plan, EmitSrc, BATCH};
use std::sync::Arc;

/// The relational store: one [`PredTable`] per predicate, ascending by
/// predicate id.
///
/// Stores the *entire* knowledge graph in the dual-store design and is the
/// only store that accepts updates directly (the paper keeps `T_R` complete
/// regardless of what is mirrored into the graph store). Each table sorts
/// its two indexes and counts its statistics when it is loaded, and writes
/// splice them (see [`PredTable`]), so a loaded store needs no warm-up.
#[derive(Debug, Default)]
pub struct RelStore {
    tables: Vec<(PredId, PredTable)>,
    rows: usize,
    cfg: PlannerConfig,
}

impl RelStore {
    /// An empty store with default planner settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Swap the planner settings (ablations). They steer only how later
    /// queries are planned: the tables, their indexes and their
    /// statistics do not depend on them.
    pub fn set_config(&mut self, cfg: PlannerConfig) {
        self.cfg = cfg;
    }

    /// The planner configuration in use.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// The table for `pred`, created empty on first touch.
    fn table_mut(&mut self, pred: PredId) -> &mut PredTable {
        match self.tables.binary_search_by_key(&pred, |&(p, _)| p) {
            Ok(i) => &mut self.tables[i].1,
            Err(i) => {
                self.tables.insert(i, (pred, PredTable::new()));
                &mut self.tables[i].1
            }
        }
    }

    /// Non-empty partitions, ascending by predicate.
    fn nonempty_tables(&self) -> impl Iterator<Item = (PredId, &PredTable)> + '_ {
        self.tables
            .iter()
            .filter(|(_, t)| !t.is_empty())
            .map(|(p, t)| (*p, t))
    }

    /// Bulk-append a shared run of rows to `pred`'s partition (an empty
    /// partition adopts the run, see [`PredTable::insert_shared`]).
    fn insert_batch(&mut self, pred: PredId, pairs: &SharedPairs) {
        self.table_mut(pred).insert_shared(pairs);
        self.rows += pairs.len();
    }

    /// Bulk-load every partition of `parts` (appends to existing tables).
    /// An empty table adopts the partition's shared pair run as its base
    /// rows, so the store and the dataset hold one copy until either
    /// writes to it.
    pub fn load_partition_set(&mut self, parts: &PartitionSet) {
        for part in parts.iter() {
            self.insert_batch(part.pred(), part.shared_pairs());
        }
    }

    /// Bulk-load one partition's pairs (copied in).
    pub fn load_partition(&mut self, pred: PredId, pairs: &[(NodeId, NodeId)]) {
        self.insert_batch(pred, &Arc::new(pairs.to_vec()));
    }

    /// Insert a single triple: an append, plus a sorted splice into each
    /// of the partition's two indexes (see [`PredTable::insert`])
    /// — cheap updates are the relational store's headline strength in
    /// the paper.
    pub fn insert(&mut self, t: Triple) {
        self.table_mut(t.p).insert(t.s, t.o);
        self.rows += 1;
    }

    /// Delete every copy of a triple; returns how many rows were removed.
    pub fn delete(&mut self, t: Triple) -> usize {
        let Ok(i) = self.tables.binary_search_by_key(&t.p, |&(p, _)| p) else {
            return 0;
        };
        let removed = self.tables[i].1.delete(t.s, t.o);
        self.rows -= removed;
        removed
    }

    /// The table for `pred`, if it has ever been stored. An emptied
    /// partition keeps its entry for reuse.
    #[inline]
    pub fn table(&self, pred: PredId) -> Option<&PredTable> {
        self.tables
            .binary_search_by_key(&pred, |&(p, _)| p)
            .ok()
            .map(|i| &self.tables[i].1)
    }

    /// Rows in one partition (0 if absent).
    pub fn partition_len(&self, pred: PredId) -> usize {
        self.table(pred).map_or(0, PredTable::len)
    }

    /// Total rows across all partitions.
    pub fn total_triples(&self) -> usize {
        self.rows
    }

    /// Predicates with at least one row, ascending.
    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.nonempty_tables().map(|(p, _)| p)
    }

    /// Statistics for a partition.
    pub fn stats(&self, pred: PredId) -> Option<Card> {
        self.table(pred).map(PredTable::stats)
    }

    /// Execute a compiled query.
    pub fn execute(&self, q: &EncodedQuery, ctx: &mut ExecContext) -> Result<Bindings, ExecError> {
        self.eval_bgp(q, None, ctx)
    }

    /// Execute a compiled query starting from seed bindings (the paper's
    /// Case 2: intermediate results migrated from the graph store live in
    /// the temporary table space and are joined with the remaining
    /// patterns here).
    pub fn execute_with_seed(
        &self,
        q: &EncodedQuery,
        seed: &Bindings,
        ctx: &mut ExecContext,
    ) -> Result<Bindings, ExecError> {
        self.eval_bgp(q, Some(seed), ctx)
    }

    fn eval_bgp(
        &self,
        q: &EncodedQuery,
        seed: Option<&Bindings>,
        ctx: &mut ExecContext,
    ) -> Result<Bindings, ExecError> {
        let empty_result = |q: &EncodedQuery| Bindings::new(q.projection.clone());
        if let Some(s) = seed {
            if s.is_empty() {
                return Ok(empty_result(q));
            }
        }

        let seed_vars: Vec<VarId> = seed.map(|s| s.vars().to_vec()).unwrap_or_default();
        let mut stats_of = |p: PredId| self.stats(p);
        let order = planner::order_patterns(q, &seed_vars, &mut stats_of, self.total_triples());

        // EXPLAIN capture: when a plan collector is active on this thread,
        // describe each physical operator with the same bound-estimate
        // arithmetic the greedy order just used, and record its actuals
        // (output rows, work-unit delta) as it executes. Estimates and
        // per-operator work are deterministic across threads;
        // batch counts and wall time are observational.
        let capturing = plan::capturing();
        let mut bound: Vec<VarId> = seed_vars.clone();

        let mut acc: Option<Bindings> = seed.cloned();
        for &idx in &order {
            let pat = &q.patterns[idx];
            ctx.stats.tables_touched += 1;

            let step = if capturing {
                let est = planner::bound_estimate(pat, &bound, &mut stats_of, self.total_triples());
                let (op, kind) = if pat.vars().next().is_none() {
                    ("ground_filter", plan::OpKind::Filter)
                } else if let Some(a) = &acc {
                    if self.should_inl(a, pat) {
                        ("inl_join", plan::OpKind::Join)
                    } else {
                        ("hash_join", plan::OpKind::Join)
                    }
                } else {
                    (self.access_path_op(pat), plan::OpKind::Scan)
                };
                plan::note_step(op, kind, idx, est)
            } else {
                plan::NO_STEP
            };
            let op_work = if capturing { ctx.stats.work_units() } else { 0 };
            let op_batches = if capturing {
                kgdual_vec::batches_emitted()
            } else {
                0
            };
            let op_t0 = capturing.then(std::time::Instant::now);
            let mut finish_step = |rows: u64, stats: &ExecStats| {
                if capturing {
                    let wall = op_t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
                    plan::note_actual(step, rows, stats.work_units() - op_work, wall);
                    plan::note_step_batches(step, kgdual_vec::batches_emitted() - op_batches);
                    for v in pat.vars() {
                        if !bound.contains(&v) {
                            bound.push(v);
                        }
                    }
                }
            };

            // Fully-ground pattern: a pure existence filter.
            if pat.vars().next().is_none() {
                let holds = self.ground_pattern_holds(pat, ctx)?;
                finish_step(u64::from(holds), &ctx.stats);
                if !holds {
                    return Ok(empty_result(q));
                }
                continue;
            }

            let next = match &acc {
                None => self.materialize_pattern(pat, ctx)?,
                Some(a) => {
                    if self.should_inl(a, pat) {
                        self.inl_extend(a, pat, ctx)?
                    } else {
                        let delta = self.materialize_pattern(pat, ctx)?;
                        hash_join(a, &delta, ctx)?
                    }
                }
            };
            finish_step(next.len() as u64, &ctx.stats);
            if next.is_empty() {
                return Ok(empty_result(q));
            }
            acc = Some(next);
        }

        let Some(acc) = acc else {
            // Only ground patterns (all passed): the unit relation, which
            // projects to nothing representable — report empty.
            return Ok(empty_result(q));
        };
        let mut out = acc.project(&q.projection);
        if q.distinct {
            out.dedup_rows();
        }
        if let Some(limit) = q.limit {
            out.truncate(limit);
        }
        ctx.stats.rows_output += out.len() as u64;
        Ok(out)
    }

    /// Check a pattern with no variables (`const pred const`).
    fn ground_pattern_holds(
        &self,
        pat: &EncPattern,
        ctx: &mut ExecContext,
    ) -> Result<bool, ExecError> {
        let (Slot::Const(s), PredSlot::Const(p), Slot::Const(o)) = (pat.s, pat.p, pat.o) else {
            unreachable!("ground_pattern_holds called on a pattern with variables");
        };
        let Some(table) = self.table(p) else {
            return Ok(false);
        };
        let objects = table.lookup_s(s);
        ctx.charge_probe(objects.len() as u64 + 1)?;
        Ok(objects.binary_search(&o).is_ok())
    }

    /// The access-path operator label [`Self::materialize_pattern`] will
    /// choose for `pat` as a leaf — used only to name EXPLAIN plan steps;
    /// the execution-time decision is re-made (identically) when the
    /// pattern materializes.
    fn access_path_op(&self, pat: &EncPattern) -> &'static str {
        match pat.p {
            PredSlot::Const(p) => {
                let Some(table) = self.table(p) else {
                    return "scan";
                };
                let st = table.stats();
                let threshold = self.cfg.index_selectivity_threshold;
                let use_s_index = !self.cfg.force_scans
                    && matches!(pat.s, Slot::Const(_))
                    && cost::use_secondary_index(st.per_subject(), st.rows, threshold);
                let use_o_index = !self.cfg.force_scans
                    && matches!(pat.o, Slot::Const(_))
                    && cost::use_secondary_index(st.per_object(), st.rows, threshold);
                if use_s_index || use_o_index {
                    "index_scan"
                } else {
                    "scan"
                }
            }
            PredSlot::Var(_) => "union_scan",
        }
    }

    /// Decide index-nested-loop vs hash join for extending `acc` by `pat`.
    fn should_inl(&self, acc: &Bindings, pat: &EncPattern) -> bool {
        if self.cfg.force_scans {
            return false;
        }
        let PredSlot::Const(p) = pat.p else {
            return false;
        };
        let Some(table) = self.table(p) else {
            return false;
        };
        // Need at least one endpoint variable already bound (a real join),
        // and the probe side must be small relative to the table.
        let s_joined = pat.s.as_var().is_some_and(|v| acc.col_of(v).is_some());
        let o_joined = pat.o.as_var().is_some_and(|v| acc.col_of(v).is_some());
        if !s_joined && !o_joined {
            return false;
        }
        cost::prefer_index_nested_loop(acc.len(), table.len(), self.cfg.inl_probe_ratio)
    }

    /// Produce the binding table of a single pattern from base tables.
    fn materialize_pattern(
        &self,
        pat: &EncPattern,
        ctx: &mut ExecContext,
    ) -> Result<Bindings, ExecError> {
        // Deduplicated schema (handles `?x p ?x` self-loops).
        let mut schema: Vec<VarId> = Vec::with_capacity(3);
        for v in pat.vars() {
            if !schema.contains(&v) {
                schema.push(v);
            }
        }
        let mut out = Bindings::new(schema.clone());
        let self_loop = match (pat.s, pat.o) {
            (Slot::Var(a), Slot::Var(b)) => a == b,
            _ => false,
        };

        let emit = |s: NodeId, pred: PredId, o: NodeId, out: &mut Bindings| {
            emit_match(pat, &schema, self_loop, s, pred, o, out);
        };

        match pat.p {
            PredSlot::Const(p) => {
                let Some(table) = self.table(p) else {
                    return Ok(out);
                };
                let st = table.stats();
                let threshold = self.cfg.index_selectivity_threshold;
                let use_s_index = !self.cfg.force_scans
                    && matches!(pat.s, Slot::Const(_))
                    && cost::use_secondary_index(st.per_subject(), st.rows, threshold);
                let use_o_index = !self.cfg.force_scans
                    && matches!(pat.o, Slot::Const(_))
                    && cost::use_secondary_index(st.per_object(), st.rows, threshold);

                if let (Slot::Const(s), true) = (pat.s, use_s_index) {
                    let objects = table.lookup_s(s);
                    ctx.charge_probe(objects.len() as u64 + 1)?;
                    for &o in objects {
                        emit(s, p, o, &mut out);
                    }
                } else if let (Slot::Const(o), true) = (pat.o, use_o_index) {
                    let subjects = table.lookup_o(o);
                    ctx.charge_probe(subjects.len() as u64 + 1)?;
                    for &s in subjects {
                        emit(s, p, o, &mut out);
                    }
                } else {
                    // Full scan — the path complex queries take, and the
                    // reason relational latency grows with data size.
                    scan_partition(table.scan(), pat, self_loop, p, ctx, &mut out)?;
                }
            }
            PredSlot::Var(_) => {
                // Union over every partition, ascending by predicate.
                for (p, table) in self.nonempty_tables() {
                    ctx.stats.tables_touched += 1;
                    scan_partition(table.scan(), pat, self_loop, p, ctx, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    /// Index-nested-loop extension of `acc` by one bound pattern.
    fn inl_extend(
        &self,
        acc: &Bindings,
        pat: &EncPattern,
        ctx: &mut ExecContext,
    ) -> Result<Bindings, ExecError> {
        let PredSlot::Const(p) = pat.p else {
            unreachable!("inl_extend requires a bound predicate");
        };
        let Some(table) = self.table(p) else {
            let mut schema = acc.vars().to_vec();
            for v in pat.vars() {
                if !schema.contains(&v) {
                    schema.push(v);
                }
            }
            return Ok(Bindings::new(schema));
        };

        // Where does each endpoint come from?
        #[derive(Copy, Clone)]
        enum Src {
            Const(NodeId),
            AccCol(usize),
            New, // unbound variable: becomes a new output column
        }
        let classify = |slot: Slot| match slot {
            Slot::Const(c) => Src::Const(c),
            Slot::Var(v) => match acc.col_of(v) {
                Some(c) => Src::AccCol(c),
                None => Src::New,
            },
        };
        let s_src = classify(pat.s);
        let o_src = classify(pat.o);

        let mut schema = acc.vars().to_vec();
        let mut new_vars = 0usize;
        if let (Slot::Var(v), Src::New) = (pat.s, s_src) {
            schema.push(v);
            new_vars += 1;
        }
        if let (Slot::Var(v), Src::New) = (pat.o, o_src) {
            // `?x p ?x` with x unbound cannot reach INL (no join var), so a
            // duplicate push is impossible here.
            schema.push(v);
            new_vars += 1;
        }
        let mut out = Bindings::with_capacity(schema, acc.len());

        let mut row_buf: Vec<NodeId> = Vec::with_capacity(acc.width() + new_vars);

        // Charged per 4096-row batch: one probe per input row up front,
        // then the index rows the batch touched and the rows it joined.
        for start in (0..acc.len()).step_by(BATCH) {
            let end = (start + BATCH).min(acc.len());
            ctx.charge_probe((end - start) as u64)?;
            let mut probed = 0u64;
            let mut joined = 0u64;
            for row in (start..end).map(|i| acc.row(i)) {
                let s_val = match s_src {
                    Src::Const(c) => Some(c),
                    Src::AccCol(c) => Some(row[c]),
                    Src::New => None,
                };
                let o_val = match o_src {
                    Src::Const(c) => Some(c),
                    Src::AccCol(c) => Some(row[c]),
                    Src::New => None,
                };
                let matches = match (s_val, o_val) {
                    (Some(s), _) => table.lookup_s(s),
                    (None, Some(o)) => table.lookup_o(o),
                    (None, None) => unreachable!("INL requires a bound endpoint"),
                };
                probed += matches.len() as u64;
                for &n in matches {
                    // `lookup_s` yields objects; `lookup_o` yields subjects.
                    let (ms, mo) = match (s_val, o_val) {
                        (Some(_), Some(o)) if n != o => continue,
                        (Some(s), _) => (s, n),
                        (None, Some(o)) => (n, o),
                        (None, None) => unreachable!("INL requires a bound endpoint"),
                    };
                    row_buf.clear();
                    row_buf.extend_from_slice(row);
                    if matches!((pat.s, s_src), (Slot::Var(_), Src::New)) {
                        row_buf.push(ms);
                    }
                    if matches!((pat.o, o_src), (Slot::Var(_), Src::New)) {
                        row_buf.push(mo);
                    }
                    joined += 1;
                    out.push_row(&row_buf);
                }
            }
            ctx.charge_probe(probed)?;
            ctx.charge_join(joined)?;
            kgdual_vec::note_join_batch(joined as usize);
        }
        Ok(out)
    }
}

/// Emit one `(s, pred, o)` candidate row of an index lookup into `out`,
/// applying the pattern's constant and self-loop filters. `schema`
/// is the pattern's deduplicated variable schema in first-occurrence
/// order (subject, predicate, object); predicate bindings are carried as
/// raw ids in node space.
fn emit_match(
    pat: &EncPattern,
    schema: &[VarId],
    self_loop: bool,
    s: NodeId,
    pred: PredId,
    o: NodeId,
    out: &mut Bindings,
) {
    // Slot filters for constants.
    if let Slot::Const(cs) = pat.s {
        if cs != s {
            return;
        }
    }
    if let Slot::Const(co) = pat.o {
        if co != o {
            return;
        }
    }
    if self_loop && s != o {
        return;
    }
    let mut row: [NodeId; 3] = [NodeId(0); 3];
    let mut w = 0usize;
    let push = |var: VarId, val: NodeId, row: &mut [NodeId; 3], w: &mut usize| {
        if schema[..*w].contains(&var) {
            return;
        }
        row[*w] = val;
        *w += 1;
    };
    if let Slot::Var(v) = pat.s {
        push(v, s, &mut row, &mut w);
    }
    if let PredSlot::Var(v) = pat.p {
        push(v, NodeId(pred.0), &mut row, &mut w);
    }
    if let Slot::Var(v) = pat.o {
        push(v, o, &mut row, &mut w);
    }
    out.push_row(&row[..w]);
}

/// The gather template mirroring [`emit_match`]'s per-row projection: one
/// [`EmitSrc`] per output column in first-occurrence variable order,
/// duplicate variables (self-loops) collapsed exactly as [`emit_match`]
/// collapses them.
fn scan_template(pat: &EncPattern, pred: PredId) -> Vec<EmitSrc> {
    let mut seen: Vec<VarId> = Vec::with_capacity(3);
    let mut template: Vec<EmitSrc> = Vec::with_capacity(3);
    if let Slot::Var(v) = pat.s {
        seen.push(v);
        template.push(EmitSrc::S);
    }
    if let PredSlot::Var(v) = pat.p {
        if !seen.contains(&v) {
            seen.push(v);
            template.push(EmitSrc::Const(NodeId(pred.0)));
        }
    }
    if let Slot::Var(v) = pat.o {
        if !seen.contains(&v) {
            template.push(EmitSrc::O);
        }
    }
    template
}

/// Scan one partition's pair run into `out`, gathering each 4096-row
/// chunk through [`kgdual_vec::gather_pairs`]: one scan charge (and
/// cancellation / work-limit poll) and one bulk append per chunk, rows in
/// `scan()` order.
fn scan_partition(
    rows: &[(NodeId, NodeId)],
    pat: &EncPattern,
    self_loop: bool,
    pred: PredId,
    ctx: &mut ExecContext,
    out: &mut Bindings,
) -> Result<(), ExecError> {
    let _span = kgdual_obs::span!("vec_scan");
    let template = scan_template(pat, pred);
    let s_filter = match pat.s {
        Slot::Const(c) => Some(c),
        Slot::Var(_) => None,
    };
    let o_filter = match pat.o {
        Slot::Const(c) => Some(c),
        Slot::Var(_) => None,
    };
    let mut staging: Vec<NodeId> = Vec::new();
    for chunk in rows.chunks(BATCH) {
        ctx.charge_scan(chunk.len() as u64)?;
        staging.clear();
        kgdual_vec::gather_pairs(
            chunk,
            s_filter,
            o_filter,
            self_loop,
            &template,
            &mut staging,
        );
        out.extend_cells(&staging);
    }
    Ok(())
}

/// Multiplicative hash of a row's key columns. Only its top bits are
/// used (they pick a bucket), and exact keys are re-checked on probe.
#[inline]
fn key_hash(row: &[NodeId], key_cols: &[usize]) -> u64 {
    key_cols.iter().fold(0, |h, &c| {
        (h ^ u64::from(row[c].0)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// A hash join's build table: every build-row id, grouped by the bucket
/// its key hashes to, in one flat array. Bucket `b` is
/// `rows[starts[b]..starts[b + 1]]`, in build-row order, so the rows that
/// share an exact key come out of a probe in build order.
struct BuildTable {
    /// `64 - log2(bucket count)`: a key hash's top bits pick its bucket.
    shift: u32,
    /// Bucket offsets into `rows`, one per bucket plus a closing `len`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl BuildTable {
    /// Hash every row of `build` once, one hash charge per 4096-row batch
    /// before the batch is hashed, then count rows per bucket (about two
    /// buckets per row, a power of two) and scatter the ids.
    fn build(
        build: &Bindings,
        key_cols: &[usize],
        ctx: &mut ExecContext,
    ) -> Result<Self, ExecError> {
        let n = build.len();
        // At least two buckets, so the shift stays below 64.
        let buckets = (2 * n).next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let mut starts = vec![0u32; buckets + 1];
        let mut bucket_of: Vec<u32> = Vec::with_capacity(n);
        for start in (0..n).step_by(BATCH) {
            let end = (start + BATCH).min(n);
            ctx.charge_hash((end - start) as u64)?;
            for i in start..end {
                let b = (key_hash(build.row(i), key_cols) >> shift) as u32;
                starts[b as usize] += 1;
                bucket_of.push(b);
            }
        }
        // Inclusive prefix sums put each bucket's end in `starts[b]`;
        // scattering back to front then walks it down to the bucket's
        // first slot and leaves the ids in build order.
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        let mut rows = vec![0u32; n];
        for (i, &b) in bucket_of.iter().enumerate().rev() {
            let slot = &mut starts[b as usize];
            *slot -= 1;
            rows[*slot as usize] = i as u32;
        }
        Ok(BuildTable {
            shift,
            starts,
            rows,
        })
    }

    /// Build-row ids in the bucket of `row`'s key — a superset of the
    /// rows with that exact key, in build order.
    #[inline]
    fn bucket(&self, row: &[NodeId], key_cols: &[usize]) -> &[u32] {
        let b = (key_hash(row, key_cols) >> self.shift) as usize;
        &self.rows[self.starts[b] as usize..self.starts[b + 1] as usize]
    }
}

/// Hash join of two binding tables on their shared variables (cartesian
/// product when they share none): build on the smaller side, then probe
/// a batch at a time, charging the batch's probes up front and its output
/// rows after.
pub(crate) fn hash_join(
    left: &Bindings,
    right: &Bindings,
    ctx: &mut ExecContext,
) -> Result<Bindings, ExecError> {
    let _span = kgdual_obs::span!("hash_join");
    let shared: Vec<VarId> = left
        .vars()
        .iter()
        .copied()
        .filter(|v| right.col_of(*v).is_some())
        .collect();

    // Output schema: left columns then right's novel columns.
    let mut schema = left.vars().to_vec();
    let right_new_cols: Vec<usize> = right
        .vars()
        .iter()
        .enumerate()
        .filter(|(_, v)| left.col_of(**v).is_none())
        .map(|(i, v)| {
            schema.push(*v);
            i
        })
        .collect();
    let mut out = Bindings::new(schema);
    let mut row_buf = Vec::with_capacity(out.width());

    if shared.is_empty() {
        // Cartesian product.
        for lrow in left.rows() {
            for rrow in right.rows() {
                ctx.charge_join(1)?;
                row_buf.clear();
                row_buf.extend_from_slice(lrow);
                for &c in &right_new_cols {
                    row_buf.push(rrow[c]);
                }
                out.push_row(&row_buf);
            }
        }
        return Ok(out);
    }

    // Build on the smaller side, probe with the larger (the cost model's
    // deterministic tie-to-left choice is exactly the old inline rule).
    let build_left = cost::hash_build_side(left.len(), right.len()) == cost::BuildSide::Left;
    let (build, probe) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let build_key_cols: Vec<usize> = shared.iter().map(|&v| build.col_of(v).unwrap()).collect();
    let probe_key_cols: Vec<usize> = shared.iter().map(|&v| probe.col_of(v).unwrap()).collect();

    let table = BuildTable::build(build, &build_key_cols, ctx)?;

    for start in (0..probe.len()).step_by(BATCH) {
        let end = (start + BATCH).min(probe.len());
        ctx.charge_probe((end - start) as u64)?;
        let mut joined = 0u64;
        for pi in start..end {
            let prow = probe.row(pi);
            for &bi in table.bucket(prow, &probe_key_cols) {
                let brow = build.row(bi as usize);
                // Exact key equality: a bucket holds every key hashed to it.
                if !build_key_cols
                    .iter()
                    .zip(&probe_key_cols)
                    .all(|(&bc, &pc)| brow[bc] == prow[pc])
                {
                    continue;
                }
                let (lrow, rrow) = if build_left {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                joined += 1;
                row_buf.clear();
                row_buf.extend_from_slice(lrow);
                for &c in &right_new_cols {
                    row_buf.push(rrow[c]);
                }
                out.push_row(&row_buf);
            }
        }
        kgdual_vec::note_join_batch(joined as usize);
        ctx.charge_join(joined)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::{Dictionary, Term};
    use kgdual_sparql::{compile, parse, Compiled};

    /// Tiny academic graph mirroring the paper's running example.
    fn academic_store() -> (RelStore, Dictionary) {
        let mut dict = Dictionary::new();
        let mut store = RelStore::new();
        let add = |dict: &mut Dictionary, store: &mut RelStore, s: &str, p: &str, o: &str| {
            let s = dict.encode_node(&Term::iri(s)).unwrap();
            let p = dict.encode_pred(p).unwrap();
            let o = dict.encode_node(&Term::iri(o)).unwrap();
            store.insert(Triple::new(s, p, o));
        };
        // einstein: born in ulm, advisor weber born in ulm  -> match
        // feynman:  born in nyc, advisor wheeler born in jacksonville -> no
        add(&mut dict, &mut store, "y:Einstein", "y:wasBornIn", "y:Ulm");
        add(&mut dict, &mut store, "y:Weber", "y:wasBornIn", "y:Ulm");
        add(
            &mut dict,
            &mut store,
            "y:Einstein",
            "y:hasAcademicAdvisor",
            "y:Weber",
        );
        add(&mut dict, &mut store, "y:Feynman", "y:wasBornIn", "y:NYC");
        add(
            &mut dict,
            &mut store,
            "y:Wheeler",
            "y:wasBornIn",
            "y:Jacksonville",
        );
        add(
            &mut dict,
            &mut store,
            "y:Feynman",
            "y:hasAcademicAdvisor",
            "y:Wheeler",
        );
        add(
            &mut dict,
            &mut store,
            "y:Einstein",
            "y:hasGivenName",
            "y:Albert",
        );
        add(
            &mut dict,
            &mut store,
            "y:Feynman",
            "y:hasGivenName",
            "y:Richard",
        );
        (store, dict)
    }

    fn run(store: &RelStore, dict: &Dictionary, src: &str) -> Bindings {
        let q = parse(src).unwrap();
        match compile(&q, dict).unwrap() {
            Compiled::Query(eq) => {
                let mut ctx = ExecContext::new();
                store.execute(&eq, &mut ctx).unwrap()
            }
            Compiled::EmptyResult => Bindings::new(vec![]),
        }
    }

    fn decode_col(b: &Bindings, dict: &Dictionary, col: usize) -> Vec<String> {
        let mut out: Vec<String> = b
            .rows()
            .map(|r| dict.node(r[col]).unwrap().to_string())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn single_pattern_scan() {
        let (store, dict) = academic_store();
        let res = run(&store, &dict, "SELECT ?p WHERE { ?p y:wasBornIn ?c }");
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn bound_object_lookup() {
        let (store, dict) = academic_store();
        let res = run(&store, &dict, "SELECT ?p WHERE { ?p y:wasBornIn y:Ulm }");
        assert_eq!(decode_col(&res, &dict, 0), vec!["y:Einstein", "y:Weber"]);
    }

    #[test]
    fn paper_complex_query_advisor_same_city() {
        let (store, dict) = academic_store();
        let res = run(
            &store,
            &dict,
            "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }",
        );
        assert_eq!(decode_col(&res, &dict, 0), vec!["y:Einstein"]);
    }

    #[test]
    fn join_with_projection_of_two_vars() {
        let (store, dict) = academic_store();
        let res = run(
            &store,
            &dict,
            "SELECT ?p ?g WHERE { ?p y:hasAcademicAdvisor ?a . ?p y:hasGivenName ?g }",
        );
        assert_eq!(res.len(), 2);
        assert_eq!(res.vars().len(), 2);
    }

    #[test]
    fn ground_pattern_filters() {
        let (store, dict) = academic_store();
        // True ground fact: keeps results.
        let res = run(
            &store,
            &dict,
            "SELECT ?g WHERE { y:Einstein y:wasBornIn y:Ulm . y:Einstein y:hasGivenName ?g }",
        );
        assert_eq!(res.len(), 1);
        // False ground fact: empties the result.
        let res2 = run(
            &store,
            &dict,
            "SELECT ?g WHERE { y:Feynman y:wasBornIn y:Ulm . y:Feynman y:hasGivenName ?g }",
        );
        assert!(res2.is_empty());
    }

    #[test]
    fn distinct_and_limit() {
        let (store, dict) = academic_store();
        let res = run(
            &store,
            &dict,
            "SELECT DISTINCT ?c WHERE { ?p y:wasBornIn ?c }",
        );
        assert_eq!(res.len(), 3); // Ulm, NYC, Jacksonville
        let res2 = run(
            &store,
            &dict,
            "SELECT ?c WHERE { ?p y:wasBornIn ?c } LIMIT 2",
        );
        assert_eq!(res2.len(), 2);
    }

    #[test]
    fn variable_predicate_unions_partitions() {
        let (store, dict) = academic_store();
        let res = run(&store, &dict, "SELECT ?s WHERE { ?s ?pred y:Ulm }");
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn self_loop_pattern() {
        let (mut store, mut dict) = academic_store();
        let narcissus = dict.encode_node(&Term::iri("y:Narcissus")).unwrap();
        let loves = dict.encode_pred("y:loves").unwrap();
        store.insert(Triple::new(narcissus, loves, narcissus));
        let other = dict.encode_node(&Term::iri("y:Echo")).unwrap();
        store.insert(Triple::new(other, loves, narcissus));
        let res = run(&store, &dict, "SELECT ?x WHERE { ?x y:loves ?x }");
        assert_eq!(decode_col(&res, &dict, 0), vec!["y:Narcissus"]);
    }

    #[test]
    fn empty_result_for_unmatched_join() {
        let (store, dict) = academic_store();
        let res = run(
            &store,
            &dict,
            "SELECT ?p WHERE { ?p y:hasGivenName ?g . ?g y:wasBornIn ?c }",
        );
        assert!(res.is_empty());
    }

    #[test]
    fn seeded_execution_joins_with_seed() {
        let (store, dict) = academic_store();
        let q = parse("SELECT ?p ?g WHERE { ?p y:hasGivenName ?g . ?p y:wasBornIn ?c }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        // Seed: ?p = Einstein only (as if migrated from the graph store).
        let p_var = 0; // first var in the query is ?p
        let einstein = dict.node_id(&Term::iri("y:Einstein")).unwrap();
        let mut seed = Bindings::new(vec![p_var]);
        seed.push_row(&[einstein]);
        let mut ctx = ExecContext::new();
        let res = store.execute_with_seed(&eq, &seed, &mut ctx).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(decode_col(&res, &dict, 0), vec!["y:Einstein"]);
    }

    #[test]
    fn empty_seed_short_circuits() {
        let (store, dict) = academic_store();
        let q = parse("SELECT ?p WHERE { ?p y:wasBornIn ?c }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let seed = Bindings::new(vec![0]);
        let mut ctx = ExecContext::new();
        let res = store.execute_with_seed(&eq, &seed, &mut ctx).unwrap();
        assert!(res.is_empty());
        assert_eq!(ctx.stats.rows_scanned, 0, "must not touch tables");
    }

    #[test]
    fn cancellation_interrupts_scan() {
        let (store, dict) = academic_store();
        let q = parse("SELECT ?p WHERE { ?p y:wasBornIn ?c }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let mut ctx = ExecContext::with_work_limit(0);
        assert!(matches!(
            store.execute(&eq, &mut ctx),
            Err(ExecError::Cancelled { .. })
        ));
    }

    #[test]
    fn stats_count_scans_for_complex_query() {
        let (store, dict) = academic_store();
        let q = parse(
            "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }",
        )
        .unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let mut ctx = ExecContext::new();
        store.execute(&eq, &mut ctx).unwrap();
        assert!(ctx.stats.rows_scanned > 0, "complex queries must scan");
        assert!(ctx.stats.work_units() > 0);
    }

    #[test]
    fn force_scans_config_disables_indexes() {
        let (store, dict) = academic_store();
        let mut forced = RelStore::new();
        // Copy data over.
        for p in store.preds() {
            forced.load_partition(p, store.table(p).unwrap().scan());
        }
        forced.set_config(PlannerConfig {
            force_scans: true,
            ..PlannerConfig::default()
        });
        let q = parse("SELECT ?p WHERE { ?p y:wasBornIn y:Ulm }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let mut ctx = ExecContext::new();
        let res = forced.execute(&eq, &mut ctx).unwrap();
        assert_eq!(res.len(), 2);
        assert!(ctx.stats.rows_scanned > 0);
        assert_eq!(ctx.stats.index_probes, 0);
    }

    #[test]
    fn insert_delete_roundtrip() {
        let (mut store, mut dict) = academic_store();
        let before = store.total_triples();
        let s = dict.encode_node(&Term::iri("y:New")).unwrap();
        let p = dict.encode_pred("y:wasBornIn").unwrap();
        let o = dict.encode_node(&Term::iri("y:Ulm")).unwrap();
        store.insert(Triple::new(s, p, o));
        assert_eq!(store.total_triples(), before + 1);
        assert_eq!(store.delete(Triple::new(s, p, o)), 1);
        assert_eq!(store.total_triples(), before);
        assert_eq!(store.delete(Triple::new(s, p, o)), 0);
    }

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), PredId(p), NodeId(o))
    }

    /// One row `(p, p, p + 1)` per predicate, loaded in the order given.
    fn one_row_each(preds: &[u32]) -> RelStore {
        let mut store = RelStore::new();
        for &p in preds {
            store.load_partition(PredId(p), &[(NodeId(p), NodeId(p + 1))]);
        }
        store
    }

    #[test]
    fn preds_enumerate_ascending_whatever_the_load_order() {
        let store = one_row_each(&[5, 0, 3, 1]);
        let preds: Vec<u32> = store.preds().map(|p| p.0).collect();
        assert_eq!(preds, vec![0, 1, 3, 5]);
        let scanned: Vec<u32> = store.nonempty_tables().map(|(p, _)| p.0).collect();
        assert_eq!(scanned, preds, "the union scan's order");
    }

    #[test]
    fn delete_updates_row_accounting() {
        let mut store = one_row_each(&[2, 4]);
        store.insert(t(7, 4, 8));
        assert_eq!(store.total_triples(), 3);
        assert_eq!(store.delete(t(7, 4, 8)), 1);
        assert_eq!(store.total_triples(), 2);
        assert_eq!(store.partition_len(PredId(4)), 1);
        // Deleting from a predicate the store has never held is a no-op.
        assert_eq!(store.delete(t(0, 99, 1)), 0);
        assert_eq!(store.total_triples(), 2);
    }

    #[test]
    fn emptied_partitions_drop_out_of_enumeration() {
        let mut store = one_row_each(&[0, 1]);
        assert_eq!(store.delete(t(0, 0, 1)), 1);
        assert!(!store.preds().any(|p| p == PredId(0)));
        assert!(store.table(PredId(0)).is_some(), "entry survives for reuse");
        assert_eq!(store.partition_len(PredId(0)), 0);
    }

    #[test]
    fn work_limited_scans_take_the_batched_path() {
        // There is one executor: a λ-cutoff run gathers through the same
        // batch kernels as every other run.
        let (store, dict) = academic_store();
        let q = parse("SELECT ?p WHERE { ?p y:wasBornIn ?c }").unwrap();
        let Compiled::Query(eq) = compile(&q, &dict).unwrap() else {
            panic!()
        };
        let before = kgdual_vec::batches_emitted();
        let mut ctx = ExecContext::with_work_limit(1_000);
        assert_eq!(store.execute(&eq, &mut ctx).unwrap().len(), 4);
        assert!(
            kgdual_vec::batches_emitted() > before,
            "a work-limited scan must emit batches"
        );
    }

    #[test]
    fn hash_join_cartesian_when_disjoint() {
        let mut l = Bindings::new(vec![0]);
        l.push_row(&[NodeId(1)]);
        l.push_row(&[NodeId(2)]);
        let mut r = Bindings::new(vec![1]);
        r.push_row(&[NodeId(7)]);
        let mut ctx = ExecContext::new();
        let j = hash_join(&l, &r, &mut ctx).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.vars(), &[0, 1]);
        assert_eq!(j.row(0), &[NodeId(1), NodeId(7)]);
    }

    #[test]
    fn hash_join_multi_var_key() {
        let mut l = Bindings::new(vec![0, 1]);
        l.push_row(&[NodeId(1), NodeId(2)]);
        l.push_row(&[NodeId(1), NodeId(3)]);
        let mut r = Bindings::new(vec![0, 1, 2]);
        r.push_row(&[NodeId(1), NodeId(2), NodeId(9)]);
        r.push_row(&[NodeId(1), NodeId(9), NodeId(8)]);
        let mut ctx = ExecContext::new();
        let j = hash_join(&l, &r, &mut ctx).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.row(0), &[NodeId(1), NodeId(2), NodeId(9)]);
    }

    /// `rows` rows over `vars`, every cell drawn from `0..keys` by a
    /// seeded SplitMix64 stream.
    fn keyed_rows(vars: Vec<VarId>, rows: usize, keys: u64, seed: u64) -> Bindings {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            NodeId(((z ^ (z >> 31)) % keys) as u32)
        };
        let mut out = Bindings::new(vars);
        let mut row = vec![NodeId(0); out.width()];
        for _ in 0..rows {
            row.iter_mut().for_each(|c| *c = next());
            out.push_row(&row);
        }
        out
    }

    /// The join by definition: probe rows outer, build rows inner, each
    /// pair whose shared columns agree emitted as left columns then
    /// right's novel ones — with the charges a hash join owes: one hashed
    /// row per build row, one probe per probe row, one per output row.
    fn nested_loop_reference(left: &Bindings, right: &Bindings) -> (Bindings, ExecStats) {
        let build_left = left.len() <= right.len();
        let (build, probe) = if build_left {
            (left, right)
        } else {
            (right, left)
        };
        let key_cols: Vec<(usize, usize)> = build
            .vars()
            .iter()
            .enumerate()
            .filter_map(|(bc, &v)| probe.col_of(v).map(|pc| (bc, pc)))
            .collect();
        let new_cols: Vec<usize> = (0..right.width())
            .filter(|&c| left.col_of(right.vars()[c]).is_none())
            .collect();
        let mut schema = left.vars().to_vec();
        schema.extend(new_cols.iter().map(|&c| right.vars()[c]));
        let mut out = Bindings::new(schema);
        for prow in probe.rows() {
            for brow in build.rows() {
                if key_cols.iter().all(|&(bc, pc)| brow[bc] == prow[pc]) {
                    let (lrow, rrow) = if build_left {
                        (brow, prow)
                    } else {
                        (prow, brow)
                    };
                    let mut row = lrow.to_vec();
                    row.extend(new_cols.iter().map(|&c| rrow[c]));
                    out.push_row(&row);
                }
            }
        }
        let stats = ExecStats {
            rows_hashed: build.len() as u64,
            index_probes: probe.len() as u64,
            rows_joined: out.len() as u64,
            ..ExecStats::default()
        };
        (out, stats)
    }

    /// Join `left` with `right` and check the result against the
    /// nested-loop reference: same rows, same row order, same charges.
    fn assert_matches_reference(left: &Bindings, right: &Bindings, case: &str) {
        let (want, want_stats) = nested_loop_reference(left, right);
        let mut ctx = ExecContext::new();
        let got = hash_join(left, right, &mut ctx).unwrap();
        assert_eq!(got, want, "{case}: rows or row order differ");
        assert_eq!(ctx.stats, want_stats, "{case}: charges differ");
    }

    #[test]
    fn hash_join_matches_nested_loop_order_and_charges() {
        // Duplicate single-column keys, building left and then right.
        let small = keyed_rows(vec![0, 1], 50, 10, 1);
        let large = keyed_rows(vec![1, 2], 80, 10, 2);
        assert_matches_reference(&small, &large, "build left");
        assert_matches_reference(&large, &small, "build right");
        // Two-column keys, listed in a different column order per side.
        let l = keyed_rows(vec![0, 1, 2], 60, 4, 3);
        let r = keyed_rows(vec![2, 3, 0], 90, 4, 4);
        assert_matches_reference(&l, &r, "two-column key, build left");
        assert_matches_reference(&r, &l, "two-column key, build right");
        // An empty side, either way round.
        let empty = Bindings::new(vec![1, 5]);
        assert_matches_reference(&empty, &large, "empty left");
        assert_matches_reference(&large, &empty, "empty right");
        // Enough distinct keys, spread wide, that buckets are shared; the
        // probe side reuses build keys so most of its rows find a match.
        let build = keyed_rows(vec![0, 1], 3_000, 1 << 30, 5);
        let mut probe = Bindings::new(vec![1, 2]);
        for (i, row) in keyed_rows(vec![1, 2], 5_000, 1 << 30, 6).rows().enumerate() {
            let key = build.row(i * 7 % build.len())[1];
            probe.push_row(&[if i % 4 == 0 { row[0] } else { key }, row[1]]);
        }
        assert_matches_reference(&build, &probe, "shared buckets");
        let table = BuildTable::build(&build, &[1], &mut ExecContext::new()).unwrap();
        let shared = table.starts.windows(2).any(|w| {
            let ids = &table.rows[w[0] as usize..w[1] as usize];
            ids.iter()
                .any(|&i| build.row(i as usize)[1] != build.row(ids[0] as usize)[1])
        });
        assert!(shared, "the case must put two distinct keys in one bucket");
        // A probe side of several batches, the last one partial.
        let build = keyed_rows(vec![0, 1], 500, 3_000, 7);
        let probe = keyed_rows(vec![1, 2], 4 * BATCH + 100, 3_000, 8);
        assert_matches_reference(&build, &probe, "multi-batch probe");
    }

    #[test]
    fn a_work_limit_inside_the_build_cancels_at_its_batch_boundary() {
        let build = keyed_rows(vec![0, 1], 3 * BATCH + 7, 1 << 20, 9);
        let probe = keyed_rows(vec![1, 2], 4 * BATCH, 1 << 20, 10);
        let cancelled_at = |limit: u64| {
            let mut ctx = ExecContext::with_work_limit(limit);
            match hash_join(&build, &probe, &mut ctx) {
                Err(ExecError::Cancelled { partial_work }) => (partial_work, ctx.stats),
                Ok(_) => panic!("a limit of {limit} inside the build must cancel"),
            }
        };
        // A hashed row is two work units, charged a batch at a time.
        let mut prev = 0;
        for k in 1..=build.len().div_ceil(BATCH) {
            let boundary = 2 * (k * BATCH).min(build.len()) as u64;
            let at_boundary = cancelled_at(boundary);
            assert_eq!(at_boundary.0, boundary);
            assert_eq!(
                at_boundary.1.index_probes, 0,
                "no probe before the build ends"
            );
            for limit in [prev + 1, (prev + boundary) / 2, boundary - 1] {
                assert_eq!(cancelled_at(limit), at_boundary, "limit {limit}");
            }
            prev = boundary;
        }
    }
}
