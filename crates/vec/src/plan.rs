//! Query-plan introspection shared by both substrates: the structured
//! `EXPLAIN` description and its `EXPLAIN ANALYZE` execution profile.
//!
//! Both planners — the relational planner's greedy join order in
//! `kgdual-relstore` and the matcher's `order_patterns` path in
//! `kgdual-graphstore` — price patterns with [`crate::cost`]. This
//! module gives those decisions a durable shape: as a query executes,
//! the planners push one [`PlanStep`] per physical operator (with the
//! exact cost-model estimate that chose it) and accumulate per-operator
//! actuals (rows, batches, work units, wall-ns) into an [`OpProfile`].
//! The processor assembles them into a [`PlanDesc`] + [`QueryProfile`]
//! pair attached to the query outcome, which `kgdual-serve` returns for
//! `"explain": "plan" | "analyze"` and `kgdual-explain` renders as text.
//!
//! ## Determinism
//!
//! [`PlanDesc::deterministic_json`] covers the fields the equivalence
//! suites pin byte-identical across threads: the route, the operator
//! sequence, per-operator estimates, and (on the profile side,
//! [`QueryProfile::deterministic_json`]) actual row counts and work
//! units. Wall-ns/batch counts vary by machine, so the full
//! [`QueryProfile::to_json`] form carries them but the deterministic
//! form excludes them.
//!
//! ## The collector
//!
//! Capture is a thread-local session ([`begin_capture`]/[`end_capture`])
//! owned by the processor: both stores' operators run on the query's
//! task thread, so no locking is needed and concurrent queries cannot
//! interleave captures. With no capture
//! active every hook is one thread-local flag test.

use std::cell::{Cell, RefCell};

/// Coarse operator family, for the estimate-vs-actual q-error split
/// (`plan_qerror_scan` vs `plan_qerror_join`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Base-table access: full or index scan, union scan, graph seed.
    Scan,
    /// Binding extension: hash join, index-nested-loop, graph extend.
    Join,
    /// Constant-only pattern check (no cardinality to misestimate).
    Filter,
}

impl OpKind {
    /// Stable lowercase name (the JSON `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::Join => "join",
            OpKind::Filter => "filter",
        }
    }
}

/// One physical operator the planner chose, with the estimate that
/// chose it. All fields are deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanStep {
    /// Physical operator name (`"scan"`, `"index_scan"`, `"union_scan"`,
    /// `"hash_join"`, `"inl_join"`, `"graph_seed"`, `"graph_extend"`,
    /// `"ground_filter"`).
    pub op: &'static str,
    /// Operator family.
    pub kind: OpKind,
    /// Index of the triple pattern (in query order) this operator binds.
    pub pattern: usize,
    /// The cost model's cardinality estimate for this operator's output.
    pub est_rows: f64,
}

/// Per-operator actuals accumulated during execution, parallel to the
/// plan's step list. Rows and work units are deterministic; batches and
/// wall-ns are observational only.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Rows this operator actually produced.
    pub actual_rows: u64,
    /// Vectorized batches the operator emitted (0 for the graph
    /// matcher's steps, whose morsels are not counted; approximate when
    /// concurrent queries share the process).
    pub batches: u64,
    /// Deterministic work units charged while the operator ran.
    pub work: u64,
    /// Wall-clock nanoseconds the operator ran for.
    pub wall_ns: u64,
}

/// The structured `EXPLAIN` output: route + operator sequence. The
/// pipeline is left-deep, so a flat ordered list is the operator tree.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanDesc {
    /// Which store(s) the router chose (`route_name` spelling).
    pub route: &'static str,
    /// Operators in execution order.
    pub steps: Vec<PlanStep>,
}

impl PlanDesc {
    /// The plan as JSON. Every field is deterministic — byte-identical
    /// across threads by the equivalence contract.
    pub fn deterministic_json(&self) -> String {
        let mut out = format!("{{\"route\":\"{}\",\"steps\":[", self.route);
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"op\":\"{}\",\"kind\":\"{}\",\"pattern\":{},\"est_rows\":{}}}",
                s.op,
                s.kind.name(),
                s.pattern,
                s.est_rows
            ));
        }
        out.push_str("]}");
        out
    }

    /// Indented text rendering (the `kgdual-explain` output). With a
    /// profile, each line carries estimate vs actual and timing.
    pub fn render_text(&self, profile: Option<&QueryProfile>) -> String {
        let mut out = format!("route={}\n", self.route);
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&"  ".repeat(i + 1));
            out.push_str(&format!(
                "-> {} pattern#{} est={}",
                s.op, s.pattern, s.est_rows
            ));
            if let Some(p) = profile.and_then(|p| p.ops.get(i)) {
                out.push_str(&format!(
                    " actual={} work={} batches={} wall={}ns (q-error {:.2})",
                    p.actual_rows,
                    p.work,
                    p.batches,
                    p.wall_ns,
                    q_error(s.est_rows, p.actual_rows)
                ));
            }
            out.push('\n');
        }
        if let Some(p) = profile {
            out.push_str(&format!(
                "total: work={} wall={}ns\n",
                p.total_work, p.total_wall_ns
            ));
        }
        out
    }
}

/// The `EXPLAIN ANALYZE` execution profile: one [`OpProfile`] per plan
/// step, plus query totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryProfile {
    /// Per-operator actuals, index-parallel to [`PlanDesc::steps`].
    pub ops: Vec<OpProfile>,
    /// Deterministic work units the whole query charged.
    pub total_work: u64,
    /// Wall-clock nanoseconds for the whole query (observational).
    pub total_wall_ns: u64,
}

impl QueryProfile {
    /// The deterministic fields only: per-operator actual rows + work
    /// and the query's total work.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::from("{\"ops\":[");
        for (i, p) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"actual_rows\":{},\"work\":{}}}",
                p.actual_rows, p.work
            ));
        }
        out.push_str(&format!("],\"total_work\":{}}}", self.total_work));
        out
    }

    /// The full JSON form (adds batches and wall-clock timings).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ops\":[");
        for (i, p) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"actual_rows\":{},\"work\":{},\"batches\":{},\"wall_ns\":{}}}",
                p.actual_rows, p.work, p.batches, p.wall_ns
            ));
        }
        out.push_str(&format!(
            "],\"total_work\":{},\"total_wall_ns\":{}}}",
            self.total_work, self.total_wall_ns
        ));
        out
    }
}

/// The planner-drift metric: `max(est/actual, actual/est)`, floored at
/// 1.0 (a perfect estimate), with zero rows on either side clamped to
/// one so the ratio stays finite.
pub fn q_error(est_rows: f64, actual_rows: u64) -> f64 {
    let est = est_rows.max(1.0);
    let actual = (actual_rows as f64).max(1.0);
    (est / actual).max(actual / est)
}

/// One in-flight capture: steps + index-parallel actuals.
#[derive(Default)]
pub struct Captured {
    /// Operators in execution order.
    pub steps: Vec<PlanStep>,
    /// Actuals, index-parallel to `steps`.
    pub ops: Vec<OpProfile>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Captured>> = const { RefCell::new(None) };
    // Mirror of ACTIVE.is_some(), readable without a RefCell borrow:
    // `capturing()` is the hot-path gate every operator hook tests.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// Sentinel step index returned when no capture is active; every
/// `note_*` call ignores it.
pub const NO_STEP: usize = usize::MAX;

/// Start a plan/profile capture on this thread, discarding any capture
/// left behind by a panicked predecessor.
pub fn begin_capture() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(Captured::default()));
    CAPTURING.with(|c| c.set(true));
}

/// Whether a capture is active on this thread (one thread-local read).
pub fn capturing() -> bool {
    CAPTURING.with(|c| c.get())
}

/// Finish the capture and take its contents (`None` when none active).
pub fn end_capture() -> Option<Captured> {
    CAPTURING.with(|c| c.set(false));
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Record one planned operator; returns its step index for the
/// `note_actual` calls that follow (or [`NO_STEP`] without a capture).
pub fn note_step(op: &'static str, kind: OpKind, pattern: usize, est_rows: f64) -> usize {
    if !capturing() {
        return NO_STEP;
    }
    ACTIVE.with(|a| {
        let mut g = a.borrow_mut();
        let cap = g.as_mut().expect("CAPTURING implies ACTIVE");
        cap.steps.push(PlanStep {
            op,
            kind,
            pattern,
            est_rows,
        });
        cap.ops.push(OpProfile::default());
        cap.steps.len() - 1
    })
}

/// Accumulate actuals for `step` (additive, so incremental recorders
/// like the graph matcher's per-depth counters can call it repeatedly).
pub fn note_actual(step: usize, rows: u64, work: u64, wall_ns: u64) {
    if step == NO_STEP || !capturing() {
        return;
    }
    ACTIVE.with(|a| {
        let mut g = a.borrow_mut();
        let cap = g.as_mut().expect("CAPTURING implies ACTIVE");
        if let Some(op) = cap.ops.get_mut(step) {
            op.actual_rows += rows;
            op.work += work;
            op.wall_ns += wall_ns;
        }
    })
}

/// Accumulate vectorized batch counts for `step` (observational only).
pub fn note_step_batches(step: usize, batches: u64) {
    if step == NO_STEP || batches == 0 || !capturing() {
        return;
    }
    ACTIVE.with(|a| {
        let mut g = a.borrow_mut();
        let cap = g.as_mut().expect("CAPTURING implies ACTIVE");
        if let Some(op) = cap.ops.get_mut(step) {
            op.batches += batches;
        }
    })
}

/// Feed the estimate-vs-actual drift of a finished capture into the
/// `plan_qerror_scan` / `plan_qerror_join` histograms (rounded to u64;
/// filters carry no cardinality estimate and are skipped). Gated on the
/// global obs flag like every other instrument.
pub fn record_q_errors(steps: &[PlanStep], ops: &[OpProfile]) {
    let obs = crate::vec_obs();
    for (s, p) in steps.iter().zip(ops) {
        let q = q_error(s.est_rows, p.actual_rows).round() as u64;
        match s.kind {
            OpKind::Scan => obs.plan_qerror_scan.record(q),
            OpKind::Join => obs.plan_qerror_join.record(q),
            OpKind::Filter => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> PlanDesc {
        PlanDesc {
            route: "graph",
            steps: vec![
                PlanStep {
                    op: "graph_seed",
                    kind: OpKind::Scan,
                    pattern: 1,
                    est_rows: 120.0,
                },
                PlanStep {
                    op: "graph_extend",
                    kind: OpKind::Join,
                    pattern: 0,
                    est_rows: 1.5,
                },
            ],
        }
    }

    #[test]
    fn deterministic_json_excludes_config_fields() {
        let plan = sample_plan();
        let det = plan.deterministic_json();
        assert_eq!(
            det,
            "{\"route\":\"graph\",\"steps\":[\
             {\"op\":\"graph_seed\",\"kind\":\"scan\",\"pattern\":1,\"est_rows\":120},\
             {\"op\":\"graph_extend\",\"kind\":\"join\",\"pattern\":0,\"est_rows\":1.5}]}"
        );
    }

    #[test]
    fn profile_json_splits_deterministic_from_timing() {
        let prof = QueryProfile {
            ops: vec![OpProfile {
                actual_rows: 100,
                batches: 2,
                work: 7,
                wall_ns: 12345,
            }],
            total_work: 7,
            total_wall_ns: 99999,
        };
        let det = prof.deterministic_json();
        assert_eq!(
            det,
            "{\"ops\":[{\"actual_rows\":100,\"work\":7}],\"total_work\":7}"
        );
        assert!(!det.contains("wall"), "wall clock is machine-dependent");
        assert!(!det.contains("batches"), "batch counts are observational");
        assert!(prof.to_json().contains("\"wall_ns\":12345"));
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(100.0, 100), 1.0);
        assert_eq!(q_error(200.0, 100), 2.0);
        assert_eq!(q_error(50.0, 100), 2.0);
        assert_eq!(q_error(0.0, 0), 1.0, "zero/zero clamps to perfect");
        assert_eq!(q_error(0.5, 10), 10.0, "sub-row estimates clamp to 1");
    }

    #[test]
    fn capture_collects_steps_and_additive_actuals() {
        begin_capture();
        assert!(capturing());
        let s0 = note_step("scan", OpKind::Scan, 0, 10.0);
        let s1 = note_step("hash_join", OpKind::Join, 1, 4.0);
        note_actual(s0, 8, 1, 100);
        note_actual(s1, 3, 1, 50);
        note_actual(s1, 2, 1, 25); // incremental add
        note_step_batches(s0, 2);
        let cap = end_capture().expect("capture was active");
        assert!(!capturing());
        assert_eq!(cap.steps.len(), 2);
        assert_eq!(cap.ops[0].actual_rows, 8);
        assert_eq!(cap.ops[0].batches, 2);
        assert_eq!(cap.ops[1].actual_rows, 5);
        assert_eq!(cap.ops[1].work, 2);
        assert_eq!(cap.ops[1].wall_ns, 75);
    }

    #[test]
    fn hooks_are_inert_without_a_capture() {
        assert!(!capturing());
        let idx = note_step("scan", OpKind::Scan, 0, 1.0);
        assert_eq!(idx, NO_STEP);
        note_actual(idx, 1, 1, 1);
        note_step_batches(idx, 1);
        assert!(end_capture().is_none());
    }

    #[test]
    fn render_text_indents_the_pipeline() {
        let plan = sample_plan();
        let text = plan.render_text(None);
        assert!(text.starts_with("route=graph\n"));
        assert!(text.contains("  -> graph_seed pattern#1 est=120\n"));
        assert!(text.contains("    -> graph_extend pattern#0 est=1.5\n"));
        let prof = QueryProfile {
            ops: vec![OpProfile::default(), OpProfile::default()],
            total_work: 3,
            total_wall_ns: 0,
        };
        let analyzed = plan.render_text(Some(&prof));
        assert!(analyzed.contains("actual=0"));
        assert!(analyzed.contains("total: work=3"));
    }
}
