//! Join ordering and access-path policy.
//!
//! The planner mirrors the two relational behaviours the paper's motivation
//! (§1, Table 1) depends on:
//!
//! 1. **Greedy cardinality-first join ordering** — patterns are joined
//!    smallest-estimate first, preferring patterns connected to already
//!    bound variables (avoiding cartesian products).
//! 2. **The index-vs-scan cliff** — a bound pattern uses a sorted
//!    permutation index only when its estimated selectivity is below a
//!    threshold; otherwise the table is scanned. Complex all-variable
//!    patterns therefore always scan, which is exactly why their cost grows
//!    with data size while the graph store's traversal does not.

use kgdual_model::PredId;
use kgdual_sparql::{EncPattern, EncodedQuery, PredSlot, Slot, VarId};
use kgdual_vec::cost::{self, Card};
use serde::{Deserialize, Serialize};

/// Tunables for planning and access-path selection.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// A bound pattern uses an index only if its estimated match fraction
    /// is at most this value (MySQL-style optimizer cliff).
    pub index_selectivity_threshold: f64,
    /// Index-nested-loop join is chosen over hash join only when the
    /// accumulated binding count is below `ratio · table_rows`.
    pub inl_probe_ratio: f64,
    /// Ablation switch D1 (README, "Simulated cost and ablations"): force
    /// full scans everywhere.
    pub force_scans: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            index_selectivity_threshold: 0.05,
            inl_probe_ratio: 0.10,
            force_scans: false,
        }
    }
}

/// Per-pattern cardinality estimate given nothing bound (the shared
/// cost model's [`cost::base_cardinality`] over the table's statistics).
pub fn base_estimate(
    pat: &EncPattern,
    stats_of: &mut dyn FnMut(PredId) -> Option<Card>,
    total_rows: usize,
) -> f64 {
    let s_const = matches!(pat.s, Slot::Const(_));
    let o_const = matches!(pat.o, Slot::Const(_));
    match pat.p {
        PredSlot::Const(p) => {
            let Some(st) = stats_of(p) else { return 0.0 };
            cost::base_cardinality(st, s_const, o_const)
        }
        // Variable predicate: every partition is a candidate.
        PredSlot::Var(_) => cost::var_pred_cardinality(total_rows, s_const || o_const),
    }
}

/// Estimate the rows a pattern yields once the variables in `bound` are
/// pinned by earlier joins.
pub fn bound_estimate(
    pat: &EncPattern,
    bound: &[VarId],
    stats_of: &mut dyn FnMut(PredId) -> Option<Card>,
    total_rows: usize,
) -> f64 {
    let s_bound =
        matches!(pat.s, Slot::Const(_)) || pat.s.as_var().is_some_and(|v| bound.contains(&v));
    let o_bound =
        matches!(pat.o, Slot::Const(_)) || pat.o.as_var().is_some_and(|v| bound.contains(&v));
    match pat.p {
        PredSlot::Const(p) => {
            let Some(st) = stats_of(p) else { return 0.0 };
            cost::bound_cardinality(st, s_bound, o_bound)
        }
        PredSlot::Var(_) => cost::var_pred_cardinality(total_rows, s_bound || o_bound),
    }
}

/// Greedy join order over pattern indexes: cheapest first, then repeatedly
/// the cheapest pattern *connected* to the bound variable set (falling back
/// to the globally cheapest when the pattern graph is disconnected).
///
/// `seed_vars` are variables already bound before the BGP starts (Case 2 of
/// the paper's query processor: intermediate results migrated from the
/// graph store).
pub fn order_patterns(
    q: &EncodedQuery,
    seed_vars: &[VarId],
    stats_of: &mut dyn FnMut(PredId) -> Option<Card>,
    total_rows: usize,
) -> Vec<usize> {
    let n = q.patterns.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut bound: Vec<VarId> = seed_vars.to_vec();

    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| q.patterns[i].vars().any(|v| bound.contains(&v)))
            .collect();
        let candidates: &[usize] = if !connected.is_empty() || order.is_empty() {
            if connected.is_empty() {
                &remaining
            } else {
                &connected
            }
        } else {
            // Disconnected component: cartesian product is unavoidable;
            // restart greedily from the cheapest remaining pattern.
            &remaining
        };
        let &best = candidates
            .iter()
            .min_by(|&&a, &&b| {
                let ea = bound_estimate(&q.patterns[a], &bound, stats_of, total_rows);
                let eb = bound_estimate(&q.patterns[b], &bound, stats_of, total_rows);
                ea.total_cmp(&eb)
            })
            .expect("candidates nonempty");
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

/// Estimate the result cardinality of a BGP: walk the greedy join order
/// multiplying per-step fan-outs. Crude (independence assumptions all the
/// way down) but adequate for the query processor's Case-2 blowup guard.
pub fn estimate_result_rows(
    q: &EncodedQuery,
    stats_of: &mut dyn FnMut(PredId) -> Option<Card>,
    total_rows: usize,
) -> f64 {
    let order = order_patterns(q, &[], stats_of, total_rows);
    let mut bound: Vec<VarId> = Vec::new();
    let mut acc = 1.0f64;
    for idx in order {
        let pat = &q.patterns[idx];
        acc *= bound_estimate(pat, &bound, stats_of, total_rows).max(1e-3);
        acc = acc.min(1e15);
        for v in pat.vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::NodeId;

    fn stats(rows: usize, ds: usize, dobj: usize) -> Card {
        Card {
            rows,
            distinct_s: ds,
            distinct_o: dobj,
        }
    }

    fn pat(s: Slot, p: u32, o: Slot) -> EncPattern {
        EncPattern {
            s,
            p: PredSlot::Const(PredId(p)),
            o,
        }
    }

    fn query(patterns: Vec<EncPattern>) -> EncodedQuery {
        EncodedQuery {
            vars: (0..8)
                .map(|i| kgdual_sparql::Var::new(format!("v{i}")))
                .collect(),
            patterns,
            projection: vec![0],
            distinct: false,
            limit: None,
        }
    }

    #[test]
    fn base_estimate_uses_distincts() {
        let mut s = |_p: PredId| Some(stats(1000, 100, 10));
        let all_var = pat(Slot::Var(0), 0, Slot::Var(1));
        assert_eq!(base_estimate(&all_var, &mut s, 1000), 1000.0);
        let s_const = pat(Slot::Const(NodeId(1)), 0, Slot::Var(1));
        assert_eq!(base_estimate(&s_const, &mut s, 1000), 10.0);
        let o_const = pat(Slot::Var(0), 0, Slot::Const(NodeId(1)));
        assert_eq!(base_estimate(&o_const, &mut s, 1000), 100.0);
    }

    #[test]
    fn bound_estimate_shrinks_with_bindings() {
        let mut s = |_p: PredId| Some(stats(1000, 100, 10));
        let p = pat(Slot::Var(0), 0, Slot::Var(1));
        assert_eq!(bound_estimate(&p, &[], &mut s, 1000), 1000.0);
        assert_eq!(bound_estimate(&p, &[0], &mut s, 1000), 10.0);
        assert_eq!(bound_estimate(&p, &[1], &mut s, 1000), 100.0);
        assert_eq!(bound_estimate(&p, &[0, 1], &mut s, 1000), 1.0);
    }

    #[test]
    fn order_starts_with_cheapest() {
        // Pattern 0 is huge, pattern 1 is small: order must start at 1.
        let q = query(vec![
            pat(Slot::Var(0), 0, Slot::Var(1)),
            pat(Slot::Var(1), 1, Slot::Var(2)),
        ]);
        let mut s = |p: PredId| {
            Some(if p == PredId(0) {
                stats(10_000, 100, 100)
            } else {
                stats(10, 10, 10)
            })
        };
        let order = order_patterns(&q, &[], &mut s, 10_010);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn order_prefers_connected_patterns() {
        // 0: (v0,v1) small; 1: (v5,v6) tiny but disconnected; 2: (v1,v2) big.
        let q = query(vec![
            pat(Slot::Var(0), 0, Slot::Var(1)),
            pat(Slot::Var(5), 1, Slot::Var(6)),
            pat(Slot::Var(1), 2, Slot::Var(2)),
        ]);
        let mut s = |p: PredId| {
            Some(match p.0 {
                0 => stats(50, 50, 50),
                1 => stats(10, 10, 10),
                _ => stats(1000, 100, 100),
            })
        };
        let order = order_patterns(&q, &[], &mut s, 1060);
        // Starts at 1 (cheapest), but then must NOT be able to connect, so
        // it picks the cheapest remaining (0), then the connected 2.
        assert_eq!(order[0], 1);
        assert_eq!(order[1], 0);
        assert_eq!(order[2], 2);
    }

    #[test]
    fn seed_vars_count_as_bound() {
        let q = query(vec![
            pat(Slot::Var(0), 0, Slot::Var(1)),
            pat(Slot::Var(2), 1, Slot::Var(3)),
        ]);
        let mut s = |p: PredId| {
            Some(if p == PredId(0) {
                stats(10, 5, 5)
            } else {
                stats(1000, 500, 2)
            })
        };
        // With v2 seeded, pattern 1's estimate is rows_per_subject = 2,
        // beating pattern 0's 10.
        let order = order_patterns(&q, &[2], &mut s, 1010);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn missing_table_estimates_zero() {
        let mut s = |_p: PredId| None;
        let p = pat(Slot::Var(0), 0, Slot::Var(1));
        assert_eq!(base_estimate(&p, &mut s, 0), 0.0);
    }

    #[test]
    fn estimate_result_rows_multiplies_fanouts() {
        // likes ⋈ likes on a shared object: 1000 rows, 10 distinct objects
        // -> first pattern 1000, second extends by in-degree 100 -> 100k.
        let q = query(vec![
            pat(Slot::Var(0), 0, Slot::Var(1)),
            pat(Slot::Var(2), 0, Slot::Var(1)),
        ]);
        let mut s = |_p: PredId| Some(stats(1000, 500, 10));
        let est = estimate_result_rows(&q, &mut s, 1000);
        assert!((est - 100_000.0).abs() / 100_000.0 < 1e-9, "got {est}");
        // A selective constant shrinks it drastically.
        let q2 = query(vec![
            pat(Slot::Var(0), 0, Slot::Var(1)),
            pat(Slot::Var(0), 0, Slot::Const(NodeId(1))),
        ]);
        let est2 = estimate_result_rows(&q2, &mut s, 1000);
        assert!(
            est2 < est / 100.0,
            "constant must shrink the estimate: {est2}"
        );
    }
}
