//! Reference evaluator: the independent oracle outputs are checked against.
//!
//! Deliberately naive — per-predicate `s→o` / `o→s` hash maps built straight
//! from the dataset's triples and a backtracking matcher that takes the
//! patterns in query order. It shares no planner, cost model, executor or
//! dictionary code with the system under test, so a bug common to both
//! stores cannot hide behind "the two routes agree".

use std::collections::HashMap;

/// Subject or object position of a pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefTerm {
    /// Variable, numbered densely from 0.
    Var(usize),
    /// Constant node id.
    Const(u32),
}

/// A basic graph pattern over ids (bound predicates only).
#[derive(Clone, Debug)]
pub struct RefQuery {
    /// `(subject, predicate id, object)` patterns in query order.
    pub patterns: Vec<(RefTerm, u32, RefTerm)>,
    /// Variables projected, in output-column order.
    pub projection: Vec<usize>,
    /// Number of distinct variables.
    pub nvars: usize,
}

#[derive(Default)]
struct PredMaps {
    by_s: HashMap<u32, Vec<u32>>,
    by_o: HashMap<u32, Vec<u32>>,
    pairs: Vec<(u32, u32)>,
}

/// The reference copy of a graph.
#[derive(Default)]
pub struct RefGraph {
    preds: HashMap<u32, PredMaps>,
}

impl RefGraph {
    /// Index `(s, p, o)` triples.
    pub fn build(triples: impl Iterator<Item = (u32, u32, u32)>) -> Self {
        let mut g = RefGraph::default();
        for (s, p, o) in triples {
            let m = g.preds.entry(p).or_default();
            m.by_s.entry(s).or_default().push(o);
            m.by_o.entry(o).or_default().push(s);
            m.pairs.push((s, o));
        }
        g
    }

    /// All result rows of `q` (a multiset), sorted.
    pub fn eval(&self, q: &RefQuery) -> Vec<Vec<u32>> {
        let mut rows = Vec::new();
        let mut binding = vec![None; q.nvars];
        self.extend(q, 0, &mut binding, &mut rows);
        rows.sort_unstable();
        rows
    }

    fn extend(
        &self,
        q: &RefQuery,
        depth: usize,
        binding: &mut Vec<Option<u32>>,
        out: &mut Vec<Vec<u32>>,
    ) {
        let Some(&(s, p, o)) = q.patterns.get(depth) else {
            out.push(
                q.projection
                    .iter()
                    .map(|&v| binding[v].expect("projected variable occurs in a pattern"))
                    .collect(),
            );
            return;
        };
        let Some(maps) = self.preds.get(&p) else {
            return;
        };
        let value = |t: RefTerm, b: &[Option<u32>]| match t {
            RefTerm::Const(c) => Some(c),
            RefTerm::Var(v) => b[v],
        };
        // Candidate (s, o) pairs given what is bound so far.
        let candidates: Vec<(u32, u32)> = match (value(s, binding), value(o, binding)) {
            (Some(sv), Some(ov)) => maps
                .by_s
                .get(&sv)
                .into_iter()
                .flatten()
                .filter(|&&x| x == ov)
                .map(|&x| (sv, x))
                .collect(),
            (Some(sv), None) => maps
                .by_s
                .get(&sv)
                .into_iter()
                .flatten()
                .map(|&x| (sv, x))
                .collect(),
            (None, Some(ov)) => maps
                .by_o
                .get(&ov)
                .into_iter()
                .flatten()
                .map(|&x| (x, ov))
                .collect(),
            (None, None) => maps.pairs.clone(),
        };
        for (sv, ov) in candidates {
            // `?x p ?x` binds one variable twice: both ends must agree.
            if let (RefTerm::Var(a), RefTerm::Var(b)) = (s, o) {
                if a == b && sv != ov {
                    continue;
                }
            }
            let saved = (slot(s, binding), slot(o, binding));
            bind(s, sv, binding);
            bind(o, ov, binding);
            self.extend(q, depth + 1, binding, out);
            restore(s, saved.0, binding);
            restore(o, saved.1, binding);
        }
    }
}

fn slot(t: RefTerm, binding: &[Option<u32>]) -> Option<u32> {
    match t {
        RefTerm::Var(v) => binding[v],
        RefTerm::Const(_) => None,
    }
}

fn bind(t: RefTerm, value: u32, binding: &mut [Option<u32>]) {
    if let RefTerm::Var(v) = t {
        binding[v] = Some(value);
    }
}

fn restore(t: RefTerm, saved: Option<u32>, binding: &mut [Option<u32>]) {
    if let RefTerm::Var(v) = t {
        binding[v] = saved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_and_keeps_duplicates() {
        // 1 -p0-> 2, 1 -p0-> 3, 2 -p1-> 4, 3 -p1-> 4
        let g = RefGraph::build([(1, 0, 2), (1, 0, 3), (2, 1, 4), (3, 1, 4)].into_iter());
        let q = RefQuery {
            patterns: vec![
                (RefTerm::Var(0), 0, RefTerm::Var(1)),
                (RefTerm::Var(1), 1, RefTerm::Var(2)),
            ],
            projection: vec![0, 2],
            nvars: 3,
        };
        assert_eq!(g.eval(&q), vec![vec![1, 4], vec![1, 4]]);
        let bound = RefQuery {
            patterns: vec![(RefTerm::Const(1), 0, RefTerm::Var(0))],
            projection: vec![0],
            nvars: 1,
        };
        assert_eq!(g.eval(&bound), vec![vec![2], vec![3]]);
    }
}
