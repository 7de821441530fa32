//! Charge parity of the graph matcher: exact `ExecStats` and row order
//! for the query shapes the executor special-cases — a triangle, the
//! colleague 4-cycle over a hub object with parallel edges, self-loops,
//! variable predicates, a cartesian seed, DISTINCT and LIMIT.
//!
//! The pinned figures were captured from the tuple-at-a-time recursion
//! the frontier executor replaced. Work units feed DOTIL's rewards and
//! every deterministic baseline, so a change of execution strategy must
//! reproduce them exactly: `len + 1` probes per neighbour lookup, one per
//! closing-edge candidate, one scanned row per seed edge, one join per
//! result row.

use kgdual_graphstore::{GraphBackend, GraphStore};
use kgdual_model::{NodeId, PredId};
use kgdual_relstore::{Bindings, ExecContext};
use kgdual_sparql::{EncPattern, EncodedQuery, PredSlot, Slot, Var, VarId};

const WORKS_AT: u32 = 0;
const GRADUATED: u32 = 1;
const BORN_IN: u32 = 2;
const ADVISOR: u32 = 3;
const HUB: u32 = 900_000;

/// A small deterministic generator (64-bit LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as u32
    }
}

/// 3 000 people (`#0`–`#2999`). `worksAt`: 600 work at one hub
/// organisation (`#900000`), the rest at one of 400 small ones; every 7th
/// edge is doubled. `graduatedFrom`: one of 40 universities, every 5th
/// edge doubled. `bornIn`: one of 50 cities (`#700000`–`#700049`).
/// `advisor`: one or two advisors each, a few self-advised, every 11th
/// edge doubled.
fn store() -> GraphStore {
    let mut rng = Lcg(7);
    let people = 3_000u32;
    let mut works = Vec::new();
    let mut grad = Vec::new();
    let mut born = Vec::new();
    let mut advisor = Vec::new();
    for p in 0..people {
        let org = if p % 5 == 0 {
            HUB
        } else {
            500_000 + rng.below(400)
        };
        works.push((NodeId(p), NodeId(org)));
        if p % 7 == 0 {
            works.push((NodeId(p), NodeId(org)));
        }
        let uni = 600_000 + rng.below(40);
        grad.push((NodeId(p), NodeId(uni)));
        if p % 5 == 1 {
            grad.push((NodeId(p), NodeId(uni)));
        }
        born.push((NodeId(p), NodeId(700_000 + rng.below(50))));
        for _ in 0..1 + rng.below(2) {
            let a = if p % 97 == 0 { p } else { rng.below(people) };
            advisor.push((NodeId(p), NodeId(a)));
            if p % 11 == 0 {
                advisor.push((NodeId(p), NodeId(a)));
            }
        }
    }
    let mut g = GraphStore::with_budget(1_000_000);
    for (pred, edges) in [
        (WORKS_AT, &works),
        (GRADUATED, &grad),
        (BORN_IN, &born),
        (ADVISOR, &advisor),
    ] {
        g.load_partition(PredId(pred), edges).unwrap();
    }
    g
}

/// Compile `select` (variables, space-separated) over `patterns`
/// (`s p o` triples joined by ` . `; a term is `?var`, `#id` for a node or
/// one of the four predicate names) with a `modifiers` list of
/// `distinct` and `limit N` (`-` for none).
fn query(select: &str, patterns: &str, modifiers: &str) -> EncodedQuery {
    let mut vars: Vec<Var> = Vec::new();
    let mut var = |name: &str| -> VarId {
        if let Some(i) = vars.iter().position(|v| v.name() == name) {
            return i as VarId;
        }
        vars.push(Var::new(name));
        (vars.len() - 1) as VarId
    };
    let mut encoded = Vec::new();
    for triple in patterns.split(" . ") {
        let [s, p, o]: [&str; 3] = triple
            .split_whitespace()
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let mut slot = |t: &str| match t.strip_prefix('?') {
            Some(name) => Slot::Var(var(name)),
            None => Slot::Const(NodeId(t[1..].parse().unwrap())),
        };
        let (s, o) = (slot(s), slot(o));
        let p = match p.strip_prefix('?') {
            Some(name) => PredSlot::Var(var(name)),
            None => PredSlot::Const(PredId(
                ["worksAt", "graduatedFrom", "bornIn", "advisor"]
                    .iter()
                    .position(|&n| n == p)
                    .unwrap() as u32,
            )),
        };
        encoded.push(EncPattern { s, p, o });
    }
    let projection = select.split_whitespace().map(|v| var(&v[1..])).collect();
    let words: Vec<&str> = modifiers.split_whitespace().collect();
    EncodedQuery {
        vars,
        patterns: encoded,
        projection,
        distinct: words.contains(&"distinct"),
        limit: words
            .iter()
            .position(|&w| w == "limit")
            .map(|i| words[i + 1].parse().unwrap()),
    }
}

/// FNV-1a over the row cells in order: pins row order, not just the set.
fn digest(b: &Bindings) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in b.rows() {
        for cell in row {
            h ^= cell.0 as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The cases, one per line: name | projection | patterns | modifiers |
/// `rows_scanned index_probes rows_joined rows_output` | result rows |
/// row-order digest. The colleague shape meets the hub organisation with
/// parallel `worksAt` and `graduatedFrom` edges, so its closing edge
/// multiplies multiplicities.
const CASES: &str = "
triangle | ?p ?a ?c | ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c | - | 3000 12828 159 159 | 159 | 9b38527f9a87d5af
colleague 4-cycle | ?p ?q ?o ?u | ?p worksAt ?o . ?q worksAt ?o . ?p graduatedFrom ?u . ?q graduatedFrom ?u | - | 3429 1009131 19383 19383 | 19383 | a0b5a08096921afc
hub colleagues | ?p ?q | ?p worksAt #900000 . ?q worksAt #900000 . ?p graduatedFrom ?u . ?q graduatedFrom ?u | - | 0 128057 12696 12696 | 12696 | 801a4dc6e05cbefb
self-loop seed | ?x | ?x advisor ?x | - | 4914 0 53 53 | 53 | 12c356e3c201b3ee
self-loop after a bind | ?c ?x | ?x advisor ?x . ?x bornIn ?c | - | 3000 3000 53 53 | 53 | 647df719355dfbb6
closing self-loop | ?x | ?x bornIn #700003 . ?x advisor ?x | - | 0 95 2 2 | 2 | 29ff107b02d2573
variable predicate between bound nodes | ?p ?r ?q | ?p advisor ?q . ?p ?r ?q | - | 4914 30915 5766 5766 | 5766 | bffc71027f88d457
variable predicate from a bound subject | ?p ?r ?x | ?p bornIn #700007 . ?p ?r ?x | - | 0 405 288 288 | 288 | cd668a4716e3e3f2
variable predicate into a bound object | ?x ?r | #17 advisor ?q . ?x ?r ?q | - | 0 9 4 4 | 4 | a749e28ef1714d08
variable predicate seed | ?s ?r ?o | ?s ?r ?o | - | 14943 0 14943 14943 | 14943 | 3fa252b922c393d9
cartesian seed at depth one | ?p ?x | ?p bornIn #700001 . ?x advisor ?x | - | 260442 54 2809 2809 | 2809 | b1742f5caf86cdc7
distinct | ?o | ?p worksAt ?o . ?p graduatedFrom ?u | distinct | 3429 7544 4115 399 | 399 | 4d0d4b4acec4bd68
colleague LIMIT cut mid-morsel | ?p ?q | ?p worksAt ?o . ?q worksAt ?o . ?p graduatedFrom ?u . ?q graduatedFrom ?u | limit 5000 | 3429 266460 5000 5000 | 5000 | 1400165a66a705b2
triangle LIMIT | ?p ?a | ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c | limit 7 | 3000 425 7 7 | 7 | d99462c02dcb9918
variable predicate seed LIMIT | ?s ?o | ?s ?r ?o | limit 5000 | 7029 0 5000 5000 | 5000 | f19e7b0b989a283f
distinct LIMIT | ?u | ?p worksAt ?o . ?p graduatedFrom ?u | distinct limit 10 | 3429 7544 4115 10 | 10 | 212fd048c154934b
";

#[test]
fn matcher_charges_and_row_order_are_pinned() {
    let g = store();
    for line in CASES.lines().filter(|l| !l.is_empty()) {
        let f: Vec<&str> = line.split(" | ").collect();
        let q = query(f[1], f[2], f[3]);
        let mut ctx = ExecContext::new();
        let rows = g.execute(&q, &mut ctx).unwrap();
        let st = &ctx.stats;
        let charges = format!(
            "{} {} {} {}",
            st.rows_scanned, st.index_probes, st.rows_joined, st.rows_output
        );
        assert_eq!(
            st.rows_hashed, 0,
            "{}: the matcher builds no hash tables",
            f[0]
        );
        assert_eq!(charges, f[4], "{}: charges", f[0]);
        assert_eq!(rows.len().to_string(), f[5], "{}: rows", f[0]);
        assert_eq!(format!("{:x}", digest(&rows)), f[6], "{}: row order", f[0]);
    }
}

/// EXPLAIN's per-depth `actual_rows` (one plan step per ordered pattern).
fn depth_rows(g: &GraphStore, q: &EncodedQuery) -> Vec<u64> {
    kgdual_vec::plan::begin_capture();
    g.execute(q, &mut ExecContext::new()).unwrap();
    let cap = kgdual_vec::plan::end_capture().unwrap();
    cap.ops.iter().map(|op| op.actual_rows).collect()
}

#[test]
fn explain_depth_rows_are_pinned() {
    let g = store();
    let colleague = "?p worksAt ?o . ?q worksAt ?o . ?p graduatedFrom ?u . ?q graduatedFrom ?u";
    let triangle = "?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c";
    let cases = [
        (query("?p", triangle, "-"), vec![3000, 4914, 159]),
        (
            query("?p", colleague, "-"),
            vec![3429, 4115, 498_736, 19_383],
        ),
        // Under LIMIT a depth counts the whole runs of the lookups it made
        // before the limit was reached; the last depth counts emitted rows.
        (
            query("?p", colleague, "limit 5000"),
            vec![3429, 1083, 131_701, 5000],
        ),
        (query("?x", "?x advisor ?x", "limit 20"), vec![20]),
        (query("?s", "?s ?r ?o", "limit 5000"), vec![5000]),
    ];
    for (q, want) in cases {
        assert_eq!(depth_rows(&g, &q), want);
    }
}
