//! `docs/baselines/explain_profile.json`: EXPLAIN ANALYZE profiles of the
//! YAGO query pool against a DOTIL-tuned store, and the named diff
//! `kgdual-explain check` reports drift with.
//!
//! [`profile`] builds the seeded store, runs the workload once with a
//! tuning epoch after each batch so residency (and therefore routing)
//! settles, then explains every distinct pool query. The document pins
//! its run parameters in `meta`, so a check re-runs at exactly the
//! captured scale, seed and threads.
//!
//! The `plan_digest` field is an FNV-1a hash over every query's
//! *deterministic* plan and profile JSON (route, operator sequence,
//! estimates, actual rows, work units) — byte-identical across thread
//! counts. [`diff`] compares the digest and, per query, the text, the
//! route and the plan object; wall clocks and batch counts in the
//! profiles are machine-dependent and never compared.

use crate::args::BenchArgs;
use crate::experiments::WorkloadKind;
use crate::serve_load::query_pool;
use crate::setup::{build_batches, build_dataset, build_workload, Order};
use kgdual_core::{process, DualStore, Options, PhysicalTuner};
use kgdual_dotil::{Dotil, DotilConfig};
use kgdual_exec::{BatchExecutor, SharedStore};
use kgdual_serve::json::{escape, Json};
use std::sync::Arc;

/// One profile run.
pub struct Profile {
    /// The JSON document, as committed.
    pub json: String,
    /// Every query's indented operator tree with estimates, actuals and
    /// q-errors, for a human reader.
    pub trees: String,
}

/// FNV-1a over a byte string (stable, dependency-free fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Profile the YAGO query pool at `args` (scale, seed, threads).
pub fn profile(args: &BenchArgs) -> Profile {
    let dataset = build_dataset(WorkloadKind::Yago, args);
    let workload = build_workload(WorkloadKind::Yago, args);
    let batches = build_batches(&workload, Order::Ordered, args.seed);
    let budget = dataset.len() / 4;

    // Settle residency first: one tuned workload pass, so the explained
    // routes reflect the store DOTIL actually builds, not the cold one.
    let store = SharedStore::new(DualStore::from_dataset(dataset, budget));
    let mut tuner = Dotil::with_config(DotilConfig::default());
    let executor = BatchExecutor::new(args.threads);
    let sched = Arc::clone(executor.scheduler());
    for batch in &batches {
        let report = executor.execute_batch(&store, batch);
        assert_eq!(report.errors, 0, "healthy tuning pass");
        store.reconfigure(|dual| tuner.tune_with(dual, batch, Some(&sched)));
    }

    let guard = store.read();
    let explain = Options {
        explain: true,
        ..Options::default()
    };
    let mut rows = Vec::new();
    let mut trees = String::new();
    let mut digest_input = String::new();
    for (i, text) in query_pool(args).iter().enumerate() {
        let query = kgdual_sparql::parse(text).expect("pool query parses");
        let out = process(&guard, &query, explain).expect("pool query runs");
        let plan = out.plan.as_ref().expect("explain run produces a plan");
        let profile = out
            .profile
            .as_ref()
            .expect("explain run produces a profile");
        trees.push_str(&format!("-- query #{i}: {text}\n"));
        trees.push_str(&plan.render_text(Some(profile)));
        digest_input.push_str(&plan.deterministic_json());
        digest_input.push_str(&profile.deterministic_json());
        rows.push(format!(
            "    {{\"idx\": {i}, \"query\": {}, \"route\": \"{}\", \"plan\": {}, \"profile\": {}}}",
            escape(text),
            out.route.name(),
            plan.deterministic_json(),
            profile.to_json(),
        ));
    }
    let json = format!(
        "{{\n  \"meta\": {{\n    \"workload\": \"YAGO\", \"scale\": {}, \"seed\": {}, \
         \"threads\": {}\n  }},\n  \"plan_digest\": \"{:016x}\",\n  \
         \"queries\": [\n{}\n  ]\n}}\n",
        args.scale,
        args.seed,
        args.threads,
        fnv1a(digest_input.as_bytes()),
        rows.join(",\n"),
    );
    Profile { json, trees }
}

/// The run parameters a profile document pins in its `meta`. They go
/// through [`BenchArgs::parse_from`], so a malformed value is an error,
/// not a silent default.
pub fn args_of(doc: &Json) -> Result<BenchArgs, String> {
    let meta = doc.get("meta").ok_or("no `meta` object")?;
    let mut flags = Vec::new();
    for key in ["scale", "seed", "threads"] {
        let value = meta
            .get(key)
            .ok_or_else(|| format!("meta does not pin {key}"))?;
        flags.extend([format!("--{key}"), value.to_string()]);
    }
    BenchArgs::parse_from(flags).map_err(|e| format!("meta: {e}"))
}

/// A field of a JSON object, `null` when absent.
fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    static NULL: Json = Json::Null;
    doc.get(key).unwrap_or(&NULL)
}

/// A document's queries, keyed by their `idx`.
fn queries(doc: &Json) -> Vec<(u64, &Json)> {
    let all = field(doc, "queries").as_arr().unwrap_or(&[]);
    all.iter()
        .map(|q| (field(q, "idx").as_u64().unwrap_or(u64::MAX), q))
        .collect()
}

/// Every difference between the committed profile document and `fresh`,
/// one line each, named by query: `q3: route graph -> relational`,
/// `q3: plan step 1: {…} -> {…}`, `q3: missing from fresh output`,
/// `q20: only in fresh output`, and `plan_digest a -> b`.
pub fn diff(committed: &Json, fresh: &Json) -> Vec<String> {
    // Strings bare, anything else as JSON.
    let show = |j: &Json| j.as_str().map_or_else(|| j.to_string(), str::to_owned);
    let (was, now) = (queries(committed), queries(fresh));
    let mut out = Vec::new();
    for (idx, base) in &was {
        let Some((_, got)) = now.iter().find(|(i, _)| i == idx) else {
            out.push(format!("q{idx}: missing from fresh output"));
            continue;
        };
        for key in ["query", "route"] {
            let (a, b) = (field(base, key), field(got, key));
            if a != b {
                out.push(format!("q{idx}: {key} {} -> {}", show(a), show(b)));
            }
        }
        let (a, b) = (field(base, "plan"), field(got, "plan"));
        let (sa, sb) = (field(a, "steps"), field(b, "steps"));
        let (sa, sb) = (sa.as_arr().unwrap_or(&[]), sb.as_arr().unwrap_or(&[]));
        if sa != sb {
            for i in 0..sa.len().max(sb.len()) {
                let (x, y) = (sa.get(i), sb.get(i));
                if x != y {
                    let step = |s: Option<&Json>| s.map_or("none".to_owned(), Json::to_string);
                    out.push(format!("q{idx}: plan step {i}: {} -> {}", step(x), step(y)));
                }
            }
        } else if a != b {
            out.push(format!("q{idx}: plan {a} -> {b}"));
        }
    }
    for (idx, _) in &now {
        if !was.iter().any(|(i, _)| i == idx) {
            out.push(format!("q{idx}: only in fresh output"));
        }
    }
    let (a, b) = (field(committed, "plan_digest"), field(fresh, "plan_digest"));
    if a != b {
        out.push(format!("plan_digest {} -> {}", show(a), show(b)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_serve::json::parse;

    const COMMITTED: &str = r#"{
  "meta": {"workload": "YAGO", "scale": 0.002, "seed": 42, "threads": 4},
  "plan_digest": "17ed9a2ae9ae26da",
  "queries": [
    {"idx": 0, "query": "SELECT ?p WHERE { ?p y:a ?c . }", "route": "graph", "plan": {"route":"graph","steps":[{"op":"graph_seed","pattern":0,"est_rows":12}]}, "profile": {"total_wall_ns":361998}},
    {"idx": 1, "query": "SELECT ?p WHERE { ?p y:b ?c . ?c y:a ?d . }", "route": "relational", "plan": {"route":"relational","steps":[{"op":"scan","pattern":0,"est_rows":7},{"op":"hash_join","pattern":1,"est_rows":3}]}, "profile": {"total_wall_ns":62630}}
  ]
}"#;

    #[test]
    fn meta_pins_the_run_parameters() {
        let args = args_of(&parse(COMMITTED).unwrap()).unwrap();
        assert_eq!((args.scale, args.seed, args.threads), (0.002, 42, 4));
        let e = args_of(&parse(&COMMITTED.replace("\"seed\": 42", "\"seed\": \"x\"")).unwrap())
            .unwrap_err();
        assert!(e.contains("--seed"), "{e}");
        let e = args_of(&parse(&COMMITTED.replace(", \"threads\": 4}", "}")).unwrap()).unwrap_err();
        assert!(e.contains("threads"), "{e}");
    }

    #[test]
    fn diff_ignores_wall_clocks_and_names_route_plan_step_missing_and_digest() {
        let base = parse(COMMITTED).unwrap();
        let rerun = parse(&COMMITTED.replace("361998", "1")).unwrap();
        assert!(diff(&base, &rerun).is_empty(), "wall clocks never drift");

        let fresh = COMMITTED
            .replace("\"route\": \"graph\"", "\"route\": \"relational\"")
            .replace(
                "\"hash_join\",\"pattern\":1",
                "\"index_join\",\"pattern\":1",
            )
            .replace("17ed9a2ae9ae26da", "0000000000000001");
        assert_eq!(
            diff(&base, &parse(&fresh).unwrap()),
            [
                "q0: route graph -> relational",
                "q1: plan step 1: {\"op\":\"hash_join\",\"pattern\":1,\"est_rows\":3} -> \
                 {\"op\":\"index_join\",\"pattern\":1,\"est_rows\":3}",
                "plan_digest 17ed9a2ae9ae26da -> 0000000000000001",
            ]
        );

        let renumbered = parse(&COMMITTED.replace("\"idx\": 1", "\"idx\": 2")).unwrap();
        assert_eq!(
            diff(&base, &renumbered),
            ["q1: missing from fresh output", "q2: only in fresh output"]
        );
    }
}
