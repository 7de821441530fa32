//! Tiny-scale end-to-end checks: every workload completes in both modes with
//! nothing failed, runs are reproducible for a seed, the reference evaluator
//! agrees with the system, and `BENCHMARK.json` lists the catalogue.

use kgbench::reference::RefGraph;
use kgbench::report::{self, END_TO_END, PER_LAYER};
use kgbench::{fixture, sut, Plan, Sizes, Workload};
use std::path::PathBuf;

fn plan(workload: Workload, seed: u64, trace: bool, tag: &str) -> Plan {
    Plan {
        workload,
        seed,
        seconds: 2.0,
        trace,
        sizes: Sizes::tiny(),
        out_dir: std::env::temp_dir().join(format!("kgbench-test-{}-{tag}", std::process::id())),
    }
}

#[test]
fn every_workload_completes_in_both_modes_with_nothing_failed() {
    for workload in Workload::ALL {
        let p = plan(workload, 42, false, "plain");
        let out = kgbench::run(&p).expect("plain run");
        assert_eq!(out.failed, 0, "{}: plain run failed ops", workload.name());
        assert!(out.attempted > 0);
        for (name, _) in END_TO_END {
            let v = out.values.get(name).copied().unwrap_or(0.0);
            assert!(
                v > 0.0,
                "{}: {name} must be measured, got {v}",
                workload.name()
            );
        }
        for key in [
            "host_parallelism",
            "clients",
            "pool_threads",
            "seed",
            "latency_samples",
        ] {
            assert!(
                out.note_value(key).is_some(),
                "{}: note {key}",
                workload.name()
            );
        }
        let json = report::render_json(&out, false);
        assert!(json.starts_with("{\"correct\": true"), "{json}");

        let p = plan(workload, 42, true, "traced");
        let out = kgbench::run(&p).expect("traced run");
        assert_eq!(out.failed, 0, "{}: traced run failed ops", workload.name());
        let trace = p.out_dir.join(format!("trace-{}.jsonl", workload.name()));
        let spans = std::fs::read_to_string(&trace).expect("span file");
        assert!(
            spans.lines().count() > 10,
            "{}: spans written",
            workload.name()
        );
        assert!(spans
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        for name in out.values.keys() {
            assert!(
                PER_LAYER.iter().chain(&END_TO_END).any(|(n, _)| n == name),
                "{}: `{name}` is not in the metric catalogue",
                workload.name()
            );
        }
        for name in [
            "model.triples",
            "core.route_share.relational",
            "obs.trace_overhead_pct",
        ] {
            assert!(out.values.contains_key(name), "{}: {name}", workload.name());
        }
        let _ = std::fs::remove_dir_all(&p.out_dir);
    }
}

#[test]
fn a_seed_fixes_the_fingerprint_and_another_seed_changes_it() {
    // Single-threaded, so every count is exact.
    let fingerprint = |seed| {
        let out = kgbench::run(&plan(Workload::UpdateMixed, seed, false, "fp")).expect("run");
        assert_eq!(out.failed, 0);
        out.note_value("fingerprint")
            .expect("fingerprint")
            .to_owned()
    };
    let a = fingerprint(7);
    assert_eq!(
        a,
        fingerprint(7),
        "same seed, same rows / work units / routes"
    );
    assert_ne!(a, fingerprint(8), "another seed draws another op sequence");
}

#[test]
fn reference_evaluator_agrees_with_process_shared() {
    // Cold 2k-triple graph: every route is relational.
    let data = sut::generate(2_000);
    let reference = RefGraph::build(data.id_triples());
    let store = sut::share(data.cold_store());
    let mut temp = sut::Temp::default();
    let mut failures = Vec::new();
    for q in data.queries() {
        let rows = fixture::process_checked(&store, &mut temp, q, &mut failures)
            .expect("query runs")
            .sorted_rows();
        fixture::check_rows(&reference, &data, q, &[("cold", rows)], &mut failures);
    }
    assert!(failures.is_empty(), "{failures:?}");

    // Tuned store: graph and dual routes too, and the restored design equals
    // the checkpointed one (checked inside the set-up).
    let (fx, _) = fixture::tuned(&Sizes::tiny(), 2, false).expect("tuned fixture");
    let reference = RefGraph::build(fx.data.id_triples());
    let mut routes = std::collections::HashSet::new();
    for q in fx.data.queries() {
        let out = fixture::process_checked(&fx.store, &mut temp, q, &mut failures).expect("runs");
        routes.insert(format!("{:?}", out.sample().route));
        fixture::check_rows(
            &reference,
            &fx.data,
            q,
            &[("tuned", out.sorted_rows())],
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{failures:?}");
    assert!(
        routes.len() >= 2,
        "tuning must move some queries off the relational route: {routes:?}"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> &str {
        let start = spec.find(&format!("\"{key}\": [")).expect(key);
        &spec[start..start + spec[start..].find("\n  ]").expect("section end")]
    };
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let body = section(key);
        assert_eq!(
            body.matches("\"name\":").count(),
            catalogue.len(),
            "{key} length"
        );
        for (name, unit) in catalogue {
            assert!(
                body.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",")),
                "{key} must list {name} [{unit}]"
            );
        }
    }
    let workloads = section("workloads");
    for w in Workload::ALL {
        assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn only_the_adapter_names_the_crates() {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut stack = vec![src];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).expect("src dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n != "sut.rs") {
                let text = std::fs::read_to_string(&path).expect("source file");
                for (n, line) in text.lines().enumerate() {
                    let code = line.split("//").next().unwrap_or("");
                    assert!(
                        !code.contains("kgdual_"),
                        "{}:{}: calls into the crates belong in sut.rs",
                        path.display(),
                        n + 1
                    );
                }
            }
        }
    }
}
